"""Formal power-series solutions of the quadratic first-order ODE

    (1 - A z) F(z) - B z^2 F'(z) - C z F(z)^2 - 1 - D z = 0

and its order-n rational approximants P_n/Q_n, both via closed-form
coefficient formulas (parameterized by E with E^2 = A^2 - 4CD) and via an
independent linear-algebra route that never touches E.

Comparing coefficients of z^m in the ODE gives a recurrence that is monic in
the new coefficient, so the series exists over the rationals and over any
Z/p^alpha alike:

    f_m = (A + (m-1) B) f_{m-1} + C * sum_{i+j=m-1} f_i f_j + D [m = 1].

The approximant pair (P_n, Q_n) has constant terms 1 and satisfies

    (1-Az) P Q - B z^2 (P'Q - PQ') - C z P^2 - (1+Dz) Q^2 = -r z^(2n+1)

for a scalar r (`residual_const`): the product of the first n + 1 factors
that `residual_factors` yields.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import count, islice
from math import comb, isqrt, lcm, prod
from operator import add

from .errors import DegenerateParameters, IntegralityViolation, SingularPadeSystem
from .exact import ModRingCtx, mod_reduce, pochhammer
from .poly import (
    SCHOOLBOOK_MAX,
    Poly,
    Series,
    _folded,
    _karatsuba,
    _karatsuba_pays,
    kronecker,
    series_div,
)


def _rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


@dataclass(frozen=True)
class RiccatiParams:
    """The four ODE constants plus the square root E of the discriminant
    A^2 - 4CD.  Either sign of E describes the same instance; every public
    result is invariant under E -> -E.  E may be None when the discriminant
    is not a rational square, in which case only the linear-algebra route
    is available.
    """

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    e: Fraction | None = None

    def __post_init__(self):
        for name in "abcd":
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.b == 0:
            raise ValueError("B must be nonzero")
        if self.e is not None:
            object.__setattr__(self, "e", Fraction(self.e))
            if self.e * self.e != self.a * self.a - 4 * self.c * self.d:
                raise ValueError("E^2 must equal A^2 - 4CD")

    @classmethod
    def of(cls, a, b, c, d, e=None) -> "RiccatiParams":
        """Build params; when e is omitted it is derived from the
        discriminant if that is a perfect rational square."""
        if e is None:
            e = _rational_sqrt(Fraction(a) * a - 4 * Fraction(c) * d)
        return cls(Fraction(a), Fraction(b), Fraction(c), Fraction(d), e)

    def is_integral(self) -> bool:
        vals = [self.a, self.b, self.c, self.d]
        if self.e is not None:
            vals.append(self.e)
        return all(v.denominator == 1 for v in vals)


@dataclass(frozen=True)
class PadePair:
    """Order-n approximant: P, Q of degree <= n, P(0) = Q(0) = 1."""

    n: int
    p: Poly
    q: Poly
    residual_const: Fraction


def _karatsuba_block(x: list, y: list, width: int) -> list:
    """A block of `_online_square` over Z: by `poly._karatsuba` once the
    coefficients are big enough for it to pay, term by term before."""
    if not _karatsuba_pays(x, y):
        return _folded(x, y, width, 2)
    return _karatsuba(x, x if x is y else [2 * v for v in y])[:width]


def _kronecker_block(modulus: int, length: int):
    """Block product over Z/modulus by Kronecker substitution (Harvey 2009).

    Each operand, residues in [0, modulus), is packed by `poly.kronecker`;
    one big-integer product then does the whole block, and the slots of the
    result are its coefficients.  The slots hold 2 * length * (modulus - 1)^2,
    the largest coefficient of a doubled block with at most `length` terms
    per operand.  Blocks of at most `SCHOOLBOOK_MAX` terms are taken term by
    term.
    """
    pack, unpack = kronecker(modulus, 2 * length)

    def block(x: list, y: list, width: int) -> list:
        if len(x) <= SCHOOLBOOK_MAX:
            return _folded(x, y, width, 2)
        packed = pack(x)
        return unpack(packed * packed if x is y else packed * pack(y) << 1, width)

    return block


def _online_square(f: list, count: int, block) -> Iterator:
    """Yield S_n = sum_{i+j=n} f_i f_j for n = 0..count-1, each as soon as
    f_n has been appended to `f` (relaxed multiplication, van der Hoeven,
    "Relax, but don't be too lazy", JSC 34, 2002).

    Square blocks of power-of-two size tile the quadrant of index pairs. At
    step n, for each size s = 2^k with s | n+2 and 2s <= n+2, the rows
    [s-1, 2s-1) meet the columns [n+1-s, n+1). Such a block has largest index
    n and smallest index sum n, so it can be added once f_n is known and S_n
    is complete right after. The block with n+1-s = s-1 lies on the diagonal;
    every other one also stands for its mirror image. Sums at index `count`
    or beyond are never needed, so operands and results are cut there.
    `block(x, y, width)` returns terms 0..width-1 of x*x for a diagonal
    block (`x is y`) and of 2*x*y for any other, which stands for itself
    and its mirror image.
    """
    s = [0] * count
    for n in range(count):
        size = 1
        while (n + 2) % size == 0 and n + 2 >= 2 * size:
            width = min(2 * size - 1, count - n)
            take = min(size, width)
            x = f[size - 1 : size - 1 + take]
            col = n + 1 - size
            y = x if col == size - 1 else f[col : col + take]
            s[n : n + width] = map(add, s[n : n + width], block(x, y, width))
            size *= 2
        yield s[n]
        s[n] = 0  # release the sum early: it is never read again


def riccati_series(params: RiccatiParams, length: int, ctx: ModRingCtx | None = None) -> Series:
    """The unique solution series with F(0) = 1, to `length` coefficients.

    Over Z/p^alpha the same recurrence is run on reduced parameters; this is
    well-defined because the recurrence never divides. Integer parameters
    keep integer coefficients; other rational ones give Fractions. The
    convolution comes from `_online_square`, whose block product is the only
    part that depends on the ring and the coefficient type: Karatsuba over
    Z, term by term over Q, where a sum costs as much as a product, and
    Kronecker packing over Z/p^alpha.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    consts = (params.a, params.b, params.c, params.d)
    if ctx is not None:
        a, b, c, d = (mod_reduce(v, ctx) for v in consts)
        one, modulus, block = 1, ctx.modulus, _kronecker_block(ctx.modulus, length)
    elif all(v.denominator == 1 for v in consts):
        a, b, c, d = (int(v) for v in consts)
        one, modulus, block = 1, None, _karatsuba_block
    else:
        a, b, c, d = consts
        one, modulus, block = Fraction(1), None, partial(_folded, scale=2)
    f = [one]
    for n, s_n in enumerate(_online_square(f, length - 1, block)):
        # f_{n+1} = (A + n B) f_n + C S_n + D [n = 0]
        v = (a + b * n) * f[n] + c * s_n
        if n == 0:
            v += d
        f.append(v if modulus is None else v % modulus)
    return Series(tuple(f), ctx)


def residual_factors(params: RiccatiParams) -> Iterator[Fraction]:
    """Yield A + C + D, then the l-th factor of the residual constant for
    l = 1, 2, ...; r for order n is the product of the first n + 1."""
    a, b, c, d = params.a, params.b, params.c, params.d
    yield a + c + d
    for l in count(1):
        yield l * a * b + a * c + c * d + l * l * b * b + 2 * l * b * c + c * c


def residual_constant(params: RiccatiParams, n: int) -> Fraction:
    """The scalar multiplying -z^(2n+1) in the defining identity."""
    if n < 0:
        raise ValueError("need n >= 0")
    return prod(islice(residual_factors(params), n + 1))


def _require_closed_form(params: RiccatiParams, n: int, need_c: bool) -> None:
    """Validate the preconditions of the explicit coefficient formulas."""
    if params.e is None:
        raise DegenerateParameters("E is not available")
    if params.e == 0:
        raise DegenerateParameters("E = 0")
    if need_c and params.c == 0:
        raise DegenerateParameters("C = 0")
    x = params.e / params.b
    if x.denominator == 1 and abs(x.numerator) <= n:
        raise DegenerateParameters(f"E/B = {x} collides with the index range")


def _over(den: int, v: Fraction) -> int:
    """The numerator of v written over `den`, a multiple of v's denominator."""
    return v.numerator * (den // v.denominator)


def _coeff_sums(params: RiccatiParams, n: int, kp: int, brackets: bool) -> Fraction:
    """The two j-sums shared by the numerator and denominator formulas,
    combined as poch(a+, n+1) s- - poch(a-, n+1) s+ and divided by
    poch(x - kp, 2kp + 1), where x = E/B and a-/+ = (A + 2C -/+ E)/(2B).

    `kp` is the internal index (the coefficient produced is the one of
    z^(n - kp)).  The j-th summand of s-/+ is

        C(kp+j, j) C(n-j, kp-j) poch(-/+x + j + 1, kp - j) poch(a-/+, j),

    times, with brackets=True, the numerator's linear form
    A -/+ E + 2j/(kp+j) (kp B +/- E); as C(kp+j, j) j/(kp+j) = C(kp+j-1, j-1),
    C(kp+j, j) times that form needs no division.

    The sums are taken in integers: over the common denominator D of x and
    a-/+, poch(-/+x + j + 1, kp - j) D^(kp-j) is a suffix product built
    backwards and poch(a-/+, j) D^j a prefix product built forwards, so each
    summand is an integer over D^kp (times M, the common denominator of A, B
    and E, with brackets). That is O(n) integer products and one Fraction per
    coefficient, and no factor is ever divided by.
    """
    a, b, c, e = params.a, params.b, params.c, params.e
    x = e / b
    ap = (a + 2 * c + e) / (2 * b)
    am = (a + 2 * c - e) / (2 * b)
    den = lcm(x.denominator, ap.denominator, am.denominator)
    xi = _over(den, x)
    if brackets:
        m = lcm(a.denominator, b.denominator, e.denominator)
        ai, bi, ei = (_over(m, v) for v in (a, b, e))
    else:
        m = 1

    # C(n-j, kp-j) times C(kp+j, j) and 2 C(kp+j-1, j-1), for j = 0..kp
    weights, u_prev, u = [], 0, 1
    for j in range(kp + 1):
        w = comb(n - j, kp - j)
        weights.append((w * u, 2 * w * u_prev))
        u_prev, u = u, u * (kp + j + 1) // (j + 1)

    def side(sign: int) -> tuple[int, int]:
        """(s-/+ D^kp M, poch(a-/+, n+1) D^(n+1)) for sign -1 / +1."""
        shift = _over(den, ap if sign > 0 else am)
        lead, tail = (ai + sign * ei, kp * bi - sign * ei) if brackets else (1, 0)
        suffix = [1]  # suffix[kp - j] = prod_{j<i<=kp} (sign X + i D)
        for i in range(kp, 0, -1):
            suffix.append(suffix[-1] * (sign * xi + i * den))
        total, prefix = 0, 1
        for j, (w_lead, w_tail) in enumerate(weights):
            total += suffix[kp - j] * prefix * (w_lead * lead + w_tail * tail)
            prefix *= shift + j * den
        return total, prefix * prod(shift + i * den for i in range(kp + 1, n + 1))

    s_minus, poch_am = side(-1)
    s_plus, poch_ap = side(1)
    # poch(x - kp, 2kp + 1) D^(2kp+1) = prod_{|i|<=kp} (X + i D)
    divisor = prod(xi + i * den for i in range(-kp, kp + 1))
    return Fraction(poch_ap * s_minus - poch_am * s_plus, den ** (n - kp) * m * divisor)


def _assert_integral(params: RiccatiParams, value: Fraction) -> Fraction:
    if params.is_integral() and value.denominator != 1:
        raise IntegralityViolation(f"expected an integer, got {value}")
    return value


def pade_coeff_q(params: RiccatiParams, n: int, k: int) -> Fraction:
    """Coefficient of z^k in Q_n, from the closed form."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    kp = n - k
    _require_closed_form(params, kp, need_c=False)
    val = (-1) ** n * params.b**k * _coeff_sums(params, n, kp, brackets=False)
    return _assert_integral(params, val)


def pade_coeff_p(params: RiccatiParams, n: int, k: int) -> Fraction:
    """Coefficient of z^k in P_n, from the closed form."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    kp = n - k
    _require_closed_form(params, kp, need_c=True)
    val = (-1) ** (n + 1) * params.b**k * _coeff_sums(params, n, kp, brackets=True) / (2 * params.c)
    return _assert_integral(params, val)


def pade_pair(params: RiccatiParams, n: int) -> PadePair:
    """Assemble (P_n, Q_n) from the closed form.

    Raises DegenerateParameters when the formulas are undefined (C = 0,
    E = 0 or unavailable, or E/B an integer in [-n, n]); callers wanting a
    transparent fallback should use build_pade.
    """
    _require_closed_form(params, n, need_c=True)
    p = Poly([pade_coeff_p(params, n, k) for k in range(n + 1)])
    q = Poly([pade_coeff_q(params, n, k) for k in range(n + 1)])
    return PadePair(n, p, q, residual_constant(params, n))


def _solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination over Fraction.  Consistent singular systems are
    resolved by zeroing free variables; inconsistent ones raise."""
    n = len(rhs)
    m = len(rows[0]) if rows else 0
    aug = [list(map(Fraction, rows[i])) + [Fraction(rhs[i])] for i in range(n)]
    piv_cols = []
    r = 0
    for col in range(m):
        piv = next((i for i in range(r, n) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        for i in range(n):
            if i != r and aug[i][col] != 0:
                fac = aug[i][col] / aug[r][col]
                for j in range(col, m + 1):
                    aug[i][j] -= fac * aug[r][j]
        piv_cols.append(col)
        r += 1
        if r == n:
            break
    for i in range(r, n):
        if aug[i][m] != 0:
            raise SingularPadeSystem("inconsistent linear system")
    x = [Fraction(0)] * m
    for i, col in enumerate(piv_cols):
        x[col] = aug[i][m] / aug[i][col]
    return x


def pade_oracle(params: RiccatiParams, n: int) -> PadePair:
    """Order-n approximant from the series alone: solve F*Q - P = O(z^(2n+1))
    with Q(0) = 1.  Uses no closed form and never needs E."""
    f = riccati_series(params, 2 * n + 1).coeffs
    f = [Fraction(c) for c in f]
    # rows m = n+1 .. 2n:  sum_{j=1..n} q_j f_{m-j} = -f_m
    rows = [[f[m - j] for j in range(1, n + 1)] for m in range(n + 1, 2 * n + 1)]
    rhs = [-f[m] for m in range(n + 1, 2 * n + 1)]
    qs = [Fraction(1)] + _solve_exact(rows, rhs)
    ps = [sum(qs[j] * f[k - j] for j in range(min(k, n) + 1)) for k in range(n + 1)]
    p, q = Poly(ps), Poly(qs)
    lhs = _identity_lhs(PadePair(n, p, q, Fraction(0)), params)
    for k in range(2 * n + 1):
        if lhs.coeff(k) != 0:
            raise SingularPadeSystem("solution does not satisfy the identity")
    return PadePair(n, p, q, -Fraction(lhs.coeff(2 * n + 1)))


def build_pade(params: RiccatiParams, n: int, allow_fallback: bool = True):
    """Public pair construction: closed form when defined, otherwise the
    linear-algebra route.  Returns (pair, route)."""
    try:
        return pade_pair(params, n), "closed-form"
    except DegenerateParameters:
        if not allow_fallback:
            raise
        return pade_oracle(params, n), "oracle"


def _identity_lhs(pair: PadePair, params: RiccatiParams) -> Poly:
    """The left side of the defining identity, computed in integers over one
    common denominator: with P = P'/N, Q = Q'/N and the constants A, B, C, D
    integers over M, the left side is quadratic in P, Q and linear in the
    constants, so it is an integer polynomial over N^2 M."""
    consts = (params.a, params.b, params.c, params.d)
    den = lcm(*(Fraction(v).denominator for v in pair.p.coeffs + pair.q.coeffs))
    m = lcm(*(v.denominator for v in consts))
    p = Poly([_over(den, Fraction(v)) for v in pair.p.coeffs])
    q = Poly([_over(den, Fraction(v)) for v in pair.q.coeffs])
    a, b, c, d = (_over(m, v) for v in consts)
    wronskian = p.derivative() * q - p * q.derivative()
    lhs = (
        Poly([m, -a]) * p * q
        - Poly([0, 0, b]) * wronskian
        - Poly([0, c]) * p * p
        - Poly([m, d]) * q * q
    )
    return Poly([Fraction(v, den * den * m) for v in lhs.coeffs])


def verify_identity(pair: PadePair, params: RiccatiParams) -> bool:
    """Exact polynomial check of the defining identity against the stored
    residual constant."""
    lhs = _identity_lhs(pair, params)
    expected = Poly([0] * (2 * pair.n + 1) + [-pair.residual_const])
    return lhs == expected


def _gosper_scale(params: RiccatiParams, n: int) -> Fraction:
    """(2n+1) (-1)^n / (C B^n (x - n)_{2n+1}) with x = E/B, the factor that
    the certificate and both sides of the telescoped sum share."""
    x = params.e / params.b
    return (2 * n + 1) * Fraction((-1) ** n) / (params.c * params.b**n * pochhammer(x - n, 2 * n + 1))


def _gosper_certificate(params: RiccatiParams, n: int, j: int) -> Fraction:
    a, b, c, e = params.a, params.b, params.c, params.e
    x = e / b
    am = (a + 2 * c - e) / (2 * b)
    return (
        _gosper_scale(params, n)
        * comb(n + j - 1, n)
        * pochhammer(-x + j, n - j + 1)
        * pochhammer(am, j)
    )


def verify_gosper(params: RiccatiParams, n: int, certificate=None) -> bool:
    """Check the telescoping identity behind the constant-term comparison:
    the explicit certificate G must satisfy term(j) = G(j+1) - G(j) for
    every j, and the telescoped sum must equal the closed-form right side.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    _require_closed_form(params, n, need_c=True)
    a, b, c, e = params.a, params.b, params.c, params.e
    x = e / b
    am = (a + 2 * c - e) / (2 * b)
    cert = certificate or (lambda nn, jj: _gosper_certificate(params, nn, jj))

    scale = _gosper_scale(params, n)
    total = Fraction(0)
    for j in range(n + 1):
        bracket = 2 * c + a + Fraction(2 * n * j, n + j) * b - Fraction(n - j, n + j) * e
        summand = comb(n + j, n) * pochhammer(-x + j + 1, n - j) * pochhammer(am, j)
        term = scale / (2 * b) * summand * bracket
        if term != cert(n, j + 1) - cert(n, j):
            return False
        total += term
    return total == scale * comb(2 * n, n) * pochhammer(am, n + 1)


def pair_series(pair: PadePair, length: int, ctx: ModRingCtx | None = None) -> Series:
    """Series expansion of P/Q, exactly or reduced into Z/p^alpha."""
    if ctx is None:
        return series_div(pair.p, pair.q, length)
    p = Poly([mod_reduce(c, ctx) for c in pair.p.coeffs], ctx)
    q = Poly([mod_reduce(c, ctx) for c in pair.q.coeffs], ctx)
    return series_div(p, q, length)
