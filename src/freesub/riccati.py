"""Formal power-series solutions of the quadratic first-order ODE

    (1 - A z) F(z) - B z^2 F'(z) - C z F(z)^2 - 1 - D z = 0

and its order-n rational approximants P_n/Q_n, both via closed-form
coefficient formulas (parameterized by E with E^2 = A^2 - 4CD) and via an
independent route, the convergents of a J-fraction, that never touches E.

Comparing coefficients of z^m in the ODE gives a recurrence that is monic in
the new coefficient, so the series exists over the rationals and over any
Z/p^alpha alike:

    f_m = (A + (m-1) B) f_{m-1} + C * sum_{i+j=m-1} f_i f_j + D [m = 1].

The approximant pair (P_n, Q_n) has constant terms 1 and satisfies

    (1-Az) P Q - B z^2 (P'Q - PQ') - C z P^2 - (1+Dz) Q^2 = -r z^(2n+1)

for a scalar r (`residual_const`): the product of the first n + 1 factors
that `residual_factors` yields.  P_n/Q_n is the n-th convergent of the
J-fraction

    F = 1 + (A + C + D) z/(1 - beta_0 z - gamma_1 z^2/(1 - beta_1 z - gamma_2 z^2/(1 - ...))),

with beta_h = A + 2C + (2h + 1) B and gamma_h the h-th of those factors, so
Q_{n+1} = (1 - beta_n z) Q_n - gamma_n z^2 Q_{n-1}, and P_n likewise.  The
exact series engine reads the coefficients of F off this fraction,
`pade_oracle` builds the pairs by this recurrence, and the stable degree
and the congruence classes mod p are where the factors vanish mod p.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from itertools import accumulate, chain, count, islice, repeat
from math import comb, isqrt, lcm, prod
from operator import add, mul

from .errors import DegenerateParameters, IntegralityViolation, SingularPadeSystem, UnsupportedPrime
from .exact import ModRingCtx, Rational, Record, is_prime, mod_reduce, pochhammer, require_rational, vp_int
from .poly import Poly, Series


def _rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


class RiccatiParams(Record):
    """The four ODE constants, ints or Fractions, B nonzero.  E, the square
    root of the discriminant A^2 - 4CD, is derived from them and never
    given: the nonnegative rational root, or None when the discriminant is
    not a rational square, in which case only the J-fraction route
    (`pade_oracle`) is available.  The closed forms are even in E, so the
    one root serves.
    """

    __slots__ = ("a", "b", "c", "d", "e")

    def __init__(self, a: Rational, b: Rational, c: Rational, d: Rational):
        a, b, c, d = (Fraction(require_rational(v)) for v in (a, b, c, d))
        if b == 0:
            raise ValueError("B must be nonzero")
        self._set(a, b, c, d, _rational_sqrt(a * a - 4 * c * d))

    def is_integral(self) -> bool:
        # a rational root of an integer is an integer, so E follows A..D
        return all(v.denominator == 1 for v in (self.a, self.b, self.c, self.d))


class PadePair(Record):
    """Order-n approximant: P, Q of degree <= n, P(0) = Q(0) = 1."""

    __slots__ = ("n", "p", "q", "residual_const")

    def __init__(self, n: int, p: Poly, q: Poly, residual_const: Fraction):
        self._set(n, p, q, residual_const)


def _over(den: int, v: Fraction) -> int:
    """The numerator of v written over `den`, a multiple of v's denominator."""
    return v.numerator * (den // v.denominator)


def _numerators(params: RiccatiParams) -> tuple[int, tuple[int, int, int, int]]:
    """(M, the numerators of A, B, C and D over M), M their common
    denominator."""
    consts = (params.a, params.b, params.c, params.d)
    m = lcm(*(v.denominator for v in consts))
    return m, tuple(_over(m, v) for v in consts)


def _betas(a: int, b: int, c: int, d: int) -> Iterator[int]:
    """M beta_h for h = 0, 1, ..., from the numerators a, b, c, d of A, B, C,
    D over M: beta_h = A + 2C + (2h + 1) B is the h-th partial denominator's
    coefficient in the J-fraction."""
    return (a + 2 * c + (2 * h + 1) * b for h in count())


def _gammas(a: int, b: int, c: int, d: int) -> Iterator[int]:
    """M^2 gamma_l for l = 1, 2, ..., from the numerators a, b, c, d of A, B,
    C, D over M: gamma_l = B^2 l^2 + B (A + 2C) l + C (A + C + D) is the l-th
    residual factor and the l-th partial numerator of the J-fraction."""
    return (l * l * b * b + l * b * (a + 2 * c) + c * (a + c + d) for l in count(1))


def _jacobi_series(a: int, b: int, c: int, d: int, length: int) -> list[int]:
    """The first `length` coefficients of the solution for the integer
    constants A, B, C, D = a, b, c, d, read off its J-fraction

        F = 1 + (A + C + D) z K,
        K = 1/(1 - beta_0 z - gamma_1 z^2/(1 - beta_1 z - gamma_2 z^2/(1 - ...))),

    with beta_h from `_betas` and gamma_h from `_gammas`.  The
    coefficient of z^t in K is the weighted count of Motzkin paths of t
    steps from height 0 back to 0: a rise weighs 1, a level step at height
    h weighs beta_h and a fall from h to h - 1 weighs gamma_h (Flajolet,
    Discrete Math. 32, 1980).  Row u_t holds those counts for the paths
    that end at each height h, so

        u_{t+1}[h] = u_t[h-1] + beta_h u_t[h] + gamma_{h+1} u_t[h+1]

    and f_{t+1} = (A + C + D) u_t[0].  A row keeps only the heights that can
    still fall back to 0 by the last step, so the whole series costs about
    L^2/4 products of a small by a big integer, and no convolution.
    """
    lead = a + c + d
    half = length // 2 + 1
    betas = list(islice(_betas(a, b, c, d), half))
    gammas = list(islice(_gammas(a, b, c, d), half))  # gammas[h] = gamma_{h+1}
    f, u = [1], [1]
    for t in range(length - 1):
        f.append(lead * u[0])
        u.append(0)
        rise, level = chain([0], u), map(mul, betas, u)
        fall = chain(map(mul, gammas, u[1:]), [0])
        top = min(t + 1, length - 3 - t)  # the highest height of u_{t+1} kept
        u = list(islice(map(add, map(add, rise, level), fall), max(top + 1, 0)))
    return f


def riccati_series(params: RiccatiParams, length: int, ctx: ModRingCtx | None = None) -> Series:
    """The unique solution series with F(0) = 1, to `length` coefficients.

    The ring picks the algorithm.  Over Z and Q the coefficients are read
    off the J-fraction (`_jacobi_series`), whose products all have one small
    factor.  Rational parameters run on integers: with a, b, c, d the
    numerators of A, B, C, D over their common denominator M,
    g_n = M^n f_n is the series for the constants a, b, c, d, and
    f_n = g_n / M^n.  Integer parameters keep integer coefficients; other
    rational ones give Fractions.

    Over Z/p^alpha the recurrence itself is run on reduced parameters; this
    is well-defined because the recurrence never divides.  S_n is one
    folded dot product per term, about L^2/4 residue products in all, for
    the few hundred terms that certifying a rational form reads.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    if ctx is None:
        scale, (a, b, c, d) = _numerators(params)
        f = _jacobi_series(a, b, c, d, length)
        if scale > 1:
            f = list(map(Fraction, f, accumulate(repeat(scale, length - 1), mul, initial=1)))
        return Series(tuple(f))
    a, b, c, d = (mod_reduce(v, ctx) for v in (params.a, params.b, params.c, params.d))
    modulus = ctx.modulus
    f = [1]
    for n in range(length - 1):
        # f_{n+1} = (A + n B) f_n + C S_n + D [n = 0], with S_n = sum_{i+j=n}
        # f_i f_j folded: each pair i < n - i once and doubled, plus f_{n/2}^2
        h = (n + 1) // 2
        s_n = 2 * sum(map(mul, f[:h], f[n : n - h : -1]))
        if n % 2 == 0:
            s_n += f[h] * f[h]
        v = (a + b * n) * f[n] + c * s_n
        if n == 0:
            v += d
        f.append(v % modulus)
    return Series._residues(f, ctx)


def _residual_numerators(params: RiccatiParams) -> tuple[int, Iterator[int]]:
    """(M^2, the factors of `residual_factors` times M^2), M the common
    denominator of A, B, C and D: each factor is quadratic in them."""
    m, (a, b, c, d) = _numerators(params)
    return m * m, chain([m * (a + c + d)], _gammas(a, b, c, d))


def residual_factors(params: RiccatiParams) -> Iterator[Fraction]:
    """Yield A + C + D, then the l-th factor of the residual constant for
    l = 1, 2, ...; r for order n is the product of the first n + 1."""
    scale, numerators = _residual_numerators(params)
    return (Fraction(v, scale) for v in numerators)


def residual_constant(params: RiccatiParams, n: int) -> Fraction:
    """The scalar multiplying -z^(2n+1) in the defining identity: one
    integer product, over M^(2n+2)."""
    if n < 0:
        raise ValueError("need n >= 0")
    scale, numerators = _residual_numerators(params)
    return Fraction(prod(islice(numerators, n + 1)), scale ** (n + 1))


def _shifts(params: RiccatiParams) -> tuple[Fraction, Fraction]:
    """(a-, a+) = ((A + 2C - E)/(2B), (A + 2C + E)/(2B)).  As E^2 = A^2 - 4CD,
    the l-th residual factor is B^2 (l + a-)(l + a+)."""
    a, b, c, e = params.a, params.b, params.c, params.e
    return (a + 2 * c - e) / (2 * b), (a + 2 * c + e) / (2 * b)


def class_residues(params: RiccatiParams, p: int) -> tuple[int, int]:
    """The residues -a- and -a+ mod p, sorted: the l at which gamma_l / B^2 =
    (l + a-)(l + a+) vanishes mod p.  Raises UnsupportedPrime unless E is
    rational, p is prime, and B and a-/+ are p-integral."""
    shifts = _shifts(params) if params.e is not None else ()
    if not shifts or not is_prime(p) or any(v.denominator % p == 0 for v in (params.b, *shifts)):
        raise UnsupportedPrime(f"the residual factors have no class of roots mod {p}")
    return tuple(sorted(-v.numerator * pow(v.denominator, -1, p) % p for v in shifts))


def stable_index(params: RiccatiParams, p: int, alpha: int = 1) -> int:
    """The least n whose residual constant r_n has p-adic valuation >= alpha,
    adding the factors' valuations (a factor 0 counts as alpha).  Once
    `class_residues` accepts p, no factor past A + C + D has a negative
    valuation and any p consecutive gamma_l hold a root: the walk ends."""
    class_residues(params, p)
    scale, numerators = _residual_numerators(params)
    acc, shift = 0, vp_int(scale, p)
    for n, factor in enumerate(numerators):
        acc += vp_int(factor, p) - shift if factor else alpha
        if acc >= alpha:
            return n


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


def _pair_constants(params: RiccatiParams, n: int, top: int) -> tuple:
    """What every coefficient of the order-n pair shares: (n, D, X,
    (a- D, a+ D), M, (A M, B M, E M), poch(a-/+, n+1) D^(n+1), divisors).
    D is the common denominator of x = E/B and a-/+ = (A + 2C -/+ E)/(2B),
    X = x D, M the common denominator of A, B and E, and divisors[kp] =
    prod_{|i|<=kp} (X + i D) = poch(x - kp, 2kp + 1) D^(2kp+1) for kp <= top."""
    a, b, e = params.a, params.b, params.e
    x, (am, ap) = e / b, _shifts(params)
    den = lcm(x.denominator, am.denominator, ap.denominator)
    xi, shifts = _over(den, x), (_over(den, am), _over(den, ap))
    m = lcm(a.denominator, b.denominator, e.denominator)
    divisors = list(accumulate(((xi - i * den) * (xi + i * den) for i in range(1, top + 1)), mul, initial=xi))
    pochs = tuple(prod(s + i * den for i in range(n + 1)) for s in shifts)
    return n, den, xi, shifts, m, tuple(_over(m, v) for v in (a, b, e)), pochs, divisors


def _coeff_sums(constants: tuple, kp: int) -> tuple[Fraction, Fraction]:
    """(coefficient of z^k in Q_n, 2C times that in P_n), k = n - kp, from
    one pass over the `_pair_constants` of the pair.  Each is (-B)^k times
    two j-sums s-/+ combined as poch(a+, n+1) s- - poch(a-, n+1) s+ and
    divided by poch(x - kp, 2kp + 1), negated for P.  The j-th summand of
    s-/+ is

        C(kp+j, j) C(n-j, kp-j) poch(-/+x + j + 1, kp - j) poch(a-/+, j),

    for P times A -/+ E + 2j/(kp+j) (kp B +/- E); as C(kp+j, j) j/(kp+j) =
    C(kp+j-1, j-1), the P sum is A -/+ E times the Q sum plus kp B +/- E
    times the sum with weights 2 C(kp+j-1, j-1).  Over D, the suffix
    poch(-/+x + j + 1, kp - j) D^(kp-j) and the prefix poch(a-/+, j) D^j are
    integers, so each sum is an integer over D^kp (times M for P), taken by
    Horner's rule from j = kp down with the suffix built along: per j, one
    product of the suffix with the weight, and products and exact divisions
    by small factors otherwise.  No factor of a sum is ever divided by.
    """
    n, den, xi, shifts, m, (ai, bi, ei), (poch_am, poch_ap), divisors = constants
    # w_j = C(n-j, kp-j) C(kp+j, j) for j = 0..kp, each from the one before
    weights = [comb(n, kp)]
    for j in range(kp):
        weights.append(weights[-1] * (kp - j) * (kp + j + 1) // ((n - j) * (j + 1)))

    def side(sign: int, shift: int) -> tuple[int, int]:
        # (Q sum, P sum) for sign -1 / +1, times D^kp, the P sum times M, by
        # Horner from j = kp down: h_j = suffix_j w_j + (shift + j D) h_(j+1),
        # with suffix_j = prod_{j<i<=kp} (sign X + i D), so that h_0 is the
        # sum; the tail weight 2 C(n-j, kp-j) C(kp+j-1, j-1) is w_j 2j/(kp+j)
        suffix, s_lead, s_tail = 1, 0, 0
        for j in range(kp, -1, -1):
            term = suffix * weights[j]
            step = shift + j * den
            s_lead = term + step * s_lead
            s_tail = step * s_tail + (term * 2 * j // (kp + j) if j else 0)
            suffix *= sign * xi + j * den
        return s_lead, (ai + sign * ei) * s_lead + (kp * bi - sign * ei) * s_tail

    (q_minus, p_minus), (q_plus, p_plus) = side(-1, shifts[0]), side(1, shifts[1])
    # B^k = (B M)^k / M^k, and D^(n+1) D^kp / D^(2kp+1) leaves D^k
    scale, divisor = (-bi) ** (n - kp) * (-1) ** kp, (den * m) ** (n - kp) * divisors[kp]
    return (
        Fraction(scale * (poch_ap * q_minus - poch_am * q_plus), divisor),
        Fraction(scale * (poch_am * p_plus - poch_ap * p_minus), divisor * m),
    )


def _assert_integral(params: RiccatiParams, value: Fraction) -> Fraction:
    if params.is_integral() and value.denominator != 1:
        raise IntegralityViolation(f"expected an integer, got {value}")
    return value


def pade_coeff_q(params: RiccatiParams, n: int, k: int) -> Fraction:
    """Coefficient of z^k in Q_n, from the closed form."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    _require_closed_form(params, n - k, need_c=False)
    return _assert_integral(params, _coeff_sums(_pair_constants(params, n, n - k), n - k)[0])


def pade_coeff_p(params: RiccatiParams, n: int, k: int) -> Fraction:
    """Coefficient of z^k in P_n, from the closed form."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    _require_closed_form(params, n - k, need_c=True)
    p_k = _coeff_sums(_pair_constants(params, n, n - k), n - k)[1]
    return _assert_integral(params, p_k / (2 * params.c))


def pade_pair(params: RiccatiParams, n: int) -> PadePair:
    """Assemble (P_n, Q_n) from the closed form: the constants of the pair
    once, then both coefficients of each degree from one `_coeff_sums`
    pass.

    Raises DegenerateParameters when the formulas are undefined (C = 0,
    E = 0 or unavailable, or E/B an integer in [-n, n]); callers wanting a
    transparent fallback should use build_pade.
    """
    _require_closed_form(params, n, need_c=True)
    constants = _pair_constants(params, n, n)
    ps, qs = [], []
    for kp in range(n, -1, -1):
        q_k, p_k = _coeff_sums(constants, kp)
        qs.append(_assert_integral(params, q_k))
        ps.append(_assert_integral(params, p_k / (2 * params.c)))
    return PadePair(n, Poly(ps), Poly(qs), residual_constant(params, n))


def pade_oracle(params: RiccatiParams, n: int) -> PadePair:
    """Order-n approximant as the n-th convergent of the J-fraction, by the
    three-term recurrence

        x_k = (1 - beta_(k-1) z) x_(k-1) + a_k x_(k-2),   x = P, Q,

    from (P_(-1), Q_(-1)) = (1, 0) and (P_0, Q_0) = (1, 1), with partial
    numerators a_1 = (A + C + D) z and a_k = -gamma_(k-1) z^2 past it.  Uses
    no closed form and never needs E.  It runs on the numerators of A, B, C,
    D over M in w = z/M, so the coefficient of z^k is that of w^k over M^k.

    The fraction ends at the first partial numerator that vanishes: the
    pair is then (P_h, Q_h) for the last h reached, and P_h/Q_h solves the
    equation exactly.  The pair is certified by `verify_identity`, whole,
    with the residual constant of `residual_constant`.
    """
    m, (a, b, c, d) = _numerators(params)
    partials = chain([Poly([0, a + c + d])], (Poly([0, 0, -g]) for g in _gammas(a, b, c, d)))
    (p0, q0), (p, q) = (Poly([1]), Poly([])), (Poly([1]), Poly([1]))
    for beta, partial in islice(zip(_betas(a, b, c, d), partials), n):
        if partial.is_zero():
            break
        step = Poly([1, -beta])
        (p0, q0), (p, q) = (p, q), (step * p + partial * p0, step * q + partial * q0)
    p, q = (Poly([Fraction(v, m**k) for k, v in enumerate(x.coeffs)]) for x in (p, q))
    pair = PadePair(n, p, q, residual_constant(params, n))
    if not verify_identity(pair, params):
        raise SingularPadeSystem("the convergent does not satisfy the identity")
    return pair


def build_pade(params: RiccatiParams, n: int, allow_fallback: bool = True):
    """Public pair construction: closed form when defined, otherwise the
    J-fraction route of `pade_oracle`.  Returns (pair, route)."""
    try:
        return pade_pair(params, n), "closed-form"
    except DegenerateParameters:
        if not allow_fallback:
            raise
        return pade_oracle(params, n), "oracle"


def _cleared_lhs(p: Poly, q: Poly, m, a, b, c, d) -> Poly:
    """(m - a z) p q - b z^2 (p' q - p q') - c z p^2 - (m + d z) q^2 over the
    ring of p and q: m times the left side of the defining identity for the
    constants A, B, C, D = a/m, b/m, c/m, d/m."""
    ring = p.ring
    wronskian = p.derivative() * q - p * q.derivative()
    return (
        Poly([m, -a], ring) * p * q
        - Poly([0, 0, b], ring) * wronskian
        - Poly([0, c], ring) * (p * p)
        - Poly([m, d], ring) * (q * q)
    )


def riccati_residual(params: RiccatiParams, num: Poly, den: Poly) -> Poly:
    """den^2 Phi(num / den) over Z/p^alpha, the ring of num and den, for the
    equation Phi(F) = 0 above.  Where den(0) is a unit it is zero exactly
    when num / den is the series mod p^alpha: the recurrence is monic in
    each new coefficient, so the solution is unique."""
    ctx = num.ring
    consts = (mod_reduce(v, ctx) for v in (params.a, params.b, params.c, params.d))
    return _cleared_lhs(num, den, 1, *consts)


def _identity_lhs(pair: PadePair, params: RiccatiParams) -> Poly:
    """The left side of the defining identity, computed in integers over one
    common denominator: with P = P'/N, Q = Q'/N and the constants A, B, C, D
    integers over M, the left side is quadratic in P, Q and linear in the
    constants, so it is an integer polynomial over N^2 M."""
    den = lcm(*(Fraction(v).denominator for v in pair.p.coeffs + pair.q.coeffs))
    m, consts = _numerators(params)
    p = Poly([_over(den, Fraction(v)) for v in pair.p.coeffs])
    q = Poly([_over(den, Fraction(v)) for v in pair.q.coeffs])
    lhs = _cleared_lhs(p, q, m, *consts)
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
    scale, x = _gosper_scale(params, n) * comb(n + j - 1, n), params.e / params.b
    return scale * pochhammer(-x + j, n - j + 1) * pochhammer(_shifts(params)[0], j)


def verify_gosper(params: RiccatiParams, n: int) -> bool:
    """Check the telescoping identity behind the constant-term comparison:
    the explicit certificate G must satisfy term(j) = G(j+1) - G(j) for
    every j, and the telescoped sum must equal the closed-form right side.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    _require_closed_form(params, n, need_c=True)
    a, b, c, e = params.a, params.b, params.c, params.e
    x, am = e / b, _shifts(params)[0]

    scale = _gosper_scale(params, n)
    total = Fraction(0)
    for j in range(n + 1):
        bracket = 2 * c + a + Fraction(2 * n * j, n + j) * b - Fraction(n - j, n + j) * e
        summand = comb(n + j, n) * pochhammer(-x + j + 1, n - j) * pochhammer(am, j)
        term = scale / (2 * b) * summand * bracket
        if term != _gosper_certificate(params, n, j + 1) - _gosper_certificate(params, n, j):
            return False
        total += term
    return total == scale * comb(2 * n, n) * pochhammer(am, n + 1)
