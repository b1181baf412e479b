"""Dense univariate polynomials and truncated power series.

A `Poly` is a coefficient tuple, constant term first, with no trailing zeros
(the zero polynomial has an empty tuple).  The ring tag is either None for
exact arithmetic (ints and Fractions mix freely) or a ModRingCtx, in which
case coefficients are stored as canonical residues in [0, p^alpha).

The modular kernels at the bottom (gcd, factorization, Hensel lifting,
Bezout cofactors) are what partial-fraction decomposition over Z/p^alpha is
built from.  Degrees here are small, so every algorithm favours simplicity:
factorization is root search plus distinct-degree / seeded equal-degree
splitting, and Hensel lifting goes one power of p at a time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    NonInvertible,
    NonInvertibleConstantTerm,
    NotCoprime,
    RingMismatch,
)
from .exact import ModRingCtx

Ring = ModRingCtx | None


def _check_same_ring(a: Ring, b: Ring) -> Ring:
    if a != b:
        raise RingMismatch(f"{a} vs {b}")
    return a


class Poly:
    __slots__ = ("coeffs", "ring")

    def __init__(self, coeffs, ring: Ring = None):
        if ring is not None:
            m = ring.modulus
            cs = [int(c) % m for c in coeffs]
        else:
            cs = [Fraction(c) if isinstance(c, Fraction) else int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "ring", ring)

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls, ring: Ring = None) -> "Poly":
        return cls((), ring)

    @classmethod
    def one(cls, ring: Ring = None) -> "Poly":
        return cls((1,), ring)

    @classmethod
    def x(cls, ring: Ring = None) -> "Poly":
        return cls((0, 1), ring)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.coeffs, self.ring))

    def __add__(self, other: "Poly") -> "Poly":
        ring = _check_same_ring(self.ring, other.ring)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            [self.coeff(i) + other.coeff(i) for i in range(n)],
            ring,
        )

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs], self.ring)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        ring = _check_same_ring(self.ring, other.ring)
        if self.is_zero() or other.is_zero():
            return Poly.zero(ring)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out, ring)

    def scale(self, c) -> "Poly":
        return Poly([c * a for a in self.coeffs], self.ring)

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative power")
        out = Poly.one(self.ring)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:], self.ring)

    def eval(self, x):
        """Horner evaluation; x is reduced into the ring if modular."""
        if self.ring is not None:
            m = self.ring.modulus
            acc = 0
            for c in reversed(self.coeffs):
                acc = (acc * x + c) % m
            return acc
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def map_ring(self, ring: ModRingCtx) -> "Poly":
        """Reduce an exact integer polynomial into Z/p^alpha."""
        if self.ring is not None:
            raise RingMismatch("already modular")
        return Poly([int(c) for c in self.coeffs], ring)

    def monic(self) -> tuple["Poly", object]:
        """Return (monic polynomial, leading unit) with self = unit * monic."""
        if self.is_zero():
            raise ValueError("zero polynomial")
        lead = self.leading()
        if self.ring is not None:
            try:
                inv = pow(lead, -1, self.ring.modulus)
            except ValueError:
                raise NonInvertible(
                    f"leading coefficient {lead} not invertible in {self.ring}"
                ) from None
            return self.scale(inv), lead
        return self.scale(Fraction(1, 1) / Fraction(lead)), lead

    def __divmod__(self, den: "Poly") -> tuple["Poly", "Poly"]:
        """Exact division with remainder; the divisor's leading coefficient
        must be invertible (modular) or division happens over the rationals.
        """
        ring = _check_same_ring(self.ring, den.ring)
        if den.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if ring is not None:
            try:
                lead_inv = pow(den.leading(), -1, ring.modulus)
            except ValueError:
                raise NonInvertible(
                    f"leading coefficient {den.leading()} not invertible in {ring}"
                ) from None
            m = ring.modulus
            rem = list(self.coeffs)
            q = [0] * max(0, len(rem) - len(den.coeffs) + 1)
            for i in range(len(rem) - len(den.coeffs), -1, -1):
                c = (rem[i + len(den.coeffs) - 1] * lead_inv) % m
                if c:
                    q[i] = c
                    for j, d in enumerate(den.coeffs):
                        rem[i + j] = (rem[i + j] - c * d) % m
            return Poly(q, ring), Poly(rem[: len(den.coeffs) - 1], ring)
        lead = Fraction(den.leading())
        rem = [Fraction(c) for c in self.coeffs]
        q = [Fraction(0)] * max(0, len(rem) - len(den.coeffs) + 1)
        for i in range(len(rem) - len(den.coeffs), -1, -1):
            c = rem[i + len(den.coeffs) - 1] / lead
            if c:
                q[i] = c
                for j, d in enumerate(den.coeffs):
                    rem[i + j] -= c * d
        return Poly(q), Poly(rem[: len(den.coeffs) - 1])

    def __floordiv__(self, den: "Poly") -> "Poly":
        return divmod(self, den)[0]

    def __mod__(self, den: "Poly") -> "Poly":
        return divmod(self, den)[1]

    def __repr__(self):
        return f"Poly({list(self.coeffs)}, ring={self.ring})"


@dataclass(frozen=True)
class Series:
    """Truncated power series: exactly `length` coefficients, order explicit."""

    coeffs: tuple
    ring: Ring = None

    @classmethod
    def of(cls, coeffs, ring: Ring = None, length: int | None = None) -> "Series":
        cs = list(coeffs)
        if length is not None:
            if len(cs) > length:
                cs = cs[:length]
            else:
                cs += [0] * (length - len(cs))
        if ring is not None:
            m = ring.modulus
            cs = [int(c) % m for c in cs]
        return cls(tuple(cs), ring)

    @property
    def length(self) -> int:
        return len(self.coeffs)

    def mul(self, other: "Series | Poly") -> "Series":
        """Product truncated to self's length."""
        ring = _check_same_ring(self.ring, other.ring)
        oc = other.coeffs
        L = self.length
        out = [0] * L
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(oc):
                if i + j >= L:
                    break
                out[i + j] += a * b
        return Series.of(out, ring, L)

    def __repr__(self):
        return f"Series({list(self.coeffs)}, ring={self.ring})"


def series_div(num: Series | Poly, den: Series | Poly, length: int) -> Series:
    """Power-series quotient to the given truncation length.

    Requires an invertible constant term in the denominator.
    """
    ring = _check_same_ring(num.ring, den.ring)
    nc, dc = num.coeffs, den.coeffs
    d0 = dc[0] if dc else 0
    if ring is not None:
        try:
            inv0 = pow(d0, -1, ring.modulus)
        except ValueError:
            raise NonInvertibleConstantTerm(
                f"constant term {d0} not invertible in {ring}"
            ) from None
        m = ring.modulus
        out = [0] * length
        for i in range(length):
            acc = nc[i] if i < len(nc) else 0
            for j in range(1, min(i, len(dc) - 1) + 1):
                acc -= dc[j] * out[i - j]
            out[i] = (acc * inv0) % m
        return Series.of(out, ring)
    if d0 == 0:
        raise NonInvertibleConstantTerm("constant term is zero")
    inv0 = Fraction(1) / Fraction(d0)
    out = [Fraction(0)] * length
    for i in range(length):
        acc = Fraction(nc[i]) if i < len(nc) else Fraction(0)
        for j in range(1, min(i, len(dc) - 1) + 1):
            acc -= dc[j] * out[i - j]
        out[i] = acc * inv0
    return Series.of(out)


@dataclass(frozen=True)
class Factorization:
    """unit * prod(factor^multiplicity) equals the factored polynomial."""

    unit: object
    factors: tuple  # of (Poly, int)

    def expand(self, ring: Ring) -> Poly:
        out = Poly((self.unit,), ring)
        for f, mult in self.factors:
            out = out * f**mult
        return out


# ---------------------------------------------------------------------------
# kernels over F_p (alpha = 1)
# ---------------------------------------------------------------------------


def _gcd_fp(a: Poly, b: Poly) -> Poly:
    """Monic gcd over F_p."""
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.monic()[0]


def _ext_gcd_fp(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """(g, u, v) with u*a + v*b = g, g the monic gcd over F_p."""
    ring = a.ring
    r0, r1 = a, b
    s0, s1 = Poly.one(ring), Poly.zero(ring)
    t0, t1 = Poly.zero(ring), Poly.one(ring)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    g, lead = r0.monic()
    inv = pow(lead, -1, ring.modulus)
    return g, s0.scale(inv), t0.scale(inv)


def _pow_mod(base: Poly, e: int, mod: Poly) -> Poly:
    out = Poly.one(base.ring)
    base = base % mod
    while e:
        if e & 1:
            out = (out * base) % mod
        base = (base * base) % mod
        e >>= 1
    return out


def _equal_degree_split(f: Poly, d: int, rng: random.Random) -> list[Poly]:
    """Cantor-Zassenhaus split of a squarefree product of irreducibles of
    equal degree d over F_p, p odd."""
    p = f.ring.p
    if f.degree == d:
        return [f]
    exponent = (p**d - 1) // 2
    while True:
        r = Poly([rng.randrange(p) for _ in range(f.degree)], f.ring)
        if r.degree < 1:
            continue
        g = _gcd_fp(r, f)
        if 0 < g.degree < f.degree:
            pass
        else:
            t = _pow_mod(r, exponent, f)
            g = _gcd_fp(t - Poly.one(f.ring), f)
            if not (0 < g.degree < f.degree):
                continue
        rest = f // g
        return _equal_degree_split(g, d, rng) + _equal_degree_split(rest, d, rng)


def _factor_squarefree_monic(f: Poly, rng: random.Random) -> list[Poly]:
    """Distinct-degree stage, then equal-degree splits.  Linear factors are
    assumed to have been stripped already (root search)."""
    p = f.ring.p
    out: list[Poly] = []
    x = Poly.x(f.ring)
    d = 2
    h = _pow_mod(x, p, f)  # x^(p^1) mod f
    while f.degree >= 2 * d:
        h = _pow_mod(h, p, f)  # x^(p^d) mod f
        g = _gcd_fp(h - x, f)
        if g.degree > 0:
            out.extend(_equal_degree_split(g, d, rng))
            f = f // g
            h = h % f
        d += 1
    if f.degree > 0:
        out.append(f)
    return out


def factor_mod_p(f: Poly, seed: int = 0) -> Factorization:
    """Factor a nonzero polynomial over Z/p (p odd) into monic irreducibles.

    Deterministic for a fixed seed: the seed drives the equal-degree split
    candidates; the result is sorted canonically regardless.
    """
    ring = f.ring
    if ring is None or ring.alpha != 1:
        raise ValueError("factor_mod_p needs a Z/p ring (alpha = 1)")
    if ring.p == 2:
        raise ValueError("p = 2 is outside this kernel's scope")
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    p = ring.p
    rng = random.Random(seed)
    work, unit = f.monic()
    found: dict[Poly, int] = {}

    def record(g: Poly, mult: int):
        found[g] = found.get(g, 0) + mult

    # exhaustive root search for linear factors
    for a in range(p):
        lin = Poly([-a, 1], ring)
        while work.degree >= 1 and work.eval(a) == 0:
            work = work // lin
            record(lin, 1)

    # remaining factors have degree >= 2; peel multiplicities via the
    # derivative, handling the p-th-power case where it vanishes
    mult_scale = 1
    while work.degree > 0:
        der = work.derivative()
        if der.is_zero():
            # work = u(z^p) and over F_p that is u(z)^p with the same coeffs
            work = Poly(work.coeffs[::p], ring)
            mult_scale *= p
            continue
        sqf = work // _gcd_fp(work, der)
        for g in _factor_squarefree_monic(sqf, rng):
            e = 0
            while (work % g).is_zero():
                work = work // g
                e += 1
            record(g, e * mult_scale)

    factors = sorted(found.items(), key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return Factorization(unit, tuple(factors))


# ---------------------------------------------------------------------------
# lifting to Z/p^alpha
# ---------------------------------------------------------------------------


def _lift_to(poly: Poly, ctx: ModRingCtx) -> Poly:
    return Poly([int(c) for c in poly.coeffs], ctx)


def _hensel_pair(f: Poly, g: Poly, h: Poly, ctx: ModRingCtx) -> tuple[Poly, Poly]:
    """Lift a coprime factorization f = g*h from mod p to mod p^alpha.

    f is monic over Z/p^alpha; g, h monic over Z/p with g*h = f mod p.
    One linear step per power of p.
    """
    fp = ModRingCtx(ctx.p, 1)
    gbar, hbar = g, h
    d, u, v = _ext_gcd_fp(gbar, hbar)
    if d.degree != 0:
        raise NotCoprime("factors share a common divisor mod p")
    G, H = _lift_to(gbar, ctx), _lift_to(hbar, ctx)
    pk = ctx.p
    while pk < ctx.modulus:
        err = f - G * H
        e = Poly([c // pk for c in err.coeffs], fp)
        ve = v * e
        q, s = divmod(ve, gbar)
        t = u * e + q * hbar
        G = G + _lift_to(s, ctx).scale(pk)
        H = H + _lift_to(t, ctx).scale(pk)
        pk *= ctx.p
    return G, H


def hensel_lift(factors: list[Poly], target: Poly) -> Factorization:
    """Lift monic pairwise-coprime factors mod p to a factorization of
    `target` over its Z/p^alpha ring.

    Each lifted factor is monic, congruent to its input mod p, and the
    product (times the unit) reproduces `target` exactly.
    """
    ctx = target.ring
    if ctx is None:
        raise RingMismatch("target must live in a modular ring")
    fp = ModRingCtx(ctx.p, 1)
    monic_target, unit = target.monic()

    rest = list(factors)
    while rest:
        head, rest = rest[0], rest[1:]
        for g in rest:
            if _gcd_fp(head, g).degree != 0:
                raise NotCoprime("factors share a common divisor mod p")
    reduced = Poly([c % ctx.p for c in monic_target.coeffs], fp)
    prod = Poly.one(fp)
    for g in factors:
        prod = prod * g
    if prod != reduced:
        raise ValueError("product of factors does not match target mod p")

    if ctx.alpha == 1:
        return Factorization(unit, tuple((f, 1) for f in factors))

    def lift_list(f: Poly, gs: list[Poly]) -> list[Poly]:
        if len(gs) == 1:
            return [f]
        head = gs[0]
        tail_prod = Poly.one(fp)
        for g in gs[1:]:
            tail_prod = tail_prod * g
        G, H = _hensel_pair(f, head, tail_prod, ctx)
        return [G] + lift_list(H, gs[1:])

    lifted = lift_list(monic_target, list(factors))
    return Factorization(unit, tuple((g, 1) for g in lifted))


def ext_gcd_coprime(f: Poly, g: Poly, ctx: ModRingCtx) -> tuple[Poly, Poly]:
    """Bezout cofactors u, v with u*f + v*g = 1 over Z/p^alpha,
    deg u < deg g and deg v < deg f.

    Requires f and g coprime mod p; lifts the mod-p identity one power of p
    at a time.
    """
    if f.ring != ctx or g.ring != ctx:
        raise RingMismatch("operands must live in the given ring")
    fp = ModRingCtx(ctx.p, 1)
    fbar = Poly([c % ctx.p for c in f.coeffs], fp)
    gbar = Poly([c % ctx.p for c in g.coeffs], fp)
    d, u0, v0 = _ext_gcd_fp(fbar, gbar)
    if d.degree != 0 or d.is_zero():
        raise NotCoprime("inputs are not coprime mod p")
    # normalize so u0*f + v0*g = 1 mod p with deg u0 < deg g
    if gbar.degree > 0:
        q, u0 = divmod(u0, gbar)
        v0 = v0 + q * fbar
    u = _lift_to(u0, ctx)
    v = _lift_to(v0, ctx)
    pk = ctx.p
    one = Poly.one(ctx)
    while pk < ctx.modulus:
        err = one - (u * f + v * g)
        e = Poly([c // pk for c in err.coeffs], fp)
        q, s = divmod(u0 * e, gbar)
        t = v0 * e + q * fbar
        u = u + _lift_to(s, ctx).scale(pk)
        v = v + _lift_to(t, ctx).scale(pk)
        pk *= ctx.p
    if not (u * f + v * g == one):
        raise NotCoprime("Bezout lift failed")  # pragma: no cover
    return u, v
