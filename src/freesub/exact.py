"""Exact scalar arithmetic: rationals, rising factorials, p-adic valuations,
and the ring Z/p^alpha.

Rationals are `fractions.Fraction` throughout: always in lowest terms with a
positive denominator, which is exactly the normalization every invariant here
relies on.  No floating point is used anywhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NonInvertibleDenominator

Rational = Fraction | int


def is_prime(n: int) -> bool:
    """Trial division up to sqrt(n)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def pochhammer(a: Rational, m: int) -> Fraction:
    """Rising factorial a(a+1)...(a+m-1); equals 1 when m = 0."""
    if m < 0:
        raise ValueError("pochhammer needs m >= 0")
    a = Fraction(a)
    out = Fraction(1)
    for i in range(m):
        out *= a + i
    return out


def vp_int(n: int, p: int) -> int:
    """Exponent of p in n; n must be nonzero."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined (it is +infinity)")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_rational(q: Rational, p: int) -> int:
    """p-adic valuation of a nonzero rational: vp(num) - vp(den)."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("valuation of 0 is undefined (it is +infinity)")
    return vp_int(q.numerator, p) - vp_int(q.denominator, p)


@dataclass(frozen=True)
class ModRingCtx:
    """The ring Z/p^alpha.  Primality of p is checked at construction."""

    p: int
    alpha: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.alpha < 1:
            raise ValueError("alpha must be >= 1")

    @property
    def modulus(self) -> int:
        return self.p**self.alpha

    def __repr__(self):
        return f"Z/{self.p}^{self.alpha}"


def mod_reduce(q: Rational, ctx: ModRingCtx) -> int:
    """Image of a p-integral rational in Z/p^alpha, as a residue in [0, p^alpha).

    Raises NonInvertibleDenominator when p divides the denominator.
    """
    q = Fraction(q)
    if q.denominator % ctx.p == 0:
        raise NonInvertibleDenominator(
            f"denominator {q.denominator} not invertible mod {ctx.p}^{ctx.alpha}"
        )
    inv = pow(q.denominator, -1, ctx.modulus)
    return q.numerator * inv % ctx.modulus
