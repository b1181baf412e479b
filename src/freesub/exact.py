"""Exact scalar arithmetic: rationals, rising factorials, p-adic valuations,
the ring Z/p^alpha, and primality and factoring of integers.

Rationals are `fractions.Fraction` throughout: always in lowest terms with a
positive denominator, which is exactly the normalization every invariant here
relies on.  No floating point is used anywhere in this package.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from math import gcd, isqrt

from .errors import NonInvertibleDenominator

Rational = Fraction | int


# a strong probable prime to the first 13 prime bases is prime below
# MR_PROVEN (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_PROVEN = 3_317_044_064_679_887_385_961_981

# factor searches divide out the primes below this first
_TRIAL_LIMIT = 10_000

# iterations of Pollard-Brent rho spent on one cofactor before it is left unsplit
RHO_BUDGET = 1 << 16


def strong_probable_prime(n: int) -> bool:
    """Miller-Rabin to the first 13 prime bases; a proof of primality for
    n < MR_PROVEN."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    s, t = 0, n - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    for a in _MR_BASES:
        x = pow(a, t, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Proven primality of n < MR_PROVEN."""
    if n >= MR_PROVEN:
        raise ValueError(f"primality of {n} is not proven past {MR_PROVEN}")
    return strong_probable_prime(n)


@cache
def _small_primes() -> tuple[int, ...]:
    """The primes below _TRIAL_LIMIT, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * _TRIAL_LIMIT
    sieve[:2] = b"\0\0"
    for i in range(2, isqrt(_TRIAL_LIMIT) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, _TRIAL_LIMIT, i)))
    return tuple(i for i, flag in enumerate(sieve) if flag)


def _rho(n: int) -> int | None:
    """A proper factor of the odd composite n by Pollard-Brent rho (Brent,
    BIT 20, 1980), or None once RHO_BUDGET iterations have found none."""
    spent, batch = 0, 128
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1 and spent < RHO_BUDGET:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(batch, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += batch
            spent += 2 * r
            r *= 2
        if g == n:  # the batch overshot: step through it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if 1 < g < n:
            return g
        if spent >= RHO_BUDGET:
            return None
    return None


def factor(n: int) -> tuple[Counter, Counter]:
    """(primes, rest) with n = prod q^e over both Counters.

    `primes` holds proven primes.  `rest` holds the factors that Pollard-
    Brent rho left unsplit within RHO_BUDGET iterations and the probable
    primes past MR_PROVEN, none of them proven prime.
    """
    if n < 1:
        raise ValueError("factor needs n >= 1")
    primes, rest = Counter(), Counter()
    for q in _small_primes():
        if q * q > n:
            break
        while n % q == 0:
            primes[q] += 1
            n //= q
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m < _TRIAL_LIMIT**2 or strong_probable_prime(m):
            (primes if m < MR_PROVEN else rest)[m] += 1
            continue
        f = _rho(m)
        if f is None:
            rest[m] += 1
        else:
            stack += [f, m // f]
    return primes, rest


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


class Record:
    """An immutable record whose fields are its `__slots__`, set once by
    `__init__` through `_set`; equality, hash and repr are a frozen
    dataclass's, with no code generated at import."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):  # copy and pickle restore the slots here
        self._set(*(state[1][name] for name in self.__slots__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


def require_rational(q: Rational) -> Rational:
    """q itself; TypeError unless it is an int or a Fraction (a float is not)."""
    if not isinstance(q, (int, Fraction)):
        raise TypeError(f"{q!r} is not an int or a Fraction")
    return q


def require_ints(**values) -> None:
    """Raise TypeError naming the first of `values` that is not an int."""
    for name, value in values.items():
        if type(value) is not int:
            raise TypeError(f"{name} must be an int, not {value!r}")


class ModRingCtx(Record):
    """The ring Z/p^alpha.  Primality of p is checked at construction."""

    __slots__ = ("p", "alpha")

    def __init__(self, p: int, alpha: int):
        require_ints(p=p, alpha=alpha)
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if alpha < 1:
            raise ValueError("alpha must be >= 1")
        self._set(p, alpha)

    @property
    def modulus(self) -> int:
        return self.p**self.alpha

    def __repr__(self):
        return f"Z/{self.p}^{self.alpha}"


def mod_reduce(q: Rational, ctx: ModRingCtx) -> int:
    """Image of a p-integral rational in Z/p^alpha, as a residue in [0, p^alpha).

    Raises NonInvertibleDenominator when p divides the denominator, and
    TypeError on anything but an int or a Fraction (a float included).
    """
    q = Fraction(require_rational(q))
    if q.denominator % ctx.p == 0:
        raise NonInvertibleDenominator(
            f"denominator {q.denominator} not invertible mod {ctx.p}^{ctx.alpha}"
        )
    inv = pow(q.denominator, -1, ctx.modulus)
    return q.numerator * inv % ctx.modulus
