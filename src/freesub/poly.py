"""Dense univariate polynomials and truncated power series.

A `Poly` is a coefficient tuple, constant term first, with no trailing zeros
(the zero polynomial has an empty tuple).  The ring tag is either None for
exact arithmetic (ints and Fractions mix freely) or a ModRingCtx, in which
case coefficients are stored as canonical residues in [0, p^alpha) (a
Fraction by `mod_reduce`, and a float raises TypeError).  Exact polynomials
are built, added, multiplied, raised to powers, differentiated and
evaluated, never divided: division with remainder, `monic`, series division
and truncated series products run over Z/p^alpha only, and raise
RingMismatch on an exact ring.

Arithmetic over Z/p^alpha runs on one kernel.  `kronecker` packs a list of
residues into a single integer, one fixed slot per coefficient, so that one
big-integer product multiplies two polynomials (Kronecker substitution,
Harvey, JSC 44, 2009); only operands of at most `SCHOOLBOOK_MAX` terms are
multiplied term by term.  Division with remainder takes a quotient short
for its divisor (`LONG_DIVISION_MAX`) by long division, as in every Euclid
step, and a longer one by multiplying with a truncated inverse of the
reversed divisor (Newton iteration; von zur Gathen-Gerhard, *Modern Computer
Algebra*, ch. 9).  For a fixed modulus f that inverse is computed once
(`_mulmod`), and every remainder, and every power mod f, then costs products
alone; a modulus of degree at most `TERMWISE_MODULUS_MAX`, as the D^alpha of
the period descent at small p, reduces term by term instead.  Power-series
division runs in blocks through the inverse of the denominator.

Exact products in `Poly.__mul__` are taken term by term (`_convolve`): their
callers check the Pade identity exactly, off every hot path.

The modular kernels at the bottom (gcd, factorization, Hensel lifting,
Bezout cofactors) are what partial-fraction decomposition over Z/p^alpha is
built from.  Factorization mod p is distinct-degree factorization, with the
Frobenius map applied as one packed linear combination and the gcds batched
over runs of degrees, followed by Cantor-Zassenhaus equal-degree splitting;
Hensel lifting goes one power of p at a time, each factor against its own
cofactor.  Bezout cofactors over Z/p^alpha come by Newton iteration for the
inverse of f mod g, which needs the leading coefficient of g to be a unit.
"""

from __future__ import annotations

import random
import sys
from array import array
from fractions import Fraction
from itertools import repeat, starmap, zip_longest
from operator import add, mul, sub

from .errors import (
    NonInvertible,
    NonInvertibleConstantTerm,
    NotCoprime,
    RingMismatch,
)
from .exact import ModRingCtx, Record, mod_reduce, require_rational

Ring = ModRingCtx | None


def _check_same_ring(a: Ring, b: Ring) -> Ring:
    if a != b:
        raise RingMismatch(f"{a} vs {b}")
    return a


def _modular(ring: Ring) -> ModRingCtx:
    """`ring`, which must be Z/p^alpha: exact polynomials are never divided."""
    if ring is None:
        raise RingMismatch("division and truncated series run over Z/p^alpha only")
    return ring


# ---------------------------------------------------------------------------
# the Kronecker kernel: products of residue lists over Z/modulus
# ---------------------------------------------------------------------------

# Products whose shorter operand has at most this many terms are taken term
# by term: below it, packing costs more than it saves.  Measured on random
# residues mod 7, 13^3 and 10007^5: packing wins from 6 terms on square
# operands.
SCHOOLBOOK_MAX = 5

# `kronecker` packs in 64-bit words where an operand has at most this many
# terms: past it the wider product costs more than the strided copies save
# (with 1024-term partners mod 23, 307, 13^3, 7^5 and 10007, even at 6).
WORD_SLOTS_MAX = 5


def kronecker(modulus: int, terms: int):
    """(pack, unpack) for Kronecker substitution over Z/modulus.

    `pack(values)` writes residues in [0, modulus) into one integer, one
    fixed slot per value, constant term lowest; `unpack(x, count)` reads the
    first `count` slots of x back as residues.  A slot holds terms *
    (modulus - 1)^2, of n bits, so the product of two packed lists, or a sum
    of up to `terms` such products per slot, carries nothing from one slot
    into the next: its slots are the coefficients of the product.

    Where 2n + 2 <= 64 and terms <= WORD_SLOTS_MAX, slots are 64-bit words
    reduced on the packed integer (division by an invariant integer,
    Granlund-Montgomery, PLDI 1994): for s = n + bitlen(modulus - 1) and
    mu = ceil(2^s/modulus), each slot of x * mu is below 2^63, and the low
    64 - s bits of each slot of (x * mu) >> s are its quotient.  Elsewhere
    slots are whole bytes, up to 8 of them moved through an array of 64-bit
    words by strided slice copies, and values are reduced one by one.
    """
    n = (terms * (modulus - 1) ** 2).bit_length()
    fused = 2 * n + 2 <= 64 and terms <= WORD_SLOTS_MAX
    slot = 8 if fused else (n + 7) // 8
    if fused:
        shift = n + (modulus - 1).bit_length()
        mu = -(-(1 << shift) // modulus)
        low, masks = ((1 << 64 - shift) - 1).to_bytes(8, "little"), {}

    if slot > 8:

        def pack(values) -> int:
            return int.from_bytes(b"".join([v.to_bytes(slot, "little") for v in values]), "little")

        def unpack(x: int, count: int) -> list:
            size = count * slot
            buf = (x & ((1 << 8 * size) - 1)).to_bytes(size, "little")
            return [int.from_bytes(buf[i : i + slot], "little") % modulus for i in range(0, size, slot)]

        return pack, unpack

    def pack(values) -> int:
        words = array("Q", values)
        if sys.byteorder == "big":
            words.byteswap()
        raw = words.tobytes()
        if slot < 8:
            raw, buf = bytearray(len(words) * slot), raw
            for j in range(slot):
                raw[j::slot] = buf[j::8]
        return int.from_bytes(raw, "little")

    def unpack(x: int, count: int) -> list:
        size = count * slot
        x &= (1 << 8 * size) - 1
        if fused:
            if count not in masks:
                masks[count] = int.from_bytes(low * count, "little")
            x -= ((x * mu >> shift) & masks[count]) * modulus
        raw = x.to_bytes(size, "little")
        if slot < 8:
            raw, buf = bytearray(8 * count), raw
            for j in range(slot):
                raw[j::8] = buf[j::slot]
        words = array("Q", raw)
        if sys.byteorder == "big":
            words.byteswap()
        return words.tolist() if fused else [v % modulus for v in words]

    return pack, unpack


def _convolve(x: list, y: list, width: int) -> list:
    """Terms 0..width-1 of x*y, term by term; any coefficient type."""
    if len(x) > len(y):
        x, y = y, x
    out = [0] * width
    for i, a in enumerate(x[:width]):
        if a:
            seg = y[: width - i]
            end = i + len(seg)
            out[i:end] = map(add, out[i:end], map(mul, seg, repeat(a)))
    return out


def _product(x: list, y: list, modulus: int, width: int) -> list:
    """Terms 0..width-1 of x*y over Z/modulus, as residues; x and y hold
    residues.  One packed product unless an operand is short."""
    square = x is y
    x, y = x[:width], y[:width]
    short = min(len(x), len(y))
    if short <= SCHOOLBOOK_MAX:
        return [v % modulus for v in _convolve(x, y, width)]
    pack, unpack = kronecker(modulus, short)
    px = pack(x)
    return unpack(px * px if square else px * pack(y), width)


def _inverse(h: list, modulus: int, n: int) -> list:
    """Terms 0..n-1 of 1/h over Z/modulus, by Newton iteration: each step
    doubles the precision with two products.  Raises ValueError when h[0]
    is not a unit."""
    g = [pow(h[0], -1, modulus)]
    while len(g) < n:
        t, s = len(g), min(2 * len(g), n)
        # h*g = 1 + z^t e, and g - z^t g e is right to 2t terms
        e = _product(h, g, modulus, s)[t:]
        g += [-v % modulus for v in _product(g, e, modulus, s - t)]
    return g


def _divmod_residues(a: list, f: list, finv: list, modulus: int) -> tuple[list, list]:
    """(q, r) with a = q*f + r over Z/modulus and len(r) = len(f) - 1.

    `finv` holds at least len(a) - len(f) + 1 terms of 1/rev(f): the
    reversed quotient is rev(a) * finv to that many terms, whatever the
    actual degree of a.  Lists may carry trailing zeros.
    """
    k = len(f) - 1
    t = len(a) - k
    if t <= 0:
        return [], a + [0] * (k - len(a))
    q = _product(a[k:][::-1], finv, modulus, t)[::-1]
    r = [(u - v) % modulus for u, v in zip(a, _product(q, f, modulus, k))]
    return q, r


# `divmod` takes long division for at most SCHOOLBOOK_MAX quotient terms, or
# where quotient terms times deg f are at most this.  Measured on random
# operands mod 307, 197^2 and 7^5, Newton division wins from that product
# 960-3072 at deg f = 6 to 30, 800-1200 at 50 and 600-800 at 100.
LONG_DIVISION_MAX = 800


def _long_division(a: list, f: list, lead_inv: int, modulus: int) -> tuple[list, list]:
    """(q, r) as `_divmod_residues` gives them, by schoolbook long division:
    one row update per quotient term, for quotients too short for the
    inverse of rev(f) to pay.  `lead_inv` is the inverse of f's leading
    coefficient."""
    k = len(f) - 1
    r = a + [0] * (k - len(a))
    q = [0] * max(len(a) - k, 0)
    for i in reversed(range(len(q))):
        c = q[i] = r.pop() * lead_inv % modulus
        if c:
            r[i:] = map(sub, r[i:], map(mul, f, repeat(c)))
    return q, [v % modulus for v in r]


class Poly:
    __slots__ = ("coeffs", "ring")

    def __init__(self, coeffs, ring: Ring = None):
        if ring is not None:
            # a plain int, the common case, is reduced without a call
            m = ring.modulus
            cs = [c % m if type(c) is int else mod_reduce(c, ring) for c in coeffs]
        else:
            cs = [
                Fraction(c) if isinstance(c, Fraction) else int(require_rational(c))
                for c in coeffs
            ]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "ring", ring)

    @classmethod
    def _residues(cls, cs: list, ring: ModRingCtx) -> "Poly":
        """A Poly from a fresh list of residues in [0, modulus); no
        reduction, trailing zeros are dropped in place."""
        out = object.__new__(cls)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(out, "coeffs", tuple(cs))
        object.__setattr__(out, "ring", ring)
        return out

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild it through the constructor
        return Poly, (self.coeffs, self.ring)

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
        return Poly(list(starmap(add, zip_longest(self.coeffs, other.coeffs, fillvalue=0))), ring)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs], self.ring)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        ring = _check_same_ring(self.ring, other.ring)
        if self.is_zero() or other.is_zero():
            return Poly.zero(ring)
        # one list for a square, so that the packed product squares
        a = list(self.coeffs)
        b = a if other is self else list(other.coeffs)
        width = len(a) + len(b) - 1
        if ring is None:
            return Poly(_convolve(a, b, width))
        return Poly._residues(_product(a, b, ring.modulus, width), ring)

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
        """Reduce an exact polynomial into Z/p^alpha."""
        if self.ring is not None:
            raise RingMismatch("already modular")
        return Poly(self.coeffs, ring)

    def monic(self) -> tuple["Poly", object]:
        """Return (monic polynomial, leading unit) with self = unit * monic."""
        if self.is_zero():
            raise ValueError("zero polynomial")
        ring = _modular(self.ring)
        lead = self.leading()
        try:
            inv = pow(lead, -1, ring.modulus)
        except ValueError:
            raise NonInvertible(f"leading coefficient {lead} not invertible in {ring}") from None
        return self.scale(inv), lead

    def __divmod__(self, den: "Poly") -> tuple["Poly", "Poly"]:
        """Division with remainder over Z/p^alpha; the divisor's leading
        coefficient must be a unit."""
        ring = _modular(_check_same_ring(self.ring, den.ring))
        if den.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        m = ring.modulus
        a, f = list(self.coeffs), list(den.coeffs)
        try:
            lead_inv = pow(f[-1], -1, m)
        except ValueError:
            raise NonInvertible(
                f"leading coefficient {den.leading()} not invertible in {ring}"
            ) from None
        terms = len(a) - len(f) + 1
        if terms <= SCHOOLBOOK_MAX or terms * (len(f) - 1) <= LONG_DIVISION_MAX:
            q, r = _long_division(a, f, lead_inv, m)
        else:
            q, r = _divmod_residues(a, f, _inverse(f[::-1], m, terms), m)
        return Poly._residues(q, ring), Poly._residues(r, ring)

    def __floordiv__(self, den: "Poly") -> "Poly":
        return divmod(self, den)[0]

    def __mod__(self, den: "Poly") -> "Poly":
        return divmod(self, den)[1]

    def __repr__(self):
        return f"Poly({list(self.coeffs)}, ring={self.ring})"


class Series(Record):
    """Truncated power series: exactly `length` coefficients, order explicit."""

    __slots__ = ("coeffs", "ring")

    def __init__(self, coeffs: tuple, ring: Ring = None):
        # exact coefficients are ints or Fractions, as in an exact Poly, and
        # modular ones are reduced as in a modular Poly
        if ring is None:
            coeffs = map(require_rational, coeffs)
        else:
            m = ring.modulus
            coeffs = [c % m if type(c) is int else mod_reduce(c, ring) for c in coeffs]
        self._set(tuple(coeffs), ring)

    @classmethod
    def _residues(cls, cs: list, ring: ModRingCtx) -> "Series":
        """A Series from a list of residues in [0, modulus); no reduction."""
        out = object.__new__(cls)
        out._set(tuple(cs), ring)
        return out

    @classmethod
    def of(cls, coeffs, ring: Ring = None, length: int | None = None) -> "Series":
        cs = list(coeffs)
        if length is not None:
            if len(cs) > length:
                cs = cs[:length]
            else:
                cs += [0] * (length - len(cs))
        return cls(tuple(cs), ring)

    @property
    def length(self) -> int:
        return len(self.coeffs)

    def mul(self, other: "Series | Poly") -> "Series":
        """Product over Z/p^alpha truncated to self's length."""
        ring = _modular(_check_same_ring(self.ring, other.ring))
        x, y = list(self.coeffs), list(other.coeffs)
        return Series._residues(_product(x, y, ring.modulus, self.length), ring)

    def __repr__(self):
        return f"Series({list(self.coeffs)}, ring={self.ring})"


# Power-series division over Z/p^alpha produces this many terms per block.
# Measured at 100000 terms with denominators of degree 1 to 60 mod 7^5, 23
# and 10007^5, 1024 and 2048 are the fastest, 512 is 4-13% slower and 256
# 15-50%; on the period windows of 5371 to 57666 terms 512 and 1024 tie and
# 2048 is 14% slower.
_DIVISION_BLOCK = 1024


def series_div(num: Series | Poly, den: Series | Poly, length: int) -> Series:
    """Power-series quotient over Z/p^alpha to the given truncation length.

    Requires an invertible constant term in the denominator.  The quotient
    comes in blocks of B terms through the inverse of D mod z^B, which
    Newton iteration takes to max(64, 2 deg D) terms and the same blocks,
    with numerator 1, extend to B terms."""
    ring = _modular(_check_same_ring(num.ring, den.ring))
    m, dc = ring.modulus, list(den.coeffs)
    d0 = dc[0] if dc else 0
    try:
        pow(d0, -1, m)
    except ValueError:
        raise NonInvertibleConstantTerm(f"constant term {d0} not invertible in {ring}") from None
    block = max(1, min(length, _DIVISION_BLOCK))
    inv = _inverse(dc, m, min(block, max(64, 2 * len(dc) - 2)))
    inv = _quotient_blocks([1], dc, inv, m, block)
    return Series._residues(_quotient_blocks(num.coeffs, dc, inv, m, length), ring)


def _quotient_blocks(nc, dc: list, inv: list, m: int, length: int) -> list:
    """Terms 0..length-1 of nc/dc over Z/m in blocks of B = len(inv) terms,
    inv = 1/dc mod z^B.  Known terms enter the next block only through D
    times its last k = deg D terms: the block is (numerator - that carry) *
    inv mod z^B.  Past the numerator that right side has k terms, and slots
    sized for k terms hold the product."""
    block, k = len(inv), len(dc) - 1
    layouts: dict = {}
    out: list = []
    for i0 in range(0, length, block):
        width = min(block, length - i0)
        # numerator minus carry vanishes past its first `span` terms
        span = min(width, max(k, len(nc) - i0))
        lo = max(0, i0 - k)
        carry = _product(dc, out[lo:i0], m, i0 - lo + span)[i0 - lo :]
        rhs = [(u - v) % m for u, v in zip(list(nc[i0 : i0 + span]) + [0] * span, carry)]
        if span not in layouts:
            pack, unpack = kronecker(m, max(span, 1))
            layouts[span] = pack, unpack, pack(inv)
        pack, unpack, packed = layouts[span]
        out += unpack(pack(rhs) * packed, width)
    return out


class Factorization(Record):
    """unit * prod(factor^multiplicity) equals the factored polynomial."""

    __slots__ = ("unit", "factors")

    def __init__(self, unit, factors: tuple):  # factors: of (Poly, int)
        self._set(unit, factors)

    def expand(self, ring: Ring) -> Poly:
        out = Poly((self.unit,), ring)
        for f, mult in self.factors:
            out = out * f**mult
        return out


# ---------------------------------------------------------------------------
# kernels over F_p (alpha = 1)
# ---------------------------------------------------------------------------


def _ext_gcd_fp(a: Poly, b: Poly, cofactor: bool = True) -> tuple[Poly, Poly]:
    """(g, u) with u*a = g mod b, g the monic gcd over F_p (u = 1 without
    `cofactor`): the extended Euclidean algorithm on residue lists, each
    step one `_long_division`.  Over a field the leading terms of the
    cofactors never cancel."""
    ring, p = a.ring, a.ring.modulus
    r0, r1, s0, s1 = list(a.coeffs), list(b.coeffs), [1], []
    while r1:
        q, r = _long_division(r0, r1, pow(r1[-1], -1, p), p)
        while r and not r[-1]:
            r.pop()
        r0, r1 = r1, r
        if cofactor:
            qs = _product(q, s1, p, len(q) + len(s1) - 1) if s1 else []
            s0, s1 = s1, [(u - v) % p for u, v in zip_longest(s0, qs, fillvalue=0)]
    lead_inv = pow(r0[-1], -1, p) if r0 else 1
    return tuple(Poly._residues([v * lead_inv % p for v in w], ring) for w in (r0, s0))


def _gcd_fp(a: Poly, b: Poly) -> Poly:
    """Monic gcd over F_p."""
    return _ext_gcd_fp(a, b, cofactor=False)[0]


# `_mulmod` reduces modulo an f of degree at most this term by term, and
# packs above it: below, a call's four packs and three unpacks cost more than
# the product and the reduction of a few terms.  Measured by z^e mod f for
# e of 64 bits and random f mod 7, 7^4, 7^5, 13^3, 23, 101 and 10007^5: term
# by term takes a median 0.26 of the packed time at degree 3, 0.48 at 6,
# 0.83 at 10, 0.95 at 11, 1.04 at 12 and 1.13 at 13.  SCHOOLBOOK_MAX was
# measured for products of unreduced operands, a different decision.
TERMWISE_MODULUS_MAX = 10


def _termwise_mulmod(fc: list, m: int):
    """(x, y) -> x*y mod f over Z/m, for f = fc, term by term: a double
    loop for the product, a square folded so that each pair is multiplied
    once, then the top terms reduced one by one with z^k = -(f_0 ..
    f_(k-1)) / f_k, k = deg f, precomputed once.  Each term of the product
    is reduced by m once, when it is reduced away or returned."""
    k = len(fc) - 1
    lead_inv = pow(fc[-1], -1, m)
    tail = [-c * lead_inv % m for c in fc[:k]]

    def termwise(x: list, y: list) -> list:
        nx, ny = len(x), len(y)
        if not nx or not ny:
            return [0] * k
        a = [0] * (nx + ny - 1)
        if x is y:
            for i, u in enumerate(x):
                if u:
                    a[2 * i] += u * u
                    u += u
                    for j, v in enumerate(x[i + 1 :], 2 * i + 1):
                        a[j] += u * v
        else:
            for i, u in enumerate(x):
                if u:
                    for j, v in enumerate(y, i):
                        a[j] += u * v
        for t in range(len(a) - k - 1, -1, -1):
            c = a.pop() % m
            if c:
                for j, v in enumerate(tail, t):
                    a[j] += c * v
        return [v % m for v in a] + [0] * (k - len(a))

    return termwise


def _mulmod(f: Poly):
    """(x, y) -> x*y mod f on residue lists of at most deg f terms, or one
    of them longer as long as x*y has fewer than 2 deg f terms; the result
    has deg f terms.

    A modulus of degree at most `TERMWISE_MODULUS_MAX`, as the D^alpha of
    the period descent at small p, reduces term by term
    (`_termwise_mulmod`).  Above it, the inverse of rev(f) is computed once,
    and it and f are packed once, by one `kronecker` packer that holds
    every product below; each call packs only its operands."""
    m, fc, k = f.ring.modulus, list(f.coeffs), f.degree
    if k <= TERMWISE_MODULUS_MAX:
        return _termwise_mulmod(fc, m)
    finv = _inverse(fc[::-1], m, max(k - 1, 1))
    pack, unpack = kronecker(m, k)
    low_f, inv = pack(fc[:k]), pack(finv)

    def mulmod(x: list, y: list) -> list:
        width = max(len(x) + len(y) - 1, 0)
        px = pack(x)
        a = unpack(px * px if x is y else px * pack(y), width)
        if width <= k:
            return a + [0] * (k - width)
        # the quotient reversed is rev(a) / rev(f) to width - k terms
        q = unpack(pack(a[: k - 1 : -1]) * inv, width - k)
        return [(u - v) % m for u, v in zip(a, unpack(pack(q[::-1]) * low_f, k))]

    return mulmod


def _pow_mod(base: list, e: int, mulmod) -> list:
    """base^e mod f for mulmod = _mulmod(f), by repeated squaring; base is
    a residue list of at most deg f + 1 terms."""
    out, b = [1], mulmod([1], base)
    while e:
        if e & 1:
            out = mulmod(out, b)
        e >>= 1
        if e:
            b = mulmod(b, b)
    return out


def _frobenius(f: Poly, mulmod):
    """h -> h^p mod f over F_p, on residue lists of at most deg f terms;
    mulmod = _mulmod(f).

    Over F_p, h(z)^p = h(z^p), so h^p mod f is the combination of the rows
    z^(p j) mod f, j < deg f, with the coefficients of h.  The rows are
    packed once (deg f products mod f); each call is then one sum of
    scalar multiples of packed rows and one unpack.
    """
    p, k = f.ring.p, f.degree
    zp = _pow_mod([0, 1], p, mulmod)
    pack, unpack = kronecker(p, k)
    rows, row = [], [1]
    for _ in range(k):
        rows.append(pack(row))
        row = mulmod(row, zp)

    def frobenius(h: list) -> list:
        return unpack(sum(map(mul, h, rows)), k)

    return frobenius


def _equal_degree_split(f: Poly, d: int, rng: random.Random) -> list[Poly]:
    """Cantor-Zassenhaus split of a squarefree product of irreducibles of
    equal degree d over F_p, p odd: for a random r, r^((p^d-1)/2) - 1 is
    divisible by about half of the factors."""
    ring, p = f.ring, f.ring.p
    if f.degree == d:
        return [f]
    exponent = (p**d - 1) // 2
    mulmod = _mulmod(f)
    while True:
        r = Poly._residues([rng.randrange(p) for _ in range(f.degree)], ring)
        if r.degree < 1:
            continue
        t = Poly._residues(_pow_mod(list(r.coeffs), exponent, mulmod), ring)
        g = _gcd_fp(t - Poly.one(ring), f)
        if 0 < g.degree < f.degree:
            return _equal_degree_split(g, d, rng) + _equal_degree_split(f // g, d, rng)


def _factor_squarefree_monic(f: Poly, rng: random.Random) -> list[Poly]:
    """Irreducible factors of a squarefree monic f: distinct-degree stage,
    then equal-degree splits.

    h_i = z^(p^i) mod f comes from the Frobenius map.  The gcd with f is
    taken once per run of degrees d..2d-1, on the product of the h_i - z mod
    f (von zur Gathen-Shoup, Comput. Complexity 2, 1992), so there are
    O(log deg f) of them.  A nontrivial one is split by gcds with each
    h_i - z in increasing i: every factor of lower degree is gone by then,
    so each takes exactly the factors of degree i.  The maps stay mod the
    input f; gcds with what is left of f are unaffected.
    """
    if f.degree < 2:
        return [f] if f.degree == 1 else []
    ring, p = f.ring, f.ring.p
    mulmod = _mulmod(f)
    frobenius = _frobenius(f, mulmod)
    out: list[Poly] = []
    h, d = [0, 1], 1  # h = z^(p^(d-1)) mod f
    while f.degree >= 2 * d:
        end = min(2 * d - 1, f.degree // 2)
        shifted, run = [], [1]
        for _ in range(d, end + 1):
            h = frobenius(h)
            hz = list(h)
            hz[1] = (hz[1] - 1) % p
            shifted.append(Poly._residues(list(hz), ring))
            run = mulmod(run, hz)
        g = _gcd_fp(Poly._residues(run, ring), f)
        for i, hz in zip(range(d, end + 1), shifted):
            if g.degree < i:
                break
            gi = _gcd_fp(g, hz)
            if gi.degree > 0:
                out.extend(_equal_degree_split(gi, i, rng))
                g, f = g // gi, f // gi
        d = end + 1
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

    # peel multiplicities via the derivative, handling the p-th-power case
    # where it vanishes
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
            found[g] = found.get(g, 0) + e * mult_scale

    factors = sorted(found.items(), key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return Factorization(unit, tuple(factors))


# ---------------------------------------------------------------------------
# lifting to Z/p^alpha
# ---------------------------------------------------------------------------


def _lift_to(poly: Poly, ctx: ModRingCtx) -> Poly:
    return Poly([int(c) for c in poly.coeffs], ctx)


def _hensel_factor(f: Poly, g: Poly, h: Poly, ctx: ModRingCtx) -> Poly:
    """The monic lift G of g that divides f over Z/p^alpha.

    f is monic over Z/p^alpha; g, h monic and coprime over Z/p with
    g*h = f mod p.  One linear step per power of p: if G divides f mod p^k,
    the remainder of f by G is p^k e, and G + p^k (e / h mod g) divides f
    mod p^(k+1).
    """
    fp = ModRingCtx(ctx.p, 1)
    d, h_inv = _ext_gcd_fp(h, g)
    if d.degree != 0:
        raise NotCoprime("factors share a common divisor mod p")
    G = _lift_to(g, ctx)
    pk = ctx.p
    while pk < ctx.modulus:
        e = Poly([c // pk for c in (f % G).coeffs], fp)
        G = G + _lift_to(h_inv * e % g, ctx).scale(pk)
        pk *= ctx.p
    return G


def hensel_lift(factors: list[Poly], target: Poly) -> Factorization:
    """Lift monic pairwise-coprime factors mod p to a factorization of
    `target` over its Z/p^alpha ring.

    Each lifted factor is monic, congruent to its input mod p, and the
    product (times the unit) reproduces `target` exactly.  Each factor is
    lifted on its own, against its cofactor of the target; monic coprime
    lifts are unique, so the lifts of all factors multiply to the target.
    """
    ctx = target.ring
    if ctx is None:
        raise RingMismatch("target must live in a modular ring")
    fp = ModRingCtx(ctx.p, 1)
    monic_target, unit = target.monic()
    reduced = Poly(monic_target.coeffs, fp)
    prod = Poly.one(fp)
    for g in factors:
        prod = prod * g
    if prod != reduced:
        raise ValueError("product of factors does not match target mod p")
    # _hensel_factor raises NotCoprime unless each factor is coprime to its
    # cofactor, that is unless the factors are pairwise coprime
    lifted = [_hensel_factor(monic_target, g, reduced // g, ctx) for g in factors]
    return Factorization(unit, tuple((g, 1) for g in lifted))


def ext_gcd_coprime(f: Poly, g: Poly, ctx: ModRingCtx) -> tuple[Poly, Poly]:
    """Bezout cofactors u, v with u*f + v*g = 1 over Z/p^alpha,
    deg u < deg g and deg v < deg f.

    Requires f and g coprime mod p (NotCoprime otherwise) and the leading
    coefficient of g a unit (NonInvertible otherwise); then u and v are
    unique.  u starts as the inverse of f mod g over F_p, and each Newton
    step u <- u*(2 - f*u) mod g squares the error 1 - f*u, so
    ceil(log2 alpha) steps reach p^alpha; v = (1 - u*f) / g is an exact
    division.
    """
    if f.ring != ctx or g.ring != ctx:
        raise RingMismatch("operands must live in the given ring")
    f_mod = f % g  # NonInvertible unless g's leading coefficient is a unit
    fp = ModRingCtx(ctx.p, 1)
    gbar = Poly(g.coeffs, fp)
    d, u0 = _ext_gcd_fp(Poly(f_mod.coeffs, fp), gbar)
    if d.degree != 0:
        raise NotCoprime("inputs are not coprime mod p")
    u, two = _lift_to(u0 % gbar, ctx), Poly([2], ctx)
    for _ in range((ctx.alpha - 1).bit_length()):
        u = u * (two - f_mod * u) % g
    v, r = divmod(Poly.one(ctx) - u * f, g)
    if not r.is_zero():
        raise NotCoprime("Bezout lift failed")  # pragma: no cover
    return u, v
