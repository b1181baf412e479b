import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freesub.errors import (
    NonInvertible,
    NonInvertibleConstantTerm,
    NonInvertibleDenominator,
    NotCoprime,
    RingMismatch,
)
from freesub.exact import ModRingCtx, is_prime, mod_reduce
from freesub.groups import GroupFamily
import freesub.poly
from freesub.poly import (
    LONG_DIVISION_MAX,
    SCHOOLBOOK_MAX,
    WORD_SLOTS_MAX,
    Factorization,
    Poly,
    Series,
    _convolve,
    _divmod_residues,
    _ext_gcd_fp,
    _gcd_fp,
    _inverse,
    _lift_to,
    _long_division,
    _mulmod,
    _pow_mod,
    ext_gcd_coprime,
    factor_mod_p,
    hensel_lift,
    kronecker,
    series_div,
)
from freesub.reduce import denominator_base, expand_form, rational_form


def test_basic_arithmetic():
    assert Poly([1, -12]).derivative() == Poly([-12])
    assert Poly([1, 2]) * Poly([1, -2]) == Poly([1, 0, -4])
    assert Poly([1, 2]).eval(0) == 1
    assert Poly([1, 2, 0, 0]) == Poly([1, 2])  # canonical form
    assert Poly([]).degree == -1
    with pytest.raises(RingMismatch):
        Poly([1], ModRingCtx(7, 1)) + Poly([1], ModRingCtx(11, 1))


def test_modular_coefficients_are_images_of_ints_and_fractions():
    # 1/2 = 4 mod 7 and -1/3 = 2 mod 7; an int keeps its residue
    ctx = ModRingCtx(7, 1)
    assert Poly([Fraction(1, 2), 3], ctx).coeffs == (4, 3)
    assert Poly([Fraction(1, 2), Fraction(-1, 3)]).map_ring(ctx) == Poly([4, 2], ctx)
    assert Series.of([Fraction(1, 2), -1], ctx, 3).coeffs == (4, 6, 0)
    assert Poly([Fraction(1, 7)], ModRingCtx(5, 2)).coeffs == (18,)  # 7 * 18 = 126 = 1 mod 25
    assert Poly([True, 9], ctx).coeffs == (1, 2)


@pytest.mark.parametrize(
    "build",
    [lambda cs, ctx: Poly(cs, ctx), lambda cs, ctx: Series(cs, ctx), lambda cs, ctx: Series.of(cs, ctx)],
    ids=["Poly", "Series", "Series.of"],
)
def test_modular_coefficients_refuse_what_has_no_image(build):
    ctx = ModRingCtx(7, 2)
    with pytest.raises(NonInvertibleDenominator):
        build([1, Fraction(1, 14)], ctx)
    for c in (2.7, 2.0, "3", None):
        with pytest.raises(TypeError):
            build([1, c], ctx)


def test_modular_series_reduces_its_coefficients():
    # the constructor reduces as Poly's does: `Series.mul` packs residues
    # into slots sized for [0, p^alpha), so an unreduced 2^20 spilled into
    # the next slot and 2^70 overflowed the 64-bit packer
    ring = ModRingCtx(7, 1)
    f = Poly([1, 2, 3, 4, 5, 6, 1, 2], ring)
    for c in (50, -3, 2**20, 2**70, Fraction(1, 2)):
        s = Series((c,) * 12, ring)
        assert s == Series.of((c,) * 12, ring)
        assert s.coeffs == (mod_reduce(c, ring),) * 12
        assert s.mul(f) == school_series_mul(s, f)
    assert Series((2**20,) * 12, ring).mul(f).coeffs == (4, 5, 3, 5, 4, 0, 4, 5, 5, 5, 5, 5)


def test_exact_coefficients_are_ints_or_fractions():
    # the rule of mod_reduce: int(2.7) would truncate, int("3") would parse;
    # an exact Series keeps its coefficients as given, so it must refuse too
    for c in (2.7, 2.0, "3", None):
        for build in (Poly, Series, Series.of):
            with pytest.raises(TypeError):
                build([1, c])
    with pytest.raises(TypeError):
        Poly([2.7]).map_ring(ModRingCtx(7, 1))
    assert Poly([True, Fraction(1, 2), 3]).coeffs == (1, Fraction(1, 2), 3)


def test_map_ring_refuses_a_denominator_divisible_by_p():
    with pytest.raises(NonInvertibleDenominator):
        Poly([1, Fraction(1, 14)]).map_ring(ModRingCtx(7, 2))


def test_divmod_exact_and_modular():
    # exact polynomials are never divided: divmod, //, % and monic refuse them
    num = Poly([2, 7, 6])  # (1+2z)(2+3z)
    for divide in (divmod, operator.floordiv, operator.mod):
        with pytest.raises(RingMismatch):
            divide(num, Poly([1, 2]))
    with pytest.raises(RingMismatch):
        num.monic()
    ctx = ModRingCtx(7, 2)
    q, r = divmod(Poly([5, 1, 3], ctx), Poly([1, 2], ctx))
    assert (q * Poly([1, 2], ctx) + r) == Poly([5, 1, 3], ctx)


def test_series_div_examples():
    ctx = ModRingCtx(7, 3)
    geo = series_div(Poly([1], ctx), Poly([1, -1], ctx), 4)
    assert geo.coeffs == (1, 1, 1, 1)
    # oracle: long division; the quotient must reproduce the first counts
    s = series_div(Poly([1, -7], ctx), Poly([1, -12], ctx), 3)
    assert s.coeffs == (1, 5, 60)
    assert series_div(Poly([1], ctx), Poly([1], ctx), 2).coeffs == (1, 0)
    with pytest.raises(NonInvertibleConstantTerm):
        series_div(Poly([1], ctx), Poly([0, 1], ctx), 3)
    with pytest.raises(NonInvertibleConstantTerm):
        series_div(Poly([1], ModRingCtx(7, 2)), Poly([7, 1], ModRingCtx(7, 2)), 3)
    # exact series are neither divided nor multiplied with truncation
    with pytest.raises(RingMismatch):
        series_div(Poly([1]), Poly([1, -1]), 4)
    with pytest.raises(RingMismatch):
        Series.of([1, 1]).mul(Poly([1, -1]))


@pytest.mark.parametrize("ring", [ModRingCtx(7, 1), ModRingCtx(13, 4)])
def test_series_div_roundtrip(ring):
    rng = random.Random(7)
    for _ in range(25):
        L = rng.randint(1, 12)
        num = Poly([rng.randrange(ring.modulus) for _ in range(rng.randint(1, 6))], ring)
        den = Poly([1] + [rng.randrange(ring.modulus) for _ in range(rng.randint(0, 5))], ring)
        quot = series_div(num, den, L)
        back = quot.mul(den)
        expect = Series.of(num.coeffs, ring, L)
        assert back.coeffs == expect.coeffs


def test_eval_reduces_its_argument():
    ctx7 = ModRingCtx(7, 1)
    # 1 + 2/3 with 1/3 = 5 mod 7
    assert Poly([1, 2], ctx7).eval(Fraction(1, 3)) == 4
    with pytest.raises(NonInvertibleDenominator):
        Poly([1, 2], ctx7).eval(Fraction(1, 7))
    assert Poly([1, 2]).eval(Fraction(1, 3)) == Fraction(5, 3)
    for ring in (None, ctx7):
        with pytest.raises(TypeError):
            Poly([1, 2], ring).eval(0.5)


def test_factor_examples():
    ctx7 = ModRingCtx(7, 1)
    fac = factor_mod_p(Poly([1, 2], ctx7))
    assert fac.unit == 2 and fac.factors == ((Poly([4, 1], ctx7), 1),)
    # oracle: evaluation at the root
    assert Poly([1, 2], ctx7).eval(-4 % 7) == 0

    ctx13 = ModRingCtx(13, 1)
    fac = factor_mod_p(Poly([1, -36, 211], ctx13))
    assert len(fac.factors) == 2
    assert all(g.degree == 1 for g, _ in fac.factors)
    assert fac.expand(ctx13) == Poly([1, -36, 211], ctx13)

    ctx17 = ModRingCtx(17, 1)
    fac = factor_mod_p(Poly([1, -36, 211], ctx17))
    assert len(fac.factors) == 1 and fac.factors[0][0].degree == 2


def test_factor_properties_random():
    rng = random.Random(99)
    for p in (3, 7, 13, 17):
        ctx = ModRingCtx(p, 1)
        for trial in range(30):
            coeffs = [rng.randrange(p) for _ in range(rng.randint(1, 8))]
            if not any(coeffs):
                continue
            f = Poly(coeffs, ctx)
            if f.is_zero():
                continue
            fac = factor_mod_p(f, seed=trial)
            assert fac.expand(ctx) == f
            for g, mult in fac.factors:
                assert mult >= 1
                if g.degree <= 3:
                    # exhaustive check: reported irreducibles of low degree
                    # have no roots (degree >= 2) over F_p
                    if g.degree >= 2:
                        assert all(g.eval(a) != 0 for a in range(p))


def test_factor_determinism():
    ctx = ModRingCtx(13, 1)
    f = Poly([3, 1, 4, 1, 5, 9, 2], ctx)
    a = factor_mod_p(f, seed=5)
    b = factor_mod_p(f, seed=5)
    assert a == b


def test_hensel_examples_and_properties():
    fp = ModRingCtx(7, 1)
    ctx = ModRingCtx(7, 2)
    target = Poly([1, 2], ctx)
    fac = hensel_lift([Poly([4, 1], fp)], target)
    g = fac.factors[0][0]
    assert Poly([c % 7 for c in g.coeffs], fp) == Poly([4, 1], fp)
    assert fac.expand(ctx) == target

    # alpha = 1 is the identity
    fac1 = hensel_lift([Poly([4, 1], fp)], Poly([1, 2], fp))
    assert fac1.factors == ((Poly([4, 1], fp), 1),)

    with pytest.raises(NotCoprime):
        hensel_lift(
            [Poly([4, 1], fp), Poly([4, 1], fp)],
            (Poly([4, 1], ModRingCtx(7, 3)) ** 2),
        )


@pytest.mark.parametrize("p", [7, 11, 13, 17])
@pytest.mark.parametrize("alpha", [2, 3, 5])
def test_hensel_postconditions(p, alpha):
    rng = random.Random(p * alpha)
    fp = ModRingCtx(p, 1)
    ctx = ModRingCtx(p, alpha)
    for _ in range(5):
        # build a target from random distinct monic factors, then perturb it
        # above level p^1
        roots = rng.sample(range(p), 3)
        gs = [Poly([-r, 1], fp) for r in roots]
        target = Poly([1], ctx)
        for g in gs:
            target = target * Poly([int(c) for c in g.coeffs], ctx)
        bump = rng.randrange(ctx.modulus // p) * p
        target = target + Poly([bump, bump * 2], ctx) * Poly([0, 1], ctx)
        if target.degree != 3:
            continue
        fac = hensel_lift(gs, target)
        assert fac.expand(ctx) == target
        for lifted, (orig, _) in zip([g for g, _ in fac.factors], [(g, 1) for g in gs]):
            assert Poly([c % p for c in lifted.coeffs], fp) == orig


def test_ext_gcd_examples():
    fp7 = ModRingCtx(7, 1)
    u, v = ext_gcd_coprime(Poly([4, 1], fp7), Poly([1], fp7), fp7)
    assert u * Poly([4, 1], fp7) + v * Poly([1], fp7) == Poly([1], fp7)

    fp13 = ModRingCtx(13, 1)
    f, g = Poly([1, -2], fp13), Poly([1, 5], fp13)
    u, v = ext_gcd_coprime(f, g, fp13)
    assert u * f + v * g == Poly([1], fp13)

    with pytest.raises(NotCoprime):
        ext_gcd_coprime(Poly([0, 1], fp7), Poly([0, 1], fp7), fp7)


@pytest.mark.parametrize("p,alpha", [(7, 5), (11, 3), (13, 5), (17, 2)])
def test_ext_gcd_lifted(p, alpha):
    rng = random.Random(p + alpha)
    ctx = ModRingCtx(p, alpha)
    one = Poly([1], ctx)
    for _ in range(10):
        r1, r2 = rng.sample(range(p), 2)
        f = Poly([-r1 + p * rng.randrange(p), 1], ctx)
        g = Poly([-r2 + p * rng.randrange(p), 1], ctx)
        u, v = ext_gcd_coprime(f, g, ctx)
        assert u * f + v * g == one
        assert u.degree < 1 and v.degree < 1


# ---------------------------------------------------------------------------
# exact products against the schoolbook product
# ---------------------------------------------------------------------------


def _signed_ints(rng: random.Random, n: int, big: int = 600) -> list[int]:
    # zeros, small values and big integers of up to `big` bits, either sign
    return [rng.choice((-1, 1)) * rng.getrandbits(rng.choice((0, 5, 64, big))) for _ in range(n)]


def test_exact_poly_products_match_schoolbook():
    rng = random.Random(1962)
    for n in [*range(0, 70), 127, 128, 129, 255, 256, 257, *(rng.randint(70, 300) for _ in range(3)), 300]:
        a = Poly(_signed_ints(rng, n, rng.choice((100, 1600))))
        for m in {0, 1, 3, n // 2, n + 1}:
            b = Poly(_signed_ints(rng, m, 1600))
            assert a * b == school_mul(a, b), (n, m)
        assert a * a == school_mul(a, a), n
        # a Fraction coefficient mixes with the ints
        c = Poly(list(a.coeffs) + [Fraction(1, 3)])
        assert c * a == school_mul(c, a), n


_exact_coeffs = st.lists(
    st.integers(min_value=-(1 << 700), max_value=1 << 700) | st.fractions(max_denominator=50), max_size=60
)


@settings(max_examples=150, deadline=None)
@given(_exact_coeffs, _exact_coeffs, _exact_coeffs)
def test_exact_products_obey_the_ring_laws(x, y, z):
    # ints of up to 700 bits mixed with Fractions, trailing zeros and the
    # empty polynomial: the product is the schoolbook one, and it commutes,
    # associates and distributes over the sum
    a, b, c = Poly(x), Poly(y), Poly(z)
    assert a * b == school_mul(a, b) == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_poly_square_takes_the_square_path(monkeypatch):
    # `p * p` hands one list to the packed product, so that it squares; the
    # product with an equal copy gives the same polynomial
    seen = []
    product = freesub.poly._product

    def spy(x, y, *rest):
        seen.append(x is y)
        return product(x, y, *rest)

    monkeypatch.setattr(freesub.poly, "_product", spy)
    rng = random.Random(1966)
    p = Poly([rng.randrange(7**5) for _ in range(40)], ModRingCtx(7, 5))
    copy = Poly(p.coeffs, p.ring)
    assert copy is not p
    square = p * p
    assert seen == [True]
    seen.clear()
    assert square == p * copy == school_mul(p, copy)
    assert seen == [False]
    # every squaring step of a power squares
    seen.clear()
    assert p**5 == school_mul(school_mul(p, p), school_mul(p, school_mul(p, p)))
    assert seen.count(True) == 3


# ---------------------------------------------------------------------------
# the Kronecker kernel against the schoolbook loops it replaced, kept here as
# oracles: products, division with remainder, powers mod f, series products
# and series quotients over Z/p^alpha
# ---------------------------------------------------------------------------

# 7 and 13^3 pack through 64-bit words; 10007^5 needs slots wider than one
KERNEL_RINGS = [ModRingCtx(7, 1), ModRingCtx(13, 3), ModRingCtx(10007, 5)]


def school_mul(a: Poly, b: Poly) -> Poly:
    if a.is_zero() or b.is_zero():
        return Poly.zero(a.ring)
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return Poly(out, a.ring)


def school_divmod(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    m = num.ring.modulus
    lead_inv = pow(den.leading(), -1, m)
    rem = list(num.coeffs)
    q = [0] * max(0, len(rem) - len(den.coeffs) + 1)
    for i in range(len(rem) - len(den.coeffs), -1, -1):
        c = (rem[i + len(den.coeffs) - 1] * lead_inv) % m
        if c:
            q[i] = c
            for j, d in enumerate(den.coeffs):
                rem[i + j] = (rem[i + j] - c * d) % m
    return Poly(q, num.ring), Poly(rem[: len(den.coeffs) - 1], num.ring)


def school_pow_mod(base: Poly, e: int, mod: Poly) -> Poly:
    out = Poly.one(base.ring)
    base = school_divmod(base, mod)[1]
    while e:
        if e & 1:
            out = school_divmod(school_mul(out, base), mod)[1]
        base = school_divmod(school_mul(base, base), mod)[1]
        e >>= 1
    return out


def school_series_mul(s: Series, other) -> Series:
    out = [0] * s.length
    for i, a in enumerate(s.coeffs):
        for j, b in enumerate(other.coeffs):
            if i + j >= s.length:
                break
            out[i + j] += a * b
    return Series.of(out, s.ring, s.length)


def school_series_div(num, den, length: int) -> Series:
    m = num.ring.modulus
    nc, dc = num.coeffs, den.coeffs
    inv0 = pow(dc[0], -1, m)
    out = [0] * length
    for i in range(length):
        acc = nc[i] if i < len(nc) else 0
        for j in range(1, min(i, len(dc) - 1) + 1):
            acc -= dc[j] * out[i - j]
        out[i] = (acc * inv0) % m
    return Series.of(out, num.ring)


def _random_poly(rng: random.Random, ring: ModRingCtx, degree: int, unit_lead=False) -> Poly:
    """degree -1 is the zero polynomial; a unit leading coefficient that is
    not 1 makes a non-monic divisor."""
    m = ring.modulus
    coeffs = [rng.randrange(m) for _ in range(degree + 1)]
    if degree >= 0:
        lead = rng.randrange(1, m)
        while unit_lead and lead % ring.p == 0:
            lead = rng.randrange(1, m)
        coeffs[-1] = lead
    return Poly(coeffs, ring)


def _kernel_degrees(rng: random.Random) -> list[int]:
    # every degree around the schoolbook cutoff, then a spread up to 200
    return list(range(-1, 12)) + [rng.randint(12, 200) for _ in range(12)] + [200]


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
def test_kernel_products_match_schoolbook(ring):
    rng = random.Random(ring.modulus)
    m = ring.modulus
    for da in _kernel_degrees(rng):
        for db in (-1, 0, 1, 5, 6, rng.randint(0, 200), 200):
            a, b = _random_poly(rng, ring, da), _random_poly(rng, ring, db)
            assert a * b == school_mul(a, b)
    # every coefficient at m - 1 gives the largest slot sums: no carry
    top = Poly([m - 1] * 201, ring)
    assert top * top == school_mul(top, top)
    assert top * Poly([m - 1] * 3, ring) == school_mul(top, Poly([m - 1] * 3, ring))


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
def test_kernel_divmod_matches_schoolbook(ring):
    rng = random.Random(ring.modulus + 1)
    for da in _kernel_degrees(rng):
        for df in (0, 1, 2, 5, 6, 7, rng.randint(0, 200), 200):
            a = _random_poly(rng, ring, da)
            f = _random_poly(rng, ring, df, unit_lead=True)
            assert divmod(a, f) == school_divmod(a, f)
    top = Poly([ring.modulus - 1] * 201, ring)
    assert divmod(top, Poly([1] * 40, ring)) == school_divmod(top, Poly([1] * 40, ring))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_long_division_matches_newton_division(data):
    # quotients of 0 to SCHOOLBOOK_MAX + 2 terms; the dividend may carry
    # trailing zeros, which lengthen the quotient by as many zero terms
    ring = data.draw(st.sampled_from(KERNEL_RINGS))
    m = ring.modulus
    residue = st.integers(0, m - 1)
    unit = residue.filter(lambda v: v % ring.p)
    k = data.draw(st.integers(0, 12))
    f = data.draw(st.lists(residue, min_size=k, max_size=k)) + [data.draw(unit)]
    t = data.draw(st.integers(0, SCHOOLBOOK_MAX + 2))
    zeros = data.draw(st.integers(0, min(t, 3)))
    a = data.draw(st.lists(residue, min_size=k + t - zeros, max_size=k + t - zeros)) + [0] * zeros
    long_q, long_r = _long_division(a, f, pow(f[-1], -1, m), m)
    newton_q, newton_r = _divmod_residues(a, f, _inverse(f[::-1], m, max(t, 1)), m)
    assert (long_q, long_r) == (newton_q, newton_r)
    assert len(long_q) == t and len(long_r) == k
    assert divmod(Poly(a, ring), Poly(f, ring)) == school_divmod(Poly(a, ring), Poly(f, ring))


def _spy_on_inverse(monkeypatch) -> list:
    calls = []

    def spy(*args):
        calls.append(args)
        return _inverse(*args)

    monkeypatch.setattr(freesub.poly, "_inverse", spy)
    return calls


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
@pytest.mark.parametrize("k", [1, 6, 50, 200])
def test_divmod_takes_long_division_for_short_quotients(monkeypatch, ring, k):
    # a quotient of t terms by a divisor of degree k is taken by long
    # division while t <= SCHOOLBOOK_MAX or t k <= LONG_DIVISION_MAX, and by
    # Newton division past both; the two give the same (q, r)
    calls = _spy_on_inverse(monkeypatch)
    rng = random.Random(k)
    f = _random_poly(rng, ring, k, unit_lead=True)
    edge = max(LONG_DIVISION_MAX // k, SCHOOLBOOK_MAX)
    for t, newton in ((edge, False), (edge + 1, True)):
        calls.clear()
        a = _random_poly(rng, ring, k + t - 1)
        assert divmod(a, f) == school_divmod(a, f)
        assert bool(calls) == newton, (k, t)


@pytest.mark.parametrize("ring", KERNEL_RINGS[1:], ids=str)
@pytest.mark.parametrize("t", [*range(SCHOOLBOOK_MAX + 3), LONG_DIVISION_MAX // 6 + 1])
def test_divmod_non_unit_leading_coefficient(ring, t):
    # both the long-division and the Newton path refuse a divisor whose
    # leading coefficient is a multiple of p, also when deg a < deg f
    rng = random.Random(t)
    f = _random_poly(rng, ring, 6, unit_lead=True)
    f = Poly(list(f.coeffs[:-1]) + [ring.p * rng.randrange(1, ring.modulus // ring.p)], ring)
    a = _random_poly(rng, ring, 6 + t - 1)
    with pytest.raises(NonInvertible):
        divmod(a, f)


def test_gcd_builds_no_newton_inverse(monkeypatch):
    # every Euclid step divides by a quotient of one or two terms, which
    # long division takes without an inverse of the reversed divisor
    calls = _spy_on_inverse(monkeypatch)
    ring = ModRingCtx(10007, 1)
    rng = random.Random(50)
    c = _random_poly(rng, ring, 10)
    a, b = c * _random_poly(rng, ring, 40), c * _random_poly(rng, ring, 39)
    assert a.degree == 50
    g = _gcd_fp(a, b)
    assert calls == []
    assert g == c.monic()[0]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_prepacked_mulmod_matches_schoolbook(data):
    # short and long moduli; operands of at most deg f terms, or one
    # longer while the product stays below 2 deg f terms
    ring = data.draw(st.sampled_from(KERNEL_RINGS))
    residue = st.integers(0, ring.modulus - 1)
    unit = residue.filter(lambda v: v % ring.p)
    k = data.draw(st.one_of(st.integers(1, 12), st.integers(13, 80)))
    f = Poly(data.draw(st.lists(residue, min_size=k, max_size=k)) + [data.draw(unit)], ring)
    nx = data.draw(st.integers(0, 2 * k - 1))
    ny = data.draw(st.integers(0, min(k, 2 * k - nx)))
    x = data.draw(st.lists(residue, min_size=nx, max_size=nx))
    y = x if data.draw(st.booleans()) and nx <= k else data.draw(st.lists(residue, min_size=ny, max_size=ny))
    got = _mulmod(f)(x, y)
    assert len(got) == k
    assert Poly._residues(list(got), ring) == school_divmod(school_mul(Poly(x, ring), Poly(y, ring)), f)[1]


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
def test_kernel_pow_mod_matches_schoolbook(ring):
    rng = random.Random(ring.modulus + 2)
    for df in (1, 2, 5, 6, 7, 30, 200):
        f = _random_poly(rng, ring, df, unit_lead=True)
        mulmod = _mulmod(f)  # one reducer serves every power mod f
        for db in (-1, 0, 3, df - 1, df, df + 4):
            base = _random_poly(rng, ring, db)
            # _pow_mod takes bases of up to deg f + 1 terms
            b = list((base if db <= df else base % f).coeffs)
            for e in (0, 1, 2, 13, rng.randrange(1, 1 << (12 if df < 100 else 4))):
                got = Poly._residues(_pow_mod(b, e, mulmod), ring)
                assert got == school_pow_mod(base, e, f)


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
def test_kernel_series_products_match_schoolbook(ring):
    rng = random.Random(ring.modulus + 3)
    m = ring.modulus
    for length in (1, 2, 5, 6, 7, 64, 200, 300):
        for db in (-1, 0, 1, 5, 6, 40, 200, 320):
            s = Series.of([rng.randrange(m) for _ in range(length)], ring)
            b = _random_poly(rng, ring, db)
            assert s.mul(b) == school_series_mul(s, b)
            assert s.mul(s) == school_series_mul(s, s)


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
def test_kernel_series_div_matches_schoolbook(ring):
    rng = random.Random(ring.modulus + 4)
    m = ring.modulus
    for dd in (0, 1, 4, 5, 6, 7, 40, 200):
        den = Poly([rng.choice([1, m - 1, 2])] + [rng.randrange(m) for _ in range(dd)], ring)
        for dn in (-1, 0, 3, 50, 200):
            num = _random_poly(rng, ring, dn)
            # lengths below, at and past one division block
            for length in (1, 2, 7, 200, 1023, 1024, 1025, 2500):
                assert series_div(num, den, length) == school_series_div(num, den, length)


# `kronecker` moduli: the packed reduction needs 2n + 2 <= 64, which ends
# at many millions of terms, at a few hundred, at a few or, mod 32771, just
# past 2^15, at one, where two terms at their bound already overflow a word
# by the reduction; mod 23^3 a shift one bit short gives wrong quotients
# near the bound; mod 10007^2 and 10007^5 it never applies, and slots are 7
# bytes, or wider than a word
KRONECKER_RINGS = [
    ModRingCtx(2, 1), ModRingCtx(3, 1), ModRingCtx(7, 5), ModRingCtx(11, 4), ModRingCtx(13, 3),
    ModRingCtx(23, 3), ModRingCtx(32771, 1), ModRingCtx(10007, 2), ModRingCtx(10007, 5),
]


def _reduction_edge(m: int) -> int:
    """The largest `terms` whose slots, of n = bitlen(terms * (m-1)^2)
    bits, satisfy 2n + 2 <= 64; 0 where none does."""
    return (2**31 - 1) // (m - 1) ** 2


@pytest.mark.parametrize("ring", KRONECKER_RINGS, ids=str)
def test_kronecker_unpacks_residues_on_both_sides_of_the_word_layout(ring):
    # 64-bit word slots, reduced on the packed integer, need 2n + 2 <= 64
    # and at most WORD_SLOTS_MAX terms: both bounds from both sides
    m = ring.modulus
    rng = random.Random(m)
    edge = _reduction_edge(m)
    for terms in sorted({WORD_SLOTS_MAX, WORD_SLOTS_MAX + 1, edge, edge + 1} - {0}):
        n = (terms * (m - 1) ** 2).bit_length()
        assert (2 * n + 2 <= 64) == (terms <= edge)
        pack, unpack = kronecker(m, terms)
        assert (pack([0, 1]) == 1 << 64) == (terms <= min(edge, WORD_SLOTS_MAX))
        # the 2000 slot values up to the bound and random ones reduce; `pack`
        # writes any value that fits its slot
        bound = terms * (m - 1) ** 2
        values = [0, m - 1, m] + list(range(bound, max(bound - 2000, -1), -1))
        values += [rng.randrange(bound + 1) for _ in range(500)]
        assert unpack(pack(values), len(values)) == [v % m for v in values]
        short = min(terms, 300)
        for x, y in (
            ([rng.randrange(m) for _ in range(short)], [rng.randrange(m) for _ in range(rng.randint(short, 700))]),
            ([m - 1] * short, [m - 1] * 500),
        ):
            width = len(x) + len(y) - 1
            px = pack(x)
            assert unpack(px * pack(y), width) == [v % m for v in _convolve(x, y, width)]
            assert unpack(px * px, 2 * len(x) - 1) == [v % m for v in _convolve(x, x, 2 * len(x) - 1)]
        # a `_frobenius` sum: one packed row per coefficient of h
        rows = [[rng.randrange(m) for _ in range(40)] for _ in range(min(terms, 60))]
        h = [rng.randrange(m) for _ in rows]
        want = [sum(c * row[i] for c, row in zip(h, rows)) % m for i in range(40)]
        assert unpack(sum(c * pack(row) for c, row in zip(h, rows)), 40) == want
        # and `terms` copies of (m-1) times one row: every slot at its bound
        row = [m - 1] * 39 + [rng.randrange(m)]
        scale = terms * (m - 1)
        assert unpack(scale * pack(row), 41) == [scale * v % m for v in row] + [0]


def test_expand_form_7_5_matches_schoolbook_on_the_full_window():
    # the window the period check scans at 7^5: 57,666 terms of which all
    # but the first block are the narrow tail blocks of deg D = 5 terms
    form = rational_form(GroupFamily("modular3"), ModRingCtx(7, 5))
    num = form.poly_part * form.den_alpha + form.proper
    assert form.den_alpha.degree == 5
    assert expand_form(form, 57666) == school_series_div(num, form.den_alpha, 57666)


@pytest.mark.parametrize("ring", KRONECKER_RINGS, ids=str)
def test_series_div_past_a_long_numerator_matches_schoolbook(ring):
    # numerators longer than a block, then several tail blocks, for every
    # denominator degree up to 10
    m, p = ring.modulus, ring.p
    rng = random.Random(m + 5)
    for dd in range(11):
        units = [u for u in (1, m - 1, 2, 3) if u % p]
        den = Poly([rng.choice(units)] + [rng.randrange(m) for _ in range(dd)], ring)
        num = Poly([rng.randrange(m) for _ in range(rng.randint(1025, 2200))], ring)
        length = 3 * 1024 + rng.randint(1, 1023)
        assert series_div(num, den, length) == school_series_div(num, den, length)


# ---------------------------------------------------------------------------
# factor_mod_p against the algorithm it replaced: exhaustive root search,
# one gcd per degree, and powers of z taken by repeated squaring
# ---------------------------------------------------------------------------


def _reference_gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero():
        a, b = b, a % b
    return a if a.is_zero() else a.monic()[0]


def _reference_ext_gcd(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """(g, u) with u*a = g mod b: the extended Euclid on Poly objects that
    `_ext_gcd_fp` replaced, one divmod per step."""
    ring = a.ring
    r0, r1 = a, b
    s0, s1 = Poly.one(ring), Poly.zero(ring)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    if r0.is_zero():
        return r0, s0
    g, lead = r0.monic()
    return g, s0.scale(pow(lead, -1, ring.modulus))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_list_euclid_matches_poly_euclid(data):
    # `_gcd_fp` and `_ext_gcd_fp` run on residue lists; the loops on Poly
    # objects (`_reference_gcd`, `_reference_ext_gcd`) are the oracles
    p = data.draw(st.sampled_from([7, 101, 997]))
    ring = ModRingCtx(p, 1)
    residue = st.integers(0, p - 1)

    def draw(degree: int) -> Poly:
        coeffs = data.draw(st.lists(residue, min_size=degree, max_size=degree))
        return Poly(coeffs + [data.draw(st.integers(1, p - 1))], ring)

    degrees = st.integers(0, 14)
    shape = data.draw(st.sampled_from(["any", "zero a", "zero b", "zero both", "equal", "b | a", "common"]))
    a, b = draw(data.draw(degrees)), draw(data.draw(degrees))
    if shape == "zero a":
        a = Poly.zero(ring)
    elif shape == "zero b":
        b = Poly.zero(ring)
    elif shape == "zero both":
        a = b = Poly.zero(ring)
    elif shape == "equal":
        b = draw(a.degree)
    elif shape == "b | a":
        a = b * draw(data.draw(st.integers(0, 6)))
    elif shape == "common":
        c = draw(data.draw(st.integers(1, 5)))
        a, b = a * c, b * c
    g = _gcd_fp(a, b)
    assert g == _reference_gcd(a, b)
    handed = []
    residues = Poly._residues.__func__
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Poly, "_residues", classmethod(lambda cls, cs, ring: handed.append(list(cs)) or residues(cls, cs, ring)))
        assert _ext_gcd_fp(a, b) == (g, _reference_ext_gcd(a, b)[1])
    # the cofactor list carries no trailing zero: over a field the leading
    # terms of the cofactors never cancel
    assert not handed[1] or handed[1][-1]
    u = _ext_gcd_fp(a, b)[1]
    if b.is_zero():
        assert u * a == g
    else:
        assert ((u * a - g) % b).is_zero()
    if shape == "b | a":
        assert g == b.monic()[0]
    if shape == "common":
        assert g.degree >= 1


def _reference_pow_mod(base: Poly, e: int, mod: Poly) -> Poly:
    out = Poly.one(base.ring)
    base = base % mod
    while e:
        if e & 1:
            out = (out * base) % mod
        base = (base * base) % mod
        e >>= 1
    return out


def _reference_equal_degree_split(f: Poly, d: int, rng: random.Random) -> list[Poly]:
    p = f.ring.p
    if f.degree == d:
        return [f]
    exponent = (p**d - 1) // 2
    while True:
        r = Poly([rng.randrange(p) for _ in range(f.degree)], f.ring)
        if r.degree < 1:
            continue
        g = _reference_gcd(r, f)
        if not 0 < g.degree < f.degree:
            t = _reference_pow_mod(r, exponent, f)
            g = _reference_gcd(t - Poly.one(f.ring), f)
            if not 0 < g.degree < f.degree:
                continue
        rest = f // g
        return _reference_equal_degree_split(g, d, rng) + _reference_equal_degree_split(rest, d, rng)


def _reference_factor_squarefree_monic(f: Poly, rng: random.Random) -> list[Poly]:
    p = f.ring.p
    out: list[Poly] = []
    x = Poly.x(f.ring)
    d = 2
    h = _reference_pow_mod(x, p, f)
    while f.degree >= 2 * d:
        h = _reference_pow_mod(h, p, f)
        g = _reference_gcd(h - x, f)
        if g.degree > 0:
            out.extend(_reference_equal_degree_split(g, d, rng))
            f = f // g
            h = h % f
        d += 1
    if f.degree > 0:
        out.append(f)
    return out


def reference_factor_mod_p(f: Poly, seed: int = 0) -> Factorization:
    ring, p = f.ring, f.ring.p
    rng = random.Random(seed)
    work, unit = f.monic()
    found: dict[Poly, int] = {}
    for a in range(p):
        lin = Poly([-a, 1], ring)
        while work.degree >= 1 and work.eval(a) == 0:
            work = work // lin
            found[lin] = found.get(lin, 0) + 1
    mult_scale = 1
    while work.degree > 0:
        der = work.derivative()
        if der.is_zero():
            work = Poly(work.coeffs[::p], ring)
            mult_scale *= p
            continue
        sqf = work // _reference_gcd(work, der)
        for g in _reference_factor_squarefree_monic(sqf, rng):
            e = 0
            while (work % g).is_zero():
                work = work // g
                e += 1
            found[g] = found.get(g, 0) + e * mult_scale
    factors = sorted(found.items(), key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return Factorization(unit, tuple(factors))


def _stable_denominators(lo: int, hi: int):
    for p in range(lo, hi):
        if is_prime(p):
            for kind in ("modular3", "hecke4"):
                _, q = denominator_base(GroupFamily(kind, 1), p)
                yield q.map_ring(ModRingCtx(p, 1))


def test_factor_matches_reference_on_stable_denominators():
    for q in _stable_denominators(5, 200):
        assert factor_mod_p(q) == reference_factor_mod_p(q)


@pytest.mark.slow
def test_factor_matches_reference_on_stable_denominators_below_1000():
    for q in _stable_denominators(200, 1000):
        assert factor_mod_p(q) == reference_factor_mod_p(q)


@pytest.mark.parametrize("p", [3, 5, 7, 13, 31])
def test_factor_matches_reference_with_multiplicities(p):
    # repeated factors, p-th powers and roots of every multiplicity
    ctx = ModRingCtx(p, 1)
    rng = random.Random(p)
    for trial in range(12):
        f = Poly([rng.randrange(1, p)], ctx)
        for _ in range(rng.randint(1, 4)):
            g = Poly([rng.randrange(p) for _ in range(rng.randint(1, 4))] + [1], ctx)
            f = f * g ** rng.choice([1, 1, 2, 3, p, p + 1])
        assert factor_mod_p(f, seed=trial) == reference_factor_mod_p(f, seed=trial)
        assert factor_mod_p(f, seed=trial).expand(ctx) == f


# ---------------------------------------------------------------------------
# Bezout cofactors by Newton iteration against the linear lift they replaced,
# kept here as the oracle
# ---------------------------------------------------------------------------


def linear_lift_ext_gcd(f: Poly, g: Poly, ctx: ModRingCtx) -> tuple[Poly, Poly]:
    """u*f + v*g = 1 with deg u < deg g: the mod-p identity lifted one power
    of p at a time."""
    fp = ModRingCtx(ctx.p, 1)
    fbar = Poly([c % ctx.p for c in f.coeffs], fp)
    gbar = Poly([c % ctx.p for c in g.coeffs], fp)
    d, u0 = _ext_gcd_fp(fbar, gbar)
    if d.degree != 0 or d.is_zero():
        raise NotCoprime("inputs are not coprime mod p")
    # the mod-p identity u0*f + v0*g = 1 with deg u0 < deg g
    u0 = u0 % gbar
    v0 = (Poly.one(fp) - u0 * fbar) // gbar
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
    return u, v


@pytest.mark.parametrize("p", [3, 5, 7, 13])
@pytest.mark.parametrize("alpha", [1, 2, 3, 4, 5, 6])
def test_ext_gcd_matches_linear_lift(p, alpha):
    # alpha = 2, 3, 4, 5 are the first values needing 1, 2, 2, 3 Newton steps
    ctx = ModRingCtx(p, alpha)
    rng = random.Random(100 * p + alpha)
    one = Poly.one(ctx)
    # constant g, deg f > deg g, equal degrees, deg f < deg g, and f = 0
    shapes = [(3, 0), (0, 0), (5, 2), (7, 1), (3, 3), (1, 4), (2, 6), (-1, 0)]
    shapes += [(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(8)]
    coprime = 0
    for df, dg in shapes:
        f = _random_poly(rng, ctx, df)
        g = _random_poly(rng, ctx, dg, unit_lead=True)
        try:
            expected = linear_lift_ext_gcd(f, g, ctx)
        except NotCoprime:
            with pytest.raises(NotCoprime):
                ext_gcd_coprime(f, g, ctx)
            continue
        coprime += 1
        u, v = ext_gcd_coprime(f, g, ctx)
        assert (u, v) == expected
        assert u * f + v * g == one and u.degree < g.degree
    assert coprime >= len(shapes) // 2


def test_ext_gcd_needs_a_unit_leading_coefficient():
    ctx = ModRingCtx(7, 3)
    with pytest.raises(NonInvertible):
        ext_gcd_coprime(Poly([2, 1], ctx), Poly([1, 3, 7], ctx), ctx)
