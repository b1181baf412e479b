import random
from fractions import Fraction

import pytest

from freesub.errors import (
    NonInvertibleConstantTerm,
    NotCoprime,
    RingMismatch,
)
from freesub.exact import ModRingCtx
from freesub.poly import (
    Factorization,
    Poly,
    Series,
    ext_gcd_coprime,
    factor_mod_p,
    hensel_lift,
    series_div,
)


def test_basic_arithmetic():
    assert Poly([1, -12]).derivative() == Poly([-12])
    assert Poly([1, 2]) * Poly([1, -2]) == Poly([1, 0, -4])
    assert Poly([1, 2]).eval(0) == 1
    assert Poly([1, 2, 0, 0]) == Poly([1, 2])  # canonical form
    assert Poly([]).degree == -1
    with pytest.raises(RingMismatch):
        Poly([1], ModRingCtx(7, 1)) + Poly([1], ModRingCtx(11, 1))


def test_divmod_exact_and_modular():
    num = Poly([2, 7, 6])  # (1+2z)(2+3z)
    q, r = divmod(num, Poly([1, 2]))
    assert r.is_zero() and q == Poly([2, 3])
    ctx = ModRingCtx(7, 2)
    q, r = divmod(Poly([5, 1, 3], ctx), Poly([1, 2], ctx))
    assert (q * Poly([1, 2], ctx) + r) == Poly([5, 1, 3], ctx)


def test_series_div_examples():
    geo = series_div(Poly([1]), Poly([1, -1]), 4)
    assert geo.coeffs == (1, 1, 1, 1)
    # oracle: long division; the quotient must reproduce the first counts
    s = series_div(Poly([1, -7]), Poly([1, -12]), 3)
    assert s.coeffs == (1, 5, 60)
    assert series_div(Poly([1]), Poly([1]), 2).coeffs == (1, 0)
    with pytest.raises(NonInvertibleConstantTerm):
        series_div(Poly([1]), Poly([0, 1]), 3)
    with pytest.raises(NonInvertibleConstantTerm):
        series_div(Poly([1], ModRingCtx(7, 2)), Poly([7, 1], ModRingCtx(7, 2)), 3)


@pytest.mark.parametrize("ring", [None, ModRingCtx(7, 1), ModRingCtx(13, 4)])
def test_series_div_roundtrip(ring):
    rng = random.Random(7)
    for _ in range(25):
        L = rng.randint(1, 12)
        if ring is None:
            num = Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(1, 6))])
            den = Poly([1] + [rng.randint(-9, 9) for _ in range(rng.randint(0, 5))])
        else:
            num = Poly([rng.randrange(ring.modulus) for _ in range(rng.randint(1, 6))], ring)
            den = Poly([1] + [rng.randrange(ring.modulus) for _ in range(rng.randint(0, 5))], ring)
        quot = series_div(num, den, L)
        back = quot.mul(den)
        expect = Series.of(num.coeffs, ring, L)
        assert back.coeffs == expect.coeffs


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
