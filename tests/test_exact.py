from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from freesub.errors import NonInvertibleDenominator
from freesub.exact import (
    ModRingCtx,
    is_prime,
    mod_reduce,
    pochhammer,
    vp_rational,
)

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)


def test_pochhammer_examples():
    assert pochhammer(Fraction(3, 7), 0) == 1
    assert pochhammer(Fraction(5, 6), 2) == Fraction(55, 36)
    assert pochhammer(-2, 3) == 0


@given(rationals, st.integers(0, 10), st.integers(0, 10))
def test_pochhammer_composition(a, m, n):
    assert pochhammer(a, m + n) == pochhammer(a, m) * pochhammer(a + m, n)


def test_vp_examples():
    assert vp_rational(Fraction(77, 6), 7) == 1
    assert vp_rational(Fraction(1, 49), 7) == -2
    assert vp_rational(Fraction(55, 36), 5) == 1
    with pytest.raises(ValueError):
        vp_rational(0, 7)


@given(rationals, rationals, st.sampled_from([2, 3, 5, 7, 13]))
def test_vp_additive(q, r, p):
    if q == 0 or r == 0:
        return
    assert vp_rational(q * r, p) == vp_rational(q, p) + vp_rational(r, p)


def test_ctx_rejects_composite_and_bad_alpha():
    with pytest.raises(ValueError):
        ModRingCtx(6, 1)
    with pytest.raises(ValueError):
        ModRingCtx(1, 1)
    with pytest.raises(ValueError):
        ModRingCtx(7, 0)
    assert is_prime(2) and is_prime(17) and not is_prime(49)


def test_mod_reduce_examples():
    assert mod_reduce(Fraction(1, 2), ModRingCtx(7, 1)) == 4
    assert mod_reduce(5, ModRingCtx(7, 5)) == 5
    assert mod_reduce(-1, ModRingCtx(7, 2)) == 48
    with pytest.raises(NonInvertibleDenominator):
        mod_reduce(Fraction(1, 7), ModRingCtx(7, 1))


@given(rationals, rationals)
def test_mod_reduce_homomorphism(q, r):
    ctx = ModRingCtx(13, 3)
    if q.denominator % 13 == 0 or r.denominator % 13 == 0:
        return
    if (q + r).denominator % 13 == 0 or (q * r).denominator % 13 == 0:
        return
    m = ctx.modulus
    assert mod_reduce(q + r, ctx) == (mod_reduce(q, ctx) + mod_reduce(r, ctx)) % m
    assert mod_reduce(q * r, ctx) == mod_reduce(q, ctx) * mod_reduce(r, ctx) % m
