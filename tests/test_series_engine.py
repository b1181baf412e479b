"""The online series engine against the plain O(L^2) recurrence it replaced.

`reference_series` is that recurrence, kept here as the oracle: a folded
convolution loop over Z/p^alpha and an unfolded one over Z and Q. Every
comparison is exact equality of whole coefficient tuples, types included.
"""

from fractions import Fraction

import pytest

from conftest import random_integer_params
from freesub.exact import ModRingCtx, mod_reduce
from freesub.groups import HECKE4, MODULAR3, GroupFamily, params_for
from freesub.riccati import RiccatiParams, riccati_series


def reference_series(params: RiccatiParams, length: int, ctx: ModRingCtx | None = None) -> tuple:
    if ctx is not None:
        m_ = ctx.modulus
        a, b, c, d = (mod_reduce(v, ctx) for v in (params.a, params.b, params.c, params.d))
        f = [1]
        for m in range(1, length):
            acc = (a + b * (m - 1)) * f[m - 1]
            if m == 1:
                acc += d
            pairs = m // 2
            conv = 2 * sum(map(int.__mul__, f[:pairs], f[m - 1 : m - 1 - pairs : -1]))
            if m % 2 == 1:
                mid = f[(m - 1) // 2]
                conv += mid * mid
            f.append((acc + c * conv) % m_)
        return tuple(f)
    integral = all(v.denominator == 1 for v in (params.a, params.b, params.c, params.d))
    if integral:
        a, b, c, d = (int(params.a), int(params.b), int(params.c), int(params.d))
        f: list = [1]
    else:
        a, b, c, d = params.a, params.b, params.c, params.d
        f = [Fraction(1)]
    for m in range(1, length):
        acc = (a + b * (m - 1)) * f[m - 1]
        if m == 1:
            acc += d
        conv = sum(f[i] * f[m - 1 - i] for i in range(m))
        f.append(acc + c * conv)
    return tuple(f)


def _typed(coeffs) -> list:
    return [(type(c), c) for c in coeffs]


def _edge_lengths(top_exponent: int) -> list[int]:
    """Every length 1..300, plus 2^k - 2 .. 2^k + 1 up to 2^top_exponent."""
    edges = {n for k in range(2, top_exponent + 1) for n in (2**k - 2, 2**k - 1, 2**k, 2**k + 1)}
    return sorted(set(range(1, 301)) | edges)


def test_every_length_mod_prime_power():
    # the engine cuts its blocks at the requested length, so each length is
    # its own case; the oracle's prefixes serve all of them
    params = params_for(GroupFamily(MODULAR3, 1))
    ctx = ModRingCtx(7, 4)
    lengths = _edge_lengths(13)
    oracle = reference_series(params, lengths[-1], ctx)
    for n in lengths:
        assert riccati_series(params, n, ctx).coeffs == oracle[:n], n


def _check_every_length_exact_int(top_exponent: int) -> None:
    # every length cuts the last Karatsuba blocks at another place
    params = params_for(GroupFamily(HECKE4, 2))
    lengths = _edge_lengths(top_exponent)
    oracle = reference_series(params, lengths[-1])
    for n in lengths:
        got = riccati_series(params, n).coeffs
        assert _typed(got) == _typed(oracle[:n]), n


def test_every_length_exact_int():
    _check_every_length_exact_int(9)


@pytest.mark.slow
def test_every_length_exact_int_up_to_1025():
    _check_every_length_exact_int(10)


@pytest.mark.parametrize("kind", [MODULAR3, HECKE4])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_exact_int_families(kind, m):
    params = params_for(GroupFamily(kind, m))
    got = riccati_series(params, 200).coeffs
    assert _typed(got) == _typed(reference_series(params, 200))
    assert all(type(c) is int for c in got)


def test_fraction_params():
    params = RiccatiParams.of(Fraction(1, 3), Fraction(-5, 2), Fraction(7, 4), Fraction(2, 9))
    for n in (1, 2, 9, 10, 17, 40):
        got = riccati_series(params, n).coeffs
        assert _typed(got) == _typed(reference_series(params, n))
    assert all(type(c) is Fraction for c in got)


def test_random_integer_params(rng):
    # negative coefficients reach every sign combination in the blocks
    for _ in range(20):
        params = random_integer_params(rng, 3)
        n = rng.randint(1, 120)
        got = riccati_series(params, n).coeffs
        assert _typed(got) == _typed(reference_series(params, n))


@pytest.mark.parametrize(
    "kind,p,alpha",
    [(MODULAR3, 7, 4), (MODULAR3, 13, 3), (HECKE4, 13, 1)],
)
def test_long_mod_windows(kind, p, alpha):
    params = params_for(GroupFamily(kind, 1))
    ctx = ModRingCtx(p, alpha)
    assert riccati_series(params, 5000, ctx).coeffs == reference_series(params, 5000, ctx)


def test_large_modulus_slots():
    # a modulus above 2^64 widens the packing slots past one machine word
    params = params_for(GroupFamily(MODULAR3, 1))
    ctx = ModRingCtx(10007, 5)
    assert riccati_series(params, 600, ctx).coeffs == reference_series(params, 600, ctx)


@pytest.mark.slow
def test_17_cubed_long_window():
    params = params_for(GroupFamily(MODULAR3, 1))
    ctx = ModRingCtx(17, 3)
    assert riccati_series(params, 40000, ctx).coeffs == reference_series(params, 40000, ctx)
