"""The series engine against the plain O(L^2) recurrence.

The engine reads exact coefficients off the J-fraction of the solution and
runs the plain recurrence over Z/p^alpha. `reference_series` is that
recurrence, kept here as the oracle: an unfolded convolution loop over Z
and Q, and over Z/p^alpha the folded loop the engine runs itself, so the
modular engine is also checked against the exact series reduced mod p^alpha
(`tests/test_reduce.py`). Every comparison is exact equality of whole
coefficient tuples, types included.
"""

import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import islice

import pytest

from conftest import random_integer_params
from freesub.errors import NonInvertibleDenominator
from freesub.exact import ModRingCtx, mod_reduce
from freesub.groups import HECKE4, MODULAR3, GroupFamily, params_for
from freesub.poly import Poly
from freesub.riccati import RiccatiParams, pade_pair, residual_factors, riccati_series


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


def test_every_length_mod_prime_power():
    # every length the certification of a rational form asks for, and more;
    # the oracle's prefixes serve all of them
    params = params_for(GroupFamily(MODULAR3, 1))
    ctx = ModRingCtx(7, 4)
    oracle = reference_series(params, 600, ctx)
    for n in range(1, 601):
        assert riccati_series(params, n, ctx).coeffs == oracle[:n], n


def _check_every_length_exact_int(top: int) -> None:
    # the rows of the J-fraction keep only the heights that can still fall
    # back to 0 by the last step, so every length trims them differently
    params = params_for(GroupFamily(HECKE4, 2))
    oracle = reference_series(params, top)
    for n in range(1, top + 1):
        got = riccati_series(params, n).coeffs
        assert _typed(got) == _typed(oracle[:n]), n


def test_every_length_exact_int():
    _check_every_length_exact_int(300)


@pytest.mark.slow
def test_every_length_exact_int_up_to_600():
    _check_every_length_exact_int(600)


@pytest.mark.slow
@pytest.mark.parametrize(
    "kind,digest",
    [
        # recorded with the relaxed recurrence and its Karatsuba blocks, which
        # Toom-Cook blocks and then the J-fraction replaced
        (MODULAR3, "dc41d28ee20ca1d99fa3599c48c3ffa035f3ff403dd25c66986dab7c421bc9e3"),
        (HECKE4, "d82603e020fac3e2564a057f7ae08374115139ad9e6fde16b53a5b7b7f7fab9b"),
    ],
)
def test_exact_series_digest_at_2001(kind, digest):
    # the oracle tests stop at 600 terms; past them, rows of up to 1000
    # heights and coefficients of 24 kbit.  Hex, because str() refuses ints
    # past 4300 digits
    coeffs = riccati_series(params_for(GroupFamily(kind)), 2001).coeffs
    assert hashlib.sha256(" ".join(map(hex, coeffs)).encode()).hexdigest() == digest


@pytest.mark.parametrize("kind", [MODULAR3, HECKE4])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_exact_int_families(kind, m):
    params = params_for(GroupFamily(kind, m))
    got = riccati_series(params, 200).coeffs
    assert _typed(got) == _typed(reference_series(params, 200))
    assert all(type(c) is int for c in got)


def test_fraction_params():
    params = RiccatiParams(Fraction(1, 3), Fraction(-5, 2), Fraction(7, 4), Fraction(2, 9))
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


def test_large_modulus():
    # residues above 2^64, whose products are big integers
    params = params_for(GroupFamily(MODULAR3, 1))
    ctx = ModRingCtx(10007, 5)
    assert riccati_series(params, 600, ctx).coeffs == reference_series(params, 600, ctx)


# the modular engine for random constants against the exact series reduced
# mod p^alpha: p = 2 and 3 as well, where the doubled cross terms of S_n and
# B mod p can vanish, and a modulus past 2^64
MOD_RINGS = [(2, 12), (3, 7), (5, 4), (7, 5), (11, 3), (13, 1), (307, 2), (10007, 5), (2**31 - 1, 3)]


@pytest.mark.parametrize("p,alpha", MOD_RINGS)
def test_random_params_mod_prime_power(p, alpha):
    ctx = ModRingCtx(p, alpha)
    rng = random.Random(1000 * p + alpha)
    dens = [v for v in (1, 1, 2, 3, 5, 6, 7, 10) if v % p]
    for _ in range(25):
        vals = [Fraction(rng.randint(-40, 40), rng.choice(dens)) for _ in range(4)]
        vals[1] = vals[1] or Fraction(1)
        if rng.random() < 0.25:
            vals[2] = Fraction(0)
        params = RiccatiParams(*vals)
        n = rng.randint(1, 160)
        exact = riccati_series(params, n).coeffs
        assert riccati_series(params, n, ctx).coeffs == tuple(mod_reduce(v, ctx) for v in exact), (params, n)


@pytest.mark.parametrize("ctx", [None, ModRingCtx(7, 2)], ids=["exact", "7^2"])
@pytest.mark.parametrize("length", [0, -1])
def test_series_refuses_lengths_below_one(ctx, length):
    with pytest.raises(ValueError, match="length must be >= 1"):
        riccati_series(params_for(GroupFamily(MODULAR3, 1)), length, ctx)


@pytest.mark.parametrize("slot", range(4), ids=["A", "B", "C", "D"])
def test_mod_series_refuses_a_constant_with_p_in_its_denominator(slot):
    # the recurrence never divides, but each constant must have an image
    vals = [Fraction(2), Fraction(3), Fraction(1), Fraction(5)]
    vals[slot] = Fraction(1, 14)
    params = RiccatiParams(*vals)
    assert riccati_series(params, 8, ModRingCtx(3, 2)).coeffs == tuple(
        mod_reduce(v, ModRingCtx(3, 2)) for v in riccati_series(params, 8).coeffs
    )
    with pytest.raises(NonInvertibleDenominator):
        riccati_series(params, 8, ModRingCtx(7, 2))


# ---------------------------------------------------------------------------
# exact parameters at many lengths, and the J-fraction the exact engine reads
# ---------------------------------------------------------------------------


def _check_lengths(params, lengths, ctx=None) -> None:
    oracle = _typed(reference_series(params, lengths[-1], ctx))
    for n in lengths:
        assert _typed(riccati_series(params, n, ctx).coeffs) == oracle[:n], n


@pytest.mark.parametrize("kind", [MODULAR3, HECKE4])
def test_every_length_exact_int_m1(kind):
    _check_lengths(params_for(GroupFamily(kind, 1)), list(range(1, 301)))


def _random_fraction_params(rng: random.Random) -> RiccatiParams:
    """Random constants with small denominators, some of them not 1."""
    while True:
        vals = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)]
        if vals[1] and any(v.denominator > 1 for v in vals):
            return RiccatiParams(*vals)


def _random_scaled_params(rng: random.Random, with_c: bool) -> RiccatiParams:
    """Random constants of both signs with denominators up to 12, not all 1,
    and C = 0 unless `with_c`."""
    while True:
        vals = [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(4)]
        if not with_c:
            vals[2] = Fraction(0)
        if vals[1] and (vals[2] or not with_c) and any(v.denominator > 1 for v in vals):
            return RiccatiParams(*vals)


@pytest.mark.parametrize("with_c", [True, False])
@pytest.mark.parametrize("seed", range(3))
def test_rational_params_through_the_integer_engine(with_c, seed):
    # the numerators over the common denominator M run the J-fraction over
    # Z, with C = 0 as well, where every gamma_h is B h (B h + A); each
    # length trims the rows at another place
    params = _random_scaled_params(random.Random(100 * seed + with_c), with_c)
    lengths = [*range(63, 67), *range(127, 131), 200, 256, 257, 300]
    _check_lengths(params, lengths)
    assert all(type(c) is Fraction for c in riccati_series(params, 300).coeffs)


def test_fraction_params_short_lengths():
    # the Fraction oracle costs seconds at 300 terms, so every length up to
    # 70 and a few past it; the slow tier takes all of 1..300
    lengths = [*range(1, 71), 150, 299, 300]
    _check_lengths(_random_fraction_params(random.Random(32)), lengths)


@pytest.mark.slow
def test_fraction_params_every_length():
    _check_lengths(_random_fraction_params(random.Random(32)), list(range(1, 301)))


@pytest.mark.parametrize("seed", range(4))
def test_any_rational_params_short_lengths(seed):
    # the J-fraction identity is polynomial in A..D: it needs no rational E
    # and no C != 0, and it holds for integer and rational constants of
    # either sign alike
    rng = random.Random(seed)
    kinds = Counter()
    for _ in range(100):
        vals = [Fraction(rng.randint(-20, 20), rng.choice([1, 1, 2, 3, 6])) for _ in range(4)]
        vals[1] = vals[1] or Fraction(1)
        if rng.random() < 0.25:
            vals[2] = Fraction(0)
        params = RiccatiParams(*vals)
        kinds.update(c=params.c == 0, e=params.e is None, integral=params.is_integral())
        n = rng.randint(1, 60)
        assert _typed(riccati_series(params, n).coeffs) == _typed(reference_series(params, n)), params
    assert min(kinds.values()) > 0


def _expand(p: Poly, q: Poly, length: int) -> list:
    """The first `length` terms of p/q, for q(0) = 1."""
    s: list = []
    for k in range(length):
        s.append(p.coeff(k) - sum(q.coeff(j) * s[k - j] for j in range(1, min(k, q.degree) + 1)))
    return s


@pytest.mark.parametrize("kind", [MODULAR3, HECKE4])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_j_fraction_convergents_are_the_pade_pairs(kind, m):
    # the weights of the engine's Motzkin paths against the paper: gamma_h
    # is the h-th residual factor, and A + C + D the 0-th; the three-term
    # recurrence of the convergents gives the closed-form pairs (P_n, Q_n),
    # and their expansions the series
    top = 12
    params = params_for(GroupFamily(kind, m))
    a, b, c, d = params.a, params.b, params.c, params.d
    betas = [a + 2 * c + (2 * h + 1) * b for h in range(top)]
    gammas = [a + c + d] + [b * b * h * h + b * (a + 2 * c) * h + c * (a + c + d) for h in range(1, top + 1)]
    assert list(islice(residual_factors(params), top + 1)) == gammas
    ps = [Poly([1]), Poly([1, gammas[0] - betas[0]])]
    qs = [Poly([1]), Poly([1, -betas[0]])]
    for n in range(1, top):
        step, fall = Poly([1, -betas[n]]), Poly([0, 0, -gammas[n]])
        ps.append(step * ps[n] + fall * ps[n - 1])
        qs.append(step * qs[n] + fall * qs[n - 1])
    oracle = list(reference_series(params, 2 * top + 1))
    for n in range(top + 1):
        pair = pade_pair(params, n)
        assert (pair.p, pair.q) == (ps[n], qs[n]), n
        assert _expand(ps[n], qs[n], 2 * n + 1) == oracle[: 2 * n + 1], n
