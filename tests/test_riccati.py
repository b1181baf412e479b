import hashlib
import random
from fractions import Fraction
from itertools import islice
from math import comb, prod

import pytest

import freesub.riccati
from conftest import random_integer_params
from freesub.errors import DegenerateParameters, IntegralityViolation
from freesub.exact import pochhammer
from freesub.groups import HECKE4, MODULAR3, GroupFamily, params_for
from freesub.poly import Poly
from freesub.riccati import (
    RiccatiParams,
    build_pade,
    pade_coeff_p,
    pade_coeff_q,
    pade_oracle,
    pade_pair,
    residual_constant,
    residual_factors,
    riccati_series,
    verify_gosper,
    verify_identity,
)

# ---------------------------------------------------------------------------
# reference formulas for the first three numerator/denominator coefficients,
# as polynomials in (n, A, B, C, D); evaluated, never expanded symbolically
# ---------------------------------------------------------------------------


def q1(n, a, b, c, d):
    return -n * a - n * n * b - 2 * n * c


def p1(n, a, b, c, d):
    return -(n - 1) * a - n * n * b - (2 * n - 1) * c + d


def q2(n, a, b, c, d):
    return (
        Fraction(1, 2) * (n - 1) * n * a * a
        + Fraction(1, 2) * (n - 1) * n * (2 * n - 1) * a * b
        + (n - 1) * (2 * n - 1) * a * c
        + Fraction(1, 2) * (n - 1) ** 2 * n * n * b * b
        + (n - 1) * n * (2 * n - 1) * b * c
        + (n - 1) * (2 * n - 1) * c * c
        - (n - 1) * c * d
    )


def p2(n, a, b, c, d):
    return (
        Fraction(1, 2) * (n - 2) * (n - 1) * a * a
        + Fraction(1, 2) * (n - 2) * (n - 1) * (2 * n + 1) * a * b
        + 2 * (n - 2) * (n - 1) * a * c
        - (n - 1) * a * d
        + Fraction(1, 2) * (n - 1) ** 2 * n * n * b * b
        + (n - 1) * (2 * n * n - 2 * n - 1) * b * c
        - (n - 1) * (n + 1) * b * d
        + (n - 1) * (2 * n - 3) * c * c
        - 3 * (n - 1) * c * d
    )


def q3(n, a, b, c, d):
    return (
        -Fraction(1, 6) * (n - 2) * (n - 1) * n * a**3
        - Fraction(1, 2) * (n - 2) * (n - 1) ** 2 * n * a * a * b
        - (n - 2) * (n - 1) ** 2 * a * a * c
        - Fraction(1, 6) * (n - 2) * (n - 1) * n * (3 * n * n - 6 * n + 2) * a * b * b
        - (n - 2) * (n - 1) * n * (2 * n - 3) * a * b * c
        - (n - 2) * (n - 1) * (2 * n - 3) * a * c * c
        + (n - 2) * (n - 1) * a * c * d
        - Fraction(1, 6) * (n - 2) ** 2 * (n - 1) ** 2 * n * n * b**3
        - Fraction(1, 3) * (n - 2) * (n - 1) * n * (3 * n * n - 6 * n + 2) * b * b * c
        - (n - 2) * (n - 1) * n * (2 * n - 3) * b * c * c
        + (n - 2) * (n - 1) * n * b * c * d
        - Fraction(2, 3) * (n - 2) * (n - 1) * (2 * n - 3) * c**3
        + 2 * (n - 2) * (n - 1) * c * c * d
    )


def p3(n, a, b, c, d):
    return (
        -Fraction(1, 6) * (n - 3) * (n - 2) * (n - 1) * a**3
        - Fraction(1, 2) * (n - 3) * (n - 2) * (n * n - n - 1) * a * a * b
        - Fraction(1, 2) * (n - 3) * (n - 2) * (2 * n - 3) * a * a * c
        + Fraction(1, 2) * (n - 2) * (n - 1) * a * a * d
        - Fraction(1, 6) * (n - 3) * (n - 2) * (3 * n**3 - 3 * n * n - n - 2) * a * b * b
        - Fraction(1, 2) * (n - 3) * (n - 2) * (2 * n - 3) * (2 * n + 1) * a * b * c
        + Fraction(1, 2) * (n - 2) * (n + 1) * (2 * n - 3) * a * b * d
        - (n - 3) * (n - 2) * (2 * n - 3) * a * c * c
        + (n - 2) * (3 * n - 5) * a * c * d
        - Fraction(1, 6) * (n - 2) ** 2 * (n - 1) ** 2 * n * n * b**3
        - Fraction(1, 6) * (n - 2) * (2 * n - 3) * (3 * n**3 - 6 * n * n - n - 2) * b * b * c
        + Fraction(1, 2) * (n - 2) * (n**3 - n - 2) * b * b * d
        - (n - 2) * (2 * n - 3) * (n * n - 2 * n - 1) * b * c * c
        + (n - 2) * (3 * n * n - 2 * n - 3) * b * c * d
        - Fraction(1, 3) * (n - 2) * (2 * n - 5) * (2 * n - 3) * c**3
        + 2 * (n - 2) * (2 * n - 3) * d * c * c
        - (n - 2) * c * d * d
    )


MODULAR_M1 = RiccatiParams(4, 6, 1, 0)


def test_series_examples():
    s = riccati_series(MODULAR_M1, 4)
    assert s.coeffs == (1, 5, 60, 1105)
    # independent oracle: substitute the truncated series into the ODE and
    # check all usable coefficients vanish
    f = list(s.coeffs)
    L = len(f)
    for m in range(L):
        fm = f[m]
        lhs = fm
        if m >= 1:
            lhs -= 4 * f[m - 1] + 6 * (m - 1) * f[m - 1]
            lhs -= sum(f[i] * f[m - 1 - i] for i in range(m))
        if m == 0:
            lhs -= 1
        assert lhs == 0

    zero = RiccatiParams(0, 1, 0, 0)
    assert riccati_series(zero, 3).coeffs == (1, 0, 0)

    hecke = RiccatiParams(2, 4, 1, 0)
    assert riccati_series(hecke, 3).coeffs == (1, 3, 24)


def test_pade_pair_modular_order1():
    pair = pade_pair(MODULAR_M1, 1)
    assert pair.p == Poly([1, -7])
    assert pair.q == Poly([1, -12])
    assert pair.residual_const == 385
    assert residual_constant(MODULAR_M1, 1) == 5 * 7 * 11
    assert residual_constant(MODULAR_M1, 0) == 5
    for n in (-1, -3):
        with pytest.raises(ValueError):
            residual_constant(MODULAR_M1, n)


def test_low_order_pairs_random(rng):
    for _ in range(25):
        params = random_integer_params(rng, 3)
        a, b, c, d = params.a, params.b, params.c, params.d
        for n in (1, 2, 3):
            pair = pade_pair(params, n)
            assert pair.p.coeff(0) == 1 and pair.q.coeff(0) == 1
            assert pair.p.coeff(1) == p1(n, a, b, c, d)
            assert pair.q.coeff(1) == q1(n, a, b, c, d)
            if n >= 2:
                assert pair.p.coeff(2) == p2(n, a, b, c, d)
                assert pair.q.coeff(2) == q2(n, a, b, c, d)
            if n >= 3:
                assert pair.p.coeff(3) == p3(n, a, b, c, d)
                assert pair.q.coeff(3) == q3(n, a, b, c, d)


def test_coefficient_formulas_to_order7(rng):
    for _ in range(25):
        params = random_integer_params(rng, 7)
        a, b, c, d = params.a, params.b, params.c, params.d
        for n in range(1, 8):
            assert pade_coeff_q(params, n, 1) == q1(n, a, b, c, d)
            assert pade_coeff_p(params, n, 1) == p1(n, a, b, c, d)
            if n >= 2:
                assert pade_coeff_q(params, n, 2) == q2(n, a, b, c, d)
                assert pade_coeff_p(params, n, 2) == p2(n, a, b, c, d)
            if n >= 3:
                assert pade_coeff_q(params, n, 3) == q3(n, a, b, c, d)
                assert pade_coeff_p(params, n, 3) == p3(n, a, b, c, d)


def test_verify_identity_and_tamper():
    pair = pade_pair(MODULAR_M1, 1)
    assert verify_identity(pair, MODULAR_M1)
    from freesub.riccati import PadePair

    bad = PadePair(1, pair.p + Poly([0, 1]), pair.q, pair.residual_const)
    assert not verify_identity(bad, MODULAR_M1)


def test_identity_random_n5(rng):
    for _ in range(10):
        params = random_integer_params(rng, 5)
        pair = pade_pair(params, 5)
        assert verify_identity(pair, params)


def test_oracle_examples():
    o = pade_oracle(MODULAR_M1, 1)
    assert o.p == Poly([1, -7]) and o.q == Poly([1, -12])
    o0 = pade_oracle(MODULAR_M1, 0)
    assert o0.p == Poly([1]) and o0.q == Poly([1])


def test_oracle_equivalence(rng):
    for _ in range(12):
        params = random_integer_params(rng, 6)
        for n in (1, 3, 6):
            a_ = pade_pair(params, n)
            b_ = pade_oracle(params, n)
            assert a_.p == b_.p and a_.q == b_.q
            assert a_.residual_const == b_.residual_const


def test_zero_residual_pairs_agree_as_rational_functions(rng):
    # when a residual factor vanishes the approximant solves the equation
    # exactly and only the rational function (not the pair) is pinned down
    found = 0
    while found < 3:
        e = rng.randint(-8, 8)
        a = e + 2 * rng.randint(-5, 5)
        if e == 0 or (a * a - e * e) % 4:
            continue
        m = (a * a - e * e) // 4
        c = rng.choice([x for x in range(-5, 6) if x and (m == 0 or m % x == 0)])
        d = m // c if m else 0
        b = rng.choice([x for x in range(-5, 6) if x])
        if e % b == 0 and abs(e // b) <= 3:
            continue
        params = RiccatiParams(a, b, c, d)
        if residual_constant(params, 3) != 0:
            continue
        found += 1
        closed = pade_pair(params, 3)
        oracle = pade_oracle(params, 3)
        assert closed.p * oracle.q == oracle.p * closed.q


def test_degenerate_fallback():
    params = RiccatiParams(0, 1, 0, 0)  # C = 0
    with pytest.raises(DegenerateParameters):
        pade_pair(params, 2)
    pair, route = build_pade(params, 2)
    assert route == "oracle"
    assert verify_identity(pair, params)
    with pytest.raises(DegenerateParameters):
        build_pade(params, 2, allow_fallback=False)


def test_gosper_examples(rng, monkeypatch):
    assert verify_gosper(MODULAR_M1, 1)
    for _ in range(8):
        params = random_integer_params(rng, 5)
        assert verify_gosper(params, 5)
    # a scaled certificate must break the telescoping check
    real = freesub.riccati._gosper_certificate
    monkeypatch.setattr(freesub.riccati, "_gosper_certificate", lambda *args: 2 * real(*args))
    assert not verify_gosper(MODULAR_M1, 3)


def _raises_degenerate(fn, *args):
    try:
        fn(*args)
    except DegenerateParameters:
        return True
    return False


def test_gosper_degenerate_exactly_where_the_closed_form_is():
    seen = {"E = None": 0, "E = 0": 0, "C = 0": 0, "E/B collides": 0, "defined": 0}
    for a in range(-3, 4):
        for b in (1, 2, -3):
            for c in (0, 1, 2):
                for d in (-2, 0, 1, 2):
                    params = RiccatiParams(a, b, c, d)
                    for n in range(1, 5):
                        degenerate = _raises_degenerate(pade_pair, params, n)
                        assert _raises_degenerate(verify_gosper, params, n) == degenerate
                        if not degenerate:
                            assert verify_gosper(params, n)
                            seen["defined"] += 1
                        elif params.e is None:
                            seen["E = None"] += 1
                        elif params.e == 0:
                            seen["E = 0"] += 1
                        elif c == 0:
                            seen["C = 0"] += 1
                        else:
                            seen["E/B collides"] += 1
    assert all(seen.values()), seen


def test_integrality_to_n10(rng):
    for _ in range(6):
        params = random_integer_params(rng, 10)
        for n in (4, 10):
            pair = pade_pair(params, n)
            assert all(c.denominator == 1 for c in pair.p.coeffs)
            assert all(c.denominator == 1 for c in pair.q.coeffs)


def test_homogeneity_scaling(rng):
    for _ in range(6):
        params = random_integer_params(rng, 6)
        for t in (2, 3):
            scaled = RiccatiParams(t * params.a, t * params.b, t * params.c, t * params.d)
            for n in (2, 6):
                for k in range(n + 1):
                    assert pade_coeff_q(scaled, n, k) == t**k * pade_coeff_q(params, n, k)
                    assert pade_coeff_p(scaled, n, k) == t**k * pade_coeff_p(params, n, k)


def test_b_scaling(rng):
    for _ in range(6):
        params = random_integer_params(rng, 4)
        unit_b = RiccatiParams(params.a / params.b, 1, params.c / params.b, params.d / params.b)
        for n in (2, 4):
            for k in range(n + 1):
                assert pade_coeff_q(params, n, k) == params.b**k * pade_coeff_q(unit_b, n, k)
                assert pade_coeff_p(params, n, k) == params.b**k * pade_coeff_p(unit_b, n, k)


def test_approximation_order(rng):
    for _ in range(6):
        params = random_integer_params(rng, 4)
        for n in (1, 2, 4):
            # F Q_n - P_n = r z^(2n+1) + O(z^(2n+2)), from exact products alone
            pair = pade_pair(params, n)
            defect = Poly(riccati_series(params, 2 * n + 2).coeffs) * pair.q - pair.p
            assert [defect.coeff(k) for k in range(2 * n + 2)] == [0] * (2 * n + 1) + [pair.residual_const]


# ---------------------------------------------------------------------------
# the integer j-sums against the per-term Fraction sums they replaced
# ---------------------------------------------------------------------------


def reference_coeff_sums(params, n, kp, brackets):
    """The j-sums as first written: every summand from its own pochhammer
    products in Fraction arithmetic, O(n^2) Fraction products per
    coefficient. Kept as the oracle for `_coeff_sums`."""
    a, b, e = params.a, params.b, params.e
    x = e / b
    ap = (a + 2 * params.c + e) / (2 * b)
    am = (a + 2 * params.c - e) / (2 * b)
    s1 = Fraction(0)
    s2 = Fraction(0)
    for j in range(kp + 1):
        w = comb(kp + j, kp) * comb(n - j, kp - j)
        t1 = w * pochhammer(-x + j + 1, kp - j) * pochhammer(am, j)
        t2 = w * pochhammer(x + j + 1, kp - j) * pochhammer(ap, j)
        if brackets:
            if j == 0:
                t1 *= a - e
                t2 *= a + e
            else:
                base = a + Fraction(2 * kp * j, kp + j) * b
                off = Fraction(kp - j, kp + j) * e
                t1 *= base - off
                t2 *= base + off
        s1 += t1
        s2 += t2
    return pochhammer(ap, n + 1) * s1 - pochhammer(am, n + 1) * s2


def reference_coeffs(params, n):
    """(P_n, Q_n) coefficients from `reference_coeff_sums`, low order first."""
    x = params.e / params.b
    ps, qs = [], []
    for k in range(n + 1):
        kp = n - k
        denom = pochhammer(x - kp, 2 * kp + 1)
        qs.append((-1) ** n * params.b**k * reference_coeff_sums(params, n, kp, False) / denom)
        ps.append(
            (-1) ** (n + 1)
            * params.b**k
            * reference_coeff_sums(params, n, kp, True)
            / (2 * params.c * denom)
        )
    return ps, qs


def _assert_matches_reference(params, n):
    ps, qs = reference_coeffs(params, n)
    pair = pade_pair(params, n)
    assert list(pair.p.coeffs) == ps[: len(pair.p.coeffs)] and not any(ps[len(pair.p.coeffs) :])
    assert list(pair.q.coeffs) == qs[: len(pair.q.coeffs)] and not any(qs[len(pair.q.coeffs) :])
    assert [pade_coeff_p(params, n, k) for k in range(n + 1)] == ps
    assert [pade_coeff_q(params, n, k) for k in range(n + 1)] == qs


def _random_rational_params(rng):
    """Closed-form parameters with at least one non-integral value."""
    while True:
        a, b, c, e = (Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(4))
        if b and c and e:
            params = RiccatiParams(a, b, c, (a * a - e * e) / (4 * c))
            if not params.is_integral():
                return params


@pytest.mark.parametrize("kind", [MODULAR3, HECKE4])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_integer_sums_match_reference_families(kind, m):
    params = params_for(GroupFamily(kind, m))
    for n in range(31):
        _assert_matches_reference(params, n)


def test_integer_sums_match_reference_random(rng):
    for _ in range(15):
        params = random_integer_params(rng, 8)
        for n in range(9):
            _assert_matches_reference(params, n)
    for _ in range(30):
        params = _random_rational_params(rng)
        for n in range(9):
            x = params.e / params.b
            if x.denominator == 1 and abs(x.numerator) <= n:
                with pytest.raises(DegenerateParameters):
                    pade_pair(params, n)
            else:
                _assert_matches_reference(params, n)


def test_pade_pair_takes_one_pass_per_coefficient(rng, monkeypatch):
    # each _coeff_sums call gives the Q and the P value of one degree
    calls = []
    one_pass = freesub.riccati._coeff_sums

    def spy(constants, kp):
        calls.append(kp)
        return one_pass(constants, kp)

    monkeypatch.setattr(freesub.riccati, "_coeff_sums", spy)
    halves = RiccatiParams(Fraction(1, 2), 1, 1, 0)
    for params in [random_integer_params(rng, 12) for _ in range(6)] + [halves]:
        for n in range(13):
            calls.clear()
            pade_pair(params, n)
            assert sorted(calls) == list(range(n + 1))
            _assert_matches_reference(params, n)


def _pair_digest(pair) -> str:
    text = "\n".join(
        [str(pair.n), " ".join(map(str, pair.p.coeffs)), " ".join(map(str, pair.q.coeffs)), str(pair.residual_const)]
    )
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "kind,d,digest",
    [
        # recorded from the per-coefficient construction, before the
        # constants of a pair were computed once per pair
        (HECKE4, 249, "1015be9d9c93b83cc10b1624a968db27af018c6575c8b3bf6f3e707491246f66"),
        (MODULAR3, 166, "eac68d2f3bd1cdf876b5abbc4bc1295387f94ed99e0f0baeb30803df91d609e3"),
    ],
)
def test_pade_pair_digests_at_p_997(kind, d, digest):
    # the pairs behind `reduce` and `period` at p = 997
    assert _pair_digest(pade_pair(params_for(GroupFamily(kind)), d)) == digest


def test_residual_constant_is_the_product_of_its_factors(rng):
    # one integer product over the common denominator against the product of
    # the Fraction factors, and those against the factor spelled in Fractions
    for _ in range(30):
        a, c, d = (Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(3))
        b = Fraction(rng.choice([v for v in range(-9, 10) if v]), rng.randint(1, 6))
        params = RiccatiParams(a, b, c, d)
        spelled = [a + c + d] + [l * a * b + a * c + c * d + l * l * b * b + 2 * l * b * c + c * c for l in (1, 2, 3)]
        assert list(islice(residual_factors(params), 4)) == spelled
        for n in sorted({0, 1, 2, rng.randint(3, 60), 60}):
            assert residual_constant(params, n) == prod(islice(residual_factors(params), n + 1))


@pytest.mark.parametrize(
    "kind,d",
    [
        (MODULAR3, 16),
        (HECKE4, 25),
        pytest.param(MODULAR3, 33, marks=pytest.mark.slow),
        pytest.param(HECKE4, 49, marks=pytest.mark.slow),
        pytest.param(MODULAR3, 51, marks=pytest.mark.slow),
    ],
)
def test_integer_sums_match_reference_stable_degrees(kind, d):
    # the (family, d) of the reduce jobs at p = 101, 199, 307 (modular3) and
    # 101, 197 (hecke4)
    _assert_matches_reference(params_for(GroupFamily(kind, 1)), d)


def test_e_is_derived_from_the_discriminant():
    assert RiccatiParams(4, 6, 1, 0).e == 4
    assert RiccatiParams(-3, 1, 0, 0).e == 3  # the nonnegative root
    assert RiccatiParams(Fraction(1, 2), 1, 1, 0).e == Fraction(1, 2)
    assert RiccatiParams(Fraction(5, 3), 1, 1, Fraction(4, 9)).e == 1
    assert RiccatiParams(2, 1, 1, 1).e == 0
    assert RiccatiParams(1, 1, 1, 1).e is None  # discriminant -3
    assert RiccatiParams(3, 1, 1, 1).e is None  # 5 is not a rational square
    with pytest.raises(TypeError):
        RiccatiParams(4, 6, 1, 0, 4)


def test_params_take_ints_and_fractions_only():
    # a float would enter as its binary value: 0.1 is 3602879701896397/2^55
    for bad in (0.1, 2.0, "1/10", None):
        for k in range(4):
            args = [1, 1, 1, 1]
            args[k] = bad
            with pytest.raises(TypeError):
                RiccatiParams(*args)
    assert RiccatiParams(Fraction(1, 10), 1, 1, 1).a == Fraction(1, 10)


def test_closed_form_errors_are_kept():
    no_e = RiccatiParams(1, 1, 1, 1)  # discriminant -3 has no rational root
    zero_e = RiccatiParams(2, 1, 1, 1)
    no_c = RiccatiParams(3, 1, 0, 5)
    collide = RiccatiParams(4, 2, 1, 3)  # E/B = 1
    for params in (no_e, zero_e):
        with pytest.raises(DegenerateParameters):
            pade_coeff_q(params, 2, 1)
    with pytest.raises(DegenerateParameters):
        pade_coeff_p(no_c, 2, 1)
    assert pade_coeff_q(no_c, 2, 1) == q1(2, 3, 1, 0, 5)
    with pytest.raises(DegenerateParameters):
        pade_pair(collide, 1)
    with pytest.raises(DegenerateParameters):
        pade_coeff_q(collide, 3, 1)
    # kp = 0 leaves no index for E/B = 1 to collide with
    assert pade_coeff_q(collide, 3, 3) == -(2**3) * reference_coeff_sums(collide, 3, 0, False)


def test_integrality_check_is_kept(monkeypatch):
    # B = 6 and 2C = 2 leave the 7 in the denominator
    # the stub gives both the Q and the P sum, as `_coeff_sums` does
    monkeypatch.setattr(freesub.riccati, "_coeff_sums", lambda *args, **kw: (Fraction(1, 7),) * 2)
    with pytest.raises(IntegralityViolation):
        pade_coeff_q(MODULAR_M1, 2, 1)
    with pytest.raises(IntegralityViolation):
        pade_coeff_p(MODULAR_M1, 2, 1)
    halves = RiccatiParams(Fraction(1, 2), 1, 1, 0)
    assert pade_coeff_q(halves, 2, 1) == Fraction(1, 7)
