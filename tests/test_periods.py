import json
import time
from math import lcm

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freesub.exact
import freesub.periods
from freesub.cli import main
from freesub.errors import CertificationFailed, HorizonTooShort
from freesub.exact import ModRingCtx
from freesub.groups import GroupFamily
from freesub.poly import TERMWISE_MODULUS_MAX, Poly
from freesub.periods import (
    PERIOD_SCHEMA,
    PeriodAnalysis,
    _divisors,
    _min_preperiod,
    analysis_json_dict,
    analyze,
    detect_period,
    is_period,
    least_period,
    order_bound,
    predicted_period,
)
from freesub.reduce import expand_form, rational_form, reduce_series

M1 = GroupFamily("modular3", 1)


def test_detect_examples():
    assert detect_period(reduce_series(M1, ModRingCtx(7, 1), 200)) == (0, 6)

    _, period = detect_period(reduce_series(M1, ModRingCtx(11, 2), 400))
    assert period == 11

    preperiod, period = detect_period(reduce_series(M1, ModRingCtx(5, 2), 200))
    assert period == 1
    tail = reduce_series(M1, ModRingCtx(5, 2), 200).coeffs[preperiod:]
    assert set(tail) == {0}


def test_detect_minimality_and_shift_invariance():
    series = reduce_series(M1, ModRingCtx(7, 2), 400)
    preperiod, period = detect_period(series)
    assert period == 42
    c = series.coeffs
    for lam in range(preperiod, len(c) - period):
        assert c[lam] == c[lam + period]
    # no smaller shift works
    for t in range(1, period):
        assert any(
            c[lam] != c[lam + t] for lam in range(preperiod, len(c) - t)
        )


def reference_min_preperiod(coeffs, T):
    """The term-by-term backward scan that `_min_preperiod` replaced, kept
    as its oracle."""
    i = len(coeffs) - T - 1
    while i >= 0 and coeffs[i] == coeffs[i + T]:
        i -= 1
    return i + 1


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_min_preperiod_matches_the_backward_scan(data):
    # an eventually periodic window: a random prefix, then a random cycle
    # repeated; T may be the cycle, a multiple, a non-period or past the
    # window, and the block may be shorter than the window or not
    block = data.draw(st.sampled_from([1, 3, 16, 256]))
    cycle = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=12))
    prefix = data.draw(st.lists(st.integers(0, 3), max_size=300))
    n = data.draw(st.integers(0, 1200))
    coeffs = tuple((prefix + cycle * (n // len(cycle) + 1))[:n])
    T = data.draw(st.sampled_from([len(cycle), 2 * len(cycle), 1, 5, max(n, 1), n + 3]) | st.integers(1, 40))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(freesub.periods, "_PREPERIOD_BLOCK", block)
        assert _min_preperiod(coeffs, T) == reference_min_preperiod(coeffs, T)


def test_detect_horizon_too_short():
    with pytest.raises(HorizonTooShort):
        detect_period(reduce_series(M1, ModRingCtx(7, 2), 40))


def test_detect_with_certificate_bound():
    series = reduce_series(M1, ModRingCtx(7, 2), 400)
    assert detect_period(series, certificate_bound=294)[1] == 42


def test_divisors_up_to_a_limit_match_brute_force():
    # 1, a prime, prime powers and composites; limits above the bound, and
    # limits whose square is far below it
    bounds = [1, 101, 2**10, 7**5, 30, 6 * 7**4, 42 * (10**12 + 1), lcm(*range(1, 24))]
    for bound in bounds:
        for top in (1, 2, 9, 40, 101, 3000, 19222):
            assert _divisors(bound, top) == [t for t in range(1, top + 1) if bound % t == 0], (bound, top)


def test_detect_with_a_huge_certificate_bound_stays_in_the_window():
    # a bound of 42 digits has divisors far past the window; the scan must
    # not enumerate them, only test the candidates the window can confirm
    series = reduce_series(M1, ModRingCtx(7, 2), 400)
    bound = 42 * (10**40 + 1)
    start = time.perf_counter()
    found = detect_period(series, certificate_bound=bound)
    elapsed = time.perf_counter() - start
    assert found == detect_period(series)
    assert elapsed < 0.25


def test_predicted_table():
    assert predicted_period(M1, 7, 3) == 294
    assert predicted_period(M1, 13, 1) == 12
    assert predicted_period(M1, 11, 4) == 11**3
    assert predicted_period(M1, 17, 1) == 96
    assert predicted_period(M1, 17, 2) == 18 * 16 * 17
    assert predicted_period(M1, 17, 4) is None
    assert predicted_period(M1, 5, 1) is None
    assert predicted_period(GroupFamily("hecke4", 1), 7, 1) is None
    assert predicted_period(GroupFamily("modular3", 2), 13, 1) is None


def test_order_bound_examples():
    b7 = order_bound(rational_form(M1, ModRingCtx(7, 1)))
    assert b7 == 6
    b11 = order_bound(rational_form(M1, ModRingCtx(11, 1)))
    assert b11 == 10
    b13 = order_bound(rational_form(M1, ModRingCtx(13, 1)))
    assert b13 == 12
    with pytest.raises(ValueError):
        order_bound(rational_form(M1, ModRingCtx(5, 1)))


@pytest.mark.parametrize(
    "p,alpha",
    [(7, 1), (7, 2), (7, 3), (11, 1), (11, 2), (11, 3), (13, 1), (13, 2), (17, 1)],
)
def test_detected_equals_predicted(p, alpha):
    res = analyze(M1, ModRingCtx(p, alpha))
    assert res.period == res.predicted
    assert res.match is True
    assert res.order_bound % res.period == 0


def test_p5_analysis():
    res = analyze(M1, ModRingCtx(5, 3))
    assert res.period == 1 and res.predicted is None and res.match is None


def test_hecke_analysis_reports_bound_division():
    for p in (5, 7, 13):
        res = analyze(GroupFamily("hecke4", 1), ModRingCtx(p, 1))
        assert res.order_bound % res.period == 0


def test_json_schema():
    res = analyze(M1, ModRingCtx(13, 1))
    data = analysis_json_dict(res)
    jsonschema.validate(data, PERIOD_SCHEMA)
    assert data["match"] is True


@pytest.mark.slow
def test_p17_alpha2_detected_value():
    # the measured minimal period; three independent computation routes
    # agree on the underlying series (see the reduce-module route tests)
    res = analyze(M1, ModRingCtx(17, 2))
    assert res.period == 6 * 16 * 17
    assert res.predicted == 18 * 16 * 17
    assert res.predicted % res.period == 0
    assert res.match is False


def test_p17_alpha3_measured_values():
    # the README's numbers: the quoted 471648 is 17 times the minimal period
    res = analyze(M1, ModRingCtx(17, 3))
    assert res.period == 27744 and res.preperiod == 30
    assert res.verified_horizon == 1886638
    assert res.order_bound == 1414944
    assert res.predicted == 471648 and res.match is False


def _check_against_the_direct_series(family, ctx):
    # the direct recurrence is the oracle: on analyze's own horizon it must
    # give the same pair, and the certified form's expansion must equal it
    # term for term, far past the 2L terms the numerator check covers
    res = analyze(family, ctx)
    horizon = res.verified_horizon
    direct = reduce_series(family, ctx, horizon)
    assert detect_period(direct, res.order_bound) == (res.preperiod, res.period)
    assert expand_form(res.form, horizon).coeffs == direct.coeffs
    return res


@pytest.mark.parametrize(
    "family,p,alpha",
    [
        (M1, 7, 4),
        (M1, 11, 4),
        (M1, 13, 3),
        (M1, 17, 2),
        (M1, 5, 3),  # d = 0
        (GroupFamily("modular3", 7), 7, 2),  # p | m, d = 0
        (GroupFamily("hecke4", 1), 13, 1),
    ],
)
def test_expanded_form_matches_the_direct_series(family, p, alpha):
    _check_against_the_direct_series(family, ModRingCtx(p, alpha))


@pytest.mark.slow
def test_expanded_form_matches_the_direct_series_7_5():
    res = _check_against_the_direct_series(M1, ModRingCtx(7, 5))
    assert res.verified_horizon == 57666


def test_a_preperiod_past_the_poly_part_fails_certification(monkeypatch, capsys):
    # the proper part is purely periodic, so a detected preperiod past
    # deg(poly_part) + 1 contradicts the certified form
    real = freesub.periods.detect_period
    bound = rational_form(M1, ModRingCtx(7, 2)).poly_part.degree + 1

    def long_preperiod(series, certificate_bound=None):
        return bound + 1, real(series, certificate_bound)[1]

    monkeypatch.setattr(freesub.periods, "detect_period", long_preperiod)
    with pytest.raises(CertificationFailed, match="preperiod"):
        analyze(M1, ModRingCtx(7, 2))
    assert main(["period", "--p", "7", "--alpha", "2"]) == 7
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("CertificationFailed:")


@pytest.mark.parametrize("alpha,least,quoted", [(2, 1632, 4896), (3, 27744, 471648)])
def test_certificate_at_17_squared_and_cubed(alpha, least, quoted):
    # D^alpha | N (z^T - 1) holds at the measured minimal period and fails
    # at T/q for every prime q of it; the quoted values pass as multiples
    form = rational_form(M1, ModRingCtx(17, alpha))
    num, den = form.proper, form.den_alpha
    assert least == 2**5 * 3 * 17 ** (alpha - 1)
    assert is_period(num, den, least)
    for q in (2, 3, 17):
        assert not is_period(num, den, least // q)
    assert quoted % least == 0 and is_period(num, den, quoted)
    assert is_period(num, den, order_bound(form))


def test_period_test_with_a_short_numerator():
    # the reduced product num z^T mod den has deg den terms, num fewer
    ring = ModRingCtx(7, 1)
    num, den = Poly([3], ring), Poly([1, 0, 0, 6], ring)  # 3 / (1 - z^3)
    assert [is_period(num, den, T) for T in range(1, 7)] == [False, False, True] * 2
    assert least_period(num, den, 6, [2, 3], []) == (3, True)
    assert is_period(Poly([], ring), den, 1)


def _brute_least_period(num: list, den: list, m: int) -> int:
    """Least period of the coefficients of num/den over Z/m, den[0] = 1:
    run the recurrence until the last deg den terms repeat the first."""
    k = len(den) - 1
    a = []
    while True:
        i = len(a)
        v = num[i] if i < len(num) else 0
        a.append((v - sum(den[j] * a[i - j] for j in range(1, min(i, k) + 1))) % m)
        T = len(a) - k
        if T >= 1 and a[T:] == a[:k]:
            return T


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_least_period_matches_brute_force(data):
    # den up to TERMWISE_MODULUS_MAX + 3, so both `_mulmod` reducers run;
    # a product of factors of degree 1 or 2 keeps the period small enough
    # for the brute force
    ring = data.draw(st.sampled_from([ModRingCtx(5, 1), ModRingCtx(7, 1), ModRingCtx(3, 2), ModRingCtx(7, 2)]))
    m, p = ring.modulus, ring.p
    residue, unit = st.integers(0, m - 1), st.integers(1, m - 1).filter(lambda v: v % p)
    k = data.draw(st.integers(1, TERMWISE_MODULUS_MAX + 3))
    den = Poly([1], ring)
    while den.degree < k:
        size = data.draw(st.integers(1, min(2, k - den.degree)))
        middle = data.draw(st.lists(residue, min_size=size - 1, max_size=size - 1))
        den = den * Poly([1, *middle, data.draw(unit)], ring)
    num = Poly(data.draw(st.lists(residue, max_size=k)), ring)
    T = _brute_least_period(list(num.coeffs), list(den.coeffs), m)
    bound = T * data.draw(st.integers(1, 12))
    primes = [q for q in range(2, bound + 1) if bound % q == 0 and all(q % r for r in range(2, q))]
    assert least_period(num, den, bound, primes, []) == (T, True)


def test_a_wrong_order_bound_fails_certification(monkeypatch):
    # 147 = 294 / 2 is not a multiple of the period 42 mod 7^2
    monkeypatch.setattr(freesub.periods, "order_bound", lambda form: 147)
    with pytest.raises(CertificationFailed, match="order bound 147"):
        analyze(M1, ModRingCtx(7, 2))


@pytest.mark.parametrize(
    "family,p,preperiod,period,bound",
    [
        (M1, 29, 1, 235760, 20511120),
        (
            GroupFamily("hecke4", 1),
            101,
            0,
            62235792987546047882742617414638536521156100,
            12571630183484301672314008717756984377273532200,
        ),
    ],
)
def test_a_period_too_long_to_scan_is_not_expanded(monkeypatch, family, p, preperiod, period, bound):
    # preperiod + 4T + 16 passes the window limit, so no window could confirm
    # T: the certified descent answers alone, with the recorded pair, order
    # bound and minimal flag
    def no_expansion(form, length):
        raise AssertionError("a period past the window limit must not be expanded")

    monkeypatch.setattr(freesub.periods, "expand_form", no_expansion)
    res = analyze(family, ModRingCtx(p, 1))
    assert (res.preperiod, res.period) == (preperiod, period)
    assert res.order_bound == bound and res.minimal


def test_the_scan_path_recombines_the_fractions_once(monkeypatch):
    # the form keeps the N / D^alpha that its fractions are certified
    # against, so neither the descent nor the window scan joins them again
    real = freesub.reduce._recombine
    calls = []

    def spy(terms, ctx):
        calls.append(len(terms))
        return real(terms, ctx)

    monkeypatch.setattr(freesub.reduce, "_recombine", spy)
    res = analyze(M1, ModRingCtx(7, 2))
    assert (res.preperiod, res.period) == (5, 42)
    assert calls == [2]


def test_the_scan_path_reads_the_series_once(monkeypatch):
    # the form is certified where it is made, so the scan expands it and
    # does not recompute a prefix of the series to compare against
    real_series, real_expand = freesub.reduce.reduce_series, freesub.periods.expand_form
    calls = []

    def series_spy(family, ctx, length):
        calls.append("reduce_series")
        return real_series(family, ctx, length)

    def expand_spy(form, length):
        calls.append("expand_form")
        return real_expand(form, length)

    monkeypatch.setattr(freesub.reduce, "reduce_series", series_spy)
    monkeypatch.setattr(freesub.periods, "expand_form", expand_spy)
    res = analyze(M1, ModRingCtx(7, 2))
    assert (res.preperiod, res.period) == (5, 42)
    assert calls == ["reduce_series", "expand_form"]
    assert not hasattr(freesub.periods, "reduce_series")


def test_a_period_not_proven_least_is_marked(monkeypatch, capsys):
    # with no rho iterations the bound at hecke4 101 keeps two composite
    # factors whole; T keeps them too, so it is not proven least, and says so
    family = GroupFamily("hecke4", 1)
    ctx = ModRingCtx(101, 1)
    least = analyze(family, ctx)
    assert least.minimal and "minimal" not in analysis_json_dict(least)
    monkeypatch.setattr(freesub.exact, "RHO_BUDGET", 0)
    res = analyze(family, ctx)
    assert not res.minimal
    fields = (res.preperiod, res.period, res.verified_horizon, res.order_bound)
    assert PeriodAnalysis(*fields, True, res.predicted, res.match, res.form) == least
    data = analysis_json_dict(res)
    jsonschema.validate(data, PERIOD_SCHEMA)
    assert data["minimal"] is False
    argv = ["period", "--family", "hecke4", "--p", "101", "--alpha", "1"]
    assert main(argv) == 0
    assert capsys.readouterr().out.endswith(f"order_bound={res.order_bound} minimal=no\n")
    assert main([*argv, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == data
