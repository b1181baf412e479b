import time

import jsonschema
import pytest

from freesub.errors import HorizonTooShort
from freesub.exact import ModRingCtx
from freesub.groups import GroupFamily
from freesub.periods import (
    PERIOD_SCHEMA,
    analysis_json_dict,
    analyze,
    detect_period,
    order_bound,
    predicted_period,
)
from freesub.reduce import rational_form, reduce_series

M1 = GroupFamily("modular3", 1)


def test_detect_examples():
    report = detect_period(reduce_series(M1, ModRingCtx(7, 1), 200))
    assert report.period == 6 and report.preperiod == 0

    report = detect_period(reduce_series(M1, ModRingCtx(11, 2), 400))
    assert report.period == 11

    report = detect_period(reduce_series(M1, ModRingCtx(5, 2), 200))
    assert report.period == 1
    tail = reduce_series(M1, ModRingCtx(5, 2), 200).coeffs[report.preperiod :]
    assert set(tail) == {0}


def test_detect_minimality_and_shift_invariance():
    series = reduce_series(M1, ModRingCtx(7, 2), 400)
    report = detect_period(series)
    assert report.period == 42
    c = series.coeffs
    for lam in range(report.preperiod, len(c) - report.period):
        assert c[lam] == c[lam + report.period]
    # no smaller shift works
    for t in range(1, report.period):
        assert any(
            c[lam] != c[lam + t] for lam in range(report.preperiod, len(c) - t)
        )


def test_detect_horizon_too_short():
    with pytest.raises(HorizonTooShort):
        detect_period(reduce_series(M1, ModRingCtx(7, 2), 40))


def test_detect_with_certificate_bound():
    series = reduce_series(M1, ModRingCtx(7, 2), 400)
    report = detect_period(series, certificate_bound=294)
    assert report.period == 42 and report.certificate == 294


def test_detect_with_a_huge_certificate_bound_stays_in_the_window():
    # a bound of 42 digits has divisors far past the window; the scan must
    # not enumerate them, only test the candidates the window can confirm
    series = reduce_series(M1, ModRingCtx(7, 2), 400)
    bound = 42 * (10**40 + 1)
    start = time.perf_counter()
    report = detect_period(series, certificate_bound=bound)
    elapsed = time.perf_counter() - start
    plain = detect_period(series)
    assert (report.preperiod, report.period, report.verified_horizon) == (
        plain.preperiod,
        plain.period,
        plain.verified_horizon,
    )
    assert report.certificate == bound
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
    assert res.report.period == res.predicted
    assert res.match is True
    assert res.order_bound % res.report.period == 0


def test_p5_analysis():
    res = analyze(M1, ModRingCtx(5, 3))
    assert res.report.period == 1 and res.predicted is None and res.match is None


def test_hecke_analysis_reports_bound_division():
    for p in (5, 7, 13):
        res = analyze(GroupFamily("hecke4", 1), ModRingCtx(p, 1))
        assert res.order_bound % res.report.period == 0


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
    assert res.report.period == 6 * 16 * 17
    assert res.predicted == 18 * 16 * 17
    assert res.predicted % res.report.period == 0
    assert res.match is False


def test_p17_alpha3_measured_values():
    # the README's numbers: the quoted 471648 is 17 times the minimal period
    res = analyze(M1, ModRingCtx(17, 3))
    assert res.report.period == 27744 and res.report.preperiod == 30
    assert res.report.verified_horizon == 1886638
    assert res.order_bound == 1414944
    assert res.predicted == 471648 and res.match is False
