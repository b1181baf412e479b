"""Eventual periods of the reduced counting sequences, with the classical
predicted values and a certified order bound.

`analyze` reads every period off one series, the expansion of the rational
form, which the numerator check in `reduce` proves equal to the series mod
p^alpha to every order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .errors import HorizonTooShort, certify
from .exact import ModRingCtx
from .groups import MODULAR3, GroupFamily
from .poly import Series
from .reduce import RationalFormModPA, ReduceConfig, expand_form, rational_form, reduce_series

# safety margin: a period T is confirmed only if the window past the
# preperiod spans at least MARGIN * T coefficients
_MARGIN = 3


@dataclass(frozen=True)
class PeriodReport:
    ctx: ModRingCtx
    preperiod: int
    period: int
    verified_horizon: int
    certificate: int | None = None  # order bound the period must divide


def _min_preperiod(coeffs, T: int) -> int:
    """Smallest mu with a[i] == a[i+T] for all i in [mu, len-T)."""
    n = len(coeffs)
    i = n - T - 1
    while i >= 0 and coeffs[i] == coeffs[i + T]:
        i -= 1
    return i + 1


def detect_period(series: Series, certificate_bound: int | None = None) -> PeriodReport:
    """Minimal (preperiod, period) of the window.  Candidates T run upward
    to a third of the window; with a certified bound only its divisors are
    tested, and the scan stays bounded by the window however large the
    bound.  Raises HorizonTooShort when nothing is confirmed with the
    safety margin."""
    coeffs = series.coeffs
    n = len(coeffs)
    for T in range(1, n // _MARGIN + 1):
        if certificate_bound is not None and certificate_bound % T:
            continue
        # cheap prefilter before the full backward scan
        if coeffs[n - T : n] != coeffs[n - 2 * T : n - T]:
            continue
        mu = _min_preperiod(coeffs, T)
        if n - mu >= _MARGIN * T:
            return PeriodReport(series.ring, mu, T, n, certificate_bound)
    raise HorizonTooShort(
        f"no period confirmed with margin {_MARGIN} in {n} terms"
    )


def predicted_period(family: GroupFamily, p: int, alpha: int) -> int | None:
    """Quoted minimal periods, recorded for PSL2(Z) itself (modular3, m = 1)
    only; None elsewhere."""
    if family.kind != MODULAR3 or family.m != 1:
        return None
    if p == 7:
        return 6 * 7 ** (alpha - 1)
    if p == 11:
        return 11 ** (alpha - 1)
    if p == 13:
        return 12 * 13 ** (alpha - 1)
    if p == 17 and alpha <= 3:
        return {1: 6 * 16, 2: 18 * 16 * 17, 3: 102 * 16 * 17**2}[alpha]
    return None


def order_bound(form: RationalFormModPA) -> int:
    """A certified multiple of the eventual period of the expanded form.

    Per irreducible factor of degree d' the coefficient stream of
    residue/factor^s is periodic with period dividing
    (p^d' - 1) * p^(alpha - 1 + ceil(log_p(alpha * d'))); the bounds combine
    by lcm.  The detected period must divide the result.
    """
    if form.d < 1:
        raise ValueError("order bound needs at least one denominator factor")
    p, alpha = form.ctx.p, form.ctx.alpha
    bound = 1
    for g in dict.fromkeys(t.factor for t in form.fractions):
        e = 0  # ceil(log_p(alpha * d'))
        while p**e < alpha * g.degree:
            e += 1
        bound = lcm(bound, (p**g.degree - 1) * p ** (alpha - 1 + e))
    return bound


@dataclass(frozen=True)
class PeriodAnalysis:
    report: PeriodReport
    predicted: int | None
    match: bool | None
    order_bound: int | None
    form: RationalFormModPA


def analyze(
    family: GroupFamily,
    ctx: ModRingCtx,
    horizon: int | None = None,
    config: ReduceConfig = ReduceConfig(),
) -> PeriodAnalysis:
    """Full pipeline: rational form, order bound, horizon policy, series,
    detection, and comparison against the predicted value.

    The horizon defaults to the polynomial-part degree plus four times the
    predicted period (or the order bound when no prediction exists).  The
    series is the expansion of the certified form, cross-checked against
    the direct recurrence on 200 terms.  D(0) = 1 and the leading
    coefficient of D is a unit mod p, so the proper part is purely periodic
    and the preperiod is at most deg(poly_part) + 1; that is certified too.
    """
    form = rational_form(family, ctx, config)
    bound = order_bound(form) if form.d >= 1 else None
    predicted = predicted_period(family, ctx.p, ctx.alpha)
    if horizon is None:
        t_est = predicted or bound or 1
        horizon = form.poly_part.degree + 1 + (_MARGIN + 1) * t_est + 16
    series = expand_form(form, horizon)
    checked = reduce_series(family, ctx, min(horizon, 200))
    certify(
        series.coeffs[: checked.length] == checked.coeffs,
        f"the expanded form matches the series on {checked.length} terms",
    )
    report = detect_period(series, bound)
    if bound is not None:
        certify(bound % report.period == 0, f"period {report.period} divides the order bound")
    certify(
        report.preperiod <= form.poly_part.degree + 1,
        f"preperiod {report.preperiod} is at most deg(poly_part) + 1",
    )
    match = None if predicted is None else report.period == predicted
    return PeriodAnalysis(report, predicted, match, bound, form)


PERIOD_SCHEMA = {
    "type": "object",
    "properties": {
        "p": {"type": "integer"},
        "alpha": {"type": "integer"},
        "preperiod": {"type": "integer", "minimum": 0},
        "period": {"type": "integer", "minimum": 1},
        "verified_horizon": {"type": "integer"},
        "order_bound": {"type": ["integer", "null"]},
        "predicted": {"type": ["integer", "null"]},
        "match": {"type": ["boolean", "null"]},
    },
    "required": [
        "p",
        "alpha",
        "preperiod",
        "period",
        "verified_horizon",
        "order_bound",
        "predicted",
        "match",
    ],
    "additionalProperties": False,
}


def analysis_json_dict(a: PeriodAnalysis) -> dict:
    return {
        "p": a.report.ctx.p,
        "alpha": a.report.ctx.alpha,
        "preperiod": a.report.preperiod,
        "period": a.report.period,
        "verified_horizon": a.report.verified_horizon,
        "order_bound": a.order_bound,
        "predicted": a.predicted,
        "match": a.match,
    }
