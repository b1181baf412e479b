"""Eventual periods of the reduced counting sequences, with the classical
predicted values and a certified order bound.

`analyze` reads the period off the certified rational form without expanding
it.  The proper part N/D^alpha has period T exactly when D^alpha divides
N (z^T - 1) over Z/p^alpha, and the least T is found by dividing the order
bound by its primes while that test holds.  The proper part is purely
periodic, so the preperiod is deg(poly_part) + 1.  The numerator check in
`reduce` proves the form equal to the series mod p^alpha to every order, so
this pair holds for the whole series.  Where the period is short enough, a
scan of a prefix of the expansion finds the same pair independently; where
it is not, the certified descent stands alone.
"""

from __future__ import annotations

from math import isqrt, lcm, prod

from .errors import HorizonTooShort, certify
from .exact import ModRingCtx, Record, factor
from .groups import MODULAR3, GroupFamily
from .poly import Poly, Series, _mulmod, _pow_mod
from .reduce import RationalFormModPA, expand_form, rational_form

# safety margin: a period T is confirmed only if the window past the
# preperiod spans at least MARGIN * T coefficients
_MARGIN = 3

# the window check scans at least this many terms
_CHECK_MIN = 200

# the window check runs only where its window fits in this many terms
_WINDOW_LIMIT = 1 << 18


# `_min_preperiod` compares the window with its shift in slices of this size;
# 256 and 1024 scan the benchmark's period windows equally fast, 64 and 4096
# are slower
_PREPERIOD_BLOCK = 256


def _min_preperiod(coeffs, T: int) -> int:
    """Smallest mu with a[i] == a[i+T] for all i in [mu, len-T): slices are
    compared backwards, and only the first that differs is scanned term by
    term."""
    hi = len(coeffs) - T
    while hi > 0:
        lo = max(0, hi - _PREPERIOD_BLOCK)
        if coeffs[lo:hi] != coeffs[lo + T : hi + T]:
            while coeffs[hi - 1] == coeffs[hi - 1 + T]:
                hi -= 1
            return hi
        hi = lo
    return hi


def _divisors(bound: int, top: int) -> list[int]:
    """The divisors of bound up to top, in increasing order."""
    small = [t for t in range(1, min(top, isqrt(bound)) + 1) if bound % t == 0]
    return small + [bound // t for t in reversed(small) if t * t < bound and bound // t <= top]


def detect_period(series: Series, certificate_bound: int | None = None) -> tuple[int, int]:
    """Minimal (preperiod, period) of the window.  Candidates T run upward
    to a third of the window; with a certified bound only its divisors are
    tested, and the scan stays bounded by the window however large the
    bound.  Raises HorizonTooShort when nothing is confirmed with the
    safety margin."""
    coeffs = series.coeffs
    n = len(coeffs)
    top = n // _MARGIN
    for T in range(1, top + 1) if certificate_bound is None else _divisors(certificate_bound, top):
        # cheap prefilter before the full backward scan
        if coeffs[n - T : n] != coeffs[n - 2 * T : n - T]:
            continue
        mu = _min_preperiod(coeffs, T)
        if n - mu >= _MARGIN * T:
            return mu, T
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
    for g in form.factors:
        e = 0  # ceil(log_p(alpha * d'))
        while p**e < alpha * g.degree:
            e += 1
        bound = lcm(bound, (p**g.degree - 1) * p ** (alpha - 1 + e))
    return bound


def _cyclotomic_values(p: int, k: int) -> list[int]:
    """Phi_e(p) over the divisors e of k; their product is p^k - 1."""
    phi: dict[int, int] = {}
    for e in range(1, k + 1):
        if k % e == 0:
            v = p**e - 1
            for f, w in phi.items():
                if e % f == 0:
                    v //= w
            phi[e] = v
    return list(phi.values())


def bound_factors(form: RationalFormModPA, bound: int) -> tuple[list[int], list[int]]:
    """The distinct primes of the order bound, and the factors of it that
    `exact.factor` left unsplit or unproven.  Each p^d' - 1 is split into
    the far smaller Phi_e(p), e | d', before it is factored."""
    p = form.ctx.p
    primes, rest = {p} if bound % p == 0 else set(), set()
    for k in {g.degree for g in form.factors}:
        for v in _cyclotomic_values(p, k):
            found, left = factor(v)
            primes |= found.keys()
            rest |= left.keys()
    return sorted(primes), sorted(rest)


def _fixes(num: list, z_t: list, mulmod) -> bool:
    """Whether den | num (z^T - 1), given z^T mod den, mulmod = _mulmod(den)
    and deg num < deg den: then num z^T = num mod den."""
    r = mulmod(num, z_t)
    return r == num + [0] * (len(r) - len(num))


def is_period(num: Poly, den: Poly, T: int) -> bool:
    """Whether T is a period of the coefficients of num/den, where den(0) = 1,
    the leading coefficient of den is a unit and deg num < deg den.

    (1 - z^T) num/den has degree < T, that is a_(i+T) = a_i for all i,
    exactly when it is a polynomial, that is when den | num (z^T - 1).
    """
    mulmod = _mulmod(den)
    return _fixes(list(num.coeffs), _pow_mod([0, 1], T, mulmod), mulmod)


def _cofactor_powers(w: list, ms: list[int], mulmod) -> list[list]:
    """w^(M/m) mod den for each m in ms, where M is their product and
    mulmod = _mulmod(den), by a remainder tree: each level raises to
    exponents of log M bits in all."""
    if len(ms) < 2:
        return [w] * len(ms)
    half = len(ms) // 2
    low, high = ms[:half], ms[half:]
    return _cofactor_powers(_pow_mod(w, prod(high), mulmod), low, mulmod) + _cofactor_powers(
        _pow_mod(w, prod(low), mulmod), high, mulmod
    )


def least_period(
    num: Poly, den: Poly, bound: int, primes: list[int], rest: list[int]
) -> tuple[int, bool]:
    """The least period T of num/den, and whether it is proven least.

    The bound must pass `is_period`.  The periods are the multiples of the
    least one, so for a prime q with q^e exactly dividing the bound, the
    exponent of q in T is the least f for which bound / q^e * q^f passes.
    That is what dividing T by q while T/q passes gives, but it takes one
    power z^(bound / q^e) per prime, all from one remainder tree.  A factor
    of `rest` is treated as a prime.  Where one is left in T, T keeps
    primes that were not tried, as it does any part of the bound that the
    factors miss, and T is then only a multiple of the least period.
    Every power is taken mod den through one `_mulmod(den)` reducer; at
    small p, den = D^alpha has degree 3-6 and reduces term by term.
    """
    mulmod, nc = _mulmod(den), list(num.coeffs)
    certify(
        _fixes(nc, _pow_mod([0, 1], bound, mulmod), mulmod),
        f"the order bound {bound} is a period of the proper part",
    )
    parts, left = [], bound
    for q in (*primes, *rest):
        e = 0
        while left % q == 0:
            left, e = left // q, e + 1
        if e:
            parts.append((q, e))
    T, minimal = left, left == 1
    base = _pow_mod([0, 1], left, mulmod)
    for (q, e), z_t in zip(parts, _cofactor_powers(base, [q**e for q, e in parts], mulmod)):
        f = 0
        while f < e and not _fixes(nc, z_t, mulmod):
            z_t, f = _pow_mod(z_t, q, mulmod), f + 1
        T *= q**f
        minimal &= f == 0 or q in primes
    return T, minimal


class PeriodAnalysis(Record):
    """(preperiod, period) mod p^alpha of a certified form; `minimal` is
    False where the least period only divides `period`.  `verified_horizon`
    is the requested or default horizon, which the form covers as it does
    every order; it is not a count of scanned terms.  `order_bound`,
    `predicted` and `match` are None where there is none."""

    __slots__ = (
        "preperiod", "period", "verified_horizon", "order_bound",
        "minimal", "predicted", "match", "form",
    )

    def __init__(
        self, preperiod, period, verified_horizon, order_bound, minimal, predicted, match, form
    ):
        self._set(preperiod, period, verified_horizon, order_bound, minimal, predicted, match, form)


def _window_check(
    form: RationalFormModPA, horizon: int, bound: int | None, preperiod: int, period: int
) -> None:
    """Scan a prefix of the expansion for (preperiod, period), independently
    of the algebraic test.

    The prefix holds W = min(horizon, max(200, preperiod + 4T + 16)) terms,
    enough for `detect_period` to confirm T with its margin; it must find
    the same pair, and a horizon too short for that raises HorizonTooShort.
    Where max(200, preperiod + 4T + 16) passes _WINDOW_LIMIT no scan runs,
    as no window within the limit could confirm T with the margin; the
    certified descent then stands alone.
    """
    needed = max(_CHECK_MIN, preperiod + (_MARGIN + 1) * period + 16)
    if needed > _WINDOW_LIMIT:
        return
    # a period not proven least keeps a factor above 10^8, past the limit,
    # so the scan's least pair must be the same
    found = detect_period(expand_form(form, min(horizon, needed)), bound)
    certify(
        found == (preperiod, period),
        f"the window scan finds preperiod {preperiod} and period {period}, not {found}",
    )


def analyze(
    family: GroupFamily,
    ctx: ModRingCtx,
    horizon: int | None = None,
    *,
    length: int | None = None,
    window: int | None = None,
) -> PeriodAnalysis:
    """Full pipeline: rational form, order bound, the algebraic period and
    preperiod, the window check, and comparison against the predicted value.

    The period is the least T with D^alpha | N (z^T - 1), found by descent
    from the order bound (`least_period`); where the bound does not factor
    completely it is a period that the least one divides (`minimal` False).
    The horizon defaults to the polynomial-part degree plus four times the
    predicted period (or the order bound when no prediction exists).
    `length` and `window` go to `rational_form`.
    """
    form = rational_form(family, ctx, length=length, window=window)
    predicted = predicted_period(family, ctx.p, ctx.alpha)
    if form.d >= 1:
        bound = order_bound(form)
        primes, rest = bound_factors(form, bound)
        period, minimal = least_period(form.proper, form.den_alpha, bound, primes, rest)
    else:  # no proper part: the series is a polynomial, eventually 0
        bound, period, minimal = None, 1, True
    # the proper part is purely periodic, so the series differs from its
    # shift by T where the polynomial part does, last at its degree
    preperiod = form.poly_part.degree + 1
    if horizon is None:
        horizon = form.poly_part.degree + 1 + (_MARGIN + 1) * (predicted or bound or 1) + 16
    _window_check(form, horizon, bound, preperiod, period)
    match = None if predicted is None else period == predicted
    return PeriodAnalysis(preperiod, period, horizon, bound, minimal, predicted, match, form)


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
        "minimal": {"const": False},
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
    """The analysis as JSON; "minimal": false appears only where the period
    is not proven least."""
    out = {
        "p": a.form.ctx.p,
        "alpha": a.form.ctx.alpha,
        "preperiod": a.preperiod,
        "period": a.period,
        "verified_horizon": a.verified_horizon,
        "order_bound": a.order_bound,
        "predicted": a.predicted,
        "match": a.match,
    }
    if not a.minimal:
        out["minimal"] = False
    return out
