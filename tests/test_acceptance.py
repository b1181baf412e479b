"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime (run with -s to see them).  Budgets are asserted.

The slow tier (--runslow) adds the mod-17^2 period check.  The quoted value
18*16*17 = 4896 is not the minimal period of the sequence: D^2 | N (z^T - 1)
holds for the certified least period 1632 = 6*16*17, of which 4896 is a
multiple, so the check asserts the certified pair and keeps the quoted value
recorded as quoted; see the regular period tests for the measured values.
"""

import random
import time

import pytest

from conftest import random_integer_params
from test_riccati import p1, p2, p3, q1, q2, q3
from freesub.exact import ModRingCtx
from freesub.groups import GroupFamily, congruence_classes
from freesub.periods import analyze, is_period
from freesub.poly import Poly
from freesub.reduce import pade_route, rational_form, reduce_series
from freesub.riccati import (
    RiccatiParams,
    pade_coeff_p,
    pade_coeff_q,
    pade_oracle,
    pade_pair,
    verify_gosper,
    verify_identity,
)
from freesub.valuations import (
    ValuationCase,
    legendre_vp_sum,
    lemma_divisibility,
    vp_pochhammer_ratio,
)

M1 = GroupFamily("modular3", 1)


def _report(k, name, t0, budget):
    elapsed = time.time() - t0
    assert elapsed < budget, f"criterion {k} exceeded its {budget}s budget"
    print(f"ACCEPTANCE {k} {name}: PASS ({elapsed:.2f}s)")


def test_criterion_1_low_order_golden():
    t0 = time.time()
    rng = random.Random(101)
    for _ in range(20):
        params = random_integer_params(rng, 3)
        a, b, c, d = params.a, params.b, params.c, params.d
        for n in (1, 2, 3):
            pair = pade_pair(params, n)
            expect_p = [1, p1(n, a, b, c, d), p2(n, a, b, c, d), p3(n, a, b, c, d)][: n + 1]
            expect_q = [1, q1(n, a, b, c, d), q2(n, a, b, c, d), q3(n, a, b, c, d)][: n + 1]
            assert pair.p == Poly(expect_p) and pair.q == Poly(expect_q)
    for _ in range(20):
        params = random_integer_params(rng, 7)
        a, b, c, d = params.a, params.b, params.c, params.d
        for n in range(1, 8):
            assert pade_coeff_p(params, n, 1) == p1(n, a, b, c, d)
            assert pade_coeff_q(params, n, 1) == q1(n, a, b, c, d)
            if n >= 2:
                assert pade_coeff_p(params, n, 2) == p2(n, a, b, c, d)
                assert pade_coeff_q(params, n, 2) == q2(n, a, b, c, d)
            if n >= 3:
                assert pade_coeff_p(params, n, 3) == p3(n, a, b, c, d)
                assert pade_coeff_q(params, n, 3) == q3(n, a, b, c, d)
    _report(1, "low-order coefficient formulas", t0, 10)


_PAIRS_FOR_3 = []


def test_criterion_2_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(202)
    for _ in range(50):
        params = random_integer_params(rng, 8)
        n = rng.randint(1, 8)
        closed = pade_pair(params, n)
        oracle = pade_oracle(params, n)
        assert closed.p == oracle.p
        assert closed.q == oracle.q
        assert closed.residual_const == oracle.residual_const
        _PAIRS_FOR_3.append((params, closed))
    _report(2, "closed form equals series oracle (n <= 8, 50 tuples)", t0, 60)


def test_criterion_3_identity_suite():
    t0 = time.time()
    assert _PAIRS_FOR_3, "criterion 2 must run first"
    for params, pair in _PAIRS_FOR_3:
        assert verify_identity(pair, params)
    rng = random.Random(303)
    for _ in range(20):
        params = random_integer_params(rng, 10)
        n = rng.randint(1, 10)
        assert verify_gosper(params, n)
    _report(3, "defining identity and telescoping certificate", t0, 60)


def test_criterion_4_integrality_homogeneity():
    t0 = time.time()
    rng = random.Random(404)
    for _ in range(8):
        params = random_integer_params(rng, 10)
        for n in (5, 10):
            pair = pade_pair(params, n)
            assert all(c.denominator == 1 for c in pair.p.coeffs + pair.q.coeffs)
        for t in (2, 3):
            scaled = RiccatiParams(t * params.a, t * params.b, t * params.c, t * params.d)
            for n in (3, 6):
                for k in range(n + 1):
                    assert pade_coeff_p(scaled, n, k) == t**k * pade_coeff_p(params, n, k)
                    assert pade_coeff_q(scaled, n, k) == t**k * pade_coeff_q(params, n, k)
    _report(4, "integrality and degree-k scaling", t0, 60)


def test_criterion_5_prime_power_displays():
    t0 = time.time()
    cases = {
        7: ({1: 16451, 2: 9562, 3: 2450, 4: 2744, 5: 2401},),
        11: ({1: 80547, 2: 6809, 3: 17787, 4: 41261, 5: 14641},),
        13: (
            {1: 208033, 2: 363181, 3: 171366, 4: 0, 5: 0},
            {1: 334822, 2: 176228, 3: 154635, 4: 134017, 5: 314171},
        ),
    }
    for p, residue_maps in cases.items():
        form = rational_form(M1, ModRingCtx(p, 5))
        got = {}
        for t in form.fractions:
            got.setdefault(tuple(t.factor.coeffs), {})[t.exponent] = (
                0 if t.residue.is_zero() else t.residue.coeff(0)
            )
        assert sorted(got.values(), key=str) == sorted(residue_maps, key=str), p
        total = form.poly_part.coeff(0) + sum(
            v for m_ in got.values() for v in m_.values()
        )
        assert total % p**5 == 1
    _report(5, "alpha=5 rational forms at p=7,11,13", t0, 5)


def test_criterion_6_periods_fast_tier():
    t0 = time.time()
    expected = {
        (7, 1): 6, (7, 2): 42, (7, 3): 294,
        (11, 1): 1, (11, 2): 11, (11, 3): 121,
        (13, 1): 12, (13, 2): 156,
        (17, 1): 96,
    }
    for (p, alpha), period in expected.items():
        res = analyze(M1, ModRingCtx(p, alpha))
        assert res.period == period, (p, alpha)
    _report(6, "minimal periods (fast tier)", t0, 120)


@pytest.mark.slow
def test_criterion_6_period_17_squared_slow_tier():
    # the quoted 18*16*17 = 4896 is a period but not the least one: the
    # certified pair is (13, 1632), 1632 = 6*16*17, and the quoted value
    # stays recorded as quoted, with match False
    t0 = time.time()
    res = analyze(M1, ModRingCtx(17, 2))
    assert (res.preperiod, res.period) == (13, 1632)
    assert res.minimal
    num, den = res.form.proper, res.form.den_alpha
    assert is_period(num, den, 4896) and is_period(num, den, 1632)
    assert res.predicted == 4896 and res.match is False
    _report(6, "mod 17^2 period (slow tier)", t0, 600)


def test_criterion_7_p5_vanishing():
    t0 = time.time()
    for alpha in (1, 2, 3):
        ctx = ModRingCtx(5, alpha)
        form = rational_form(M1, ctx)
        assert form.d == 0
        threshold = form.poly_part.degree + 1
        series = reduce_series(M1, ctx, threshold + 501)
        assert all(c == 0 for c in series.coeffs[threshold:])
        print(f"  p=5 alpha={alpha}: coefficients vanish from index {threshold}")
    _report(7, "eventual vanishing at p=5", t0, 10)


def test_criterion_8_valuation_oracle():
    t0 = time.time()
    rng = random.Random(808)
    plan = {"expp": (7, 13), "expp2": (7, 13), "expp3": (11, 23), "expp4": (11, 23)}
    for variant, primes in plan.items():
        done = 0
        while done < 500:
            p = rng.choice(primes)
            n = rng.randint(0, 60)
            k = rng.randint(0, n)
            j = rng.randint(0, k)
            case = ValuationCase(p, n, k, j, variant)
            assert legendre_vp_sum(case) == vp_pochhammer_ratio(case), case
            done += 1
    _report(8, "floor sums equal direct valuations (500/variant)", t0, 30)


def test_criterion_9_lemma_instances():
    t0 = time.time()
    for m in (1, 2, 7):
        fam = GroupFamily("modular3", m)
        for p in (7, 11, 13):
            classes = congruence_classes(fam, p)
            for n in range(1, 3 * p + 1):
                if n % p in classes:
                    assert lemma_divisibility(fam, p, n), (m, p, n)
    for m in (1, 2):
        fam = GroupFamily("hecke4", m)
        for p in (5, 7, 13):
            classes = congruence_classes(fam, p)
            for n in range(1, 3 * p + 1):
                if n % p in classes:
                    assert lemma_divisibility(fam, p, n), (m, p, n)
    _report(9, "denominator stability instances", t0, 60)


def test_criterion_10_route_agreement():
    t0 = time.time()
    for kind in ("modular3", "hecke4"):
        for m in (1, 2):
            fam = GroupFamily(kind, m)
            for p in (7, 11, 13):
                for alpha in (1, 2):
                    ctx = ModRingCtx(p, alpha)
                    assert (
                        pade_route(fam, ctx, 100).coeffs
                        == reduce_series(fam, ctx, 100).coeffs
                    ), (kind, m, p, alpha)
    _report(10, "closed-form route equals recurrence route", t0, 60)
