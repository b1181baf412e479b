import json
import random
from functools import cache
from math import prod

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freesub.reduce
from freesub.errors import CertificationFailed, DegreeBoundExceeded, UnsupportedPrime
from freesub.exact import ModRingCtx, is_prime
from freesub.groups import GroupFamily, params_for
from freesub.poly import Poly, Series, series_div
from freesub.riccati import pade_pair, riccati_residual, riccati_series, verify_identity
from freesub.reduce import (
    JSON_SCHEMA,
    denominator_base,
    emit,
    expand_form,
    pade_route,
    rational_form,
    reduce_series,
    to_json_dict,
)

M1 = GroupFamily("modular3", 1)
H1 = GroupFamily("hecke4", 1)

# the classical alpha=5 partial-fraction residues for m=1
RESIDUES_7 = {1: 16451, 2: 9562, 3: 2450, 4: 2744, 5: 2401}
RESIDUES_11 = {1: 80547, 2: 6809, 3: 17787, 4: 41261, 5: 14641}
RESIDUES_13_OVER_1P5Z = {1: 208033, 2: 363181, 3: 171366, 4: 0, 5: 0}
RESIDUES_13_OVER_1M2Z = {1: 334822, 2: 176228, 3: 154635, 4: 134017, 5: 314171}


def test_denominator_base_examples():
    d, qb = denominator_base(M1, 7)
    assert d == 1 and [c % 7 for c in qb.coeffs] == [1, 2]
    d, qb = denominator_base(M1, 11)
    assert d == 1 and [c % 11 for c in qb.coeffs] == [1, 10]  # i.e. 1 - z
    d, qb = denominator_base(M1, 13)
    assert d == 2
    prod = Poly([1, -2]) * Poly([1, 5])
    assert [c % 13 for c in qb.coeffs] == [int(c) % 13 for c in prod.coeffs]
    assert denominator_base(M1, 5) == (0, Poly([1]))
    assert denominator_base(GroupFamily("modular3", 7), 7)[0] == 0
    with pytest.raises(UnsupportedPrime):
        denominator_base(M1, 3)
    with pytest.raises(UnsupportedPrime):
        denominator_base(H1, 2)
    assert denominator_base(H1, 3) == (0, Poly([1]))
    assert denominator_base(H1, 13)[0] == 3


def test_reduce_series_examples():
    assert reduce_series(M1, ModRingCtx(7, 1), 3).coeffs == (1, 5, 4)
    assert reduce_series(M1, ModRingCtx(5, 1), 4).coeffs == (1, 0, 0, 0)
    assert reduce_series(H1, ModRingCtx(3, 1), 3).coeffs == (1, 0, 0)


def _fraction_map(form):
    out = {}
    for t in form.fractions:
        out.setdefault(tuple(t.factor.coeffs), {})[t.exponent] = (
            t.residue.coeff(0) if not t.residue.is_zero() else 0
        )
    return out


def test_rational_form_7_5():
    form = rational_form(M1, ModRingCtx(7, 5))
    assert form.d == 1
    assert form.poly_part.degree == 25
    assert form.poly_part.coeff(0) == 7
    assert _fraction_map(form) == {(1, 2): RESIDUES_7}


def test_rational_form_11_5():
    form = rational_form(M1, ModRingCtx(11, 5))
    assert form.poly_part.degree == 41
    assert _fraction_map(form) == {(1, -1): RESIDUES_11}


def test_rational_form_13_5():
    form = rational_form(M1, ModRingCtx(13, 5))
    assert form.poly_part.degree == 42
    assert _fraction_map(form) == {
        (1, 5): RESIDUES_13_OVER_1P5Z,
        (1, -2): RESIDUES_13_OVER_1M2Z,
    }
    # the two zero residues are kept as explicit slots
    zero_slots = [(tuple(t.factor.coeffs), t.exponent) for t in form.fractions if t.residue.is_zero()]
    assert zero_slots == [((1, 5), 4), ((1, 5), 5)]


def test_normalization_at_zero():
    # evaluating the form at z = 0 must give 1
    for p, alpha in ((7, 5), (11, 5), (13, 5), (7, 2), (13, 1)):
        ctx = ModRingCtx(p, alpha)
        form = rational_form(M1, ctx)
        total = form.poly_part.coeff(0)
        for t in form.fractions:
            total += t.residue.coeff(0) if not t.residue.is_zero() else 0
        assert total % ctx.modulus == 1


def test_pade_route_choice_of_n(monkeypatch):
    import freesub.reduce as reduce_mod
    from freesub.riccati import pade_pair as real_pade_pair

    seen = {}

    def spy(params, n):
        seen["n"] = n
        return real_pade_pair(params, n)

    monkeypatch.setattr(reduce_mod, "pade_pair", spy)
    # the smallest n with v_p(r_n) >= alpha, in any congruence class
    for p, alpha, n in [(5, 1, 0), (5, 2, 4), (7, 1, 1), (7, 2, 5), (7, 3, 8), (11, 1, 1), (11, 2, 9)]:
        pade_route(M1, ModRingCtx(p, alpha), 10)
        assert seen["n"] == n, (p, alpha)


@pytest.mark.parametrize("kind", ["modular3", "hecke4"])
@pytest.mark.parametrize("m", [1, 2, 5, 7])
def test_pade_route_at_the_least_n_reproduces_the_series(kind, m):
    # every supported p up to 29 and alpha up to 4, p | m included
    family = GroupFamily(kind, m)
    for p in [q for q in range(3 if kind == "hecke4" else 5, 30) if is_prime(q)]:
        for alpha in range(1, 5):
            ctx = ModRingCtx(p, alpha)
            assert pade_route(family, ctx, 400).coeffs == reduce_series(family, ctx, 400).coeffs, (p, alpha)


@pytest.mark.parametrize("family", [M1, H1, GroupFamily("modular3", 2), GroupFamily("hecke4", 2)])
@pytest.mark.parametrize("p,alpha", [(7, 1), (7, 2), (11, 1), (11, 2), (13, 1), (13, 2)])
def test_route_agreement(family, p, alpha):
    ctx = ModRingCtx(p, alpha)
    assert pade_route(family, ctx, 100).coeffs == reduce_series(family, ctx, 100).coeffs


@pytest.mark.parametrize("kind,p", [("modular3", 2), ("modular3", 3), ("hecke4", 2)])
def test_pade_route_needs_a_supported_prime(kind, p):
    with pytest.raises(UnsupportedPrime):
        pade_route(GroupFamily(kind, 6), ModRingCtx(p, 1), 10)


@pytest.mark.parametrize("family,p", [(GroupFamily("modular3", 7), 7), (GroupFamily("hecke4", 5), 5), (H1, 3)])
@pytest.mark.parametrize("alpha", [1, 3])
def test_pade_route_where_the_stable_degree_is_0(family, p, alpha):
    # p | m, or hecke4 at p = 3: the form is a polynomial, and the
    # approximant still reduces to the series
    ctx = ModRingCtx(p, alpha)
    assert pade_route(family, ctx, 80).coeffs == reduce_series(family, ctx, 80).coeffs


def test_pade_route_agrees_long_window():
    ctx = ModRingCtx(7, 1)
    assert pade_route(M1, ctx, 50).coeffs == reduce_series(M1, ctx, 50).coeffs


@pytest.mark.parametrize(
    "family,p,alpha",
    [
        (M1, 7, 5),
        (M1, 11, 3),
        (M1, 13, 3),
        (M1, 5, 3),
        (H1, 5, 3),
        (H1, 7, 2),
        (H1, 13, 2),
        (GroupFamily("modular3", 2), 7, 2),
    ],
)
def test_reconstruction(family, p, alpha):
    ctx = ModRingCtx(p, alpha)
    form = rational_form(family, ctx)
    L = 2 * (ctx.alpha * form.d + 2 * p * ctx.alpha + 64)
    series = reduce_series(family, ctx, L)
    assert expand_form(form, L).coeffs == series.coeffs


def per_fraction_expand_form(form, length: int) -> Series:
    """The expansion before the fractions were joined into one N/D^alpha: one
    series quotient per nonzero fraction, summed term by term."""
    ctx = form.ctx
    acc = [0] * length
    for i, c in enumerate(form.poly_part.coeffs[:length]):
        acc[i] = c
    for term in form.fractions:
        if term.residue.is_zero():
            continue
        den = term.factor.map_ring(ctx) ** term.exponent
        piece = series_div(term.residue, den, length)
        for i, c in enumerate(piece.coeffs):
            acc[i] = (acc[i] + c) % ctx.modulus
    return Series(tuple(acc), ctx)


@pytest.mark.parametrize(
    "family,p,alpha",
    [(f, p, alpha) for f in (M1, H1) for p in (5, 7, 11, 13) for alpha in (1, 2, 3)]
    + [(GroupFamily("modular3", 5), 5, 2)],  # p | m, d = 0
)
def test_form_carries_what_its_fractions_recombine_to(family, p, alpha):
    # N and D^alpha are kept from the certified split, and the factors are
    # those of the fractions, once each and in their order
    form = rational_form(family, ModRingCtx(p, alpha))
    assert freesub.reduce._recombine(form.fractions, form.ctx) == (form.proper, form.den_alpha)
    assert form.factors == tuple(dict.fromkeys(t.factor for t in form.fractions))


@pytest.mark.parametrize(
    "family,p,alpha",
    [(M1, 7, 5), (M1, 13, 3), (M1, 19, 1), (M1, 23, 1), (M1, 5, 3), (H1, 13, 2), (H1, 17, 2)],
)
def test_expand_form_matches_per_fraction_expansion(family, p, alpha):
    form = rational_form(family, ModRingCtx(p, alpha))
    assert expand_form(form, 5000) == per_fraction_expand_form(form, 5000)


def test_certificate_covers_the_emitted_residues(monkeypatch):
    # skew the first residue as its term is emitted; the recombination check
    # must read the terms that leave the split, not the parts before it
    real = freesub.reduce.FractionTerm
    skewed = []

    def skew_first(factor, exponent, residue):
        if not skewed:
            skewed.append(exponent)
            residue = residue + Poly([1], residue.ring)
        return real(factor, exponent, residue)

    monkeypatch.setattr(freesub.reduce, "FractionTerm", skew_first)
    with pytest.raises(CertificationFailed, match="the partial fractions recombine"):
        rational_form(M1, ModRingCtx(7, 2))
    assert skewed


@pytest.mark.parametrize("improper", [False, True])
def test_a_corrupted_poly_part_fails_certification(monkeypatch, improper):
    # the split N = poly_part * D^alpha + proper is multiplied back: a wrong
    # quotient fails it, and so does one that a remainder of degree deg D^alpha
    # makes up for
    def corrupt(num, den):
        q, r = num.__divmod__(den)
        one = Poly.one(q.ring)
        return q + one, r - den if improper else r

    monkeypatch.setattr(freesub.reduce, "divmod", corrupt, raising=False)
    with pytest.raises(CertificationFailed, match="poly_part D\\^alpha \\+ proper = N"):
        rational_form(M1, ModRingCtx(7, 2))


def _fractions_over_display_factors(num: Poly, ctx: ModRingCtx):
    # the split that `rational_form` makes of its proper part, for any
    # numerator below deg D^alpha
    _, q_base = denominator_base(M1, ctx.p)
    gs, _ = freesub.reduce._display_factors(q_base, ctx.p)
    den_alpha = prod(gs, start=Poly.one()).map_ring(ctx) ** ctx.alpha
    return freesub.reduce._partial_fractions_over(num, gs, den_alpha, ctx)


def test_partial_fraction_roundtrip():
    rng = random.Random(4)
    ctx = ModRingCtx(13, 3)
    for _ in range(10):
        num = Poly([rng.randrange(ctx.modulus) for _ in range(6)], ctx)
        terms = _fractions_over_display_factors(num, ctx)
        # recombine over the common denominator
        gs = {}
        for t in terms:
            gs.setdefault(tuple(t.factor.coeffs), t.factor)
        full = Poly([1], ctx)
        for g in gs.values():
            full = full * (g.map_ring(ctx) ** 3)
        total = Poly([], ctx)
        for t in terms:
            total = total + t.residue * (full // (t.factor.map_ring(ctx) ** t.exponent))
        assert total == num
        for t in terms:
            assert t.residue.degree < t.factor.degree


def test_partial_fraction_linear_alpha1():
    ctx = ModRingCtx(7, 1)
    terms = _fractions_over_display_factors(Poly([3], ctx), ctx)
    assert len(terms) == 1 and terms[0].exponent == 1
    assert terms[0].residue == Poly([3], ctx)


def test_degree_bound_exceeded():
    with pytest.raises(DegreeBoundExceeded):
        rational_form(M1, ModRingCtx(7, 5), length=8, window=100000)


@pytest.mark.parametrize("field", ["length", "window"])
@pytest.mark.parametrize("value", [0, -1])
def test_rational_form_rejects_knobs_below_one(field, value):
    with pytest.raises(ValueError, match=f"{field} must be >= 1, not {value}"):
        rational_form(M1, ModRingCtx(7, 1), **{field: value})


def _spy_on_attempts(monkeypatch) -> list:
    """Record the length of every reduce_series call of the numerator search."""
    calls = []
    real = freesub.reduce.reduce_series

    def spy(family, ctx, length):
        calls.append(length)
        return real(family, ctx, length)

    monkeypatch.setattr(freesub.reduce, "reduce_series", spy)
    return calls


def test_search_plan_keeps_explicit_knobs(monkeypatch):
    # None selects the default start L = deg D^alpha + p (alpha - 1) + 2,
    # here 2 + 7 + 2 = 11, and a one-term window; the series is read on L
    # terms, and an explicit knob is used as given
    ctx = ModRingCtx(7, 2)
    calls = _spy_on_attempts(monkeypatch)
    form = rational_form(M1, ctx)
    assert calls == [11]
    calls.clear()
    assert rational_form(M1, ctx, length=50) == form
    assert calls == [50]
    calls.clear()
    # a one-term search has no room for a zero-run, so the search doubles
    assert rational_form(M1, ctx, length=1, window=1) == form
    assert calls[0] == 1 and len(calls) > 1
    calls.clear()
    # an explicit window does not move the start: 11 terms, then doublings
    # up to 64 x 11 terms
    with pytest.raises(DegreeBoundExceeded, match="no zero-run of width 5000 within 704 terms"):
        rational_form(M1, ctx, window=5000)
    assert calls == [11 * 2**k for k in range(freesub.reduce._MAX_DOUBLINGS + 1)]


def _first_attempt_finds(monkeypatch, family, p, alphas):
    """Every default search over the given alphas ends on one reduce_series
    call, of deg D^alpha + p (alpha - 1) + 2 terms."""
    calls = _spy_on_attempts(monkeypatch)
    for alpha in alphas:
        calls.clear()
        form = rational_form(family, ModRingCtx(p, alpha))
        assert calls == [form.den_alpha.degree + p * (alpha - 1) + 2], (family, p, alpha, calls)


def _primes(lo, hi):
    return [p for p in range(lo, hi) if is_prime(p)]


# deg N <= deg D^alpha + p (alpha - 1) is measured, not proven: these grids
# keep it checked, so a form past it shows here and not only as a slower run
@pytest.mark.parametrize("m", [1, 2, 5])
@pytest.mark.parametrize("kind", ["modular3", "hecke4"])
def test_default_search_ends_on_its_first_attempt(monkeypatch, kind, m):
    # 2 families x 3 lifts x 27 primes x 3 alphas = 486 forms
    for p in _primes(5, 110):
        _first_attempt_finds(monkeypatch, GroupFamily(kind, m), p, (1, 2, 3))


@pytest.mark.slow
@pytest.mark.parametrize("m", [1, 2, 3, 5, 6, 7, 11])
@pytest.mark.parametrize("kind", ["modular3", "hecke4"])
def test_default_search_ends_on_its_first_attempt_full_grid_slow_tier(monkeypatch, kind, m):
    for p in _primes(5, 320):
        top = 5 if p < 40 else 3 if p < 110 else 2
        _first_attempt_finds(monkeypatch, GroupFamily(kind, m), p, range(1, top + 1))


@pytest.mark.slow
@pytest.mark.parametrize(
    "family,p,alpha",
    [(M1, 997, 3), (M1, 499, 3), (M1, 7, 8), (M1, 11, 7), (H1, 997, 2)],
    ids=["modular3-997^3", "modular3-499^3", "modular3-7^8", "modular3-11^7", "hecke4-997^2"],
)
def test_default_search_ends_on_its_first_attempt_large_slow_tier(monkeypatch, family, p, alpha):
    _first_attempt_finds(monkeypatch, family, p, (alpha,))


def test_emit_latex_and_text():
    form = rational_form(M1, ModRingCtx(7, 5))
    latex = emit(form, "latex")
    assert r"\frac{16451}{1+2z}" in latex
    assert r"\frac{2401}{(1+2z)^5}" in latex
    assert "4802 z^{25}" in latex
    text = emit(form, "text")
    assert "16451" in text

    form5 = rational_form(M1, ModRingCtx(5, 2))
    assert "\\frac" not in emit(form5, "latex")
    assert "eventually 0" in emit(form5, "text")


def test_latex_omits_zero_residues():
    latex = emit(rational_form(M1, ModRingCtx(13, 5)), "latex")
    assert r"\frac{208033}{1+5z}" in latex
    assert "(1+5z)^4" not in latex and "(1+5z)^5" not in latex
    assert r"\frac{314171}{(1-2z)^5}" in latex


def test_json_fields_and_schema():
    for family, p, alpha in ((M1, 13, 2), (H1, 13, 2), (M1, 5, 2)):
        form = rational_form(family, ModRingCtx(p, alpha))
        data = json.loads(json.dumps(to_json_dict(form)))
        jsonschema.validate(data, JSON_SCHEMA)
        head = (data["family"], data["m"], data["p"], data["alpha"], data["d"])
        assert head == (family.kind, family.m, p, alpha, form.d)
        assert data["q_base"] == list(form.q_base.coeffs)
        assert data["poly_part"] == list(form.poly_part.coeffs)
        assert data["fractions"] == [
            {"factor": list(t.factor.coeffs), "exponent": t.exponent, "residue": list(t.residue.coeffs)}
            for t in form.fractions
        ]


def test_denominator_stability():
    # every stable-class n up to 3p reproduces the base denominator mod p
    from freesub.riccati import pade_coeff_q
    from freesub.groups import params_for

    for p in (7, 13):
        d, q_base = denominator_base(M1, p)
        params = params_for(M1)
        for n in range(d, 3 * p + 1):
            if n % p != d:
                continue
            qn = [pade_coeff_q(params, n, j) for j in range(n + 1)]
            for j, c in enumerate(qn):
                ref = q_base.coeff(j) if j <= d else 0
                assert (c - ref) % p == 0


def _check_stable_denominator(family, p):
    d, q_base = denominator_base(family, p)
    assert d == (p - 1) // (6 if family.kind == "modular3" else 4)
    assert q_base.degree == d and q_base.coeff(0) == 1
    assert all(type(c) is int for c in q_base.coeffs)
    params = params_for(family)
    pair = pade_pair(params, d)
    assert pair.q.coeffs == q_base.coeffs
    assert verify_identity(pair, params)


def test_stable_denominator_at_499():
    _check_stable_denominator(M1, 499)


@pytest.mark.slow
def test_stable_denominator_every_prime_below_1000():
    for p in range(5, 1000):
        if is_prime(p):
            for family in (M1, H1):
                _check_stable_denominator(family, p)


@cache
def _exact_series(family: GroupFamily, length: int) -> tuple:
    return riccati_series(params_for(family), length).coeffs


@pytest.mark.parametrize("kind", ["modular3", "hecke4"])
@pytest.mark.parametrize("m", [1, 2, 5])
@pytest.mark.parametrize("p,alpha", [(7, 4), (13, 3), (10007, 5)])
def test_reduce_series_reduces_the_exact_series(kind, m, p, alpha):
    # the J-fraction over Z, reduced, is an oracle independent of the
    # recurrence the engine runs mod p^alpha; 600 terms pass the longest
    # series that certifying a form reads (411 terms in the bench)
    family, ctx = GroupFamily(kind, m), ModRingCtx(p, alpha)
    exact = _exact_series(family, 600)
    assert reduce_series(family, ctx, 600).coeffs == tuple(c % ctx.modulus for c in exact)


@pytest.mark.parametrize(
    "position,error,message",
    [
        # a coefficient inside N leaves the zero-run, and only the identity
        # can tell the candidate is wrong
        (1, CertificationFailed, "N Q - B z\\^2 \\(N'Q - N Q'\\)"),
        # the last coefficient read breaks the zero-run
        (-1, DegreeBoundExceeded, "no zero-run of width 1 within 704 terms"),
    ],
    ids=["inside-numerator", "last-term"],
)
def test_a_skewed_series_doubles_the_search_and_fails(monkeypatch, position, error, message):
    # the skew follows every doubling, so the last attempt fails too and is
    # reported; the numerator check divides nothing
    real = freesub.reduce.reduce_series
    calls = []

    def skewed(family, ctx, length):
        s = real(family, ctx, length)
        calls.append(length)
        cs = list(s.coeffs)
        cs[position] += 1
        return Series.of(cs, ctx)

    def no_division(num, den, length):
        raise AssertionError("the numerator check must not divide")

    monkeypatch.setattr(freesub.reduce, "series_div", no_division)
    monkeypatch.setattr(freesub.reduce, "reduce_series", skewed)
    with pytest.raises(error, match=message):
        rational_form(M1, ModRingCtx(7, 2))
    assert calls == [11 * 2**k for k in range(freesub.reduce._MAX_DOUBLINGS + 1)]


@pytest.mark.parametrize(
    "knobs,terms",
    [
        # the identity proves the form to every order, so the series is read
        # on the search length alone, even on one term
        ({"length": 1, "window": 1}, 1),
        # under the default knobs L = 6 + 13*2 + 2 = 34
        ({}, 34),
    ],
    ids=["short-search", "default-knobs"],
)
def test_numerator_search_reads_the_series_on_its_length(monkeypatch, knobs, terms):
    calls = []

    class FirstCall(Exception):
        pass

    def spy(family, ctx, length):
        calls.append(length)
        raise FirstCall

    monkeypatch.setattr(freesub.reduce, "reduce_series", spy)
    with pytest.raises(FirstCall):
        rational_form(M1, ModRingCtx(13, 3), **knobs)
    assert calls == [terms]


@cache
def _certified_pair(kind, m, p, alpha):
    form = rational_form(GroupFamily(kind, m), ModRingCtx(p, alpha))
    return form.poly_part * form.den_alpha + form.proper, form.den_alpha


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["modular3", "hecke4"]),
    st.sampled_from([1, 2]),
    st.sampled_from([5, 7, 11, 13, 17, 19, 23, 29, 31, 37]),
    st.integers(1, 3),
    st.booleans(),
    st.data(),
)
def test_the_identity_refuses_a_perturbed_form(kind, m, p, alpha, in_numerator, data):
    # adding k p^(alpha - 1) z^i, p not dividing k, to N or to D^alpha gives
    # a pair whose quotient is not the series: N is not 0 mod p, and D^alpha
    # keeps its constant term 1, so the quotient is still a power series
    num, den = _certified_pair(kind, m, p, alpha)
    params = params_for(GroupFamily(kind, m))
    assert riccati_residual(params, num, den).is_zero()
    target = num if in_numerator else den
    i = data.draw(st.integers(0 if in_numerator else 1, target.degree + 1), label="i")
    k = data.draw(st.integers(1, p - 1), label="k")
    bumped = target + Poly([0] * i + [k * p ** (alpha - 1)], target.ring)
    pair = (bumped, den) if in_numerator else (num, bumped)
    assert not riccati_residual(params, *pair).is_zero()


@pytest.mark.parametrize("family,p", [(M1, 13), (H1, 7), (H1, 19)], ids=["modular3-13", "hecke4-7", "hecke4-19"])
def test_a_false_zero_run_doubles_the_search(family, p):
    # a one-term window stops the search at a zero coefficient inside the
    # numerator; the tail check then fails, and the search must go on with
    # a doubled length to the form the default knobs give
    ctx = ModRingCtx(p, 3)
    assert rational_form(family, ctx, length=1, window=1) == rational_form(family, ctx)
