import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import freesub.exact
from freesub.errors import NonInvertibleDenominator
from freesub.exact import (
    MR_PROVEN,
    ModRingCtx,
    factor,
    is_prime,
    mod_reduce,
    pochhammer,
    strong_probable_prime,
    vp_rational,
)
from freesub.groups import GroupFamily
from freesub.poly import Factorization, Poly, Series
from freesub.periods import bound_factors, order_bound
from freesub.reduce import rational_form
from freesub.valuations import ValuationCase

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


@pytest.mark.parametrize(
    "build",
    [
        lambda: ModRingCtx(7, 1.5),
        lambda: ModRingCtx(7.0, 1),
        lambda: ModRingCtx(7, True),
        lambda: GroupFamily("modular3", 1.5),
        lambda: GroupFamily("hecke4", 2.0),
        lambda: ValuationCase(7.0, 3, 2, 1, "expp"),
        lambda: ValuationCase(7, 3, 2.0, 1, "expp"),
    ],
    ids=["alpha-float", "p-float", "alpha-bool", "m-float", "m-whole-float", "case-p", "case-k"],
)
def test_record_int_fields_refuse_other_types(build):
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize(
    "make, fields",
    [
        (lambda: ModRingCtx(7, 2), ("p", "alpha")),
        (lambda: GroupFamily("hecke4", 2), ("kind", "m")),
        (lambda: Series((1, 2), ModRingCtx(7, 1)), ("coeffs", "ring")),
    ],
    ids=["ModRingCtx", "GroupFamily", "Series"],
)
def test_records_are_immutable_values(make, fields):
    record, twin = make(), make()
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == twin and record is not twin and hash(record) == hash(twin)
    assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))
    values = tuple(getattr(record, name) for name in fields)
    assert record != values and values != record
    with pytest.raises(TypeError):
        iter(record)


def test_poly_refuses_assignment_and_deletion():
    p = Poly([1, 2])
    for name in ("coeffs", "ring", "other"):
        with pytest.raises(AttributeError, match="Poly is immutable"):
            setattr(p, name, 1)
        with pytest.raises(AttributeError, match="Poly is immutable"):
            delattr(p, name)
    assert p == Poly([1, 2]) and repr(p) == "Poly([1, 2], ring=None)"


@pytest.mark.parametrize(
    "p", [Poly([1, 2, 3], ModRingCtx(7, 2)), Poly([Fraction(1, 2), 0, 3])], ids=["modular", "exact"]
)
def test_poly_copies_and_pickles(p):
    for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert twin == p and repr(twin) == repr(p) and hash(twin) == hash(p)
        with pytest.raises(AttributeError, match="Poly is immutable"):
            twin.coeffs = ()


def test_rational_form_pickles():
    # the certified record holds Polys, in its fields and in its factors
    form = rational_form(GroupFamily("modular3"), ModRingCtx(7, 2))
    assert pickle.loads(pickle.dumps(form)) == form == copy.deepcopy(form)


def test_records_of_different_classes_differ():
    assert ModRingCtx(7, 2) != ModRingCtx(7, 3)
    assert Series((1, 2)) != Factorization((1, 2), None)
    assert GroupFamily("modular3") == GroupFamily(kind="modular3", m=1)


def test_mod_reduce_examples():
    assert mod_reduce(Fraction(1, 2), ModRingCtx(7, 1)) == 4
    assert mod_reduce(5, ModRingCtx(7, 5)) == 5
    assert mod_reduce(-1, ModRingCtx(7, 2)) == 48
    for q in (0.5, 2.0, "1/2"):
        with pytest.raises(TypeError):
            mod_reduce(q, ModRingCtx(7, 1))
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


def _trial_division_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))


def test_miller_rabin_agrees_with_trial_division_below_10_5():
    for n in range(10**5):
        assert strong_probable_prime(n) == _trial_division_prime(n), n
        assert is_prime(n) == strong_probable_prime(n)


@pytest.mark.parametrize(
    "n",
    [
        2047,  # strong pseudoprime to base 2
        1373653,  # to bases 2, 3
        25326001,  # to bases 2, 3, 5
        3215031751,  # to bases 2, 3, 5, 7
        2152302898747,  # to bases 2..11
        3474749660383,  # to bases 2..13
        341550071728321,  # to bases 2..17
        3825123056546413051,  # to bases 2..23
        318665857834031151167461,  # to bases 2..37
        561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,  # Carmichael
    ],
)
def test_miller_rabin_rejects_strong_pseudoprimes_and_carmichael_numbers(n):
    assert not strong_probable_prime(n)


def test_miller_rabin_accepts_large_primes():
    for q in (2**61 - 1, 10**18 + 9, 3317044064679887385961813):
        assert strong_probable_prime(q)
    assert is_prime(2**61 - 1)
    with pytest.raises(ValueError):
        is_prime(MR_PROVEN)
    # a probable prime past the proven range is kept apart from the primes
    primes, rest = factor(2**89 - 1)
    assert primes == {} and rest == {2**89 - 1: 1}


@pytest.mark.parametrize(
    "p,q",
    [(10007, 10009), (1000003, 1000033), (99991, 4294967311), (100000007, 100000037)],
)
def test_rho_splits_semiprimes(p, q):
    primes, rest = factor(p * q)
    assert primes == {p: 1, q: 1} and rest == {}


def test_factor_keeps_multiplicities_and_leaves_unsplit_factors_whole(monkeypatch):
    assert factor(1) == ({}, {})
    assert factor(2**10 * 3**4 * 10007**2) == ({2: 10, 3: 4, 10007: 2}, {})
    monkeypatch.setattr(freesub.exact, "RHO_BUDGET", 0)
    assert factor(12 * 10007 * 10009) == ({2: 2, 3: 1}, {10007 * 10009: 1})


def _order_bounds(below: int):
    for kind in ("modular3", "hecke4"):
        for p in range(5, below):
            if is_prime(p):
                form = rational_form(GroupFamily(kind, 1), ModRingCtx(p, 1))
                if form.d >= 1:
                    bound = order_bound(form)
                    yield (kind, p), bound, *bound_factors(form, bound)


def test_factor_order_bounds_against_sympy():
    # sympy is a test-only oracle; the package never imports it.  Its
    # factorint is fast where the bound splits into small enough primes
    # (p < 100), and takes minutes on the factors that rho leaves whole
    # further up; up to 200 the primes and the whole factors are checked
    # one by one, which by unique factorization gives the same answer
    sympy = pytest.importorskip("sympy")
    complete = 0
    for case, bound, primes, rest in _order_bounds(200):
        left = bound
        for q in (*primes, *rest):
            assert left % q == 0, case
            while left % q == 0:
                left //= q
        assert left == 1, case
        assert all(sympy.isprime(q) for q in primes), case
        # a whole factor is left only past the proven range or unsplit,
        # and trial division has taken every prime below 10^4 out of it
        assert all(c >= MR_PROVEN or not sympy.isprime(c) for c in rest), case
        assert all(c % q for c in rest for q in sympy.primerange(2, 10**4)), case
        if case[1] < 100 and not rest:
            assert primes == sorted(sympy.factorint(bound)), case
        complete += not rest
    assert complete >= 60

