import random
from fractions import Fraction

import pytest

from freesub.errors import DegenerateParameters, InvalidCongruenceClass, UnsupportedPrime
from freesub.exact import is_prime, vp_rational, pochhammer
from freesub.groups import GroupFamily, congruence_classes, params_for, stable_degree
from freesub.riccati import pade_coeff_q
from freesub.valuations import (
    ValuationCase,
    _poch_ratio,
    _term,
    case_summand,
    legendre_vp_sum,
    lemma_divisibility,
    qnk_transformed,
    vp_pochhammer_ratio,
)


def test_case_validation():
    with pytest.raises(ValueError):
        ValuationCase(7, 3, 2, 3, "expp")  # j > k
    with pytest.raises(ValueError):
        ValuationCase(11, 3, 2, 1, "expp")  # 11 = 5 (mod 6)
    with pytest.raises(ValueError):
        ValuationCase(7, 3, 2, 1, "expp3")  # 7 = 1 (mod 6)
    with pytest.raises(ValueError):
        ValuationCase(7, 3, 2, 1, "bogus")
    # Legendre's count holds for primes only: at k = j = 0 the floor sum
    # would miss one factor of p against the direct valuation of the summand
    for p, n, variant in ((25, 5, "expp"), (49, 12, "expp"), (35, 12, "expp3"), (55, 1, "expp")):
        with pytest.raises(ValueError, match="not prime"):
            ValuationCase(p, n, 0, 0, variant)


def test_trivial_cases():
    # n = k = j = 0: the summand collapses to a single rising-factorial ratio
    for p in (7, 13):
        case = ValuationCase(p, 0, 0, 0, "expp")
        direct = vp_rational(Fraction(5, 6) / Fraction(2, 3), p)
        assert legendre_vp_sum(case) == direct == vp_pochhammer_ratio(case)
    case = ValuationCase(13, 2, 0, 0, "expp")
    direct = vp_rational(pochhammer(Fraction(5, 6), 3) / Fraction(2, 3), 13)
    assert legendre_vp_sum(case) == direct


def test_divisibility_instance_p7():
    # n = 8 is in the stable class mod 7; the summand valuation must be >= 1
    case = ValuationCase(7, 8, 1, 0, "expp")
    v = legendre_vp_sum(case)
    assert v >= 1
    assert vp_pochhammer_ratio(case) == v


def test_k_equals_j_binomial_is_one():
    case = ValuationCase(7, 5, 3, 3, "expp2")
    s = case_summand(case)
    ratio = pochhammer(Fraction(1, 6) - 3, 5 + 3 + 1) / pochhammer(Fraction(-2, 3) - 3, 4)
    assert s == Fraction(1, 6) * ratio  # (-1)^(k+j)/k! * C(k,k) = 1/3!


def test_degenerate_ratio_guard():
    with pytest.raises(DegenerateParameters):
        _poch_ratio(Fraction(-2), 3, Fraction(2, 3), 1)  # vanishing numerator
    with pytest.raises(DegenerateParameters):
        _poch_ratio(Fraction(5, 6), 2, Fraction(-1), 3)  # vanishing denominator


@pytest.mark.parametrize(
    "variant,primes",
    [("expp", (7, 13)), ("expp2", (7, 13)), ("expp3", (11, 23)), ("expp4", (11, 23))],
)
def test_oracle_equivalence_randomized(variant, primes):
    rng = random.Random(hash(variant) & 0xFFFF)
    for p in primes:
        for _ in range(120):
            n = rng.randint(0, 50)
            k = rng.randint(0, n)
            j = rng.randint(0, k)
            case = ValuationCase(p, n, k, j, variant)
            assert legendre_vp_sum(case) == vp_pochhammer_ratio(case), case


# The four floor-sum variants as first written out by hand, one per summand
# shape and p mod 6, with the parity dispatch for p = 5 (mod 6).  They are the
# oracle for the floor sum that derives its offsets from the shifts.


def _first_shape_term(n, k, j, q):
    # u_j shape, q = p^l = 1 (mod 6)
    return (
        -(j // q)
        - (k - j) // q
        + (n + k - j + (q + 5) // 6) // q
        - (-j + (q - 1) // 6) // q
        - (k - j + (q + 2) // 3) // q
        + (-j + (q - 1) // 3) // q
    )


def _second_shape_term(n, k, j, q):
    # w_j shape, q = 1 (mod 6)
    return (
        -(j // q)
        - (k - j) // q
        + (n + k - j + (5 * q + 1) // 6) // q
        - (-j + 5 * (q - 1) // 6) // q
        - (k - j + 2 * (q - 1) // 3) // q
        + (-j + (2 * q - 5) // 3) // q
    )


def _first_shape_term_5mod6(n, k, j, q):
    # u_j shape, q = 5 (mod 6)
    return (
        -(j // q)
        - (k - j) // q
        + (n + k - j + 5 * (q + 1) // 6) // q
        - (-j + (5 * q - 1) // 6) // q
        - (k - j + 2 * (q + 1) // 3) // q
        + (-j + (2 * q - 1) // 3) // q
    )


def _second_shape_term_5mod6(n, k, j, q):
    # w_j shape, q = 5 (mod 6); not the circulating (2q-1)/3, (2q-4)/3 pair
    return (
        -(j // q)
        - (k - j) // q
        + (n + k - j + (q + 1) // 6) // q
        - (-j + (q - 5) // 6) // q
        - (k - j + (q - 2) // 3) // q
        + (-j + (q - 5) // 3) // q
    )


def reference_term(case, level):
    q = case.p**level
    n, k, j = case.n, case.k, case.j
    if case.variant == "expp":
        return _first_shape_term(n, k, j, q)
    if case.variant == "expp2":
        return _second_shape_term(n, k, j, q)
    # p = 5 (mod 6): q = 1 (mod 6) at even levels, 5 (mod 6) at odd ones
    if case.variant == "expp3":
        if level % 2 == 0:
            return _first_shape_term(n, k, j, q)
        return _first_shape_term_5mod6(n, k, j, q)
    if level % 2 == 0:
        return _second_shape_term(n, k, j, q)
    return _second_shape_term_5mod6(n, k, j, q)


def test_derived_floor_sum_matches_the_tabulated_variants():
    rng = random.Random(6)
    checked = 0
    for p in range(5, 100):
        if not is_prime(p):
            continue
        variants = ("expp", "expp2") if p % 6 == 1 else ("expp3", "expp4")
        for variant in variants:
            for _ in range(60):
                n = rng.randint(0, 80)
                k = rng.randint(0, n)
                j = rng.randint(0, k)
                case = ValuationCase(p, n, k, j, variant)
                for level in range(1, 5):
                    assert _term(case, level) == reference_term(case, level), (case, level)
                    checked += 1
    assert checked == 23 * 2 * 60 * 4


def test_transformed_coefficient_examples():
    fam = GroupFamily("modular3", 1)
    assert qnk_transformed(fam, 1, 0) == -12
    params = params_for(fam)
    for n in range(1, 7):
        for k in range(n + 1):
            assert qnk_transformed(fam, n, k) == pade_coeff_q(params, n, n - k)
    fam2 = GroupFamily("modular3", 2)
    params2 = params_for(fam2)
    for n in range(1, 5):
        for k in range(n + 1):
            assert qnk_transformed(fam2, n, k) == pade_coeff_q(params2, n, n - k)
    with pytest.raises(ValueError):
        qnk_transformed(GroupFamily("hecke4", 1), 1, 0)


def test_congruence_classes():
    fam = GroupFamily("modular3", 1)
    assert congruence_classes(fam, 7) == (1, 5)
    assert congruence_classes(fam, 11) == (1, 9)
    assert congruence_classes(fam, 13) == (2, 10)
    h = GroupFamily("hecke4", 1)
    assert congruence_classes(h, 5) == (1, 3)
    assert congruence_classes(h, 7) == (1, 5)
    assert congruence_classes(h, 13) == (3, 9)


def _piecewise_degree(family, p):
    # oracle: the stable degree as first written, by p mod 6 / p mod 4, with
    # the collapse to 0 when p divides m
    if family.kind == "modular3":
        d = (p - 1) // 6 if p % 6 == 1 else (p - 5) // 6
    else:
        d = (p - 1) // 4 if p % 4 == 1 else (p - 3) // 4
    return 0 if family.m % p == 0 else d


def _piecewise_classes(family, p):
    if family.kind == "modular3":
        if p % 6 == 1:
            return ((p - 1) // 6, 5 * (p - 1) // 6)
        return ((p - 5) // 6, (5 * p - 1) // 6 % p)
    if p % 4 == 1:
        return ((p - 1) // 4, 3 * (p - 1) // 4)
    return ((p - 3) // 4, (3 * p - 1) // 4 % p)


def test_stable_degree_matches_the_piecewise_oracle():
    checked = 0
    for p in range(3, 2000):
        if not is_prime(p):
            continue
        for kind, lowest in (("modular3", 5), ("hecke4", 3)):
            if p < lowest:
                continue
            for m in (1, 2, p):
                fam = GroupFamily(kind, m)
                assert stable_degree(fam, p) == _piecewise_degree(fam, p), (kind, m, p)
                assert congruence_classes(fam, p) == _piecewise_classes(fam, p), (kind, m, p)
                checked += 1
    assert checked > 1700


@pytest.mark.parametrize(
    "kind,p",
    [("modular3", 2), ("modular3", 3), ("modular3", 4), ("modular3", 9), ("modular3", 25),
     ("hecke4", 2), ("hecke4", 4), ("hecke4", 9), ("hecke4", 25)],
)
def test_stable_degree_rejects_bad_primes(kind, p):
    fam = GroupFamily(kind, 1)
    with pytest.raises(UnsupportedPrime):
        stable_degree(fam, p)
    with pytest.raises(UnsupportedPrime):
        congruence_classes(fam, p)


def test_lemma_divisibility_examples():
    fam = GroupFamily("modular3", 1)
    assert lemma_divisibility(fam, 7, 8)
    assert lemma_divisibility(fam, 13, 2)
    # p | m: the denominator collapses to 1
    assert lemma_divisibility(GroupFamily("modular3", 7), 7, 8)
    with pytest.raises(InvalidCongruenceClass):
        lemma_divisibility(fam, 7, 2)


@pytest.mark.parametrize("p", [7, 11, 13])
@pytest.mark.parametrize("m", [1, 2])
def test_lemma_divisibility_modular_sweep(p, m):
    fam = GroupFamily("modular3", m)
    classes = congruence_classes(fam, p)
    checked = 0
    for n in range(1, 3 * p + 1):
        if n % p in classes:
            assert lemma_divisibility(fam, p, n), (p, m, n)
            checked += 1
    assert checked >= 4


@pytest.mark.parametrize("p", [5, 7, 13])
def test_lemma_divisibility_hecke_sweep(p):
    fam = GroupFamily("hecke4", 1)
    classes = congruence_classes(fam, p)
    for n in range(1, 3 * p + 1):
        if n % p in classes:
            assert lemma_divisibility(fam, p, n), (p, n)
