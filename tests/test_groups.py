from fractions import Fraction
from math import factorial, lcm

import pytest

from freesub.groups import (
    HECKE4,
    MODULAR3,
    GroupFamily,
    free_subgroup_numbers,
    params_for,
)
from freesub.poly import Poly
from freesub.riccati import pade_pair, residual_constant, riccati_series


def test_params_examples():
    p = params_for(GroupFamily("modular3", 1))
    assert (p.a, p.b, p.c, p.d, p.e) == (4, 6, 1, 0, 4)
    p = params_for(GroupFamily("hecke4", 1))
    assert (p.a, p.b, p.c, p.d, p.e) == (2, 4, 1, 0, 2)
    p = params_for(GroupFamily("modular3", 2))
    assert (p.a, p.b, p.c, p.d, p.e) == (10, 12, 1, 9, 8)
    assert p.e**2 == p.a**2 - 4 * p.c * p.d


def test_family_validation():
    with pytest.raises(ValueError):
        GroupFamily("modular5", 1)
    with pytest.raises(ValueError):
        GroupFamily("modular3", 0)


def test_counts_examples():
    assert free_subgroup_numbers(GroupFamily("modular3", 1), 3) == (5, 60, 1105)
    assert free_subgroup_numbers(GroupFamily("hecke4", 1), 3) == (3, 24, 297)
    assert free_subgroup_numbers(GroupFamily("modular3", 1), 1) == (5,)


@pytest.mark.parametrize("kind,m", [("modular3", 1), ("modular3", 2), ("hecke4", 1), ("hecke4", 3)])
def test_counts_satisfy_the_equation(kind, m):
    # oracle: substitute the truncated series back into the defining equation
    fam = GroupFamily(kind, m)
    p = params_for(fam)
    a, b, c, d = int(p.a), int(p.b), int(p.c), int(p.d)
    f = [1] + list(free_subgroup_numbers(fam, 12))
    for mm in range(1, len(f)):
        conv = sum(f[i] * f[mm - 1 - i] for i in range(mm))
        assert f[mm] == (a + b * (mm - 1)) * f[mm - 1] + c * conv + (d if mm == 1 else 0)


@pytest.mark.parametrize("kind", ["modular3", "hecke4"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_pade_series_consistency(kind, m):
    # F Q_n - P_n = r z^(2n+1) + O(z^(2n+2)), from exact products alone
    params = params_for(GroupFamily(kind, m))
    exact = Poly(riccati_series(params, 14).coeffs)
    for n in (1, 3, 6):
        pair = pade_pair(params, n)
        defect = exact * pair.q - pair.p
        assert [defect.coeff(k) for k in range(2 * n + 2)] == [0] * (2 * n + 1) + [pair.residual_const]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_modular_residual_product(m):
    params = params_for(GroupFamily("modular3", m))
    for n in range(11):
        expect = 5 * m ** (2 * n + 2)
        for l in range(1, n + 1):
            expect *= (6 * l + 1) * (6 * l + 5)
        assert residual_constant(params, n) == expect


def test_hecke_residual_divisibility():
    # no closed display for this family's residual product; check the
    # factor-by-factor arithmetic-progression divisibility instead
    for m in (1, 2):
        params = params_for(GroupFamily("hecke4", m))
        for n in range(1, 9):
            expect = 3 * m ** (2 * n + 2)
            for l in range(1, n + 1):
                expect *= (4 * l + 1) * (4 * l + 3)
            assert residual_constant(params, n) == expect


def test_counts_monotone_at_m1():
    vals = free_subgroup_numbers(GroupFamily("modular3", 1), 200)
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(v >= 0 for v in vals)


def _free_actions(k: int, n: int) -> int:
    """N_k(n) = n!/(k^(n/k) (n/k)!): the permutations of n points whose
    cycles all have length k, that is the free actions of C_k; 0 unless k
    divides n."""
    if n % k:
        return 0
    return factorial(n) // (k ** (n // k) * factorial(n // k))


def _hall_counts(family: GroupFamily, count: int) -> tuple:
    """The free subgroup numbers of index s l, l = 1..count, from their
    definition.  An action of C_2m *_Cm C_qm on n points in which both
    vertex groups act freely is a pair of free actions of C_2m and C_qm that
    agree on C_m, so there are h_n = N_2m(n) N_qm(n) / N_m(n) of them, and n
    is a multiple of s = lcm(2m, qm).  Hall's exp/log relation,
    sum_n h_n z^n/n! = exp(sum_n a_n z^n/n) with a_n the number of free
    subgroups of index n (M. Hall, Canad. J. Math. 1, 1949; I. M. S. Dey,
    Proc. Glasgow Math. Assoc. 7, 1965), turns the actions into subgroups:
    on w = z^s, with h_j = h_{sj}/(sj)!, b_l = l h_l - sum_{k<l} h_{l-k} b_k
    and a_{sl} = s b_l."""
    m, q = family.m, 3 if family.kind == MODULAR3 else 4
    s = lcm(2 * m, q * m)
    h = [
        Fraction(_free_actions(2 * m, n) * _free_actions(q * m, n), _free_actions(m, n) * factorial(n))
        for n in range(0, s * count + 1, s)
    ]
    b = [Fraction(0)]
    for l in range(1, count + 1):
        b.append(l * h[l] - sum(h[l - k] * b[k] for k in range(1, l)))
    return tuple(s * v for v in b[1:])


@pytest.mark.parametrize("kind", [MODULAR3, HECKE4])
@pytest.mark.parametrize("m", range(1, 7))
def test_counts_from_their_definition(kind, m):
    # the Riccati constants of `params_for` come from the paper; this derives
    # the counts from what they count, independent of the equation
    family = GroupFamily(kind, m)
    expected = _hall_counts(family, 40)
    assert all(v.denominator == 1 for v in expected)
    assert free_subgroup_numbers(family, 40) == expected
