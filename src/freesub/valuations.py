"""Executable p-adic valuation identities for the denominator coefficients.

After a hypergeometric transformation, the coefficient of z^(n-k) in Q_n for
the modular3 family takes the two-sum shape

    q_{n,n-k} = (-1)^n (6m)^(n-k) * ( sum_j u_j  +  sum_j w_j ),

    u_j = (-1)^(k+j)/k! * C(k,j) * (5/6 - j)_{n+k+1} / (2/3 - j)_{k+1}
    w_j = (-1)^(k+j)/k! * C(k,j) * (1/6 - j)_{n+k+1} / (-2/3 - j)_{k+1}

and the p-adic valuation of each summand is a finite sum of floor terms in
the Legendre style.  Four variants are implemented: for p = 1 (mod 6) a
single sum over l >= 1 per summand shape, and for p = 5 (mod 6) a split into
even and odd l (p^l is then 1 or 5 mod 6 respectively, which changes the
integer offsets inside the floors).

This module checks those floor formulas against direct valuation of the
exact rational summands, and checks the congruence-class divisibility of
high Q_n coefficients by direct computation for both group families.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .errors import DegenerateParameters, InvalidCongruenceClass, certify
from .exact import pochhammer, vp_rational
from .groups import MODULAR3, GroupFamily, congruence_classes, params_for
from .riccati import pade_coeff_q

VARIANTS = ("expp", "expp2", "expp3", "expp4")


@dataclass(frozen=True)
class ValuationCase:
    p: int
    n: int
    k: int
    j: int
    variant: str

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if not 0 <= self.j <= self.k <= self.n:
            raise ValueError("need 0 <= j <= k <= n")
        want = 1 if self.variant in ("expp", "expp2") else 5
        if self.p % 6 != want:
            raise ValueError(f"variant {self.variant} needs p = {want} (mod 6)")


def _floor6(num: int, den: int) -> int:
    return num // den


def _first_shape_term(n: int, k: int, j: int, q: int) -> int:
    """Floor-sum summand for the u_j shape at modulus level q = p^l with
    q = 1 (mod 6)."""
    return (
        -_floor6(j, q)
        - _floor6(k - j, q)
        + _floor6(n + k - j + (q + 5) // 6, q)
        - _floor6(-j + (q - 1) // 6, q)
        - _floor6(k - j + (q + 2) // 3, q)
        + _floor6(-j + (q - 1) // 3, q)
    )


def _second_shape_term(n: int, k: int, j: int, q: int) -> int:
    """Floor-sum summand for the w_j shape at level q = p^l, q = 1 (mod 6)."""
    return (
        -_floor6(j, q)
        - _floor6(k - j, q)
        + _floor6(n + k - j + (5 * q + 1) // 6, q)
        - _floor6(-j + 5 * (q - 1) // 6, q)
        - _floor6(k - j + 2 * (q - 1) // 3, q)
        + _floor6(-j + (2 * q - 5) // 3, q)
    )


def _first_shape_term_5mod6(n: int, k: int, j: int, q: int) -> int:
    """u_j shape at an odd level, where q = p^l = 5 (mod 6)."""
    return (
        -_floor6(j, q)
        - _floor6(k - j, q)
        + _floor6(n + k - j + 5 * (q + 1) // 6, q)
        - _floor6(-j + (5 * q - 1) // 6, q)
        - _floor6(k - j + 2 * (q + 1) // 3, q)
        + _floor6(-j + (2 * q - 1) // 3, q)
    )


def _second_shape_term_5mod6(n: int, k: int, j: int, q: int) -> int:
    """w_j shape at an odd level, q = 5 (mod 6).

    The last floor pair counts the i in [0, k] with 3i = 3j + 2 (mod q),
    i.e. i - j = 2*(q+1)/3 (mod q); shifting that window by exactly q gives
    the offsets (q-2)/3 and (q-5)/3.  (A classical display of this variant
    circulates with the offsets (2q-1)/3 and (2q-4)/3 instead; that pair is
    shifted by (q+1)/3, not by a multiple of q, and fails the direct
    valuation cross-check.)
    """
    return (
        -_floor6(j, q)
        - _floor6(k - j, q)
        + _floor6(n + k - j + (q + 1) // 6, q)
        - _floor6(-j + (q - 5) // 6, q)
        - _floor6(k - j + (q - 2) // 3, q)
        + _floor6(-j + (q - 5) // 3, q)
    )


def _term(case: ValuationCase, level: int) -> int:
    q = case.p**level
    n, k, j = case.n, case.k, case.j
    if case.variant == "expp":
        return _first_shape_term(n, k, j, q)
    if case.variant == "expp2":
        return _second_shape_term(n, k, j, q)
    # p = 5 (mod 6): even levels behave like the 1 (mod 6) formulas, odd
    # levels use the shifted offsets
    if case.variant == "expp3":
        if level % 2 == 0:
            return _first_shape_term(n, k, j, q)
        return _first_shape_term_5mod6(n, k, j, q)
    if level % 2 == 0:
        return _second_shape_term(n, k, j, q)
    return _second_shape_term_5mod6(n, k, j, q)


def legendre_vp_sum(case: ValuationCase) -> int:
    """Evaluate the floor-term sum, truncated at the first level l with
    p^l > 6(n+k+1); one further term is checked to vanish."""
    cutoff = 6 * (case.n + case.k + 1)
    total = 0
    level = 1
    while case.p ** (level - 1) <= cutoff:
        total += _term(case, level)
        level += 1
    certify(_term(case, level) == 0, "the floor sum vanishes past the truncation level")
    return total


def _poch_ratio(top_start: Fraction, top_len: int, bot_start: Fraction, bot_len: int) -> Fraction:
    top = pochhammer(top_start, top_len)
    bot = pochhammer(bot_start, bot_len)
    if top == 0 or bot == 0:
        raise DegenerateParameters("vanishing rising factorial")
    return top / bot


def case_summand(case: ValuationCase) -> Fraction:
    """The exact rational summand whose valuation the floor sum predicts
    (sign included; the valuation ignores it)."""
    n, k, j = case.n, case.k, case.j
    if case.variant in ("expp", "expp3"):
        ratio = _poch_ratio(Fraction(5, 6) - j, n + k + 1, Fraction(2, 3) - j, k + 1)
    else:
        ratio = _poch_ratio(Fraction(1, 6) - j, n + k + 1, Fraction(-2, 3) - j, k + 1)
    return Fraction((-1) ** (k + j) * comb(k, j), factorial(k)) * ratio


def vp_pochhammer_ratio(case: ValuationCase) -> int:
    """Direct valuation of the exact summand; must equal legendre_vp_sum."""
    return vp_rational(case_summand(case), case.p)


def qnk_transformed(family: GroupFamily, n: int, k: int) -> Fraction:
    """The two-sum form of the coefficient of z^(n-k) in Q_n (modular3 only);
    cross-checks the closed-form coefficient route."""
    if family.kind != MODULAR3:
        raise ValueError("transformed coefficients exist for modular3 only")
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    total = Fraction(0)
    for j in range(k + 1):
        w = Fraction((-1) ** (k + j) * comb(k, j), factorial(k))
        total += w * _poch_ratio(Fraction(5, 6) - j, n + k + 1, Fraction(2, 3) - j, k + 1)
        total += w * _poch_ratio(Fraction(1, 6) - j, n + k + 1, Fraction(-2, 3) - j, k + 1)
    return Fraction((-1) ** n) * (6 * family.m) ** (n - k) * total


def lemma_divisibility(family: GroupFamily, p: int, n: int) -> bool:
    """Instance check: for n in a stable congruence class, the coefficients
    of Q_n agree with Q_d mod p up to degree d and vanish mod p beyond it.

    This verifies single instances by direct computation; it is evidence
    for, not a proof of, the universally quantified statement.
    """
    classes = congruence_classes(family, p)
    if n % p not in classes:
        raise InvalidCongruenceClass(
            f"n = {n} is not = {classes[0]} or {classes[1]} (mod {p})"
        )
    params = params_for(family)
    d_full = classes[0]
    d = 0 if family.m % p == 0 else d_full
    qn = [pade_coeff_q(params, n, j) for j in range(n + 1)]
    qd = [pade_coeff_q(params, d_full, j) for j in range(d_full + 1)]
    for j in range(n + 1):
        ref = qd[j] if j <= d else Fraction(0)
        if (qn[j] - ref) % p != 0:
            return False
    if d == 0:
        # p | m: the stable denominator itself collapses to 1
        for j in range(1, d_full + 1):
            if qd[j] % p != 0:
                return False
    return True
