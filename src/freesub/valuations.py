"""Executable p-adic valuation identities for the denominator coefficients.

After a hypergeometric transformation, the coefficient of z^(n-k) in Q_n for
the modular3 family takes the two-sum shape

    q_{n,n-k} = (-1)^n (6m)^(n-k) * ( sum_j u_j  +  sum_j w_j ),

    u_j = (-1)^(k+j)/(j! (k-j)!) * (5/6 - j)_{n+k+1} / (2/3 - j)_{k+1}
    w_j = (-1)^(k+j)/(j! (k-j)!) * (1/6 - j)_{n+k+1} / (-2/3 - j)_{k+1}

`_SHIFTS` holds the two shapes as the (top, bottom) starts at j = 0.  For a
prime p = 1 or 5 (mod 6), the p-adic valuation of a summand is one floor sum
over the levels q = p^l, l >= 1.  Each start x has denominator 3 or 6, a unit
in Z_p, so with r = x mod q:

  1. v_p((x)_N) = sum_q #{0 <= i < N : q | x + i}, as in Legendre's formula;
  2. q | x + i exactly when q | r + i, so the count is the number of
     multiples of q in [r, r + N - 1], floor((N-1+r)/q) - floor((r-1)/q);
  3. v_p(j! (k-j)!) = sum_q floor(j/q) + floor((k-j)/q).

The level-q term is therefore the count for the top rising factorial, minus
the count for the bottom one, minus floor(j/q) + floor((k-j)/q).

The offsets r depend on q mod 6.  Written out by hand they make four variants,
kept as the public names `expp`/`expp2` (u/w shape, p = 1 mod 6) and
`expp3`/`expp4` (u/w shape, p = 5 mod 6, where odd levels have q = 5 mod 6).
A classical display of the w shape at those odd levels circulates with the
offsets (2q-1)/3 and (2q-4)/3 in place of (q-2)/3 and (q-5)/3; that pair is
shifted by (q+1)/3, not by a multiple of q, and fails the direct valuation
cross-check.  Here r is computed from the shift, so no offset is typed out.

This module checks the floor sum against direct valuation of the exact
rational summands, and checks the congruence-class divisibility of high Q_n
coefficients by direct computation for both group families.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .errors import DegenerateParameters, InvalidCongruenceClass, certify
from .exact import Record, is_prime, pochhammer, require_ints, vp_rational
from .groups import MODULAR3, GroupFamily, congruence_classes, params_for, stable_degree
from .poly import Poly
from .riccati import pade_pair

# the summand shapes: starts of (top)_{n+k+1} / (bottom)_{k+1} at j = 0
_SHIFTS = {
    "u": (Fraction(5, 6), Fraction(2, 3)),
    "w": (Fraction(1, 6), Fraction(-2, 3)),
}

# variant -> (summand shape, p mod 6)
_VARIANTS = {"expp": ("u", 1), "expp2": ("w", 1), "expp3": ("u", 5), "expp4": ("w", 5)}
VARIANTS = tuple(_VARIANTS)


class ValuationCase(Record):
    __slots__ = ("p", "n", "k", "j", "variant")

    def __init__(self, p: int, n: int, k: int, j: int, variant: str):
        if variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        require_ints(p=p, n=n, k=k, j=j)
        if not 0 <= j <= k <= n:
            raise ValueError("need 0 <= j <= k <= n")
        want = _VARIANTS[variant][1]
        if p % 6 != want:
            raise ValueError(f"variant {variant} needs p = {want} (mod 6)")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self._set(p, n, k, j, variant)


def _multiples(x: Fraction, length: int, q: int) -> int:
    """How many of x, x+1, ..., x+length-1 are multiples of q in Z_p."""
    r = x.numerator * pow(x.denominator, -1, q) % q
    return (length - 1 + r) // q - (r - 1) // q


def _term(case: ValuationCase, level: int) -> int:
    """The level-l summand of the floor sum, q = p^l."""
    q, k, j = case.p**level, case.k, case.j
    top, bottom = _SHIFTS[_VARIANTS[case.variant][0]]
    top_count = _multiples(top - j, case.n + k + 1, q)
    return top_count - _multiples(bottom - j, k + 1, q) - j // q - (k - j) // q


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


def _summand(shape: str, n: int, k: int, j: int) -> Fraction:
    """The j-th summand u_j or w_j of the two-sum form."""
    top, bottom = _SHIFTS[shape]
    ratio = _poch_ratio(top - j, n + k + 1, bottom - j, k + 1)
    return Fraction((-1) ** (k + j) * comb(k, j), factorial(k)) * ratio


def case_summand(case: ValuationCase) -> Fraction:
    """The exact rational summand whose valuation the floor sum predicts
    (sign included; the valuation ignores it)."""
    return _summand(_VARIANTS[case.variant][0], case.n, case.k, case.j)


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
    total = sum(_summand(shape, n, k, j) for j in range(k + 1) for shape in _SHIFTS)
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
    d_full, d = classes[0], stable_degree(family, p)
    # Q_n and Q_(d_full) agree mod p with Q_(d_full) cut at degree d (1 if p | m)
    qn, qd = (pade_pair(params_for(family), k).q for k in (n, d_full))
    ref = Poly(qd.coeffs[: d + 1])
    return all(c % p == 0 for q in (qn, qd) for c in (q - ref).coeffs)
