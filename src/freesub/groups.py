"""Group families whose free-subgroup counting sequences this package
computes.

Only the parameter tuples matter here: the amalgams C_2m *_Cm C_3m (lifts of
the inhomogeneous modular group, index 6m*lambda) and C_2m *_Cm C_4m (lifts
of the q=4 Hecke group, index 4m*lambda) both have counting generating
functions solving the quadratic ODE handled in `riccati`, with

    modular3:  A = 6m-2, B = 6m, C = 1, D = 1-6m+5m^2, so E = 4m
    hecke4:    A = 4m-2, B = 4m, C = 1, D = 1-4m+3m^2, so E = 2m
"""

from __future__ import annotations

from .errors import UnsupportedPrime
from .exact import Record, is_prime, require_ints
from .riccati import RiccatiParams, riccati_series

MODULAR3 = "modular3"
HECKE4 = "hecke4"
KINDS = (MODULAR3, HECKE4)


class GroupFamily(Record):
    __slots__ = ("kind", "m")

    def __init__(self, kind: str, m: int = 1):
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        require_ints(m=m)
        if m < 1:
            raise ValueError("m must be >= 1")
        self._set(kind, m)


def params_for(family: GroupFamily) -> RiccatiParams:
    m = family.m
    if family.kind == MODULAR3:
        return RiccatiParams(6 * m - 2, 6 * m, 1, 1 - 6 * m + 5 * m * m)
    return RiccatiParams(4 * m - 2, 4 * m, 1, 1 - 4 * m + 3 * m * m)


def stable_degree(family: GroupFamily, p: int) -> int:
    """Degree d of the denominator Q_d that Q_n settles to mod p for n in a
    stable congruence class: the class degree of `congruence_classes`, or 0
    when p divides m, where the stable denominator collapses to 1.

    Raises UnsupportedPrime unless p is a prime >= 5 (modular3) or >= 3
    (hecke4).
    """
    d = congruence_classes(family, p)[0]
    return 0 if family.m % p == 0 else d


def congruence_classes(family: GroupFamily, p: int) -> tuple[int, int]:
    """The two residues d and -1-d of n mod p for which Q_n stabilises to
    Q_d, with d = (p-1)//6 for modular3 and (p-1)//4 for hecke4 whatever m."""
    lowest, parts = (5, 6) if family.kind == MODULAR3 else (3, 4)
    if p < lowest or not is_prime(p):
        raise UnsupportedPrime(f"{family.kind} needs a prime p >= {lowest}, not {p}")
    d = (p - 1) // parts
    return d, p - 1 - d


def free_subgroup_numbers(family: GroupFamily, length: int) -> tuple:
    """f_1..f_length, exact, as a tuple; the implicit f_0 is 1.  The family
    parameters are integers, so the series engine runs with scale 1 and
    every coefficient is an int.  A, B, C and A + C + D = 5m^2 or 3m^2 are
    positive, so every weight beta_h and gamma_h of the engine's J-fraction
    is positive, and its path sums add no negative term."""
    if length < 1:
        raise ValueError("length must be >= 1")
    return riccati_series(params_for(family), length + 1).coeffs[1:]

