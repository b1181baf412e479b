"""Exact free-subgroup counting sequences for lifts of the inhomogeneous
modular group and of the q=4 Hecke group, their closed-form rational
approximants, and their behaviour modulo prime powers.

All arithmetic is exact (big integers, rationals, Z/p^alpha); every value is
immutable after construction, so everything here is safe to use from
concurrent tasks.
"""

from .exact import ModRingCtx, mod_reduce, pochhammer, vp_rational
from .groups import (
    GroupFamily,
    congruence_classes,
    free_subgroup_numbers,
    params_for,
    stable_degree,
)
from .poly import (
    Factorization,
    Poly,
    Series,
    ext_gcd_coprime,
    factor_mod_p,
    hensel_lift,
    series_div,
)
from .periods import analyze, detect_period, order_bound, predicted_period
from .reduce import (
    RationalFormModPA,
    denominator_base,
    emit,
    expand_form,
    pade_route,
    rational_form,
    reduce_series,
)
from .riccati import (
    PadePair,
    RiccatiParams,
    build_pade,
    pade_coeff_p,
    pade_coeff_q,
    pade_oracle,
    pade_pair,
    residual_constant,
    riccati_series,
    verify_gosper,
    verify_identity,
)
from .valuations import (
    ValuationCase,
    lemma_divisibility,
    legendre_vp_sum,
    qnk_transformed,
    vp_pochhammer_ratio,
)

__version__ = "0.1.0"
