"""Reduction of the counting series mod p^alpha to a closed rational form.

For an odd prime p not dividing the relevant torsion, the series reduced mod
p^alpha equals a polynomial plus a proper fraction whose denominator is the
alpha-th power of a fixed polynomial of degree d (d from the congruence
class of p; d = 0 when p | m, in which case the series is eventually a
polynomial).  The pipeline here is:

  1. the stable denominator mod p is the degree-d approximant denominator
     Q_d with the family's parameters (an exact integer polynomial);
  2. its irreducible factors mod p are rewritten with constant term 1 and
     balanced coefficients in (-p/2, p/2); the product D of these small
     integer polynomials is the working denominator (any lift of the mod-p
     denominator serves, and this one matches the classical displays);
  3. multiply the reduced series by D^alpha, take the product up to where
     its coefficients become zero (a zero-run) as the numerator N, prove
     N / D^alpha to be the series mod p^alpha to every order by the Riccati
     equation itself, then split into polynomial part plus partial
     fractions over the factor powers.

A second, independent route reduces the explicit approximant P_n/Q_n for an
n chosen so the residual constant vanishes mod p^alpha; by uniqueness of the
series solution both routes must agree, which the tests exercise.
"""

from __future__ import annotations

import json
from math import prod

from .errors import (
    DegenerateParameters,
    DegreeBoundExceeded,
    certify,
)
from .exact import ModRingCtx, Record, vp_rational
from .groups import HECKE4, MODULAR3, GroupFamily, congruence_classes, params_for, stable_degree
from .poly import Factorization, Poly, Series, factor_mod_p, hensel_lift, series_div
from .riccati import pade_pair, residual_factors, riccati_residual, riccati_series

# on a missing or false zero-run the numerator search doubles its length up
# to this many times before it gives up
_MAX_DOUBLINGS = 6


class FractionTerm(Record):
    """residue / factor^exponent with deg(residue) < deg(factor).

    The factor is kept as a small integer polynomial (constant term 1,
    balanced coefficients); the residue as canonical values in [0, p^alpha).
    """

    __slots__ = ("factor", "exponent", "residue")

    def __init__(self, factor: Poly, exponent: int, residue: Poly):
        self._set(factor, exponent, residue)


class RationalFormModPA(Record):
    """poly_part + proper / den_alpha, den_alpha = prod(factors)^alpha, all
    three over the mod ring, deg proper < deg den_alpha.  q_base is the
    exact integer denominator, of degree d; `fractions` holds a FractionTerm
    for every exponent 1..alpha per factor, and `factors` the display
    factors of D, small integer polynomials."""

    __slots__ = (
        "ctx", "family", "d", "q_base", "poly_part", "fractions", "factors", "proper", "den_alpha"
    )

    def __init__(self, ctx, family, d, q_base, poly_part, fractions, factors, proper, den_alpha):
        self._set(ctx, family, d, q_base, poly_part, fractions, factors, proper, den_alpha)


def denominator_base(family: GroupFamily, p: int) -> tuple[int, Poly]:
    """Degree d and the exact integer stable denominator Q_d.

    d is `stable_degree(family, p)`.
    """
    d = stable_degree(family, p)
    if d == 0:
        return 0, Poly.one()
    # the family parameters are integral, so pade_pair raises
    # IntegralityViolation on any non-integer coefficient
    return d, Poly([int(c) for c in pade_pair(params_for(family), d).q.coeffs])


def reduce_series(family: GroupFamily, ctx: ModRingCtx, length: int) -> Series:
    """The counting series (constant term included) reduced mod p^alpha,
    computed directly by the monic recurrence over Z/p^alpha."""
    return riccati_series(params_for(family), length, ctx)


def _balanced(v: int, p: int) -> int:
    v %= p
    return v if v <= p // 2 else v - p


def _display_factors(q_base: Poly, p: int) -> tuple[list[Poly], Factorization]:
    """Irreducible factors of q_base mod p as small integer polynomials with
    constant term 1 and balanced coefficients, by degree, then by
    coefficients mod p.  The monic factors mod p are unique, so the seed of
    the random split in `factor_mod_p` cannot change them."""
    fp = ModRingCtx(p, 1)
    fact = factor_mod_p(q_base.map_ring(fp))
    out = []
    for g, mult in fact.factors:
        if mult != 1:
            raise DegenerateParameters("stable denominator is not squarefree mod p")
        c0 = g.coeff(0)
        inv = pow(c0, -1, p)
        out.append(Poly([_balanced(inv * c, p) for c in g.coeffs]))
    out.sort(key=lambda g: (g.degree, tuple(c % p for c in g.coeffs[1:])))
    return out, fact


def rational_form(
    family: GroupFamily, ctx: ModRingCtx, *, length: int | None = None, window: int | None = None
) -> RationalFormModPA:
    """The rational form of the series mod p^alpha; see `_bounded_numerator`."""
    p, alpha = ctx.p, ctx.alpha
    d, q_base = denominator_base(family, p)
    # with d = 0 there are no factors: D = 1 and the form is a polynomial
    gs, mod_p_factors = _display_factors(q_base, p)
    den_mod = prod(gs, start=Poly.one()).map_ring(ctx)
    # the lifting kernel must reproduce these factors exactly (they are an
    # exact coprime factorization of den already); run it as a cross-check
    lifted = hensel_lift([f for f, _ in mod_p_factors.factors], den_mod)
    certify(
        {g for g, _ in lifted.factors} == {g.map_ring(ctx).monic()[0] for g in gs},
        "Hensel lifting reproduces the display factors",
    )

    den_alpha = den_mod**alpha
    numerator = _bounded_numerator(family, ctx, den_alpha, length, window)
    poly_part, proper = divmod(numerator, den_alpha)
    certify(
        proper.degree < den_alpha.degree and poly_part * den_alpha + proper == numerator,
        "poly_part D^alpha + proper = N",
    )
    fractions = _partial_fractions_over(proper, gs, den_alpha, ctx)
    return RationalFormModPA(
        ctx, family, d, q_base, poly_part, tuple(fractions), tuple(gs), proper, den_alpha
    )


def _bounded_numerator(
    family: GroupFamily, ctx: ModRingCtx, den_alpha: Poly, length: int | None, window: int | None
) -> Poly:
    """Multiply the series S by den = D^alpha on its first L terms; where a
    zero-run of the configured width follows the last nonzero coefficient,
    the product up to it is the candidate N, certified by the identity
    den^2 Phi(N / den) = 0 mod p^alpha (`riccati_residual`).  As den(0) = 1,
    that proves N / den = S mod p^alpha to every order, whatever the series
    engine returned; with den = 1 (d = 0), that the series terminates.

    The default window is 1, and the default start L = deg den + p (alpha -
    1) + 2 leaves one zero past a numerator of degree deg den + p (alpha -
    1), the largest measured (not proven) on either family.  A search with
    no zero-run, or whose candidate fails the identity (a short window can
    stop at a false run), doubles L."""
    for name, value in (("length", length), ("window", window)):
        if value is not None and value < 1:
            raise ValueError(f"{name} must be >= 1, not {value}")
    window = window or 1
    length = length or den_alpha.degree + ctx.p * (ctx.alpha - 1) + 2
    for _ in range(_MAX_DOUBLINGS + 1):
        product = reduce_series(family, ctx, length).mul(den_alpha)
        numerator = Poly._residues(list(product.coeffs), ctx)
        zero_run = length - 1 - numerator.degree >= window
        if zero_run and riccati_residual(params_for(family), numerator, den_alpha).is_zero():
            return numerator
        length *= 2
    # a zero-run on the last search whose candidate fails the identity is a
    # failed certificate, not a short search
    identity = "(1 - Az) N Q - B z^2 (N'Q - N Q') - C z N^2 - (1 + Dz) Q^2 = 0 mod p^alpha"
    certify(not zero_run, identity + ", Q = D^alpha")
    raise DegreeBoundExceeded(
        f"no zero-run of width {window} within {length // 2} terms; "
        "raise the search length (the length argument / --length)"
    )


def _recombine(terms, ctx: ModRingCtx) -> tuple[Poly, Poly]:
    """(N, D^alpha) with sum residue/factor^s = N / D^alpha, where D is the
    product of the terms' distinct factors and alpha their largest exponent.

    Per factor g the terms join by Horner's rule into sum residue_s *
    g^(alpha - s) over g^alpha; the factors then add as plain fractions.
    """
    alpha = max((t.exponent for t in terms), default=0)
    residues = {(t.factor, t.exponent): t.residue for t in terms}
    num, den = Poly.zero(ctx), Poly.one(ctx)
    for g in dict.fromkeys(t.factor for t in terms):
        g_mod = g.map_ring(ctx)
        part = Poly.zero(ctx)
        for s in range(1, alpha + 1):
            part = part * g_mod + residues.get((g, s), Poly.zero(ctx))
        g_alpha = g_mod**alpha
        num, den = num * g_alpha + part * den, den * g_alpha
    return num, den


def _partial_fractions_over(
    proper: Poly, gs: list[Poly], den_alpha: Poly, ctx: ModRingCtx
) -> list[FractionTerm]:
    """Split proper/den_alpha, den_alpha = prod g^alpha over Z/p^alpha, into
    residue/g^s terms, s = 1..alpha.

    Works factor by factor through Bezout inverses; zero residues are kept
    so every (factor, exponent) slot up to alpha is present.  The emitted
    terms are certified to recombine to proper/den_alpha.
    """
    # looked up at call time: the benchmark's trace wraps
    # freesub.poly.ext_gcd_coprime, which a module-level import would bypass
    from .poly import ext_gcd_coprime

    out: list[FractionTerm] = []
    for g in gs:
        g_mod = g.map_ring(ctx)
        g_alpha = g_mod**ctx.alpha
        others = den_alpha // g_alpha
        u, _ = ext_gcd_coprime(others, g_alpha, ctx)
        rest = (proper * u) % g_alpha
        digits = []
        for _ in range(ctx.alpha):
            rest, digit = divmod(rest, g_mod)
            digits.append(digit)
        certify(rest.is_zero(), "the residue expands in at most alpha factor powers")
        for s in range(1, ctx.alpha + 1):
            out.append(FractionTerm(g, s, digits[ctx.alpha - s]))
    certify(_recombine(out, ctx) == (proper, den_alpha), "the partial fractions recombine")
    return out


def expand_form(form: RationalFormModPA, length: int) -> Series:
    """Series expansion of poly_part + proper/D^alpha to `length` terms, one
    power-series quotient (poly_part * D^alpha + proper) / D^alpha."""
    return series_div(form.poly_part * form.den_alpha + form.proper, form.den_alpha, length)


# ---------------------------------------------------------------------------
# the closed-form route
# ---------------------------------------------------------------------------


def pade_route(family: GroupFamily, ctx: ModRingCtx, length: int = 100) -> Series:
    """Reduce the explicit approximant P_n/Q_n instead of the recurrence.

    n is the smallest index (0 included) whose residual constant r has
    p-adic valuation >= alpha; valuations accumulate factor by factor
    (individual factors can carry valuation > 1).  Any such n serves:
    Q_n(0) = 1 and the Riccati operator takes P_n/Q_n to -r z^(2n+1)/Q_n^2,
    which vanishes mod p^alpha, so P_n/Q_n is the series by uniqueness.
    P_n and Q_n are exact integer polynomials, divided only after their
    reduction mod p^alpha.
    """
    p, alpha = ctx.p, ctx.alpha
    params = params_for(family)
    congruence_classes(family, p)  # raises UnsupportedPrime
    acc = 0
    for n, factor in enumerate(residual_factors(params)):
        acc += vp_rational(factor, p) if factor else alpha
        if acc >= alpha:
            break
    pair = pade_pair(params, n)
    return series_div(pair.p.map_ring(ctx), pair.q.map_ring(ctx), length)


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------

JSON_SCHEMA = {
    "type": "object",
    "properties": {
        "family": {"type": "string", "enum": [MODULAR3, HECKE4]},
        "m": {"type": "integer", "minimum": 1},
        "p": {"type": "integer", "minimum": 2},
        "alpha": {"type": "integer", "minimum": 1},
        "d": {"type": "integer", "minimum": 0},
        "q_base": {"type": "array", "items": {"type": "integer"}},
        "poly_part": {"type": "array", "items": {"type": "integer"}},
        "fractions": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "factor": {"type": "array", "items": {"type": "integer"}},
                    "exponent": {"type": "integer", "minimum": 1},
                    "residue": {"type": "array", "items": {"type": "integer"}},
                },
                "required": ["factor", "exponent", "residue"],
                "additionalProperties": False,
            },
        },
    },
    "required": ["family", "m", "p", "alpha", "d", "q_base", "poly_part", "fractions"],
    "additionalProperties": False,
}


def to_json_dict(form: RationalFormModPA) -> dict:
    return {
        "family": form.family.kind,
        "m": form.family.m,
        "p": form.ctx.p,
        "alpha": form.ctx.alpha,
        "d": form.d,
        "q_base": [int(c) for c in form.q_base.coeffs],
        "poly_part": [int(c) for c in form.poly_part.coeffs],
        "fractions": [
            {
                "factor": [int(c) for c in t.factor.coeffs],
                "exponent": t.exponent,
                "residue": [int(c) for c in t.residue.coeffs],
            }
            for t in form.fractions
        ],
    }


def _poly_str(p: Poly, var: str = "z") -> str:
    if p.is_zero():
        return "0"
    parts = []
    for i, c in enumerate(p.coeffs):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append(f"{c}*{var}")
        else:
            parts.append(f"{c}*{var}^{i}")
    return " + ".join(parts)


def _latex_power(e: int) -> str:
    return str(e) if e < 10 else "{" + str(e) + "}"


def _latex_factor(g: Poly) -> str:
    terms = []
    for i, c in enumerate(g.coeffs):
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            mag = "" if abs(c) == 1 else str(abs(c))
            var = "z" if i == 1 else f"z^{_latex_power(i)}"
            terms.append(("-" if c < 0 else "+") + mag + var)
    return "".join(terms)


def _latex_poly_desc(p: Poly) -> list[str]:
    out = []
    for i in range(p.degree, -1, -1):
        c = p.coeff(i)
        if c == 0:
            continue
        if i == 0:
            out.append(str(c))
        elif i == 1:
            out.append(f"{c} z")
        else:
            out.append(f"{c} z^{_latex_power(i)}")
    return out


def emit_latex(form: RationalFormModPA) -> str:
    """Classical display: polynomial part in descending powers, then the
    fractions in ascending exponent per factor; zero residues are omitted;
    factors are rendered with constant term 1 and balanced coefficients."""
    pieces = _latex_poly_desc(form.poly_part)
    for t in form.fractions:
        if t.residue.is_zero():
            continue
        num = _latex_factor(t.residue) if t.residue.degree >= 1 else str(t.residue.coeff(0))
        base = _latex_factor(t.factor)
        den = base if t.exponent == 1 else f"({base})^{_latex_power(t.exponent)}"
        pieces.append(rf"\frac{{{num}}}{{{den}}}")
    body = " + ".join(pieces) if pieces else "0"
    return body + rf"  \pmod{{{form.ctx.p}^{form.ctx.alpha}}}"


def emit_text(form: RationalFormModPA) -> str:
    lines = [
        f"family={form.family.kind} m={form.family.m} "
        f"p={form.ctx.p} alpha={form.ctx.alpha} d={form.d}",
        f"q_base: {_poly_str(form.q_base)}",
        f"poly_part: {_poly_str(form.poly_part)}",
    ]
    for t in form.fractions:
        lines.append(
            f"fraction: ({_latex_factor(t.factor)})^{t.exponent} "
            f"residue {_poly_str(t.residue)}"
        )
    if form.d == 0:
        lines.append("note: polynomial form; the reduced sequence is eventually 0")
    return "\n".join(lines)


def emit(form: RationalFormModPA, format: str = "text") -> str:
    if format == "text":
        return emit_text(form)
    if format == "json":
        return json.dumps(to_json_dict(form), indent=None, sort_keys=False)
    if format == "latex":
        return emit_latex(form)
    raise ValueError(f"unknown format {format!r}")
