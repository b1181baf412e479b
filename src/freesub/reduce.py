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
  3. multiply the reduced series by D^alpha, find where the coefficients
     become identically zero (a verified zero-run), check that the product
     vanishes on enough terms to prove the form to every order, then split
     into polynomial part plus partial fractions over the factor powers.

A second, independent route reduces the explicit approximant P_n/Q_n for an
n chosen so the residual constant vanishes mod p^alpha; by uniqueness of the
series solution both routes must agree, which the tests exercise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import (
    DegenerateParameters,
    DegreeBoundExceeded,
    certify,
)
from .exact import ModRingCtx, vp_rational
from .groups import HECKE4, MODULAR3, GroupFamily, congruence_classes, params_for, stable_degree
from .poly import Factorization, Poly, Series, factor_mod_p, hensel_lift, series_div
from .riccati import pade_pair, pair_series, residual_factors, riccati_series

# window on which the direct mod-p^alpha recurrence is cross-checked against
# reduction of the exact integer series
_EXACT_CHECK_WINDOW = 50

# on a missing or false zero-run the numerator search doubles its length up
# to this many times before it gives up
_MAX_DOUBLINGS = 6


@dataclass(frozen=True)
class FractionTerm:
    """residue / factor^exponent with deg(residue) < deg(factor).

    The factor is kept as a small integer polynomial (constant term 1,
    balanced coefficients); the residue as canonical values in [0, p^alpha).
    """

    factor: Poly
    exponent: int
    residue: Poly


@dataclass(frozen=True)
class RationalFormModPA:
    ctx: ModRingCtx
    family: GroupFamily
    d: int
    q_base: Poly  # exact integer denominator of degree d
    poly_part: Poly  # over the mod ring
    fractions: tuple  # of FractionTerm, every exponent 1..alpha per factor


@dataclass(frozen=True)
class ReduceConfig:
    """Search-window knobs for the numerator hunt.

    length/window of None select the defaults of `_bounded_numerator`.
    """

    length: int | None = None
    window: int | None = None
    seed: int = 0

    def __post_init__(self):
        for name in ("length", "window"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, not {value}")


def denominator_base(family: GroupFamily, p: int) -> tuple[int, Poly]:
    """Degree d and the exact integer stable denominator Q_d.

    d is `stable_degree(family, p)`, and 0 when p divides m.
    """
    d = stable_degree(family, p)
    if family.m % p == 0 or d == 0:
        return 0, Poly.one()
    params = params_for(family)
    pair = pade_pair(params, d)
    certify(all(c.denominator == 1 for c in pair.q.coeffs), "Q_d has integer coefficients")
    return d, Poly([int(c) for c in pair.q.coeffs])


def reduce_series(family: GroupFamily, ctx: ModRingCtx, length: int) -> Series:
    """The counting series (constant term included) reduced mod p^alpha,
    computed directly by the monic recurrence over Z/p^alpha."""
    params = params_for(family)
    s = riccati_series(params, length, ctx)
    w = min(length, _EXACT_CHECK_WINDOW)
    exact = riccati_series(params, w)
    certify(
        all(int(exact.coeffs[i]) % ctx.modulus == s.coeffs[i] for i in range(w)),
        f"the series mod {ctx.p}^{ctx.alpha} reduces the exact series on {w} terms",
    )
    return s


def _balanced(v: int, p: int) -> int:
    v %= p
    return v if v <= p // 2 else v - p


def _display_factors(q_base: Poly, p: int, seed: int) -> tuple[list[Poly], Factorization]:
    """Irreducible factors of q_base mod p as small integer polynomials with
    constant term 1 and balanced coefficients, by degree, then by
    coefficients mod p."""
    fp = ModRingCtx(p, 1)
    fact = factor_mod_p(q_base.map_ring(fp), seed=seed)
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
    family: GroupFamily, ctx: ModRingCtx, config: ReduceConfig = ReduceConfig()
) -> RationalFormModPA:
    """Compute the full rational form of the series mod p^alpha."""
    p, alpha = ctx.p, ctx.alpha
    d, q_base = denominator_base(family, p)
    # with d = 0 there are no factors: D = 1 and the form is a polynomial
    gs, mod_p_factors = _display_factors(q_base, p, config.seed)
    den = Poly.one()
    for g in gs:
        den = den * g
    den_mod = den.map_ring(ctx)
    # the lifting kernel must reproduce these factors exactly (they are an
    # exact coprime factorization of den already); run it as a cross-check
    lifted = hensel_lift([f for f, _ in mod_p_factors.factors], den_mod)
    certify(
        {g for g, _ in lifted.factors} == {g.map_ring(ctx).monic()[0] for g in gs},
        "Hensel lifting reproduces the display factors",
    )

    den_alpha = den_mod**alpha
    numerator = _bounded_numerator(family, ctx, den_alpha, config)
    poly_part, proper = divmod(numerator, den_alpha)
    fractions = _partial_fractions_over(proper, gs, ctx, alpha)
    return RationalFormModPA(ctx, family, d, q_base, poly_part, tuple(fractions))


def _bounded_numerator(
    family: GroupFamily, ctx: ModRingCtx, den_alpha: Poly, config: ReduceConfig
) -> Poly:
    """Multiply the series S by den = D^alpha and certify that the product
    is a polynomial N: a zero-run of the configured width must follow its
    last nonzero coefficient among the first L, and it must vanish past
    that on K = 2 max(L, deg den + 1) terms.  As den(0) = 1, G = N / den
    then reproduces S on K terms, which proves G = S mod p^alpha to every
    order.  With M = max(deg N, deg den) and the ODE Phi(H) = (1 - Az) H -
    B z^2 H' - C z H^2 - 1 - D z, den^2 Phi(G) is a polynomial of degree
    <= 2M + 1 < K that vanishes mod z^K, hence mod p^alpha; the recurrence
    is monic in each new coefficient, so G is the unique solution S.  With
    the denominator 1 (d = 0) this certifies that the series terminates.

    The default window is W = deg den + 32.  The default start L = deg den
    + p (alpha - 1) + W + 1 leaves W zeros past a numerator of degree deg
    den + p (alpha - 1), the largest measured (not proven) on either family;
    an explicit window does not move it.  A search with no zero-run, or
    whose zero-run is not followed by a vanishing tail (a short window can
    stop at a false run), doubles L."""
    default_window = den_alpha.degree + 32
    window = config.window or default_window
    length = config.length or den_alpha.degree + ctx.p * (ctx.alpha - 1) + default_window + 1
    for _ in range(_MAX_DOUBLINGS + 1):
        # one product serves the search on its first L terms and the check on all
        terms = 2 * max(length, den_alpha.degree + 1)
        product = reduce_series(family, ctx, terms).mul(den_alpha).coeffs
        last = max((i for i, c in enumerate(product[:length]) if c), default=-1)
        zero_run = length - 1 - last >= window
        if zero_run and not any(product[last + 1 :]):
            return Poly(product[: last + 1], ctx)
        length *= 2
    # a zero-run on the last search whose tail never vanished is a failed
    # check, not a short search
    certify(not zero_run, f"numerator / denominator reproduces the series on {terms} terms")
    raise DegreeBoundExceeded(
        f"no zero-run of width {window} within {length // 2} terms; "
        "raise the search length (config length / --length)"
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
    proper: Poly, gs: list[Poly], ctx: ModRingCtx, alpha: int
) -> list[FractionTerm]:
    """Split proper/(prod g^alpha) into residue/g^s terms, s = 1..alpha.

    Works factor by factor through Bezout inverses; zero residues are kept
    so every (factor, exponent) slot up to alpha is present.  The emitted
    terms are certified to recombine to proper/(prod g^alpha).
    """
    # looked up at call time: the benchmark's trace wraps
    # freesub.poly.ext_gcd_coprime, which a module-level import would bypass
    from .poly import ext_gcd_coprime

    out: list[FractionTerm] = []
    full = Poly.one(ctx)
    for g in gs:
        full = full * (g.map_ring(ctx) ** alpha)
    for g in gs:
        g_mod = g.map_ring(ctx)
        g_alpha = g_mod**alpha
        others = full // g_alpha
        u, _ = ext_gcd_coprime(others, g_alpha, ctx)
        rest = (proper * u) % g_alpha
        digits = []
        for _ in range(alpha):
            rest, digit = divmod(rest, g_mod)
            digits.append(digit)
        certify(rest.is_zero(), "the residue expands in at most alpha factor powers")
        for s in range(1, alpha + 1):
            out.append(FractionTerm(g, s, digits[alpha - s]))
    certify(_recombine(out, ctx) == (proper, full), "the partial fractions recombine")
    return out


def partial_fractions(
    numerator: Poly, q_base: Poly, ctx: ModRingCtx, alpha: int, seed: int = 0
) -> list[FractionTerm]:
    """Partial fractions of numerator/(D^alpha) where D is the product of
    the balanced constant-term-1 factors of q_base mod p."""
    gs, _ = _display_factors(q_base, ctx.p, seed)
    degsum = sum(g.degree for g in gs)
    if numerator.degree >= alpha * degsum:
        raise ValueError("numerator must be a proper fraction numerator")
    return _partial_fractions_over(numerator, gs, ctx, alpha)


def expand_form(form: RationalFormModPA, length: int) -> Series:
    """Series expansion of poly_part + sum residue/factor^s to `length`
    terms: the fractions join into one N/D^alpha, and the expansion is one
    power-series quotient (poly_part * D^alpha + N) / D^alpha."""
    num, den = _recombine(form.fractions, form.ctx)
    return series_div(form.poly_part * den + num, den, length)


# ---------------------------------------------------------------------------
# the closed-form route
# ---------------------------------------------------------------------------


def pade_route(family: GroupFamily, ctx: ModRingCtx, length: int = 100) -> Series:
    """Reduce the explicit approximant P_n/Q_n instead of the recurrence.

    n is the smallest index in the stable congruence class of p whose
    residual constant has p-adic valuation >= alpha; valuations accumulate
    factor by factor (individual factors can carry valuation > 1).
    """
    p, alpha = ctx.p, ctx.alpha
    m = family.m
    if family.kind == MODULAR3 and (6 * m) % p == 0:
        raise ValueError("needs p coprime to 6m")
    if family.kind == HECKE4 and (2 * m) % p == 0:
        raise ValueError("needs p coprime to 2m")
    params = params_for(family)
    target = congruence_classes(family, p)[0]
    acc = 0
    for n, factor in enumerate(residual_factors(params)):
        acc += vp_rational(factor, p) if factor else alpha
        if n >= 1 and n % p == target and acc >= alpha:
            break
    pair = pade_pair(params, n)
    return pair_series(pair, length, ctx)


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


def from_json_dict(data: dict) -> RationalFormModPA:
    ctx = ModRingCtx(data["p"], data["alpha"])
    family = GroupFamily(data["family"], data["m"])
    return RationalFormModPA(
        ctx,
        family,
        data["d"],
        Poly(data["q_base"]),
        Poly(data["poly_part"], ctx),
        tuple(
            FractionTerm(Poly(t["factor"]), t["exponent"], Poly(t["residue"], ctx))
            for t in data["fractions"]
        ),
    )


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
