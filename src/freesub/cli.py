"""Command-line front end.  Deterministic, machine-readable output.

Subcommands: counts, pade, reduce, pfrac, period, lemmas, reproduce.
Exit codes: 1 `lemmas` found a failing instance, 2 invalid configuration
(unsupported prime included), 3 degenerate parameters (the closed-form route
forced, or a stable denominator that is not squarefree mod p), 4 numerator
search window exhausted, 5 period horizon too short, 6 golden reproduction
mismatch, 7 any other library error (a failed certification check, no Bezout
identity, a broken integrality or an inconsistent Pade system), 141 stdout
closed before the output was written (a broken pipe, as under `| head`;
128 + SIGPIPE).  `--seed` is accepted everywhere, and no result depends on it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from fractions import Fraction

from .errors import (
    DegenerateParameters,
    DegreeBoundExceeded,
    FreesubError,
    HorizonTooShort,
    UnsupportedPrime,
)
from .exact import ModRingCtx
from .groups import GroupFamily, congruence_classes, free_subgroup_numbers, params_for
from .periods import analyze, analysis_json_dict
from .reduce import _latex_factor, _poly_str, emit, rational_form, to_json_dict
from .riccati import RiccatiParams, build_pade, verify_gosper, verify_identity
from .valuations import lemma_divisibility

EXIT_BAD_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_DEGREE_BOUND = 4
EXIT_HORIZON = 5
EXIT_GOLDEN_MISMATCH = 6
EXIT_LIBRARY_ERROR = 7
EXIT_BROKEN_PIPE = 141


def _family(args) -> GroupFamily:
    return GroupFamily(args.family, args.m)


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift CPython's limit on int -> str conversion (4300 digits by
    default), which exact counts pass from about f_1250 on, and approximant
    coefficients from about n = 800; the process-wide setting is restored
    on exit.  Interpreters before 3.10.7 have no limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def cmd_counts(args) -> int:
    values = free_subgroup_numbers(_family(args), args.count)
    with _unlimited_int_digits():
        if args.format == "json":
            print(
                json.dumps(
                    {
                        "family": args.family,
                        "m": args.m,
                        "values": list(values),
                    }
                )
            )
        else:
            print(" ".join(str(v) for v in values))
    return 0


def cmd_pade(args) -> int:
    if args.family is not None:
        given = [f"--{name}" for name in "ABCD" if getattr(args, name) is not None]
        if given:
            print(f"pade takes either --family or {' '.join(given)}, not both", file=sys.stderr)
            return EXIT_BAD_CONFIG
        params = params_for(GroupFamily(args.family, args.m or 1))  # --m is None unless given
    else:
        if None in (args.A, args.B, args.C, args.D):
            print("pade needs either --family or all of --A --B --C --D", file=sys.stderr)
            return EXIT_BAD_CONFIG
        if args.m is not None:
            print("pade takes --m only with --family, not with --A --B --C --D", file=sys.stderr)
            return EXIT_BAD_CONFIG
        params = RiccatiParams(args.A, args.B, args.C, args.D)
    pair, route = build_pade(params, args.n, allow_fallback=not args.closed_form_only)
    # every line is rendered before the first is printed, so a failure
    # leaves stdout empty rather than holding part of the answer
    with _unlimited_int_digits():
        lines = [
            f"P: {_poly_str(pair.p)}",
            f"Q: {_poly_str(pair.q)}",
            f"residual: {pair.residual_const}",
            f"route: {route}",
        ]
    if args.verify:
        lines.append(f"identity: {'OK' if verify_identity(pair, params) else 'FAIL'}")
        if args.n < 1:
            lines.append("gosper: skipped (n = 0)")
        else:
            try:
                lines.append(f"gosper: {'OK' if verify_gosper(params, args.n) else 'FAIL'}")
            except DegenerateParameters:
                lines.append("gosper: skipped (degenerate parameters)")
    print("\n".join(lines))
    return 0


def _form_for(args):
    ctx = ModRingCtx(args.p, args.alpha)
    return rational_form(_family(args), ctx, length=args.length, window=args.window)


def cmd_reduce(args) -> int:
    form = _form_for(args)
    print(emit(form, args.format))
    return 0


def cmd_pfrac(args) -> int:
    form = _form_for(args)
    if args.format == "json":
        print(json.dumps(to_json_dict(form)["fractions"]))
    else:
        for t in form.fractions:
            print(f"({_latex_factor(t.factor)})^{t.exponent}: {_poly_str(t.residue)}")
    return 0


def cmd_period(args) -> int:
    ctx = ModRingCtx(args.p, args.alpha)
    res = analyze(_family(args), ctx, args.horizon, length=args.length, window=args.window)
    if args.format == "json":
        print(json.dumps(analysis_json_dict(res)))
    else:
        match = "n/a" if res.match is None else ("yes" if res.match else "no")
        predicted = "n/a" if res.predicted is None else res.predicted
        bound = "n/a" if res.order_bound is None else res.order_bound
        print(
            f"period={res.period} predicted={predicted} match={match} "
            f"preperiod={res.preperiod} horizon={res.verified_horizon} "
            f"order_bound={bound}" + ("" if res.minimal else " minimal=no")
        )
    return 0


def cmd_lemmas(args) -> int:
    fam = _family(args)
    classes = congruence_classes(fam, args.p)
    print(
        f"# instance checks (evidence, not proof): family={args.family} m={args.m} "
        f"p={args.p} classes {classes[0]},{classes[1]} (mod {args.p})"
    )
    failures = 0
    for n in range(1, args.n_max + 1):
        if n % args.p not in classes:
            continue
        ok = lemma_divisibility(fam, args.p, n)
        print(f"n={n}: {'OK' if ok else 'FAIL'}")
        failures += 0 if ok else 1
    return 1 if failures else 0


_PRESETS = {
    "free7^5": ("modular3", 1, 7, 5, "free7_5.tex"),
    "free11^5": ("modular3", 1, 11, 5, "free11_5.tex"),
    "free13^5": ("modular3", 1, 13, 5, "free13_5.tex"),
}


def _golden_text(name: str) -> str:
    from importlib import resources  # reproduce alone reads the goldens

    return resources.files("freesub").joinpath("golden", name).read_text(encoding="utf-8")


def _whitespace_insensitive_equal(a: str, b: str) -> bool:
    return "".join(a.split()) == "".join(b.split())


def _diff(expected: str, actual: str) -> str:
    import difflib  # printed only on a golden mismatch

    return "\n".join(
        difflib.unified_diff(
            expected.splitlines(), actual.splitlines(), "golden", "computed", lineterm=""
        )
    )


def cmd_reproduce(args) -> int:
    name = args.name
    if name in _PRESETS:
        kind, m, p, alpha, golden_file = _PRESETS[name]
        form = rational_form(GroupFamily(kind, m), ModRingCtx(p, alpha))
        actual = emit(form, "latex")
    elif name == "periods-17":
        golden_file = "periods_17.txt"
        lines = []
        for alpha in (1, 2, 3):
            res = analyze(GroupFamily("modular3", 1), ModRingCtx(17, alpha))
            lines.append(f"p=17 alpha={alpha} period={res.period}")
        actual = "\n".join(lines)
    else:
        print(f"unknown preset {name!r}; choose from {sorted(_PRESETS) + ['periods-17']}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    golden = _golden_text(golden_file)
    if _whitespace_insensitive_equal(golden, actual):
        print(f"{name}: OK")
        return 0
    print(_diff(golden, actual))
    if name == "periods-17":
        print(
            "note: the quoted minimal periods for 17^2 and 17^3 are not attained; "
            "the detected values divide them (see README)",
            file=sys.stderr,
        )
    return EXIT_GOLDEN_MISMATCH


def _at_least(lo: int):
    def parse(s):
        v = int(s)
        if v < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}")
        return v

    return parse


def _rational(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid rational value {s!r}") from None


def _seed(p) -> None:
    p.add_argument("--seed", type=int, default=0, help="accepted for compatibility; no result depends on it")


def build_parser() -> argparse.ArgumentParser:
    """A new parser, for the caller to change; `main` parses with `_parser()`."""
    top = argparse.ArgumentParser(prog="freesub", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, family_required=True):
        p.add_argument(
            "--family",
            choices=["modular3", "hecke4"],
            default=None if family_required else "modular3",
            required=family_required,
        )
        p.add_argument("--m", type=_at_least(1), default=1)
        _seed(p)

    c = sub.add_parser("counts", help="exact subgroup counts f_1..f_L")
    common(c)
    c.add_argument("--count", type=_at_least(1), required=True)
    c.add_argument("--format", choices=["text", "json"], default="text")
    c.set_defaults(func=cmd_counts)

    c = sub.add_parser("pade", help="order-n approximant pair")
    c.add_argument("--family", choices=["modular3", "hecke4"], default=None)
    c.add_argument("--m", type=_at_least(1))
    c.add_argument("--n", type=_at_least(0), required=True)
    for name in "ABCD":
        c.add_argument(f"--{name}", type=_rational)
    c.add_argument("--verify", action="store_true")
    c.add_argument("--closed-form-only", action="store_true")
    _seed(c)
    c.set_defaults(func=cmd_pade)

    for name, fn, formats, help_ in (
        ("reduce", cmd_reduce, ["text", "json", "latex"], "rational form of the series mod p^alpha"),
        ("pfrac", cmd_pfrac, ["text", "json"], "partial fractions of the reduced form"),
        ("period", cmd_period, ["text", "json"], "preperiod and minimal period mod p^alpha"),
    ):
        c = sub.add_parser(name, help=help_)
        common(c, family_required=False)
        c.add_argument("--p", type=_at_least(1), required=True)
        c.add_argument("--alpha", type=_at_least(1), required=True)
        if name == "period":
            c.add_argument("--horizon", type=_at_least(1))
        c.add_argument("--length", type=_at_least(1))
        c.add_argument("--window", type=_at_least(1))
        c.add_argument("--format", choices=formats, default="text")
        c.set_defaults(func=fn)

    c = sub.add_parser("lemmas", help="denominator stability instance checks")
    common(c, family_required=False)
    c.add_argument("--p", type=_at_least(1), required=True)
    c.add_argument("--n-max", type=_at_least(1), required=True)
    c.set_defaults(func=cmd_lemmas)

    c = sub.add_parser("reproduce", help="regenerate a classical display and diff it")
    c.add_argument("name")
    _seed(c)
    c.set_defaults(func=cmd_reproduce)
    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` parses with, built once per process.

    Parsing leaves the parser unchanged, so calls may share it.  The parser
    binds the cmd_* functions when it is built, so a later monkeypatch of
    freesub.cli.cmd_* is not seen; the names the cmd_* functions look up
    when they run (free_subgroup_numbers, build_pade, rational_form, ...)
    are.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader went away (`| head`); what stdout still buffers goes to
        # devnull, so the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except DegreeBoundExceeded as exc:
        print(f"degree bound exceeded: {exc}", file=sys.stderr)
        return EXIT_DEGREE_BOUND
    except HorizonTooShort as exc:
        print(f"horizon too short: {exc}", file=sys.stderr)
        return EXIT_HORIZON
    except UnsupportedPrime as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except DegenerateParameters as exc:
        print(f"degenerate parameters: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except FreesubError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_LIBRARY_ERROR
    except (ValueError,) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
