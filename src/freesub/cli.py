"""Command-line front end.  Deterministic, machine-readable output.

Subcommands: counts, pade, reduce, pfrac, period, lemmas, reproduce.
Exit codes: 2 invalid configuration (unsupported prime included), 3
degenerate parameters (the closed-form route forced, or a stable denominator
that is not squarefree mod p), 4 numerator search window exhausted, 5 period
horizon too short, 6 golden reproduction mismatch, 7 any other library error
(a failed certification check, no Bezout identity, a broken integrality or an
inconsistent Pade system).

FREESUB_CONFIG may name a JSON file of default option values (keys matching
the long option names); explicit flags always win.  A value is checked like
the same text on the command line; null leaves the built-in default.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import json
import os
import sys
from importlib import resources
from typing import NoReturn

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
from .reduce import ReduceConfig, _latex_factor, _poly_str, emit, rational_form, to_json_dict
from .riccati import RiccatiParams, build_pade, verify_gosper, verify_identity
from .valuations import lemma_divisibility

EXIT_BAD_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_DEGREE_BOUND = 4
EXIT_HORIZON = 5
EXIT_GOLDEN_MISMATCH = 6
EXIT_LIBRARY_ERROR = 7


def _config_error(message) -> NoReturn:
    path = os.environ["FREESUB_CONFIG"]
    print(f"invalid configuration: FREESUB_CONFIG={path}: {message}", file=sys.stderr)
    raise SystemExit(EXIT_BAD_CONFIG)


def _env_defaults() -> dict:
    path = os.environ.get("FREESUB_CONFIG")
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("the JSON value is not an object")
    except (OSError, ValueError) as exc:
        _config_error(exc)
    # argparse runs an option's type on string defaults only
    return {key: str(value) for key, value in data.items() if value is not None}


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
    series = free_subgroup_numbers(_family(args), args.count)
    with _unlimited_int_digits():
        if args.format == "json":
            print(
                json.dumps(
                    {
                        "family": args.family,
                        "m": args.m,
                        "values": list(series.values),
                    }
                )
            )
        else:
            print(" ".join(str(v) for v in series.values))
    return 0


def cmd_pade(args) -> int:
    if args.family is not None:
        params = params_for(_family(args))
    else:
        if None in (args.A, args.B, args.C, args.D):
            print("pade needs either --family or all of --A --B --C --D", file=sys.stderr)
            return EXIT_BAD_CONFIG
        params = RiccatiParams.of(args.A, args.B, args.C, args.D, args.E)
    try:
        pair, route = build_pade(params, args.n, allow_fallback=not args.closed_form_only)
    except DegenerateParameters as exc:
        print(f"degenerate parameters: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
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
        try:
            ok = verify_gosper(params, args.n) if args.n >= 1 else True
            lines.append(f"gosper: {'OK' if ok else 'FAIL'}")
        except DegenerateParameters:
            lines.append("gosper: skipped (degenerate parameters)")
    print("\n".join(lines))
    return 0


def _form_for(args):
    config = ReduceConfig(length=args.length, window=args.window, seed=args.seed)
    return rational_form(_family(args), ModRingCtx(args.p, args.alpha), config)


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
    config = ReduceConfig(length=args.length, window=args.window, seed=args.seed)
    res = analyze(_family(args), ModRingCtx(args.p, args.alpha), args.horizon, config)
    if args.format == "json":
        print(json.dumps(analysis_json_dict(res)))
    else:
        match = "n/a" if res.match is None else ("yes" if res.match else "no")
        predicted = "n/a" if res.predicted is None else res.predicted
        print(
            f"period={res.report.period} predicted={predicted} match={match} "
            f"preperiod={res.report.preperiod} horizon={res.report.verified_horizon} "
            f"order_bound={res.order_bound}" + ("" if res.report.minimal else " minimal=no")
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
    return resources.files("freesub").joinpath("golden", name).read_text(encoding="utf-8")


def _whitespace_insensitive_equal(a: str, b: str) -> bool:
    return "".join(a.split()) == "".join(b.split())


def _diff(expected: str, actual: str) -> str:
    return "\n".join(
        difflib.unified_diff(
            expected.splitlines(), actual.splitlines(), "golden", "computed", lineterm=""
        )
    )


def cmd_reproduce(args) -> int:
    name = args.name
    if name in _PRESETS:
        kind, m, p, alpha, golden_file = _PRESETS[name]
        form = rational_form(GroupFamily(kind, m), ModRingCtx(p, alpha), ReduceConfig(seed=args.seed))
        actual = emit(form, "latex")
    elif name == "periods-17":
        golden_file = "periods_17.txt"
        lines = []
        for alpha in (1, 2, 3):
            res = analyze(GroupFamily("modular3", 1), ModRingCtx(17, alpha))
            lines.append(f"p=17 alpha={alpha} period={res.report.period}")
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


def build_parser() -> argparse.ArgumentParser:
    defaults = _env_defaults()
    top = argparse.ArgumentParser(prog="freesub", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, family_required=True):
        p.add_argument(
            "--family",
            choices=["modular3", "hecke4"],
            default=defaults.get("family", "modular3" if not family_required else None),
            required=family_required and "family" not in defaults,
        )
        p.add_argument("--m", type=_at_least(1), default=defaults.get("m", 1))
        p.add_argument("--seed", type=int, default=defaults.get("seed", 0))

    c = sub.add_parser("counts", help="exact subgroup counts f_1..f_L")
    common(c)
    c.add_argument("--count", type=_at_least(1), required=True)
    c.add_argument("--format", choices=["text", "json"], default=defaults.get("format", "text"))
    c.set_defaults(func=cmd_counts)

    c = sub.add_parser("pade", help="order-n approximant pair")
    c.add_argument("--family", choices=["modular3", "hecke4"], default=None)
    c.add_argument("--m", type=_at_least(1), default=defaults.get("m", 1))
    c.add_argument("--n", type=_at_least(0), required=True)
    for name in "ABCDE":
        c.add_argument(f"--{name}", type=int, default=None)
    c.add_argument("--verify", action="store_true")
    c.add_argument("--closed-form-only", action="store_true")
    c.add_argument("--seed", type=int, default=defaults.get("seed", 0))
    c.set_defaults(func=cmd_pade)

    for name, fn, formats, help_ in (
        ("reduce", cmd_reduce, ["text", "json", "latex"], "rational form of the series mod p^alpha"),
        ("pfrac", cmd_pfrac, ["text", "json"], "partial fractions of the reduced form"),
    ):
        c = sub.add_parser(name, help=help_)
        common(c, family_required=False)
        c.add_argument("--p", type=_at_least(1), required=True)
        c.add_argument("--alpha", type=_at_least(1), required=True)
        c.add_argument("--length", type=_at_least(1), default=defaults.get("length"))
        c.add_argument("--window", type=_at_least(1), default=defaults.get("window"))
        c.add_argument("--format", choices=formats, default=defaults.get("format", "text"))
        c.set_defaults(func=fn)

    c = sub.add_parser("period", help="preperiod and minimal period mod p^alpha")
    common(c, family_required=False)
    c.add_argument("--p", type=_at_least(1), required=True)
    c.add_argument("--alpha", type=_at_least(1), required=True)
    c.add_argument("--horizon", type=_at_least(1), default=None)
    c.add_argument("--length", type=_at_least(1), default=defaults.get("length"))
    c.add_argument("--window", type=_at_least(1), default=defaults.get("window"))
    c.add_argument("--format", choices=["text", "json"], default=defaults.get("format", "text"))
    c.set_defaults(func=cmd_period)

    c = sub.add_parser("lemmas", help="denominator stability instance checks")
    common(c, family_required=False)
    c.add_argument("--p", type=_at_least(1), required=True)
    c.add_argument("--n-max", type=_at_least(1), required=True)
    c.set_defaults(func=cmd_lemmas)

    c = sub.add_parser("reproduce", help="regenerate a classical display and diff it")
    c.add_argument("name")
    c.add_argument("--seed", type=int, default=defaults.get("seed", 0))
    c.set_defaults(func=cmd_reproduce)

    # argparse checks choices on the command line only; main checks the
    # options whose default is a config value
    for c in sub.choices.values():
        c.set_defaults(
            config_choices={
                a.dest: a.choices
                for a in c._actions
                if a.choices and a.dest in defaults and a.default == defaults[a.dest]
            }
        )
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for dest, choices in args.config_choices.items():
        value = getattr(args, dest)
        if value not in choices:
            _config_error(f"{dest}={value!r} is not one of {', '.join(choices)}")
    try:
        return args.func(args)
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
