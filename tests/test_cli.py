import argparse
import hashlib
import json
import os
import re
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

import freesub.cli
import freesub.reduce
from freesub.cli import main
from freesub.errors import (
    CertificationFailed,
    IntegralityViolation,
    NotCoprime,
    SingularPadeSystem,
)
from freesub.periods import PERIOD_SCHEMA
from freesub.poly import Factorization, Poly, Series
from freesub.reduce import JSON_SCHEMA
from freesub.riccati import PadePair


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# exit code and stdout digest of every command, recorded with the search
# start alpha d + 2 p alpha + 64 that the derived start replaced; d = 0
# forms (modular3 p = 5, p | m, hecke4 p = 3), the doubling fallback and
# the error exits are included; the `period` entries at p = 31 to 101, whose
# periods are too long for the window scan, were recorded while a prefix of
# 262144 terms was still compared with its shift
CLI_DIGESTS = json.loads((Path(__file__).parent / "cli_digests.json").read_text())


def _digest(code, out) -> dict:
    return {"exit_code": code, "stdout_sha256": hashlib.sha256(out.encode("utf-8")).hexdigest()}


def test_counts(capsys):
    code, out, _ = run(capsys, "counts", "--family", "modular3", "--m", "1", "--count", "3")
    assert code == 0 and out.strip() == "5 60 1105"
    code, out, _ = run(capsys, "counts", "--family", "hecke4", "--m", "1", "--count", "3")
    assert code == 0 and out.strip() == "3 24 297"


def test_counts_bad_config_exit2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["counts", "--family", "modular3", "--count", "0"])
    assert exc.value.code == 2


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit")
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_counts_print_past_the_int_digit_limit(capsys, monkeypatch, fmt):
    # 5001 digits, past CPython's default limit of 4300 for int -> str
    big = 10**5000 + 7
    monkeypatch.setattr(freesub.cli, "free_subgroup_numbers", lambda family, count: (5, big))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(capsys, "counts", "--family", "modular3", "--count", "2", "--format", fmt)
        # the process-wide limit is back once the command returns
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)
    digits = "1" + "0" * 4999 + "7"
    if fmt == "json":
        assert out == '{"family": "modular3", "m": 1, "values": [5, ' + digits + "]}\n"
    else:
        assert out == "5 " + digits + "\n"
    assert code == 0 and err == ""


@pytest.mark.slow
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_counts_1250_prints(capsys, fmt):
    # f_1250 of modular3 has more than 4300 digits; the digits are read back
    # as text, which no limit applies to
    code, out, err = run(capsys, "counts", "--family", "modular3", "--count", "1250", "--format", fmt)
    assert code == 0 and err == ""
    digits = json.loads(out, parse_int=str)["values"] if fmt == "json" else out.split()
    assert len(digits) == 1250 and len(digits[-1]) > 4300
    assert digits[:3] == ["5", "60", "1105"]


def test_counts_json(capsys):
    code, out, _ = run(capsys, "counts", "--family", "modular3", "--count", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"family": "modular3", "m": 1, "values": [5, 60]}


def test_pade_family_shortcut(capsys):
    code, out, _ = run(capsys, "pade", "--family", "modular3", "--m", "1", "--n", "1")
    assert code == 0
    assert "P: 1 + -7*z" in out
    assert "Q: 1 + -12*z" in out
    assert "residual: 385" in out
    assert "route: closed-form" in out


@pytest.mark.parametrize(
    "coefficients,named",
    [(("--A", "1", "--B", "1", "--C", "1", "--D", "1"), "--A --B --C --D")],
    ids=["A-to-D"],
)
def test_pade_family_with_coefficients_exit2(capsys, coefficients, named):
    # --family sets all four coefficients, so a given one would be ignored
    code, out, err = run(capsys, "pade", "--family", "modular3", *coefficients, "--n", "2")
    assert code == 2 and out == ""
    assert err == f"pade takes either --family or {named}, not both\n"


def test_pade_m_without_family_exit2(capsys):
    # --m picks the lift of a family; given coefficients have no m to apply it to
    code, out, err = run(capsys, "pade", "--A", "1", "--B", "1", "--C", "1", "--D", "0", "--n", "2", "--m", "5")
    assert (code, out, err) == (2, "", "pade takes --m only with --family, not with --A --B --C --D\n")


def test_pade_m_with_family_defaults_to_1(capsys):
    one = run(capsys, "pade", "--family", "hecke4", "--n", "3")
    assert one[0] == 0 and run(capsys, "pade", "--family", "hecke4", "--m", "1", "--n", "3") == one
    # hecke4 at m = 2 is A = 6, B = 8, C = 1, D = 5
    two = run(capsys, "pade", "--family", "hecke4", "--m", "2", "--n", "3")
    assert two != one
    assert run(capsys, "pade", "--A", "6", "--B", "8", "--C", "1", "--D", "5", "--n", "3") == two


def test_pade_e_is_an_unknown_option_exit2(capsys):
    # E is derived from A..D, so it is not an input
    with pytest.raises(SystemExit) as exc:
        main(["pade", "--A", "4", "--B", "6", "--C", "1", "--D", "0", "--E", "4", "--n", "2"])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert "unrecognized arguments: --E 4" in out.err


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit")
def test_pade_prints_past_the_int_digit_limit(capsys, monkeypatch):
    # a 5001-digit coefficient, past CPython's default limit of 4300 digits:
    # the whole answer is printed, and the process-wide limit is restored
    big = 10**5000 + 7
    pair = PadePair(1, Poly([1, big]), Poly([1, -big]), Fraction(big, 3))
    monkeypatch.setattr(freesub.cli, "build_pade", lambda params, n, allow_fallback: (pair, "closed-form"))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(capsys, "pade", "--family", "modular3", "--n", "1")
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)
    digits = "1" + "0" * 4999 + "7"
    assert code == 0 and err == ""
    assert out == (
        f"P: 1 + {digits}*z\nQ: 1 + -{digits}*z\nresidual: {digits}/3\nroute: closed-form\n"
    )


def test_pade_verify(capsys):
    code, out, _ = run(
        capsys, "pade", "--A", "4", "--B", "6", "--C", "1", "--D", "0", "--n", "3", "--verify"
    )
    assert code == 0
    assert "identity: OK" in out
    assert "gosper: OK" in out


def test_pade_verify_at_n_0_skips_gosper(capsys):
    # the Gosper certificate needs n >= 1; at n = 0 no check runs, and the
    # output says so instead of reporting one as passed
    code, out, _ = run(capsys, "pade", "--family", "modular3", "--n", "0", "--verify")
    assert code == 0
    assert out.endswith("identity: OK\ngosper: skipped (n = 0)\n")


def test_pade_rational_parameters(capsys):
    rest = ("--B", "1", "--C", "1", "--D", "0", "--n", "8", "--verify")
    code, out, err = run(capsys, "pade", "--A", "1/2", *rest)
    assert code == 0 and err == ""
    assert "P: 1 + -165/2*z + " in out and "route: closed-form\nidentity: OK\ngosper: OK\n" in out
    # the same value in decimal form, and an integer value in rational form
    assert run(capsys, "pade", "--A", "0.5", *rest) == (0, out, "")
    integral = ("--B", "6", "--C", "1", "--D", "0", "--n", "3")
    assert run(capsys, "pade", "--A", "8/2", *integral) == run(capsys, "pade", "--A", "4", *integral)


@pytest.mark.parametrize("value", ["1/0", "abc", "nan", "1/2/3"])
def test_pade_bad_rational_exit2(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["pade", "--A", value, "--B", "1", "--C", "1", "--D", "0", "--n", "2"])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert f"argument --A: invalid rational value {value!r}" in out.err and "Traceback" not in out.err


def test_pade_degenerate_fallback_and_exit3(capsys):
    code, out, _ = run(capsys, "pade", "--A", "0", "--B", "1", "--C", "0", "--D", "0", "--n", "2")
    assert code == 0 and "route: oracle" in out
    code, out, err = run(
        capsys,
        "pade",
        "--A", "0", "--B", "1", "--C", "0", "--D", "0",
        "--n", "2",
        "--closed-form-only",
    )
    assert (code, out, err) == (3, "", "degenerate parameters: E = 0\n")


def test_reduce_latex(capsys):
    code, out, _ = run(
        capsys, "reduce", "--family", "modular3", "--p", "7", "--alpha", "5", "--format", "latex"
    )
    assert code == 0
    assert r"\frac{2401}{(1+2z)^5}" in out


def test_reduce_json_schema(capsys):
    code, out, _ = run(
        capsys, "reduce", "--family", "modular3", "--p", "13", "--alpha", "2", "--format", "json"
    )
    assert code == 0
    jsonschema.validate(json.loads(out), JSON_SCHEMA)


def test_reduce_degree_bound_exit4(capsys):
    code, _, err = run(
        capsys,
        "reduce",
        "--family", "modular3", "--p", "7", "--alpha", "5",
        "--length", "8", "--window", "100000",
    )
    assert code == 4
    assert "length" in err  # the message names the knob to raise


def test_explicit_window_does_not_move_the_search_start(capsys):
    # the start is derived from deg D^alpha and p alone: at 7^1 it is 3
    # terms, so a 3000-term window with no --length gives up after six
    # doublings; an explicit length long enough still answers
    code, out, err = run(capsys, "reduce", "--p", "7", "--alpha", "1", "--window", "3000")
    assert (code, out) == (4, "")
    assert "no zero-run of width 3000 within 192 terms" in err
    command = "reduce --family modular3 --p 7 --alpha 1 --length 3100 --window 3000 --format json"
    code, out, _ = run(capsys, *command.split())
    assert code == 0 and _digest(code, out) == CLI_DIGESTS[command]


@pytest.mark.parametrize("command", list(CLI_DIGESTS))
def test_stdout_matches_the_recorded_digest(capsys, command):
    code, out, _ = run(capsys, *command.split())
    assert _digest(code, out) == CLI_DIGESTS[command]


def test_pfrac(capsys):
    code, out, _ = run(capsys, "pfrac", "--family", "modular3", "--p", "7", "--alpha", "5")
    assert code == 0
    assert "(1+2z)^1: 16451" in out
    assert "(1+2z)^5: 2401" in out


def test_period_text(capsys):
    code, out, _ = run(capsys, "period", "--family", "modular3", "--p", "13", "--alpha", "1")
    assert code == 0
    assert "period=12" in out and "predicted=12" in out and "match=yes" in out


def test_period_quotes_no_period_for_lifts(capsys):
    # the quoted periods are for PSL2(Z) itself; the m = 2 lift has period 6
    code, out, _ = run(
        capsys, "period", "--family", "modular3", "--m", "2", "--p", "13", "--alpha", "1"
    )
    assert code == 0
    assert "period=6 " in out and "predicted=n/a match=n/a" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("--family", "modular3", "--m", "7", "--p", "7", "--alpha", "2"),
        ("--family", "hecke4", "--p", "3", "--alpha", "3"),
    ],
    ids=["modular3-p-divides-m", "hecke4-p3"],
)
def test_period_text_without_an_order_bound_prints_n_a(capsys, argv):
    # d = 0: the series is a polynomial, so there is no order bound
    code, out, _ = run(capsys, "period", *argv)
    assert code == 0
    assert " order_bound=n/a" in out and "None" not in out
    code, out, _ = run(capsys, "period", *argv, "--format", "json")
    assert code == 0 and json.loads(out)["order_bound"] is None


@pytest.mark.parametrize(
    "argv",
    [
        ("reduce", "--p", "7", "--alpha", "1", "--length", "0"),
        ("reduce", "--p", "7", "--alpha", "1", "--window", "0"),
        ("pfrac", "--p", "7", "--alpha", "1", "--window", "-1"),
        ("period", "--p", "7", "--alpha", "1", "--length", "0"),
        ("period", "--p", "7", "--alpha", "1", "--window", "0"),
        ("period", "--p", "7", "--alpha", "1", "--horizon", "0"),
    ],
)
def test_search_knobs_below_one_exit2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_period_json_schema(capsys):
    code, out, _ = run(
        capsys, "period", "--family", "modular3", "--p", "7", "--alpha", "2", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, PERIOD_SCHEMA)
    assert data["period"] == 42 and data["match"] is True


def test_period_horizon_exit5(capsys):
    code, _, err = run(
        capsys,
        "period",
        "--family", "modular3", "--p", "7", "--alpha", "2", "--horizon", "40",
    )
    assert code == 5


def test_help_lists_every_exit_code(capsys):
    # `freesub --help` shows the module docstring: it must name every
    # nonzero code of the README's exit-code table
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    codes = re.findall(r"^\| (\d+) \|", readme, re.M)
    assert codes[0] == "0" and len(codes) > 2
    with pytest.raises(SystemExit):
        main(["--help"])
    text = " ".join(capsys.readouterr().out.split())
    doc = " ".join(freesub.cli.__doc__.split())
    assert doc in text
    listed = doc.split("Exit codes:")[1]
    for code in codes[1:]:
        assert re.search(rf"(^|, ){code} ", listed.strip()), code


def test_lemmas(capsys):
    code, out, _ = run(capsys, "lemmas", "--family", "modular3", "--p", "7", "--n-max", "29")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("n=")]
    assert lines and all(l.endswith("OK") for l in lines)
    assert "evidence, not proof" in out


@pytest.mark.parametrize(
    "family,p", [("modular3", "3"), ("modular3", "25"), ("hecke4", "9")]
)
def test_lemmas_bad_prime_exit2(capsys, family, p):
    code, out, err = run(capsys, "lemmas", "--family", family, "--p", p, "--n-max", "30")
    assert code == 2 and out == ""
    assert "prime" in err


def test_reproduce_golden_displays(capsys):
    for name in ("free7^5", "free11^5", "free13^5"):
        code, out, _ = run(capsys, "reproduce", name)
        assert code == 0, name
        assert "OK" in out


def test_reproduce_periods17_mismatch_is_reported(capsys):
    # the quoted value for 17^2 is not the minimal period; the preset
    # surfaces the diff and exits 6
    code, out, err = run(capsys, "reproduce", "periods-17")
    assert code == 6
    assert "period=1632" in out and "period=4896" in out
    assert "period=27744" in out
    assert "divide" in err


def test_reproduce_unknown_exit2(capsys):
    code, _, _ = run(capsys, "reproduce", "nonsense")
    assert code == 2


def test_determinism_byte_identical(capsys):
    a = run(capsys, "reduce", "--family", "modular3", "--p", "13", "--alpha", "5", "--format", "json")
    b = run(capsys, "reduce", "--family", "modular3", "--p", "13", "--alpha", "5", "--format", "json")
    assert a == b


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


REDUCE_7_1 = ("reduce", "--family", "modular3", "--p", "7", "--alpha", "1")


@pytest.mark.parametrize(
    "content,argv",
    [
        (None, ("counts", "--family", "modular3", "--count", "2")),
        ('{"format": "json",', ("counts", "--family", "modular3", "--count", "2")),
        ('["format", "json"]', ("counts", "--family", "modular3", "--count", "2")),
        ({"format": "json", "family": "modular3"}, ("counts", "--count", "2")),
        ({"format": "json", "m": 2}, ("counts", "--family", "modular3", "--count", "2")),
        ({"format": "xml"}, ("counts", "--family", "modular3", "--count", "2")),
        ({"format": "xml"}, ("period", "--family", "modular3", "--p", "7", "--alpha", "1")),
        ({"format": "latex"}, REDUCE_7_1),
        ({"seed": [1]}, REDUCE_7_1),
        ({"m": 2.5}, REDUCE_7_1),
        ({"m": True}, REDUCE_7_1),
        ({"m": None, "length": None}, REDUCE_7_1),
        ({"window": 1.5}, REDUCE_7_1),
        ({"window": 2}, REDUCE_7_1),
        ({"horizon": 40}, ("period", "--family", "modular3", "--p", "7", "--alpha", "2")),
    ],
    ids=[
        "missing-file",
        "malformed-json",
        "not-an-object",
        "family-not-given",
        "json-and-m",
        "xml-counts",
        "xml-period",
        "latex-reduce",
        "list-seed",
        "float-m",
        "bool-m",
        "null-values",
        "float-window",
        "window-too-small",
        "unread-key",
    ],
)
def test_a_set_freesub_config_has_no_effect(capsys, tmp_path, monkeypatch, content, argv):
    # options come from the command line only: each of these files once set
    # a default or was refused with exit 2, and now none of them is read
    monkeypatch.delenv("FREESUB_CONFIG", raising=False)
    plain = _outcome(capsys, argv)
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(content if isinstance(content, str) else json.dumps(content))
    monkeypatch.setenv("FREESUB_CONFIG", str(cfg))
    assert _outcome(capsys, argv) == plain
    assert plain[0] == (2 if "--family" not in argv else 0)


@pytest.mark.parametrize(
    "argv",
    [
        "counts --family modular3 --count 5",
        "pade --family hecke4 --n 3 --verify",
        # Q_2 splits into two linear factors mod 13, the case the random
        # equal-degree split of factor_mod_p decides
        "reduce --family modular3 --p 13 --alpha 2 --format json",
        "pfrac --family hecke4 --p 13 --alpha 2",
        "period --family modular3 --p 7 --alpha 2",
        "lemmas --family modular3 --p 7 --n-max 20",
        "reproduce free7^5",
    ],
    ids=["counts", "pade", "reduce", "pfrac", "period", "lemmas", "reproduce"],
)
def test_seed_changes_nothing(capsys, argv):
    outcomes = [_outcome(capsys, [*argv.split(), "--seed", str(seed)]) for seed in (0, 1, 2**31)]
    assert outcomes[0][0] == 0 and outcomes[0][1] != ""
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]


def _option_strings(parser) -> dict:
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    surface = {"": sorted(s for a in parser._actions for s in a.option_strings)}
    for name, sub in subparsers.choices.items():
        surface[name] = sorted(s for a in sub._actions for s in a.option_strings)
    return surface


def test_option_surface_is_pinned():
    # every option each subcommand takes: adding or removing one changes the
    # interface, so it edits this list and is declared with the change
    common = ["--family", "--m", "--seed", "-h", "--help"]
    form = [*common, "--p", "--alpha", "--length", "--window", "--format"]
    expected = {
        "": ["-h", "--help"],
        "counts": [*common, "--count", "--format"],
        "pade": [
            "--family", "--m", "--n", "--A", "--B", "--C", "--D",
            "--verify", "--closed-form-only", "--seed", "-h", "--help",
        ],
        "reduce": form,
        "pfrac": form,
        "period": [*form, "--horizon"],
        "lemmas": [*common, "--p", "--n-max"],
        "reproduce": ["--seed", "-h", "--help"],
    }
    assert _option_strings(freesub.cli.build_parser()) == {k: sorted(v) for k, v in expected.items()}


def test_a_closed_stdout_exits_141_without_a_traceback():
    # the reader takes ten bytes of about 1 MB and closes the pipe, as
    # `| head -c 10` does; the rest of the output has nowhere to go
    proc = subprocess.Popen(
        [sys.executable, "-m", "freesub.cli", "counts", "--family", "modular3", "--count", "800"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_checkout_env(),
    )
    with proc:
        head = proc.stdout.read(10)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert head == b"5 60 1105 "
    assert "Traceback" not in err.decode() and err == b""
    assert proc.returncode == freesub.cli.EXIT_BROKEN_PIPE == 141


def test_pfrac_rejects_latex_exit2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pfrac", "--p", "7", "--alpha", "5", "--format", "latex"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_reproduce_has_no_tier_exit2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "periods-17", "--tier", "fast"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.fixture
def fresh_parser_cache():
    freesub.cli._parser.cache_clear()
    yield
    freesub.cli._parser.cache_clear()


def test_main_builds_the_parser_once_per_process(capsys, monkeypatch, fresh_parser_cache):
    built = []
    real = freesub.cli.build_parser

    def spy():
        built.append(1)
        return real()

    monkeypatch.setattr(freesub.cli, "build_parser", spy)
    for _ in range(3):
        assert run(capsys, "counts", "--family", "modular3", "--count", "2") == (0, "5 60\n", "")
    assert built == [1]


def test_a_changed_build_parser_result_does_not_reach_main(capsys):
    argv = ("reduce", "--family", "modular3", "--p", "7", "--alpha", "1")
    before = run(capsys, *argv)
    parser = freesub.cli.build_parser()
    parser.add_argument("--x")
    assert parser.parse_args(["--x", "1", *argv]).x == "1"
    assert freesub.cli.build_parser() is not parser
    with pytest.raises(SystemExit) as exc:
        main(["--x", "1", *argv])
    assert exc.value.code == 2 and capsys.readouterr().out == ""
    assert run(capsys, *argv) == before


@pytest.mark.parametrize("bad", [("--bogus",), ("--alpha", "0")], ids=["unknown-flag", "bad-value"])
def test_a_call_that_exits_2_leaves_the_next_call_unchanged(capsys, fresh_parser_cache, bad):
    argv = ("period", "--family", "modular3", "--p", "7", "--alpha", "2")
    first = run(capsys, *argv)
    freesub.cli._parser.cache_clear()
    with pytest.raises(SystemExit) as exc:
        main([*argv, *bad])
    assert exc.value.code == 2 and capsys.readouterr().out == ""
    assert run(capsys, *argv) == first
    assert first[0] == 0


def test_short_horizon_with_a_period_too_long_to_scan_answers(capsys):
    # the period at p = 101 is far past the window limit, so no scan runs:
    # a short horizon changes only the reported horizon
    code, default, _ = run(capsys, "period", "--p", "101", "--alpha", "1")
    assert code == 0
    start = time.perf_counter()
    code, out, err = run(capsys, "period", "--p", "101", "--alpha", "1", "--horizon", "1000")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and err == ""
    assert out == re.sub(r" horizon=\d+ ", " horizon=1000 ", default) != default


def test_pade_negative_n_exit2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pade", "--family", "modular3", "--n", "-1"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "--n" in out.err


def test_unsupported_prime_exit2(capsys):
    code, out, err = run(capsys, "reduce", "--p", "3", "--alpha", "1")
    assert code == 2 and out == ""
    assert "p >= 5" in err


def test_not_squarefree_mod_p_exit3(capsys, monkeypatch):
    # report a repeated factor mod p, the degenerate case `reduce` raises
    real = freesub.reduce.factor_mod_p

    def repeated(f, seed=0):
        fact = real(f, seed)
        (g, _), *rest = fact.factors
        return Factorization(fact.unit, ((g, 2), *rest))

    monkeypatch.setattr(freesub.reduce, "factor_mod_p", repeated)
    code, out, err = run(capsys, "reduce", "--p", "13", "--alpha", "1")
    assert code == 3 and out == ""
    assert "squarefree" in err


def test_failed_certification_exit7(capsys, monkeypatch):
    # one reduced-series coefficient skewed inside the numerator leaves the
    # zero-run, and the Riccati identity on N / D^alpha fails for real; the
    # check divides nothing, so series_div must not be reached
    real = freesub.reduce.reduce_series

    def skewed(family, ctx, length):
        s = real(family, ctx, length)
        return Series.of((s.coeffs[0], s.coeffs[1] + 1, *s.coeffs[2:]), ctx)

    def no_division(num, den, length):
        raise AssertionError("the numerator check must not divide")

    monkeypatch.setattr(freesub.reduce, "reduce_series", skewed)
    monkeypatch.setattr(freesub.reduce, "series_div", no_division)
    code, out, err = run(capsys, "reduce", "--p", "7", "--alpha", "2")
    assert code == 7 and out == ""
    assert err.startswith("CertificationFailed:")


@pytest.mark.parametrize(
    "error",
    [
        CertificationFailed("check"),
        NotCoprime("inputs share a factor"),
        IntegralityViolation("not an integer"),
        SingularPadeSystem("inconsistent"),
    ],
)
def test_other_library_errors_exit7(capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(freesub.cli, "rational_form", fail)
    code, out, err = run(capsys, "reduce", "--p", "7", "--alpha", "1")
    assert code == 7 and out == ""
    assert err.startswith(type(error).__name__)


def _checkout_env() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _address_space_512_mb():
    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))


@pytest.mark.parametrize(
    "p,period",
    [(29, 235760), (37, 135038232), (43, 136752), (101, 2342671580315945365200)],
)
def test_period_with_a_large_order_bound_in_bounded_resources(p, period):
    # the period is read off the form, not off an expansion as long as the
    # order bound (82M terms at 29, 1.5e11 at 37); a whole CLI run must end
    # in 512 MB of address space and 20 s
    result = subprocess.run(
        [sys.executable, "-m", "freesub.cli", "period", "--p", str(p), "--alpha", "1"],
        capture_output=True,
        text=True,
        timeout=20,
        env=_checkout_env(),
        preexec_fn=_address_space_512_mb,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith(f"period={period} ")
    assert "minimal=no" not in result.stdout


@pytest.mark.parametrize(
    "argv,code,err",
    [
        ("counts --family modular3 --count 5", 0, ""),
        # past the bit gate of the exact block kernel, which --count 5 never
        # reaches
        ("counts --family hecke4 --count 300", 0, ""),
        ("pade --family hecke4 --n 3 --verify", 0, ""),
        ("reduce --family modular3 --p 7 --alpha 2", 0, ""),
        ("pfrac --family hecke4 --p 13 --alpha 2", 0, ""),
        ("period --family modular3 --p 7 --alpha 2", 0, ""),
        ("lemmas --family modular3 --p 7 --n-max 20", 0, ""),
        (
            "reproduce periods-17",
            6,
            "note: the quoted minimal periods for 17^2 and 17^3 are not attained; "
            "the detected values divide them (see README)\n",
        ),
        ("reduce --family modular3 --p 3 --alpha 1", 2, "invalid configuration: modular3 needs a prime p >= 5, not 3\n"),
    ],
    ids=["counts", "counts-exact", "pade", "reduce", "pfrac", "period", "lemmas", "reproduce", "bad-prime"],
)
def test_cli_runs_clean_in_dev_mode_with_warnings_as_errors(argv, code, err):
    # -X dev turns on ResourceWarning and DeprecationWarning, and -W error
    # makes any warning end the run with a traceback
    result = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "freesub.cli", *argv.split()],
        capture_output=True,
        text=True,
        timeout=60,
        env=_checkout_env(),
    )
    assert (result.returncode, result.stderr) == (code, err)
    assert (result.stdout != "") == (code != 2)
