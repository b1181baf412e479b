import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

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
# the error exits are included
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
    monkeypatch.setattr(freesub.cli, "free_subgroup_numbers", lambda family, count: SimpleNamespace(values=(5, big)))
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


def test_pade_degenerate_fallback_and_exit3(capsys):
    code, out, _ = run(capsys, "pade", "--A", "0", "--B", "1", "--C", "0", "--D", "0", "--n", "2")
    assert code == 0 and "route: oracle" in out
    code, _, err = run(
        capsys,
        "pade",
        "--A", "0", "--B", "1", "--C", "0", "--D", "0",
        "--n", "2",
        "--closed-form-only",
    )
    assert code == 3 and "degenerate" in err


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
    # the start is derived from deg D^alpha and p alone: at 7^1 it is 35
    # terms, so a 3000-term window with no --length gives up after six
    # doublings; an explicit length long enough still answers
    code, out, err = run(capsys, "reduce", "--p", "7", "--alpha", "1", "--window", "3000")
    assert (code, out) == (4, "")
    assert "no zero-run of width 3000 within 2240 terms" in err
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


def test_env_config_defaults(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "json", "family": "modular3"}))
    monkeypatch.setenv("FREESUB_CONFIG", str(cfg))
    code, out, _ = run(capsys, "counts", "--count", "2")
    assert code == 0
    assert json.loads(out)["values"] == [5, 60]


@pytest.mark.parametrize(
    "config,argv",
    [
        ({"format": "xml"}, ("counts", "--count", "2")),
        ({"format": "xml"}, ("period", "--p", "7", "--alpha", "1")),
        ({"format": "latex"}, ("counts", "--count", "2")),
    ],
    ids=["xml-counts", "xml-period", "latex-counts"],
)
def test_env_config_outside_choices_exit2(capsys, tmp_path, monkeypatch, config, argv):
    # argparse checks choices on the command line only; a config value must
    # be refused for the subcommand that is run, not printed as text
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "modular3", **config}))
    monkeypatch.setenv("FREESUB_CONFIG", str(cfg))
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert out.err.startswith(f"invalid configuration: FREESUB_CONFIG={cfg}: format=")
    assert out.err.count("\n") == 1


@pytest.mark.parametrize(
    "config,argv",
    [
        ({"seed": [1]}, ("reduce", "--p", "7", "--alpha", "1")),
        ({"m": 2.5}, ("reduce", "--p", "7", "--alpha", "1")),
        ({"m": 2.5}, ("counts", "--count", "2")),
        ({"window": 1.5}, ("reduce", "--p", "7", "--alpha", "1")),
        ({"m": True}, ("reduce", "--p", "7", "--alpha", "1")),
    ],
    ids=["list-seed", "float-m-reduce", "float-m-counts", "float-window", "bool-m"],
)
def test_env_config_wrong_json_type_exit2(capsys, tmp_path, monkeypatch, config, argv):
    # a value is checked by the option's type like the same text on the
    # command line, whatever its JSON type
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "modular3", **config}))
    monkeypatch.setenv("FREESUB_CONFIG", str(cfg))
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    (option,) = config
    assert exc.value.code == 2 and out.out == ""
    assert f"error: argument --{option}: invalid" in out.err


def test_env_config_integer_and_null_values(capsys, tmp_path, monkeypatch):
    # an integer applies like its text; null leaves the option without a default
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "modular3", "m": 2, "length": None}))
    monkeypatch.setenv("FREESUB_CONFIG", str(cfg))
    code, out, _ = run(capsys, "counts", "--count", "2")
    assert code == 0 and out.strip() == "20 480"
    code, out, _ = run(capsys, "reduce", "--p", "7", "--alpha", "1")
    assert code == 0 and out.startswith("family=modular3 m=2 p=7 alpha=1 d=1\n")


def test_env_config_null_keeps_the_built_in_default(capsys, tmp_path, monkeypatch):
    argv = ("reduce", "--family", "modular3", "--p", "7", "--alpha", "1")
    plain = run(capsys, *argv)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": None}))
    monkeypatch.setenv("FREESUB_CONFIG", str(cfg))
    assert run(capsys, *argv) == plain


def test_env_config_choice_of_another_subcommand_is_kept(capsys, tmp_path, monkeypatch):
    # latex is a choice of reduce, so the same config serves it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "latex", "family": "modular3"}))
    monkeypatch.setenv("FREESUB_CONFIG", str(cfg))
    code, out, _ = run(capsys, "reduce", "--p", "7", "--alpha", "1")
    assert code == 0 and r"\frac{1}{1+2z}" in out
    # and an explicit flag wins over it where it is not a choice
    code, out, _ = run(capsys, "counts", "--count", "2", "--format", "json")
    assert code == 0 and json.loads(out)["values"] == [5, 60]


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


@pytest.mark.parametrize(
    "content",
    [None, '{"format": "json",', '["format", "json"]'],
    ids=["missing-file", "malformed-json", "not-an-object"],
)
def test_env_config_error_exit2(capsys, tmp_path, monkeypatch, content):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(content)
    monkeypatch.setenv("FREESUB_CONFIG", str(cfg))
    with pytest.raises(SystemExit) as exc:
        main(["counts", "--count", "2"])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert out.err.startswith("invalid configuration: FREESUB_CONFIG") and out.err.count("\n") == 1


def test_short_horizon_with_a_large_order_bound_exit5(capsys):
    # the order bound at p = 101 has 27 digits: the scan must test the
    # candidates in the 1000-term window, not enumerate the bound's divisors
    start = time.perf_counter()
    code, out, err = run(capsys, "period", "--p", "101", "--alpha", "1", "--horizon", "1000")
    assert time.perf_counter() - start < 1.0
    assert code == 5 and out == "" and "horizon too short" in err


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
    # one reduced-series coefficient skewed past the numerator makes the
    # product check S * D^alpha = N mod z^(2L) fail for real; the check
    # divides nothing, so series_div must not be reached
    real = freesub.reduce.reduce_series

    def skewed(family, ctx, length):
        s = real(family, ctx, length)
        return Series.of((*s.coeffs[:-1], s.coeffs[-1] + 1), ctx)

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
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-m", "freesub.cli", "period", "--p", str(p), "--alpha", "1"],
        capture_output=True,
        text=True,
        timeout=20,
        env=env,
        preexec_fn=_address_space_512_mb,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith(f"period={period} ")
    assert "minimal=no" not in result.stdout
