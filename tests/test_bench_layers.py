"""The traced benchmark run looks up each layer by (module, attribute) at
call time and reads the call's arguments by name; a refactor that moves one
of those names or renames a read argument must fail here, not only under
`bench/run.py --trace 1`."""

import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def _bench_module():
    spec = importlib.util.spec_from_file_location("bench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


BENCH = _bench_module()
LAYERS = BENCH.LAYERS
SPANS = {(name, attr): describe for name, attr, _, describe in LAYERS}


class _Argument(int):
    """Stands for any argument value: an int with the attributes spans read."""

    degree = length = 1


class _RecordingArguments:
    """The bound arguments a span function receives, recording every read."""

    def __init__(self):
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return _Argument(1)


@pytest.mark.parametrize("module_name,attr", [(name, attr) for name, attr, *_ in LAYERS])
def test_traced_layer_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


@pytest.mark.parametrize("module_name,attr", list(SPANS))
def test_traced_layer_reads_parameter_names(module_name, attr):
    fn = getattr(importlib.import_module(module_name), attr)
    arguments = _RecordingArguments()
    SPANS[module_name, attr](arguments)
    assert arguments.read <= set(inspect.signature(fn).parameters)


def test_coverage_jobs_and_probes_call_every_layer(capsys):
    # the benchmark's cheap jobs must reach every wrapped name, so a refactor
    # that routes around one (say, expand_form no longer calling
    # freesub.reduce.series_div) fails here and not only under --trace 1
    from freesub.cli import main

    tracer = BENCH.Tracer()
    with BENCH.traced(tracer):
        for argv in BENCH.COVERAGE:
            assert main([*argv, "--seed", "0"]) == 0
        for argv, code in BENCH.PROBES:
            assert main([*argv, "--seed", "0"]) == code
    capsys.readouterr()
    called = {target for target, _ in tracer.target_calls}
    assert [f"{name}.{attr}" for name, attr, *_ in LAYERS if f"{name}.{attr}" not in called] == []


@pytest.mark.parametrize("workload", list(BENCH.WORKLOADS))
def test_coverage_and_probe_outputs_match_the_recorded_digests(workload):
    # the bench gates every job's exit code and stdout SHA-256; run each
    # workload with the coverage jobs and probes against the recorded
    # values, so a changed output fails tier-1 and not only the bench
    import freesub.cli

    expected = json.loads(BENCH.EXPECTED.read_text(encoding="utf-8"))["jobs"]
    jobs = BENCH.load_jobs(workload, expected)
    assert len(jobs) == len(BENCH.WORKLOADS[workload]) + len(BENCH.COVERAGE) + len(BENCH.PROBES)
    outcomes = [BENCH.run_job(freesub.cli, job, seed=0) for job in jobs]
    assert [o.describe() for o in outcomes if not o.ok] == []


@pytest.mark.parametrize("family", ["modular3", "hecke4"])
def test_counts_800_matches_the_recorded_digest(family):
    # the timed counts_exact jobs are the one check of the exact series
    # engine at the length the benchmark times
    import freesub.cli

    expected = json.loads(BENCH.EXPECTED.read_text(encoding="utf-8"))["jobs"]
    argv = ("counts", "--family", family, "--count", "800")
    job = BENCH.Job(argv, "timed", **expected[BENCH.job_name(argv)])
    outcome = BENCH.run_job(freesub.cli, job, seed=0)
    assert outcome.ok, outcome.describe()
