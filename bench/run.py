#!/usr/bin/env python3
"""Outside-in benchmark for the freesub command line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload counts_exact --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all          # every workload, one process each

A workload is a fixed list of CLI jobs.  Each job is one in-process call of
`freesub.cli.main(argv)`, run one after another in this process on one thread
(a closed loop with a single client).  The workload seed becomes every job's
`--seed` and shuffles the job order of every pass.  Passes of the whole list
repeat until `--seconds` is used up; timings are means over passes, in units
of fixed reference loops timed next to each job (see `WORKLOAD_LOOPS`).

Every job's exit code and stdout SHA-256 are checked against `expected.json`
on every pass, traced or not.  Robustness probes are checked for their
documented exit code only; they are not timed.

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` passes alternate traced / untraced and it carries the per-layer
metrics.  Tracing wraps public functions under the names their callers look
up at call time (see LAYERS) and keeps spans in memory until the run ends.
See README.md for why each workload exists and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import inspect
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected.json"

EXIT_INCORRECT = 1
EXIT_NO_PROGRAM = 2

# fresh interpreters started after every untraced pass to time
# `import freesub.cli` + `build_parser()`; spread over the run, so that one
# slow moment of the machine does not set the median
SETUP_PER_PASS = 3
SETUP_CODE = "import freesub.cli; freesub.cli.build_parser()"


def _period(family: str, p: int, alpha: int) -> tuple:
    return ("period", "--family", family, "--p", str(p), "--alpha", str(alpha), "--format", "json")


def _reduce(family: str, p: int, alpha: int) -> tuple:
    return ("reduce", "--family", family, "--p", str(p), "--alpha", str(alpha), "--format", "json")


# Timed jobs.  Sizes keep one pass between about 4 and 11 s on a 2-core Intel
# Xeon machine; README.md records why each workload exists.
WORKLOADS = {
    # the only workload on the exact big-integer series path
    "counts_exact": [
        ("counts", "--family", "modular3", "--count", "800"),
        ("counts", "--family", "hecke4", "--count", "800"),
    ],
    # large d: Q_d construction dominates, then factorization mod p
    "forms_sweep": [
        *(_reduce("modular3", p, a) for p in (101, 199, 307) for a in (1, 2)),
        *(_reduce("hecke4", p, a) for p in (101, 197) for a in (1, 2)),
        ("reproduce", "free7^5"),
        ("reproduce", "free11^5"),
        ("reproduce", "free13^5"),
    ],
    # long mod p^alpha series: direct horizons (5k-9k terms) and expanded
    # horizons (58k-1.1M terms).  `period` at p >= 29 hangs or runs out of
    # memory, and periods-17 alone takes ~15 s, so both stay out.
    "periods": [
        _period("modular3", 7, 4),
        _period("modular3", 11, 4),
        _period("modular3", 13, 3),
        _period("hecke4", 13, 1),
        _period("modular3", 7, 5),
        _period("modular3", 19, 1),
        _period("modular3", 23, 1),
    ],
}

# Cheap jobs run on every pass of every workload.  They give each wrapped
# layer at least one call everywhere, so no per-layer metric reads exactly 0
# and a wrapper that stops being called fails the wiring check.
COVERAGE = [
    ("counts", "--family", "hecke4", "--count", "30"),
    ("reduce", "--family", "hecke4", "--p", "13", "--alpha", "2"),
    ("period", "--family", "modular3", "--p", "7", "--alpha", "1", "--horizon", "40001"),
]

# Robustness probes and the exit code the CLI documents for each.
PROBES = [
    (("reduce", "--p", "3", "--alpha", "1"), 2),
    (("reduce", "--p", "7", "--alpha", "5", "--length", "8", "--window", "100000"), 4),
    (("period", "--p", "7", "--alpha", "2", "--horizon", "40"), 5),
    (("reproduce", "nonsense"), 2),
]

# On a shared machine the speed of one core can drift by up to 2x within
# seconds and over minutes, so raw job times spread far more between runs than
# any bound that could catch a regression.  Fixed reference loops run before every timed
# job and once after each pass; a job's time divided by the mean of the loop
# times just before and just after it tracks that drift.  Big-integer and
# small-residue arithmetic slow down by different amounts, so each workload
# times the loops that do the arithmetic of the layers that dominate it.  The
# loops are the benchmark's own code, so no change to the program moves them.


def exact_loop() -> int:
    """Big-integer products and sums, as in the exact Riccati recurrence;
    the operands grow to about 2300 bits."""
    f = [1]
    for m in range(1, 330):
        f.append(m * f[m - 1] + sum(f[i] * f[m - 1 - i] for i in range(m)))
    return f[-1] % 1000003


def modp_loop() -> int:
    """Products of small residues, as in the mod p^alpha series."""
    p = 1000003
    a = [(i * i + 1) % p for i in range(900)]
    s = 0
    for m in range(900):
        for k in range(m + 1):
            s += a[k] * a[m - k]
    return s % p


# loop name -> (loop, the value it must return)
LOOPS = {"exact": (exact_loop, 464014), "modp": (modp_loop, 600313)}
# Interpreter set-up drifts with the machine like the jobs do, so each set-up
# sample is divided by a `modp` run just before it, and setup_s is that ratio
# in seconds at the loop's median time on a 2-core Intel Xeon machine at
# commit 308dbd2 (CPython 3.11.7).
SETUP_LOOPS = ("modp",)
SETUP_LOOPS_S = 0.037
WORKLOAD_LOOPS = {
    "counts_exact": ("exact",),  # riccati.series_exact
    "forms_sweep": ("exact", "modp"),  # pade_pair over Q; factor_mod_p, series_mod
    "periods": ("modp",),  # riccati.series_mod
}


def reference_s(loops: tuple) -> float:
    """Seconds for one run of each named loop: one reference unit."""
    gc.collect()
    start = time.perf_counter()
    for name in loops:
        loop, value = LOOPS[name]
        if loop() != value:
            raise RuntimeError(f"reference loop {name} computed a wrong value")
    return time.perf_counter() - start


# Goldens the reproduce presets are compared against by the CLI itself.
GOLDENS = ("free7_5.tex", "free11_5.tex", "free13_5.tex")


def job_name(argv) -> str:
    return " ".join(argv)


# ---------------------------------------------------------------------------
# jobs and the output gate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Job:
    argv: tuple
    kind: str  # "timed", "coverage" or "probe"
    exit_code: int
    stdout_sha256: str | None  # None for probes: only the exit code is checked

    @property
    def name(self) -> str:
        return job_name(self.argv)


@dataclass
class Outcome:
    job: Job
    seconds: float
    exit: object  # int, or "raised <Exception>: <message>"
    stdout_sha256: str
    traceback: str = ""  # set when the job raised
    ref_s: float = 0.0  # timed jobs: mean reference time just before and after

    @property
    def in_ref(self) -> float:
        """The job's time in reference units."""
        return self.seconds / self.ref_s

    @property
    def ok(self) -> bool:
        if self.exit != self.job.exit_code:
            return False
        return self.job.stdout_sha256 is None or self.stdout_sha256 == self.job.stdout_sha256

    def describe(self) -> str:
        want = f"exit {self.job.exit_code}"
        got = f"exit {self.exit}" if isinstance(self.exit, int) else str(self.exit)
        if isinstance(self.exit, int) and self.exit == self.job.exit_code:
            got += f", stdout sha256 {self.stdout_sha256[:16]}"
            want += f", stdout sha256 {self.job.stdout_sha256[:16]}"
        return f"{self.job.kind} job `{self.job.name}`: expected {want}, got {got}"


def load_jobs(workload: str, expected: dict) -> list[Job]:
    jobs = [Job(a, "timed", **expected[job_name(a)]) for a in WORKLOADS[workload]]
    jobs += [Job(a, "coverage", **expected[job_name(a)]) for a in COVERAGE]
    jobs += [Job(a, "probe", code, None) for a, code in PROBES]
    return jobs


def golden_mismatches(recorded: dict) -> list[str]:
    """Goldens whose bytes differ from the ones recorded in expected.json."""
    golden_dir = SRC / "freesub" / "golden"
    return [g for g in GOLDENS if sha256_file(golden_dir / g) != recorded[g]]


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_cli():
    """Import freesub.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "freesub" / "cli.py").is_file():
        print(f"bench: no program at {SRC / 'freesub'}; run from a full checkout", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("freesub.cli")
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        print(f"bench: imported freesub from {cli.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    return cli


def run_job(cli, job: Job, seed: int) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    tb = ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*job.argv, "--seed", str(seed)])
    except SystemExit as exc:  # argparse rejects its input this way
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # noqa: BLE001 - a raising job fails; the run goes on
        code = f"raised {type(exc).__name__}: {exc}"
        tb = traceback.format_exc()
    seconds = time.perf_counter() - start
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    return Outcome(job, seconds, code, digest, tb)


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """Nested spans kept in memory; self time is a span's duration minus the
    durations of its direct children (one thread, so children never
    overlap)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.target_calls: Counter = Counter()  # (wrapped target, job kind) -> calls
        self.job_kind = ""

    @contextlib.contextmanager
    def span(self, name: str, counts: dict | None = None):
        parent = self.stack[-1] if self.stack else None
        rec = Span(name, time.perf_counter(), parent=parent, counts=counts or {})
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec.end = time.perf_counter()
            self.stack.pop()
            if parent is not None:
                self.spans[parent].child_s += rec.end - rec.start


def _series(a) -> tuple[str, dict]:
    length = a["length"]
    if a["ctx"] is None:
        return "riccati.series_exact", {"terms": length}
    return "riccati.series_mod", {"terms": length, "mul_ops": length * length / 4}


# (module, attribute, workload whose timed jobs must call it, span of a call).
# Modules bind names with `from .x import y`, so each wrapper replaces the
# name in the module that calls it; _partial_fractions_over imports
# ext_gcd_coprime inside the function, so that one is looked up in poly.
LAYERS = [
    ("freesub.groups", "riccati_series", "counts_exact", _series),
    ("freesub.reduce", "riccati_series", "periods", _series),
    ("freesub.cli", "free_subgroup_numbers", "counts_exact",
     lambda a: ("groups.free_subgroup_numbers", {})),
    ("freesub.reduce", "pade_pair", "forms_sweep", lambda a: ("riccati.pade_pair", {"degree": a["n"]})),
    ("freesub.reduce", "factor_mod_p", "forms_sweep",
     lambda a: ("poly.factor_mod_p", {"degree": a["f"].degree})),
    ("freesub.reduce", "hensel_lift", "forms_sweep", lambda a: ("poly.hensel_lift", {})),
    ("freesub.poly", "ext_gcd_coprime", "forms_sweep", lambda a: ("poly.ext_gcd_coprime", {})),
    ("freesub.cli", "rational_form", "forms_sweep", lambda a: ("reduce.rational_form", {})),
    ("freesub.periods", "rational_form", "periods", lambda a: ("reduce.rational_form", {})),
    ("freesub.reduce", "reduce_series", "forms_sweep", lambda a: ("reduce.reduce_series", {})),
    ("freesub.reduce", "series_div", "periods",
     lambda a: ("poly.series_div", {"terms": a["length"]})),
    ("freesub.periods", "expand_form", "periods",
     lambda a: ("periods.expand_form", {"terms": a["length"]})),
    ("freesub.periods", "detect_period", "periods",
     lambda a: ("periods.detect_period", {"horizon": a["series"].length})),
    ("freesub.periods", "order_bound", "periods", lambda a: ("periods.order_bound", {})),
    ("freesub.cli", "emit", "forms_sweep", lambda a: ("cli.emit", {})),
]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install every LAYERS wrapper for the duration of the block."""
    saved = []
    try:
        for module_name, attr, _, describe in LAYERS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)  # AttributeError: a layer moved
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, f"{module_name}.{attr}", original, describe))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _wrap(tracer: Tracer, target: str, fn, describe):
    sig = inspect.signature(fn)

    def wrapper(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        name, counts = describe(bound.arguments)
        tracer.target_calls[target, tracer.job_kind] += 1
        with tracer.span(name, counts):
            return fn(*args, **kwargs)

    return wrapper


COUNT_METRICS = {
    "riccati.series_exact": ("terms",),
    "riccati.series_mod": ("terms", "mul_ops"),
    "riccati.pade_pair": ("calls", "degree"),
    "poly.factor_mod_p": ("degree",),
    "poly.ext_gcd_coprime": ("calls",),
    "poly.series_div": ("terms",),
    "periods.expand_form": ("terms",),
    "periods.detect_period": ("horizon",),
}
COUNT_UNITS = {"mul_ops": "computed-ops", "calls_per_form": "ratio"}
SELF_TIME_LAYERS = (
    "riccati.series_exact",
    "riccati.series_mod",
    "riccati.pade_pair",
    "poly.factor_mod_p",
    "poly.hensel_lift",
    "poly.ext_gcd_coprime",
    "reduce.rational_form",
    "poly.series_div",
    "periods.expand_form",
    "periods.detect_period",
    "periods.order_bound",
    "cli.emit",
    "groups.free_subgroup_numbers",
)
# layers each workload was chosen to exercise, and the share of traced job
# time they reach at commit 308dbd2
CHOSEN_LAYERS = {
    "counts_exact": (("riccati.series_exact",), 0.90),
    "forms_sweep": (("riccati.pade_pair",), 0.60),
    "periods": (
        ("riccati.series_mod", "poly.series_div", "periods.expand_form", "periods.detect_period"),
        0.90,
    ),
}


def layer_totals(tracer: Tracer) -> dict:
    """Per span name: calls, self seconds and summed counts; "job" is the
    root span of each CLI call."""
    totals: dict = defaultdict(lambda: defaultdict(int))
    for s in tracer.spans:
        t = totals[s.name]
        t["calls"] += 1
        t["self_s"] += s.self_s
        if s.parent is None:
            t["total_s"] += s.end - s.start
        for k, v in s.counts.items():
            t[k] += v
    return totals


def layer_counts(totals: dict) -> dict:
    out = {}
    for layer, keys in COUNT_METRICS.items():
        for k in keys:
            out[f"{layer}.{k}"] = totals[layer][k]
    rs, rf = totals["reduce.reduce_series"]["calls"], totals["reduce.rational_form"]["calls"]
    out["reduce.reduce_series.calls_per_form"] = rs / rf if rf else 0.0  # rf = 0: wiring check fails
    return out


# ---------------------------------------------------------------------------
# passes and the run
# ---------------------------------------------------------------------------


def run_pass(cli, jobs: list[Job], seed: int, rng: random.Random, tracer: Tracer | None, loops: tuple):
    order = list(jobs)
    rng.shuffle(order)
    outcomes = []
    waiting = None  # the last timed outcome, until the loops after it have run
    for job in order:
        if job.kind == "timed":
            ref_s = reference_s(loops)
            if waiting is not None:
                waiting.ref_s = (waiting.ref_s + ref_s) / 2
        gc.collect()  # start each job on a collected heap, as a fresh CLI process would
        if tracer is None:
            outcome = run_job(cli, job, seed)
        else:
            tracer.job_kind = job.kind
            with tracer.span("job"):
                outcome = run_job(cli, job, seed)
        if job.kind == "timed":
            outcome.ref_s = ref_s
            waiting = outcome
        outcomes.append(outcome)
    waiting.ref_s = (waiting.ref_s + reference_s(loops)) / 2
    return outcomes


def setup_sampler():
    """Fill __pycache__ once; return a function that times one fresh
    interpreter's set-up."""
    # bytecode caching on and inside the checkout, as for a user's install
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    cmd = [sys.executable, "-c", SETUP_CODE]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)

    def sample() -> float:
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        return time.perf_counter() - start

    return sample


def commit_hash() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


@dataclass
class PassRecord:
    outcomes: list
    pass_s: float  # every job of the pass, gated ones included
    tracer: Tracer | None  # None for an untraced pass


def run_workload(args) -> int:
    cli = load_cli()
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    jobs = load_jobs(args.workload, expected["jobs"])
    bad_goldens = golden_mismatches(expected["goldens"])
    sample_setup = setup_sampler() if not args.trace else None
    setup = []
    rng = random.Random(args.seed)
    loops = WORKLOAD_LOOPS[args.workload]

    # traced runs alternate traced / untraced passes, starting traced, and
    # need two traced passes (to compare counts) and one untraced
    passes: list[PassRecord] = []
    n_traced = 0
    started = time.perf_counter()
    while True:
        tracer = Tracer() if args.trace and n_traced <= len(passes) - n_traced else None
        t0 = time.perf_counter()
        if tracer is None:
            outcomes = run_pass(cli, jobs, args.seed, rng, None, loops)
        else:
            with traced(tracer):
                outcomes = run_pass(cli, jobs, args.seed, rng, tracer, loops)
        passes.append(PassRecord(outcomes, time.perf_counter() - t0, tracer))
        n_traced += tracer is not None
        if sample_setup is not None:
            for _ in range(SETUP_PER_PASS):
                ref_s = reference_s(SETUP_LOOPS)
                setup.append((sample_setup(), ref_s))

        elapsed = time.perf_counter() - started
        typical = statistics.median(p.pass_s for p in passes)
        enough = not args.trace or (n_traced >= 2 and len(passes) > n_traced)
        if enough and elapsed + typical > args.seconds:
            break

    return report(args, jobs, passes, setup, bad_goldens)


def report(args, jobs, passes, setup, bad_goldens) -> int:
    all_outcomes = [o for p in passes for o in p.outcomes]
    timed = [o for o in all_outcomes if o.job.kind == "timed"]
    failures = [o for o in all_outcomes if not o.ok]
    # a mismatch outside the robustness probes makes the run incorrect
    problems = [o.describe() for o in failures if o.job.kind != "probe"]
    problems += [f"golden {g} differs from the one recorded in expected.json" for g in bad_goldens]

    seen = Counter(o.describe() for o in failures)
    for line, times in sorted(seen.items()):
        print(f"FAIL ({times}x) {line}")
    for tb in dict.fromkeys(o.traceback for o in failures if o.traceback):
        print(tb, file=sys.stderr)

    plain = [p for p in passes if p.tracer is None]
    traced_passes = [p for p in passes if p.tracer is not None]
    failed_frac = len(failures) / len(all_outcomes)
    stamp = {
        "commit": commit_hash(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": {k: sum(j.kind == k for j in jobs) for k in ("timed", "coverage", "probe")},
        "passes": {"untraced": len(plain), "traced": len(traced_passes)},
        "timed_job_samples": len(timed),
        "setup_samples": len(setup),
        "reference": {
            "loops": WORKLOAD_LOOPS[args.workload],
            "median_s": statistics.median(o.ref_s for o in timed),
        },
        "failed_frac": failed_frac,
    }
    print("# stamp " + json.dumps(stamp, sort_keys=True))

    if args.trace:
        metrics, wiring = trace_metrics(args.workload, plain, traced_passes)
        problems += wiring
    else:
        # each job's mean over the passes, in reference units: dividing by the
        # reference already takes out the machine's slow episodes, and the mean
        # of the 2-8 samples a job gets is steadier than their median
        per_job = defaultdict(list)
        for o in timed:
            per_job[o.job.name].append(o)
        means = {name: statistics.fmean(o.in_ref for o in v) for name, v in per_job.items()}
        wall_s = 0.0
        for name, v in per_job.items():
            q1, med, q3 = quartiles([o.in_ref for o in v])
            seconds = statistics.median(o.seconds for o in v)
            wall_s += seconds
            print(
                f"# job {means[name]:9.3f} ref mean (median {med:.3f}, quartiles {q1:.3f} / {q3:.3f},"
                f" n={len(v)}) {seconds:8.4f} s median  {name}"
            )
        print(f"# wall {wall_s:.4f} s as measured (sum of per-job medians)")
        print(f"# setup {statistics.median(s for s, _ in setup):.4f} s as measured (median)")
        print(f"# failed_frac {failed_frac:.4f} ({len(failures)} of {len(all_outcomes)} gated jobs)")
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "wall_ref": (sum(means.values()), "ref"),
            "job_max_ref": (max(means.values()), "ref"),
            "peak_rss_mb": (rss_mb, "MB"),
            "ok_frac": (1.0 - failed_frac, "frac"),
            "setup_s": (statistics.median(s / ref_s for s, ref_s in setup) * SETUP_LOOPS_S, "s"),
        }
    for line in dict.fromkeys(problems):
        print(f"INCORRECT {line}")
    timed_failed = sum(not o.ok for o in timed)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": len(timed),
                "failed": timed_failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if not problems else EXIT_INCORRECT


def trace_metrics(workload: str, plain: list[PassRecord], traced_passes: list[PassRecord]):
    """Per-layer metrics from the traced passes, and any wiring problems."""
    problems = []
    per_pass = [layer_totals(p.tracer) for p in traced_passes]
    counts = [layer_counts(t) for t in per_pass]
    if any(c != counts[0] for c in counts[1:]):
        diff = sorted(k for k in counts[0] if any(c[k] != counts[0][k] for c in counts[1:]))
        problems.append(f"trace counts differ between traced passes: {', '.join(diff)}")

    calls = Counter()
    for p in traced_passes:
        calls.update(p.tracer.target_calls)
    for module_name, attr, primary, _ in LAYERS:
        target = f"{module_name}.{attr}"
        if not any(calls[target, kind] for kind in ("timed", "coverage", "probe")):
            problems.append(f"wrapped {target} recorded no call")
        if primary == workload and not calls[target, "timed"]:
            problems.append(f"wrapped {target} recorded no call from the timed {workload} jobs")

    digests_plain = {(o.job.name, o.stdout_sha256) for p in plain for o in p.outcomes}
    digests_traced = {(o.job.name, o.stdout_sha256) for p in traced_passes for o in p.outcomes}
    if digests_plain != digests_traced:
        problems.append("traced and untraced stdout digests differ")

    self_s = {
        layer: statistics.median(t[layer]["self_s"] for t in per_pass)
        for layer in (*SELF_TIME_LAYERS, "reduce.reduce_series", "job")
    }
    metrics = {f"{layer}.self_s": (self_s[layer], "s") for layer in SELF_TIME_LAYERS}
    for k, v in counts[0].items():
        metrics[k] = (v, COUNT_UNITS.get(k.rsplit(".", 1)[1], "count"))

    def pass_ref(p: PassRecord) -> float:
        return sum(o.in_ref for o in p.outcomes if o.job.kind == "timed")

    plain_ref = statistics.median(pass_ref(p) for p in plain)
    traced_ref = statistics.median(pass_ref(p) for p in traced_passes)
    metrics["trace.overhead_frac"] = (traced_ref / plain_ref - 1.0, "frac")

    traced_s = statistics.median(t["job"]["total_s"] for t in per_pass)
    print(f"# traced job time {traced_s:.4f} s (median of {len(per_pass)} traced passes)")
    for layer, seconds in sorted(self_s.items(), key=lambda kv: -kv[1]):
        label = "(unattributed: job self time)" if layer == "job" else layer
        print(f"#   {label:<40} {seconds:9.4f} s  {seconds / traced_s:7.2%}")
    layers, floor = CHOSEN_LAYERS[workload]
    share = sum(self_s[layer] for layer in layers) / traced_s
    print(f"# chosen layers {'+'.join(layers)}: {share:.2%} of traced job time (floor {floor:.0%} at commit 308dbd2)")
    return metrics, problems


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    status = 0
    rows, combined = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, EXIT_INCORRECT) or not lines:
            return proc.returncode or EXIT_INCORRECT
        result = json.loads(lines[-1])
        status = status or proc.returncode
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
            rows.append((workload, name, m["value"], m["unit"]))
            if name == "ok_frac":
                rows.append((workload, "failed_frac", 1.0 - m["value"], m["unit"]))
    print("# workload       metric                                      value unit")
    for workload, name, value, unit in rows:
        print(f"# {workload:<14} {name:<40} {value:>12.6g} {unit}")
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
