"""hvkit benchmark: time to exact verdict on four workloads.

Usage, from the repository root:

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Workloads: lie-sweep, axiom-sweep, verma-kernel, cli-corpus (see
``workloads.py`` and ``BENCHMARK.json`` for why each exists).  One run is
one workload in one process.  ``--workload all`` runs every workload, each
in a fresh process, and prints every result.

A run first sets up ``SETUP_REPEATS`` times (import hvkit afresh from
``src/``, build the seeded plan, load the golden outputs, write the CLI
config files) and reports the median as ``setup_s``.  It then runs passes
until ``--seconds`` have elapsed.  A pass runs every operation of the plan
once on fresh module handles; there is no warm-up pass, because every real
CLI run starts with cold caches.  All times are scaled to a reference host
speed measured during the run (see ``SpeedSampler``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
passes (per pass), the span table, and ``trace.overhead_ratio``, the traced
pass wall time over the untraced one.

Every operation's outcome is checked against ``golden.json`` or by an exact
identity.  The last line of stdout is the result, one JSON object with the
keys correct, attempted, failed and metrics; the exit code is 1 when any
outcome was wrong.  Known crashes (ROADMAP item 5 inputs whose documented
outcome is exit 2 but which crash today) are listed and counted in
``failed_frac`` and ``cli.exit_code_count.crash``, not in ``failed``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
GOLDEN_PATH = os.path.join(BENCH_DIR, "golden.json")
WORK_ROOT = os.path.join(ROOT, ".bench_tmp")

import spans  # noqa: E402
import workloads as W  # noqa: E402

SETUP_REPEATS = 9
# time of `calibrate()` on the reference machine (Intel Xeon, 2 vCPUs, Python 3.11.7) when idle
CALIBRATION_REF_S = 0.001
# how often the speed sampler interrupts the work to time `calibrate()`
SAMPLE_INTERVAL_S = 0.05
HV_MODULES = ("scalars", "polys", "algebra", "modules", "analysis", "linalg", "cli")
EMPTY_SHA256 = hashlib.sha256(b"").hexdigest()

# end-to-end metrics: every workload reports each (BENCHMARK.json "end_to_end")
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    """Per-layer metric name -> unit (BENCHMARK.json "per_layer")."""
    units = {
        "scalars.add_calls": "count",
        "scalars.mul_calls": "count",
        "scalars.div_calls": "count",
        "scalars.gaussian_share": "ratio",
        "scalars.self_s": "s",
        "polys.jet_expand_calls": "count",
        "polys.shift_calls": "count",
        "polys.self_s": "s",
        "algebra.bracket_calls": "count",
        "algebra.bracket_self_s": "s",
        "algebra.sweep_self_s": "s",
    }
    for fam in spans.FAMILIES:
        units[f"modules.act_calls.{fam}"] = "count"
        units[f"modules.act_self_s.{fam}"] = "s"
    units.update({
        "modules.translate_calls": "count",
        "modules.descriptor_s": "s",
        "modules.cache_entries.omega_term": "count",
        "modules.cache_entries.verma_act": "count",
        "modules.cache_entries.eval_jet": "count",
        "modules.act_per_cache_entry": "ratio",
    })
    for driver in spans.DRIVERS:
        units[f"analysis.self_s.{driver}"] = "s"
    units.update({
        "analysis.raising_words": "count",
        "analysis.level_dim": "count",
        "analysis.words_per_dim": "ratio",
        "linalg.nullspace_calls": "count",
        "linalg.self_s": "s",
        "linalg.rows": "count",
        "linalg.cols": "count",
        "linalg.pivot_ratio": "ratio",
        "cli.run_config_self_s": "s",
    })
    for code in ("0", "1", "2", "crash"):
        units[f"cli.exit_code_count.{code}"] = "count"
    units["trace.overhead_ratio"] = "ratio"
    return units


PER_LAYER_UNITS = per_layer_units()


class Hv:
    """The freshly imported hvkit package and its layer modules."""

    def __init__(self):
        self.package = importlib.import_module("hvkit")
        for name in HV_MODULES:
            setattr(self, name, importlib.import_module(f"hvkit.{name}"))

    def all_modules(self) -> list:
        return [self.package] + [getattr(self, name) for name in HV_MODULES]


def import_hvkit() -> Hv:
    """Import hvkit from this checkout's src/, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "hvkit" or n.startswith("hvkit.")]:
        del sys.modules[name]
    hv = Hv()
    where = os.path.dirname(os.path.abspath(hv.package.__file__))
    if where != os.path.join(SRC, "hvkit"):
        raise SystemExit(f"hvkit imported from {where}, not from {SRC}")
    return hv


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def calibrate() -> float:
    """Time a fixed pure-Python slice of about a millisecond.

    Exact rational arithmetic and tuple-keyed dict accumulation, like the
    package, but no hvkit code, so no change to the package can move it.
    """
    t0 = time.perf_counter()
    acc: dict = {}
    x = Fraction(1, 3)
    for i in range(200):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0) + x * (i % 7) - Fraction(i % 5, 7)
    return time.perf_counter() - t0


class SpeedSampler:
    """Measures the host's speed while the work runs.

    The host this benchmark was built on is shared: it switches between a
    fast and a slow state within seconds, and a pass's raw time mostly says
    how long it spent slowed down.  While a run measures, an interval timer
    (SIGALRM, every ``SAMPLE_INTERVAL_S``) interrupts the work and times
    ``calibrate()``.  An interval [t0, t1] is then reported net of the
    slices inside it and scaled by ``CALIBRATION_REF_S`` over the mean slice
    time in and around it, i.e. in seconds at the reference speed.
    """

    def __init__(self):
        self.ends: list = []
        self.durations: list = []

    def _tick(self, _signum=None, _frame=None):
        d = calibrate()
        self.durations.append(d)
        self.ends.append(time.perf_counter())

    def __enter__(self):
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()

    def scaled(self, t0: float, t1: float) -> tuple:
        """(seconds net of calibration, the same at reference speed) for [t0, t1].

        The speed is the mean over the slices inside the interval and within
        two sample intervals of it, so that a short interval still averages
        a few slices.
        """
        i = bisect.bisect_left(self.ends, t0)
        j = bisect.bisect_right(self.ends, t1)
        net = t1 - t0 - sum(self.durations[i:j])
        lo = bisect.bisect_left(self.ends, t0 - 2 * SAMPLE_INTERVAL_S)
        hi = bisect.bisect_right(self.ends, t1 + 2 * SAMPLE_INTERVAL_S)
        near = self.durations[min(lo, max(i - 1, 0)):max(hi, j + 1)]
        return net, net * CALIBRATION_REF_S / statistics.fmean(near)


class Setup:
    def __init__(self, hv, ops, golden, workdir):
        self.hv, self.ops, self.golden, self.workdir = hv, ops, golden, workdir


def set_up(workload: W.Workload, seed: int, tiny: bool) -> tuple:
    """Run the set-up SETUP_REPEATS times; return (last Setup, [(t0, t1)] per repeat)."""
    stamps = []
    workdir = None
    if workload.name == "cli-corpus":
        workdir = os.path.join(WORK_ROOT, f"cli-{os.getpid()}")
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        hv = import_hvkit()
        ops = workload.plan(random.Random(seed), tiny)
        golden = load_golden()
        if workdir is not None:
            os.makedirs(workdir, exist_ok=True)
            W.write_cli_files(ops, workdir)
        stamps.append((t0, time.perf_counter()))
    return Setup(hv, ops, golden, workdir), stamps


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


class OpRecord:
    __slots__ = ("op", "t0", "t1", "latency_s", "outcome", "units", "status")

    def __init__(self, op, t0, t1, outcome, units):
        self.op, self.t0, self.t1, self.outcome, self.units = op, t0, t1, outcome, units
        self.latency_s = 0.0  # at reference speed, set by `scale_times`
        self.status = None  # "ok" | "known_crash" | "mismatch"


class Pass:
    def __init__(self, traced: bool):
        self.traced = traced
        self.t0 = self.t1 = 0.0
        self.raw_s = 0.0  # wall time net of calibration, at the host's speed
        self.wall_s = 0.0  # the same at reference speed
        self.records: list[OpRecord] = []
        self.cache_entries = {"omega_term": 0, "verma_act": 0, "eval_jet": 0}


def run_pass(ops, ctx, traced: bool) -> Pass:
    p = Pass(traced)
    p.t0 = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            outcome, units = op.run(ctx)
        except Exception as exc:  # an operation that raises has failed its check
            outcome, units = {"error": f"{type(exc).__name__}: {exc}"}, {}
        p.records.append(OpRecord(op, t0, time.perf_counter(), outcome, units))
    p.t1 = time.perf_counter()
    return p


def scale_times(speed: SpeedSampler, passes: list):
    for p in passes:
        p.raw_s, p.wall_s = speed.scaled(p.t0, p.t1)
        for r in p.records:
            r.latency_s = speed.scaled(r.t0, r.t1)[1]


def classify(rec: OpRecord, workload: W.Workload, golden: dict):
    outcome = W.normalise(rec.outcome)
    if not rec.op.golden:
        rec.status = "ok" if "error" not in outcome and workload.check(outcome) else "mismatch"
        return
    expected = golden.get(workload.name, {}).get(rec.op.key)
    if expected is None:
        rec.status = "mismatch"
        return
    expected = dict(expected)
    known = expected.pop("known_crash", None)
    if outcome == expected:
        rec.status = "ok"
    elif known is not None and outcome.get("exit") == f"crash:{known}":
        rec.status = "known_crash"
    else:
        rec.status = "mismatch"


def cache_entries(hv, handles) -> dict:
    """Entry counts of the per-handle caches, read from outside after a pass."""
    M = hv.modules
    seen, todo = set(), list(handles)
    out = {"omega_term": 0, "verma_act": 0, "eval_jet": 0}
    while todo:
        h = todo.pop()
        if id(h) in seen:
            continue
        seen.add(id(h))
        if isinstance(h, M.OmegaModule):
            out["omega_term"] += len(h._term_cache)
        elif isinstance(h, M.TruncatedVerma):
            out["verma_act"] += len(h._cache)
        elif isinstance(h, M.EvaluationModule):
            out["eval_jet"] += len(h._jet_cache)
            todo.append(h.inner)
        elif isinstance(h, M.TensorModule):
            todo += [h.left, h.right]
    return out


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def quantiles_ms(passes) -> tuple:
    """(p50, p90) of operation latency: per pass, then the median over passes.

    Every pass runs the same operations, so a per-pass percentile always
    falls at the same place among them; pooling the passes would move it
    across operation types as the pass count changes.
    """
    p50s, p90s = [], []
    for p in passes:
        lat = [r.latency_s * 1e3 for r in p.records]
        p50s.append(statistics.median(lat))
        p90s.append(statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0])
    return statistics.median(p50s), statistics.median(p90s)


def pass_rate(p: Pass, units_key: str, phase) -> float:
    recs = [r for r in p.records if phase is None or r.op.phase == phase]
    work = sum(r.units.get(units_key, 0) for r in recs)
    busy = p.wall_s if phase is None else sum(r.latency_s for r in recs)
    return work / busy if busy > 0 else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def e2e_metrics(workload, passes, setup_s) -> tuple:
    """(end-to-end metrics for the result line, the issue's named metrics for people)."""
    records = [r for p in passes for r in p.records]
    p50, p90 = quantiles_ms(passes)
    rates = {
        name: statistics.median(pass_rate(p, key, phase) for p in passes)
        for name, (key, phase) in workload.rates.items()
    }
    primary = next(iter(rates.values()))
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall_s for p in passes),
        "work_per_s": primary,
        "op_p50_ms": p50,
        "op_p90_ms": p90,
        "peak_rss_mb": peak_rss_mb(),
    }
    failing = sum(1 for r in records if r.status != "ok")
    named = [
        ("setup_s", setup_s, "s"),
        ("wall_s", metrics["wall_s"], "s"),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB"),
        ("failed_frac", failing / len(records), "ratio"),
    ]
    for name, value in rates.items():
        named.append((name, value, "1/s"))
    if workload.name == "cli-corpus":
        named += [("cli.latency_p50_ms", p50, "ms"), ("cli.latency_p90_ms", p90, "ms")]
    named.append(("samples", len(records), "count"))
    return metrics, named


def per_layer_metrics(tracer, passes) -> dict:
    """Per traced pass; times scaled to the reference speed like the end-to-end ones."""
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    n = len(traced)
    scale = statistics.median(p.wall_s / p.raw_s for p in traced)
    layer_self = {k: v * scale for k, v in tracer.layer_self_s().items()}
    calls = tracer.calls

    def self_s(name):
        return tracer.self_s(name) * scale
    sc = tracer.scalar_calls
    scalar_total = sum(sc.values())
    m = {
        "scalars.add_calls": sc["add"] / n,
        "scalars.mul_calls": sc["mul"] / n,
        "scalars.div_calls": sc["div"] / n,
        "scalars.gaussian_share": tracer.scalar_gaussian / scalar_total if scalar_total else 0.0,
        "scalars.self_s": layer_self["scalars"] / n,
        "polys.jet_expand_calls": calls("polys.jet_expand") / n,
        "polys.shift_calls": calls("polys.PolyT.shift") / n,
        "polys.self_s": layer_self["polys"] / n,
        "algebra.bracket_calls": calls("algebra.bracket") / n,
        "algebra.bracket_self_s": self_s("algebra.bracket") / n,
        "algebra.sweep_self_s": self_s("algebra.jacobi_antisymmetry_sweep") / n,
    }
    act_total = 0
    for fam in spans.FAMILIES:
        act_total += calls(f"modules.{fam}.act")
        m[f"modules.act_calls.{fam}"] = calls(f"modules.{fam}.act") / n
        m[f"modules.act_self_s.{fam}"] = self_s(f"modules.{fam}.act") / n
    entries = {key: sum(p.cache_entries[key] for p in traced) for key in traced[0].cache_entries}
    m["modules.translate_calls"] = calls("modules.evaluation.translate") / n
    m["modules.descriptor_s"] = tracer.incl_s("modules.module_from_descriptor") * scale / n
    for key, value in entries.items():
        m[f"modules.cache_entries.{key}"] = value / n
    total_entries = sum(entries.values())
    m["modules.act_per_cache_entry"] = act_total / total_entries if total_entries else 0.0
    for driver in spans.DRIVERS:
        m[f"analysis.self_s.{driver}"] = self_s(f"analysis.{driver}") / n
    m["analysis.raising_words"] = tracer.words / n
    m["analysis.level_dim"] = tracer.level_dim / n
    m["analysis.words_per_dim"] = tracer.words / tracer.level_dim if tracer.level_dim else 0.0
    m["linalg.nullspace_calls"] = calls("linalg.nullspace") / n
    m["linalg.self_s"] = layer_self["linalg"] / n
    m["linalg.rows"] = tracer.linalg_rows / n
    m["linalg.cols"] = tracer.linalg_cols / n
    m["linalg.pivot_ratio"] = tracer.linalg_pivots / tracer.linalg_rows if tracer.linalg_rows else 0.0
    m["cli.run_config_self_s"] = self_s("cli.run_config") / n
    codes = {"0": 0, "1": 0, "2": 0, "crash": 0}
    for p in traced:
        for r in p.records:
            code = r.outcome.get("exit") if isinstance(r.outcome, dict) else None
            if code is None:
                continue
            codes["crash" if str(code).startswith("crash:") else str(code)] += 1
    for code, count in codes.items():
        m[f"cli.exit_code_count.{code}"] = count / n
    m["trace.overhead_ratio"] = (
        statistics.median(p.wall_s for p in traced) / statistics.median(p.wall_s for p in untraced)
    )
    return m


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def git_commit() -> str | None:
    """The checkout's commit, read from .git without running git; None outside a repo."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """sha256 over src/hvkit's sources: identifies the code when there is no .git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "hvkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(workload, seed, passes, t_start) -> dict:
    """Where and how the run happened; pass wall times here are raw, not scaled."""
    untraced = [p.raw_s for p in passes if not p.traced]
    traced = [p.raw_s for p in passes if p.traced]
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "passes_untraced": len(untraced),
        "passes_traced": len(traced),
        "pass_wall_s_untraced": statistics.median(untraced) if untraced else None,
        "pass_wall_s_traced": statistics.median(traced) if traced else None,
        "host_slowdown": statistics.median(p.raw_s / p.wall_s for p in passes),
        "run_wall_s": time.perf_counter() - t_start,
    }


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


class Result:
    def __init__(self):
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.metrics: dict = {}  # name -> (value, unit) for the result line
        self.named: list = []  # (name, value, unit) printed for people
        self.env: dict = {}
        self.known_crashes: list = []
        self.mismatches: list = []
        self.span_table: list = []

    def line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        })


def run_passes(setup, seed, seconds, tracer, mutate) -> list:
    """Passes until `seconds` have elapsed; with a tracer, every second pass is traced."""
    hv = setup.hv
    overrides = mutate(hv, setup.golden) if mutate else {}
    ctx = W.Context(hv, seed, setup.workdir, **overrides)
    passes: list[Pass] = []
    t_run = time.perf_counter()
    while True:
        if tracer is not None and len(passes) % 2 == 1:
            ctx.handles = tracer.handles
            tracer.install()
            try:
                p = run_pass(setup.ops, ctx, True)
            finally:
                tracer.remove()
            p.cache_entries = cache_entries(hv, tracer.handles)
            tracer.handles.clear()
            ctx.handles = None
        else:
            p = run_pass(setup.ops, ctx, False)
        passes.append(p)
        if len(passes) >= (1 if tracer is None else 2) and time.perf_counter() - t_run >= seconds:
            return passes


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
            mutate=None) -> Result:
    """Set up, run passes for `seconds`, check every outcome, compute metrics.

    `mutate(hv, golden)` (self-test only) may edit the golden copy and return
    Context keyword arguments such as a mutated ``structure``.
    """
    t_start = time.perf_counter()
    workload = W.WORKLOADS[name]
    speed = SpeedSampler()
    with speed:
        setup, setup_stamps = set_up(workload, seed, tiny)
        tracer = spans.Tracer(setup.hv) if trace else None
        try:
            passes = run_passes(setup, seed, seconds, tracer, mutate)
        finally:
            if setup.workdir is not None:
                shutil.rmtree(setup.workdir, ignore_errors=True)
                if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
                    os.rmdir(WORK_ROOT)
    golden = setup.golden
    setup_s = statistics.median(speed.scaled(a, b)[1] for a, b in setup_stamps)
    scale_times(speed, passes)

    res = Result()
    known = {}
    for p in passes:
        for rec in p.records:
            classify(rec, workload, golden)
            res.attempted += 1
            if rec.status == "mismatch":
                res.failed += 1
                if len(res.mismatches) < 20:
                    expected = golden.get(name, {}).get(rec.op.key)
                    res.mismatches.append((rec.op.label, expected, rec.outcome))
            elif rec.status == "known_crash":
                known[rec.op.label] = rec.outcome["exit"]
    res.correct = res.failed == 0
    res.known_crashes = sorted(known.items())
    e2e, named = e2e_metrics(workload, [p for p in passes if not p.traced], setup_s)
    if trace:
        layer = per_layer_metrics(tracer, passes)
        res.metrics = {k: (layer[k], PER_LAYER_UNITS[k]) for k in PER_LAYER_UNITS}
        res.span_table = tracer.table()
    else:
        res.metrics = {k: (e2e[k], E2E_UNITS[k]) for k in E2E_UNITS}
    res.named = named
    res.env = environment(name, seed, passes, t_start)
    return res


def report(res: Result, trace: bool):
    env = res.env
    print(f"# hvkit benchmark: workload={env['workload']} seed={env['seed']} trace={int(trace)}")
    for key, value in env.items():
        print(f"env {key} {value}")
    for name, value, unit in res.named:
        print(f"metric {name} {value:.6g} {unit}")
    if trace:
        for name, (value, unit) in res.metrics.items():
            print(f"layer {name} {value:.6g} {unit}")
        print("# spans over all traced passes, busiest first, raw seconds: name calls inclusive_s self_s")
        for span, calls, incl, self_s in res.span_table[:25]:
            print(f"span {span} {calls} {incl:.4f} {self_s:.4f}")
    for label, outcome in res.known_crashes:
        print(f"known_crash {label} {outcome}")
    for label, expected, got in res.mismatches:
        print(f"mismatch {label} expected={json.dumps(expected)} got={json.dumps(got)}")
    print(res.line(), flush=True)


def run_all(args) -> int:
    """Run each workload in its own process and print a combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in W.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"# {name}: no result (exit {proc.returncode})")
            combined["correct"] = False
            status = 1
            continue
        status = status or proc.returncode
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined), flush=True)
    return status or (0 if combined["correct"] else 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(W.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a small subset of each plan, for the self-test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hvkit", "__init__.py")):
        print(f"error: no hvkit sources under {SRC}", file=sys.stderr)
        return 2
    if not os.path.isfile(GOLDEN_PATH):
        print(f"error: missing {GOLDEN_PATH}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    res = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    report(res, bool(args.trace))
    return 0 if res.correct else 1


if __name__ == "__main__":
    sys.exit(main())
