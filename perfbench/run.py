"""ppmproj benchmark: per-column projection latency and exhaustive-search throughput.

    python3 perfbench/run.py --workload normal --seed 1 --seconds 55 --trace 0

Run from the root of a checkout; ppmproj is imported from its ``src``.  One
caller runs a closed loop of three kinds of operation, interleaved so that
each is spread over the whole run:

* projected columns, drawn round by round: one fresh tree per shape, each
  with a fresh q-by-4 matrix.  Every column goes through ``project`` and
  then ``project_incremental``, each timed on its own and scaled by a
  fixed calibration loop timed next to it (see ``Calibration``).  Columns
  get 60% of the time, and at least 100 are taken, so that at least 10
  samples lie beyond p90;
* searches: ``search_all`` over all 7^5 trees at q=7, p=3, k=5 with two
  worker processes, each on a fresh matrix drawn on a planted tree (at
  least 3), scaled by the calibration loop timed on each CPU;
* set-up probes: SETUP_PROBES fresh interpreters at even intervals, each
  timed until it is ready for its first operation and scaled like a search.

Every result is verified (see verify.py) and a result that raises or fails
verification counts in ``failed``.  With ``--trace 0`` the last line of
stdout holds the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics, measured from outside the library by replaying each
column's layer calls through public functions (see ``Run.trace_column``).
Lines before it give sample counts, the failure share and provenance; the
same record, with the spans of a traced run, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import inspect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import numpy as np

import inputs
import verify
from checkout import MissingProgram, git_commit, load_ppmproj

OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass(frozen=True)
class Workload:
    regime: str
    q: int
    shapes: tuple


# Why these workloads: BENCHMARK.json and README.md in this directory.
WORKLOADS = {
    "normal": Workload("normal", 2000, ("branching", "prufer", "chain", "star")),
    "nearfeasible": Workload("nearfeasible", 300, ("branching", "prufer", "chain")),
}
P = 4
SEARCH_Q, SEARCH_P, SEARCH_K = 7, 3, 5
SEARCH_TREES = SEARCH_Q ** (SEARCH_Q - 2)
SEARCH_WORKERS = min(2, os.cpu_count() or 1)
PROJECTION_SHARE = 0.6
MIN_COLUMNS = 100
MIN_SEARCHES = 3
SETUP_PROBES = 7
# Nominal time of one Calibration.ms() loop: about its median on a 2-core
# Xeon.  Column times are reported in milliseconds at this loop speed.
CALIBRATION_MS = 3.5
# Traced run only: searches at workers=1 and workers=SEARCH_WORKERS on the
# same inputs, pool start-ups at q=3, and Prüfer codes decoded.
FANOUT_PAIRS = 2
POOL_PROBES = 5
DECODE_SAMPLES = 2000

END_TO_END_UNITS = {
    "setup_s": "s",
    "project.col_ms_p50": "ms",
    "project.col_ms_p90": "ms",
    "project_incremental.col_ms_p50": "ms",
    "project_incremental.col_ms_p90": "ms",
    "search.trees_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "tree.ancestor_sums_ms": "ms",
    "rates.slope_pass_ms": "ms",
    "rates.slope_share": "ratio",
    "rates.slope_passes": "count",
    "rates.components": "count",
    "rates.nodes_visited": "count",
    "rates.reduce_ops": "count",
    "rates.star_ops": "count",
    "rates.edges_touched": "count",
    "projection.segments_p50": "count",
    "projection.segments_max": "count",
    "projection.recover_ms": "ms",
    "projection.self_ms": "ms",
    "incremental.component_solves": "count",
    "incremental.solves_per_segment": "ratio",
    "incremental.alloc_peak_mb": "MB",
    "search.serial_trees_per_s": "1/s",
    "search.fanout_eff": "ratio",
    "search.pool_start_s": "s",
    "search.decode_us": "us",
    "trace.overhead_ms": "ms",
    "trace.overhead_share": "ratio",
}
RATE_COUNTERS = ("components", "nodes_visited", "reduce_ops", "star_ops", "edges_touched")
# The replayed children of a traced ``project`` span.
SELF_CHILDREN = ("tree.ancestor_sums_ms", "rates.slope_pass_ms", "projection.recover_ms")


def prepare(ppm, workload: Workload, seed: int, rnd: int):
    """Round ``rnd`` of projection inputs as (op prefix, tree, view, F̂)."""
    batch = []
    for shape, parents, fhat in inputs.projection_round(
            workload.regime, workload.shapes, workload.q, P, seed, rnd):
        tree = ppm.RootedTree.from_parent_array(parents)
        batch.append((f"r{rnd}.{shape}", tree, verify.TreeView(parents), fhat))
    return batch


def accepts(fn, name: str) -> bool:
    try:
        return name in inspect.signature(fn).parameters
    except (TypeError, ValueError):
        return False


class Spans:
    """Spans kept in memory: (name, start ns, end ns, parent index, op id)."""

    def __init__(self):
        self.rows = []

    def call(self, name, op, parent, fn, *args, **kwargs):
        start = time.perf_counter_ns()
        result = fn(*args, **kwargs)
        end = time.perf_counter_ns()
        self.rows.append((name, start, end, parent, op))
        return result, len(self.rows) - 1

    def ms(self, index: int) -> float:
        _, start, end, _, _ = self.rows[index]
        return (end - start) / 1e6


class Calibration:
    """A fixed pure-Python loop, timed before and after every column, search
    and set-up probe.

    On a shared host the same call runs up to 1.6 times slower for seconds at
    a time, as the load on the machine changes.  The loop does the kind of
    work the solvers do, a pass over a 3000-node tree and a heap of 4000
    entries, so it slows with them.  A column's time divided by the loop's,
    measured next to it, keeps the cost of the column and drops most of the
    swing.  Its inputs are fixed, so that every run times the same loop,
    and it runs with the cyclic garbage collector paused, so that its time
    does not depend on how many objects the program under test keeps alive.
    """

    def __init__(self):
        rng = inputs.rng_for(0, 99)
        self.parents = inputs.prufer_parents(3000, rng)
        self.order = inputs.bfs_order(self.parents)[1:]
        self.values = rng.standard_normal(3000).tolist()
        self.keys = rng.random(4000).tolist()

    def ms(self) -> float:
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter_ns()
            parents = self.parents
            for _ in range(2):
                vals = list(self.values)
                for v in self.order:
                    vals[v] += vals[parents[v] - 1]
            heap = []
            for i, key in enumerate(self.keys):
                heapq.heappush(heap, (key, i))
            while heap:
                heapq.heappop(heap)
            return (time.perf_counter_ns() - start) / 1e6
        finally:
            if collecting:
                gc.enable()

    def ms_on_each_cpu(self) -> float:
        """Mean of ``ms()`` over the CPUs this process may use, pinned to
        each in turn: the search's workers run on all of them, and their
        speeds swing apart.  The first loop after each move warms the
        caches and is not counted."""
        if not hasattr(os, "sched_setaffinity"):
            return self.ms()
        cpus = os.sched_getaffinity(0)
        times = []
        try:
            for cpu in sorted(cpus):
                os.sched_setaffinity(0, {cpu})
                self.ms()
                times.append(self.ms())
        finally:
            os.sched_setaffinity(0, cpus)
        return statistics.fmean(times)


class Run:
    def __init__(self, ppm, workload: Workload, seed: int, trace: bool):
        self.ppm = ppm
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.first_round = prepare(ppm, workload, seed, 0)
        self.first_search = inputs.search_instance(
            workload.regime, SEARCH_Q, SEARCH_P, seed, 0)
        self.attempted = 0
        self.columns = 0
        self.failures = []
        self.worst_certificate = 0.0
        self.samples = defaultdict(list)
        self.spans = Spans()
        self.absent = {}
        self.calibration = Calibration()
        # Calibration time just before the next column; None after any other
        # operation.
        self.calibration_before = None
        if trace:
            self._detect_layers()

    # -- bookkeeping -------------------------------------------------------

    def fail(self, op, messages):
        self.failures.append((op, messages))

    def checked(self, op, view, col, a, b):
        """Certify both results of one column; True when all checks pass."""
        tau = view.tolerance(col)
        failures = verify.agree(a, b, tau)
        for name, res in (("project", a), ("project_incremental", b)):
            bad, worst = verify.certify(view, col, res.m_star, res.f_star, res.cost, tau)
            failures += [f"{name}: {msg}" for msg in bad]
            self.worst_certificate = max(self.worst_certificate, worst)
        if failures:
            self.fail(op, failures)
        return not failures

    # -- measurement loops -------------------------------------------------

    def measure(self, seconds: float, setup_probe):
        """Interleave projected columns and searches for ``seconds``, with
        SETUP_PROBES calls of ``setup_probe`` at even intervals.

        The machine's speed drifts over tens of seconds, so every kind of
        operation is spread over the whole run instead of one phase each;
        columns get PROJECTION_SHARE of the time.  The loop checks the clock
        after every column, so a run overshoots ``seconds`` by at most one
        operation and the probes still due.
        """
        columns = self.column_stream()
        start = time.perf_counter()
        in_projection = 0.0
        searches = 0
        setup = self.samples["setup_s"]
        while True:
            now = time.perf_counter()
            if len(setup) < SETUP_PROBES and now >= start + len(setup) * seconds / SETUP_PROBES:
                before = self.calibration.ms_on_each_cpu()
                wall = setup_probe()
                after = self.calibration.ms_on_each_cpu()
                setup.append(wall * CALIBRATION_MS / ((before + after) / 2))
                self.samples["setup.wall"].append(wall)
                self.calibration_before = None
                continue
            if now < start + seconds:
                project = in_projection <= PROJECTION_SHARE * (now - start)
            elif self.columns < MIN_COLUMNS:
                project = True
            elif searches < MIN_SEARCHES:
                project = False
            else:
                return
            if project:
                self.project_column(*next(columns))
                in_projection += time.perf_counter() - now
            else:
                before = self.calibration.ms_on_each_cpu()
                wall = self.search(searches, SEARCH_WORKERS)
                after = self.calibration.ms_on_each_cpu()
                if wall is not None:
                    rate = SEARCH_TREES / wall
                    self.samples["search"].append(
                        rate * (before + after) / 2 / CALIBRATION_MS)
                    self.samples["search.wall"].append(rate)
                searches += 1
                self.calibration_before = None

    def trace_layers(self, seconds: float):
        """Traced columns for PROJECTION_SHARE of ``seconds``, then the
        search-layer probes."""
        columns = self.column_stream()
        deadline = time.perf_counter() + PROJECTION_SHARE * seconds
        while self.columns == 0 or time.perf_counter() < deadline:
            self.project_column(*next(columns))
        self.search_layers()

    def column_stream(self):
        """Every column of every projection round, in order, without end:
        (op id, tree, view, column, first column of a round-0 tree)."""
        rnd = 0
        while True:
            batch = self.first_round if rnd == 0 else prepare(
                self.ppm, self.workload, self.seed, rnd)
            for prefix, tree, view, fhat in batch:
                for s in range(P):
                    yield (f"{prefix}.c{s}", tree, view,
                           np.ascontiguousarray(fhat[:, s]), rnd == 0 and s == 0)
            rnd += 1

    def project_column(self, op, tree, view, col, first):
        self.attempted += 1
        self.columns += 1
        try:
            if self.trace:
                self.trace_column(op, tree, view, col, alloc=first)
            else:
                self.time_column(op, tree, view, col)
        except Exception:
            self.fail(op, [traceback.format_exc()])

    def time_column(self, op, tree, view, col):
        """Time both solvers on one column, in milliseconds at the
        calibration loop's nominal speed (see ``Calibration``)."""
        ppm, samples = self.ppm, self.samples
        # Every column starts from the same collector state, so garbage
        # left by earlier columns and searches is not charged to this one.
        gc.collect()
        if self.calibration_before is None:
            self.calibration_before = self.calibration.ms()
        t0 = time.perf_counter_ns()
        a = ppm.project(tree, col)
        t1 = time.perf_counter_ns()
        b = ppm.project_incremental(tree, col)
        t2 = time.perf_counter_ns()
        after = self.calibration.ms()
        calibration_ms = (self.calibration_before + after) / 2
        self.calibration_before = after
        if self.checked(op, view, col, a, b):
            scale = CALIBRATION_MS / calibration_ms / 1e6
            samples["project"].append((t1 - t0) * scale)
            samples["project_incremental"].append((t2 - t1) * scale)
            samples["project.wall"].append((t1 - t0) / 1e6)
            samples["project_incremental.wall"].append((t2 - t1) / 1e6)
            samples["calibration"].append(calibration_ms)

    def _detect_layers(self):
        ppm = self.ppm
        self.keep_path = accepts(ppm.project, "keep_path")
        self.counters = accepts(ppm.project, "counters")
        self.compute_rates = getattr(ppm, "compute_rates", None)
        self.ancestor_sums = getattr(ppm, "ancestor_sums", None)
        self.recover_solution = getattr(ppm, "recover_solution", None)
        rates_metrics = ("rates.slope_pass_ms", "rates.slope_share")
        if not self.keep_path:
            for name in rates_metrics + ("rates.slope_passes",):
                self.absent[name] = "project() takes no keep_path="
        elif self.compute_rates is None:
            for name in rates_metrics:
                self.absent[name] = "ppmproj.compute_rates is gone"
        if not self.counters:
            for key in RATE_COUNTERS:
                self.absent[f"rates.{key}"] = "project() takes no counters="
        if self.ancestor_sums is None:
            self.absent["tree.ancestor_sums_ms"] = "ppmproj.ancestor_sums is gone"
        if self.recover_solution is None:
            self.absent["projection.recover_ms"] = "ppmproj.recover_solution is gone"
        if any(name in self.absent for name in SELF_CHILDREN):
            self.absent["projection.self_ms"] = "a child layer is not replayable"

    def trace_column(self, op, tree, view, col, alloc):
        """Time ``project`` untraced and traced, then replay its layers.

        The replayed calls are recorded as children of the traced
        ``project`` span; the parent's self time is its duration minus
        theirs.
        """
        ppm, spans, samples = self.ppm, self.spans, self.samples
        kwargs = {}
        counters = {}
        if self.keep_path:
            kwargs["keep_path"] = True
        if self.counters:
            kwargs["counters"] = counters
        # Alternate which call comes first, so neither is always the one
        # that meets the column cold.
        plain_first = len(samples["project_plain_ms"]) % 2 == 0
        if plain_first:
            plain_ms = timed_ms(ppm.project, tree, col)
        a, top = spans.call("project", op, None, ppm.project, tree, col, **kwargs)
        if not plain_first:
            plain_ms = timed_ms(ppm.project, tree, col)
        samples["project_plain_ms"].append(plain_ms)
        b, inc = spans.call("project_incremental", op, None, ppm.project_incremental, tree, col)
        if not self.checked(op, view, col, a, b):
            return
        project_ms = spans.ms(top)
        layer = {}
        if self.ancestor_sums is not None:
            _, i = spans.call("tree.ancestor_sums", op, top, self.ancestor_sums, tree, col)
            layer["tree.ancestor_sums_ms"] = spans.ms(i)
        path = getattr(a, "path", None) if self.keep_path else None
        if path is not None:
            layer["rates.slope_passes"] = len(path)
            if self.compute_rates is not None:
                slope = 0.0
                for state in path:
                    _, i = spans.call("rates.compute_rates", op, top,
                                      self.compute_rates, tree, state.boundary)
                    slope += spans.ms(i)
                layer["rates.slope_pass_ms"] = slope
                layer["rates.slope_share"] = slope / project_ms
        if self.recover_solution is not None:
            _, i = spans.call("projection.recover_solution", op, top,
                              self.recover_solution, tree, a.z_star)
            layer["projection.recover_ms"] = spans.ms(i)
        if all(name in layer for name in SELF_CHILDREN):
            layer["projection.self_ms"] = project_ms - sum(layer[n] for n in SELF_CHILDREN)
        if self.counters:
            for key in RATE_COUNTERS:
                layer[f"rates.{key}"] = counters.get(key, 0)
        if getattr(a, "iterations", None) is not None:
            layer["projection.segments"] = a.iterations
        solves = getattr(b, "rate_recomputations", None)
        if solves is not None:
            layer["incremental.component_solves"] = solves
            layer["incremental.solves_per_segment"] = solves / b.iterations
        if alloc:
            tracemalloc.start()
            try:
                ppm.project_incremental(tree, col)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            layer["incremental.alloc_peak_mb"] = peak / 2**20
        for name, value in layer.items():
            samples[name].append(value)
        samples["project"].append(project_ms)
        samples["project_incremental"].append(spans.ms(inc))

    # -- searches ----------------------------------------------------------

    def search(self, index: int, workers: int, q: int = SEARCH_Q):
        """One verified ``search_all``; returns its wall seconds or None."""
        ppm = self.ppm
        if index == 0 and q == SEARCH_Q:
            parents, fhat = self.first_search
        else:
            parents, fhat = inputs.search_instance(
                self.workload.regime, q, SEARCH_P, self.seed, index)
        op = f"search.q{q}.w{workers}.i{index}"
        self.attempted += 1
        try:
            spec = ppm.SearchSpec(fhat=fhat, k=SEARCH_K)
            report, i = self.spans.call("search_all", op, None, ppm.search_all,
                                        spec, workers=workers)
            failures = verify.check_search(ppm, report, fhat, SEARCH_K, parents)
        except Exception:
            failures = [traceback.format_exc()]
        if failures:
            self.fail(op, failures)
            return None
        return self.spans.ms(i) / 1e3

    def search_layers(self):
        """Per-layer search figures: serial rate, fan-out, pool start, decode."""
        for index in range(FANOUT_PAIRS):
            serial = self.search(index, 1)
            parallel = self.search(index, SEARCH_WORKERS)
            if serial is not None and parallel is not None:
                self.samples["search.serial_trees_per_s"].append(SEARCH_TREES / serial)
                self.samples["search.fanout_eff"].append(serial / (SEARCH_WORKERS * parallel))
        for index in range(POOL_PROBES):
            wall = self.search(index, 2, q=3)
            if wall is not None:
                self.samples["search.pool_start_s"].append(wall)
        rng = inputs.rng_for(self.seed, inputs.REGIMES.index(self.workload.regime), 2)
        codes = rng.integers(1, SEARCH_Q + 1, size=(DECODE_SAMPLES, SEARCH_Q - 2)).tolist()
        decode = self.ppm.decode_prufer
        _, i = self.spans.call("decode_prufer", "search.decode", None,
                               lambda: [decode(c, SEARCH_Q) for c in codes])
        self.samples["search.decode_us"].append(self.spans.ms(i) * 1e3 / DECODE_SAMPLES)

    # -- results -----------------------------------------------------------

    def end_to_end(self):
        self.samples["peak_rss_mb"] = [peak_rss_mb()]
        return self.summarize({
            "setup_s": ("setup_s", statistics.median),
            "project.col_ms_p50": ("project", statistics.median),
            "project.col_ms_p90": ("project", p90),
            "project_incremental.col_ms_p50": ("project_incremental", statistics.median),
            "project_incremental.col_ms_p90": ("project_incremental", p90),
            "search.trees_per_s": ("search", statistics.median),
            "peak_rss_mb": ("peak_rss_mb", max),
        }), END_TO_END_UNITS

    def unscaled(self):
        """Column times, search rate and set-up time as measured by the
        clock, and the calibration loop's time: {name: (value, unit)}."""
        s = self.samples
        plan = {
            "project.wall_ms_p50": ("project.wall", statistics.median, "ms"),
            "project.wall_ms_p90": ("project.wall", p90, "ms"),
            "project_incremental.wall_ms_p50": ("project_incremental.wall", statistics.median, "ms"),
            "project_incremental.wall_ms_p90": ("project_incremental.wall", p90, "ms"),
            "search.wall_trees_per_s": ("search.wall", statistics.median, "1/s"),
            "setup.wall_s": ("setup.wall", statistics.median, "s"),
            "calibration_ms_p50": ("calibration", statistics.median, "ms"),
        }
        return {name: (statistic(s[key]), unit)
                for name, (key, statistic, unit) in plan.items() if s[key]}

    def per_layer(self):
        s = self.samples
        if s["project"] and s["project_plain_ms"]:
            plain = statistics.median(s["project_plain_ms"])
            extra = statistics.median(s["project"]) - plain
            s["trace.overhead_ms"] = [extra]
            s["trace.overhead_share"] = [extra / plain]
        plan = {name: (name, statistics.median) for name in PER_LAYER_UNITS}
        plan.update({
            "projection.segments_p50": ("projection.segments", statistics.median),
            "projection.segments_max": ("projection.segments", max),
            "incremental.alloc_peak_mb": ("incremental.alloc_peak_mb", max),
        })
        return self.summarize(plan), PER_LAYER_UNITS

    def summarize(self, plan):
        """{metric: (value, sample count)} from {metric: (samples key, statistic)}."""
        values = {}
        for name, (key, statistic) in plan.items():
            xs = self.samples[key]
            if name in self.absent:
                continue
            if xs:
                values[name] = (statistic(xs), len(xs))
            else:
                self.absent[name] = "no sample was taken"
        return values


def timed_ms(fn, *args):
    start = time.perf_counter_ns()
    fn(*args)
    return (time.perf_counter_ns() - start) / 1e6


def p90(xs):
    return statistics.quantiles(xs, n=10)[-1] if len(xs) > 1 else xs[0]


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest child (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def setup_seconds(args) -> float:
    """Wall time from spawning a fresh interpreter to its first timed operation.

    The probe imports everything a run imports and builds the inputs of the
    first projection round and the first search, then reports ready.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        _, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()}")
    return ready - start


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args) -> dict:
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "absent"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(), "nproc": os.cpu_count(),
        "cpu": cpu_model(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy_version,
        "search_workers": SEARCH_WORKERS,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        ppm = load_ppmproj()
    except (MissingProgram, ImportError) as exc:
        print(f"perfbench: cannot load ppmproj: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run = Run(ppm, workload, args.seed, trace=bool(args.trace))
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    if args.trace:
        run.trace_layers(args.seconds)
        values, units = run.per_layer()
    else:
        run.measure(args.seconds, lambda: setup_seconds(args))
        values, units = run.end_to_end()

    failed = len(run.failures)
    for op, messages in run.failures[:10]:
        print(f"perfbench: {op} failed: " + "; ".join(messages), file=sys.stderr)
    record = {
        "provenance": provenance(args),
        "unscaled": run.unscaled(),
        "attempted": run.attempted, "failed": failed,
        "failed_frac": failed / run.attempted,
        "worst_certificate_residual_over_tau": run.worst_certificate,
        "metrics": {name: {"value": v, "unit": units[name], "samples": n}
                    for name, (v, n) in values.items()},
        "absent": run.absent,
    }
    for name, (value, n) in values.items():
        print(f"# {name:34s} {value:14.6g} {units[name]:6s} n={n}")
    for name, why in run.absent.items():
        print(f"# {name:34s} absent: {why}")
    print(f"# failed_frac {failed / run.attempted:.6g} ({failed}/{run.attempted}); "
          f"worst certificate residual {run.worst_certificate:.3g} tau")
    for name, (value, unit) in record["unscaled"].items():
        print(f"# {name:34s} {value:14.6g} {unit:6s} unscaled")
    print("# provenance " + json.dumps(record["provenance"]))
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        if args.trace:
            record["spans"] = run.spans.rows
        json.dump(record, fh)

    metrics = {name: {"value": value, "unit": units[name]} for name, (value, _) in values.items()}
    metrics.update({name: {"value": None, "unit": units[name], "absent": why}
                    for name, why in run.absent.items()})
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
