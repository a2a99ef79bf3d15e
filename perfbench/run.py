"""Benchmark for gammasolve.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload maxwell16_resonant --seed 1 --seconds 25 --trace 0

One process runs one workload.  It pins BLAS/OpenMP threads and scipy.fft
workers to 1, makes its inputs from ``--seed``, times repeated set-up passes
and whole tasks for about ``--seconds`` seconds, checks every solve, and
prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced tasks, and reports the
per-layer metrics and the tracing overhead.  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Set-up passes: FIRST before the first task and up to EACH after every
# task, at most MAX in all, and past FIRST only while the passes have taken
# less than SHARE of the run so far.  Spreading them over the run lets
# setup_s see the same drift in machine speed as the tasks.
SETUP_FIRST, SETUP_EACH, SETUP_MAX, SETUP_SHARE = 5, 3, 25, 0.1


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_gammasolve():
    """Import the library from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import gammasolve
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import gammasolve from {src}: {exc}")
    if Path(gammasolve.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: gammasolve imported from {gammasolve.__file__}, "
                         f"not from {src}")
    return gammasolve


def _cache_sizes():
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10,
                             env=dict(os.environ, LC_ALL="C")).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    sizes = {}
    for line in out.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            sizes[key.strip()] = value.strip()
    return sizes


def _environment(gs, workload):
    import numpy
    import scipy
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "caches": _cache_sizes(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "fft_workers": gs.get_fft_workers(),
        "computed_array_bytes": workload.sizes(),
    }


class TaskRecord:
    """Timings and check results of one task; holds no arrays."""

    def __init__(self, t0, wall, solves, checks, layers):
        self.wall = wall
        self.checks = checks
        self.layers = layers
        self.latencies = [s.seconds for s in solves]
        self.solve_s = sum(self.latencies)
        self.setup_s = solves[0].start - t0
        self.iterations = sum(s.info[1].iterations for s in solves)
        self.attempted = len(solves)


def _fresh_state():
    """Start each pass and task cold, as a fresh process would."""
    clear = getattr(sys.modules["gammasolve.projectors"], "clear_symbol_cache", None)
    if clear is not None:
        clear()
    gc.collect()


def _setup_pass(workload, tracing):
    """Time the task up to its first solve call, then stop it there."""
    _fresh_state()
    tracer = tracing.Tracer(workload.solve_site, stop_at_solve=True)
    with tracer.installed():
        t0 = time.perf_counter()
        try:
            workload.task()
        except tracing.SetupDone:
            pass
    spans = tracer.solve_spans()
    if not spans:
        raise RuntimeError(f"{workload.name}: the task never reached solve")
    return spans[0].start - t0


def _run_task(workload, tracing, layers):
    """Time one task from its first gammasolve call to its checked result;
    returns the record and the checked cases."""
    from workloads import check_case
    _fresh_state()
    tracer = tracing.Tracer(workload.solve_site, layers=layers)
    with tracer.installed():
        t0 = time.perf_counter()
        out = workload.task()
    solves = tracer.solve_spans()
    cases, extra = workload.verify(out, solves)
    checks = [("solve", *check_case(c)) for c in cases] + extra
    wall = time.perf_counter() - t0
    record = TaskRecord(t0, wall, solves, checks,
                        tracing.layer_metrics(tracer) if layers else None)
    return record, cases


def _run_until(deadline, run, minimum):
    """Run tasks while the next one is expected to end before the deadline;
    always at least ``minimum``."""
    records = []
    while True:
        records.append(run(len(records)))
        mean = sum(r.wall for r in records) / len(records)
        if len(records) >= minimum and time.perf_counter() + mean > deadline:
            return records


def _percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def main(argv=None):
    args = _parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    gs = _import_gammasolve()
    gs.set_fft_workers(THREADS)
    import tracing
    from workloads import WORKLOADS, self_test

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"known: {sorted(WORKLOADS)}")
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        return _measure(gs, tracing, WORKLOADS[args.workload], args, workdir, self_test)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def _measure(gs, tracing, workload_cls, args, workdir, self_test):
    workload = workload_cls(args.seed, str(workdir))
    print(json.dumps({"env": _environment(gs, workload)}), flush=True)

    begin = time.perf_counter()
    setups = []

    def set_up(passes):
        for _ in range(passes):
            if len(setups) >= SETUP_MAX or (
                    len(setups) >= SETUP_FIRST
                    and sum(setups) > SETUP_SHARE * (time.perf_counter() - begin)):
                return
            setups.append(_setup_pass(workload, tracing))

    selftest = []

    def run(layers):
        record, cases = _run_task(workload, tracing, layers)
        if not selftest:
            # Perturb the first solution that is not identically zero.
            probe = next((c for c in cases if c.E.values.any()), None)
            selftest.append(self_test(probe, args.seed) if probe
                            else (False, ["no nonzero solution to perturb"]))
        set_up(SETUP_EACH)
        return record

    set_up(SETUP_FIRST)

    # A traced run alternates untraced and traced tasks, so that both see the
    # same drift in machine speed.
    records = _run_until(begin + args.seconds,
                         lambda i: run(bool(args.trace and i % 2)),
                         2 if args.trace else 1)

    checks = [c for r in records for c in r.checks]
    failures = [c for c in checks if not c[1]]
    for name, _, detail in failures[:20]:
        print(f"FAIL {name}: {detail}")
    selftest_ok, lines = selftest[0]
    for line in lines:
        print(f"self-test: {line}")

    for i, r in enumerate(records):
        kind = "untraced" if r.layers is None else "traced"
        print(f"task {i} ({kind}): wall {r.wall:.3f}s setup {r.setup_s:.4f}s "
              f"solve {r.solve_s:.3f}s solves {r.attempted} iterations {r.iterations}")

    if args.trace:
        metrics = _layer_summary(records)
    else:
        # Task times are averaged, not their median taken: the machine's
        # speed drifts between states lasting seconds, and a mean over the
        # run averages them where a median snaps to one (see NOTES.md).
        metrics = {
            "wall_s": (statistics.fmean(r.wall for r in records), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "solve_s": (statistics.fmean(r.solve_s for r in records), "s"),
            "iterations": (statistics.median(r.iterations for r in records), "count"),
            "peak_rss_mib": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
    _check_declared(metrics, "per_layer" if args.trace else "end_to_end")
    attempted = sum(r.attempted for r in records)
    failed = min(attempted, len(failures))
    correct = not failures and selftest_ok
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


def _check_declared(metrics, section):
    """Fail loudly if the metrics drift from those BENCHMARK.json declares."""
    declared = {m["name"]: m["unit"] for m in
                json.loads((ROOT / "BENCHMARK.json").read_text())[section]}
    measured = {name: unit for name, (_, unit) in metrics.items()}
    if measured != declared:
        raise SystemExit(f"perfbench: metrics differ from BENCHMARK.json {section}: "
                         f"{sorted(set(measured.items()) ^ set(declared.items()))}")


def _layer_summary(records):
    untraced = [r for r in records if r.layers is None]
    traced = [r for r in records if r.layers is not None]
    per_task = [r.layers for r in traced]
    metrics = {k: (statistics.median(m[k][0] for m in per_task), per_task[0][k][1])
               for k in per_task[0]}
    latencies = [x for r in untraced for x in r.latencies]
    metrics["solver.solve_p50_ms"] = (1e3 * statistics.median(latencies), "ms")
    metrics["solver.solve_p95_ms"] = (1e3 * _percentile(latencies, 0.95), "ms")
    base = statistics.fmean(r.wall for r in untraced)
    overhead = statistics.fmean(r.wall for r in traced) - base
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_frac"] = (overhead / base, "ratio")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
