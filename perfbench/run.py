"""Seeded benchmark for qmalab.

    python3 perfbench/run.py --workload e2e-extract --seed 1 --seconds 30 --trace 0

Runs one workload (see ``perfbench/README.md``) from the repository's
``src/`` tree as a closed loop with one client: one process, one Python
thread, BLAS fixed to ``BLAS_THREADS`` threads.  It sets up
``SETUP_REPEATS`` times (fresh ``import qmalab``, preparation and first trial
of the workload on the fixed input ``WARMUP_SEED``), once before the first
trial and the others spread over the untraced window, runs trials for
``--seconds`` seconds and at least the workload's fingerprint trial count,
and checks the outputs at the acceptance gate's tolerances.  With
``--trace 1`` the time is split between an untraced window and a traced one,
with every public function and method of the package wrapped
(``perfbench/tracing.py``).

The second-to-last line of standard output is a JSON report (run metadata,
seed fingerprint, scenario values, checks, error histogram, every end-to-end
metric with its unit and sample count, and with tracing the full layer
table).  The last line is the result:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``) named in
``BENCHMARK.json``.  The exit code is 0 iff every check passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = Path(__file__).resolve().parent / "traces"
BLAS_THREADS = 1  # measured faster than 2 on e2e-extract on a 2-CPU host
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 15
WARMUP_SEED = 0

# The result line carries the metrics BENCHMARK.json names: end-to-end ones
# from the report's "end_to_end" block, per-layer ones "<layer>.<column>"
# from the trace's layer table, with these units.
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
LAYER_COLUMN_UNITS = {"calls": "count", "ms": "ms", "bytes": "bytes", "repeat_share": "fraction"}


def _package_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "qmalab" or n.startswith("qmalab.")}


def _fresh_import():
    """Drop every qmalab module and import the package anew, so that its
    module-global state (ideal-oracle registry, lru caches) starts empty."""
    for name in _package_modules():
        del sys.modules[name]
    pkg = importlib.import_module("qmalab")
    importlib.import_module("qmalab.cli")
    if Path(pkg.__file__).resolve().parent != SRC / "qmalab":
        raise RuntimeError(f"imported qmalab from {pkg.__file__}, not from {SRC}")


def _run_trial(workload, i: int) -> dict:
    # the loop must keep running: a raised trial is an error outcome
    try:
        return workload.trial(i)
    except Exception as exc:
        name = type(exc).__name__
        return {"fp": ["raised", name], "error": name, "traceback": traceback.format_exc()}


def setup(workload_cls) -> tuple[float, dict]:
    """One set-up: a fresh ``import qmalab``, then preparation and trial 0 of
    the workload seeded ``WARMUP_SEED``, which fill the lazy caches.  Returns
    its time in seconds and the trial's outcome.  The qmalab modules that
    were imported before, if any, are put back afterwards, so a set-up leaves
    the package that the measured workload runs on untouched."""
    saved = _package_modules()
    t0 = time.perf_counter()
    _fresh_import()
    outcome = _run_trial(workload_cls(WARMUP_SEED), 0)
    elapsed = time.perf_counter() - t0
    if saved:
        for name in _package_modules():
            del sys.modules[name]
        sys.modules.update(saved)
        gc.collect()  # free the dropped copy before memory is measured
    return elapsed, outcome


def measure(workload, start: int, seconds: float, min_total: int, outcomes: list, tracer=None,
            peak_at: int = 0, peak_mb: list | None = None):
    """Closed loop: run trials from index ``start`` until ``seconds`` have
    passed and ``outcomes`` holds ``min_total`` entries.  When ``outcomes``
    reaches ``peak_at`` entries, the peak resident set so far is appended to
    ``peak_mb``.  Returns the start and end times of each trial in ns and the
    next trial index."""
    now = time.perf_counter_ns
    starts, ends = [], []
    i = start
    deadline = now() + int(seconds * 1e9)
    while True:
        starts.append(now())
        if tracer is not None:
            tracer.begin_trial(i)
        out = _run_trial(workload, i)
        if tracer is not None:
            tracer.end_trial()
        ends.append(now())
        outcomes.append(out)
        if peak_mb is not None and len(outcomes) == peak_at:
            peak_mb.append(_peak_rss_mb())
        i += 1
        if ends[-1] >= deadline and len(outcomes) >= min_total:
            break
    return starts, ends, i


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _rate(starts: list, ends: list) -> float:
    """Completed trials per second over a measured window."""
    return len(starts) / ((ends[-1] - starts[0]) / 1e9)


def fingerprint(outcomes: list, count: int) -> dict:
    entries = [o["fp"] for o in outcomes[:count]]
    text = json.dumps(entries, separators=(",", ":"))
    return {"trials": len(entries), "sha256": hashlib.sha256(text.encode()).hexdigest()}


def _p50_ms(values_ns: list) -> float | None:
    return statistics.median(values_ns) / 1e6 if values_ns else None


def _p90_ms(values_ns: list) -> float | None:
    if len(values_ns) < 2:
        return None
    return statistics.quantiles(values_ns, n=10, method="inclusive")[8] / 1e6


def _kind_p1_ms(outcomes: list, latencies_ns: list) -> float:
    """Per-trial latency that the host's slow spells barely move: the 1st
    percentile of each kind of trial (``kind`` in the outcome: the branch it
    took, or its arity), weighted by the share of that kind in the run.
    A trial that splits its time into ``parts`` contributes each part
    instead, and the 1st percentiles of its parts are added up.

    For seconds or minutes at a time the host runs everything up to 1.5
    times slower, which moves the window's trial rate and the latency median
    by a third or more from run to run.  A slow spell can only lengthen a
    trial, so the fastest trials of each kind, or the fastest instances of
    each part of a long trial, come from the quiet moments of the run.
    Taking them per kind keeps the run's mix of cheap and costly trials, so
    a change that speeds up only one kind still shows."""
    samples: dict = {}
    for o, lat in zip(outcomes, latencies_ns):
        kind = o.get("kind", "raised")
        for part, ns in o.get("parts", {"trial": lat}).items():
            samples.setdefault((kind, part), []).append(ns)
    total = 0.0
    for values in samples.values():
        p1 = (statistics.quantiles(values, n=100, method="inclusive")[0]
              if len(values) > 1 else values[0])
        total += len(values) / len(latencies_ns) * p1
    return total / 1e6


def _current_rss_kb() -> int | None:
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
    except (OSError, IndexError, ValueError):
        return None
    return pages * os.sysconf("SC_PAGE_SIZE") // 1024


def _blas_runtime_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = None
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": affinity,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_env": {v: os.environ.get(v) for v in BLAS_ENV},
        "blas_threads_runtime": _blas_runtime_threads(),
        "seed": seed,
        "git_commit": _git_commit(),
    }


def result_metrics(section: str, end_to_end: dict, table: dict | None) -> dict:
    """The BENCHMARK.json metrics of ``section`` with their values and units."""
    out = {}
    for m in json.loads(BENCHMARK_FILE.read_text())[section]:
        if section == "end_to_end":
            out[m["name"]] = {k: end_to_end[m["name"]][k] for k in ("value", "unit")}
        else:
            layer, column = m["name"].rsplit(".", 1)
            out[m["name"]] = {"value": table.get(layer, {}).get(column, 0),
                              "unit": LAYER_COLUMN_UNITS[column]}
    return out


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns (report, result).  With ``trace`` the
    untraced and the traced window each last ``seconds / 2``."""
    from perfbench import tracing, workloads

    workload_cls = workloads.WORKLOADS[workload_name]
    window = seconds / 2 if trace else seconds
    # the first set-up imports the package the run measures; the others are
    # spread over the untraced window, between blocks of trials, so that a
    # slow spell of the host does not cover all of them
    setup_times, warmups = [], []
    outcomes, starts, ends = [], [], []
    block_s = []
    peak_at_n: list = []  # peak memory after the fingerprint's trials
    next_i = 0
    for block in range(SETUP_REPEATS):
        elapsed, warm = setup(workload_cls)
        setup_times.append(elapsed)
        warmups.append(warm)
        if block == 0:
            workload = workload_cls(seed)
        last = block == SETUP_REPEATS - 1
        rss_before = _current_rss_kb()
        s, e, next_i = measure(workload, next_i, window / SETUP_REPEATS,
                               workload_cls.fingerprint_trials if last else 0, outcomes,
                               peak_at=workload_cls.fingerprint_trials, peak_mb=peak_at_n)
        if block == 0:
            # memory growth is taken over the first block only: later blocks
            # follow a set-up whose dropped package is still being released
            rss_growth = (rss_before, _current_rss_kb(), len(s))
        starts += s
        ends += e
        block_s.append((e[-1] - s[0]) / 1e9)
    peak_rss_mb = _peak_rss_mb()
    trials_per_s = len(starts) / sum(block_s)
    latencies = [e - s for s, e in zip(starts, ends)]
    measured = list(outcomes)

    report: dict = {"workload": workload_name, "metadata": metadata(seed)}
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            t_starts, t_ends, _ = measure(workload, next_i, window, 0, outcomes, tracer)
        finally:
            tracer.uninstall()
        traced_tps = _rate(t_starts, t_ends)
        SPAN_DIR.mkdir(exist_ok=True)
        span_file = SPAN_DIR / f"{workload_name}-seed{seed}.csv"
        table = tracer.layer_table()
        report["trace"] = {
            "trials": len(t_starts),
            "trials_per_s": traced_tps,
            "untraced_trials_per_s": trials_per_s,
            "overhead": trials_per_s / traced_tps - 1,
            "spans": tracer.write_spans(span_file),
            "span_file": span_file.name,
            "layers": table,
        }

    summary = workload.summary(outcomes)
    checks = workload.checks(summary)
    errors = Counter(o["error"] for o in outcomes + warmups if "error" in o)
    failed_checks = [name for name, (_, _, ok) in checks.items() if not ok]
    histogram = dict(errors)
    for name in failed_checks:
        histogram[f"check:{name}"] = 1
    failed = sum(errors.values()) + len(failed_checks)
    attempted = len(outcomes) + len(warmups)

    end_to_end = {
        "trials_per_s": {"value": trials_per_s, "unit": "trials/s", "samples": len(starts)},
        "trial_ms_kind_p1": {"value": _kind_p1_ms(measured, latencies), "unit": "ms",
                             "samples": len(latencies)},
        "trial_ms_p50": {"value": _p50_ms(latencies), "unit": "ms", "samples": len(latencies)},
        "trial_ms_p90": {"value": _p90_ms(latencies), "unit": "ms", "samples": len(latencies)},
    }
    for stage in ("prove", "verify", "extract"):
        values = [o[f"{stage}_ns"] for o in measured if f"{stage}_ns" in o]
        if values:
            end_to_end[f"{stage}_ms_p50"] = {
                "value": _p50_ms(values), "unit": "ms", "samples": len(values)
            }
    end_to_end.update({
        "setup_s": {"value": statistics.median(setup_times), "unit": "s",
                    "samples": len(setup_times)},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "peak_rss_mb_at_n": {"value": peak_at_n[0], "unit": "MB",
                             "samples": workload_cls.fingerprint_trials},
        "rss_growth_kb_per_trial": {
            "value": (rss_growth[1] - rss_growth[0]) / rss_growth[2]
            if rss_growth[0] and rss_growth[1] else None,
            "unit": "kB/trial",
        },
        "error_rate": {"value": failed / attempted, "unit": "fraction"},
    })
    report.update({
        "attempted": attempted,
        "trials_measured": len(latencies),
        "window_s": sum(block_s),
        "fingerprint": fingerprint(outcomes, workload_cls.fingerprint_trials),
        "scenario": summary,
        "checks": {k: {"value": v, "tolerance": tol, "pass": ok}
                   for k, (v, tol, ok) in checks.items()},
        "error_histogram": histogram,
        "first_traceback": next(
            (o["traceback"] for o in warmups + outcomes if "traceback" in o), None
        ),
        "setup_s_each": setup_times,
        "end_to_end": end_to_end,
    })
    if trace:
        metrics = result_metrics("per_layer", end_to_end, table)
    else:
        metrics = result_metrics("end_to_end", end_to_end, None)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return report, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qmalab" / "__init__.py").is_file():
        print(f"error: no qmalab sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    # every set-up compiles the package from source, whether or not an
    # earlier run could have left bytecode caches in the checkout
    sys.dont_write_bytecode = True
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    report, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
