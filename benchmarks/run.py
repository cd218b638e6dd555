"""Benchmark of the pointprops system: training, evaluation and the oracle battery.

One workload per process, one caller, closed loop, BLAS pinned to
min(2, nproc) threads:

    python3 benchmarks/run.py --workload train-64 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics untraced. ``--trace 1`` runs
each cycle untraced and then again traced, and reports the per-layer
metrics and the tracing overhead. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

    python3 benchmarks/run.py --all --seed 1 --seconds 30

runs every workload in a fresh process, untraced and traced, and writes the
baseline with its traced breakdown to benchmarks/BASELINE.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import env  # noqa: E402

BLAS_THREADS = env.pin_blas_threads()

WORKLOAD_NAMES = ("train-64", "eval-240x320", "oracle-check")
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("items_per_s", "1/s"),
    ("item_s_p50", "s"),
)
# the same quantities under the names a user of each command reads
READABLE = {
    "train-64": {"items_per_s": "iters_per_s", "item_s_p50": "iter_s_p50", "item_s": "iter_s"},
    "eval-240x320": {"items_per_s": "pairs_per_s", "item_s_p50": "pair_s_p50",
                     "item_s": "pair_s"},
    "oracle-check": {"items_per_s": "batteries_per_s", "item_s_p50": "checks_s",
                     "item_s": "checks_s"},
}
# setup_s is the median over this many fresh processes, each timing its own
# imports and set-up: the run's own process and SETUP_SAMPLES - 1 children
SETUP_SAMPLES = 5
RUN_PY = Path(__file__).resolve()
BASELINE_PATH = Path(__file__).resolve().parent / "BASELINE.json"
RUN_TIMEOUT_S = 180


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced; write BASELINE.json")
    parser.add_argument("--setup-only", action="store_true",
                        help="time imports and one set-up, print the seconds and stop "
                             "(the untraced run starts these for its setup_s)")
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# provenance and statistics
# ---------------------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git_dir = env.REPO_ROOT / ".git"
    try:
        head = (git_dir / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git_dir / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git_dir / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "git_commit": git_commit(),
    }


def tail_percentile(samples):
    """Highest of p99/p95/p90/p75/p50 with at least 10 samples above it."""
    ordered = sorted(samples)
    for pct in (99, 95, 90, 75, 50):
        rank = max(0, -(-pct * len(ordered) // 100) - 1)  # nearest-rank percentile
        if len(ordered) - 1 - rank >= 10:
            return pct, ordered[rank]
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def run_cycles(workload, state, seconds):
    """As many whole cycles as fit in ``seconds``, at least one.

    A new cycle starts only if it is expected to end by the deadline.
    """
    cycles = []
    start = time.perf_counter()
    while True:
        cycles.append(workload.run_cycle(state, len(cycles)))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(cycles) > seconds:
            return cycles


def run_traced_pairs(workload, state, seconds, tracer, hooks, modules):
    """Cycle i untraced, then cycle i again traced, until ``seconds`` pass.

    Alternating the two keeps slow drifts of machine speed out of the
    tracing overhead. Returns (untraced cycles, traced cycles).
    """
    timed, traced = [], []
    start = time.perf_counter()
    while True:
        index = len(timed)
        timed.append(workload.run_cycle(state, index))
        tracer.install(modules, hooks)
        try:
            traced.append(workload.run_cycle(state, index))
        finally:
            tracer.uninstall()
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(timed) > seconds:
            return timed, traced


def set_up(args):
    """Import the program and set the workload up, timed together.

    Returns (workloads module, workload, state, seconds), or None when the
    fixed inputs are missing or altered.
    """
    start = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    try:
        state = workload.setup(args.seed)
    except workloads.BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return None
    return workloads, workload, state, time.perf_counter() - start


class ChildFailed(RuntimeError):
    """A run of this script in a child process failed or printed nothing."""


def run_self(argv) -> list:
    """Run this script with ``argv`` in a fresh process; its stdout lines."""
    proc = subprocess.run([sys.executable, str(RUN_PY), *argv], capture_output=True,
                          text=True, timeout=RUN_TIMEOUT_S, cwd=env.REPO_ROOT, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise ChildFailed(f"run.py {' '.join(argv)}: exit {proc.returncode}")
    return lines


def run_setup_only(args) -> int:
    env.use_program_source()
    ready = set_up(args)
    if ready is None:
        return 2
    print(json.dumps({"setup_s": ready[-1]}))
    return 0


def run_workload(args) -> int:
    env.use_program_source()
    setup_times = []
    if not args.trace:
        # the children run first, while this process holds no program state
        argv = ["--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
        try:
            for _ in range(SETUP_SAMPLES - 1):
                setup_times.append(json.loads(run_self(argv)[-1])["setup_s"])
        except ChildFailed as exc:
            print(f"benchmark: set-up failed: {exc}", file=sys.stderr)
            return 2
    ready = set_up(args)
    if ready is None:
        return 2
    workloads, workload, state, seconds = ready
    setup_times.append(seconds)
    setup_s = workloads.median(setup_times)
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")

    if args.trace:
        from spans import Tracer

        counts = Counter()
        tracer = Tracer()
        timed, traced = run_traced_pairs(workload, state, args.seconds, tracer,
                                         workload.hooks(counts), workloads.TRACED_MODULES)
        overhead = sum(c.wall_s for c in traced) / sum(c.wall_s for c in timed) - 1.0
        cycles = timed + traced
    else:
        cycles = timed = run_cycles(workload, state, args.seconds)

    problems, notes = workload.check(state, cycles)
    attempted = sum(c.attempted for c in cycles)
    failed = sum(c.failed for c in cycles)
    item_s = [t for c in timed for t in c.item_s]
    items_per_s = workloads.median([len(c.item_s) / c.wall_s for c in timed])
    item_s_p50 = workloads.median(item_s)
    readable = READABLE[workload.name]

    report = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cycles": len(timed), "items": len(item_s),
        "provenance": provenance(), "notes": notes, "problems": problems,
    }
    print(f"setup_s {setup_s:.4f} s (median of {len(setup_times)} processes' imports + set-up: "
          + " ".join(f"{t:.3f}" for t in setup_times) + ")")
    print(f"{readable['items_per_s']} {items_per_s:.4f} 1/s "
          f"(median over {len(timed)} untraced cycles of {workload.items} / wall s)")
    print(f"{readable['item_s_p50']} {item_s_p50:.4f} s (median of {len(item_s)} {workload.items})")
    tail = tail_percentile(item_s)
    if tail is not None:
        print(f"{readable['item_s']} tail p{tail[0]} {tail[1]:.4f} s (n={len(item_s)}, "
              "the highest percentile with 10 samples beyond it; not gated)")
    print(f"failed_ratio {failed / attempted:.4f} ({failed} failed of {attempted} attempted)")
    print(f"peak_rss_mb {peak_rss_mb():.1f} MB")
    for key, value in notes.items():
        print(f"{key} {value}")
    for problem in problems:
        print(f"INCORRECT: {problem}")

    if args.trace:
        stats = tracer.stats()
        items = sum(len(c.item_s) for c in traced)
        metrics = workloads.per_layer_metrics(workload, stats, counts, items, overhead, notes)
        units = dict(workloads.PER_LAYER)
        missing = set(workloads.unmeasured(workload, stats))
        coverage = []
        for label in sorted(tracer.labels):
            entry = stats.get(label)
            calls = entry.calls if entry else 0
            status = "unmeasured" if label in missing else ("ok" if calls else "not called")
            coverage.append({
                "function": label, "calls": calls, "calls_per_item": calls / items,
                "busy_s_per_item": entry.busy_s / items if entry else 0.0,
                "self_s_per_item": entry.self_s / items if entry else 0.0,
                "status": status,
            })
            if calls or status == "unmeasured":
                print(f"span {label:<48} calls {calls:>7} "
                      + (f"busy {coverage[-1]['busy_s_per_item']:.5f} s/{workload.item} "
                         f"self {coverage[-1]['self_s_per_item']:.5f} s/{workload.item}"
                         if calls else "UNMEASURED"))
        report["coverage"] = coverage
        print(f"trace.overhead_ratio {overhead:.4f} (traced over untraced wall, "
              f"{len(traced)} identical cycles each, alternating)")
    else:
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "items_per_s": items_per_s,
            "item_s_p50": item_s_p50,
        }
        units = dict(END_TO_END)
    print("report " + json.dumps(report))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


# ---------------------------------------------------------------------------
# every workload: the baseline
# ---------------------------------------------------------------------------


def run_all(args) -> int:
    baseline = {"command": "python3 benchmarks/run.py --all", "seed": args.seed,
                "seconds": args.seconds, "workloads": {}}
    for name in WORKLOAD_NAMES:
        entry = {}
        for trace in (0, 1):
            try:
                lines = run_self(["--workload", name, "--seed", str(args.seed),
                                  "--seconds", str(args.seconds), "--trace", str(trace)])
            except ChildFailed as exc:
                print(f"benchmark: {exc}", file=sys.stderr)
                return 2
            print("\n".join(lines))
            result = json.loads(lines[-1])
            report = json.loads(next(line for line in lines if line.startswith("report "))[7:])
            baseline["provenance"] = report.pop("provenance")
            key = "per_layer" if trace else "end_to_end"
            entry[key] = {k: v["value"] for k, v in result["metrics"].items()}
            entry[f"{key}_run"] = {k: result[k] for k in ("correct", "attempted", "failed")}
            entry[f"{key}_run"].update(report)
        baseline["workloads"][name] = entry
    BASELINE_PATH.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    print(f"baseline: {BASELINE_PATH.relative_to(env.REPO_ROOT)}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.all:
        return run_all(args)
    return run_setup_only(args) if args.setup_only else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
