"""Run one workload untraced on several seeds; report each end-to-end metric's spread.

    python3 benchmarks/spread.py --workload eval-240x320 --seeds 1 2 3 4 5 --seconds 30

For every metric prints the median, the quartiles (``statistics.quantiles``
with n=4) and the interquartile distance as a share of the median, the
figure the benchmark's bounds are checked against. Each seed runs in a
fresh process, one after another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from run import ChildFailed, run_self


def spread(values):
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", default="30")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("need at least two seeds")

    values = {}
    for seed in args.seeds:
        try:
            lines = run_self(["--workload", args.workload, "--seed", str(seed),
                              "--seconds", args.seconds, "--trace", "0"])
        except ChildFailed as exc:
            print(f"seed {seed}: {exc}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    for name, vals in values.items():
        med, q1, q3, rel = spread(vals)
        print(f"{name:<48} median {med:.5g} q1 {q1:.5g} q3 {q3:.5g} spread {rel:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
