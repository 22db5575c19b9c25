"""Run the benchmark once per seed and workload and report each metric's spread.

    python3 benchmark/spread.py --seeds 11-20 population hybrid equilibria

Run from the root of a source checkout. Runs take turns: for each seed every
named workload runs once, the order rotating from seed to seed, so that a
change in the machine's speed during the set falls on every workload alike.
Each run lasts BENCHMARK.json's run_seconds with tracing off. For every
end-to-end metric it prints the median over the runs of each workload and the
distance between the first and third quartiles (statistics.quantiles, n=4)
as a share of the median, the figures from which README.md sets each
metric's bound. It also prints the share of failed operations, which must be
the same in every run of a workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent
WORKLOADS = ("population", "hybrid", "equilibria")


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, required=True, help="first-last, e.g. 11-20")
    parser.add_argument("workloads", nargs="+", choices=WORKLOADS)
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    values: dict[str, dict[str, list[float]]] = {w: {} for w in args.workloads}
    shares: dict[str, set[float]] = {w: set() for w in args.workloads}
    for i, seed in enumerate(args.seeds):
        turn = i % len(args.workloads)
        for workload in args.workloads[turn:] + args.workloads[:turn]:
            proc = subprocess.run([sys.executable, str(RUN), "--workload", workload,
                                   "--seed", str(seed), "--seconds", str(seconds),
                                   "--trace", "0"],
                                  cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            shares[workload].add(result["failed"] / result["attempted"])
            print(f"{workload} seed {seed}: correct {result['correct']} failed "
                  f"{result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
    for workload in args.workloads:
        for name, vals in values[workload].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            print(f"{workload} {name}: median {med:.5g}, IQR/median {spread:.4f}")
        print(f"{workload} failed shares: {sorted(shares[workload])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
