"""Spread of the end-to-end metrics over seeds, to check that the benchmark is steady.

Run from the repository root:

    python3 perfbench/spread.py --workloads scan-ex41 paper --seeds 1 2 3 4 5

For each workload it runs ``run.py --trace 0`` once per seed, one run at a
time, and prints each metric's median and the distance between its first
and third quartiles (``statistics.quantiles(values, n=4)``) as a share of
the median, next to the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    args = ap.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=True, timeout=300)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            print(f"{name} {metric}: median {med:.6g}, spread {(q3 - q1) / med:.3f}, "
                  f"bound {bounds[metric]}, values {['%.4g' % v for v in vals]}", flush=True)


if __name__ == "__main__":
    main()
