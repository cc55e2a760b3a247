"""Run-to-run spread of the end-to-end metrics.

``python3 e2ebench/steadiness.py --workload serve-mixed --seeds 1 2 3 4 5``
runs the benchmark once per seed (``run_seconds`` from BENCHMARK.json)
and prints, per metric, the median and the interquartile distance as a
share of the median next to the metric's bound.  A metric is steady
when its spread stays below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import stats


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)
    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [*bench["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, timeout=600,
        )
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not doc["correct"]:
            print(proc.stdout, proc.stderr, file=sys.stderr)
            return 1
        line = []
        for name, m in doc["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            line.append(f"{name}={m['value']:.4g}")
        took = time.perf_counter() - t0
        print(f"seed {seed} ({took:.1f} s): " + " ".join(line), flush=True)
    if len(args.seeds) < 2:
        return 0
    for name, vals in values.items():
        spread = stats.iqr_share(vals)
        bound = bounds.get(name, float("nan"))
        flag = "ok" if spread < bound / 3 else "WIDE"
        print(f"{name}: median {stats.median(vals):.5g}, spread {spread:.4f} "
              f"(bound {bound}, {flag})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
