#!/usr/bin/env python3
"""Run the benchmark over workloads and seeds and summarise each metric.

    python3 bench/report.py                                  # every workload, default seed
    python3 bench/report.py --workloads grid_sens --seeds 1-10 --trace 0

Each (workload, seed) is one run of bench/run.py in its own process, one
after another.  Prints every metric of every run by name with its unit, the
failed-op ratio, and per workload and metric the median and the spread: the
distance between the first and third quartiles (statistics.quantiles, n=4)
as a share of the median.  With --json the runs are also written to a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(spec: str) -> list[int]:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="0", help="e.g. 0 or 1-10 or 1,4,7")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", type=Path, help="write every run's result here")
    args = ap.parse_args()

    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[kind]}
    runs = []
    for name in args.workloads.split(","):
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr}", file=sys.stderr)
                return 1
            *log, last = proc.stdout.strip().splitlines()
            res = json.loads(last)
            runs.append({"workload": name, "seed": seed, **res, "log": log})
            vals = "  ".join(f"{m} {v['value']:.6g} {v['unit']}"
                             for m, v in res["metrics"].items())
            print(f"{name} seed {seed}: failed {res['failed']}/"
                  f"{res['attempted']}  {vals}", flush=True)
    if args.json:
        args.json.write_text(json.dumps(runs, indent=1) + "\n")

    print("\nworkload metric: median [q1, q3] spread (bound)")
    for name in args.workloads.split(","):
        mine = [r for r in runs if r["workload"] == name]
        for metric in bounds:
            vals = [r["metrics"][metric]["value"] for r in mine]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / med if med else float("nan")
            bound = "" if bounds[metric] is None else f" ({bounds[metric]})"
            print(f"{name} {metric}: {med:.6g} [{q1:.6g}, {q3:.6g}] "
                  f"{spread:.3f}{bound}")
        failed = sum(r["failed"] for r in mine)
        attempted = sum(r["attempted"] for r in mine)
        print(f"{name} failed_op_ratio: {failed / attempted:.6g} "
              f"({failed} of {attempted} ops)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
