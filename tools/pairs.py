"""Alternating parent/change pairs of benchmark runs, with a verdict per metric.

    python tools/pairs.py --parent ../parent --change . --workload toll_adam \
        --pairs 10 --seconds 60 --seed 0

Each pair runs `bench/run.py` once in each checkout, one after the other;
the parent runs first in even-numbered pairs and the change in odd ones.
Every run is a fresh process started from its checkout's root, so it
imports that checkout's `src/diffnet` and benchmark code.  The last line of
each run's output is its JSON result.

For every end-to-end metric, the summary gives each side's median and
quartiles, the pairs the change wins (ties count for neither side) and the
verdict of the gain rule: a gain only when the change wins at least nine
tenths of the pairs and the medians differ, in the change's favour, by more
than the distance between the parent's quartiles.  Whether lower or higher
is better comes from the change's `BENCHMARK.json`.

Exits 1 when any run fails to print a result, or prints one that is not
`"correct": true` with no failed op; the summary is printed either way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(vals: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as `bench/run.py` computes them."""
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def summarize(parent: list[dict], change: list[dict],
              better: dict[str, str]) -> list[dict]:
    """One row per metric from the paired runs' metric values.

    `parent[k]` and `change[k]` map metric name to value for pair k;
    `better[name]` is "lower" or "higher".  Each row holds the metric, both
    sides' (q1, median, q3), the change's wins, the pair count, the
    relative change of the median, the parent's quartile spread, and
    whether the gain rule holds.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same number of parent and change runs, "
                         "at least one")
    rows = []
    for name, direction in better.items():
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(1 for a, b in zip(p, c) if sign * (a - b) > 0.0)
        pq, cq = quartiles(p), quartiles(c)
        gap = sign * (pq[1] - cq[1])
        spread = pq[2] - pq[0]
        rows.append({
            "metric": name,
            "better": direction,
            "parent": pq,
            "change": cq,
            "wins": wins,
            "pairs": len(p),
            "rel": (cq[1] - pq[1]) / pq[1] if pq[1] else float("nan"),
            "spread": spread,
            "gain": 10 * wins >= 9 * len(p) and gap > spread,
        })
    return rows


def format_rows(rows: list[dict]) -> str:
    out = []
    for r in rows:
        (p1, p2, p3), (c1, c2, c3) = r["parent"], r["change"]
        out.append(
            f"{r['metric']} ({r['better']} is better): parent {p2:.6g} "
            f"[{p1:.6g}, {p3:.6g}] -> change {c2:.6g} [{c1:.6g}, {c3:.6g}] "
            f"({100 * r['rel']:+.1f}%), change wins {r['wins']}/{r['pairs']}, "
            f"parent spread {r['spread']:.6g}: "
            + ("gain" if r["gain"] else "no gain"))
    return "\n".join(out)


def run_once(root: Path, workload: str, seconds: float, seed: int):
    """(result dict or None, error text) of one `bench/run.py` run."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if proc.returncode != 0 or not lines:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    try:
        return json.loads(lines[-1]), ""
    except json.JSONDecodeError:
        return None, f"last line is not JSON: {lines[-1][:200]}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path,
                    help="root of the parent checkout")
    ap.add_argument("--change", required=True, type=Path,
                    help="root of the changed checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    ok = True
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            res, err = run_once(sides[side], args.workload, args.seconds,
                                args.seed)
            if res is None:
                print(f"pair {k + 1} {side}: no result ({err})", flush=True)
                ok = False
                continue
            if not (res.get("correct") is True and res.get("failed") == 0):
                ok = False
            metrics = {n: m["value"] for n, m in res["metrics"].items()}
            runs[side].append(metrics)
            print(f"pair {k + 1} {side}: correct={res.get('correct')} "
                  f"failed={res.get('failed')} "
                  + " ".join(f"{n}={v:.6g}" for n, v in metrics.items()),
                  flush=True)
    if len(runs["parent"]) == len(runs["change"]) and runs["parent"]:
        print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of "
              f"{args.seconds:g} s")
        print(format_rows(summarize(runs["parent"], runs["change"], better)))
    else:
        print("no summary: some runs printed no result")
    if not ok:
        print("some runs were not correct or printed no result")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
