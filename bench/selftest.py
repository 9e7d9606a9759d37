#!/usr/bin/env python3
"""Self-checks of the benchmark itself (about a minute).

    python3 bench/selftest.py

1. The grid generator gives 42 / 99 / 180 links for n = 4 / 6 / 8.
2. On the default seed, every grid_replan op releases its whole demand by
   T_max: less than half a vehicle is still on the network.
3. Two traced cycles of the same seed give identical exact counts and
   bitwise-identical op outputs; grid_replan records no tape entry.
4. The metrics the benchmark computes are exactly those BENCHMARK.json
   declares, and a short untraced run prints them all and passes its checks.

Exits non-zero if any check fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run
import workloads
from grid import grid_document

DECLARED = {kind: {m["name"]: m["unit"] for m in run.declared_metrics(kind)}
            for kind in ("end_to_end", "per_layer")}
COUNTS = [n for n, u in DECLARED["per_layer"].items() if u == "count"] + [
    "adcore.live_entry_ratio", "routing.refresh_changed_ratio"]


def traced_cycle(name: str, seed: int):
    """Set up and run one traced cycle; returns (workload, per-layer
    metrics, ops)."""
    _, wl, layers = run.set_up(name, seed, traced=True)
    wl.start()
    try:
        recs = [run.run_unit(wl, k, None, layers) for k in range(wl.cycle)]
    finally:
        wl.close()
    metrics = layers.metrics(set(range(wl.cycle)), len(recs),
                             sum(r.seconds for r in recs))
    return wl, metrics, recs


def main() -> int:
    dn = run.import_diffnet()
    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for n, n_dest, links in ((4, 2, 42), (6, 3, 99), (8, 4, 180)):
        scn = dn.Scenario.from_dict(grid_document(n, n_dest))
        check(len(scn.links) == links,
              f"grid n={n}: {len(scn.links)} links, expected {links}")

    for name in workloads.WORKLOADS:
        wl, first, recs_a = traced_cycle(name, workloads.DEFAULT_SEED)
        _, second, recs_b = traced_cycle(name, workloads.DEFAULT_SEED)
        check(all(not r.failures for r in recs_a + recs_b),
              f"{name}: every op passes its checks")
        same = [c for c in COUNTS if first[c] == second[c]]
        check(len(same) == len(COUNTS),
              f"{name}: identical counts across runs "
              f"(differ: {sorted(set(COUNTS) - set(same))})")
        check([r.outputs for r in recs_a] == [r.outputs for r in recs_b],
              f"{name}: identical op outputs across runs")
        entries = first["adcore.tape_entries"]
        if name == "grid_replan":
            check(entries == 0, f"{name}: {entries} tape entries, expected 0")
            for k, rec in enumerate(recs_a):
                left = wl.injected(k) - rec.outputs["absorbed"]
                check(left < 0.5,
                      f"{name} op {k}: {left:.4g} veh not absorbed by T_max")
        else:
            check(entries > 0, f"{name}: {entries:.0f} tape entries")
        computed = set(first) | {"adcore.bytes_per_entry", "trace.overhead"}
        check(computed == set(DECLARED["per_layer"]),
              f"{name}: per-layer metrics match BENCHMARK.json "
              f"(diff: {sorted(computed ^ set(DECLARED['per_layer']))})")

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "grid_replan", "--seconds", "1"])
    res = json.loads(out.getvalue().strip().splitlines()[-1])
    check(code == 0 and res["correct"] and res["failed"] == 0,
          "short grid_replan run is correct")
    check(set(res["metrics"]) == set(DECLARED["end_to_end"]),
          "end-to-end metrics match BENCHMARK.json")

    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
