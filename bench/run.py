#!/usr/bin/env python3
"""diffnet benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload toll_adam --seed 0 --seconds 30 --trace 0

Run from the root of a diffnet checkout; the package is imported from its
`src/`.  Ops run one after another, single-threaded, for `--seconds`; every
op's outputs are checked, and a host-speed probe runs after each op so that
op times can be scaled to the reference host's speed.  The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics`.  With `--trace 0` the metrics are the end-to-end ones of
BENCHMARK.json; with `--trace 1` they are the per-layer ones, from a run that
alternates untraced and traced cycles of ops.  Workloads, metrics and the
layer map are described in bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

import workloads  # the benchmark's own module; it does not import diffnet

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BENCHMARK = ROOT / "BENCHMARK.json"
REFERENCES = HERE / "references.json"
SETUP_PROBES = 5  # set-ups in fresh interpreters, besides the run's own
REF_RTOL = 1e-9
SPEED_PROBE_N = 20_000  # items the host-speed probe allocates and looks up
SPEED_PROBE_REPEATS = 3  # the probe is the fastest of this many loops
SPEED_PROBE_REF_S = 0.005  # the probe's seconds on the reference host


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def import_diffnet():
    if not (SRC / "diffnet" / "__init__.py").is_file():
        raise BenchError(f"no diffnet package under {SRC}")
    sys.path.insert(0, str(SRC))
    import diffnet

    if Path(diffnet.__file__).resolve().parent != SRC / "diffnet":
        raise BenchError(f"imported diffnet from {diffnet.__file__}, not {SRC}")
    return diffnet


def set_up(name: str, seed: int, traced: bool = False):
    """Import diffnet and build the workload.

    Returns (seconds, workload, layer trace or None).  A traced set-up
    records the scenario layer's spans.
    """
    t0 = perf_counter()
    dn = import_diffnet()
    if not traced:
        wl = workloads.WORKLOADS[name](dn, seed)
        return perf_counter() - t0, wl, None
    # imported late: the tracer imports numpy, which set-up time must include
    from tracer import LayerTrace, Tracer

    layers = LayerTrace(dn, Tracer())
    layers.install()
    root = layers.tracer.open("bench.setup")
    try:
        wl = workloads.WORKLOADS[name](dn, seed)
    finally:
        layers.tracer.close(root)
        layers.uninstall()
    return perf_counter() - t0, wl, layers


def setup_probe(name: str, seed: int) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def speed_probe() -> float:
    """Seconds of a fixed pure-Python loop that allocates objects, fills a
    dict and looks its items up in scattered order, as a taped run does:
    the fastest of SPEED_PROBE_REPEATS loops, with the cyclic garbage
    collector paused so that a collection of the op's garbage is not timed.

    The host's speed drifts by tens of percent over minutes; the probe runs
    next to every op, and op seconds are scaled by SPEED_PROBE_REF_S / probe
    seconds to the reference host's speed.  The probe does not use diffnet,
    so a change to diffnet moves the scaled figures as much as the raw ones.
    """
    n = SPEED_PROBE_N
    best = math.inf
    gc.disable()
    try:
        for _ in range(SPEED_PROBE_REPEATS):
            t0 = perf_counter()
            items = {i: (float(i), i) for i in range(n)}
            total = 0.0
            for i in range(n):
                total += items[i * 7919 % n][0]
            best = min(best, perf_counter() - t0)
            if total != n * (n - 1) / 2:
                raise BenchError(f"speed probe summed to {total!r}")
    finally:
        gc.enable()
    return best


def load_references(name: str, seed: int):
    if seed != workloads.DEFAULT_SEED:
        return None
    refs = json.loads(REFERENCES.read_text())
    if name not in refs:
        raise BenchError(f"no references for {name} in {REFERENCES}")
    return refs[name]


def reference_failures(outputs: dict, ref: dict) -> list[str]:
    """Departures from a reference beyond REF_RTOL of the reference's
    largest magnitude (per output, so a vector is judged as a whole)."""
    if set(outputs) != set(ref):
        return [f"outputs {sorted(outputs)} != reference {sorted(ref)}"]
    bad = []
    for key, want in ref.items():
        got = outputs[key]
        got = got if isinstance(got, list) else [got]
        want = want if isinstance(want, list) else [want]
        if len(got) != len(want):
            bad.append(f"{key}: {len(got)} values, reference has {len(want)}")
            continue
        tol = REF_RTOL * max(abs(w) for w in want)
        worst = max(abs(g - w) for g, w in zip(got, want))
        if worst > tol:
            bad.append(f"{key} departs from reference by {worst!r} (> {tol!r})")
    return bad


def run_unit(wl, k: int, refs, layers=None):
    """Run unit k of a workload; an exception fails its op."""
    try:
        if layers is None:
            rec = wl.unit(k)
        else:
            layers.tracer.op_id = k
            layers.install(wl.extra_spans())
            root = layers.tracer.open("bench.op")
            try:
                rec = wl.unit(k)
            finally:
                layers.tracer.close(root)
                layers.uninstall()
                layers.tracer.op_id = -1
    except Exception as exc:  # an op that raises is a failed op, not a crash
        rec = workloads.OpRecord(None, None, [f"{type(exc).__name__}: {exc}"])
    if refs is not None and rec.outputs is not None:
        rec.failures += reference_failures(rec.outputs, refs[k % wl.cycle])
    for f in rec.failures:
        print(f"FAILED op (unit {k}): {f}", file=sys.stderr)
    return rec


def probed_units(wl, refs, layers=None, start: int = 0):
    """Run units start, start + 1, ... with the speed probe before the first
    and after each; yields (op record, seconds of the unit and its probe).

    Each record's `probe` is the mean of the probes on either side of it.
    """
    before = speed_probe()
    k = start
    while True:
        t0 = perf_counter()
        rec = run_unit(wl, k, refs, layers)
        after = speed_probe()
        rec.probe = (before + after) / 2
        yield rec, perf_counter() - t0
        before = after
        k += 1


def tail(times: list[float]):
    """Highest whole percentile with at least 10 ops beyond it (nearest
    rank), as (percentile, seconds, ops beyond); None below 20 ops."""
    n = len(times)
    if n < 20:
        return None
    ordered = sorted(times)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1], n - rank


def measure(wl, seconds: float, refs, time_setup):
    """Untraced ops, one unit after another, until the next would overrun.

    Between units, `time_setup()` times a set-up SETUP_PROBES times, spread
    evenly over the run so that the set-ups sample the same host as the ops.
    """
    recs, setups = [], []
    t_start = perf_counter()
    for rec, took in probed_units(wl, refs):
        recs.append(rec)
        while (len(setups) < SETUP_PROBES and perf_counter() - t_start
               >= len(setups) * seconds / SETUP_PROBES):
            setups.append(time_setup())
        if perf_counter() - t_start + took > seconds:
            break
    while len(setups) < SETUP_PROBES:
        setups.append(time_setup())
    return recs, setups


def measure_traced(wl, seconds: float, refs, layers):
    """Alternate untraced and traced cycles of units, at least one each.

    Counts are taken over whole traced cycles, so they do not depend on how
    many cycles fit in the run.
    """
    plain, traced, traced_units = [], [], set()
    t_start = perf_counter()
    k = 0
    while True:
        for trace in (False, True):
            t0 = perf_counter()
            units = probed_units(wl, refs, layers if trace else None, k)
            for _ in range(wl.cycle):
                rec, _ = next(units)
                (traced if trace else plain).append(rec)
                if trace:
                    traced_units.add(k)
                k += 1
        now = perf_counter()
        if now - t_start + (now - t0) * 2 > seconds:
            return plain, traced, traced_units


def bytes_per_entry(wl) -> float:
    """Memory a taped forward run retains per tape entry (tracemalloc)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = wl.memory_run()
        if res is None or len(res.tape) == 0:
            return 0.0
        return (tracemalloc.get_traced_memory()[0] - before) / len(res.tape)
    finally:
        tracemalloc.stop()


def ok_times(recs) -> list[float]:
    return [r.seconds for r in recs if not r.failures and r.seconds is not None]


def ref_times(recs) -> list[float]:
    """Seconds of the passing ops, scaled to the reference host's speed by
    the speed probe around each."""
    return [r.seconds * SPEED_PROBE_REF_S / r.probe for r in recs
            if not r.failures and r.seconds is not None]


def declared_metrics(kind: str) -> list[dict]:
    return json.loads(BENCHMARK.read_text())[kind]


def result(recs, metrics: dict, kind: str) -> dict:
    """The final JSON object; prints each declared metric with its unit."""
    attempted = len(recs)
    failed = sum(1 for r in recs if r.failures)
    res = {"correct": failed == 0, "attempted": attempted, "failed": failed,
           "metrics": {}}
    print(f"  failed_op_ratio = {failed / attempted:.6g} ({failed} of "
          f"{attempted} ops)")
    for m in declared_metrics(kind):
        val = metrics[m["name"]]
        print(f"  {m['name']} = {val:.6g} {m['unit']}")
        res["metrics"][m["name"]] = {"value": val, "unit": m["unit"]}
    return res


def main_untraced(args, wl, setup_s: float) -> dict:
    refs = load_references(args.workload, args.seed)
    wl.start()
    try:
        recs, probes = measure(
            wl, args.seconds, refs,
            lambda: setup_probe(args.workload, args.seed))
    finally:
        wl.close()
    setup = [setup_s] + probes
    times, scaled = ok_times(recs), ref_times(recs)
    if not times:
        raise BenchError("every op failed")
    probe = [r.probe for r in recs]
    metrics = {
        "op_s_ref": statistics.median(scaled),
        "link_steps_per_s_ref": wl.link_steps * len(scaled) / sum(scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }
    print(f"{wl.name} seed {args.seed}: {len(recs)} ops")
    for what, vals in (("op seconds", times), ("scaled op seconds", scaled),
                       ("speed probe seconds", probe)):
        if len(vals) >= 2:
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            print(f"  {what}: min {min(vals):.4f} q1 {q1:.4f} median "
                  f"{q2:.4f} q3 {q3:.4f} max {max(vals):.4f}")
    print(f"  setup_s samples: {' '.join(f'{s:.4f}' for s in setup)}")
    print(f"  op_s_p50 = {statistics.median(times):.6g} s over {len(times)} ops")
    t = tail(times)
    if t is None:
        print(f"  op_s_tail: not reported ({len(times)} ops < 20)")
    else:
        print(f"  op_s_tail = {t[1]:.6g} s (p{t[0]}, {t[2]} of "
              f"{len(times)} ops beyond)")
    print(f"  link_steps_per_s = {wl.link_steps * len(times) / sum(times):.6g}"
          f" 1/s over all ops")
    return result(recs, metrics, "end_to_end")


def main_traced(args, wl, layers) -> dict:
    from tracer import REQUIRED_OP, REQUIRED_SETUP

    refs = load_references(args.workload, args.seed)
    wl.start()
    try:
        plain, traced, units = measure_traced(wl, args.seconds, refs, layers)
    finally:
        wl.close()
    missing = layers.missing(REQUIRED_SETUP, {-1}) + layers.missing(
        REQUIRED_OP + wl.required, units)
    if missing:
        raise BenchError(f"wrapped layers never fired: {', '.join(missing)}")
    p_times, t_times = ref_times(plain), ref_times(traced)
    if not p_times or not t_times:
        raise BenchError("every op of the untraced or traced cycles failed")
    metrics = layers.metrics(
        units, len(traced), sum(r.seconds for r in traced if r.seconds))
    metrics["adcore.bytes_per_entry"] = bytes_per_entry(wl)
    metrics["trace.overhead"] = (
        statistics.median(t_times) / statistics.median(p_times) - 1.0)
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{wl.name}.npz"
    layers.tracer.save(spans)
    print(f"{wl.name} seed {args.seed}: {len(traced)} traced ops, "
          f"{len(plain)} untraced; spans in {spans}")
    return result(plain + traced, metrics, "per_layer")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float,
                    default=json.loads(BENCHMARK.read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time the set-up and print its seconds")
    args = ap.parse_args(argv)
    try:
        if args.setup_probe:
            print(set_up(args.workload, args.seed)[0])
            return 0
        setup_s, wl, layers = set_up(args.workload, args.seed, args.trace == 1)
        if layers is None:
            res = main_untraced(args, wl, setup_s)
        else:
            res = main_traced(args, wl, layers)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
