"""Bitwise fingerprint of diffnet's answers on a fixed set of fixtures.

A change that must keep every value, tape and gradient identical is checked
by fingerprinting the old and the new source tree and diffing the outputs:

    python tools/fingerprint.py --root /path/to/old/checkout --out old.json
    python tools/fingerprint.py --out new.json
    python tools/fingerprint.py --compare old.json new.json

`--root` names the checkout whose `src/diffnet` is imported (default: the
checkout holding this script).  The fixtures themselves always come from
this checkout (`bench/`, `tests/`), so both sides run the same inputs.

For each fixture the JSON holds, by `repr` or SHA-256 of the exact bits:
the objective, the gradients of the registered parameters (`repr` of a
float), the `NU`/`ND` curves of every link, the per-destination counts
(`nu_s`: each link's `NU_s` destination ids and values), the origin queues
and injections (`queues`), the absorbed vehicles (`absorbed`), the travel
time terms of every link and of the queues (`ttt`), the conservation error,
the tape length, the number of tape entries with a nonzero adjoint in the
objective's sweep (`tape_live`, 0 on float runs) and a SHA-256 of the
tape's four entry lists and of the terms of its entries with more than two
parents.  A change that only drops dead entries (ones nothing reads) shows
`tape_len` falling while `tape_live` stays the same.
The two optimizer entries hold the `repr` of every objective of a
three-iteration Adam and SPSA trace on the toll grid, and of its final
tolls.  The CLI entry holds a SHA-256 of every CSV file that a fixed list of
subcommands writes, with the wall-time column of `trace.csv` dropped.

`--compare OLD NEW` prints each fixture whose record differs, the fields
that differ and, where the record has a tape, `tape_len` and `tape_live`
old -> new; below it, each objective, gradient, trip and conservation error
that moved, old -> new with its relative move.  It exits 1 if a fixture is
missing on one side, if any field other than `tape_len` and `tape_sha`
differs, or if `tape_live` moved, so it exits 0 only when at most dead tape
entries changed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import importlib
import importlib.util
import io
import json
import random
import sys
import tempfile
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]

MERGE_PARAMS = "q1,q2,u1,u2,u3,alpha1"
MERGE_TRIPS = [(500.0, "orig1", "dest"), (500.0, "orig2", "dest"),
               (100.0, "orig1", "dest"), (100.0, "orig2", "dest")]


def load_file(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod  # dataclasses look their module up there
    spec.loader.exec_module(mod)
    return mod


def sha(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def float_bits(dn, xs) -> bytes:
    return array("d", [dn.value(x) for x in xs]).tobytes()


def tape_sha(tape) -> str:
    # the four parallel entry lists (parents and partials), then the
    # parents and partials of each entry with more than two parents
    terms = getattr(tape, "_np", ())
    return sha([array("q", tape._p1).tobytes(), array("q", tape._p2).tobytes(),
                array("d", tape._d1).tobytes(), array("d", tape._d2).tobytes(),
                *(array("q", [len(ps), *ps]).tobytes() + array("d", ds).tobytes()
                  for ps, ds in zip(terms, getattr(tape, "_nd", ())))])


def grads(tape, J, inputs) -> list:
    return [repr(float(g)) for g in tape.grad(J, inputs)] if inputs else []


def run_record(dn, res, J, inputs, trips=()) -> dict:
    """Fingerprint of one run, its objective `J` and its trips."""
    tape = res.tape
    links = list(res.links.values())
    curves = sha(float_bits(dn, lk.NU) + float_bits(dn, lk.ND) for lk in links)
    nu_s = sha(",".join(lk.NU_s).encode() + b":"
               + float_bits(dn, list(lk.NU_s.values())) for lk in links)
    queues = sha(f"{o}>{s}".encode() + float_bits(dn, seq)
                 for per_origin in (res.queues, res.inj)
                 for o, per_dest in per_origin.items()
                 for s, seq in per_dest.items())
    rec = {
        "objective": repr(dn.value(J)),
        "grad": grads(tape, J, inputs),
        "curves": curves,
        "nu_s": nu_s,
        "queues": queues,
        "absorbed": sha([float_bits(dn, list(res.absorbed.values()))]),
        "ttt": sha([float_bits(dn, [*res.ttt_link.values(), res.ttt_queue])]),
        "conservation_error": repr(res.conservation_error),
    }
    for t0, orig, dest in trips:
        tt = res.trace_trip(t0, orig, dest).travel_time
        rec[f"trip {t0:g}:{orig}:{dest}"] = [repr(dn.value(tt)),
                                              grads(tape, tt, inputs)]
    rec["tape_len"] = len(tape)
    rec["tape_live"] = sum(1 for a in tape.backward(J) if a != 0.0)
    rec["tape_sha"] = tape_sha(tape)
    return rec


def simulate(dn, scn, tokens=None, values=None, grad=True, objective="ttt",
             lam=0.0, trips=()) -> dict:
    ps = dn.register_parameters(scn, tokens) if tokens else None
    sim = dn.Simulator(scn, params=ps, values=values, grad=grad)
    res = sim.run()
    J = dn.build_objective(objective, lam)(res)
    inputs = [sim.param_vars[n] for n in ps.names] if ps is not None else []
    return run_record(dn, res, J, inputs, trips)


def fixtures(dn):
    """(name, thunk) for every fixture; each thunk returns its record."""
    presets = importlib.import_module("diffnet.presets")
    grid = load_file("fp_grid", HERE / "bench" / "grid.py")
    parity = load_file("fp_test_parity", HERE / "tests" / "test_parity.py")
    engine_tests = load_file("fp_test_engine", HERE / "tests" / "test_engine.py")

    def grid_scn(**kw):
        return dn.Scenario.from_dict(grid.grid_document(**kw))

    def idle_origin_doc():
        # the two-destination fixture plus an origin without demand whose
        # two outlinks lead to both destinations
        doc = parity.two_destination_scenario().to_dict()
        doc["nodes"].append({"id": "o2", "kind": "origin"})
        doc["links"] += [parity._lk("g1", "o2", "m", 600.0),
                         parity._lk("g2", "o2", "n", 700.0)]
        return doc

    def second_origin_scn():
        # the idle origin with demand to both destinations, which ends
        # before the horizon: its queues, once exactly empty, leave over a
        # logit row to two outlinks that keep per-destination counts
        doc = idle_origin_doc()
        doc["meta"]["mu"] = 0.1
        doc["demands"] += [{"origin": "o2", "destination": s,
                            "profile": [[0.0, 400.0, rate]]}
                           for s, rate in (("d1", 0.2), ("d2", 0.15))]
        return dn.Scenario.from_dict(doc)

    def configured(scn, **config):
        return dataclasses.replace(
            scn, config=dataclasses.replace(scn.config, **config))

    def segments(scn, **config):
        return configured(scn, M=3, tt_method="segments", **config)

    def saturated_toll_grid():
        # origin demand above the 7.2 veh/s capacity of the 12 entry links:
        # the origin's logit diverge binds, with its rows on the tape
        doc = presets.toll_grid_scenario().to_dict()
        doc["demands"][0]["profile"] = [[0.0, 300.0, 9.0]]
        return dn.Scenario.from_dict(doc)

    def segments_merge(**config):
        # merge with segment travel times: routing reads `interp` at a `Var`
        # index on a link whose `u` is registered
        return segments(presets.merge_scenario(), **config)

    out = []
    for grad in (True, False):
        tag = "taped" if grad else "float"
        out += [
            (f"merge {tag}", lambda g=grad: simulate(
                dn, presets.merge_scenario(), MERGE_PARAMS, grad=g,
                trips=MERGE_TRIPS)),
            (f"two-route qmaxfb {tag}", lambda g=grad: simulate(
                dn, presets.two_route_scenario(), "qmaxfb", grad=g)),
            # registered w (qmax derived) and kappa: the forward values a
            # taped link decides over derive them from these
            (f"two-route wfb,kappasa,ufa {tag}", lambda g=grad: simulate(
                dn, presets.two_route_scenario(), "wfb,kappasa,ufa", grad=g)),
            (f"merge w3,kappa1,q1 {tag}", lambda g=grad: simulate(
                dn, presets.merge_scenario(), "w3,kappa1,q1", grad=g)),
            (f"segments merge u1,u3 {tag}", lambda g=grad: simulate(
                dn, segments_merge(), "u1,u3", grad=g)),
            (f"segments merge logit u1,u3 {tag}", lambda g=grad: simulate(
                dn, segments_merge(mu=0.1), "u1,u3", grad=g)),
            # segment travel times weighed on the tape: the origin's logit
            # row chooses between the two routes
            (f"segments two-route logit ufa,qmaxfb {tag}",
             lambda g=grad: simulate(
                 dn, segments(presets.two_route_scenario(), mu=0.1),
                 "ufa,qmaxfb", grad=g)),
            (f"toll grid toll-J zero tolls {tag}", lambda g=grad: simulate(
                dn, presets.toll_grid_scenario(), "toll:*", grad=g,
                objective="toll-J", lam=1e-3)),
            # one-inflow nodes bind: each corridor's middle node, one with
            # a registered priority, and the origin
            (f"toll grid 9 veh/s toll:*,alphaf0a {tag}",
             lambda g=grad: simulate(dn, saturated_toll_grid(),
                                     "toll:*,alphaf0a", grad=g)),
            (f"two-destination {tag}", lambda g=grad: simulate(
                dn, parity.two_destination_scenario(), "q1,q2,qmaxb1,ua,ub2",
                grad=g)),
            (f"two-destination idle origin {tag}", lambda g=grad: simulate(
                dn, dn.Scenario.from_dict(idle_origin_doc()),
                "q1,q2,qmaxb1,ua,ub2", grad=g)),
            (f"two-destination second origin logit {tag}",
             lambda g=grad: simulate(
                 dn, second_origin_scn(), "q1,q2,q3,q4,qmaxb1,ua,ub2",
                 grad=g)),
            (f"grid n=4 2 dests {tag}", lambda g=grad: simulate(
                dn, grid_scn(n=4, n_dest=2), "q1,un0_0-n0_1", grad=g)),
            (f"grid n=6 3 dests replan q2 {tag}", lambda g=grad: simulate(
                dn, grid_scn(n=6, n_dest=3, demand=0.10, mu=0.0,
                             dt_route=5.0), "q2", grad=g)),
            # four destinations over logit rows, re-planned every step
            (f"grid n=5 4 dests logit {tag}", lambda g=grad: simulate(
                dn, grid_scn(n=5, n_dest=4, demand=0.10, mu=0.05,
                             dt_route=5.0), "q2,un1_0-n1_1", grad=g)),
        ]
    scn = presets.toll_grid_scenario()
    n = len(dn.register_parameters(scn, "toll:*"))
    rng = random.Random(7)
    tolls = [rng.uniform(0.0, 20.0) for _ in range(n)]
    out.append(("toll grid toll-J random tolls taped", lambda: simulate(
        dn, presets.toll_grid_scenario(), "toll:*", values=tolls,
        objective="toll-J", lam=1e-3)))
    # deterministic routing with tolls: a toll period's edge changes the
    # link weights even where the link states do not
    for grad in (True, False):
        tag = "taped" if grad else "float"
        out.append((f"toll grid mu=0 random tolls {tag}",
                    lambda g=grad: simulate(
                        dn, configured(presets.toll_grid_scenario(), mu=0.0),
                        "toll:*", values=tolls, grad=g, objective="toll-J",
                        lam=1e-3)))

    # the optimizers at the settings their callers use: Adam at the
    # benchmark's step size from its seed-0 tolls, SPSA at criterion 08's
    def optimized(optimizer, config, theta0):
        toll = presets.toll_grid_scenario()
        trace = optimizer(dn.build_objective("toll-J", 1e-3), toll,
                          dn.register_parameters(toll, "toll:*"),
                          theta0=theta0, config=config)
        return {"objectives": [repr(J) for J in trace.objectives],
                "theta": [repr(x) for x in trace.theta]}

    rng = random.Random(0)
    adam_tolls = [rng.uniform(0.0, 20.0) for _ in range(n)]
    out += [
        ("toll grid adam lr=3 3 iters", lambda: optimized(
            dn.adam_optimize, dn.AdamConfig(lr=3.0, iters=3), adam_tolls)),
        ("toll grid spsa a=0.5 3 iters", lambda: optimized(
            dn.spsa_optimize, dn.SPSAConfig(a=0.5, iters=3, seed=0),
            [0.0] * n)),
    ]

    rng = random.Random(1234)
    draws = []
    while len(draws) < 50:
        scn = engine_tests.random_scenario(rng)
        if scn is not None:
            draws.append(scn)
    for k, scn in enumerate(draws):
        tokens = ",".join(f"q{i + 1}" for i in range(len(scn.demands)))
        tokens += f",u{scn.links[0].id}"
        out.append((f"random {k:02d} taped",
                    lambda s=scn, t=tokens: simulate(dn, s, t)))
        out.append((f"random {k:02d} float",
                    lambda s=scn: simulate(dn, s, grad=False)))
    return out


def bench_units(dn) -> dict:
    """Outputs of units 0-3 of every benchmark workload at seed 0."""
    sys.path.insert(0, str(HERE / "bench"))
    try:
        workloads = load_file("fp_workloads", HERE / "bench" / "workloads.py")
    finally:
        sys.path.remove(str(HERE / "bench"))
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(dn, 0)
        wl.start()
        try:
            for k in range(4):
                rec = wl.unit(k)
                out[f"bench {name} unit {k}"] = {
                    "outputs": repr(rec.outputs), "failures": rec.failures}
        finally:
            wl.close()
    return out


CLI_RUNS = [
    ["run", "{merge}"],
    ["run", "{toll}"],
    ["run", "{toll}", "--segments", "3"],
    ["grad", "{merge}", "--params", MERGE_PARAMS],
    ["grad", "{two}", "--params", "qmaxfb"],
    ["grad", "{toll}", "--params", "toll:*", "--objective", "toll-J",
     "--lambda", "1e-3"],
    ["fdcheck", "{merge}", "--params", "q1,u3"],
    ["trace", "{merge}", "--trip", "500:orig1:dest", "--trip", "100:orig2:dest"],
    ["optimize-toll", "{toll}", "--iters", "3"],
    ["spsa-toll", "{toll}", "--iters", "3"],
]


def csv_digest(path: Path) -> str:
    text = path.read_text()
    if path.name == "trace.csv":  # drop the wall-time column
        header, body = text.split("\n", 1)
        rows = list(csv.reader(io.StringIO(body)))
        col = rows[0].index("wall")
        text = header + "\n" + "\n".join(
            ",".join(r[:col] + r[col + 1:]) for r in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def cli_hashes(dn) -> dict:
    presets = importlib.import_module("diffnet.presets")
    cli = importlib.import_module("diffnet.cli")
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files = {"merge": presets.merge_scenario(),
                 "two": presets.two_route_scenario(),
                 "toll": presets.toll_grid_scenario()}
        for key, scn in files.items():
            scn.save(tmp / f"{key}.scn")
        for k, argv in enumerate(CLI_RUNS):
            argv = [a.format(**{key: str(tmp / f"{key}.scn") for key in files})
                    for a in argv]
            odir = tmp / f"out{k}"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv + ["--out", str(odir)])
            label = " ".join(a.replace(str(tmp) + "/", "") for a in argv)
            out[label] = {"exit": code, **{
                p.name: csv_digest(p) for p in sorted(odir.glob("*.csv"))}}
    return out


# the fields a change that drops dead tape entries may move
TAPE_FIELDS = ("tape_len", "tape_sha")


def numbers(rec: dict) -> dict:
    """label -> repr of each objective, gradient, trip and conservation
    error a record holds."""
    out = {}
    for field, val in rec.items():
        if field in ("objective", "conservation_error"):
            out[field] = val
        elif field == "grad":
            out.update((f"grad[{i}]", g) for i, g in enumerate(val))
        elif field.startswith("trip "):
            out[field] = val[0]
            out.update((f"{field} grad[{i}]", g)
                       for i, g in enumerate(val[1]))
    return out


def move(old: str, new: str) -> str:
    """`old -> new` and the relative move (the absolute one from 0)."""
    a, b = float(old), float(new)
    rel = f"{(b - a) / abs(a):+.2e} rel" if a != 0.0 else f"{b - a:+.2e} abs"
    return f"{old} -> {new} ({rel})"


def compare(old: dict, new: dict) -> int:
    """Print how two fingerprints differ; 1 unless only dead entries moved."""
    differ = bad = 0
    for name in sorted(old.keys() | new.keys()):
        a, b = old.get(name), new.get(name)
        if a == b:
            continue
        differ += 1
        if a is None or b is None:
            print(f"{name}: only in {'NEW' if a is None else 'OLD'}")
            bad = 1
            continue
        fields = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        line = f"{name}: {', '.join(fields)}"
        if "tape_len" in a:
            line += (f" (tape_len {a['tape_len']} -> {b.get('tape_len')}, "
                     f"tape_live {a.get('tape_live')} -> {b.get('tape_live')})")
        print(line)
        na, nb = numbers(a), numbers(b)
        for label in na:
            if na[label] != nb.get(label, na[label]):
                print(f"  {label}: {move(na[label], nb[label])}")
        if any(f not in TAPE_FIELDS for f in fields):
            bad = 1
    print(f"{differ} of {len(old.keys() | new.keys())} entries differ; "
          + ("values, gradients or live tape entries moved" if bad
             else "every value, gradient and live tape count is identical"))
    return bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=str(HERE),
                    help="checkout whose src/diffnet is fingerprinted")
    ap.add_argument("--out", default="-", help="output JSON file ('-': stdout)")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    help="compare two fingerprint files instead")
    args = ap.parse_args(argv)
    if args.compare:
        old, new = (json.loads(Path(p).read_text()) for p in args.compare)
        return compare(old, new)
    sys.path.insert(0, str(Path(args.root).resolve() / "src"))
    dn = importlib.import_module("diffnet")

    result = {name: thunk() for name, thunk in fixtures(dn)}
    result.update(bench_units(dn))
    result["cli"] = cli_hashes(dn)
    text = json.dumps(result, indent=1, sort_keys=True) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
