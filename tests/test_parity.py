"""Pinned objective values and gradients on five fixtures.

The pins guard the arithmetic of the node step, the share routines and the
link updates: a refactor that keeps that arithmetic reproduces them to 1e-9
relative.  On the re-planned grid a last-bit change can flip a route tie,
so that pin is exact.
"""

import copy
import importlib.util
import math
from pathlib import Path

import pytest

import diffnet.engine
from diffnet.adcore import FloatTape, Var, value
from diffnet.engine import Simulator, build_objective, objective_ttt
from diffnet.presets import merge_scenario, toll_grid_scenario, two_route_scenario
from diffnet.routing import composition
from diffnet.scenario import Scenario, register_parameters


def taped(scn, tokens, values=None):
    ps = register_parameters(scn, tokens)
    sim = Simulator(scn, params=ps, values=values)
    return sim.run(), [sim.param_vars[n] for n in ps.names]


def test_merge_ttt_and_gradients_pinned():
    res, pv = taped(merge_scenario(), "q1,q2,u1,u2,u3,alpha1")
    J = objective_ttt(res)
    assert J.val == pytest.approx(140065.0, rel=1e-9)
    assert res.tape.grad(J, pv) == pytest.approx(
        [389500.0, 352500.0, -1327.5, -592.5, -2025.0, 675.0], rel=1e-9)


def test_two_route_ttt_and_capacity_gradient_pinned():
    res, pv = taped(two_route_scenario(), "qmaxfb")
    J = objective_ttt(res)
    assert J.val == pytest.approx(68505.0, rel=1e-9)
    assert res.tape.grad(J, pv) == pytest.approx([-338250.00000000006],
                                                 rel=1e-9)


def test_toll_grid_objective_and_gradient_norm_pinned():
    scn = toll_grid_scenario()
    n = len(register_parameters(scn, "toll:*"))
    tolls = [float((7 * i) % 11) * 2.0 for i in range(n)]
    res, pv = taped(scn, "toll:*", tolls)
    J = build_objective("toll-J", lam=1e-3)(res)
    g = res.tape.grad(J, pv)
    assert J.val == pytest.approx(90008.16461157711, rel=1e-9)
    assert math.sqrt(sum(x * x for x in g)) == pytest.approx(
        75.83814120303828, rel=1e-9)


def test_toll_grid_tape_size_bounded():
    # one taped run at zero tolls; entries that can move neither a value nor
    # an adjoint (exact-zero operands, repeated converged INM passes,
    # min2/max2 of a Var against a float) are not recorded
    res, _ = taped(toll_grid_scenario(), "toll:*")
    assert len(res.tape) <= 25_000


def test_merge_tape_size_bounded():
    # one destination: no per-destination curves, flows or shares, and the
    # curve updates and travel-time sums record one entry each
    res, _ = taped(merge_scenario(), "q1,q2,u1,u2,u3,alpha1")
    assert len(res.tape) <= 36_000


def _lk(lid, tail, head, d, u=20.0, qmax=0.6):
    return {"id": lid, "from": tail, "to": head, "d": d, "u": u,
            "qmax": qmax, "kappa": 0.2, "alpha": 1.0}


def two_destination_scenario():
    """One origin whose logit routes diverge to two destinations.

    From node m each destination has a direct link and a route through node
    n, so links a and c carry both destinations.  Link lengths are off whole
    timesteps, which keeps every index sensitivity away from a grid point.
    """
    return Scenario.from_dict({
        "meta": {"dt": 5.0, "T_max": 1500.0, "dt_route": 25.0,
                 "dt_toll": 1500.0, "mu": 0.05},
        "nodes": [{"id": "orig", "kind": "origin"},
                  {"id": "m", "kind": "intermediate"},
                  {"id": "n", "kind": "intermediate"},
                  {"id": "d1", "kind": "destination"},
                  {"id": "d2", "kind": "destination"}],
        "links": [_lk("a", "orig", "m", 1010.0, qmax=0.8),
                  _lk("b1", "m", "d1", 1030.0, qmax=0.25),
                  _lk("b2", "m", "d2", 1520.0),
                  _lk("c", "m", "n", 510.0, qmax=0.5),
                  _lk("e1", "n", "d1", 820.0),
                  _lk("e2", "n", "d2", 530.0, qmax=0.3)],
        "demands": [{"origin": "orig", "destination": "d1",
                     "profile": [[0.0, 600.0, 0.4]]},
                    {"origin": "orig", "destination": "d2",
                     "profile": [[0.0, 600.0, 0.3]]}],
    })


def test_two_destination_ttt_and_gradients_pinned():
    res, pv = taped(two_destination_scenario(), "q1,q2,qmaxb1,ua,ub2")
    J = objective_ttt(res)
    assert J.val == pytest.approx(55845.31272273125, rel=1e-9)
    assert res.tape.grad(J, pv) == pytest.approx(
        [417039.6598097659, 80205.2189811544, -540128.4675820868,
         -1148.8750000000002, -12.313291203773163], rel=1e-9)
    c = res.links["c"]
    assert set(c.NU_s) == {"d1", "d2"}
    assert sum(c.NU_s[s].val for s in c.NU_s) == pytest.approx(
        c.NU[-1].val, rel=1e-12)


def test_per_destination_link_state_is_one_count_per_destination():
    # one count per destination the link's head reaches; a link that
    # reaches one destination keeps none, and its share is a plain 1.0
    res, _ = taped(two_destination_scenario(), "q1")
    dests = {lid: lk.dests for lid, lk in res.links.items()}
    assert dests == {"a": ("d1", "d2"), "b1": ("d1",), "b2": ("d2",),
                     "c": ("d1", "d2"), "e1": ("d1",), "e2": ("d2",)}
    for lk in res.links.values():
        if len(lk.dests) == 1:
            assert lk.NU_s == {}
            (share,) = composition(res.tape, lk).values()
            assert share == 1.0 and type(share) is float
            continue
        assert list(lk.NU_s) == list(lk.dests)
        assert all(type(n) in (Var, float) for n in lk.NU_s.values())
        assert sum(value(n) for n in lk.NU_s.values()) == pytest.approx(
            value(lk.NU[-1]), rel=1e-12, abs=1e-12)


def test_one_destination_run_keeps_no_per_destination_state():
    res, _ = taped(toll_grid_scenario(), "toll:*")
    assert all(lk.NU_s == {} for lk in res.links.values())
    lk = res.links["f0b"]
    comp = composition(res.tape, lk)
    assert comp == {"dest": 1.0} and type(comp["dest"]) is float


def load_grid():
    path = Path(__file__).resolve().parents[1] / "bench" / "grid.py"
    spec = importlib.util.spec_from_file_location("bench_grid", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("grad", [False, True])
def test_replanned_grid_ttt_and_route_changes_pinned_exactly(grad, monkeypatch):
    # deterministic routing re-planned every step: the next hops change at
    # 10 of the 239 later refreshes, and the taped and gradient-free runs
    # agree to the last bit
    hops = []

    def recording(*args):
        table = build_routing(*args)
        hops.append(table.next_link)
        return table

    build_routing = diffnet.engine.build_routing
    monkeypatch.setattr(diffnet.engine, "build_routing", recording)
    scn = Scenario.from_dict(load_grid().grid_document(
        n=4, n_dest=3, demand=0.10, mu=0.0, dt_route=5.0))
    ps = register_parameters(scn, "q2")
    sim = Simulator(scn, params=ps, grad=grad)
    res = sim.run()
    J = objective_ttt(res)
    assert repr(value(J)) == "149227.0682984"
    assert len(hops) == 240
    assert sum(a != b for a, b in zip(hops, hops[1:])) == 10
    if grad:
        g = res.tape.grad(J, [sim.param_vars["q2"]])
        assert repr(float(g[0])) == "140820.55116992674"


def record_refreshes(monkeypatch):
    """Patch the engine to check every routing refresh.

    Returns the list of routing tables, one per refresh, and the list of
    (node, destination) pairs `turning_probs` ran for at each refresh.
    After every refresh each visited node's rows must have the values that
    `turning_probs` gives for that refresh's table, with no row where it
    gives `None`.  The check runs on the table's float values and a
    `FloatTape`, so the run's tape is left as it is.
    """
    tables, rebuilt = [], []
    build_routing = diffnet.engine.build_routing
    turning_probs = diffnet.engine.turning_probs

    def recording_build(*args):
        tables.append(build_routing(*args))
        rebuilt.append([])
        return tables[-1]

    def recording_probs(tape, table, node, outs, s, mu):
        rebuilt[-1].append((node, s))
        return turning_probs(tape, table, node, outs, s, mu)

    refresh = Simulator._refresh_routing

    def checked_refresh(sim, t):
        refresh(sim, t)
        table, mu = copy.copy(tables[-1]), sim.scn.config.mu
        table.link_cost_var = {
            s: [None if c is None else value(c) for c in costs]
            for s, costs in table.link_cost_var.items()}
        for plan in sim._plans:
            want = {}
            for s in sim.dests:
                p = turning_probs(FloatTape(), table, plan.node, plan.outs, s,
                                  mu)
                if p is not None:
                    want[s] = [value(x) for x in p]
            assert {s: [value(x) for x in p]
                    for s, p in plan.rows.items()} == want

    monkeypatch.setattr(diffnet.engine, "build_routing", recording_build)
    monkeypatch.setattr(diffnet.engine, "turning_probs", recording_probs)
    monkeypatch.setattr(Simulator, "_refresh_routing", checked_refresh)
    return tables, rebuilt


def test_replanned_grid_rows_are_rebuilt_only_where_next_hops_change(
        monkeypatch):
    # deterministic routing: a (node, destination) row is rebuilt exactly
    # when that node's next hop toward the destination changed, and both
    # cases occur
    tables, rebuilt = record_refreshes(monkeypatch)
    scn = Scenario.from_dict(load_grid().grid_document(
        n=4, n_dest=3, demand=0.10, mu=0.0, dt_route=5.0))
    sim = Simulator(scn)
    sim.run()
    assert len(tables) == 240
    pairs = [(plan.node, s) for plan in sim._plans for s in plan.dests]
    assert rebuilt[0] == pairs
    n_moved = 0
    for k in range(1, len(tables)):
        now, before = tables[k].next_link, tables[k - 1].next_link
        moved = [(node, s) for node, s in pairs
                 if now[s][node] != before[s][node]]
        assert rebuilt[k] == moved
        n_moved += len(moved)
    assert 0 < n_moved < (len(tables) - 1) * len(pairs)


def test_logit_rows_are_rebuilt_only_where_outlinks_offer_a_choice(
        monkeypatch):
    # logit routing on the toll grid: each corridor midpoint has one outlink,
    # so its row is built once; the origin chooses among 12 corridors at
    # every one of the 20 refreshes.  The tape of the run and its TTT holds
    # 20,213 entries when the clamps, travel times and step sizes record
    # both branches, 9,401 of them live; decided on values, with the node
    # model recording only the winning step and caps, it keeps only what can
    # be read, with the same live entries.  No node-model call records a
    # step chain any more: at 420 of the 960 calls no outlink binds and the
    # flows are the demands themselves, and the other 540 are bound by
    # plain-float supplies.  The 1,080 live entries that the chains passed
    # adjoints through, whose contributions cancel, are gone too.  The
    # absorbed counts, summed after the scan, add 6 of the entries.
    tables, rebuilt = record_refreshes(monkeypatch)
    res, _ = taped(toll_grid_scenario(), "toll:*")
    assert len(tables) == 20
    assert rebuilt[0][0] == ("orig", "dest")
    assert sorted(node for node, _ in rebuilt[0][1:]) == sorted(
        f"m{c}{i}" for c in "fs" for i in range(6))
    assert all(calls == [("orig", "dest")] for calls in rebuilt[1:])
    assert sum(map(len, rebuilt)) == 32
    J = objective_ttt(res)
    assert len(res.tape) == 9_491
    assert sum(1 for a in res.tape.backward(J) if a != 0.0) == 8_321


def test_an_origin_without_demand_gets_no_rows(monkeypatch):
    # an origin whose two outlinks lead to both destinations, under logit
    # routing, but with no demand: the node stage never visits it, so no
    # row of it is built
    doc = two_destination_scenario().to_dict()
    doc["nodes"].append({"id": "o2", "kind": "origin"})
    doc["links"] += [_lk("g1", "o2", "m", 600.0), _lk("g2", "o2", "n", 700.0)]
    tables, rebuilt = record_refreshes(monkeypatch)
    res, _ = taped(Scenario.from_dict(doc), "q1")
    assert "o2" not in [plan.node for plan in res._sim._plans]
    assert len(tables) == 60 and all(rebuilt)
    assert all(node != "o2" for calls in rebuilt for node, _ in calls)
