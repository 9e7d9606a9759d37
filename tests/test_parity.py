"""Pinned objective values and gradients on five fixtures.

The pins guard the arithmetic of the node step, the share routines and the
link updates: a refactor that keeps that arithmetic reproduces them to 1e-9
relative.  On the re-planned grid a last-bit change can flip a route tie,
so that pin is exact.
"""

import importlib.util
import math
from pathlib import Path

import pytest

import diffnet.engine
from diffnet.adcore import Var, value
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
    assert repr(value(J)) == "149227.06829839997"
    assert len(hops) == 240
    assert sum(a != b for a, b in zip(hops, hops[1:])) == 10
    if grad:
        g = res.tape.grad(J, [sim.param_vars["q2"]])
        assert repr(float(g[0])) == "140820.5511699265"


def test_replanned_grid_rows_are_rebuilt_only_where_next_hops_change(
        monkeypatch):
    # deterministic routing: after each refresh every node's rows equal what
    # `turning_probs` gives for that refresh's table, and a destination's
    # rows are recomputed exactly when its next hops changed
    tables, recomputed = [], []
    build_routing = diffnet.engine.build_routing
    turning_probs = diffnet.engine.turning_probs

    def recording_build(*args):
        tables.append(build_routing(*args))
        recomputed.append(set())
        return tables[-1]

    def recording_probs(tape, table, node, outs, s, mu):
        recomputed[-1].add(s)
        return turning_probs(tape, table, node, outs, s, mu)

    refresh = Simulator._refresh_routing

    def checked_refresh(sim, t):
        refresh(sim, t)
        table = tables[-1]
        for plan in sim._routed:
            rows, probs = sim._rows[plan.node], sim._probs[plan.node]
            for s in sim.dests:
                want = turning_probs(sim.tape, table, plan.node, plan.outs, s,
                                     0.0)
                if want is None:
                    assert s not in rows and s not in probs
                    continue
                assert rows[s] == want
                assert probs[s] == [(j, x) for j, x in enumerate(want)
                                    if x != 0.0]

    monkeypatch.setattr(diffnet.engine, "build_routing", recording_build)
    monkeypatch.setattr(diffnet.engine, "turning_probs", recording_probs)
    monkeypatch.setattr(Simulator, "_refresh_routing", checked_refresh)
    scn = Scenario.from_dict(load_grid().grid_document(
        n=4, n_dest=3, demand=0.10, mu=0.0, dt_route=5.0))
    sim = Simulator(scn)
    sim.run()
    assert len(tables) == 240
    assert recomputed[0] == set(sim.dests)
    reused = rebuilt = 0
    for k in range(1, len(tables)):
        for s in sim.dests:
            moved = tables[k].next_link[s] != tables[k - 1].next_link[s]
            assert (s in recomputed[k]) == moved
            rebuilt += moved
            reused += not moved
    assert reused > 0 and rebuilt > 0
