"""A float run's per-destination layer (`engine._DestLayer`) against the
scalar bookkeeping that taped runs keep: at every step, its shares, composed
rows, booked inflows and counts equal, by `float.hex`, what `composition`,
`_transfer` and the `tape.madd` loop give on a twin run with the layer off.
"""

import pytest

import diffnet.engine as engine
from diffnet.adcore import FLOAT
from diffnet.engine import Simulator, composition
from diffnet.ltm import LinkDyn
from diffnet.presets import toll_grid_scenario
from diffnet.scenario import Scenario

from test_decided import forward_values
from test_engine import diverge_scenario
from test_parity import _lk, load_grid, two_destination_scenario


def second_origin_logit():
    """The two-destination fixture with a second origin o2, whose demand to
    both destinations ends before the horizon, under logit rows."""
    doc = two_destination_scenario().to_dict()
    doc["meta"]["mu"] = 0.1
    doc["nodes"].append({"id": "o2", "kind": "origin"})
    doc["links"] += [_lk("g1", "o2", "m", 600.0), _lk("g2", "o2", "n", 700.0)]
    doc["demands"] += [{"origin": "o2", "destination": s,
                        "profile": [[0.0, 400.0, rate]]}
                       for s, rate in (("d1", 0.2), ("d2", 0.15))]
    return Scenario.from_dict(doc)


def grid_two_dests():
    return Scenario.from_dict(load_grid().grid_document(n=4, n_dest=2))


def hexes(xs):
    return [float(x).hex() for x in xs]


def layer_run(monkeypatch, scn, force):
    """Run `scn` on floats with its layer; per step, the layer's counts at
    the step's start, its shares, composed rows and booked inflows.  At
    the start of step t, `force(t)` may set counts: link number ->
    destination -> count."""
    steps = []
    layer = engine._DestLayer
    shares, compose, book = layer.shares, layer.compose, layer.book

    def spy_shares(self, total, D):
        col = self.col
        for l, new in force(len(steps)).items():
            for s, n in new.items():
                self.counts[col[s], l] = n
        steps.append({"counts": {
            l: {s: self.counts[col[s], l] for s in lk.NU_s}
            for l, lk in enumerate(self.links) if lk.NU_s}})
        steps[-1]["C"] = shares(self, total, D).copy()
        return self.C

    def spy_compose(self):
        steps[-1]["rows"] = compose(self)
        return self.rows

    def spy_book(self, f_out, f_in_s):
        F = steps[-1]["F"] = book(self, f_out, f_in_s)
        return F

    monkeypatch.setattr(layer, "shares", spy_shares)
    monkeypatch.setattr(layer, "compose", spy_compose)
    monkeypatch.setattr(layer, "book", spy_book)
    sim = Simulator(scn, grad=False)
    try:
        return sim, sim.run(), steps
    finally:
        monkeypatch.undo()


def scalar_run(monkeypatch, scn, force):
    """The twin: `scn` on floats with the layer off, so that it steps the
    scalar bookkeeping.  Per step: the counts and upstream counts at its
    start, the shares `composition` gives, the composed rows each stepped
    junction hands to `inm_fixed`, the junctions it skips and its booked
    inflows."""
    sim = Simulator(scn, grad=False)
    sim._dests = None
    steps, now = [], {}
    node_step, inm_fixed = Simulator._node_step, engine.inm_fixed

    def spy_step(self, plan, t, dt, D, S, f_in, f_out, f_in_s):
        if len(steps) == t:  # the step's first node
            for l, new in force(t).items():
                sim.links[l].NU_s.update(new)
            counts = {l: dict(lk.NU_s) for l, lk in enumerate(sim.links)
                      if lk.NU_s}
            steps.append({"counts": counts, "rows": {}, "skipped": set(),
                          "booked": f_in_s, "D": D,
                          "total": [lk.NU[-1] for lk in sim.links]})
        now["plan"] = plan
        node_step(self, plan, t, dt, D, S, f_in, f_out, f_in_s)
        if plan.kind != "origin" and plan.node not in steps[-1]["rows"]:
            steps[-1]["skipped"].add(plan.node)

    def spy_inm(tape, D, S, B, alpha):
        plan = now["plan"]
        if plan.kind != "origin":
            steps[-1]["rows"][plan.node] = [list(row) for row in B]
        elif any(plan.keeps) and any(B[0] is r for r in plan.rows.values()):
            steps[-1]["one"] = True  # an inflow of one destination
        return inm_fixed(tape, D, S, B, alpha)

    monkeypatch.setattr(Simulator, "_node_step", spy_step)
    monkeypatch.setattr(engine, "inm_fixed", spy_inm)
    try:
        return sim, sim.run(), steps
    finally:
        monkeypatch.undo()


def check_layer(monkeypatch, scn, force=lambda t: {}):
    """Both runs, step by step, by `float.hex`; returns which cases the
    twin met: an even split read at a junction with another inlink
    ("even"), a skipped junction ("skip") and an origin inflow of one
    destination booked under an outlink that keeps `NU_s` ("one")."""
    twin, twin_res, want = scalar_run(monkeypatch, scn, force)
    sim, res, got = layer_run(monkeypatch, scn, force)
    assert len(got) == len(want) == scn.config.n_steps
    col, links = sim._dests.col, twin.links
    views = [LinkDyn(FLOAT, lp, lk.dests) for lp, lk in zip(scn.links, links)]
    plans = {p.node: p for p in sim._plans}
    met = set()
    for t, (g, w) in enumerate(zip(got, want)):
        assert ({l: hexes(c.values()) for l, c in g["counts"].items()}
                == {l: hexes(c.values()) for l, c in w["counts"].items()}), t
        # shares: every link's, whether or not a node step reads them
        for l, view in enumerate(views):
            view.NU = [w["total"][l]]
            view.NU_s = dict(w["counts"].get(l, {}))
            try:
                comp = composition(FLOAT, view)
            except ZeroDivisionError:  # nothing may read these shares
                assert links[l].head in w["skipped"], (t, links[l].id)
                continue
            assert hexes(g["C"][:, l]) == hexes(
                comp.get(s, 0.0) for s in col), (t, links[l].id)
        # composed rows of every junction the twin stepped
        for node, rows in w["rows"].items():
            plan = plans[node]
            J = len(plan.outs)
            for i, row in zip(plan.ins, rows):
                assert hexes(g["rows"][i][:J]) == hexes(row), (t, node)
            if len(plan.ins) > 1 and any(
                    len(links[i].dests) > 1 and w["total"][i] <= 0.0
                    for i in plan.ins):
                met.add("even")
        met |= {"skip"} if w["skipped"] else set()
        met |= {"one"} if w.get("one") else set()
        # booked inflows: under the links that keep `NU_s`, nothing else
        F, booked = g["F"], w["booked"]
        mask = sim._dests.mask
        assert not F[~mask].any(), t
        for l, lk in enumerate(links):
            for s in lk.NU_s:
                assert F[col[s], l].hex() == booked.get(l, {}).get(
                    s, 0.0).hex(), (t, lk.id, s)
    assert forward_values(res) == forward_values(twin_res)
    return met


@pytest.mark.parametrize("make, cases", [
    (diverge_scenario, {"skip", "one"}),
    (second_origin_logit, {"skip", "one"}),
    (grid_two_dests, {"even", "skip"}),
], ids=["diverge", "two-destination second origin logit", "grid n=4 2 dests"])
def test_the_layer_is_the_scalar_bookkeeping_at_every_step(monkeypatch, make,
                                                          cases):
    assert check_layer(monkeypatch, make()) >= cases


def first_step(scn, node):
    """The first step at which junction `node` sends vehicles on."""
    res = Simulator(scn, grad=False).run()
    ins = [lk for lk in res.links.values() if lk.head == node]
    for t in range(scn.config.n_steps):
        if any(lk.ND[t + 1] > lk.ND[t] for lk in ins):
            return t
    raise AssertionError(node)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_composed_rows_read_only_the_fractions_that_are_not_zero(monkeypatch):
    # an infinite count makes link a's share of d1 NaN (inf / inf) while m
    # steps: the scalar rows add c * p only where p is not 0.0, so a's row
    # keeps 0.0 at b2, where the NaN times 0.0 would be NaN
    scn = diverge_scenario()
    t0 = first_step(scn, "m")
    a = [lp.id for lp in scn.links].index("a")

    def force(t):
        return {a: {"d1": float("inf")}} if t == t0 else {}

    check_layer(monkeypatch, scn, force)


@pytest.mark.parametrize("at", ["skipped", "stepped"])
def test_a_share_sum_of_zero_raises_as_the_scalar_division_does(monkeypatch,
                                                               at):
    # link a's counts forced to 0.0 while its NU is above 0: where m steps,
    # the share sum 0.0 divides and both paths raise ZeroDivisionError;
    # while m is skipped nothing reads the shares, and both runs go on
    scn = diverge_scenario()
    t0 = first_step(scn, "m") - (at == "skipped")
    assert Simulator(scn, grad=False).run().links["a"].NU[t0] > 0.0
    a = [lp.id for lp in scn.links].index("a")

    def force(t):
        return {a: {"d1": 0.0, "d2": 0.0}} if t == t0 else {}

    if at == "skipped":
        check_layer(monkeypatch, scn, force)
        return
    for run in (scalar_run, layer_run):
        with pytest.raises(ZeroDivisionError):
            run(monkeypatch, scn, force)


def test_a_float_run_of_one_destination_builds_no_layer():
    # no link keeps `NU_s`: every share is the plain 1.0, and nothing is
    # booked, so the scalar routines step it at no per-destination cost
    assert Simulator(toll_grid_scenario(), grad=False)._dests is None
    assert Simulator(grid_two_dests(), grad=False)._dests is not None
