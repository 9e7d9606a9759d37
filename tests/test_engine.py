"""End-to-end simulation engine: conservation, fixtures, trip tracing."""

import dataclasses
import math
import random

import pytest

import diffnet.engine
from diffnet.adcore import Tape, Var, value
from diffnet.engine import (
    EngineError,
    Simulator,
    TripIncompleteError,
    build_objective,
    inverse_cumcount,
    objective_ttt,
    parse_trip,
    run,
)
from diffnet.ltm import LinkDyn, LinkLayer
from diffnet.nodemodel import ACTIVE_EPS, B_EPS
from diffnet.presets import (
    bottleneck_scenario,
    merge_scenario,
    toll_grid_scenario,
    two_route_scenario,
)
from diffnet.scenario import (
    Scenario,
    ScenarioError,
    ValidationError,
    register_parameters,
)


# ----------------------------------------------------------------------
# basics


def test_zero_demand_is_inert():
    d = merge_scenario().to_dict()
    d["demands"] = [
        {"origin": "orig1", "destination": "dest",
         "profile": [[0.0, 5.0, 0.0]]},
    ]
    d["nodes"] = [n for n in d["nodes"] if n["id"] != "orig2"]
    d["links"] = [lk for lk in d["links"] if lk["id"] != "2"]
    res = run(Scenario.from_dict(d), grad=False)
    assert value(objective_ttt(res)) == 0.0
    for lk in res.links.values():
        assert value(lk.NU[-1]) == 0.0


def test_merge_fixture_forward_run():
    res = run(merge_scenario(), grad=False)
    # 0.45*1000 + 0.6*600 = 810 vehicles enter and all are absorbed
    assert value(res.links["3"].ND[-1]) == pytest.approx(810.0, abs=1e-6)
    # total travel time within half a timestep of the continuum value
    assert value(objective_ttt(res)) == pytest.approx(140062.5, abs=2.5)
    assert res.conservation_error < 1e-6


def test_merge_congestion_window():
    res = run(merge_scenario(), grad=False)
    lk1 = res.links["1"]
    dt = 5.0
    # free flow before the second origin starts at t=400 (+50 s lead)
    assert value(lk1.NU[80]) - value(lk1.ND[80]) == pytest.approx(0.45 * 50.0)
    # first origin's approach clears at t = 1125
    t_clear = next(
        t for t in range(100, 400)
        if value(lk1.ND[t]) >= 450.0 - 1e-9
    )
    assert t_clear * dt == pytest.approx(1125.0, abs=dt)
    # second origin spills back into its vertical queue, peaking at 20 veh
    q2 = [value(q) for q in res.queues["orig2"]["dest"]]
    assert max(q2) == pytest.approx(20.0, abs=1e-6)
    assert q2[199] == pytest.approx(19.0, abs=1.01)
    assert all(q == 0.0 for q in q2[:179])


def test_run_determinism():
    a = run(merge_scenario(), grad=False)
    b = run(merge_scenario(), grad=False)
    for lid in a.links:
        assert [value(x) for x in a.links[lid].NU] == \
            [value(x) for x in b.links[lid].NU]


def test_gradient_free_run_records_nothing():
    res = run(merge_scenario(), grad=False)
    assert len(res.tape) == 0


def test_values_without_a_parameter_set_are_rejected():
    # they would override nothing, so the run would ignore them silently
    for grad in (True, False):
        with pytest.raises(EngineError, match="without a parameter set"):
            Simulator(merge_scenario(), values=[0.5], grad=grad)
    ps = register_parameters(merge_scenario(), "q1")
    with pytest.raises(EngineError, match="does not match"):
        Simulator(merge_scenario(), params=ps, values=[0.5, 0.1])


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("tokens, values, message", [
    ("q1", [-0.3], "parameter 'q1': value -0.3 must be finite and >= 0"),
    ("q1", [INF], "parameter 'q1': value inf must be finite and >= 0"),
    ("kappa3", [0.0], "parameter 'kappa3': value 0.0 must be finite and > 0"),
    ("alpha1", [-1.0], "parameter 'alpha1': value -1.0 must be finite and > 0"),
    ("u3", [NAN], "parameter 'u3': value nan must be finite and > 0"),
    ("w1", [0.0], "parameter 'w1': value 0.0 must be finite and > 0"),
    ("toll:3:0", [NAN], "parameter 'toll:3:0': value nan must be finite"),
    # the rules that tie a value to the link's other attributes
    ("qmax1", [5.0], "parameter 'qmax1': link 1: critical density 0.25 must "
     "be below jam density 0.2"),
    ("u1,kappa1", [20.0, 0.04], "parameter 'u1', 'kappa1': link 1: critical "
     "density 0.04 must be below jam density 0.04"),
    ("u1", [250.0], "parameter 'u1': CFL violated on link 1: dt=5.0 > d/u=4"),
])
def test_parameter_values_obey_the_rules_of_their_field(tokens, values,
                                                        message):
    scn = merge_scenario()
    ps = register_parameters(scn, tokens)
    for grad in (True, False):
        with pytest.raises(ValidationError) as err:
            Simulator(scn, params=ps, values=values, grad=grad)
        assert str(err.value) == message


def test_negative_tolls_and_zero_rates_are_valid_parameter_values():
    # finite-difference and SPSA probes step below a zero toll
    scn = merge_scenario()
    ps = register_parameters(scn, "toll:3:0,q2")
    J = value(objective_ttt(run(scn, ps, values=[-1.0, 0.0], grad=False)))
    assert J == value(objective_ttt(run(scn, ps, values=[0.0, 0.0],
                                        grad=False)))


def give_first_outlink(monkeypatch, flow):
    """Make every node-model call send `flow` into the node's first outlink."""
    inm_fixed = diffnet.engine.inm_fixed

    def patched(tape, D, S, B, alpha):
        qin, qout = inm_fixed(tape, D, S, B, alpha)
        return qin, [flow, *qout[1:]]

    monkeypatch.setattr(diffnet.engine, "inm_fixed", patched)


@pytest.mark.parametrize("flow", [math.nan, math.inf, -1e-9])
@pytest.mark.parametrize("grad", [False, True])
def test_bad_boundary_flow_is_an_engine_error(monkeypatch, flow, grad):
    # the first node-model call is orig1's at step 0, into link 1
    give_first_outlink(monkeypatch, flow)
    scn = merge_scenario()
    with pytest.raises(EngineError) as err:
        run(scn, register_parameters(scn, "q1"), grad=grad)
    assert str(err.value) == (f"link 1 at step 0: boundary flows in {flow!r} "
                              "and out 0.0 must be finite and >= 0")


def test_negative_routing_weight_is_an_error():
    # a toll far below minus the travel time makes a link weight negative,
    # which the shortest-path search does not accept
    scn = toll_grid_scenario()
    ps = register_parameters(scn, "toll:*")
    values = [-1000.0] + [0.0] * (len(ps) - 1)
    with pytest.raises(EngineError, match="negative routing weight"):
        run(scn, ps, values=values, grad=False)


@pytest.mark.parametrize("grad", [False, True])
@pytest.mark.parametrize("period, step", [(0, 0), (1, 10)])
def test_negative_routing_weight_names_the_link_and_the_step(grad, period,
                                                             step):
    # toll periods are 10 steps long; the first refresh of period 1 is at
    # step 10, and its weight is the free-flow 50 s plus the toll
    scn = toll_grid_scenario()
    ps = register_parameters(scn, f"toll:f0a:{period}")
    with pytest.raises(EngineError) as err:
        run(scn, ps, values=[-1e6], grad=grad)
    assert str(err.value) == (f"routing at step {step}: link f0a: negative "
                              "routing weight -999950.0")


# ----------------------------------------------------------------------
# conservation on random scenarios


def random_scenario(rng):
    """Random feed-forward layered network, <= 12 links, <= 4 destinations."""
    n_mid = rng.randint(1, 3)
    n_dest = rng.randint(1, 4)
    n_orig = rng.randint(1, 3)
    nodes = [{"id": f"o{i}", "kind": "origin"} for i in range(n_orig)]
    nodes += [{"id": f"m{i}", "kind": "intermediate"} for i in range(n_mid)]
    nodes += [{"id": f"d{i}", "kind": "destination"} for i in range(n_dest)]
    links = []
    lid = 0

    def add_link(a, b):
        nonlocal lid
        links.append({
            "id": f"e{lid}", "from": a, "to": b,
            "d": rng.choice([500.0, 1000.0, 1500.0]),
            "u": rng.choice([10.0, 20.0]),
            "qmax": rng.uniform(0.2, 0.7),
            "kappa": 0.2,
            "alpha": rng.uniform(0.5, 2.0),
        })
        lid += 1

    for i in range(n_orig):
        add_link(f"o{i}", f"m{i % n_mid}")
    for i in range(n_mid):
        for j in range(n_dest):
            if len(links) < 12 and (rng.random() < 0.7 or j == 0):
                add_link(f"m{i}", f"d{j}")
    for i in range(1, n_mid):
        if len(links) < 12 and rng.random() < 0.4:
            add_link(f"m{i - 1}", f"m{i}")

    demands = []
    doc = {
        "meta": {"dt": 5.0, "T_max": 600.0, "dt_route": 25.0,
                 "dt_toll": 600.0, "mu": rng.choice([0.0, 0.1])},
        "nodes": nodes,
        "links": links,
        "demands": demands,
    }
    scn_nodes = {n["id"]: n["kind"] for n in nodes}
    for i in range(n_orig):
        for j in range(n_dest):
            if rng.random() < 0.6:
                demands.append({
                    "origin": f"o{i}", "destination": f"d{j}",
                    "profile": [[0.0, rng.choice([200.0, 400.0]),
                                 rng.uniform(0.05, 0.5)]],
                })
    if not demands:
        demands.append({
            "origin": "o0", "destination": "d0",
            "profile": [[0.0, 200.0, 0.2]],
        })
    try:
        return Scenario.from_dict(doc)
    except Exception:
        return None


def test_conservation_on_50_random_scenarios():
    rng = random.Random(1234)
    built = 0
    while built < 50:
        scn = random_scenario(rng)
        if scn is None:
            continue
        res = run(scn, grad=False)
        assert res.conservation_error <= 1e-6, scn.to_dict()
        built += 1


def leak_in_the_last_step(monkeypatch, scn, lid):
    """Make link `lid` send 1 veh/s more than the node model gave it in the
    last step.  The leak is added where `LinkDyn.update_boundaries` takes
    the flows: a taped run's per link, a float run's for its whole layer."""
    T = scn.config.n_steps
    number = [lp.id for lp in scn.links].index(lid)
    update = LinkDyn.update_boundaries

    def leaky(link, tape, dt, f_in, f_out):
        if isinstance(link, LinkLayer):
            if link.last == T - 1:
                f_out = list(f_out)
                f_out[number] += 1.0
        elif link.id == lid and len(link.ND) == T:
            f_out = tape.add(f_out, 1.0)
        update(link, tape, dt, f_in, f_out)

    monkeypatch.setattr(LinkDyn, "update_boundaries", leaky)


@pytest.mark.parametrize("grad", [False, True])
def test_conservation_error_checks_the_state_after_the_last_step(
        monkeypatch, grad):
    # link 1 sends 1 veh/s more than link 3 receives in the last step: the
    # 5 lost vehicles (dt = 5 s) show only in the state after that step,
    # and no boundary flow check fires, the flow being positive
    scn = merge_scenario()
    leak_in_the_last_step(monkeypatch, scn, "1")
    res = run(scn, register_parameters(scn, "q1"), grad=grad)
    assert res.conservation_error >= 5.0


@pytest.mark.parametrize("grad", [False, True])
def test_conservation_error_sees_a_sink_link_that_delivers_more_than_it_received(
        monkeypatch, grad):
    # link 3, whose head is the destination, sends 1 veh/s more in the last
    # step: its `ND` is both its outflow and the absorbed count, so the
    # balance holds, but 5 vehicles (dt = 5 s) end below zero on the link
    scn = merge_scenario()
    leak_in_the_last_step(monkeypatch, scn, "3")
    res = run(scn, register_parameters(scn, "q1"), grad=grad)
    assert res.conservation_error >= 5.0


def parents(tape, i):
    """The parent indices of tape entry i."""
    if tape._p1[i] == -2:  # an entry with more than two parents
        return tape._np[tape._p2[i]]
    return [j for j in (tape._p1[i], tape._p2[i]) if j >= 0]


@pytest.mark.parametrize("make, tokens", [
    (merge_scenario, "q1,q2,u1,u2,u3,alpha1"),
    (toll_grid_scenario, "toll:*"),
], ids=["merge", "toll grid"])
def test_the_scan_records_no_travel_time_term(make, tokens):
    # the travel time is a reduction over the state after the scan: each
    # link's term and the queue term is one entry, recorded after every
    # curve entry, that reads only curve entries (queue entries for the
    # queue term), together more than n_steps of them
    scn = make()
    res = Simulator(scn, params=register_parameters(scn, tokens)).run()
    tape = res.tape
    curve = {x.idx for lk in res.links.values() for x in lk.NU + lk.ND
             if type(x) is Var}
    queue = {x.idx for per_dest in res.queues.values()
             for h in per_dest.values() for x in h if type(x) is Var}
    read = 0
    for v in res.ttt_link.values():
        if type(v) is Var:
            assert v.idx > max(curve)
            assert set(parents(tape, v.idx)) <= curve
            read += len(parents(tape, v.idx))
    assert read > scn.config.n_steps
    if type(res.ttt_queue) is Var:
        assert res.ttt_queue.idx > max(curve)
        assert set(parents(tape, res.ttt_queue.idx)) <= queue
        assert len(parents(tape, res.ttt_queue.idx)) > scn.config.n_steps


def test_origin_state_lists_only_demanded_od_pairs():
    # three origins and three destinations, but o0 sends only to d0 and d1,
    # o1 to d0 and d2, and o2 to d1
    scn = random_scenario(random.Random(30))
    res = run(scn, grad=False)
    wanted = {}
    for dm in scn.demands:
        wanted.setdefault(dm.origin, set()).add(dm.destination)
    assert len(scn.destinations) == 3 and len(wanted["o2"]) == 1
    T = scn.config.n_steps
    for per_origin, length in ((res.queues, T), (res.inj, T + 1)):
        assert set(per_origin) == set(wanted)
        for o, per_dest in per_origin.items():
            assert list(per_dest) == [s for s in scn.destinations
                                      if s in wanted[o]]
            assert all(len(c) == length for c in per_dest.values())


def last_step(sim, plan, supply):
    """One step of `plan`, after every demand has ended, at link supplies
    `supply` (link id -> veh/s, 1.0 for the others); returns the links'
    inflows, by link number, and the sparse map of per-destination inflows
    (link number -> dest -> veh/s) of the links that booked any."""
    L = len(sim.links)
    S = [supply.get(lk.id, 1.0) for lk in sim.links]
    f_in, f_out, f_in_s = [0.0] * L, [0.0] * L, {}
    sim._node_step(plan, sim.scn.config.n_steps - 1, sim.scn.config.dt,
                   [0.0] * L, S, f_in, f_out, f_in_s)
    return f_in, f_in_s


def empty_queue_step(scn, origin, supply, row=None):
    """One origin step, after every demand has ended, of `origin` whose
    queue is a fresh exactly-empty `Var` q, with outlink supplies `supply`
    (link id -> veh/s, 1.0 for the others) and, if given, the turning row
    `row` toward the destination.

    Returns q, the queue after the step, the outlink inflows by link id and
    the injection curve.
    """
    ps = register_parameters(scn, f"u{scn.links[0].id}")  # a taped run
    sim = Simulator(scn, params=ps)
    sim._refresh_routing(0)
    plan = next(p for p in sim._plans if p.node == origin)
    (s,) = plan.dests
    if row is not None:
        plan.set_row(s, plan.hops[s], row)
    q = sim.queue[origin][s] = sim.tape.input(0.0)
    f_in, _ = last_step(sim, plan, supply)
    flows = {sim.links[o].id: f_in[o] for o in plan.outs}
    return q, sim.queue[origin][s], flows, sim.inj[origin][s]


def test_an_exactly_empty_queue_leaves_with_its_sensitivity():
    # the queue is an inflow of its own: its outlink gains q/dt, and the
    # queue it leaves behind no longer reads q
    scn = merge_scenario()
    dt = scn.config.dt
    q, after, flows, inj = empty_queue_step(scn, "orig1", {})
    tape = q.tape
    assert after is not q and value(after) == 0.0
    assert tape.grad(after, [q]) == [0.0]
    assert type(flows["1"]) is Var and value(flows["1"]) == 0.0
    assert tape.grad(flows["1"], [q]) == [1.0 / dt]
    assert tape.grad(inj[-1], [q]) == [1.0]


def test_an_exactly_empty_queue_is_blocked_by_a_spent_outlink():
    # an outlink it feeds with at most ACTIVE_EPS of supply blocks it: the
    # queue keeps its very Var, nothing is sent, and nothing is injected
    q, after, flows, inj = empty_queue_step(merge_scenario(), "orig1",
                                            {"1": ACTIVE_EPS})
    assert after is q
    assert flows == {"1": 0.0} and type(flows["1"]) is float
    assert all(type(x) is float and x == 0.0 for x in inj)


def test_an_empty_queue_does_not_feed_a_fraction_of_at_most_b_eps():
    # a turning fraction of B_EPS is no connection: the queue is served
    # over the other outlink, although the tiny one has no supply
    q, after, flows, _ = empty_queue_step(
        two_route_scenario(), "orig", {"sa": 0.0}, row=[1.0 - B_EPS, B_EPS])
    assert after is not q and q.tape.grad(after, [q]) == [0.0]
    assert type(flows["fa"]) is Var
    assert flows["sa"] == 0.0 and type(flows["sa"]) is float


def second_origin(grad):
    """A simulator of the two-destination network with a second origin o2,
    whose outlinks g1 and g2 both keep per-destination counts, taped or
    not as `grad` says, after its first routing refresh; and o2's plan.
    """
    # imported here: tools/fingerprint.py loads this module without tests/
    # on the path
    from test_parity import _lk, two_destination_scenario

    doc = two_destination_scenario().to_dict()
    doc["nodes"].append({"id": "o2", "kind": "origin"})
    doc["links"] += [_lk("g1", "o2", "m", 600.0), _lk("g2", "o2", "n", 700.0)]
    doc["demands"] += [{"origin": "o2", "destination": s,
                        "profile": [[0.0, 400.0, 0.2]]} for s in ("d1", "d2")]
    scn = Scenario.from_dict(doc)
    sim = Simulator(scn, params=register_parameters(scn, "q3"), grad=grad)
    sim._refresh_routing(0)
    plan = next(p for p in sim._plans if p.node == "o2")
    assert plan.keeps == [True, True]
    return sim, plan


@pytest.mark.parametrize("grad", [False, True])
def test_per_destination_inflows_follow_the_fed_outlinks(grad):
    # o2 sends its 3-vehicle queue toward d1 over the row [1 - B_EPS,
    # B_EPS]: the node model does not feed g2, so neither does the
    # per-destination split, and each outlink's per-destination inflows
    # sum to its inflow
    sim, plan = second_origin(grad)
    plan.set_row("d1", plan.hops["d1"], [1.0 - B_EPS, B_EPS])
    sim.queue["o2"] = {"d1": 3.0, "d2": 0.0}
    f_in, f_in_s = last_step(sim, plan, {})
    for o in plan.outs:
        assert sum(map(value, f_in_s.get(o, {}).values())) == value(f_in[o])
    g1, g2 = plan.outs
    assert value(f_in[g1]) > 0.0 and g2 not in f_in_s


def test_an_origin_serves_its_empty_queue_then_its_positive_ones():
    # o2's queue toward d1 is an exactly-empty Var q and its queue toward
    # d2 holds 3 vehicles: q leaves first, as an inflow of its own that
    # takes its sensitivity along, and the positive queue then leaves as
    # one inflow of the plain share {d2: 1.0}; every queue history and
    # injection curve of o2 gains exactly one entry
    sim, plan = second_origin(grad=True)
    q = sim.tape.input(0.0)
    sim.queue["o2"] = {"d1": q, "d2": 3.0}
    hist, inj = sim.queue_hist["o2"], sim.inj["o2"]
    lengths = {s: (len(hist[s]), len(inj[s])) for s in ("d1", "d2")}
    comps, transfer = [], sim._transfer

    def spy(plan, D, cs, *rest):
        comps.append(cs)
        return transfer(plan, D, cs, *rest)

    sim._transfer = spy
    last_step(sim, plan, {})
    assert comps == [[{"d1": 1.0}], [{"d2": 1.0}]]
    assert type(comps[1][0]["d2"]) is float
    after = sim.queue["o2"]["d1"]
    assert after is not q and sim.tape.grad(after, [q]) == [0.0]
    assert {s: (len(hist[s]), len(inj[s])) for s in lengths} == {
        s: (h + 1, i + 1) for s, (h, i) in lengths.items()}


# ----------------------------------------------------------------------
# curve inversion and trip tracing


def test_inverse_cumcount_linear_segment():
    tape = Tape()
    assert value(inverse_cumcount(tape, [0.0, 2.0, 4.0], 3.0)) == \
        pytest.approx(1.5)


def test_inverse_cumcount_flat_segment_left_edge():
    tape = Tape()
    # N = 2.0 is reached at index 1 and held through 3: earliest index wins
    out = inverse_cumcount(tape, [0.0, 2.0, 2.0, 2.0, 5.0], 2.0)
    assert value(out) == pytest.approx(1.0)


def test_inverse_cumcount_final_value_within_tolerance():
    tape = Tape()
    # a round-off above the final value is reached where the curve first
    # attains it, not at the end of the curve
    out = inverse_cumcount(tape, [0.0, 1.0, 2.0, 2.0, 2.0], 2.0 + 5e-10)
    assert value(out) == pytest.approx(2.0)


def test_inverse_cumcount_beyond_curve_raises():
    tape = Tape()
    with pytest.raises(TripIncompleteError):
        inverse_cumcount(tape, [0.0, 1.0], 5.0)


def test_trace_trip_free_flow():
    res = run(merge_scenario(), grad=False)
    tr = res.trace_trip(100.0, "orig1", "dest")
    assert tr.links == ["1", "3"]
    assert value(tr.exit_times[0]) == pytest.approx(150.0)
    assert value(tr.exit_times[1]) == pytest.approx(200.0)
    assert value(tr.travel_time) == pytest.approx(100.0)


def test_trace_trip_skips_outlinks_that_cannot_reach_the_destination(
        monkeypatch):
    # toward d1, the trace never times a vehicle over b2 or e2, whose heads
    # reach only d2
    from test_parity import two_destination_scenario

    res = run(two_destination_scenario(), grad=False)
    timed = []
    exit_time = diffnet.engine.vehicle_exit_time

    def timing(tape, link, t_enter, dt):
        timed.append(link.id)
        return exit_time(tape, link, t_enter, dt)

    monkeypatch.setattr(diffnet.engine, "vehicle_exit_time", timing)
    tr = res.trace_trip(100.0, "orig", "d1")
    assert tr.links == ["a", "b1"]
    assert set(timed) == {"a", "b1", "c", "e1"}


def one_od_scenario(links, rate):
    """Origin `o` to destination `d` over `links`, deterministic routing,
    with demand `rate` (veh/s) for the first 300 s of 1000."""
    from test_parity import _lk

    nodes = sorted({x for tail, head, *_ in links for x in (tail, head)})
    kinds = {"o": "origin", "d": "destination"}
    return Scenario.from_dict({
        "meta": {"dt": 5.0, "T_max": 1000.0, "dt_route": 25.0,
                 "dt_toll": 1000.0, "mu": 0.0},
        "nodes": [{"id": n, "kind": kinds.get(n, "intermediate")}
                  for n in nodes],
        "links": [_lk(tail + head, tail, head, *rest)
                  for tail, head, *rest in links],
        "demands": [{"origin": "o", "destination": "d",
                     "profile": [[0.0, 300.0, rate]]}],
    })


def test_trace_trip_takes_an_earlier_arrival_and_skips_the_stale_label(
        monkeypatch):
    # node a is reached first over the slow link oa (exit 300 s), then at
    # 120 s over ob and ba; ad takes 200 s, more than the 180 s between
    # the two labels, so the stale label of a pops before d
    res = run(one_od_scenario([("o", "a", 4000.0), ("o", "b", 200.0),
                               ("b", "a", 200.0), ("a", "d", 4000.0)],
                              rate=0.2), grad=False)
    timed = []
    exit_time = diffnet.engine.vehicle_exit_time

    def timing(tape, link, t_enter, dt):
        timed.append(link.id)
        return exit_time(tape, link, t_enter, dt)

    monkeypatch.setattr(diffnet.engine, "vehicle_exit_time", timing)
    tr = res.trace_trip(100.0, "o", "d")
    assert tr.links == ["ob", "ba", "ad"]
    assert [value(t) for t in tr.exit_times] == pytest.approx(
        [110.0, 120.0, 320.0])
    # a is expanded once: its stale label is skipped, not expanded again
    assert sorted(timed) == ["ad", "ba", "oa", "ob"]


def test_trace_trip_avoids_a_link_whose_queue_does_not_clear():
    # the exit link pd of route op-pd passes 0.01 veh/s, so the queue it
    # holds back on op is still there at T_max: a vehicle entering op at
    # 50 s never leaves it, and the trip takes the direct link od
    res = run(one_od_scenario([("o", "p", 400.0), ("p", "d", 200.0, 20.0,
                                                   0.01),
                               ("o", "d", 1200.0)], rate=0.3), grad=False)
    tr = res.trace_trip(50.0, "o", "d")
    assert tr.links == ["od"]
    assert value(tr.travel_time) == pytest.approx(60.0)
    with pytest.raises(TripIncompleteError, match="does not clear link op"):
        diffnet.engine.vehicle_exit_time(res.tape, res.links["op"], 50.0,
                                         res.config.dt)


@pytest.mark.parametrize("spec", ["x:orig:d1", ":orig:d1", "1e3s:orig:d1"])
def test_a_trip_spec_with_a_departure_time_that_is_not_a_number_is_rejected(
        spec):
    with pytest.raises(ScenarioError) as err:
        parse_trip(spec)
    assert str(err.value) == (f"malformed trip spec {spec!r}: expected "
                              "T0:ORIGIN:DEST")


def test_trace_trip_congested():
    res = run(merge_scenario(), grad=False)
    tr = res.trace_trip(500.0, "orig1", "dest")
    # departure mid-congestion: free flow to the merge queue, then delay
    assert value(tr.travel_time) == pytest.approx(112.5, abs=1e-6)
    tr2 = res.trace_trip(500.0, "orig2", "dest")
    assert value(tr2.travel_time) == pytest.approx(150.0, abs=1e-6)


def test_trace_trip_fifo_monotone_departures():
    res = run(merge_scenario(), grad=False)
    prev = None
    for t0 in range(0, 1000, 10):
        arr = value(res.trace_trip(float(t0), "orig1", "dest").exit_times[-1])
        if prev is not None:
            assert arr >= prev - 1e-9
        prev = arr


def free_flow_time(scn, links):
    return sum(scn.link(lid).d / scn.link(lid).u for lid in links)


@pytest.mark.parametrize("scn, t0, origin", [
    (bottleneck_scenario(), 1500.0, "orig"),  # after the demand window
    (merge_scenario(), 300.0, "orig2"),  # before the demand window
    (merge_scenario(), 100.0, "orig2"),
])
def test_trip_outside_demand_window_takes_free_flow_time(scn, t0, origin):
    res = run(scn, grad=False)
    tr = res.trace_trip(t0, origin, "dest")
    assert value(tr.travel_time) == pytest.approx(
        free_flow_time(scn, tr.links), abs=1e-9)
    assert value(tr.exit_times[0]) > t0


def test_trip_outside_demand_window_sensitivity_matches_fd():
    scn = bottleneck_scenario()
    ps = register_parameters(scn, "q1,ufeed")
    sim = Simulator(scn, params=ps)
    res = sim.run()
    tt = res.trace_trip(1500.0, "orig", "dest").travel_time
    ad = res.tape.grad(tt, [sim.param_vars[n] for n in ps.names])
    eps = 1e-3
    for i, base in enumerate(ps.base_values):
        vals = []
        for v in (base + eps, base - eps):
            x = list(ps.base_values)
            x[i] = v
            r = Simulator(scn, params=ps, values=x, grad=False).run()
            vals.append(value(r.trace_trip(1500.0, "orig", "dest").travel_time))
        fd = (vals[0] - vals[1]) / (2 * eps)
        assert ad[i] == pytest.approx(fd, rel=1e-4, abs=1e-6)
    # only the free-flow time of the feeder link moves: d / u^2 per m/s
    assert ad == pytest.approx([0.0, -2000.0 / 20.0 ** 2])


def test_w_parameter_gradient_matches_central_fd():
    # registering w on the bottleneck link fb switches it to the (u, w,
    # kappa) parameterization: qmax is derived, and the run is unchanged
    scn = two_route_scenario()
    ps = register_parameters(scn, "wfb")
    base = scn.link("fb").w
    assert ps.base_values == [base]
    sim = Simulator(scn, params=ps)
    res = sim.run()
    J = objective_ttt(res)
    assert value(J) == pytest.approx(
        value(objective_ttt(run(scn, grad=False))), rel=1e-12)
    assert value(res.links["fb"].qmax) == pytest.approx(scn.link("fb").qmax,
                                                        rel=1e-12)
    (ad,) = res.tape.grad(J, [sim.param_vars["wfb"]])
    eps = 1e-4
    hi, lo = (value(objective_ttt(run(scn, ps, values=[base + e], grad=False)))
              for e in (eps, -eps))
    assert ad == pytest.approx((hi - lo) / (2 * eps), rel=1e-6)
    assert ad < 0.0  # a faster backward wave means more bottleneck capacity


@pytest.mark.parametrize("scn, origin", [
    (bottleneck_scenario(), "orig"),
    (merge_scenario(), "orig1"),
])
def test_trip_ending_past_the_horizon_raises(scn, origin):
    # leaves the origin before T_max = 2000 s but needs >= 100 s of links
    res = run(scn, grad=False)
    with pytest.raises(TripIncompleteError):
        res.trace_trip(1990.0, origin, "dest")


@pytest.mark.parametrize("t0", [math.nan, math.inf, -math.inf, -100.0,
                                -1e-9])
@pytest.mark.parametrize("grad", [True, False])
def test_departure_time_must_be_finite_and_nonnegative(t0, grad):
    scn = merge_scenario()
    ps = register_parameters(scn, "q1") if grad else None
    res = Simulator(scn, params=ps).run()
    with pytest.raises(ScenarioError,
                       match=f"trip departure time {t0!r} must be finite"):
        res.trace_trip(t0, "orig1", "dest")
    trip = res.trace_trip(0.0, "orig1", "dest")
    assert value(trip.exit_times[0]) >= 0.0


def test_trace_trip_bad_origin_raises():
    res = run(merge_scenario(), grad=False)
    with pytest.raises(Exception):
        res.trace_trip(100.0, "merge", "dest")


# ----------------------------------------------------------------------
# bottleneck queueing delay (analytic)


def test_bottleneck_queue_growth_and_drain():
    scn = bottleneck_scenario(rate=0.6)
    res = run(scn, grad=False)
    feed = res.links["feed"]
    # 0.6 * 500 = 300 vehicles enter; the 0.3 veh/s bottleneck passes them
    # starting after the 100 s free-flow lead, finishing at 100 + 1000 s
    assert value(feed.NU[-1]) == pytest.approx(300.0, abs=1e-9)
    # queue peaks when demand ends (t=500): entered minus served
    n_peak = value(feed.NU[100]) - value(feed.ND[100])
    assert n_peak == pytest.approx(300.0 - 0.3 * 400.0, abs=1e-9)
    # clears exactly when the last vehicle passes the junction
    assert value(feed.ND[220]) == pytest.approx(300.0, abs=1e-9)


def test_objective_ttt_link_subset():
    res = run(merge_scenario(), grad=False)
    total = value(objective_ttt(res))
    parts = sum(
        value(objective_ttt(res, links=[lid])) for lid in res.links
    )
    queue_part = total - parts
    assert queue_part >= 0.0
    # origin-2 spillback queue: grows 0.2 veh/s on [900, 1000], drains
    # 0.4 veh/s on [1000, 1050] -> triangle area 20*100/2 + 20*50/2 = 1500
    assert queue_part == pytest.approx(1500.0, rel=0.05)


# ----------------------------------------------------------------------
# segment travel times


def test_segment_travel_time_ttt_and_toll_gradient_pinned():
    base = toll_grid_scenario()
    scn = dataclasses.replace(base, config=dataclasses.replace(
        base.config, M=3, tt_method="segments"))
    tokens = "toll:f0a:0,toll:f0a:1,toll:f4a:0,toll:f4a:1"
    ps = register_parameters(scn, tokens)
    x = [10.0, 5.0, 12.0, 3.0]
    sim = Simulator(scn, params=ps, values=x)
    res = sim.run()
    ttt = objective_ttt(res)
    ad = res.tape.grad(ttt, [sim.param_vars[n] for n in ps.names])
    assert value(ttt) == pytest.approx(87611.2321598, rel=1e-9)
    assert ad[0] == pytest.approx(-11.5903498159, rel=1e-9)

    def ttt_at(v0):
        r = run(scn, ps, values=[v0] + x[1:], grad=False)
        return value(objective_ttt(r))

    eps = 1e-3
    fd = (ttt_at(x[0] + eps) - ttt_at(x[0] - eps)) / (2 * eps)
    assert ad[0] == pytest.approx(fd, rel=1e-8)
    # the average-density method gives another answer on the same tolls
    avg = run(base, register_parameters(base, tokens), values=x, grad=False)
    assert value(objective_ttt(avg)) == pytest.approx(89054.9775596, rel=1e-9)


# ----------------------------------------------------------------------
# tolls


def test_toll_table_resolves_schedules_and_registered_tolls():
    doc = toll_grid_scenario(n_fast=2, n_slow=2).to_dict()  # 10 toll periods
    # f0a's schedule is shorter than the horizon, s1a's longer; f1b has none
    doc["tolls"] = [{"link": "s1a", "values": [5.0] * 14},
                    {"link": "f0a", "values": [30.0, 0.0, 25.0]}]
    scn = Scenario.from_dict(doc)
    ps = register_parameters(scn, "toll:f0a:2,toll:f1b:1")
    sim = Simulator(scn, params=ps, values=[7.0, 50.0])
    res = sim.run()
    expect = ([30.0, 0.0, 7.0] + [0.0] * 7  # f0a: padded, 25.0 overridden
              + [0.0, 50.0] + [0.0] * 8  # f1b: the registered toll only
              + [5.0] * 10)  # s1a: cut to the horizon
    tolls = sim.all_toll_values()
    assert [value(v) for v in tolls] == expect
    assert tolls[2] is sim.param_vars["toll:f0a:2"]
    assert tolls[11] is sim.param_vars["toll:f1b:1"]
    lam = 1e-3
    J = build_objective("toll-J", lam)(res)
    assert value(J) - value(objective_ttt(res)) == pytest.approx(
        lam * sum(v * v for v in expect), rel=1e-9)


def test_scheduled_toll_moves_flow_only_within_its_period():
    base = two_route_scenario()  # deterministic routing, fast route only
    doc = base.to_dict()
    doc["meta"]["dt_toll"] = 500.0  # 4 periods of 100 steps
    doc["tolls"] = [{"link": "fa", "values": [0.0, 1000.0]}]
    tolled = Scenario.from_dict(doc)
    r0 = run(base, grad=False)
    r1 = run(tolled, grad=False)

    def inflow(res, lid, t):
        return value(res.links[lid].NU[t + 1]) - value(res.links[lid].NU[t])

    for lid in r0.links:  # period 0: the same run
        assert [value(x) for x in r1.links[lid].NU[:101]] == \
            [value(x) for x in r0.links[lid].NU[:101]]
    for t in range(100, 200):  # period 1: every vehicle takes the slow route
        assert inflow(r1, "fa", t) == 0.0 and inflow(r1, "sa", t) > 0.0
        assert inflow(r0, "sa", t) == 0.0
    for t in range(200, 220):  # period 2, demand still on: back to fast
        assert inflow(r1, "fa", t) > 0.0 and inflow(r1, "sa", t) == 0.0


def test_demand_interval_and_toll_period_follow_the_step_index():
    # dt = 0.7 s: step t starts at t * 0.7 s, which rounds below the
    # interval edge 2.1 s at t = 3 (2.0999999999999996), and below every
    # toll period edge; each lookup goes by whole steps instead
    def lk(lid, tail, head):
        return {"id": lid, "from": tail, "to": head, "d": 100.0, "u": 20.0,
                "qmax": 1.0, "kappa": 0.2, "alpha": 1.0}

    scn = Scenario.from_dict({
        "meta": {"dt": 0.7, "T_max": 21.0, "dt_route": 0.7, "dt_toll": 2.1,
                 "mu": 0.0},
        "nodes": [{"id": "orig", "kind": "origin"},
                  {"id": "m", "kind": "intermediate"},
                  {"id": "dest", "kind": "destination"}],
        "links": [lk("a", "orig", "m"), lk("b1", "m", "dest"),
                  lk("b2", "m", "dest")],
        "demands": [{"origin": "orig", "destination": "dest",
                     "profile": [[0.0, 2.1, 0.1], [2.1, 10.5, 0.3]]}],
        # b1, the tie winner, is tolled off in odd periods
        "tolls": [{"link": "b1", "values": [0.0, 100.0] * 5}],
    })
    assert 3 * 0.7 // 2.1 == 0.0  # the float lookup's wrong period
    sim = Simulator(scn)
    res = sim.run()
    assert [sim.demand_rate(0, t) for t in range(30)] == (
        [0.1] * 3 + [0.3] * 12 + [0.0] * 15)
    assert [sim._tolls[t // sim._toll_steps][1] for t in range(30)] == (
        [0.0] * 3 + [100.0] * 3) * 5
    assert res.conservation_error <= 1e-9

    def inflow(lid, t):
        return value(res.links[lid].NU[t + 1]) - value(res.links[lid].NU[t])

    routed = 0
    for t in range(30):
        if inflow("b1", t) + inflow("b2", t) > 0.0:
            routed += 1
            free = t // 3 % 2 == 0
            assert (inflow("b1", t) > 0.0) == free
            assert (inflow("b2", t) > 0.0) == (not free)
    assert routed >= 15


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1(b): as the queue clears, the one-inflow node's supply "
    "quotient `S / B` ties its demand `D`; inm_fixed's FIFO diverge lets "
    "the supply win (`S / B <= D`), so the supply takes the adjoint, which "
    "is not the constraint active just after the queue clears"))
@pytest.mark.parametrize("rate", [0.6, 0.45])
def test_bottleneck_capacity_gradient_lies_in_the_one_sided_fd_bracket(rate):
    scn = bottleneck_scenario(rate=rate)
    ps = register_parameters(scn, "qmaxexit")
    sim = Simulator(scn, params=ps)
    res = sim.run()
    J = objective_ttt(res)
    ad = res.tape.grad(J, [sim.param_vars["qmaxexit"]])[0]

    def ttt(v):
        return value(objective_ttt(run(scn, ps, values=[v], grad=False)))

    base, eps = ps.base_values[0], 1e-5
    right = (ttt(base + eps) - ttt(base)) / eps
    left = (ttt(base) - ttt(base - eps)) / eps
    slack = 1e-6 * max(abs(left), abs(right))
    assert min(left, right) - slack <= ad <= max(left, right) + slack


def diverge_scenario():
    """Link a (4,000 m at 20 m/s: 200 s) diverges at m to d1 over b1 and to
    d2 over b2; 0.3 veh/s go to d1 on [0, 100) s, then to d2 on
    [100, 400) s, so the destination mix at a's head changes at 300 s."""
    def lk(lid, tail, head, d):
        return {"id": lid, "from": tail, "to": head, "d": d, "u": 20.0,
                "qmax": 0.6, "kappa": 0.2, "alpha": 1.0}

    return Scenario.from_dict({
        "meta": {"dt": 5.0, "T_max": 1500.0, "dt_route": 25.0,
                 "dt_toll": 1500.0, "mu": 0.0},
        "nodes": [{"id": "orig", "kind": "origin"},
                  {"id": "m", "kind": "intermediate"},
                  {"id": "d1", "kind": "destination"},
                  {"id": "d2", "kind": "destination"}],
        "links": [lk("a", "orig", "m", 4000.0), lk("b1", "m", "d1", 1000.0),
                  lk("b2", "m", "d2", 1000.0)],
        "demands": [{"origin": "orig", "destination": "d1",
                     "profile": [[0.0, 100.0, 0.3]]},
                    {"origin": "orig", "destination": "d2",
                     "profile": [[100.0, 400.0, 0.3]]}],
    })


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 15: `composition` splits a link's outflow by the mix of "
    "every vehicle that has entered it since t = 0, not by the mix at its "
    "head, so d1 absorbs 35.98 vehicles of 30 and d2's first vehicles "
    "enter b2 at 205 s"))
def test_each_destination_absorbs_its_demand_in_fifo_order():
    res = run(diverge_scenario(), grad=False)
    # the aggregate check cannot see a misdelivery
    assert res.conservation_error <= 1e-9
    # no vehicle for d2 leaves a before 100 s + 200 s
    assert res.links["b2"].NU[300 // 5] == 0.0
    # within one step's inflow of each destination's demand
    for s, demanded in (("d1", 30.0), ("d2", 90.0)):
        assert abs(res.absorbed[s] - demanded) <= 0.3 * 5.0, s
