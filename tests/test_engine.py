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
    run,
)
from diffnet.ltm import LinkDyn
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


@pytest.mark.parametrize("grad", [False, True])
def test_conservation_error_checks_the_state_after_the_last_step(
        monkeypatch, grad):
    # link 1 sends 1 veh/s more than link 3 receives in the last step: the
    # 5 lost vehicles (dt = 5 s) show only in the state after that step,
    # and no boundary flow check fires, the flow being positive
    scn = merge_scenario()
    T = scn.config.n_steps
    update = LinkDyn.update_boundaries

    def leaky(link, tape, dt, f_in, f_out, f_in_s):
        if link.id == "1" and len(link.ND) == T:
            f_out = tape.add(f_out, 1.0)
        update(link, tape, dt, f_in, f_out, f_in_s)

    monkeypatch.setattr(LinkDyn, "update_boundaries", leaky)
    res = run(scn, register_parameters(scn, "q1"), grad=grad)
    assert res.conservation_error >= 5.0


@pytest.mark.parametrize("grad", [False, True])
def test_conservation_error_sees_a_sink_link_that_delivers_more_than_it_received(
        monkeypatch, grad):
    # link 3, whose head is the destination, sends 1 veh/s more in the last
    # step: its `ND` is both its outflow and the absorbed count, so the
    # balance holds, but 5 vehicles (dt = 5 s) end below zero on the link
    scn = merge_scenario()
    T = scn.config.n_steps
    update = LinkDyn.update_boundaries

    def leaky(link, tape, dt, f_in, f_out, f_in_s):
        if link.id == "3" and len(link.ND) == T:
            f_out = tape.add(f_out, 1.0)
        update(link, tape, dt, f_in, f_out, f_in_s)

    monkeypatch.setattr(LinkDyn, "update_boundaries", leaky)
    res = run(scn, register_parameters(scn, "q1"), grad=grad)
    assert res.conservation_error >= 5.0


def accumulation(tape, v):
    """The entries of the `madd` accumulation that ends at `v`."""
    chain = []
    i = v.idx
    while i >= 0:
        chain.append(i)
        i = tape._p1[i]
    return chain


@pytest.mark.parametrize("make, tokens", [
    (merge_scenario, "q1,q2,u1,u2,u3,alpha1"),
    (toll_grid_scenario, "toll:*"),
], ids=["merge", "toll grid"])
def test_the_scan_records_no_travel_time_term(make, tokens):
    # the travel time is a reduction over the curves after the scan: every
    # entry of each link's and of the queue accumulation is recorded after
    # every curve entry
    scn = make()
    res = Simulator(scn, params=register_parameters(scn, tokens)).run()
    last = max(x.idx for lk in res.links.values() for x in lk.NU + lk.ND
               if type(x) is Var)
    entries = [i for v in [*res.ttt_link.values(), res.ttt_queue]
               if type(v) is Var for i in accumulation(res.tape, v)]
    assert len(entries) > scn.config.n_steps
    assert min(entries) > last


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
    assert [sim.toll_value(1, t) for t in range(30)] == (
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
