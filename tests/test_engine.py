"""End-to-end simulation engine: conservation, fixtures, trip tracing."""

import random

import pytest

from diffnet.adcore import Tape, value
from diffnet.engine import (
    Simulator,
    TripIncompleteError,
    inverse_cumcount,
    objective_ttt,
    run,
)
from diffnet.presets import bottleneck_scenario, merge_scenario
from diffnet.scenario import Scenario, register_parameters


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
    assert value(lk1.vehicles(res.tape, 80)) == pytest.approx(0.45 * 50.0)
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


@pytest.mark.parametrize("scn, origin", [
    (bottleneck_scenario(), "orig"),
    (merge_scenario(), "orig1"),
])
def test_trip_ending_past_the_horizon_raises(scn, origin):
    # leaves the origin before T_max = 2000 s but needs >= 100 s of links
    res = run(scn, grad=False)
    with pytest.raises(TripIncompleteError):
        res.trace_trip(1990.0, origin, "dest")


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
    n_peak = value(feed.vehicles(res.tape, 100))
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
