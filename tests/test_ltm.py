"""Link dynamics: curve interpolation, demand/supply, Newell counts."""

import math
import random

import pytest

import numpy as np

from diffnet.adcore import FLOAT, Tape, value
from diffnet.ltm import (LinkDyn, LinkLayer, V_MIN, fd_speed, interp,
                         interp_rows)
from diffnet.scenario import LinkParams


def make_link(tape, dests=("s",), **kw):
    p = dict(id="L", tail="a", head="b", d=1000.0, u=20.0, qmax=0.8,
             kappa=0.2, alpha=1.0)
    p.update(kw)
    return LinkDyn(tape, LinkParams(**p), list(dests))


# ----------------------------------------------------------------------
# interpolation


def test_interp_clamps_out_of_range():
    tape = Tape()
    curve = [0.0, 1.0, 3.0]
    assert interp(tape, curve, -0.5) == 0.0
    assert interp(tape, curve, 5.0) == 3.0
    assert interp(tape, curve, 0.0) == 0.0


def test_interp_linear_between_knots():
    tape = Tape()
    curve = [0.0, 2.0, 6.0]
    assert value(interp(tape, curve, 0.5)) == pytest.approx(1.0)
    assert value(interp(tape, curve, 1.25)) == pytest.approx(3.0)
    assert value(interp(tape, curve, 1.0)) == pytest.approx(2.0)


def test_interp_value_gradient_flows_to_curve():
    tape = Tape()
    a = tape.input(2.0)
    curve = [0.0, a, 6.0]
    out = interp(tape, curve, 0.5)
    assert tape.grad(out, [a])[0] == pytest.approx(0.5)


def test_interp_index_gradient_one_sided():
    # strictly inside a segment the index sensitivity is that segment's slope
    tape = Tape()
    tau = tape.input(1.5)
    curve = [0.0, 2.0, 6.0, 7.0]
    out = interp(tape, curve, tau)
    assert tape.grad(out, [tau])[0] == pytest.approx(4.0)


def test_interp_index_gradient_centered_on_grid_point():
    # exactly on an interior knot the index sensitivity is the centered
    # slope (the two-sided limit at a curve kink)
    tape = Tape()
    tau = tape.input(2.0)
    curve = [0.0, 2.0, 6.0, 7.0]
    out = interp(tape, curve, tau)
    assert value(out) == pytest.approx(6.0)
    assert tape.grad(out, [tau])[0] == pytest.approx((7.0 - 2.0) / 2.0)


# ----------------------------------------------------------------------
# fundamental diagram


def test_fd_speed_branches():
    tape = Tape()
    u, w, kappa = 20.0, 5.0, 0.2
    assert value(fd_speed(tape, u, w, kappa, 0.0)) == pytest.approx(u)
    assert value(fd_speed(tape, u, w, kappa, 0.01)) == pytest.approx(u)
    # congested branch: V = w (kappa - k) / k
    k = 0.1
    assert value(fd_speed(tape, u, w, kappa, k)) == pytest.approx(
        w * (kappa - k) / k
    )
    # at jam density the speed floor applies
    assert value(fd_speed(tape, u, w, kappa, kappa)) == pytest.approx(V_MIN)


def test_derived_wave_speed():
    tape = Tape()
    lk = make_link(tape)
    # w = qmax / (kappa - qmax/u) = 0.8 / (0.2 - 0.04) = 5
    assert value(lk.w) == pytest.approx(5.0)


def test_alternate_parameterization_derives_qmax():
    tape = Tape()
    p = LinkParams(id="L", tail="a", head="b", d=1000.0, u=20.0, qmax=0.8,
                   kappa=0.2)
    lk = LinkDyn(tape, p, ["s"], w=5.0)
    assert value(lk.qmax) == pytest.approx(0.8)


@pytest.mark.parametrize("attr, val", [("u", 19.7), ("qmax", 0.83),
                                       ("kappa", 0.23), ("w", 6.1)])
def test_a_taped_links_values_are_a_float_run_link_of_the_same_values(attr,
                                                                      val):
    # whichever attribute is registered, a taped link decides over `vals`,
    # a float run's link built from the same values: by hex, its derived
    # `w` (or `qmax`, under the `w` parameterization) is what the taped
    # link's `Var` holds, and its curves follow the link's
    tape = Tape()
    p = LinkParams(id="L", tail="a", head="b", d=1000.0, u=17.3, qmax=0.71,
                   kappa=0.19)
    lk = LinkDyn(tape, p, ["s"], **{attr: tape.input(val)})
    vals = lk.vals
    assert type(vals) is LinkDyn and vals.vals is None
    names = ("d", "u", "w", "kappa", "qmax", "free_n")

    def hexes(link):
        return [value(getattr(link, a)).hex() for a in names]

    assert hexes(vals) == hexes(LinkDyn(FLOAT, p, (), **{attr: val}))
    assert hexes(vals) == hexes(lk)
    lk.update_boundaries(tape, 5.0, tape.input(0.3), 0.1)
    assert vals.NU == [value(x) for x in lk.NU] == [0.0, 1.5]
    assert vals.ND == lk.ND == [0.0, 0.5]


# ----------------------------------------------------------------------
# demand / supply on hand-built curves


def fill_constant_inflow(tape, lk, rate, steps, dt):
    for _ in range(steps):
        lk.update_boundaries(tape, dt, rate, 0.0)


def test_demand_zero_before_first_vehicle_arrives():
    tape = Tape()
    lk = make_link(tape)
    dt = 5.0
    fill_constant_inflow(tape, lk, 0.3, 5, dt)
    # free-flow time d/u = 50 s = 10 steps; nothing can exit before that
    assert value(lk.demand(tape, 5, dt)) == 0.0


def test_demand_equals_arrival_rate_in_steady_state():
    tape = Tape()
    lk = make_link(tape)
    dt = 5.0
    # inflow 0.3 veh/s, outflow served at the sending rate each step
    for t in range(30):
        fo = value(lk.demand(tape, t, dt))
        lk.update_boundaries(tape, dt, 0.3, fo)
    # past the d/(u dt) = 10 step lead time the link passes the inflow through
    assert value(lk.demand(tape, 30, dt)) == pytest.approx(0.3)
    assert value(lk.NU[30]) - value(lk.ND[30]) == pytest.approx(0.3 * 50.0)


def test_demand_capped_at_capacity():
    tape = Tape()
    lk = make_link(tape)
    dt = 5.0
    fill_constant_inflow(tape, lk, 0.79, 100, dt)  # below qmax, no exits
    assert value(lk.demand(tape, 99, dt)) == pytest.approx(0.8)


def test_supply_full_capacity_on_empty_link():
    tape = Tape()
    lk = make_link(tape)
    assert value(lk.supply(tape, 0, 5.0)) == pytest.approx(0.8)


def test_supply_zero_when_jammed():
    tape = Tape()
    lk = make_link(tape)
    dt = 5.0
    # stuff the link to jam occupancy kappa*d = 200 veh with no outflow
    for _ in range(50):
        lk.update_boundaries(tape, dt, 0.8, 0.0)
    for _ in range(50):
        lk.update_boundaries(tape, dt, 0.0, 0.0)
    assert value(lk.NU[100]) - value(lk.ND[100]) == pytest.approx(200.0)
    assert value(lk.supply(tape, 100, dt)) == pytest.approx(0.0)


def test_supply_reopens_with_backward_wave_delay():
    tape = Tape()
    lk = make_link(tape)
    dt = 5.0
    for _ in range(50):
        lk.update_boundaries(tape, dt, 0.8, 0.0)
    # drain at capacity from t=50
    t = 50
    while value(lk.supply(tape, t, dt)) <= 0.0 and t < 120:
        lk.update_boundaries(tape, dt, 0.0, 0.8)
        t += 1
    # backward wave needs d/(w dt) = 40 steps to travel the link
    assert t - 50 == 40


def test_newell_count_free_flow_translation():
    tape = Tape()
    lk = make_link(tape)
    dt = 5.0
    fill_constant_inflow(tape, lk, 0.4, 40, dt)
    # mid-link at x=500: N(t, x) = NU(t - x/(u dt)) under free flow
    t = 30
    n = value(lk.newell_N(tape, t, 500.0, dt))
    assert n == pytest.approx(value(interp(tape, lk.NU, t - 500.0 / (20.0 * dt))))


def test_conservation_of_boundary_updates():
    rng = random.Random(11)
    tape = Tape()
    lk = make_link(tape)
    dt = 5.0
    fin_total = 0.0
    fout_total = 0.0
    for t in range(60):
        fi = rng.uniform(0.0, 0.5)
        fo = min(rng.uniform(0.0, 0.5), value(lk.demand(tape, t, dt)))
        lk.update_boundaries(tape, dt, fi, fo)
        fin_total += fi * dt
        fout_total += fo * dt
    assert value(lk.NU[-1]) == pytest.approx(fin_total)
    assert value(lk.ND[-1]) == pytest.approx(fout_total)
    assert value(lk.NU[60]) - value(lk.ND[60]) == pytest.approx(
        fin_total - fout_total
    )


def test_negative_flow_rejected():
    tape = Tape()
    lk = make_link(tape)
    with pytest.raises(ValueError):
        lk.update_boundaries(tape, 5.0, -0.1, 0.0)


# ----------------------------------------------------------------------
# the float run's layer on hand-built curves, against the per-link code


def test_interp_rows_takes_each_branch_of_interp():
    # one row per case, curves valid up to column 4 (a fifth, unfilled
    # column is never read); each value is `interp`'s on `FLOAT`, by hex
    cases = [  # (row, tau)
        ([0.0, 1.0, 2.0, 3.0, 4.0], -0.5),  # tau < 0: 0.0
        ([5.0, 1.0, 2.0, 3.0, 4.0], 0.0),  # tau = 0: 0.0, not N[0]
        ([0.0, 1.0, 2.0, 3.0, 4.5], 4.0),  # tau = last: N[last]
        ([0.0, 1.0, 2.0, 3.0, 4.5], 7.25),  # tau > last: N[last]
        ([0.0, 1.0, -0.0, 3.0, 4.0], 2.0),  # whole: N[i] itself, -0.0 kept
        ([0.0, 0.1, 0.7, 3.0, 4.0], 1.3),  # inside: the blend
        ([0.0, 0.1, 0.7, 3.0, 4.0], 0.6),  # inside, N[i] = 0.0
    ]
    curves = np.array([row + [9.0] for row, _ in cases])
    tau = np.array([tv for _, tv in cases])
    got = interp_rows(curves, tau, 4)
    want = [interp(FLOAT, row, tv) for row, tv in cases]
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]
    assert want[4].hex() == "-0x0.0p+0"
    # one filled column: every index is at or beyond the last
    got = interp_rows(curves, np.array([-1.0, 0.0, 0.5] + [3.0] * 4), 0)
    want = [interp(FLOAT, row[:1], tv) for row, tv in zip(
        [row for row, _ in cases], [-1.0, 0.0, 0.5] + [3.0] * 4)]
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]


def test_layer_rates_take_each_branch_of_the_clamp():
    # d / (u dt) = 2 steps: at t = 4 the sending rate reads NU at the whole
    # index 3, minus ND[4]; qmax 1.0.  One link per branch of the clamp;
    # the receiving rates (w = 10, also a whole index) are checked as well
    dt, t = 1.0, 4
    cases = [  # (NU, ND, sending rate after the clamp)
        ([0.0, 0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0, 2.0], 0.0),  # < 0
        ([0.0, 1.0, 3.0, 5.0, 5.0], [0.0, 0.0, 0.0, 0.0, 0.0], 1.0),  # > qmax
        ([0.0, 0.0, 0.0, -0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 0.0], -0.0),
        ([0.0, 0.0, 0.0, math.nan, 0.0], [0.0] * 5, 0.0),  # NaN
        ([0.0, 0.2, 0.4, 0.5, 0.5], [0.0, 0.0, 0.0, 0.0, 0.25], 0.25),
    ]
    tape = Tape()
    links = [make_link(tape, d=20.0, u=10.0, qmax=1.0, kappa=0.2)
             for _ in cases]
    layer = LinkLayer(links, 6)
    for i, (lk, (NU, ND, _)) in enumerate(zip(links, cases)):
        layer.NU[i, :5], layer.ND[i, :5] = NU, ND
        lk.NU, lk.ND = NU, ND
        lk.vals.NU, lk.vals.ND = NU, ND
    layer.last = 4
    D = LinkDyn.demand(layer, FLOAT, t, dt)
    S = LinkDyn.supply(layer, FLOAT, t, dt)
    assert [x.hex() for x in D] == [want.hex() for _, _, want in cases]
    assert [x.hex() for x in D] == [lk.demand(FLOAT, t, dt).hex()
                                    for lk in links]
    assert [x.hex() for x in S] == [lk.supply(FLOAT, t, dt).hex()
                                    for lk in links]


def test_layer_boundary_update_checks_the_flows_in_link_order():
    tape = Tape()
    links = [make_link(tape, id=lid) for lid in ("a", "b", "c")]
    layer = LinkLayer(links, 3)
    LinkDyn.update_boundaries(layer, FLOAT, 5.0, [0.1, 0.2, 0.3],
                              [0.0, 0.05, 0.0])
    assert [lk.NU for lk in links] == [[0.0, 0.5], [0.0, 1.0], [0.0, 1.5]]
    assert layer.ND[:, 1].tolist() == [0.0, 0.25, 0.0]
    with pytest.raises(ValueError) as err:
        LinkDyn.update_boundaries(layer, FLOAT, 5.0, [0.1, math.inf, -0.1],
                                  [0.0, 0.0, math.nan])
    assert str(err.value) == ("link b at step 1: boundary flows in inf and "
                              "out 0.0 must be finite and >= 0")
    assert layer.last == 1 and len(links[0].NU) == 2
