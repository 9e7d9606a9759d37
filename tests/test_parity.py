"""Pinned objective values and gradients on three fixtures.

The pins guard the arithmetic of the node step, the share routines and the
link updates: a refactor that keeps that arithmetic reproduces them to 1e-9
relative.
"""

import math

import pytest

from diffnet.engine import Simulator, build_objective, objective_ttt
from diffnet.presets import merge_scenario, toll_grid_scenario, two_route_scenario
from diffnet.scenario import register_parameters


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
    assert len(res.tape) <= 55_000
