"""Optimizers and the FD harness on closed-form objectives."""

import itertools
import math
import random

import pytest

from diffnet.optimize import (
    SPSA_A,
    SPSA_ALPHA,
    SPSA_C,
    SPSA_GAMMA,
    AdamConfig,
    SPSAConfig,
    clip_global_norm,
    project_nonneg,
)


# ----------------------------------------------------------------------
# standalone quadratic/linear objectives: drive the optimizers through a
# scenario-free shim so the update rules can be checked in closed form


class FakeScenario:
    pass


class FakeParams:
    def __init__(self, base):
        self._base = list(base)

    @property
    def names(self):
        return [f"p{i}" for i in range(len(self._base))]

    @property
    def base_values(self):
        return list(self._base)

    def __len__(self):
        return len(self._base)


def run_adam(f, grad_f, x0, cfg):
    """Adam reference loop mirroring adam_optimize's update rule."""
    import diffnet.optimize as opt

    calls = {"theta": list(x0)}

    def fake_grad(objective, scenario, params, values=None):
        g = grad_f(values)
        return opt.GradientReport(names=params.names, objective=f(values),
                                  ad=list(g))

    orig = opt.grad
    opt.grad = fake_grad
    try:
        trace = opt.adam_optimize(None, FakeScenario(), FakeParams(x0),
                                  config=cfg)
    finally:
        opt.grad = orig
    return trace


def run_spsa(f, x0, cfg):
    import diffnet.optimize as opt

    orig = opt.evaluate

    def fake_eval(objective, scenario, params, values=None):
        return f(values)

    opt.evaluate = fake_eval
    try:
        trace = opt.spsa_optimize(None, FakeScenario(), FakeParams(x0),
                                  config=cfg)
    finally:
        opt.evaluate = orig
    return trace


def test_adam_converges_on_1d_quadratic():
    f = lambda x: (x[0] - 3.0) ** 2
    g = lambda x: [2.0 * (x[0] - 3.0)]
    cfg = AdamConfig(lr=0.1, iters=500)
    trace = run_adam(f, g, [0.0], cfg)
    assert abs(trace.theta[0] - 3.0) < 1e-3


def test_adam_zero_gradient_keeps_theta():
    trace = run_adam(lambda x: 1.0, lambda x: [0.0, 0.0], [2.0, 5.0],
                     AdamConfig(iters=50))
    assert trace.theta == [2.0, 5.0]


def test_adam_projection_keeps_nonnegative():
    f = lambda x: x[0]  # constant positive gradient pushes theta negative
    g = lambda x: [1.0]
    trace = run_adam(f, g, [0.5], AdamConfig(lr=1.0, iters=30))
    assert trace.theta[0] == 0.0


def test_clip_preserves_direction_and_caps_norm():
    g = [3.0, 4.0]  # norm 5
    c = clip_global_norm(g, 1.0)
    assert math.hypot(*c) <= 1.0 + 1e-9
    assert c[0] / c[1] == pytest.approx(g[0] / g[1])
    # below the cap the vector is untouched
    assert clip_global_norm(g, 10.0) == g


def test_projection_idempotent():
    x = [-1.0, 0.0, 2.5]
    once = project_nonneg(x)
    assert once == [0.0, 0.0, 2.5]
    assert project_nonneg(once) == once


def test_spsa_1d_estimator_is_exact_central_difference():
    # in 1-D the Bernoulli sign cancels: ghat = (f(x+c) - f(x-c)) / (2c)
    f = lambda x: (x[0] - 2.0) ** 2
    cfg = SPSAConfig(a=0.05, iters=1, seed=4)
    trace = run_spsa(f, [5.0], cfg)
    c1 = SPSA_C / 1.0 ** SPSA_GAMMA
    expected_g = (f([5.0 + c1]) - f([5.0 - c1])) / (2 * c1)
    a1 = cfg.a / (SPSA_A + 1) ** SPSA_ALPHA
    assert trace.theta[0] == pytest.approx(5.0 - a1 * expected_g)


def test_spsa_constant_objective_freezes_theta():
    trace = run_spsa(lambda x: 7.0, [1.0, 2.0],
                     SPSAConfig(iters=20, seed=0))
    assert trace.theta == [1.0, 2.0]


def test_spsa_unbiased_on_linear_objectives():
    # E[ghat] over all sign patterns equals the gradient exactly for linear J
    g_true = [2.0, -1.5, 0.5]
    f = lambda x: sum(a * b for a, b in zip(g_true, x))
    x0 = [1.0, 1.0, 1.0]
    c = 0.7
    acc = [0.0] * 3
    patterns = list(itertools.product([1.0, -1.0], repeat=3))
    for delta in patterns:
        hi = [x + c * d for x, d in zip(x0, delta)]
        lo = [x - c * d for x, d in zip(x0, delta)]
        ghat = [(f(hi) - f(lo)) / (2 * c * d) for d in delta]
        acc = [a + g for a, g in zip(acc, ghat)]
    mean = [a / len(patterns) for a in acc]
    assert mean == pytest.approx(g_true)


def test_spsa_trace_is_seed_reproducible():
    f = lambda x: sum(v * v for v in x)
    t1 = run_spsa(f, [1.0, 2.0], SPSAConfig(iters=25, seed=9))
    t2 = run_spsa(f, [1.0, 2.0], SPSAConfig(iters=25, seed=9))
    assert t1.theta == t2.theta
    assert t1.objectives == t2.objectives


def test_config_validation():
    for v in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="^lr must be finite"):
            AdamConfig(lr=v)
        with pytest.raises(ValueError, match="^a must be finite"):
            SPSAConfig(a=v)
    for iters in (0, -2):
        with pytest.raises(ValueError, match="iters must be at least 1"):
            AdamConfig(iters=iters)
        with pytest.raises(ValueError, match="iters must be at least 1"):
            SPSAConfig(iters=iters)


# ----------------------------------------------------------------------
# FD harness on the real engine


def test_fd_exact_on_quadratic_toll_objective():
    # J = TTT + lam * toll^2 with the toll never on a used route: the toll
    # dependence is exactly quadratic, so central FD is exact for any eps
    from diffnet.engine import build_objective
    from diffnet.presets import merge_scenario
    from diffnet.optimize import fd_check
    from diffnet.scenario import Scenario, register_parameters

    d = merge_scenario().to_dict()
    d["tolls"] = [{"link": "3", "values": [100.0]}]
    scn = Scenario.from_dict(d)
    ps = register_parameters(scn, "toll:3:0")
    lam = 0.5
    rep = fd_check(build_objective("toll-J", lam=lam), scn, ps,
                   eps_list=(1e-1, 1.0, 10.0))
    # dJ/dtoll = 2 * lam * toll = 100 (a single route: routing unchanged)
    for eps, col in rep.fd.items():
        assert col[0] == pytest.approx(2 * lam * 100.0, rel=1e-9)
    assert rep.ad[0] == pytest.approx(2 * lam * 100.0, rel=1e-9)


def test_grad_zero_demand_scenario_all_zero():
    from diffnet.optimize import grad as grad_fn
    from diffnet.presets import merge_scenario
    from diffnet.scenario import Scenario, register_parameters

    d = merge_scenario().to_dict()
    for dm in d["demands"]:
        dm["profile"] = [[seg[0], seg[1], 0.0] for seg in dm["profile"]]
    scn = Scenario.from_dict(d)
    ps = register_parameters(scn, "u1,u2,u3,alpha1")
    rep = grad_fn("ttt", scn, ps)
    assert rep.objective == 0.0
    assert all(g == 0.0 for g in rep.ad)


def test_grad_rejects_a_non_finite_adjoint_naming_the_parameters():
    from diffnet.engine import objective_ttt
    from diffnet.optimize import grad as grad_fn
    from diffnet.presets import merge_scenario
    from diffnet.scenario import register_parameters

    def overflowing(res):
        # the objective's adjoint is 1e308 * 1e308 = inf
        mul = res.tape.mul
        return mul(1e308, mul(1e308, objective_ttt(res)))

    scn = merge_scenario()
    with pytest.raises(ArithmeticError) as err:
        grad_fn(overflowing, scn, register_parameters(scn, "q1,u3"))
    assert str(err.value) == "non-finite adjoint for parameter(s) q1, u3"
