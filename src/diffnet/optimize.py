"""Parameter optimization and gradient verification.

`grad` produces all parameter partials of a scalar objective from one
forward run plus one backward sweep.  `fd_check` computes central finite
differences of the same objective on gradient-free runs for comparison.
`adam_optimize` is gradient-based (Adam with global L2 clipping and an
optional nonnegativity projection); `spsa_optimize` is the derivative-free
simultaneous-perturbation baseline (two evaluations per iteration).
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

from .adcore import value
from .engine import Simulator, build_objective
from .scenario import ParameterSet, Scenario, ScenarioError

__all__ = [
    "AdamConfig",
    "SPSAConfig",
    "GradientReport",
    "OptTrace",
    "grad",
    "fd_check",
    "adam_optimize",
    "spsa_optimize",
    "clip_global_norm",
    "project_nonneg",
]


# ----------------------------------------------------------------------
# configuration


def _require_positive(config, *fields: str) -> None:
    """Raise a `ValueError` naming the first field that is not finite and > 0
    (NaN included)."""
    for name in fields:
        v = getattr(config, name)
        if not 0.0 < v < math.inf:
            raise ValueError(f"{name} must be finite and > 0 (got {v!r})")


@dataclass
class AdamConfig:
    lr: float = 7.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float = 2e6
    iters: int = 300
    project_nonneg: bool = True

    def __post_init__(self):
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("momentum decay factors must lie in [0, 1)")
        _require_positive(self, "lr", "eps", "clip_norm")
        if self.iters < 1:
            raise ValueError(f"iters must be at least 1 (got {self.iters})")


@dataclass
class SPSAConfig:
    a: float = 10.0
    c: float = 1.0
    A: float = 100.0
    alpha: float = 0.602
    gamma: float = 0.101
    iters: int = 300
    seed: int = 0
    project_nonneg: bool = True

    def __post_init__(self):
        _require_positive(self, "a", "c", "A", "alpha", "gamma")
        if self.iters < 1:
            raise ValueError(f"iters must be at least 1 (got {self.iters})")


# ----------------------------------------------------------------------
# reports


@dataclass
class GradientReport:
    """Flat per-parameter table: AD values plus optional FD columns."""

    names: list[str]
    objective: float
    ad: list[float] | None = None
    fd: dict[float, list[float]] = field(default_factory=dict)

    def rows(self):
        """One row per parameter: (name, ad, {eps: fd})."""
        out = []
        for i, n in enumerate(self.names):
            ad_i = self.ad[i] if self.ad is not None else None
            out.append((n, ad_i, {e: col[i] for e, col in self.fd.items()}))
        return out

    def __getitem__(self, name: str) -> float:
        if self.ad is None:
            raise KeyError("report has no AD column")
        return self.ad[self.names.index(name)]


@dataclass
class OptTrace:
    """Optimization history: per-iteration records plus the final iterate."""

    records: list[dict]  # iteration, J, grad_norm, wall
    theta: list[float]
    names: list[str]

    @property
    def objectives(self) -> list[float]:
        return [r["J"] for r in self.records]


# ----------------------------------------------------------------------
# gradient and FD harness


def _resolve(objective):
    return build_objective(objective) if isinstance(objective, str) else objective


def evaluate(objective, scenario: Scenario, params: ParameterSet | None = None,
             values=None) -> float:
    """Objective value from a gradient-free forward run."""
    obj = _resolve(objective)
    sim = Simulator(scenario, params=params, values=values, grad=False)
    return value(obj(sim.run()))


def grad(objective, scenario: Scenario, params: ParameterSet,
         values=None) -> GradientReport:
    """All parameter partials from one taped run and one backward sweep."""
    obj = _resolve(objective)
    sim = Simulator(scenario, params=params, values=values)
    res = sim.run()
    J = obj(res)
    g = res.tape.grad(J, [sim.param_vars[n] for n in params.names])
    bad = [n for n, gi in zip(params.names, g) if not math.isfinite(gi)]
    if bad:
        raise ArithmeticError(
            f"non-finite adjoint for parameter(s) {', '.join(bad)}"
        )
    return GradientReport(names=list(params.names), objective=value(J),
                          ad=[float(x) for x in g])


def fd_check(objective, scenario: Scenario, params: ParameterSet,
             eps_list=(1e-1, 1e-2, 1e-3, 1e-4, 1e-5),
             values=None) -> GradientReport:
    """Central differences per parameter per step size, beside the AD column.

    Each FD entry costs two gradient-free runs with one parameter displaced.
    """
    for eps in eps_list:
        if not 0 < eps < math.inf:
            raise ScenarioError(f"finite-difference step {eps} must be finite and > 0")
    base = list(values) if values is not None else list(params.base_values)
    report = grad(objective, scenario, params, values=base)
    for eps in eps_list:
        col = []
        for i in range(len(params)):
            hi = list(base)
            lo = list(base)
            hi[i] += eps
            lo[i] -= eps
            jh = evaluate(objective, scenario, params, values=hi)
            jl = evaluate(objective, scenario, params, values=lo)
            col.append((jh - jl) / (2.0 * eps))
        report.fd[eps] = col
    return report


# ----------------------------------------------------------------------
# optimizers


def clip_global_norm(g: list[float], max_norm: float) -> list[float]:
    """Shrink the vector to L2 norm `max_norm` if it exceeds it."""
    norm = math.sqrt(sum(x * x for x in g))
    if norm <= max_norm or norm == 0.0:
        return list(g)
    scale = max_norm / norm
    return [x * scale for x in g]


def project_nonneg(theta: list[float]) -> list[float]:
    return [x if x > 0.0 else 0.0 for x in theta]


def adam_optimize(objective, scenario: Scenario, params: ParameterSet,
                  theta0=None, config: AdamConfig | None = None) -> OptTrace:
    """Adam with bias correction, pre-update global clipping, and projection."""
    cfg = config or AdamConfig()
    theta = list(theta0) if theta0 is not None else list(params.base_values)
    if cfg.project_nonneg:
        theta = project_nonneg(theta)
    m = [0.0] * len(theta)
    v = [0.0] * len(theta)
    records = []
    for k in range(1, cfg.iters + 1):
        t0 = time.perf_counter()
        rep = grad(objective, scenario, params, values=theta)
        g = clip_global_norm(rep.ad, cfg.clip_norm)
        for i, gi in enumerate(g):
            m[i] = cfg.beta1 * m[i] + (1.0 - cfg.beta1) * gi
            v[i] = cfg.beta2 * v[i] + (1.0 - cfg.beta2) * gi * gi
            mhat = m[i] / (1.0 - cfg.beta1 ** k)
            vhat = v[i] / (1.0 - cfg.beta2 ** k)
            theta[i] -= cfg.lr * mhat / (math.sqrt(vhat) + cfg.eps)
        if cfg.project_nonneg:
            theta = project_nonneg(theta)
        records.append({
            "iteration": k,
            "J": rep.objective,
            "grad_norm": math.sqrt(sum(x * x for x in g)),
            "wall": time.perf_counter() - t0,
        })
    return OptTrace(records=records, theta=theta, names=list(params.names))


def spsa_optimize(objective, scenario: Scenario, params: ParameterSet,
                  theta0=None, config: SPSAConfig | None = None) -> OptTrace:
    """Simultaneous-perturbation stochastic approximation.

    Per iteration k (1-based): step a_k = a/(A+k)^alpha, perturbation
    c_k = c/k^gamma, simultaneous Bernoulli +-1 direction delta (seeded
    Mersenne-Twister draws, reproducible across platforms), and the
    two-evaluation estimate g_i = (J(theta+c_k delta) - J(theta-c_k delta))
    / (2 c_k delta_i).
    """
    cfg = config or SPSAConfig()
    rng = random.Random(cfg.seed)
    theta = list(theta0) if theta0 is not None else list(params.base_values)
    if cfg.project_nonneg:
        theta = project_nonneg(theta)
    records = []
    for k in range(1, cfg.iters + 1):
        t0 = time.perf_counter()
        a_k = cfg.a / (cfg.A + k) ** cfg.alpha
        c_k = cfg.c / k ** cfg.gamma
        delta = [1.0 if rng.random() < 0.5 else -1.0 for _ in theta]
        hi = [t + c_k * d for t, d in zip(theta, delta)]
        lo = [t - c_k * d for t, d in zip(theta, delta)]
        jp = evaluate(objective, scenario, params, values=hi)
        jm = evaluate(objective, scenario, params, values=lo)
        ghat = [(jp - jm) / (2.0 * c_k * d) for d in delta]
        theta = [t - a_k * g for t, g in zip(theta, ghat)]
        if cfg.project_nonneg:
            theta = project_nonneg(theta)
        records.append({
            # midpoint of the two probe evaluations: keeps the method at
            # exactly two runs per iteration
            "iteration": k,
            "J": 0.5 * (jp + jm),
            "grad_norm": math.sqrt(sum(x * x for x in ghat)),
            "wall": time.perf_counter() - t0,
        })
    final_J = evaluate(objective, scenario, params, values=theta)
    records.append({
        "iteration": cfg.iters + 1,
        "J": final_J,
        "grad_norm": 0.0,
        "wall": 0.0,
    })
    return OptTrace(records=records, theta=theta, names=list(params.names))
