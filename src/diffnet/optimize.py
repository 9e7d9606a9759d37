"""Parameter optimization and gradient verification.

`grad` produces all parameter partials of a scalar objective from one
forward run plus one backward sweep.  `fd_check` computes central finite
differences of the same objective on gradient-free runs for comparison.
`adam_optimize` is gradient-based (Adam with global L2 clipping);
`spsa_optimize` is the derivative-free simultaneous-perturbation baseline
(two evaluations per iteration).  Both project every iterate onto
theta >= 0.  A config holds only what a caller sets: the step size and the
iteration count, and SPSA's seed; the other settings are the module
constants below.
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

ADAM_BETA1 = 0.9  # Kingma & Ba 2015 (ICLR), first-moment decay
ADAM_BETA2 = 0.999  # Kingma & Ba 2015, second-moment decay
ADAM_EPS = 1e-8  # Kingma & Ba 2015, denominator floor
ADAM_CLIP_NORM = 2e6  # diffnet's default cap on a gradient's L2 norm
SPSA_C = 1.0  # diffnet's default c of the probe size c_k = c / k^gamma
SPSA_A = 100.0  # diffnet's default A of the step a_k = a / (A + k)^alpha
SPSA_ALPHA = 0.602  # Spall 1998 (IEEE TAES 34(3)), step-size decay
SPSA_GAMMA = 0.101  # Spall 1998, perturbation decay


def _validate(config, step: str) -> None:
    """Raise a `ValueError` if the step-size field `step` is not finite and
    > 0 (NaN included) or if `iters` is below 1."""
    v = getattr(config, step)
    if not 0.0 < v < math.inf:
        raise ValueError(f"{step} must be finite and > 0 (got {v!r})")
    if config.iters < 1:
        raise ValueError(f"iters must be at least 1 (got {config.iters})")


@dataclass
class AdamConfig:
    lr: float = 7.0
    iters: int = 300

    def __post_init__(self):
        _validate(self, "lr")


@dataclass
class SPSAConfig:
    a: float = 10.0
    iters: int = 300
    seed: int = 0

    def __post_init__(self):
        _validate(self, "a")


# ----------------------------------------------------------------------
# reports


@dataclass
class GradientReport:
    """Flat per-parameter table: AD values plus optional FD columns."""

    names: list[str]
    objective: float
    ad: list[float]
    fd: dict[float, list[float]] = field(default_factory=dict)

    def rows(self):
        """One row per parameter: (name, ad, {eps: fd})."""
        return [(n, self.ad[i], {e: col[i] for e, col in self.fd.items()})
                for i, n in enumerate(self.names)]

    def __getitem__(self, name: str) -> float:
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
    """Adam with bias correction, pre-update global clipping, and projection
    onto theta >= 0 of the start and of every iterate."""
    cfg = config or AdamConfig()
    theta = project_nonneg(theta0 if theta0 is not None else params.base_values)
    m = [0.0] * len(theta)
    v = [0.0] * len(theta)
    records = []
    for k in range(1, cfg.iters + 1):
        t0 = time.perf_counter()
        rep = grad(objective, scenario, params, values=theta)
        g = clip_global_norm(rep.ad, ADAM_CLIP_NORM)
        for i, gi in enumerate(g):
            m[i] = ADAM_BETA1 * m[i] + (1.0 - ADAM_BETA1) * gi
            v[i] = ADAM_BETA2 * v[i] + (1.0 - ADAM_BETA2) * gi * gi
            mhat = m[i] / (1.0 - ADAM_BETA1 ** k)
            vhat = v[i] / (1.0 - ADAM_BETA2 ** k)
            theta[i] -= cfg.lr * mhat / (math.sqrt(vhat) + ADAM_EPS)
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
    c_k = c/k^gamma (A, alpha, c and gamma are the `SPSA_*` constants),
    simultaneous Bernoulli +-1 direction delta (seeded
    Mersenne-Twister draws, reproducible across platforms), and the
    two-evaluation estimate g_i = (J(theta+c_k delta) - J(theta-c_k delta))
    / (2 c_k delta_i).  The start and every iterate are projected onto
    theta >= 0.
    """
    cfg = config or SPSAConfig()
    rng = random.Random(cfg.seed)
    theta = project_nonneg(theta0 if theta0 is not None else params.base_values)
    records = []
    for k in range(1, cfg.iters + 1):
        t0 = time.perf_counter()
        a_k = cfg.a / (SPSA_A + k) ** SPSA_ALPHA
        c_k = SPSA_C / k ** SPSA_GAMMA
        delta = [1.0 if rng.random() < 0.5 else -1.0 for _ in theta]
        hi = [t + c_k * d for t, d in zip(theta, delta)]
        lo = [t - c_k * d for t, d in zip(theta, delta)]
        jp = evaluate(objective, scenario, params, values=hi)
        jm = evaluate(objective, scenario, params, values=lo)
        ghat = [(jp - jm) / (2.0 * c_k * d) for d in delta]
        theta = project_nonneg([t - a_k * g for t, g in zip(theta, ghat)])
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
