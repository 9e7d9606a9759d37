"""The benchmark's workloads: inputs drawn from a seed, one op, and checks.

Each workload is built from the diffnet package it is handed, so that the
caller decides which copy of diffnet is measured and when it is imported.
A workload runs in *units*, each one op: `unit(k)` returns an `OpRecord`
with the op's wall seconds, its outputs (plain floats, compared against
references on the default seed) and the invariants it broke.  Units repeat
with period `cycle`, so every unit `k` has the same outputs as unit
`k % cycle` of another run with the seed, and every op of a workload does
the same work.

The seed only draws inputs: initial tolls, which links carry registered
parameters, trip departures and per-op parameter perturbations.
"""

from __future__ import annotations

import importlib
import math
import random
from dataclasses import dataclass, field
from time import perf_counter

from grid import grid_document

DEFAULT_SEED = 0
CONSERVATION_TOL = 1e-6  # veh
FLOW_TOL = 1e-12  # veh/s; the engine's own guard on boundary flows
PARAMS_PER_GRID = 5  # one demand rate plus four link attributes
LINK_ATTRS = ("u", "qmax", "kappa")
PERTURBATION = 0.03  # per-op parameter values lie within +-3% of the base


@dataclass
class OpRecord:
    seconds: float | None
    outputs: dict | None
    failures: list[str] = field(default_factory=list)
    probe: float | None = None  # seconds of the host-speed probe around it


def boundary_failures(dn, res) -> list[str]:
    """Conservation and non-negative boundary flows of one forward run."""
    out = []
    if not res.conservation_error <= CONSERVATION_TOL:
        out.append(f"conservation error {res.conservation_error!r} veh")
    dt = res.config.dt
    value = dn.value
    for lid, lk in res.links.items():
        for side, curve in (("upstream", lk.NU), ("downstream", lk.ND)):
            prev = value(curve[0])
            for t, x in enumerate(curve[1:]):
                v = value(x)
                if not (v - prev) / dt >= -FLOW_TOL:
                    out.append(f"link {lid}: {side} flow {(v - prev) / dt!r} "
                               f"veh/s at step {t}")
                    return out
                prev = v
    return out


def nonfinite(outputs: dict) -> list[str]:
    bad = []
    for key, val in outputs.items():
        vals = val if isinstance(val, list) else [val]
        if not all(math.isfinite(v) for v in vals):
            bad.append(f"non-finite {key}")
    return bad


class TollAdam:
    """One projected-Adam iteration of toll design on the toll grid."""

    name = "toll_adam"
    cycle = 1  # every call starts from the seed's tolls
    required = ("optimize.adam", "optimize.grad", "adcore.backward")

    def __init__(self, dn, seed: int):
        presets = importlib.import_module("diffnet.presets")
        self.dn = dn
        self.scn = presets.toll_grid_scenario()
        self.ps = dn.register_parameters(self.scn, "toll:*")
        rng = random.Random(seed)
        self.theta0 = [rng.uniform(0.0, 20.0) for _ in self.ps.names]
        self.objective = dn.build_objective("toll-J", 1e-3)
        self.config = dn.AdamConfig(lr=3.0, iters=1)
        self.link_steps = len(self.scn.links) * self.scn.config.n_steps
        self._runs: list[tuple[list[str], float]] = []
        self._run = None

    # The forward run happens inside adam_optimize, so its invariants are
    # read by a thin wrapper on Simulator.run.  The check's own time is
    # taken off the op.

    def start(self) -> None:
        sim_cls = self.dn.engine.Simulator
        self._run = sim_cls.run
        run, checks = self._run, self

        def checked_run(sim):
            res = run(sim)
            checks._check_forward(res)
            return res

        sim_cls.run = checked_run

    def close(self) -> None:
        if self._run is not None:
            self.dn.engine.Simulator.run = self._run
            self._run = None

    def _check_forward(self, res) -> None:
        t0 = perf_counter()
        failures = boundary_failures(self.dn, res)
        self._runs.append((failures, perf_counter() - t0))

    def extra_spans(self):
        return [(self, "_check_forward", "bench.check")]

    def unit(self, k: int) -> OpRecord:
        self._runs = []
        t0 = perf_counter()
        trace = self.dn.adam_optimize(self.objective, self.scn, self.ps,
                                      theta0=self.theta0, config=self.config)
        seconds = perf_counter() - t0
        if len(self._runs) != 1 or len(trace.records) != 1:
            raise RuntimeError(f"{len(self._runs)} forward runs and "
                               f"{len(trace.records)} iterations, expected 1")
        failures, check_s = self._runs[0]
        rec = trace.records[0]
        outputs = {"J": float(rec["J"]), "grad_norm": float(rec["grad_norm"]),
                   "theta": [float(x) for x in trace.theta]}
        failures = list(failures) + nonfinite(outputs)
        if min(trace.theta) < 0.0:
            failures.append("negative toll after projection")
        return OpRecord(seconds - check_s, outputs, failures)

    def memory_run(self):
        """One taped forward run at the seed's tolls, for bytes per entry."""
        return self.dn.Simulator(self.scn, params=self.ps,
                                 values=self.theta0).run()


class _Grid:
    """Synthetic-grid workload: registered parameters, perturbed per op."""

    grid: dict = {}

    def __init__(self, dn, seed: int):
        self.dn = dn
        self.scn = dn.Scenario.from_dict(grid_document(**self.grid))
        rng = random.Random(seed)
        tokens = [f"q{rng.randrange(len(self.scn.demands)) + 1}"]
        links = rng.sample([lk.id for lk in self.scn.links], PARAMS_PER_GRID - 1)
        tokens += [rng.choice(LINK_ATTRS) + lid for lid in links]
        self.ps = dn.register_parameters(self.scn, tokens)
        self.values = [
            [b * (1.0 + rng.uniform(-PERTURBATION, PERTURBATION))
             for b in self.ps.base_values]
            for _ in range(self.cycle)
        ]
        self.link_steps = len(self.scn.links) * self.scn.config.n_steps
        self.rng = rng

    def start(self) -> None:
        pass

    def close(self) -> None:
        pass

    def extra_spans(self):
        return []


class GridSens(_Grid):
    """Sensitivity report: one taped run, sweeps for TTT and 8 trips."""

    name = "grid_sens"
    grid = {"n": 4, "n_dest": 2, "demand": 0.10, "mu": 0.05, "dt_route": 50.0}
    cycle = 2
    n_trips = 8
    required = ("adcore.backward", "engine.trace_trip")

    def __init__(self, dn, seed: int):
        super().__init__(dn, seed)
        # One departure per equal slice of [0, 550) s, each OD pair in turn:
        # the seed moves departures within their slice, so the trips sample
        # the whole loading period and every seed sweeps similar work.
        origins, dests = self.scn.origins, self.scn.destinations
        width = 550.0 / self.n_trips
        self.trips = [
            ((j + self.rng.random()) * width, origins[j % len(origins)],
             dests[j % len(dests)])
            for j in range(self.n_trips)
        ]

    def unit(self, k: int) -> OpRecord:
        dn = self.dn
        names = self.ps.names
        t0 = perf_counter()
        res = dn.Simulator(self.scn, params=self.ps,
                           values=self.values[k % self.cycle]).run()
        ttt = dn.objective_ttt(res)
        adj = res.tape.backward(ttt)
        idx = [res.param_vars[n].idx for n in names]
        grad = [float(adj[i]) for i in idx]
        trip_time, trip_grad = [], []
        for t_dep, origin, dest in self.trips:
            trip = res.trace_trip(t_dep, origin, dest)
            adj = res.tape.backward(trip.travel_time)
            trip_time.append(dn.value(trip.travel_time))
            trip_grad += [float(adj[i]) for i in idx]
        seconds = perf_counter() - t0
        outputs = {"J": dn.value(ttt), "grad": grad, "trip_time": trip_time,
                   "trip_grad": trip_grad}
        failures = boundary_failures(dn, res) + nonfinite(outputs)
        return OpRecord(seconds, outputs, failures)

    def memory_run(self):
        return self.dn.Simulator(self.scn, params=self.ps,
                                 values=self.values[0]).run()


class GridReplan(_Grid):
    """Gradient-free run with deterministic routing re-planned every step."""

    name = "grid_replan"
    grid = {"n": 6, "n_dest": 3, "demand": 0.10, "mu": 0.0, "dt_route": 5.0}
    cycle = 4
    required = ()

    def unit(self, k: int) -> OpRecord:
        dn = self.dn
        t0 = perf_counter()
        res = dn.run(self.scn, self.ps, values=self.values[k % self.cycle],
                     grad=False)
        ttt = dn.objective_ttt(res)
        seconds = perf_counter() - t0
        outputs = {"J": float(ttt),
                   "absorbed": float(sum(res.absorbed.values()))}
        failures = boundary_failures(dn, res) + nonfinite(outputs)
        return OpRecord(seconds, outputs, failures)

    def injected(self, k: int) -> float:
        """Vehicles the demand of unit k releases over the horizon."""
        over = {p.target[0]: v for p, v in
                zip(self.ps.params, self.values[k % self.cycle])
                if p.kind == "demand"}
        return sum(over.get(i, q) * (t1 - t0)
                   for i, dm in enumerate(self.scn.demands)
                   for t0, t1, q in dm.profile)

    def memory_run(self):
        return None


WORKLOADS = {wl.name: wl for wl in (TollAdam, GridSens, GridReplan)}
