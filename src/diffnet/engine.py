"""Simulation engine: the timestep scan and derived outputs.

One `Simulator` owns one tape and executes the full scan
x_{t+1} = g(x_t, t; theta).  Registered parameters become tape inputs; with
`grad=False` they stay plain floats and the whole run is tape-free (used by
the finite-difference and SPSA paths).

Derived outputs (total travel time, per-link travel-time averages, virtual
vehicle trips) are recorded on the same tape after the scan, so their
adjoints are available from the same backward sweep.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from .adcore import Tape, Var, value
from .ltm import LinkDyn, interp
from .nodemodel import inm_fixed
from .routing import (
    build_routing,
    composition,
    fifo_split,
    normalized_shares,
    travel_time_avg,
    travel_time_segments,
    turning_probs,
)
from .scenario import ParameterSet, Scenario, ScenarioError

__all__ = [
    "Simulator",
    "SimResult",
    "Trajectory",
    "EngineError",
    "TripIncompleteError",
    "run",
    "objective_ttt",
    "objective_att",
    "inverse_cumcount",
    "vehicle_exit_time",
    "build_objective",
    "parse_trip",
]


class EngineError(Exception):
    """Runtime failure during the scan (NaN, contract violation)."""


class TripIncompleteError(EngineError):
    """A traced vehicle does not finish within the simulated horizon."""


@dataclass
class Trajectory:
    t0: float
    origin: str
    destination: str
    links: list[str]
    exit_times: list  # per-link exit times (seconds, Var or float)
    travel_time: object  # seconds (Var or float)


class SimResult:
    """Everything produced by one forward run, plus the tape for sweeps."""

    def __init__(self, sim: "Simulator"):
        self.scenario = sim.scn
        self.config = sim.scn.config
        self.tape = sim.tape
        self.links: dict[str, LinkDyn] = sim.links
        self.param_vars = sim.param_vars
        self.queues = sim.queue_hist  # origin -> dest -> [veh per step]
        self.inj = sim.inj  # origin -> dest -> cumulative injection curve
        self.absorbed = sim.absorbed  # dest -> veh (Var/float)
        self.ttt_link = sim.ttt_link  # link id -> veh*s (Var/float)
        self.ttt_queue = sim.ttt_queue
        self.conservation_error = sim.conservation_error  # max abs (veh)
        self.forward_time = sim.forward_time
        self._sim = sim

    # post-scan outputs -------------------------------------------------

    def trace_trip(self, t0: float, origin: str, destination: str) -> Trajectory:
        return self._sim.trace_trip(t0, origin, destination)

    def travel_time_at(self, link_id: str, t: int):
        return self._sim.link_travel_time(self.links[link_id], t)


class Simulator:
    def __init__(self, scenario: Scenario, params: ParameterSet | None = None,
                 values=None, grad: bool = True):
        scenario.validate()
        self.scn = scenario
        self.tape = Tape()
        self.grad = grad
        self.param_vars: dict[str, object] = {}
        self._link_over: dict[str, dict[str, object]] = {}
        self._demand_over: dict[int, object] = {}
        self._toll_over: dict[tuple[str, int], object] = {}
        if params is not None:
            vals = params.base_values if values is None else list(values)
            if len(vals) != len(params):
                raise EngineError("values length does not match parameter set")
            for p, v in zip(params.params, vals):
                var = self.tape.input(float(v)) if grad else float(v)
                self.param_vars[p.name] = var
                if p.kind == "link":
                    lid, attr = p.target
                    self._link_over.setdefault(lid, {})[attr] = var
                elif p.kind == "demand":
                    self._demand_over[p.target[0]] = var
                else:
                    self._toll_over[p.target] = var

        dests = scenario.destinations
        self.links: dict[str, LinkDyn] = {}
        for lp in scenario.links:
            over = self._link_over.get(lp.id, {})
            self.links[lp.id] = LinkDyn(self.tape, lp, dests, **over)
        self.by_tail: dict[str, list[LinkDyn]] = {
            n: [self.links[lp.id] for lp in scenario.outlinks(n)]
            for n in scenario.nodes
        }
        self.by_head: dict[str, list[LinkDyn]] = {
            n: [self.links[lp.id] for lp in scenario.inlinks(n)]
            for n in scenario.nodes
        }

        self.dests = dests
        self.queue: dict[str, dict[str, object]] = {
            o: {s: 0.0 for s in dests} for o in scenario.origins
        }
        self.queue_hist: dict[str, dict[str, list]] = {
            o: {s: [] for s in dests} for o in scenario.origins
        }
        self.inj: dict[str, dict[str, list]] = {
            o: {s: [0.0] for s in dests} for o in scenario.origins
        }
        self.absorbed: dict[str, object] = {s: 0.0 for s in dests}
        self.ttt_link: dict[str, object] = {lid: 0.0 for lid in self.links}
        self.ttt_queue: object = 0.0
        self.conservation_error = 0.0
        self.forward_time = 0.0
        self._probs: dict[str, dict[str, dict | None]] = {}

    # ------------------------------------------------------------------
    # parameter-aware accessors

    def demand_rate(self, idx: int, t_sec: float):
        base = self.scn.demands[idx].rate_at(t_sec)
        if base == 0.0:
            return 0.0
        over = self._demand_over.get(idx)
        return over if over is not None else base

    def demand_cumulative(self, idx: int, t_sec: float):
        over = self._demand_over.get(idx)
        if over is None:
            return self.scn.demands[idx].cumulative(t_sec)
        dur = 0.0
        for t0, t1, q in self.scn.demands[idx].profile:
            if q != 0.0:
                dur += max(0.0, min(t_sec, t1) - t0)
        return self.tape.mul(over, dur)

    def toll_value(self, link_id: str, t_sec: float):
        i = self.scn.tolls.period_index(t_sec)
        over = self._toll_over.get((link_id, i))
        if over is not None:
            return over
        return self.scn.tolls.toll_at(link_id, t_sec)

    def all_toll_values(self):
        """Every toll scalar (Var where registered), for regularization terms."""
        out = []
        n_periods = self.scn.config.n_toll_periods
        tolled = set(self.scn.tolls.values) | {lid for lid, _ in self._toll_over}
        for lid in sorted(tolled):
            for i in range(n_periods):
                over = self._toll_over.get((lid, i))
                if over is not None:
                    out.append(over)
                else:
                    vals = self.scn.tolls.values.get(lid, ())
                    out.append(vals[i] if i < len(vals) else 0.0)
        return out

    # ------------------------------------------------------------------

    def link_travel_time(self, link: LinkDyn, t: int):
        cfg = self.scn.config
        if cfg.tt_method == "segments":
            return travel_time_segments(self.tape, link, t, cfg.M, cfg.dt)
        return travel_time_avg(self.tape, link, t)

    def _refresh_routing(self, t: int) -> None:
        tape, scn = self.tape, self.scn
        t_sec = t * scn.config.dt
        weights = {
            lid: tape.add(self.link_travel_time(lk, t), self.toll_value(lid, t_sec))
            for lid, lk in self.links.items()
        }
        table = build_routing(
            tape, scn.nodes, list(self.links.values()), weights, self.dests
        )
        # per-node routing fractions are fixed until the next refresh
        self._probs = {}
        for node, kind in scn.nodes.items():
            outlinks = self.by_tail[node]
            if kind == "destination" or not outlinks:
                continue
            self._probs[node] = {
                s: turning_probs(tape, table, node, outlinks, s, scn.config.mu)
                for s in self.dests
            }

    def _node_probs(self, node: str, dest: str) -> dict:
        p = self._probs.get(node, {}).get(dest)
        if p is None:
            raise EngineError(f"no route from node {node} to destination {dest}")
        return p

    def _reachable_probs(self, node: str, comp: dict) -> dict:
        """Routing fractions for the destinations present in a composition.

        Destination keys with zero share that cannot be reached from this
        node are dropped (a link's composition always lists every
        destination; only actually-routed ones need a path).
        """
        probs = {}
        for s, cs in comp.items():
            p = self._probs.get(node, {}).get(s)
            if p is None:
                if value(cs) > 1e-12:
                    raise EngineError(
                        f"no route from node {node} to destination {s}"
                    )
                continue
            probs[s] = p
        return probs

    def _neutral_composition(self, node: str):
        """Composition fallback for links that have seen no vehicles."""
        reach = [s for s in self.dests if self._probs.get(node, {}).get(s) is not None]
        if not reach:
            return None
        share = 1.0 / len(reach)
        return {s: share for s in reach}

    # ------------------------------------------------------------------

    def run(self) -> SimResult:
        import time as _time

        t_start = _time.perf_counter()
        tape, scn = self.tape, self.scn
        cfg = scn.config
        dt = cfg.dt
        T = cfg.n_steps
        rs = cfg.route_steps
        add, sub, mul, max2 = tape.add, tape.sub, tape.mul, tape.max2

        demand_by_origin: dict[str, list[int]] = {}
        for i, dm in enumerate(scn.demands):
            demand_by_origin.setdefault(dm.origin, []).append(i)

        for t in range(T):
            if t % rs == 0:
                self._refresh_routing(t)

            # --- bookkeeping with the state at step t ------------------
            injected = 0.0
            onlink = 0.0
            queued = 0.0
            for lid, lk in self.links.items():
                n = sub(lk.NU[t], lk.ND[t])
                self.ttt_link[lid] = add(self.ttt_link[lid], mul(max2(n, 0.0), dt))
                onlink += value(lk.NU[t]) - value(lk.ND[t])
            for orig, per_dest in self.queue.items():
                for s, q in per_dest.items():
                    self.queue_hist[orig][s].append(q)
                    self.ttt_queue = add(self.ttt_queue, mul(q, dt))
                    queued += value(q)
            for i, _dm in enumerate(scn.demands):
                injected += value(self.demand_cumulative(i, t * dt))
            absorbed = sum(value(a) for a in self.absorbed.values())
            err = abs(injected - (onlink + queued + absorbed))
            if err > self.conservation_error:
                self.conservation_error = err

            # --- demand / supply ---------------------------------------
            D = {lid: lk.demand(tape, t, dt) for lid, lk in self.links.items()}
            S = {lid: lk.supply(tape, t, dt) for lid, lk in self.links.items()}

            f_in: dict[str, object] = {lid: 0.0 for lid in self.links}
            f_out: dict[str, object] = {lid: 0.0 for lid in self.links}
            f_in_s: dict[str, dict] = {lid: {} for lid in self.links}

            # --- node transfers ----------------------------------------
            for node, kind in scn.nodes.items():
                if kind == "destination":
                    for lk in self.by_head[node]:
                        f = D[lk.id]
                        f_out[lk.id] = f
                        splits = fifo_split(tape, lk, t, f)
                        for s, fs in splits.items():
                            self.absorbed[s] = add(self.absorbed[s], mul(dt, fs))
                elif kind == "origin":
                    # origins without any demand profile have no queue state
                    # and (having no inlinks) nothing to transfer
                    if node in self.queue:
                        self._origin_step(node, t, dt, S, f_in, f_in_s,
                                          demand_by_origin.get(node, []))
                else:
                    self._junction_step(node, t, D, S, f_in, f_out, f_in_s)

            # --- boundary updates --------------------------------------
            for lid, lk in self.links.items():
                fi, fo = f_in[lid], f_out[lid]
                if not (math.isfinite(value(fi)) and math.isfinite(value(fo))):
                    raise EngineError(f"non-finite flow on link {lid} at step {t}")
                lk.update_boundaries(tape, dt, fi, fo, f_in_s[lid])
            for orig in self.inj:
                for s in self.dests:
                    cur = self.inj[orig][s]
                    if len(cur) == t + 1:
                        cur.append(cur[-1])

        self.forward_time = _time.perf_counter() - t_start
        return SimResult(self)

    # ------------------------------------------------------------------

    def _transfer(self, node, D, comps, alpha, S, f_in, f_in_s):
        """Node model at one node with outlinks.

        Builds the turning-fraction rows from each inflow's destination
        composition and the node's routing fractions, allocates flow with
        the INM, and adds the aggregate and per-destination inflows to the
        outlinks.  Returns the per-inflow totals and, per inflow, its
        per-destination outflows.
        """
        tape = self.tape
        add, mul = tape.add, tape.mul
        outlinks = self.by_tail[node]
        probs = [self._reachable_probs(node, c) for c in comps]
        B = []
        for c, ps in zip(comps, probs):
            row = []
            for ol in outlinks:
                acc = 0.0
                for s, p_s in ps.items():
                    acc = add(acc, mul(c[s], p_s[ol.id]))
                row.append(acc)
            B.append(row)

        qin, qout = inm_fixed(tape, D, [S[ol.id] for ol in outlinks], B, alpha)
        for ol, q in zip(outlinks, qout):
            f_in[ol.id] = add(f_in[ol.id], q)

        per_dest = []
        for q, c, ps in zip(qin, comps, probs):
            out = {}
            for s, p_s in ps.items():
                fs = out[s] = mul(q, c[s])
                for ol in outlinks:
                    f_in_s[ol.id][s] = add(
                        f_in_s[ol.id].get(s, 0.0), mul(fs, p_s[ol.id])
                    )
            per_dest.append(out)
        return qin, per_dest

    def _origin_step(self, node, t, dt, S, f_in, f_in_s, dm_indices):
        tape = self.tape
        add, sub, mul = tape.add, tape.sub, tape.mul
        t_sec = t * dt

        # arrivals join the per-destination vertical queue
        pre = dict(self.queue[node])
        for i in dm_indices:
            s = self.scn.demands[i].destination
            pre[s] = add(pre[s], mul(self.demand_rate(i, t_sec), dt))

        # An exactly-empty queue may still carry sensitivities (it was
        # positive under an infinitesimal parameter change).  Whenever the
        # outlinks it would use have supply slack, that perturbed queue
        # drains within the step, so serve it now: the sensitivity leaves
        # with the flow instead of lingering on the node forever.
        self._flush_zero_queues(node, pre, S, f_in, f_in_s, dt)

        total = 0.0
        for q in pre.values():
            total = add(total, q)
        if value(total) > 0.0:
            # the queue is one inflow whose composition is its queue shares
            comp = normalized_shares(
                tape, {s: q for s, q in pre.items() if value(q) > 0.0}, total
            )
            _, (out,) = self._transfer(
                node, [tape.div(total, dt)], [comp], [1.0], S, f_in, f_in_s
            )
            for s, out_s in out.items():
                pre[s] = sub(pre[s], mul(dt, out_s))
                inj = self.inj[node][s]
                inj.append(add(inj[-1], mul(dt, out_s)))
        self.queue[node] = pre

    def _flush_zero_queues(self, node, pre, S, f_in, f_in_s, dt):
        tape = self.tape
        for s, q in pre.items():
            if not isinstance(q, Var) or value(q) != 0.0:
                continue
            probs = self._node_probs(node, s)
            lks = [
                lk for lk in self.by_tail[node] if value(probs[lk.id]) > 0.0
            ]
            if not lks or any(value(S[lk.id]) <= 1e-12 for lk in lks):
                continue
            out_s = tape.div(q, dt)
            for lk in lks:
                p = probs[lk.id]
                flow = tape.mul(out_s, p)
                f_in[lk.id] = tape.add(f_in[lk.id], flow)
                f_in_s[lk.id][s] = tape.add(f_in_s[lk.id].get(s, 0.0), flow)
            self.inj[node][s].append(
                tape.add(self.inj[node][s][-1], tape.mul(dt, out_s))
            )
            pre[s] = tape.sub(q, q)

    def _junction_step(self, node, t, D, S, f_in, f_out, f_in_s):
        inlinks = self.by_head[node]
        if not self.by_tail[node]:
            return  # dead end; routed flow never reaches here
        if all(value(D[lk.id]) <= 0.0 for lk in inlinks):
            return

        comps = []
        for lk in inlinks:
            c = composition(self.tape, lk, t)
            if c is None:
                c = self._neutral_composition(node)
                if c is None:
                    raise EngineError(
                        f"node {node}: no destination reachable for inlink {lk.id}"
                    )
            comps.append(c)

        qin, _ = self._transfer(
            node, [D[lk.id] for lk in inlinks], comps,
            [lk.alpha for lk in inlinks], S, f_in, f_in_s,
        )
        for lk, q in zip(inlinks, qin):
            f_out[lk.id] = q

    # ------------------------------------------------------------------
    # virtual vehicle tracing (post-scan, same tape)

    def trace_trip(self, t0: float, origin: str, destination: str) -> Trajectory:
        tape = self.tape
        dt = self.scn.config.dt
        if self.scn.nodes.get(origin) != "origin":
            raise EngineError(f"{origin} is not an origin node")
        dm_indices = [
            i
            for i, dm in enumerate(self.scn.demands)
            if dm.origin == origin and dm.destination == destination
        ]
        if not dm_indices:
            raise EngineError(f"no demand from {origin} to {destination}")

        N0 = 0.0
        for i in dm_indices:
            N0 = tape.add(N0, self.demand_cumulative(i, t0))
        inj_curve = self.inj[origin][destination]
        if value(N0) > value(inj_curve[-1]) + 1e-9:
            raise TripIncompleteError(
                f"vehicle departing {origin} at t={t0} never leaves the origin queue"
            )
        # A departure between two injections (or outside the demand window)
        # enters no earlier than t0; at an exact tie the injection curve
        # keeps the gradient.
        t_enter = tape.max2(
            tape.mul(inverse_cumcount(tape, inj_curve, N0), dt), t0
        )

        # earliest-arrival label setting on realized exit times (FIFO links)
        import heapq

        arrival: dict[str, object] = {origin: t_enter}
        back: dict[str, tuple[str, object]] = {}
        heap = [(value(t_enter), origin)]
        done = set()
        order = 0
        while heap:
            tv, n = heapq.heappop(heap)
            if n in done:
                continue
            done.add(n)
            if n == destination:
                break
            for lk in self.by_tail[n]:
                if not self.scn.reaches(lk.head, destination):
                    continue
                try:
                    t_exit = vehicle_exit_time(tape, lk, arrival[n], dt)
                except TripIncompleteError:
                    continue
                if lk.head not in done and (
                    lk.head not in arrival or value(t_exit) < value(arrival[lk.head])
                ):
                    arrival[lk.head] = t_exit
                    back[lk.head] = (n, lk.id)
                    order += 1
                    heapq.heappush(heap, (value(t_exit), lk.head))
        if destination not in done:
            stuck = ", ".join(lk.id for lk in self.by_tail[origin])
            raise TripIncompleteError(
                f"trip {origin}->{destination} departing t={t0} does not finish "
                f"within T_max (first links tried: {stuck})"
            )

        path = []
        exits = []
        n = destination
        while n != origin:
            prev, lid = back[n]
            path.append(lid)
            exits.append(arrival[n])
            n = prev
        path.reverse()
        exits.reverse()
        return Trajectory(
            t0=t0,
            origin=origin,
            destination=destination,
            links=path,
            exit_times=exits,
            travel_time=tape.sub(arrival[destination], t0),
        )


# ----------------------------------------------------------------------
# free functions


def run(scenario: Scenario, params: ParameterSet | None = None, values=None,
        grad: bool = True) -> SimResult:
    """Convenience wrapper: build a Simulator and execute the scan."""
    return Simulator(scenario, params=params, values=values, grad=grad).run()


def inverse_cumcount(tape: Tape, curve: list, N):
    """Earliest fractional index at which a cumulative curve reaches N.

    Bracket located by binary search on forward values (discrete); the
    fractional part by reverse linear interpolation (differentiable in the
    curve values and N).  On a flat segment the left edge is returned.
    """
    Nv = value(N)
    vals = [value(c) for c in curve]
    if Nv > vals[-1] + 1e-9:
        raise TripIncompleteError("target count exceeds the curve's final value")
    # a target within the tolerance above the final value is reached where
    # the curve first attains that value, not at the end of the horizon
    i = bisect_left(vals, min(Nv, vals[-1]))
    if i == 0:
        return 0.0
    denom = tape.sub(curve[i], curve[i - 1])
    frac = tape.div(tape.sub(N, curve[i - 1]), denom)
    return tape.add(float(i - 1), frac)


def vehicle_exit_time(tape: Tape, link: LinkDyn, t_enter, dt: float):
    """Exit time (s) of a virtual vehicle entering `link` at `t_enter` (s).

    max of the free-flow arrival and the queuing constraint obtained by
    inverting the downstream cumulative curve at the vehicle's index.
    Raises `TripIncompleteError` if the vehicle exits after the horizon.
    """
    tau = tape.div(t_enter, dt)
    N = interp(tape, link.NU, tau)
    if value(N) > value(link.ND[-1]) + 1e-9:
        raise TripIncompleteError(f"vehicle does not clear link {link.id}")
    t_cross = tape.mul(inverse_cumcount(tape, link.ND, N), dt)
    free = tape.add(t_enter, tape.div(link.d, link.u))
    t_exit = tape.max2(free, t_cross)
    if value(t_exit) > (len(link.ND) - 1) * dt + 1e-9:
        raise TripIncompleteError(f"vehicle exits link {link.id} after T_max")
    return t_exit


def objective_ttt(result: SimResult, links=None):
    """Total travel time (veh*s): on-link time plus origin queue time.

    With a link subset, only those links' terms are summed (no queue term).
    """
    tape = result.tape
    if links is None:
        total = result.ttt_queue
        for v in result.ttt_link.values():
            total = tape.add(total, v)
        return total
    total = 0.0
    for lid in links:
        total = tape.add(total, result.ttt_link[lid])
    return total


def objective_att(result: SimResult, link_id: str):
    """Average instantaneous travel time (s) of one link over the horizon."""
    tape = result.tape
    T = result.config.n_steps
    total = 0.0
    for t in range(T):
        total = tape.add(total, result.travel_time_at(link_id, t))
    return tape.div(total, float(T))


def build_objective(spec: str, lam: float = 0.0):
    """Objective builder from a textual spec.

    Forms: 'ttt' | 'ttt-link:<id>' | 'att-link:<id>' |
    'trip:<t0>:<origin>:<dest>' | 'toll-J' (TTT + lam * sum of squared tolls).
    """
    if spec == "ttt":
        return lambda res: objective_ttt(res)
    if spec.startswith("ttt-link:"):
        lid = spec.split(":", 1)[1]
        return lambda res: objective_ttt(res, links=[lid])
    if spec.startswith("att-link:"):
        lid = spec.split(":", 1)[1]
        return lambda res: objective_att(res, lid)
    if spec.startswith("trip:"):
        t0, orig, dest = parse_trip(spec[len("trip:"):])
        return lambda res: res.trace_trip(t0, orig, dest).travel_time
    if spec == "toll-J":

        def toll_obj(res):
            tape = res.tape
            total = objective_ttt(res)
            for tv in res._sim.all_toll_values():
                total = tape.add(total, tape.mul(lam, tape.mul(tv, tv)))
            return total

        return toll_obj
    raise ScenarioError(f"unknown objective spec {spec!r}")


def parse_trip(spec: str) -> tuple[float, str, str]:
    """(t0, origin, destination) from a 'T0:ORIGIN:DEST' trip spec."""
    parts = spec.split(":")
    if len(parts) == 3:
        try:
            return float(parts[0]), parts[1], parts[2]
        except ValueError:
            pass
    raise ScenarioError(f"malformed trip spec {spec!r}: expected T0:ORIGIN:DEST")
