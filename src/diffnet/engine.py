"""Simulation engine: the timestep scan and derived outputs.

One `Simulator` owns one tape and executes the full scan
x_{t+1} = g(x_t, t; theta).  Registered parameters become tape inputs; with
`grad=False`, or with no parameter, every input is a plain float and the run
uses a `FloatTape`: the same scan on plain float operations, recording
nothing (the finite-difference and SPSA paths).  A float run steps its links
as one `LinkLayer`: each step's sending and receiving rates of every link,
and every link's boundary update, are a few array operations.  Routing
weights stay per link, and the node model per node.

One routine, `Simulator._node_step`, steps every node: an origin is a node
whose inflows are its queues, as a junction's are its inlinks.  Each inflow
group goes through the node model and is booked where it belongs: a
junction's inlinks into the links' outflows, an origin's queues into those
queues and their injection curves.  The node stage also owns the links'
per-destination counts `NU_s`, which DUO's diverge ratios read.  On a taped
run it books a step's per-destination inflows into one sparse map, from
which `run` advances the counts on the tape's `madd`, and `composition`,
`normalized_shares` and `fifo_split` read them as shares.  A float run in
which some link keeps `NU_s` keeps them in one `_DestLayer` of (S, L)
arrays: each step every link's shares, every junction inlink's composed
row, every outlink's booked inflows and the count update are a few array
operations, equal bit for bit to those scalar routines, which stay the
taped path, the layer's oracle and a one-destination float run's path;
each link's `NU_s` is written back once, after the scan.

Derived outputs (total travel time, absorbed vehicles, per-link travel-time
averages, virtual vehicle trips) are recorded on the same tape after the
scan, which carries only state, so one backward sweep gives their adjoints.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .adcore import FLOAT, GUARD_EPS, FloatTape, Tape, Var, value
from .ltm import LinkDyn, LinkLayer, interp
from .nodemodel import B_EPS, inm_fixed
from .routing import (
    build_routing,
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
    "normalized_shares",
    "composition",
    "fifo_split",
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
        self.links: dict[str, LinkDyn] = {lk.id: lk for lk in sim.links}
        self.param_vars = sim.param_vars
        self.queues = sim.queue_hist  # origin -> dest -> [veh per step]
        self.inj = sim.inj  # origin -> dest -> cumulative injection curve
        self.forward_time = sim.forward_time
        self._sim = sim

        # each link's travel time, one entry over its curves; then one pass
        # over the state of each step: the queue travel time, queue by queue
        # (one entry over every step), and, in floats, the conservation
        # error (max abs veh) of that state and of the state after the last
        # step.  Each destination absorbed its inlinks' `ND`, so a sink link
        # that delivers more than it received balances; the error also takes
        # the vehicles below zero on any link.
        tape, dt, sinks, T = sim.tape, self.config.dt, sim._sinks, self.config.n_steps
        links, curves = sim.links, sim._values
        self.ttt_link = {  # link id -> veh*s
            lk.id: time_on_link(tape, lk.NU[:T], lk.ND[:T], c.NU, c.ND, dt)
            for lk, c in zip(links, curves)}
        hists = [h for per_dest in self.queues.values() for h in per_dest.values()]

        def error(t: int, queues) -> float:
            onlink = queued = below = 0.0
            for c in curves:
                n = c.NU[t] - c.ND[t]
                onlink += n
                if -n > below:
                    below = -n
            for q in queues:
                queued += q.val if type(q) is Var else q
            absorbed = sum(curves[i].ND[t] for _, i in sinks)
            return max(abs(sim._injected(t * dt) - (onlink + queued + absorbed)),
                       below)

        queued, read, worst = 0.0, [], 0.0
        for t in range(T):
            state = [h[t] for h in hists]
            for q in state:
                if type(q) is Var:
                    queued += dt * q.val
                    read.append(q)
                else:
                    queued += dt * q
            worst = max(worst, error(t, state))
        self.ttt_queue = tape.lin(queued, read, itertools.repeat(dt))
        ends = [q for per_dest in sim.queue.values() for q in per_dest.values()]
        self.conservation_error = max(worst, error(T, ends))
        self.absorbed = {s: 0.0 for s in sim.dests}  # dest -> veh (Var/float)
        for s, i in sinks:
            split = fifo_split(tape, links[i], links[i].ND[-1])
            self.absorbed[s] = tape.add(self.absorbed[s], split[s])

    # post-scan outputs -------------------------------------------------

    def trace_trip(self, t0: float, origin: str, destination: str) -> Trajectory:
        return self._sim.trace_trip(t0, origin, destination)

    def travel_time_at(self, link_id: str, t: int):
        return self._sim.link_travel_time(self.tape, self.links[link_id], t)


class _NodePlan:
    """What the node stage reads of one node, and the node's routing rows.

    `ins` and `inlinks` are the node's inlink numbers and `LinkDyn`s, and
    `alpha` their merge priorities.  `outs` are the outlink numbers,
    `keeps[j]` says whether outlink j keeps per-destination counts (`NU_s`).
    `split` says whether the node step records each inflow's per-destination
    outflows: at an origin, whose queues they leave, and at a junction with
    an outlink that keeps `NU_s`, the one place a junction's are read.
    `dests` are the destinations the outlinks lead to, in scenario order.
    `choice` holds those where a logit row has a choice, the only rows that
    read tree costs: more than one outlink leads there and mu > 0 (empty
    under mu = 0).  `rows[s]` is the turning row toward s, by outlink
    position, built at a refresh for the next hop `hops[s]`, and `nz[s]`
    its (position, fraction) pairs that are not a plain 0.0, in position
    order.  `routes[s]` are the (position, fraction) pairs of that row over
    which the vehicles toward s are counted per destination: those of
    outlinks that keep `NU_s`, at fractions above `B_EPS` on values, the
    node model's connections.
    """

    __slots__ = ("node", "kind", "ins", "inlinks", "alpha", "outs", "keeps",
                 "split", "dests", "choice", "rows", "nz", "routes", "hops")

    def __init__(self, node, kind, net, links, dests, mu):
        self.node = node
        self.kind = kind
        self.ins = net.inlinks[node]
        self.inlinks = [links[i] for i in self.ins]
        self.alpha = [lk.alpha for lk in self.inlinks]
        self.outs = net.outlinks[node]
        self.keeps = [bool(links[o].NU_s) for o in self.outs]
        self.split = kind == "origin" or any(self.keeps)
        leads = {s: sum(s in links[o].dests for o in self.outs) for s in dests}
        self.dests = [s for s in dests if leads[s]]
        self.choice = {s for s in dests if leads[s] > 1 and mu > 0.0}
        self.rows: dict[str, list] = {}
        self.nz: dict[str, list[tuple[int, object]]] = {}
        self.routes: dict[str, list[tuple[int, object]]] = {}
        self.hops: dict[str, int] = {}

    def set_row(self, s: str, hop: int, row: list) -> None:
        """Make `row`, built for the next hop `hop`, the row toward s."""
        self.hops[s] = hop
        self.rows[s] = row
        self.nz[s] = [(j, p) for j, p in enumerate(row)
                      if type(p) is Var or p != 0.0]
        self.routes[s] = [(j, p) for j, p in self.nz[s] if self.keeps[j]
                          and (p.val if type(p) is Var else p) > B_EPS]


class _DestLayer:
    """A float run's per-destination bookkeeping, for every link at once.

    Arrays are (S, L): a row per destination, in `Scenario.destinations`
    order, and a column per link.  `counts` holds every link's `NU_s` in
    the rows that `mask` marks, and `base` every link's shares while it is
    empty.  Each step `shares` gives every link's `composition`, `compose`
    every junction inlink's composed row and `book` every outlink's
    per-destination inflows; `run` then advances `counts + dt * F`.  Each
    does, elementwise and in the order of its sums, the float operations of
    the scalar routines (`composition`, `_transfer` and the `tape.madd`
    loop, which stay the taped path), so it gives their values bit for bit.
    `P` (S, L, J) holds under each junction inlink its head's rows, and
    `route` under each outlink that keeps `NU_s` its fraction of its tail's
    row in `_NodePlan.routes` (else 0.0); `feed` (I, L) are the inlinks of
    each outlink's tail, and `fed` marks them.
    """

    __slots__ = ("links", "col", "mask", "multi", "base", "counts", "head",
                 "P", "route", "feed", "fed", "C", "rows")

    def __init__(self, links, dests, plans):
        L, S = len(links), len(dests)
        self.links = links
        self.col = {s: k for k, s in enumerate(dests)}
        self.mask = np.zeros((S, L), dtype=bool)
        self.base = np.zeros((S, L))
        for l, lk in enumerate(links):
            self.mask[[self.col[s] for s in lk.NU_s], l] = True
            if lk.dests:
                rows = [self.col[s] for s in lk.dests]
                self.base[rows, l] = 1.0 / len(rows)
        self.multi = self.mask.any(axis=0)
        self.counts = np.zeros((S, L))
        junctions = [p for p in plans if p.kind != "origin"]
        J = max((len(p.outs) for p in junctions), default=0)
        I = max((len(p.ins) for p in junctions), default=0)
        self.P = np.zeros((S, L, J))
        self.route = np.zeros((S, L))
        self.feed = np.zeros((I, L), dtype=np.intp)
        self.fed = np.zeros((I, L), dtype=bool)
        self.head = [()] * L  # the inlinks of each link's head junction
        for plan in junctions:
            for i in plan.ins:
                self.head[i] = plan.ins
            for o in plan.outs:
                self.feed[:len(plan.ins), o] = plan.ins
                self.fed[:len(plan.ins), o] = True

    def set_row(self, plan, s, row) -> None:
        k = self.col[s]
        self.P[k, plan.ins, :len(row)] = row
        self.route[k, plan.outs] = 0.0
        for j, p in plan.routes[s]:
            self.route[k, plan.outs[j]] = p

    def shares(self, total, D):
        """Every link's `composition` at its upstream count `total`: 1.0
        for its destination if it reaches one; if several, the even split
        while `total <= 0.0`, else `divg(n_s, total)` over the share sum
        added in destination order.  Where that sum is 0.0 it raises
        `ZeroDivisionError`, as the scalar division does, if the link's
        head steps (an inlink has demand `D` above 0.0)."""
        sh = self.counts / np.where(total >= GUARD_EPS, total, GUARD_EPS)
        # a destination the link does not reach has the count 0.0, and
        # adding its share 0.0 to the sum moves nothing
        ssum = np.zeros(len(total))
        for row in sh:
            ssum = ssum + row
        norm = self.multi & ~(total <= 0.0)
        den = np.where(norm, ssum, 1.0)
        if not den.all():  # as the scalar path, if a node step reads it
            for l in np.flatnonzero(den == 0.0):
                if any(not D[i] <= 0.0 for i in self.head[l]):
                    raise ZeroDivisionError("float division by zero")
            den[den == 0.0] = 1.0
        self.C = np.where(self.mask & norm, sh / den, self.base)
        return self.C

    def compose(self) -> list:
        """Each junction inlink's row `sum_s c_s * p_s`, added in
        destination order over the fractions that are not 0.0: a list per
        link, as long as the longest outlink list."""
        B = np.zeros(self.P.shape[1:])
        for term in np.where(self.P != 0.0, self.C[:, :, None] * self.P, 0.0):
            B = B + term
        self.rows = B.tolist()
        return self.rows

    def book(self, f_out, f_in_s):
        """The step's per-destination inflows `F`: under each junction
        outlink that keeps `NU_s`, `(q * c_s) * p` over its tail's inlinks,
        added in inlink order, q their outflows `f_out`; under an origin's
        outlinks, what the origin booked into `f_in_s`."""
        booked = self.fed[None] & (self.mask & (self.route != 0.0))[:, None]
        fs = np.array(f_out) * self.C
        terms = np.where(booked, fs.take(self.feed, axis=1)
                         * self.route[:, None], 0.0)
        F = np.zeros(self.counts.shape)
        for i in range(terms.shape[1]):
            F = F + terms[:, i]
        col, mask = self.col, self.mask
        for o, into in f_in_s.items():
            for s, f in into.items():
                if mask[col[s], o]:
                    F[col[s], o] = f
        return F

    def write_back(self) -> None:
        col, counts = self.col, self.counts.tolist()
        for l, lk in enumerate(self.links):
            for s in lk.NU_s:
                lk.NU_s[s] = counts[col[s]][l]


class Simulator:
    def __init__(self, scenario: Scenario, params: ParameterSet | None = None,
                 values=None, grad: bool = True):
        scenario.validate()
        if params is None and values is not None:
            raise EngineError("values given without a parameter set")
        self.scn = scenario
        # a run with no Var input records nothing: bind the float op table
        self.tape = Tape() if grad and params else FloatTape()
        self.param_vars: dict[str, object] = {}
        self._link_over: dict[str, dict[str, object]] = {}
        self._demand_over: dict[int, object] = {}
        # toll of link number i in period p, `_tolls[p][i]`: the schedule
        # (cut to the horizon's periods, padded with 0.0), then registered
        # tolls on top
        n_periods = scenario.config.n_toll_periods
        number = {lp.id: i for i, lp in enumerate(scenario.links)}
        self._tolls = [[0.0] * len(scenario.links) for _ in range(n_periods)]
        tolled = set()
        for lid, vals in scenario.tolls.values.items():
            for row, v in zip(self._tolls, vals):
                row[number[lid]] = v
            tolled.add(number[lid])
        if params is not None:
            vals = [float(v) for v in (params.base_values if values is None
                                       else values)]
            if len(vals) != len(params):
                raise EngineError("values length does not match parameter set")
            params.validate(scenario, vals)
            for p, v in zip(params.params, vals):
                var = self.tape.input(v) if grad else v
                self.param_vars[p.name] = var
                if p.kind == "link":
                    lid, attr = p.target
                    self._link_over.setdefault(lid, {})[attr] = var
                elif p.kind == "demand":
                    self._demand_over[p.target[0]] = var
                else:
                    lid, period = p.target
                    self._tolls[period][number[lid]] = var
                    tolled.add(number[lid])
        self._tolled = sorted(tolled, key=lambda i: scenario.links[i].id)
        self._toll_values = [[value(x) for x in row] for row in self._tolls]

        dests = scenario.destinations
        self.net = scenario.network
        # indexed by link number; each link keeps the destinations its head
        # reaches, in `dests` order
        reaching = [self.net.reaching[s] for s in dests]
        self.links: list[LinkDyn] = [
            LinkDyn(self.tape, lp,
                    [s for s, r in zip(dests, reaching) if lp.head in r],
                    **self._link_over.get(lp.id, {}))
            for lp in scenario.links
        ]

        self.dests = dests
        # origin queues cover the destinations each origin has demand for,
        # in `dests` order; the others would stay at 0.0 forever
        self.queue: dict[str, dict[str, object]] = {}
        for o in scenario.origins:
            wanted = {scenario.demands[i].destination
                      for i in self.net.origin_demands[o]}
            self.queue[o] = {s: 0.0 for s in dests if s in wanted}
        self.queue_hist = {o: {s: [] for s in q} for o, q in self.queue.items()}
        self.inj = {o: {s: [0.0] for s in q} for o, q in self.queue.items()}

        # demand intervals and toll periods in whole steps (edges and widths
        # are validated multiples of dt); a demand rate that is not 0 is its
        # registered Var, if any
        dt = scenario.config.dt
        self._demand_steps = [
            [(round(t0 / dt), round(t1 / dt),
              0.0 if q == 0.0 else self._demand_over.get(i, q))
             for t0, t1, q in dm.profile]
            for i, dm in enumerate(scenario.demands)
        ]
        self._toll_steps = round(scenario.config.dt_toll / dt)

        # the node stage visits, in node order, the origins with a queue and
        # the junctions with outlinks (the others transfer nothing)
        self._plans = [
            _NodePlan(node, kind, self.net, self.links, dests,
                      scenario.config.mu)
            for node, kind in scenario.nodes.items()
            if (node in self.queue if kind == "origin"
                else self.net.outlinks[node])]
        # (destination, link number) of each demanded destination's inlinks:
        # they deliver their whole demand, of that destination's vehicles only
        self._sinks = [(s, i) for s in dests for i in self.net.inlinks[s]]
        # the links whose tree costs a logit row reads, per destination: the
        # outlinks toward it of each node with a choice there.  Empty when
        # no row of the run reads a tree cost
        reads = {s: [o for plan in self._plans if s in plan.choice
                     for o in plan.outs if s in self.links[o].dests]
                 for s in dests}
        self._reads = {s: read for s, read in reads.items() if read}
        self._weights = None  # the link weights of the last refresh
        # each link's forward values: its `vals`, or the link itself on a
        # float run, whose links step together as one layer
        self._values = [lk.vals or lk for lk in self.links]
        self._layer = self._dests = None
        if isinstance(self.tape, FloatTape):
            self._layer = LinkLayer(self.links, scenario.config.n_steps)
            # a one-destination run keeps no per-destination counts, and a
            # layer would cost it more than it saves (ROADMAP item 10)
            if any(lk.NU_s for lk in self.links):  # several destinations
                self._dests = _DestLayer(self.links, dests, self._plans)

    # ------------------------------------------------------------------
    # parameter-aware accessors

    def demand_rate(self, idx: int, t: int):
        """Rate of demand `idx` during step t: its registered Var, if any,
        wherever the profile's rate is not 0."""
        for k0, k1, rate in self._demand_steps[idx]:
            if k0 <= t < k1:
                return rate
        return 0.0

    def demand_cumulative(self, idx: int, t_sec: float):
        over = self._demand_over.get(idx)
        if over is None:
            return self.scn.demands[idx].cumulative(t_sec)
        return self.tape.mul(over, self._demand_seconds(idx, t_sec))

    def _demand_seconds(self, idx: int, t_sec: float) -> float:
        """Seconds before t_sec during which demand `idx` has a nonzero rate."""
        dur = 0.0
        for t0, t1, q in self.scn.demands[idx].profile:
            if q != 0.0:
                dur += max(0.0, min(t_sec, t1) - t0)
        return dur

    def _injected(self, t_sec: float) -> float:
        """Vehicles demanded before t_sec over all demands, in floats."""
        total = 0.0
        for i, dm in enumerate(self.scn.demands):
            over = self._demand_over.get(i)
            if over is None:
                total += dm.cumulative(t_sec)
            else:
                total += value(over) * self._demand_seconds(i, t_sec)
        return total

    def all_toll_values(self):
        """Every toll scalar (Var where registered), for regularization terms:
        tolled links by id, then period."""
        return [row[i] for i in self._tolled for row in self._tolls]

    # ------------------------------------------------------------------

    def link_travel_time(self, tape: Tape, link, t: int):
        """Travel time of `link` (a `LinkDyn`, or a taped link's `vals` on
        `FLOAT`) at step t."""
        cfg = self.scn.config
        if cfg.tt_method == "segments":
            return travel_time_segments(tape, link, t, cfg.M, cfg.dt)
        return travel_time_avg(tape, link, t)

    def _refresh_routing(self, t: int) -> None:
        """New routing rows for the visited nodes, fixed until the next
        refresh.

        Only a logit row with a choice (`_NodePlan.choice`) reads tree
        costs, so only a run with such a row (`_reads` not empty) weighs its
        links and builds its table on its tape.  Any other run, whatever its
        mu, weighs them on `FLOAT` over forward values and builds the table
        with no tree cost at all.  The tolls of the step's period are read
        as one row.  A refresh whose link weights all equal the last
        refresh's (equal floats, or the very same `Var`s) keeps the table's
        next hops and every row: a rebuild would give them exactly.
        Otherwise a (node, destination) row is rebuilt when the node's next
        hop there changed since the row was built, or when the node has a
        choice there: those rows read the new tree costs.  A negative weight
        raises `EngineError`.
        """
        reads = self._reads
        period = t // self._toll_steps
        if reads:
            rtape, links, tolls = self.tape, self.links, self._tolls[period]
        else:
            rtape, links, tolls = FLOAT, self._values, self._toll_values[period]
        weigh, add = self.link_travel_time, rtape.add
        weights = [add(weigh(rtape, lk, t), toll)
                   for lk, toll in zip(links, tolls)]
        if weights == self._weights:
            return
        self._weights = weights
        try:
            table = build_routing(rtape, self.net.reverse, weights,
                                  self.dests, reads)
        except ValueError as exc:  # a negative weight
            raise EngineError(f"routing at step {t}: {exc}") from None
        tape, mu, next_link = self.tape, self.scn.config.mu, table.next_link
        dl = self._dests
        for plan in self._plans:
            node, outs, hops = plan.node, plan.outs, plan.hops
            for s in plan.dests:
                hop = next_link[s][node]
                if hop != hops.get(s) or s in plan.choice:
                    row = turning_probs(tape, table, node, outs, s, mu)
                    plan.set_row(s, hop, row)
                    if dl is not None and plan.kind != "origin":
                        dl.set_row(plan, s, row)

    # ------------------------------------------------------------------

    def run(self) -> SimResult:
        t_start = time.perf_counter()
        tape, cfg = self.tape, self.scn.config
        dt = cfg.dt
        T = cfg.n_steps
        rs = cfg.route_steps
        links, layer, dl = self.links, self._layer, self._dests
        L = len(links)

        for t in range(T):
            if t % rs == 0:
                self._refresh_routing(t)

            # --- demand / supply: per link, or for the float run's layer
            if layer is None:
                D = [lk.demand(tape, t, dt) for lk in links]
                S = [lk.supply(tape, t, dt) for lk in links]
            else:
                D = LinkDyn.demand(layer, tape, t, dt)
                S = LinkDyn.supply(layer, tape, t, dt)

            f_in: list = [0.0] * L
            f_out: list = [0.0] * L
            f_in_s: dict[int, dict] = {}  # link number -> dest -> veh/s
            for _, i in self._sinks:
                f_out[i] = D[i]

            # --- node transfers ----------------------------------------
            if dl is not None:  # every link's shares and composed rows
                dl.shares(layer.NU[:, t], D)
                dl.compose()
            for plan in self._plans:
                self._node_step(plan, t, dt, D, S, f_in, f_out, f_in_s)

            # --- boundary updates --------------------------------------
            try:
                if layer is None:
                    for lk, fi, fo in zip(links, f_in, f_out):
                        lk.update_boundaries(tape, dt, fi, fo)
                else:
                    LinkDyn.update_boundaries(layer, tape, dt, f_in, f_out)
            except ValueError as exc:  # a flow that is NaN, inf or negative
                raise EngineError(str(exc)) from None

            # --- per-destination counts: a link that booked none keeps its
            # counts, for none is ever -0.0, so n + dt * 0.0 is n
            if dl is not None:
                dl.counts = dl.counts + dt * dl.book(f_out, f_in_s)
                continue
            for i, f in f_in_s.items():
                counts = links[i].NU_s
                for s, n in counts.items():
                    counts[s] = tape.madd(n, dt, f.get(s, 0.0))

        if dl is not None:
            dl.write_back()
        self.forward_time = time.perf_counter() - t_start
        return SimResult(self)

    # ------------------------------------------------------------------

    def _node_step(self, plan, t, dt, D, S, f_in, f_out, f_in_s):
        """Step t of one node: each inflow group through `_transfer`,
        booked where it belongs (at a junction of a float run with a
        `_DestLayer`, through `inm_fixed` on the layer's composed rows: the
        layer books the per-destination inflows).

        A junction's inlinks are one group (skipped when every demand is
        <= 0), booked into `f_out`.  An origin records its queues, pads each
        injection curve with a copy of its last entry and adds the step's
        arrivals; each inflow's outflow toward s then leaves queue s and
        books into the last entry of curve s.  An exactly-empty `Var` queue
        may still carry sensitivities (it was positive under an
        infinitesimal parameter change): it is an inflow of its own, of
        share `{s: 1.0}` and demand q / dt, served first.  Where no outlink
        it feeds is spent, the sensitivity leaves with the flow and none of
        it reaches the positive queues' total; where one is, the queue keeps
        its very Var.  The positive queues then leave as one inflow whose
        shares are their queue shares.
        """
        tape = self.tape
        if plan.kind != "origin":
            # plain loops: a comprehension is a call of its own
            ins, D_in = plan.ins, []
            for i in ins:
                D_in.append(D[i])
            for d in D_in:
                if not (d.val if type(d) is Var else d) <= 0.0:
                    break
            else:
                return  # no inlink has demand
            if self._dests is None:
                comps = []
                for lk in plan.inlinks:
                    comps.append(composition(tape, lk))
                qin, _ = self._transfer(plan, D_in, comps, S, f_in, f_in_s)
            else:  # the layer composed the rows, and books the inflows
                outs, rows, B = plan.outs, self._dests.rows, []
                for i in ins:
                    B.append(rows[i][:len(outs)])
                qin, qout = inm_fixed(tape, D_in, [S[o] for o in outs], B,
                                      plan.alpha)
                for o, q in zip(outs, qout):
                    f_in[o] += q
            k = 0
            for i in ins:
                f_out[i] = qin[k]
                k += 1
            return

        node, madd = plan.node, tape.madd
        queue, hist, inj = (self.queue[node], self.queue_hist[node],
                            self.inj[node])
        for s, q in queue.items():
            hist[s].append(q)
            inj[s].append(inj[s][-1])
        # arrivals join the per-destination vertical queue
        for i in self.net.origin_demands[node]:
            s = self.scn.demands[i].destination
            queue[s] = madd(queue[s], dt, self.demand_rate(i, t))

        # the inflows in turn: each exactly-empty Var queue, then (None) the
        # positive queues, whose total reads what the first ones left
        empty = [s for s, q in queue.items() if type(q) is Var and q.val == 0.0]
        for e in empty + [None]:
            if e is not None:
                comp, d = {e: 1.0}, tape.div(queue[e], dt)
            else:
                total = 0.0
                for q in queue.values():
                    total = tape.add(total, q)
                if not (total.val if type(total) is Var else total) > 0.0:
                    break
                comp = normalized_shares(tape, {
                    s: q for s, q in queue.items()
                    if (q.val if type(q) is Var else q) > 0.0}, total)
                d = tape.div(total, dt)
            _, (out,) = self._transfer(plan, [d], [comp], S, f_in, f_in_s)
            for s, out_s in out.items():
                queue[s] = madd(queue[s], -dt, out_s)
                cur = inj[s]
                cur[-1] = madd(cur[-2], dt, out_s)

    def _transfer(self, plan, D, comps, S, f_in, f_in_s):
        """Node model at one node with outlinks, for a junction's inlinks
        or for one origin inflow (see `_node_step`).

        Builds one turning-fraction row per inflow from the node's rows,
        built at the routing refresh.  An inflow with a single plain-float
        share 1.0 (one destination) uses that destination's row itself: for
        it the sum `add(0.0, mul(1.0, p))` is `p`.  Any other inflow's row
        sums c[s] * p over its destinations, in their order, for each
        outlink.  A plain 0.0 fraction adds nothing to any flow, so every
        sum here reads only the rows' other fractions, `plan.nz`.
        Allocates flow with the INM, at the inlinks' priorities
        `plan.alpha` (an origin has none, and one inflow reads none), and
        adds the aggregate inflows to the outlinks.  Where `plan.split`, it
        also records each inflow's per-destination outflows and books them,
        routed over `plan.routes`, into `f_in_s` under the outlinks that
        keep per-destination counts; the node's only inflow, of the plain
        share 1.0, books the outlink inflows the node model recorded, B[o] *
        q, rather than recording q * p again.  The node model feeds an outlink where the
        inflow's row is above `B_EPS`, so the per-destination inflows an
        outlink gets from a one-destination inflow sum to its inflow; from a
        mixed inflow they differ from it by at most what fractions of at
        most `B_EPS` carry.  Returns the per-inflow totals and, where
        `plan.split`, the per-inflow per-destination outflows (else `None`).
        """
        tape = self.tape
        add, mul = tape.add, tape.mul
        outs, rows, nz = plan.outs, plan.rows, plan.nz
        B = []
        for c in comps:
            if len(c) == 1:
                ((s, cs),) = c.items()
                if cs == 1.0 and type(cs) is float:
                    B.append(rows[s])
                    continue
            row = [0.0] * len(outs)
            for s, cs in c.items():
                for j, p in nz[s]:
                    row[j] = add(row[j], mul(cs, p))
            B.append(row)

        qin, qout = inm_fixed(tape, D, [S[o] for o in outs], B, plan.alpha)
        for o, q in zip(outs, qout):
            f_in[o] = add(f_in[o], q)
        if not plan.split:
            return qin, None

        per_dest = []
        routes = plan.routes
        for q, c, row in zip(qin, comps, B):
            out = {}
            for s, cs in c.items():
                fs = out[s] = mul(q, cs)
                # the node's only inflow, of the plain share 1.0: the node
                # model recorded its flow to each fed outlink, B[o] * q, as
                # that outlink's inflow
                alone = len(B) == 1 and row is rows[s]
                for j, p in routes[s]:
                    into = f_in_s.setdefault(outs[j], {})
                    into[s] = add(into.get(s, 0.0),
                                  qout[j] if alone else mul(fs, p))
            per_dest.append(out)
        return qin, per_dest

    # ------------------------------------------------------------------
    # virtual vehicle tracing (post-scan, same tape)

    def trace_trip(self, t0: float, origin: str, destination: str) -> Trajectory:
        tape, net = self.tape, self.net
        dt = self.scn.config.dt
        if not 0.0 <= t0 < math.inf:
            raise ScenarioError(f"trip departure time {t0!r} must be finite and >= 0")
        if self.scn.nodes.get(origin) != "origin":
            raise EngineError(f"{origin} is not an origin node")
        dm_indices = [
            i
            for i in net.origin_demands.get(origin, ())
            if self.scn.demands[i].destination == destination
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
        arrival: dict[str, object] = {origin: t_enter}
        back: dict[str, tuple[str, object]] = {}
        heap = [(value(t_enter), origin)]
        done = set()
        while heap:
            tv, n = heapq.heappop(heap)
            if n in done:
                continue
            done.add(n)
            if n == destination:
                break
            for i in net.outlinks[n]:
                lk = self.links[i]
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
                    heapq.heappush(heap, (value(t_exit), lk.head))
        if destination not in done:
            stuck = ", ".join(self.links[i].id for i in net.outlinks[origin])
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


def normalized_shares(tape: Tape, parts: dict, total):
    """Guarded shares parts[s] / total, renormalized to sum to exactly 1.

    A single part has the share 1.0 as a plain float; taped, it would be
    x/x, whose partials cancel.
    """
    if len(parts) == 1:
        return {s: 1.0 for s in parts}
    shares = {s: tape.divg(x, total) for s, x in parts.items()}
    ssum = 0.0
    for sh in shares.values():
        ssum = tape.add(ssum, sh)
    return {s: tape.div(sh, ssum) for s, sh in shares.items()}


def composition(tape: Tape, link: LinkDyn):
    """Per-destination shares of a link's upstream count now.

    A link whose head reaches one destination has the plain float share
    `{s: 1.0}`, whether it is empty or not.  One that reaches several has
    the even split `1 / len(dests)` while it has seen no vehicles, and its
    normalized `NU_s` shares (summing to 1) once it has.
    """
    dests = link.dests
    if len(dests) == 1:
        return {dests[0]: 1.0}
    total = link.NU[-1]
    if (total.val if type(total) is Var else total) <= 0.0:
        return {s: 1.0 / len(dests) for s in dests}
    return normalized_shares(tape, link.NU_s, total)


def fifo_split(tape: Tape, link: LinkDyn, f_out):
    """Split aggregate outflow across destinations by upstream composition.

    The splits are `f_out` times the link's `composition`, so they sum to
    the aggregate; an empty link splits nothing (a plain 0.0 for each
    destination its head reaches).
    """
    total = link.NU[-1]
    if (total.val if type(total) is Var else total) <= 0.0:
        return {s: 0.0 for s in link.dests}
    return {s: tape.mul(f_out, c) for s, c in composition(tape, link).items()}


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


def time_on_link(tape: Tape, NU: list, ND: list, nu: list, nd: list,
                 dt: float):
    """Vehicle-seconds on a link over the steps of its curves `NU`, `ND`
    (`nu`, `nd` their forward values, at least as long): the chain
    `madd(ttt, dt, max2(sub(NU[t], ND[t]), 0.0))` from ttt = 0.0, in its
    float order, as one entry.  It reads `NU[t]` at dt and `ND[t]` at -dt
    wherever the difference wins, ties included."""
    val, xs, cs = 0.0, [], []
    for a, b, av, bv in zip(NU, ND, nu, nd):
        n = av - bv
        if n >= 0.0:
            if type(a) is Var:
                xs.append(a)
                cs.append(dt)
            if type(b) is Var:
                xs.append(b)
                cs.append(-dt)
        else:
            n = 0.0
        val += dt * n
    return tape.lin(val, xs, cs)


def objective_ttt(result: SimResult, links=None):
    """Total travel time (veh*s): on-link time plus origin queue time, as
    one entry.

    With a link subset, only those links' terms are summed (no queue term).
    """
    if links is None:
        return result.tape.sum([result.ttt_queue, *result.ttt_link.values()])
    for lid in links:
        if lid not in result.ttt_link:
            raise ScenarioError(f"objective names unknown link {lid!r}")
    return result.tape.sum([0.0, *(result.ttt_link[lid] for lid in links)])


def objective_att(result: SimResult, link_id: str):
    """Average instantaneous travel time (s) of one link over the horizon."""
    if link_id not in result.links:
        raise ScenarioError(f"objective names unknown link {link_id!r}")
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
        if not 0 <= lam < math.inf:
            raise ScenarioError(f"toll-J weight lambda={lam} must be finite and >= 0")

        def toll_obj(res):
            mul = res.tape.mul
            return res.tape.sum([objective_ttt(res), *(
                mul(lam, mul(tv, tv)) for tv in res._sim.all_toll_values())])

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
