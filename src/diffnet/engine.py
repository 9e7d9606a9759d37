"""Simulation engine: the timestep scan and derived outputs.

One `Simulator` owns one tape and executes the full scan
x_{t+1} = g(x_t, t; theta).  Registered parameters become tape inputs; with
`grad=False`, or with no parameter, every input is a plain float and the run
uses a `FloatTape`: the same scan on plain float operations, recording
nothing (the finite-difference and SPSA paths).

Derived outputs (total travel time, absorbed vehicles, per-link travel-time
averages, virtual vehicle trips) are recorded on the same tape after the
scan, which carries only state, so one backward sweep gives their adjoints.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from .adcore import FLOAT, FloatTape, Tape, Var, value
from .ltm import LinkDyn, interp
from .nodemodel import ACTIVE_EPS, inm_fixed
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
        self.links: dict[str, LinkDyn] = {lk.id: lk for lk in sim.links}
        self.param_vars = sim.param_vars
        self.queues = sim.queue_hist  # origin -> dest -> [veh per step]
        self.inj = sim.inj  # origin -> dest -> cumulative injection curve
        self.forward_time = sim.forward_time
        self._sim = sim

        # one pass over the state of each step: the travel time terms, link
        # by link then queue by queue, and, in floats, the conservation
        # error (max abs veh) of that state and of the state after the last
        # step.  Each destination absorbed its inlinks' `ND`, so a sink link
        # that delivers more than it received balances; the error also takes
        # the vehicles below zero on any link.
        tape, dt, sinks, T = sim.tape, self.config.dt, sim._sinks, self.config.n_steps
        sub, madd, max2, links = tape.sub, tape.madd, tape.max2, sim.links
        curves = sim._values
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

        ttt, self.ttt_queue, worst = [0.0] * len(links), 0.0, 0.0
        for t in range(T):
            for i, lk in enumerate(links):
                ttt[i] = madd(ttt[i], dt, max2(sub(lk.NU[t], lk.ND[t]), 0.0))
            for h in hists:
                self.ttt_queue = madd(self.ttt_queue, dt, h[t])
            worst = max(worst, error(t, [h[t] for h in hists]))
        ends = [q for per_dest in sim.queue.values() for q in per_dest.values()]
        self.conservation_error = max(worst, error(T, ends))
        self.ttt_link = dict(zip(self.links, ttt))  # link id -> veh*s
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
    `keeps[j]` says whether outlink j keeps per-destination counts (`NU_s`),
    and `nu_s` whether any of them does.  `dests` are the destinations the
    outlinks lead to, in scenario order.  `choice` holds those where a logit
    row has a choice, the only rows that read tree costs: more than one
    outlink leads there and mu > 0 (empty under mu = 0).  `rows[s]` is the
    turning row toward s, by outlink position, built at a refresh for the
    next hop `hops[s]`, and `nz[s]` its (position, fraction) pairs that are
    not a plain 0.0, in position order.
    """

    __slots__ = ("node", "kind", "ins", "inlinks", "alpha", "outs", "keeps",
                 "nu_s", "dests", "choice", "rows", "nz", "hops")

    def __init__(self, node, kind, net, links, dests, mu):
        self.node = node
        self.kind = kind
        self.ins = net.inlinks[node]
        self.inlinks = [links[i] for i in self.ins]
        self.alpha = [lk.alpha for lk in self.inlinks]
        self.outs = net.outlinks[node]
        self.keeps = [bool(links[o].NU_s) for o in self.outs]
        self.nu_s = any(self.keeps)
        leads = {s: sum(s in links[o].dests for o in self.outs) for s in dests}
        self.dests = [s for s in dests if leads[s]]
        self.choice = {s for s in dests if leads[s] > 1 and mu > 0.0}
        self.rows: dict[str, list] = {}
        self.nz: dict[str, list[tuple[int, object]]] = {}
        self.hops: dict[str, int] = {}

    def set_row(self, s: str, hop: int, row: list) -> None:
        """Make `row`, built for the next hop `hop`, the row toward s."""
        self.hops[s] = hop
        self.rows[s] = row
        self.nz[s] = [(j, p) for j, p in enumerate(row)
                      if type(p) is Var or p != 0.0]


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

        # demand intervals and toll periods in whole steps (their edges and
        # widths are validated multiples of dt)
        dt = scenario.config.dt
        self._demand_steps = [
            [(round(t0 / dt), round(t1 / dt), q) for t0, t1, q in dm.profile]
            for dm in scenario.demands
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
        # each link's forward values: its `LinkValues`, or the link itself
        # on a float run
        self._values = [lk.vals or lk for lk in self.links]

    # ------------------------------------------------------------------
    # parameter-aware accessors

    def demand_rate(self, idx: int, t: int):
        """Rate of demand `idx` during step t: its registered Var, if any,
        wherever the profile's rate is not 0."""
        for k0, k1, base in self._demand_steps[idx]:
            if k0 <= t < k1:
                break
        else:
            return 0.0
        if base == 0.0:
            return 0.0
        over = self._demand_over.get(idx)
        return over if over is not None else base

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

    def toll_value(self, link: int, t: int):
        """Toll of link number `link` during step t."""
        return self._tolls[t // self._toll_steps][link]

    def all_toll_values(self):
        """Every toll scalar (Var where registered), for regularization terms:
        tolled links by id, then period."""
        return [row[i] for i in self._tolled for row in self._tolls]

    # ------------------------------------------------------------------

    def link_travel_time(self, tape: Tape, link, t: int):
        """Travel time of `link` (a `LinkDyn`, or its `LinkValues` on
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
        for plan in self._plans:
            node, outs, hops = plan.node, plan.outs, plan.hops
            for s in plan.dests:
                hop = next_link[s][node]
                if hop != hops.get(s) or s in plan.choice:
                    plan.set_row(s, hop, turning_probs(tape, table, node,
                                                       outs, s, mu))

    # ------------------------------------------------------------------

    def run(self) -> SimResult:
        import time as _time

        t_start = _time.perf_counter()
        tape, cfg = self.tape, self.scn.config
        dt = cfg.dt
        T = cfg.n_steps
        rs = cfg.route_steps
        links = self.links
        L = len(links)

        for t in range(T):
            if t % rs == 0:
                self._refresh_routing(t)
            for orig, per_dest in self.queue.items():
                for s, q in per_dest.items():
                    self.queue_hist[orig][s].append(q)

            # --- demand / supply ---------------------------------------
            D = [lk.demand(tape, t, dt) for lk in links]
            S = [lk.supply(tape, t, dt) for lk in links]

            f_in: list = [0.0] * L
            f_out: list = [0.0] * L
            f_in_s: list[dict] = [{} for _ in range(L)]
            for _, i in self._sinks:
                f_out[i] = D[i]

            # --- node transfers ----------------------------------------
            for plan in self._plans:
                if plan.kind == "origin":
                    self._origin_step(plan, t, dt, S, f_in, f_in_s)
                else:
                    self._junction_step(plan, D, S, f_in, f_out, f_in_s)

            # --- boundary updates --------------------------------------
            try:
                for lk, fi, fo, fs in zip(links, f_in, f_out, f_in_s):
                    lk.update_boundaries(tape, dt, fi, fo, fs)
            except ValueError as exc:  # a flow that is NaN, inf or negative
                raise EngineError(str(exc)) from None
            for per_dest in self.inj.values():
                for cur in per_dest.values():
                    if len(cur) == t + 1:
                        cur.append(cur[-1])

        self.forward_time = _time.perf_counter() - t_start
        return SimResult(self)

    # ------------------------------------------------------------------

    def _transfer(self, plan, D, comps, alpha, S, f_in, f_in_s, split=True):
        """Node model at one node with outlinks.

        Builds one turning-fraction row per inflow from the node's rows,
        built at the routing refresh.  An inflow with a single plain-float
        share 1.0 (one destination) uses that destination's row itself: for
        it the sum `add(0.0, mul(1.0, p))` is `p`.  Any other inflow's row
        sums c[s] * p over its destinations, in their order, for each
        outlink.  A plain 0.0 fraction adds nothing to any flow, so every
        sum here reads only the rows' other fractions, `plan.nz`.
        Allocates flow with the INM and adds the aggregate inflows to the
        outlinks.  With `split`, it also records each inflow's
        per-destination outflows and adds them, routed, to the outlinks that
        keep per-destination counts.  Returns the per-inflow totals and,
        with `split`, the per-inflow per-destination outflows (else `None`).
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

        qin, qout = inm_fixed(tape, D, [S[o] for o in outs], B, alpha)
        for o, q in zip(outs, qout):
            f_in[o] = add(f_in[o], q)
        if not split:
            return qin, None

        per_dest = []
        keeps, nu_s = plan.keeps, plan.nu_s
        for q, c in zip(qin, comps):
            out = {}
            for s, cs in c.items():
                fs = out[s] = mul(q, cs)
                if nu_s:
                    for j, p in nz[s]:
                        if keeps[j]:
                            o = outs[j]
                            f_in_s[o][s] = add(f_in_s[o].get(s, 0.0),
                                               mul(fs, p))
            per_dest.append(out)
        return qin, per_dest

    def _origin_step(self, plan, t, dt, S, f_in, f_in_s):
        tape = self.tape
        add, madd = tape.add, tape.madd
        node = plan.node

        # arrivals join the per-destination vertical queue
        pre = dict(self.queue[node])
        for i in self.net.origin_demands[node]:
            s = self.scn.demands[i].destination
            pre[s] = madd(pre[s], dt, self.demand_rate(i, t))

        # An exactly-empty queue may still carry sensitivities (it was
        # positive under an infinitesimal parameter change).  Whenever the
        # outlinks it would use have supply slack, that perturbed queue
        # drains within the step, so serve it now: the sensitivity leaves
        # with the flow instead of lingering on the node forever.
        self._flush_zero_queues(plan, pre, S, f_in, f_in_s, dt)

        total = 0.0
        for q in pre.values():
            total = add(total, q)
        if (total.val if type(total) is Var else total) > 0.0:
            # the queue is one inflow whose composition is its queue shares
            comp = normalized_shares(tape, {
                s: q for s, q in pre.items()
                if (q.val if type(q) is Var else q) > 0.0}, total)
            _, (out,) = self._transfer(
                plan, [tape.div(total, dt)], [comp], [1.0], S, f_in, f_in_s
            )
            for s, out_s in out.items():
                pre[s] = madd(pre[s], -dt, out_s)
                inj = self.inj[node][s]
                inj.append(madd(inj[-1], dt, out_s))
        self.queue[node] = pre

    def _flush_zero_queues(self, plan, pre, S, f_in, f_in_s, dt):
        tape = self.tape
        outs, keeps, nz = plan.outs, plan.keeps, plan.nz
        for s, q in pre.items():
            if type(q) is not Var or q.val != 0.0:
                continue
            used = [(j, p) for j, p in nz[s]
                    if (p.val if type(p) is Var else p) > 0.0]
            sup = [S[outs[j]] for j, _ in used]
            if not used or any((x.val if type(x) is Var else x) <= ACTIVE_EPS
                               for x in sup):
                continue
            out_s = tape.div(q, dt)
            for j, p in used:
                o = outs[j]
                flow = tape.mul(out_s, p)
                f_in[o] = tape.add(f_in[o], flow)
                if keeps[j]:
                    f_in_s[o][s] = tape.add(f_in_s[o].get(s, 0.0), flow)
            inj = self.inj[plan.node][s]
            inj.append(tape.madd(inj[-1], dt, out_s))
            pre[s] = tape.sub(q, q)

    def _junction_step(self, plan, D, S, f_in, f_out, f_in_s):
        ins = plan.ins
        if len(ins) == 1:  # a series or diverge node: no lists to gather
            i = ins[0]
            d = D[i]
            if (d.val if type(d) is Var else d) <= 0.0:
                return  # no demand
            qin, _ = self._transfer(
                plan, [d], [composition(self.tape, plan.inlinks[0])],
                plan.alpha, S, f_in, f_in_s, plan.nu_s)
            f_out[i] = qin[0]
            return
        D_in = [D[i] for i in ins]
        for d in D_in:
            if not (d.val if type(d) is Var else d) <= 0.0:
                break
        else:
            return  # no inlink has demand

        comps = [composition(self.tape, lk) for lk in plan.inlinks]
        # the per-destination outflows of a junction are only read where an
        # outlink keeps per-destination counts
        qin, _ = self._transfer(plan, D_in, comps, plan.alpha, S, f_in,
                                f_in_s, plan.nu_s)
        for i, q in zip(ins, qin):
            f_out[i] = q

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
        import heapq

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
        if lid not in result.ttt_link:
            raise ScenarioError(f"objective names unknown link {lid!r}")
        total = tape.add(total, result.ttt_link[lid])
    return total


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
