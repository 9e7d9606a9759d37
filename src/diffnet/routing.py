"""Instantaneous travel times, shortest paths, and route-choice fractions.

The shortest-path structure (which outlink is best for which destination) is
found on forward float values by a label-setting (Dijkstra) search from each
destination over the reversed links, the scenario's `ReverseLinks`, built
once.  Which outlinks lead to a destination is read off the float costs too.
Deterministic DUO uses hard indicators (zero cost gradient), so its rows
read no tree cost and its callers may build the table on `FLOAT` from
forward values.  Logit-DUO softens them with a stabilized softmin over
remaining path costs: the costs its rows read, and the tree paths beneath
them, are rebuilt as tape expressions so that gradients flow through link
travel times and tolls, and no other cost is.  The per-destination shares
that weight the rows at a node are the engine's (`engine.composition`).
"""

from __future__ import annotations

import heapq

from .adcore import FLOAT, Tape, Var
from .ltm import V_MIN, LinkDyn, fd_speed
from .scenario import ReverseLinks

__all__ = [
    "travel_time_avg",
    "travel_time_segments",
    "RoutingTable",
    "build_routing",
    "turning_probs",
]

INF = float("inf")


def _avg_speed(tape: Tape, link, t: int):
    kbar = tape.div(tape.sub(link.NU[t], link.ND[t]), link.d)
    return fd_speed(tape, link.u, link.w, link.kappa, kbar)


def travel_time_avg(tape: Tape, link, t: int):
    """Instantaneous travel time from the link-average density.

    Decided on values, over `link.vals`, or over the link itself where
    `vals` is `None` (a float run's link, or a taped link's `vals`).  An
    occupancy `NU[t] - ND[t]` within the link's `free_n` is free flow,
    d / u, with no speed to find.  Else the speed is first found on
    `FLOAT`, and there it is the answer.  If the floor `V_MIN` wins,
    d / V_MIN is returned; only a congested speed is recorded whole.
    """
    vals = link.vals
    src = link if vals is None else vals
    if src.NU[t] - src.ND[t] <= src.free_n:
        return tape.div(link.d, link.u)
    v = _avg_speed(FLOAT, src, t)
    # min2 and max2 return one of their operands, so `is` names the winner
    if vals is None or v is V_MIN:
        return FLOAT.div(link.d, v)
    return tape.div(link.d, _avg_speed(tape, link, t))


def travel_time_segments(tape: Tape, link: LinkDyn, t: int, M: int, dt: float):
    """Instantaneous travel time summed over M equal segments.

    Segment densities come from the Newell cumulative count evaluated at the
    M+1 segment boundaries (interior evaluations are shared).
    """
    dx = link.d / M
    bounds = [link.newell_N(tape, t, i * dx, dt) for i in range(M + 1)]
    total = 0.0
    for i in range(M):
        k = tape.div(tape.sub(bounds[i], bounds[i + 1]), dx)
        v = fd_speed(tape, link.u, link.w, link.kappa, k)
        total = tape.add(total, tape.div(dx, v))
    return total


class RoutingTable:
    """Per-destination shortest-path data, fixed between route refreshes.

    Links are numbered as in the `ReverseLinks` given to `build_routing`.
    For each destination s:
      node_cost[s][node]   float cost to s (inf if unreachable)
      link_cost[s][i]      float cost of entering link i then reaching s
                           (inf where the link's head cannot reach s)
      link_cost_var[s][i]  tape expression for the same where a logit row
                           reads it, else None (no list for a destination
                           whose rows read none)
      next_link[s][node]   number of the chosen outlink (tie: lowest link id)
    """

    def __init__(self):
        self.node_cost: dict[str, dict[str, float]] = {}
        self.link_cost: dict[str, list[float]] = {}
        self.link_cost_var: dict[str, list] = {}
        self.next_link: dict[str, dict[str, int]] = {}


def build_routing(tape: Tape, graph: ReverseLinks, weights: list,
                  destinations, reads: dict) -> RoutingTable:
    """Routing table from toll-augmented link weights (Var or float).

    `weights[i]` is the weight of link number i of `graph`; forward values
    drive the path structure.  Tree costs are rebuilt as tape expressions
    only for the links in `reads[s]` (in link order), those whose cost a
    logit row toward s reads, where their head reaches s, and for the tree
    paths beneath them; a destination missing from `reads` gets none.
    Weights must not be negative.
    """
    table = RoutingTable()
    weights_f = [w.val if type(w) is Var else w for w in weights]
    for w, lid in zip(weights_f, graph.ids):
        if w < 0.0:
            raise ValueError(f"link {lid}: negative routing weight {w!r}")
    names, heads, into, ids = graph.names, graph.heads, graph.into, graph.ids

    for dest in destinations:
        # Label-setting search from dest: nodes settle in order of cost,
        # equal costs in file order, and each settled node relaxes its
        # inlinks once, with its final cost.  A relaxed link is a candidate
        # best outlink of its tail: (cost via it, its id, its number), equal
        # costs going to the lowest link id.
        d = graph.pos[dest]
        cost = [INF] * len(names)
        cost[d] = 0.0
        lcost_f = [INF] * len(heads)
        best: dict[int, tuple] = {}
        heap = [(0.0, d)]
        settled = []
        while heap:
            c, h = heapq.heappop(heap)
            if c > cost[h]:
                continue  # superseded by a cheaper label
            settled.append(h)
            for i, t in into[h]:
                cand = lcost_f[i] = weights_f[i] + c
                if cand < cost[t] - 1e-15:
                    cost[t] = cand
                    heapq.heappush(heap, (cand, t))
                if t != d:
                    key = (cand, ids[i], i)
                    if t not in best or key < best[t]:
                        best[t] = key
        table.node_cost[dest] = dict(zip(names, cost))
        table.link_cost[dest] = lcost_f
        table.next_link[dest] = {names[t]: b[2] for t, b in best.items()
                                 if cost[t] < INF}

        read = reads.get(dest)
        if not read:
            continue
        # the tree paths beneath the read links, rebuilt as tape expressions
        # nearest node first, then the read links' costs in link order
        need = [False] * len(names)
        for i in read:
            h = heads[i]
            while h != d and cost[h] < INF and not need[h]:
                need[h] = True
                h = heads[best[h][2]]
        cvar: list = [None] * len(names)
        cvar[d] = 0.0
        for t in settled[1:]:
            if need[t]:
                i = best[t][2]
                cvar[t] = tape.add(weights[i], cvar[heads[i]])
        lcost_v = [None] * len(heads)
        for i in read:
            if cvar[heads[i]] is not None:
                lcost_v[i] = tape.add(weights[i], cvar[heads[i]])
        table.link_cost_var[dest] = lcost_v
    return table


def turning_probs(tape: Tape, table: RoutingTable, node: str, outs: list[int],
                  dest: str, mu: float) -> list | None:
    """Per-destination routing fractions over a node's outlinks.

    `outs` are the node's outlink numbers; the fractions come in that order.
    The outlinks that lead to the destination are those of finite float
    cost.  Deterministic DUO (mu == 0): indicator on the shortest outlink.
    Logit-DUO: softmin of remaining path costs with scale mu, stabilized by
    subtracting the per-node minimum cost before exponentiation; only this
    case, with two or more such outlinks, reads the tree costs.
    `None` if no outlink leads to the destination.
    """
    lcost = table.link_cost[dest]
    feasible = [j for j, i in enumerate(outs) if lcost[i] < INF]
    if not feasible:
        return None
    if mu == 0.0 or len(feasible) == 1:
        chosen = table.next_link[dest][node]
        return [1.0 if i == chosen else 0.0 for i in outs]
    cmin = min(lcost[outs[j]] for j in feasible)
    lcost_v = table.link_cost_var[dest]
    z = []
    zsum = 0.0
    for j in feasible:
        e = tape.exp(tape.mul(-mu, tape.sub(lcost_v[outs[j]], cmin)))
        z.append(e)
        zsum = tape.add(zsum, e)
    probs = [0.0] * len(outs)
    for j, e in zip(feasible, z):
        probs[j] = tape.div(e, zsum)
    return probs
