"""Instantaneous travel times, shortest paths, and route-choice fractions.

The shortest-path structure (which outlink is best for which destination) is
found on forward float values by a label-setting (Dijkstra) search from each
destination over the reversed links; the cost *values* along the chosen tree
are then rebuilt as tape expressions so that gradients flow through link
travel times and tolls.  Deterministic DUO uses hard indicators (zero cost
gradient), so its callers may build the table on `FLOAT` from forward
values; logit-DUO softens them with a stabilized softmin over remaining path
costs.
"""

from __future__ import annotations

import heapq

from .adcore import FLOAT, Tape, Var
from .ltm import V_MIN, LinkDyn, fd_speed

__all__ = [
    "travel_time_avg",
    "travel_time_segments",
    "RoutingTable",
    "build_routing",
    "turning_probs",
    "normalized_shares",
    "composition",
    "fifo_split",
]

INF = float("inf")


def _avg_speed(tape: Tape, link, t: int):
    kbar = tape.div(tape.sub(link.NU[t], link.ND[t]), link.d)
    return fd_speed(tape, link.u, link.w, link.kappa, kbar)


def travel_time_avg(tape: Tape, link, t: int):
    """Instantaneous travel time from the link-average density.

    Decided on values: the speed is first found on `FLOAT` over
    `link.vals`, or over the link itself where `vals` is `None` (a float
    run's link, or a `LinkValues`), and there it is the answer.  If the
    floor `V_MIN` wins, d / V_MIN is returned; if the free-flow `u` wins,
    d / u; only a congested speed is recorded whole.
    """
    vals = link.vals
    v = _avg_speed(FLOAT, link if vals is None else vals, t)
    # min2 and max2 return one of their operands, so `is` names the winner
    if vals is None or v is V_MIN:
        return FLOAT.div(link.d, v)
    if v is vals.u:
        return tape.div(link.d, link.u)
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

    Links are numbered by their position in the list given to
    `build_routing`.  For each destination s:
      node_cost[s][node]   float cost to s (inf if unreachable)
      link_cost[s][i]      float cost of entering link i then reaching s
                           (inf where the link's head cannot reach s)
      link_cost_var[s][i]  tape expression for the same (None at inf)
      next_link[s][node]   number of the chosen outlink (tie: lowest link id)
    """

    def __init__(self):
        self.node_cost: dict[str, dict[str, float]] = {}
        self.link_cost: dict[str, list[float]] = {}
        self.link_cost_var: dict[str, list] = {}
        self.next_link: dict[str, dict[str, int]] = {}


def build_routing(tape: Tape, nodes: dict, links: list[LinkDyn], weights: list,
                  destinations) -> RoutingTable:
    """Routing table from toll-augmented link weights (Var or float).

    `weights[i]` is the weight of `links[i]`; forward values drive the path
    structure, tape expressions carry the cost gradients.  Weights must not
    be negative.
    """
    table = RoutingTable()
    weights_f = [w.val if type(w) is Var else w for w in weights]
    for w, lk in zip(weights_f, links):
        if w < 0.0:
            raise ValueError(f"link {lk.id}: negative routing weight {w!r}")
    # nodes by position (file order), each link's head position, and the
    # inlinks of each node as (link number, tail position), shared by the
    # searches of every destination
    names = list(nodes)
    pos = {n: k for k, n in enumerate(names)}
    heads = [pos[lk.head] for lk in links]
    into: list[list[tuple[int, int]]] = [[] for _ in names]
    for i, lk in enumerate(links):
        into[heads[i]].append((i, pos[lk.tail]))

    for dest in destinations:
        # Label-setting search from dest: nodes settle in order of cost,
        # equal costs in file order, and each settled node relaxes its
        # inlinks once, with its final cost.  A relaxed link is a candidate
        # best outlink of its tail: (cost via it, its id, its number), equal
        # costs going to the lowest link id.
        d = pos[dest]
        cost = [INF] * len(names)
        cost[d] = 0.0
        lcost_f = [INF] * len(links)
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
                    key = (cand, links[i].id, i)
                    if t not in best or key < best[t]:
                        best[t] = key
        next_link = {names[t]: b[2] for t, b in best.items() if cost[t] < INF}

        # rebuild tree costs as tape expressions, nearest node first
        cvar: list = [None] * len(names)
        cvar[d] = 0.0
        for t in settled[1:]:
            i = best[t][2]
            cvar[t] = tape.add(weights[i], cvar[heads[i]])
        lcost_v = [None] * len(links)
        for i, h in enumerate(heads):
            if cvar[h] is not None:
                lcost_v[i] = tape.add(weights[i], cvar[h])

        table.node_cost[dest] = dict(zip(names, cost))
        table.link_cost[dest] = lcost_f
        table.link_cost_var[dest] = lcost_v
        table.next_link[dest] = next_link
    return table


def turning_probs(tape: Tape, table: RoutingTable, node: str, outs: list[int],
                  dest: str, mu: float) -> list | None:
    """Per-destination routing fractions over a node's outlinks.

    `outs` are the node's outlink numbers; the fractions come in that order.
    Deterministic DUO (mu == 0): indicator on the shortest outlink.
    Logit-DUO: softmin of remaining path costs with scale mu, stabilized by
    subtracting the per-node minimum cost before exponentiation.
    `None` if no outlink leads to the destination.
    """
    lcost_v = table.link_cost_var[dest]
    feasible = [j for j, i in enumerate(outs) if lcost_v[i] is not None]
    if not feasible:
        return None
    if mu == 0.0 or len(feasible) == 1:
        chosen = table.next_link[dest][node]
        return [1.0 if i == chosen else 0.0 for i in outs]
    cmin = min(table.link_cost[dest][outs[j]] for j in feasible)
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
