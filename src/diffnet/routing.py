"""Instantaneous travel times, shortest paths, and route-choice fractions.

The shortest-path structure (which outlink is best for which destination) is
found on forward float values by a reverse Bellman-Ford sweep; the cost
*values* along the chosen tree are then rebuilt as tape expressions so that
gradients flow through link travel times and tolls.  Deterministic DUO uses
hard indicators (zero cost gradient); logit-DUO softens them with a
stabilized softmin over remaining path costs.
"""

from __future__ import annotations

import math

from .adcore import Tape, value
from .ltm import LinkDyn, fd_speed, interp

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


def travel_time_avg(tape: Tape, link: LinkDyn, t: int):
    """Instantaneous travel time from the link-average density."""
    kbar = tape.div(tape.sub(link.NU[t], link.ND[t]), link.d)
    v = fd_speed(tape, link.u, link.w, link.kappa, kbar)
    return tape.div(link.d, v)


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


def _bellman_ford(nodes, links, weights_f, dest):
    """Reverse one-to-all shortest paths on float weights."""
    cost = {n: INF for n in nodes}
    cost[dest] = 0.0
    for _ in range(max(1, len(nodes) - 1)):
        changed = False
        for w, lk in zip(weights_f, links):
            c_head = cost[lk.head]
            if c_head == INF:
                continue
            cand = w + c_head
            if cand < cost[lk.tail] - 1e-15:
                cost[lk.tail] = cand
                changed = True
        if not changed:
            break
    return cost


def build_routing(tape: Tape, nodes: dict, links: list[LinkDyn], weights: list,
                  destinations) -> RoutingTable:
    """Routing table from toll-augmented link weights (Var or float).

    `weights[i]` is the weight of `links[i]`; forward values drive the path
    structure, tape expressions carry the cost gradients.
    """
    table = RoutingTable()
    weights_f = [value(w) for w in weights]

    for dest in destinations:
        cost = _bellman_ford(nodes, links, weights_f, dest)
        # best outlink of each node: (cost via it, its id, its number); equal
        # costs go to the lowest link id
        best: dict[str, tuple] = {}
        for i, lk in enumerate(links):
            n = lk.tail
            if n == dest or cost[n] == INF or cost[lk.head] == INF:
                continue
            cand = (weights_f[i] + cost[lk.head], lk.id, i)
            if n not in best or cand < best[n]:
                best[n] = cand

        # rebuild tree costs as tape expressions, nearest node first
        cvar: dict[str, object] = {dest: 0.0}
        for n in sorted((m for m in nodes if cost[m] < INF), key=lambda m: cost[m]):
            if n == dest:
                continue
            i = best[n][2]
            cvar[n] = tape.add(weights[i], cvar[links[i].head])
        lcost_f = [INF] * len(links)
        lcost_v = [None] * len(links)
        for i, lk in enumerate(links):
            if cost[lk.head] < INF:
                lcost_f[i] = weights_f[i] + cost[lk.head]
                lcost_v[i] = tape.add(weights[i], cvar[lk.head])

        table.node_cost[dest] = cost
        table.link_cost[dest] = lcost_f
        table.link_cost_var[dest] = lcost_v
        table.next_link[dest] = {n: b[2] for n, b in best.items()}
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
    """Normalized per-destination upstream composition of a link now.

    Returns fractions summing to 1; `None` if the link has seen no vehicles
    (callers fall back to a neutral composition).
    """
    total = link.NU[-1]
    if value(total) <= 0.0:
        return None
    if not link.NU_s:  # one destination, the single share
        return {link.dests[0]: 1.0}
    return normalized_shares(tape, link.NU_s, total)


def fifo_split(tape: Tape, link: LinkDyn, f_out):
    """Split aggregate outflow across destinations by upstream composition.

    The splits are `f_out` times the normalized composition, so they sum to
    the aggregate; an empty link splits nothing.
    """
    comp = composition(tape, link)
    if comp is None:
        return {s: 0.0 for s in link.dests}
    return {s: tape.mul(f_out, c) for s, c in comp.items()}
