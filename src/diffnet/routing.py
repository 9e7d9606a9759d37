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

    For each destination s:
      node_cost[s][node]  float cost to s (inf if unreachable)
      node_cost_var[s]    same costs as tape expressions along the tree
      link_cost[s][lid]   float cost of entering link lid then reaching s
      link_cost_var[s]    tape expressions for the same
      next_link[s][node]  id of the chosen outlink (tie: lowest link id)
    """

    def __init__(self):
        self.node_cost: dict[str, dict[str, float]] = {}
        self.node_cost_var: dict[str, dict] = {}
        self.link_cost: dict[str, dict[str, float]] = {}
        self.link_cost_var: dict[str, dict] = {}
        self.next_link: dict[str, dict[str, str]] = {}


def _bellman_ford(nodes, links, weights_f, dest):
    """Reverse one-to-all shortest paths on float weights."""
    cost = {n: INF for n in nodes}
    cost[dest] = 0.0
    for _ in range(max(1, len(nodes) - 1)):
        changed = False
        for lk in links:
            c_head = cost[lk.head]
            if c_head == INF:
                continue
            cand = weights_f[lk.id] + c_head
            if cand < cost[lk.tail] - 1e-15:
                cost[lk.tail] = cand
                changed = True
        if not changed:
            break
    return cost


def build_routing(tape: Tape, nodes: dict, links: list[LinkDyn], weights: dict,
                  destinations) -> RoutingTable:
    """Routing table from toll-augmented link weights (Var or float).

    `weights` maps link id -> weight; forward values drive the path
    structure, tape expressions carry the cost gradients.
    """
    table = RoutingTable()
    weights_f = {lid: value(w) for lid, w in weights.items()}
    by_tail: dict[str, list[LinkDyn]] = {}
    for lk in links:
        by_tail.setdefault(lk.tail, []).append(lk)

    for dest in destinations:
        cost = _bellman_ford(nodes, links, weights_f, dest)
        nxt: dict[str, str] = {}
        for n in nodes:
            if n == dest or cost[n] == INF:
                continue
            best = min(
                (
                    (weights_f[lk.id] + cost[lk.head], lk.id)
                    for lk in by_tail.get(n, [])
                    if cost[lk.head] < INF
                ),
                default=None,
            )
            if best is not None:
                nxt[n] = best[1]

        # rebuild tree costs as tape expressions, nearest node first
        cvar: dict[str, object] = {dest: 0.0}
        for n in sorted((m for m in nodes if cost[m] < INF), key=lambda m: cost[m]):
            if n == dest:
                continue
            lid = nxt[n]
            head = next(lk.head for lk in by_tail[n] if lk.id == lid)
            cvar[n] = tape.add(weights[lid], cvar[head])
        lcost_f = {}
        lcost_v = {}
        for lk in links:
            if cost[lk.head] < INF:
                lcost_f[lk.id] = weights_f[lk.id] + cost[lk.head]
                lcost_v[lk.id] = tape.add(weights[lk.id], cvar[lk.head])

        table.node_cost[dest] = cost
        table.node_cost_var[dest] = cvar
        table.link_cost[dest] = lcost_f
        table.link_cost_var[dest] = lcost_v
        table.next_link[dest] = nxt
    return table


def turning_probs(tape: Tape, table: RoutingTable, node: str,
                  outlinks: list[LinkDyn], dest: str, mu: float) -> dict | None:
    """Per-destination routing fractions over a node's outlinks.

    Deterministic DUO (mu == 0): indicator on the shortest outlink.
    Logit-DUO: softmin of remaining path costs with scale mu, stabilized by
    subtracting the per-node minimum cost before exponentiation.
    `None` if no outlink leads to the destination.
    """
    feasible = [lk for lk in outlinks if lk.id in table.link_cost[dest]]
    if not feasible:
        return None
    if mu == 0.0 or len(feasible) == 1:
        chosen = table.next_link[dest].get(node)
        if chosen is None:
            chosen = feasible[0].id
        return {lk.id: (1.0 if lk.id == chosen else 0.0) for lk in outlinks}
    cmin = min(table.link_cost[dest][lk.id] for lk in feasible)
    z = {}
    zsum = 0.0
    for lk in feasible:
        e = tape.exp(
            tape.mul(-mu, tape.sub(table.link_cost_var[dest][lk.id], cmin))
        )
        z[lk.id] = e
        zsum = tape.add(zsum, e)
    probs = {lk.id: 0.0 for lk in outlinks}
    for lk in feasible:
        probs[lk.id] = tape.div(z[lk.id], zsum)
    return probs


def normalized_shares(tape: Tape, parts: dict, total):
    """Guarded shares parts[s] / total, renormalized to sum to exactly 1."""
    shares = {s: tape.divg(x, total) for s, x in parts.items()}
    ssum = 0.0
    for sh in shares.values():
        ssum = tape.add(ssum, sh)
    return {s: tape.div(sh, ssum) for s, sh in shares.items()}


def composition(tape: Tape, link: LinkDyn, t: int):
    """Normalized per-destination upstream composition of a link.

    Returns fractions summing to 1; `None` if the link has seen no vehicles
    (callers fall back to a neutral composition).
    """
    total = link.NU[t]
    if value(total) <= 0.0:
        return None
    return normalized_shares(
        tape, {s: curve[t] for s, curve in link.NU_s.items()}, total
    )


def fifo_split(tape: Tape, link: LinkDyn, t: int, f_out):
    """Split aggregate outflow across destinations by upstream composition.

    The splits are `f_out` times the normalized composition, so they sum to
    the aggregate; an empty link splits nothing.
    """
    comp = composition(tape, link, t)
    if comp is None:
        return {s: 0.0 for s in link.NU_s}
    return {s: tape.mul(f_out, c) for s, c in comp.items()}
