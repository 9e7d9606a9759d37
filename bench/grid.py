"""Synthetic grid scenarios, built as plain documents for `Scenario.from_dict`.

The recipe: an n x n grid of intermediate nodes joined by 500 m links
(u=15 m/s, qmax=0.5 veh/s, kappa=0.15 veh/m).  Every node has links to the
right and down; even rows also run left and odd columns also run up.  Origin
`o{k}` feeds the node at row k, column 0, and destination `d{k}` leaves from
the node at row n-1-k, column n-1.  Every OD pair carries the same demand on
[0, 600) s; the horizon is 1200 s at dt=5 s.
"""

from __future__ import annotations

LINK = {"d": 500.0, "u": 15.0, "qmax": 0.5, "kappa": 0.15, "alpha": 1.0}


def _node(r: int, c: int) -> str:
    return f"n{r}_{c}"


def grid_document(n: int, n_dest: int, demand: float = 0.05, mu: float = 0.05,
                  dt_route: float = 50.0) -> dict:
    """Scenario document of the n x n grid with `n_dest` destinations."""
    if not 1 <= n_dest <= n:
        raise ValueError(f"n_dest={n_dest} must lie in [1, {n}]")
    nodes = [{"id": _node(r, c), "kind": "intermediate"}
             for r in range(n) for c in range(n)]
    pairs = []
    for r in range(n):
        for c in range(n):
            if c + 1 < n:
                pairs.append((_node(r, c), _node(r, c + 1)))
            if r + 1 < n:
                pairs.append((_node(r, c), _node(r + 1, c)))
            if r % 2 == 0 and c > 0:
                pairs.append((_node(r, c), _node(r, c - 1)))
            if c % 2 == 1 and r > 0:
                pairs.append((_node(r, c), _node(r - 1, c)))
    origins = [f"o{k}" for k in range(n)]
    dests = [f"d{k}" for k in range(n_dest)]
    nodes += [{"id": o, "kind": "origin"} for o in origins]
    nodes += [{"id": d, "kind": "destination"} for d in dests]
    pairs += [(f"o{k}", _node(k, 0)) for k in range(n)]
    pairs += [(_node(n - 1 - k, n - 1), f"d{k}") for k in range(n_dest)]
    links = [{"id": f"{a}-{b}", "from": a, "to": b, **LINK} for a, b in pairs]
    demands = [{"origin": o, "destination": d, "profile": [[0.0, 600.0, demand]]}
               for o in origins for d in dests]
    return {
        "meta": {"dt": 5.0, "T_max": 1200.0, "dt_route": dt_route,
                 "dt_toll": 1200.0, "mu": mu},
        "nodes": nodes,
        "links": links,
        "demands": demands,
    }
