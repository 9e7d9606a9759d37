"""Immutable scenario model: network, demand, tolls, simulation config.

Scenario files are YAML documents with top-level sections `meta`, `nodes`,
`links`, `demands`, and optionally `tolls`:

    meta:
      dt: 5.0            # timestep (s)
      T_max: 2000.0      # duration (s)
      dt_route: 25.0     # route update interval (s, multiple of dt)
      dt_toll: 500.0     # toll period width (s, multiple of dt)
      mu: 0.0            # logit scale (1/s); 0 = deterministic DUO
      M: 1               # segment count for the segment travel-time method
      tt_method: average # 'average' or 'segments'
    nodes:
      - {id: orig1, kind: origin}
      - {id: merge, kind: intermediate}
      - {id: dest,  kind: destination}
    links:
      - {id: '1', from: orig1, to: merge, d: 1000, u: 20, qmax: 0.8,
         kappa: 0.2, alpha: 1.0}
    demands:
      - {origin: orig1, destination: dest, profile: [[0, 1000, 0.45]]}
    tolls:
      - {link: '3', values: [0.0, 120.0, 0.0, 0.0]}

Units: metres, seconds, veh/s, veh/m.  Tolls are equivalent seconds of
travel time added to the link's routing cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import yaml

__all__ = [
    "LinkParams",
    "DemandProfile",
    "TollSchedule",
    "SimConfig",
    "Scenario",
    "ScenarioError",
    "ValidationError",
    "ParameterSet",
    "register_parameters",
]


class ScenarioError(Exception):
    """Malformed scenario file (schema level)."""


class ValidationError(ScenarioError):
    """Scenario parsed but violates a model invariant (CFL, FD, topology)."""


@dataclass(frozen=True)
class LinkParams:
    id: str
    tail: str  # upstream node
    head: str  # downstream node
    d: float  # length (m)
    u: float  # free-flow speed (m/s)
    qmax: float  # capacity (veh/s)
    kappa: float  # jam density (veh/m)
    alpha: float = 1.0  # merge priority

    @property
    def k_crit(self) -> float:
        return self.qmax / self.u

    @property
    def w(self) -> float:
        """Backward wave speed derived from (u, qmax, kappa)."""
        return self.qmax / (self.kappa - self.k_crit)

    def validate(self):
        for name in ("d", "u", "qmax", "kappa", "alpha"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"link {self.id}: {name} must be > 0")
        if self.k_crit >= self.kappa:
            raise ValidationError(
                f"link {self.id}: critical density {self.k_crit:.4g} must be "
                f"below jam density {self.kappa:.4g}"
            )


@dataclass(frozen=True)
class DemandProfile:
    origin: str
    destination: str
    # piecewise-constant rate: list of (t_start, t_end, rate) in seconds / veh/s
    profile: tuple[tuple[float, float, float], ...]

    def rate_at(self, t_sec: float) -> float:
        for t0, t1, q in self.profile:
            if t0 <= t_sec < t1:
                return q
        return 0.0

    def cumulative(self, t_sec: float) -> float:
        """Vehicles generated on [0, t_sec)."""
        total = 0.0
        for t0, t1, q in self.profile:
            total += q * max(0.0, min(t_sec, t1) - t0)
        return total

    def validate(self, cfg: "SimConfig"):
        prev_end = None
        for t0, t1, q in self.profile:
            if q < 0:
                raise ValidationError(
                    f"demand {self.origin}->{self.destination}: negative rate"
                )
            if t1 <= t0:
                raise ValidationError(
                    f"demand {self.origin}->{self.destination}: empty interval"
                )
            for edge in (t0, t1):
                if abs(edge / cfg.dt - round(edge / cfg.dt)) > 1e-9:
                    raise ValidationError(
                        f"demand {self.origin}->{self.destination}: interval "
                        f"edge {edge} not aligned to dt={cfg.dt}"
                    )
            if prev_end is not None and t0 < prev_end:
                raise ValidationError(
                    f"demand {self.origin}->{self.destination}: overlapping intervals"
                )
            prev_end = t1


@dataclass(frozen=True)
class TollSchedule:
    dt_toll: float  # period width (s)
    # link id -> per-period toll values (equivalent seconds), zero if absent
    values: dict[str, tuple[float, ...]] = field(default_factory=dict)

    def toll_at(self, link_id: str, t_sec: float):
        vals = self.values.get(link_id)
        if not vals:
            return 0.0
        i = int(t_sec // self.dt_toll)
        return vals[i] if i < len(vals) else 0.0

    def period_index(self, t_sec: float) -> int:
        return int(t_sec // self.dt_toll)

    def validate(self):
        for lid, vals in self.values.items():
            if any(v < 0 for v in vals):
                raise ValidationError(f"toll on link {lid}: negative value")


@dataclass(frozen=True)
class SimConfig:
    dt: float
    T_max: float
    dt_route: float
    dt_toll: float
    mu: float = 0.0  # logit scale; 0 disables logit (deterministic DUO)
    M: int = 1
    tt_method: str = "average"  # 'average' | 'segments'

    @property
    def n_steps(self) -> int:
        return int(round(self.T_max / self.dt))

    @property
    def route_steps(self) -> int:
        return int(round(self.dt_route / self.dt))

    @property
    def n_toll_periods(self) -> int:
        """Toll periods that start within the horizon."""
        return math.ceil(self.T_max / self.dt_toll - 1e-9)

    def validate(self):
        if self.dt <= 0:
            raise ValidationError("dt must be > 0")
        for name in ("T_max", "dt_route", "dt_toll"):
            v = getattr(self, name)
            if abs(v / self.dt - round(v / self.dt)) > 1e-9 or v <= 0:
                raise ValidationError(f"{name}={v} must be a positive multiple of dt")
        if self.mu < 0:
            raise ValidationError("mu must be >= 0")
        if self.M < 1:
            raise ValidationError("segment count M must be >= 1")
        if self.tt_method not in ("average", "segments"):
            raise ValidationError(f"unknown tt_method {self.tt_method!r}")


NODE_KINDS = ("origin", "destination", "intermediate")


@dataclass(frozen=True)
class Scenario:
    nodes: dict[str, str]  # node id -> kind
    links: tuple[LinkParams, ...]
    demands: tuple[DemandProfile, ...]
    tolls: TollSchedule
    config: SimConfig

    # ------------------------------------------------------------------
    def link(self, link_id: str) -> LinkParams:
        for lk in self.links:
            if lk.id == link_id:
                return lk
        raise KeyError(f"no link {link_id!r}")

    @cached_property
    def _topology(self):
        """Outlinks, inlinks and reachable node set of every node, built once
        per scenario (which is immutable)."""
        out: dict[str, list[LinkParams]] = {n: [] for n in self.nodes}
        inc: dict[str, list[LinkParams]] = {n: [] for n in self.nodes}
        for lk in self.links:
            out.setdefault(lk.tail, []).append(lk)
            inc.setdefault(lk.head, []).append(lk)
        reach = {}
        for node in out:
            seen = {node}
            stack = [node]
            while stack:
                for lk in out.get(stack.pop(), ()):
                    if lk.head not in seen:
                        seen.add(lk.head)
                        stack.append(lk.head)
            reach[node] = seen
        return out, inc, reach

    def outlinks(self, node: str) -> list[LinkParams]:
        return list(self._topology[0].get(node, ()))

    def inlinks(self, node: str) -> list[LinkParams]:
        return list(self._topology[1].get(node, ()))

    @property
    def destinations(self) -> list[str]:
        seen = []
        for dm in self.demands:
            if dm.destination not in seen:
                seen.append(dm.destination)
        return seen

    @property
    def origins(self) -> list[str]:
        seen = []
        for dm in self.demands:
            if dm.origin not in seen:
                seen.append(dm.origin)
        return seen

    # ------------------------------------------------------------------
    def validate(self):
        self.config.validate()
        ids = set()
        for lk in self.links:
            if lk.id in ids:
                raise ValidationError(f"duplicate link id {lk.id!r}")
            ids.add(lk.id)
            lk.validate()
            for node in (lk.tail, lk.head):
                if node not in self.nodes:
                    raise ValidationError(f"link {lk.id}: unknown node {node!r}")
            # CFL
            if self.config.dt > lk.d / lk.u + 1e-12:
                raise ValidationError(
                    f"CFL violated on link {lk.id}: dt={self.config.dt} > "
                    f"d/u={lk.d / lk.u:.6g}"
                )
        for nid, kind in self.nodes.items():
            if kind not in NODE_KINDS:
                raise ValidationError(f"node {nid}: unknown kind {kind!r}")
            if kind == "origin" and self.inlinks(nid):
                raise ValidationError(f"origin node {nid} must have no inlinks")
            if kind == "destination" and self.outlinks(nid):
                raise ValidationError(f"destination node {nid} must have no outlinks")
        for dm in self.demands:
            dm.validate(self.config)
            for node, kind in ((dm.origin, "origin"), (dm.destination, "destination")):
                if self.nodes.get(node) != kind:
                    raise ValidationError(
                        f"demand {dm.origin}->{dm.destination}: node {node} "
                        f"is not a declared {kind}"
                    )
            if not self.reaches(dm.origin, dm.destination):
                raise ValidationError(
                    f"destination {dm.destination} unreachable from origin {dm.origin}"
                )
        self.tolls.validate()
        for lid in self.tolls.values:
            if lid not in ids:
                raise ValidationError(f"toll refers to unknown link {lid!r}")

    def reaches(self, node: str, dest: str) -> bool:
        return dest in self._topology[2].get(node, {node})

    # ------------------------------------------------------------------
    # file I/O

    @classmethod
    def from_dict(cls, doc: dict) -> "Scenario":
        try:
            meta = doc["meta"]
            cfg = SimConfig(
                dt=float(meta["dt"]),
                T_max=float(meta["T_max"]),
                dt_route=float(meta.get("dt_route", meta["dt"])),
                dt_toll=float(meta.get("dt_toll", meta["T_max"])),
                mu=float(meta.get("mu", 0.0)),
                M=int(meta.get("M", 1)),
                tt_method=str(meta.get("tt_method", "average")),
            )
            nodes = {str(n["id"]): str(n["kind"]) for n in doc["nodes"]}
            links = tuple(
                LinkParams(
                    id=str(lk["id"]),
                    tail=str(lk["from"]),
                    head=str(lk["to"]),
                    d=float(lk["d"]),
                    u=float(lk["u"]),
                    qmax=float(lk["qmax"]),
                    kappa=float(lk["kappa"]),
                    alpha=float(lk.get("alpha", 1.0)),
                )
                for lk in doc["links"]
            )
            demands = tuple(
                DemandProfile(
                    origin=str(dm["origin"]),
                    destination=str(dm["destination"]),
                    profile=tuple(
                        (float(t0), float(t1), float(q)) for t0, t1, q in dm["profile"]
                    ),
                )
                for dm in doc.get("demands", [])
            )
            tolls = TollSchedule(
                dt_toll=cfg.dt_toll,
                values={
                    str(tl["link"]): tuple(float(v) for v in tl["values"])
                    for tl in doc.get("tolls", [])
                },
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(f"malformed scenario document: {exc!r}") from exc
        scn = cls(nodes=nodes, links=links, demands=demands, tolls=tolls, config=cfg)
        scn.validate()
        return scn

    @classmethod
    def load(cls, path) -> "Scenario":
        with open(path) as fh:
            try:
                doc = yaml.safe_load(fh)
            except yaml.YAMLError as exc:
                raise ScenarioError(f"cannot parse {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ScenarioError(f"{path}: top level must be a mapping")
        return cls.from_dict(doc)

    def to_dict(self) -> dict:
        cfg = self.config
        return {
            "meta": {
                "dt": cfg.dt,
                "T_max": cfg.T_max,
                "dt_route": cfg.dt_route,
                "dt_toll": cfg.dt_toll,
                "mu": cfg.mu,
                "M": cfg.M,
                "tt_method": cfg.tt_method,
            },
            "nodes": [{"id": n, "kind": k} for n, k in self.nodes.items()],
            "links": [
                {
                    "id": lk.id,
                    "from": lk.tail,
                    "to": lk.head,
                    "d": lk.d,
                    "u": lk.u,
                    "qmax": lk.qmax,
                    "kappa": lk.kappa,
                    "alpha": lk.alpha,
                }
                for lk in self.links
            ],
            "demands": [
                {
                    "origin": dm.origin,
                    "destination": dm.destination,
                    "profile": [list(seg) for seg in dm.profile],
                }
                for dm in self.demands
            ],
            "tolls": [
                {"link": lid, "values": list(vals)}
                for lid, vals in self.tolls.values.items()
            ],
        }

    def save(self, path):
        with open(path, "w") as fh:
            yaml.safe_dump(self.to_dict(), fh, sort_keys=False)


# ----------------------------------------------------------------------
# parameter registration


@dataclass(frozen=True)
class Parameter:
    """One registered scalar: a name plus its location in the scenario."""

    name: str
    kind: str  # 'demand' | 'link' | 'toll'
    target: tuple  # demand index | (link id, attr) | (link id, period)
    base: float  # value in the scenario file


@dataclass(frozen=True)
class ParameterSet:
    params: tuple[Parameter, ...]

    def __len__(self):
        return len(self.params)

    @property
    def names(self) -> list[str]:
        return [p.name for p in self.params]

    @property
    def base_values(self) -> list[float]:
        return [p.base for p in self.params]


def register_parameters(scenario: Scenario, selection) -> ParameterSet:
    """Resolve a selection of parameter tokens against a scenario.

    Tokens (comma-separated string or an iterable of strings):
      q<k>             rate of the k-th demand profile (1-based)
      u<id> / kappa<id> / qmax<id> / w<id> / alpha<id>
                       link attribute of link <id>
      toll:<link>:<p>  toll of link <link> in period <p> (0-based; the
                       period must start within the horizon)
      toll:*           all tolls of all tolled links within the horizon

    The independent fundamental-diagram triple is (u, qmax, kappa); w is
    derived.  Selecting w<id> switches that link to the alternate
    parameterization (u, w, kappa) with qmax derived; selecting both qmax<id>
    and w<id> is a configuration error.
    """
    if isinstance(selection, str):
        tokens = [tok.strip() for tok in selection.split(",") if tok.strip()]
    else:
        tokens = list(selection)

    params: list[Parameter] = []
    link_ids = {lk.id for lk in scenario.links}
    seen_fd: dict[str, set[str]] = {}

    def link_attr(attr: str, lid: str, token: str):
        if lid not in link_ids:
            raise ScenarioError(f"parameter {token!r}: unknown link {lid!r}")
        lk = scenario.link(lid)
        if attr in ("qmax", "w"):
            prior = seen_fd.setdefault(lid, set())
            prior.add(attr)
            if {"qmax", "w"} <= prior:
                raise ScenarioError(
                    f"link {lid}: qmax and w cannot both be registered "
                    "(dependent parameterization)"
                )
        base = lk.w if attr == "w" else getattr(lk, attr)
        params.append(Parameter(name=token, kind="link", target=(lid, attr), base=base))

    n_periods = scenario.config.n_toll_periods
    for token in tokens:
        if token.startswith("toll:"):
            rest = token[len("toll:") :]
            if rest == "*":
                # scheduled values past the horizon have no effect
                for lid in sorted(scenario.tolls.values):
                    vals = scenario.tolls.values[lid][:n_periods]
                    for p, v in enumerate(vals):
                        params.append(
                            Parameter(
                                name=f"toll:{lid}:{p}",
                                kind="toll",
                                target=(lid, p),
                                base=v,
                            )
                        )
                continue
            try:
                lid, period = rest.rsplit(":", 1)
                period = int(period)
            except ValueError as exc:
                raise ScenarioError(f"bad toll token {token!r}") from exc
            if lid not in link_ids:
                raise ScenarioError(f"parameter {token!r}: unknown link {lid!r}")
            if not 0 <= period < n_periods:
                raise ScenarioError(
                    f"parameter {token!r}: period {period} outside "
                    f"[0, {n_periods}) of the horizon"
                )
            vals = scenario.tolls.values.get(lid, ())
            base = vals[period] if period < len(vals) else 0.0
            params.append(
                Parameter(name=token, kind="toll", target=(lid, period), base=base)
            )
        elif token.startswith("q") and token[1:].isdigit():
            k = int(token[1:])
            if not 1 <= k <= len(scenario.demands):
                raise ScenarioError(f"parameter {token!r}: no demand profile #{k}")
            dm = scenario.demands[k - 1]
            # single registered scalar scales the profile's (unique) rate
            rates = {q for _, _, q in dm.profile}
            if len(rates) != 1:
                raise ScenarioError(
                    f"parameter {token!r}: profile has multiple rates; "
                    "register pieces individually via the scenario file"
                )
            params.append(
                Parameter(name=token, kind="demand", target=(k - 1,), base=rates.pop())
            )
        else:
            for attr in ("kappa", "qmax", "alpha", "u", "w"):
                if token.startswith(attr):
                    link_attr(attr, token[len(attr) :], token)
                    break
            else:
                raise ScenarioError(f"unknown parameter token {token!r}")

    return ParameterSet(params=tuple(params))
