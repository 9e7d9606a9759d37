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
                         # (1 to M_MAX = 1000)
      tt_method: average # 'average' or 'segments'
    nodes:
      - {id: orig1, kind: origin}
      - {id: merge, kind: intermediate}
      - {id: dest,  kind: destination}
    links:
      - {id: '1', from: orig1, to: merge, d: 1000, u: 20, qmax: 0.8,
         kappa: 0.2, alpha: 1.0}
      - {id: '2', from: merge, to: dest, d: 1000, u: 20, qmax: 0.8,
         kappa: 0.2}
    demands:
      - {origin: orig1, destination: dest, profile: [[0, 1000, 0.45]]}
    tolls:
      - {link: '2', values: [0.0, 120.0, 0.0, 0.0]}

A key that nothing declares is refused, naming the key and its entry.
Units: metres, seconds, veh/s, veh/m.  Tolls are equivalent seconds of
travel time added to the link's routing cost.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass, field
from functools import cache, cached_property

import yaml

__all__ = [
    "LinkParams",
    "DemandProfile",
    "TollSchedule",
    "SimConfig",
    "Network",
    "ReverseLinks",
    "Scenario",
    "ScenarioError",
    "ValidationError",
    "ParameterSet",
    "register_parameters",
]


# the largest segment count: the segment travel time evaluates M + 1 Newell
# counts per link at every routing refresh
M_MAX = 1000


class ScenarioError(Exception):
    """Malformed scenario file (schema level)."""


class ValidationError(ScenarioError):
    """Scenario parsed but violates a model invariant (CFL, FD, topology)."""


@dataclass(frozen=True)
class LinkParams:
    id: str
    tail: str = field(metadata={"key": "from"})  # upstream node
    head: str = field(metadata={"key": "to"})  # downstream node
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
            if not 0 < getattr(self, name) < math.inf:
                raise ValidationError(f"link {self.id}: {name} must be finite and > 0")
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

    def cumulative(self, t_sec: float) -> float:
        """Vehicles generated on [0, t_sec)."""
        total = 0.0
        for t0, t1, q in self.profile:
            total += q * max(0.0, min(t_sec, t1) - t0)
        return total

    def validate(self, cfg: "SimConfig"):
        od, prev_end = f"demand {self.origin}->{self.destination}", None
        for t0, t1, q in self.profile:
            if not 0 <= q < math.inf:
                raise ValidationError(f"{od}: rate {q} must be finite and >= 0")
            for edge in (t0, t1):
                steps = edge / cfg.dt
                if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9:
                    raise ValidationError(f"{od}: interval edge {edge} not a "
                                          f"finite multiple of dt={cfg.dt}")
            if t1 <= t0:
                raise ValidationError(f"{od}: empty interval")
            if prev_end is not None and t0 < prev_end:
                raise ValidationError(f"{od}: overlapping intervals")
            prev_end = t1


@dataclass(frozen=True)
class TollSchedule:
    # link id -> per-period toll values (equivalent seconds), zero if absent;
    # the period width is `SimConfig.dt_toll`
    values: dict[str, tuple[float, ...]] = field(default_factory=dict)

    def validate(self):
        for lid, vals in self.values.items():
            if not all(0 <= v < math.inf for v in vals):
                raise ValidationError(
                    f"toll on link {lid}: values must be finite and >= 0")


@dataclass(frozen=True)
class SimConfig:
    dt: float
    T_max: float
    dt_route: float = field(metadata={"fallback": "dt"})  # default: meta.dt
    dt_toll: float = field(metadata={"fallback": "T_max"})  # default: T_max
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
        if not 0 < self.dt < math.inf:
            raise ValidationError(f"dt={self.dt} must be finite and > 0")
        for name in ("T_max", "dt_route", "dt_toll"):
            v = getattr(self, name)
            if not 0 < v < math.inf or abs(v / self.dt - round(v / self.dt)) > 1e-9:
                raise ValidationError(
                    f"{name}={v} must be a finite positive multiple of dt")
        if not 0 <= self.mu < math.inf:
            raise ValidationError(f"mu={self.mu} must be finite and >= 0")
        if self.M < 1:
            raise ValidationError("segment count M must be >= 1")
        if self.M > M_MAX:
            raise ValidationError(f"segment count M must be <= {M_MAX}")
        if self.tt_method not in ("average", "segments"):
            raise ValidationError(f"unknown tt_method {self.tt_method!r}")


# ----------------------------------------------------------------------
# The fields of `SimConfig` (`meta`), `LinkParams` and `DemandProfile` are the
# document schema, each read by its type: a reader takes the value, the prefix
# naming its entry in messages (`at`, "link 1: ") and the key.

def _number(x, at: str, key: str) -> float:
    """A float from an `int` or a `float`, never a boolean (`true` would
    load as 1.0) or a string.  An integer beyond the float range reads as
    +-inf, which the field's own finite rule refuses."""
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        try:
            return float(x)
        except OverflowError:
            return math.inf if x > 0 else -math.inf
    raise ValidationError(f"{at}{key}={x!r} must be a number")


def _segment_count(x, at: str, key: str) -> int:
    if type(x) is int or (type(x) is float and x.is_integer()):
        return int(x)
    raise ValidationError(f"segment count {key}={x!r} must be an integer")


def _text(x, at: str, key: str) -> str:
    """A name: a string, or an integer as written (`id: 1` is '1')."""
    if type(x) in (str, int):
        return str(x)
    raise ValidationError(f"{at}{key}={x!r} must be a string or an integer")


def _profile(x, at: str, key: str) -> tuple[tuple[float, float, float], ...]:
    return tuple((_number(t0, at, "interval edge"),
                  _number(t1, at, "interval edge"), _number(q, at, "rate"))
                 for t0, t1, q in x)


_READERS = {float: _number, int: _segment_count, str: _text,
            tuple[tuple[float, float, float], ...]: _profile}


@cache
def _schema(cls) -> dict:
    """Each field of the dataclass `cls` by document key, in declaration
    order: (attribute, reader, default, key whose value is the default)."""
    types = typing.get_type_hints(cls)
    return {f.metadata.get("key", f.name): (
        f.name, _READERS[types[f.name]], f.default, f.metadata.get("fallback"))
        for f in dataclasses.fields(cls)}


def _known(entry: dict, keys, where: str) -> str:
    """Refuse a key of `entry` that `keys` lacks; the prefix naming `entry`."""
    for key in entry.keys():
        if key not in keys:
            raise ScenarioError(f"{where}: unknown key {key!r}")
    return f"{where}: "


def _read(cls, entry: dict, where: str):
    """The dataclass `cls` read from its document mapping `entry`, which
    `where` names ("link 1"); a missing required key raises `KeyError`."""
    schema = _schema(cls)
    # `meta`'s fields are named bare ("dt=nan"), as `SimConfig.validate` does
    at = _known(entry, schema, where).removeprefix("meta: ")
    values = {}
    for key, (name, read, default, fallback) in schema.items():
        x = entry.get(key, entry[fallback] if fallback else default)
        if x is dataclasses.MISSING:
            raise KeyError(key)
        values[name] = read(x, at, key)
    return cls(**values)


def _plain(x):
    return [_plain(v) for v in x] if isinstance(x, tuple) else x


def _write(obj) -> dict:
    """The document entry of a dataclass that `_read` reads."""
    return {key: _plain(getattr(obj, name))
            for key, (name, *_) in _schema(type(obj)).items()}


def _mapping(x, where: str) -> dict:
    """`x`, which must be a mapping; `where` names it."""
    if not isinstance(x, dict):
        raise ScenarioError(f"{where}: expected a mapping, got {x!r}")
    return x


def _entries(section: str, xs):
    """The entries of the document list `xs`, each a mapping, named by
    `section` and position ("links entry 0")."""
    if not isinstance(xs, (list, tuple)):
        raise ScenarioError(f"{section}: expected a list, got {xs!r}")
    for k, x in enumerate(xs):
        yield _mapping(x, f"{section} entry {k}")


def _unique(what: str, pairs) -> dict:
    """A dict of (key, value) pairs, where no key may come twice."""
    out = {}
    for key, val in pairs:
        if key in out:
            raise ValidationError(f"duplicate {what} {key!r}")
        out[key] = val
    return out


@dataclass(frozen=True)
class ReverseLinks:
    """The links reversed, as the routing searches walk them.

    Nodes are numbered by their position in `names` (file order), which
    `pos` maps each node id to; links by their position in the list the
    adjacency was built from.  `heads[i]` is the position of link i's head
    and `ids[i]` its id; `into[k]` lists the inlinks of node k as (link
    number, tail position), in link order.
    """

    names: tuple[str, ...]
    pos: dict[str, int]
    heads: list[int]
    into: list[list[tuple[int, int]]]
    ids: list[str]

    @classmethod
    def of(cls, nodes, links) -> ReverseLinks:
        """The adjacency of node ids `nodes` and of `links`, anything with an
        `id`, a `tail` and a `head`."""
        names = tuple(nodes)
        pos = {n: k for k, n in enumerate(names)}
        heads = [pos[lk.head] for lk in links]
        into: list[list[tuple[int, int]]] = [[] for _ in names]
        for i, lk in enumerate(links):
            into[heads[i]].append((i, pos[lk.tail]))
        return cls(names, pos, heads, into, [lk.id for lk in links])


@dataclass(frozen=True)
class Network:
    """Integer-indexed topology of a scenario, built once by `Scenario.network`.

    Links are numbered by their position in `Scenario.links`; each node lists
    its link numbers in that (file) order.  `reaching` is keyed by the
    demanded destinations in `Scenario.destinations` order.
    """

    outlinks: dict[str, list[int]]  # node id -> outlink numbers
    inlinks: dict[str, list[int]]  # node id -> inlink numbers
    reaching: dict[str, set[str]]  # destination -> nodes reaching it (itself too)
    origin_demands: dict[str, list[int]]  # origin id -> demand indices
    reverse: ReverseLinks  # the links reversed, for routing


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
    def network(self) -> Network:
        """The scenario's topology, built once (the scenario is immutable)."""
        outlinks: dict[str, list[int]] = {n: [] for n in self.nodes}
        inlinks: dict[str, list[int]] = {n: [] for n in self.nodes}
        for i, lk in enumerate(self.links):
            outlinks.setdefault(lk.tail, []).append(i)
            inlinks.setdefault(lk.head, []).append(i)
        reaching = {}
        for dest in self.destinations:
            # one search backwards along the links from the destination
            seen = {dest}
            stack = [dest]
            while stack:
                for i in inlinks.get(stack.pop(), ()):
                    tail = self.links[i].tail
                    if tail not in seen:
                        seen.add(tail)
                        stack.append(tail)
            reaching[dest] = seen
        origin_demands: dict[str, list[int]] = {}
        for i, dm in enumerate(self.demands):
            origin_demands.setdefault(dm.origin, []).append(i)
        return Network(outlinks, inlinks, reaching, origin_demands,
                       ReverseLinks.of(self.nodes, self.links))

    @cached_property
    def destinations(self) -> tuple[str, ...]:
        """Demanded destinations, in order of first demand."""
        return tuple(dict.fromkeys(dm.destination for dm in self.demands))

    @cached_property
    def origins(self) -> tuple[str, ...]:
        """Demanding origins, in order of first demand."""
        return tuple(dict.fromkeys(dm.origin for dm in self.demands))

    # ------------------------------------------------------------------
    def validate(self):
        self.config.validate()
        ids = _unique("link id", ((lk.id, lk) for lk in self.links))
        for lk in self.links:
            lk.validate()
            for node in (lk.tail, lk.head):
                if node not in self.nodes:
                    raise ValidationError(f"link {lk.id}: unknown node {node!r}")
            if self.config.dt > lk.d / lk.u + 1e-12:
                raise ValidationError(
                    f"CFL violated on link {lk.id}: dt={self.config.dt} > "
                    f"d/u={lk.d / lk.u:.6g}"
                )
        for nid, kind in self.nodes.items():
            if kind not in ("origin", "destination", "intermediate"):
                raise ValidationError(f"node {nid}: unknown kind {kind!r}")
            if kind == "origin" and self.network.inlinks[nid]:
                raise ValidationError(f"origin node {nid} must have no inlinks")
            if kind == "destination" and self.network.outlinks[nid]:
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
        """Whether `node` reaches the demanded destination `dest`."""
        return node in self.network.reaching[dest]

    # ------------------------------------------------------------------
    # file I/O

    @classmethod
    def from_dict(cls, doc: dict) -> "Scenario":
        try:
            _known(doc, ("meta", "nodes", "links", "demands", "tolls"), "top level")
            cfg = _read(SimConfig, _mapping(doc["meta"], "meta"), "meta")
            nodes = _unique("node id", (
                (_text(n["id"], "node ", "id"), _text(n["kind"], at, "kind"))
                for n in _entries("nodes", doc["nodes"])
                for at in [_known(n, ("id", "kind"), f"node {n.get('id')}")]))
            links = tuple(_read(LinkParams, lk, f"link {lk.get('id')}")
                          for lk in _entries("links", doc["links"]))
            demands = tuple(
                _read(DemandProfile, dm,
                      f"demand {dm.get('origin')}->{dm.get('destination')}")
                for dm in _entries("demands", doc.get("demands", [])))
            tolls = TollSchedule(values=_unique("toll link", (
                (_text(tl["link"], "toll ", "link"),
                 tuple(_number(v, at, "value") for v in tl["values"]))
                for tl in _entries("tolls", doc.get("tolls", []))
                for at in [_known(tl, ("link", "values"),
                                  f"toll on link {tl.get('link')}")])))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            # a missing key, or a section or value of the wrong shape
            raise ScenarioError(f"malformed scenario document: {exc!r}") from exc
        scn = cls(nodes=nodes, links=links, demands=demands, tolls=tolls, config=cfg)
        scn.validate()
        return scn

    @classmethod
    def load(cls, path) -> "Scenario":
        with open(path) as fh:
            try:
                doc = yaml.safe_load(fh)
            except (yaml.YAMLError, ValueError) as exc:
                # the parser's message spans lines; the CLI prints one
                reason = " ".join(str(exc).split())
                raise ScenarioError(f"cannot parse {path}: {reason}") from exc
        if not isinstance(doc, dict):
            raise ScenarioError(f"{path}: top level must be a mapping")
        return cls.from_dict(doc)

    def to_dict(self) -> dict:
        return {
            "meta": _write(self.config),
            "nodes": [{"id": n, "kind": k} for n, k in self.nodes.items()],
            "links": [_write(lk) for lk in self.links],
            "demands": [_write(dm) for dm in self.demands],
            "tolls": [{"link": lid, "values": list(vals)}
                      for lid, vals in self.tolls.values.items()],
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

    def validate(self, scenario: Scenario, values) -> None:
        """Check `values` against the rules the scenario file applies to each
        parameter's field; the `ValidationError` names the parameter.

        Link attributes and w are finite and > 0, keep the critical density
        below the jam density and keep the CFL condition; demand rates are
        finite and >= 0; tolls are finite (negative values stay allowed for
        finite-difference and SPSA probes around zero).
        """
        by_link: dict[str, dict[str, tuple[str, float]]] = {}
        for p, v in zip(self.params, values):
            if p.kind == "toll":
                ok, rule = math.isfinite(v), "finite"
            elif p.kind == "demand":
                ok, rule = 0 <= v < math.inf, "finite and >= 0"
            else:
                ok, rule = 0 < v < math.inf, "finite and > 0"
                lid, attr = p.target
                by_link.setdefault(lid, {})[attr] = (p.name, v)
            if not ok:
                raise ValidationError(
                    f"parameter {p.name!r}: value {v!r} must be {rule}")
        for lid, attrs in by_link.items():
            triple = {a: nv for a, nv in attrs.items()
                      if a in ("u", "qmax", "kappa")}
            lk = dataclasses.replace(
                scenario.link(lid), **{a: v for a, (_, v) in triple.items()})
            # with w registered, qmax = u*w*kappa/(u + w) keeps k_crit < kappa
            if "w" not in attrs and lk.k_crit >= lk.kappa:
                names = ", ".join(repr(n) for n, _ in triple.values())
                raise ValidationError(
                    f"parameter {names}: link {lid}: critical density "
                    f"{lk.k_crit:.4g} must be below jam density {lk.kappa:.4g}"
                )
            if "u" in attrs and scenario.config.dt > lk.d / lk.u + 1e-12:
                raise ValidationError(
                    f"parameter {attrs['u'][0]!r}: CFL violated on link {lid}: "
                    f"dt={scenario.config.dt} > d/u={lk.d / lk.u:.6g}"
                )


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
    # (kind, target) -> (token, parameter name); one token never registers
    # a target twice, so a target already here came from an earlier token
    owner: dict[tuple, tuple[str, str]] = {}
    link_ids = {lk.id for lk in scenario.links}
    seen_fd: dict[str, set[str]] = {}

    def add(token: str, name: str, kind: str, target: tuple, base: float):
        if (kind, target) in owner:
            first, first_name = owner[kind, target]
            raise ScenarioError(
                f"parameters {first!r} and {token!r} both register {first_name}"
            )
        owner[kind, target] = (token, name)
        params.append(Parameter(name=name, kind=kind, target=target, base=base))

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
        add(token, token, "link", (lid, attr), base)

    n_periods = scenario.config.n_toll_periods
    for token in tokens:
        if token.startswith("toll:"):
            rest = token[len("toll:") :]
            if rest == "*":
                # scheduled values past the horizon have no effect
                for lid in sorted(scenario.tolls.values):
                    vals = scenario.tolls.values[lid][:n_periods]
                    for p, v in enumerate(vals):
                        add(token, f"toll:{lid}:{p}", "toll", (lid, p), v)
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
            add(token, token, "toll", (lid, period), base)
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
            rate = rates.pop()
            if rate == 0.0:
                raise ScenarioError(
                    f"parameter {token!r}: demand profile #{k} has rate 0, "
                    "so the parameter would have no effect"
                )
            add(token, token, "demand", (k - 1,), rate)
        else:
            for attr in ("kappa", "qmax", "alpha", "u", "w"):
                if token.startswith(attr):
                    link_attr(attr, token[len(attr) :], token)
                    break
            else:
                raise ScenarioError(f"unknown parameter token {token!r}")

    return ParameterSet(params=tuple(params))
