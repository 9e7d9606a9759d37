"""Span tracer for the benchmark's traced run.

The tracer replaces public diffnet functions and methods, at the names their
callers resolve, with wrappers that record one span per call: name, start,
end, parent span and op id.  Spans live in flat arrays in memory and are
written once, at the end of the run.  A layer's self time is its spans'
duration minus the time covered by their child spans.

Nothing under `src/` is changed: the wrappers are installed for a traced op
and removed after it, so untraced ops run the program exactly as shipped.
"""

from __future__ import annotations

import weakref
from array import array
from time import perf_counter

import numpy as np

_MISSING = object()

# Span name -> the (module, class, attribute) names it wraps, relative to the
# diffnet package.  Callers resolve the node model, routing and travel-time
# helpers through the engine module's globals, so those are wrapped there;
# the benchmark itself resolves the package-level names.
SPANS = {
    "adcore.backward": (("adcore", "Tape", "backward"),),
    "nodemodel.inm_fixed": (("engine", None, "inm_fixed"),),
    "routing.build_routing": (("engine", None, "build_routing"),),
    "routing.turning_probs": (("engine", None, "turning_probs"),),
    "routing.travel_time": (("engine", None, "travel_time_avg"),
                            ("engine", None, "travel_time_segments")),
    "routing.composition": (("engine", None, "composition"),
                            ("engine", None, "fifo_split")),
    "ltm.demand": (("ltm", "LinkDyn", "demand"),),
    "ltm.supply": (("ltm", "LinkDyn", "supply"),),
    "ltm.update_boundaries": (("ltm", "LinkDyn", "update_boundaries"),),
    "engine.run": (("engine", "Simulator", "run"),),
    "engine.sim_init": (("engine", "Simulator", "__init__"),),
    "engine.trace_trip": (("engine", "Simulator", "trace_trip"),),
    "engine.objective": (("", None, "objective_ttt"),
                         ("engine", None, "objective_ttt")),
    "scenario.validate": (("scenario", "Scenario", "validate"),),
    "scenario.build": (("scenario", "Scenario", "from_dict"),),
    "scenario.register": (("", None, "register_parameters"),),
    "optimize.grad": (("optimize", None, "grad"),),
    "optimize.adam": (("", None, "adam_optimize"),),
}

# Per-op self seconds and per-op call counts, by metric name -> span name.
SELF_METRICS = {
    "adcore.backward_s": "adcore.backward",
    "nodemodel.inm_fixed_s": "nodemodel.inm_fixed",
    "routing.build_routing_s": "routing.build_routing",
    "routing.turning_probs_s": "routing.turning_probs",
    "routing.travel_time_s": "routing.travel_time",
    "routing.composition_s": "routing.composition",
    "ltm.demand_s": "ltm.demand",
    "ltm.supply_s": "ltm.supply",
    "ltm.update_boundaries_s": "ltm.update_boundaries",
    "engine.run_self_s": "engine.run",
    "engine.sim_init_s": "engine.sim_init",
    "engine.trace_trip_s": "engine.trace_trip",
    "engine.objective_s": "engine.objective",
    "scenario.validate_s": "scenario.validate",
    "optimize.grad_s": "optimize.grad",
    "optimize.adam_update_s": "optimize.adam",
}
CALL_METRICS = {
    "adcore.backward_calls": "adcore.backward",
    "nodemodel.inm_fixed_calls": "nodemodel.inm_fixed",
    "routing.build_routing_calls": "routing.build_routing",
    "routing.turning_probs_calls": "routing.turning_probs",
    "routing.travel_time_calls": "routing.travel_time",
    "routing.composition_calls": "routing.composition",
    "ltm.link_steps": "ltm.update_boundaries",
    "engine.run_calls": "engine.run",
    "engine.sim_init_calls": "engine.sim_init",
    "engine.trace_trip_calls": "engine.trace_trip",
}

# Spans that every workload must record: set-up always builds and registers,
# and every op runs the full timestep scan.
REQUIRED_SETUP = ("scenario.build", "scenario.register")
REQUIRED_OP = (
    "engine.sim_init", "engine.run", "engine.objective", "scenario.validate",
    "ltm.demand", "ltm.supply", "ltm.update_boundaries", "nodemodel.inm_fixed",
    "routing.build_routing", "routing.turning_probs", "routing.travel_time",
    "routing.composition",
)


class Tracer:
    """Records nested spans of wrapped calls; one writer, one thread."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self._stack = [-1]
        self._patches: list[tuple] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # ------------------------------------------------------------------
    # spans

    def open(self, name: str) -> int:
        """Open a span around the benchmark's own code; returns its index."""
        idx = len(self.start)
        self.span_name.append(self.name_id(name))
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrapper(self, fn, nid: int, on_return):
        names, parents, ops = self.span_name, self.parent, self.op
        starts, ends, stack = self.start, self.end, self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(idx, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    # installing and removing wrappers

    def wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        """Replace `owner.attr` by a span-recording wrapper."""
        raw = vars(owner).get(attr, _MISSING)
        nid = self.name_id(name)
        if isinstance(raw, classmethod):
            new = classmethod(self._wrapper(raw.__func__, nid, on_return))
        elif raw is _MISSING:
            new = self._wrapper(getattr(owner, attr), nid, on_return)
        else:
            new = self._wrapper(raw, nid, on_return)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, raw))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # analysis

    def arrays(self):
        """Copies of the span columns (a view would pin the arrays' size)."""
        return (np.array(self.span_name, dtype=np.int32),
                np.array(self.start, dtype=np.float64),
                np.array(self.end, dtype=np.float64),
                np.array(self.parent, dtype=np.int32),
                np.array(self.op, dtype=np.int32))

    def self_times(self):
        """Per-span duration and self time (duration minus child spans)."""
        _, start, end, parent, _ = self.arrays()
        dur = end - start
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return dur, dur - child

    def save(self, path) -> None:
        name, start, end, parent, op = self.arrays()
        np.savez(path, name=name, start=start, end=end, parent=parent, op=op,
                 names=np.array(self.names))


class LayerTrace:
    """Wraps diffnet's layers on a tracer and keeps the exact counts.

    Besides spans it keeps, for traced ops: the final length of every tape
    (tape entries), the share of entries with a non-zero adjoint in each
    tape's first sweep (the objective sweep), and every routing table's
    next hops, so that refreshes which change a next hop can be counted.
    """

    def __init__(self, dn, tracer: Tracer):
        self.dn = dn
        self.tracer = tracer
        self._tape_key = weakref.WeakKeyDictionary()
        self._swept = weakref.WeakSet()
        self.tape_len: list[int] = []
        self.tape_op: list[int] = []
        self.sweeps: list[tuple[int, int, int]] = []  # (op, nonzero, entries)
        self.next_hops: list[tuple[int, dict]] = []  # (span, next_link)

    def _tape_seen(self, tape) -> None:
        key = self._tape_key.get(tape)
        if key is None:
            key = len(self.tape_len)
            self._tape_key[tape] = key
            self.tape_len.append(0)
            self.tape_op.append(self.tracer.op_id)
        self.tape_len[key] = len(tape)

    def _on_run(self, idx, args, result):
        self._tape_seen(result.tape)

    def _on_backward(self, idx, args, adj):
        tape = args[0]
        self._tape_seen(tape)
        if tape not in self._swept:
            self._swept.add(tape)
            self.sweeps.append(
                (self.tracer.op_id, int(np.count_nonzero(adj)), len(adj))
            )

    def _on_routing(self, idx, args, table):
        self.next_hops.append((idx, table.next_link))

    def install(self, extra=()) -> None:
        """Wrap every layer target, plus (owner, attr, name) `extra` targets."""
        hooks = {
            ("engine", "Simulator", "run"): self._on_run,
            ("adcore", "Tape", "backward"): self._on_backward,
            ("engine", None, "build_routing"): self._on_routing,
        }
        for layer, targets in SPANS.items():
            for target in targets:
                module, cls, attr = target
                owner = getattr(self.dn, module) if module else self.dn
                if cls is not None:
                    owner = getattr(owner, cls)
                self.tracer.wrap(owner, attr, layer, hooks.get(target))
        for owner, attr, name in extra:
            self.tracer.wrap(owner, attr, name)

    def uninstall(self) -> None:
        self.tracer.unwrap_all()

    # ------------------------------------------------------------------

    def missing(self, required, ops: set[int]) -> list[str]:
        """Required span names that never fired in the given ops (-1 is
        set-up)."""
        name, _, _, _, op = self.tracer.arrays()
        fired = {self.tracer.names[i]
                 for i in np.unique(name[np.isin(op, list(ops))])}
        return [r for r in required if r not in fired]

    def refresh_changed(self, traced_ops: set[int]) -> tuple[int, int]:
        """(refreshes, refreshes whose next hops differ from the previous
        refresh of the same run), over traced ops."""
        _, _, _, parent, op = self.tracer.arrays()
        prev_by_run: dict[int, dict] = {}
        total = changed = 0
        for idx, nxt in self.next_hops:
            if int(op[idx]) not in traced_ops:
                continue
            run_span = int(parent[idx])
            prev = prev_by_run.get(run_span)
            total += 1
            if prev is not None and prev != nxt:
                changed += 1
            prev_by_run[run_span] = nxt
        return total, changed

    def metrics(self, traced_ops: set[int], n_ops: int,
                op_seconds: float) -> dict[str, float]:
        """Per-op self times, call counts and counts over the traced ops,
        plus set-up times of the scenario layer.  `op_seconds` is the
        traced ops' own timing, which the layers' self times should cover."""
        name, _, _, _, op = self.tracer.arrays()
        dur, self_t = self.tracer.self_times()
        in_op = np.isin(op, list(traced_ops))
        ids = {n: i for i, n in enumerate(self.tracer.names)}
        out: dict[str, float] = {}

        def select(layer, mask):
            nid = ids.get(layer, -1)
            return mask & (name == nid)

        for metric, layer in SELF_METRICS.items():
            out[metric] = float(self_t[select(layer, in_op)].sum()) / n_ops
        for metric, layer in CALL_METRICS.items():
            out[metric] = float(select(layer, in_op).sum()) / n_ops
        setup = op == -1
        out["scenario.build_s"] = float(dur[select("scenario.build", setup)].sum())
        out["scenario.register_s"] = float(
            dur[select("scenario.register", setup)].sum()
        )
        bench = [i for i, n in enumerate(self.tracer.names)
                 if n.startswith("bench.")]
        layer_self = float(self_t[in_op & ~np.isin(name, bench)].sum())
        out["trace.attributed_share"] = layer_self / op_seconds
        out["adcore.tape_entries"] = float(sum(
            n for n, o in zip(self.tape_len, self.tape_op) if o in traced_ops
        )) / n_ops
        live = [(nz, n) for o, nz, n in self.sweeps if o in traced_ops]
        entries = sum(n for _, n in live)
        out["adcore.live_entry_ratio"] = (
            sum(nz for nz, _ in live) / entries if entries else 0.0
        )
        total, changed = self.refresh_changed(traced_ops)
        out["routing.refresh_changed_ratio"] = changed / total if total else 0.0
        return out
