"""Scalar reverse-mode automatic differentiation on an append-only tape.

The tape records one entry per elementary operation or affine statement,
with its parent indices and the local partial derivatives evaluated at
record time.  An entry with at most two parents lives in four parallel
lists (first parent, second parent, and their partials); an affine
statement `Σ c_k·x_k` with more parents keeps them, and its plain float
coefficients, in two side lists.  The forward value lives only on the `Var`
handle, so the tape keeps no value of its own.  A single backward sweep
yields adjoints for every entry; a forward sweep (`jvp`) yields directional
derivatives.

Operations accept a mix of `Var` handles and plain floats.  When no argument
is a `Var` the result is a plain float and nothing is recorded.  Every `Var`
operand is checked against the tape it is used on, on every path.

`FloatTape` is the op table of a run with no `Var` input at all (the
finite-difference and SPSA paths): each operation is the all-float branch of
the `Tape` operation, with no type dispatch, and nothing can be recorded.

Three rules skip entries that would move neither a value nor an adjoint,
and return what the float operation returns, signed zeros included:
  * exact zero: with a plain float zero operand (for `sub`, the right one),
    `add` and `sub` return the other operand unless -0.0 + 0.0 gives 0.0,
    and `mul` returns the plain float product;
  * exact one: `mul` with a plain float 1.0 operand, and `div` of a `Var` by
    a plain float 1.0, return the other operand;
  * pass-through: when exactly one operand of `min2`/`max2` is a `Var`, the
    winner is returned as it is, the `Var` itself or the plain float.
An int 0 or 1 is not a plain float and still records.

Affine statements are folded at record time (preaccumulation: Griewank &
Walther 2008, *Evaluating Derivatives*, ch. 10).  `madd(y, a, x)` records
y + a*x (plain float `a`) as one entry with partials (1, a), with the value
`add(y, mul(a, x))` gives; `rate(a, b, h)` records (a - b) / h as one entry
with partials 1/h and -(1/h), with the value `div(sub(a, b), h)` gives;
`sum(xs)` records the sum of its `add` chain as one entry with partials
1.0; and `lin(val, xs, cs)` records any affine statement whose value `val`
the caller computed in the float order of the chain it replaces.  Each
partial is an exact product of the chain's partials (±1 and a plain float
coefficient), so the adjoints of a folded entry are those of its chain bit
for bit; so are its tangents where each term's product is exact (one-hot
tangents on its operands, say), and elsewhere they agree to rounding.  A
statement with no `Var` operand is its plain float value, and one whose
only `Var` operand has coefficient 1.0 and the statement's value bit for
bit is that `Var`.

A fourth rule is kept by the callers:
  * decided on values: where a `min2`/`max2` decides which expression
    survives, the caller first runs the code that records its operands on
    `FLOAT`, the shared `FloatTape`, over forward values, and records only
    the one that wins; a bound that wins is returned as it is, and on a
    float run the first evaluation is the answer.  The forward values are
    those the tape records, bit for bit, so this holds for every link,
    registered parameters or not.  The link clamps and the Newell counts
    of segment travel times (`ltm`), free-flow travel times and
    deterministic routing (`routing`, `engine`) are decided this way, and
    so is the INM (`nodemodel`), which calls no `min2`.  A node with one
    inflow takes the FIFO diverge's winner on values: its demand, returned
    as it is, or one supply quotient S / B.  With more inflows, where no
    outlink binds, it takes its solution in closed form: each inlink's
    demand, returned as it is, and the outlink sums of B * D; elsewhere it
    picks its step and each inlink's cap or remaining demand on values and
    records only the winners.

Kink conventions:
  * min2/max2 at an exact tie route the full partial to the FIRST argument,
    and with one `Var` operand the first argument is the one returned.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np

__all__ = ["Var", "Tape", "FloatTape", "FLOAT", "TapeError", "GUARD_EPS"]

# guard constant for protected divisions (vehicle units)
GUARD_EPS = 1e-9

_FOREIGN = "variable belongs to a different tape"

# first-parent marker of an entry with more than two parents: its second
# parent slot holds the index of its terms in the side lists
_NARY = -2


class TapeError(Exception):
    """Structural misuse of the tape (e.g. mixing variables across tapes)."""


class Var:
    """Handle to one tape entry: an index plus the cached forward value."""

    __slots__ = ("tape", "idx", "val")

    def __init__(self, tape: "Tape", idx: int, val: float):
        self.tape = tape
        self.idx = idx
        self.val = val

    def __repr__(self):
        return f"Var({self.val:.6g}@{self.idx})"


def _sums_to(x: float, zero: float) -> bool:
    """Whether x + zero is x bit for bit: all but -0.0 + 0.0 are."""
    return bool(x) or math.copysign(1, x) > 0 or math.copysign(1, zero) < 0


def value(x) -> float:
    """Forward value of a Var or plain number."""
    return x.val if type(x) is Var else float(x)


class Tape:
    """Append-only record of elementary operations.

    Entries are stored in four parallel lists: parent indices `_p1`, `_p2`
    (-1 for none) and local partials `_d1`, `_d2`.  An entry with more than
    two parents has `_p1` `_NARY` and `_p2` the index k of its parents
    `_np[k]` and partials `_nd[k]`.  Topological order is guaranteed by
    construction: a parent is always recorded before its child.  A tape has
    a single writer; once the forward pass is complete it may be swept any
    number of times.

    Each operation tests its operands with `type(x) is Var` once and reads
    `.val` and `.idx` directly; this dispatch is the cost of every recorded
    scalar, so it is written out in each method.
    """

    def __init__(self):
        self._p1: list[int] = []
        self._p2: list[int] = []
        self._d1: list[float] = []
        self._d2: list[float] = []
        self._np: list[list[int]] = []
        self._nd: list[list[float]] = []

    def __len__(self) -> int:
        return len(self._p1)

    # ------------------------------------------------------------------
    # recording

    def _rec(self, val, p1, d1, p2, d2) -> Var:
        i = len(self._p1)
        self._p1.append(p1)
        self._p2.append(p2)
        self._d1.append(d1)
        self._d2.append(d2)
        return Var(self, i, val)

    def input(self, val: float) -> Var:
        """Register a differentiable input (a leaf entry)."""
        return self._rec(float(val), -1, 0.0, -1, 0.0)

    # ------------------------------------------------------------------
    # elementary operations (Var-or-float in, Var-or-float out)

    def add(self, a, b):
        if type(a) is Var:
            if a.tape is not self:
                raise TapeError(_FOREIGN)
            if type(b) is Var:
                if b.tape is not self:
                    raise TapeError(_FOREIGN)
                return self._rec(a.val + b.val, a.idx, 1.0, b.idx, 1.0)
            if b == 0.0 and isinstance(b, float) and _sums_to(a.val, b):
                return a
            return self._rec(a.val + b, a.idx, 1.0, -1, 1.0)
        if type(b) is Var:
            if b.tape is not self:
                raise TapeError(_FOREIGN)
            if a == 0.0 and isinstance(a, float) and _sums_to(b.val, a):
                return b
            return self._rec(a + b.val, -1, 1.0, b.idx, 1.0)
        return a + b

    def sub(self, a, b):
        if type(a) is Var:
            if a.tape is not self:
                raise TapeError(_FOREIGN)
            if type(b) is Var:
                if b.tape is not self:
                    raise TapeError(_FOREIGN)
                return self._rec(a.val - b.val, a.idx, 1.0, b.idx, -1.0)
            if b == 0.0 and isinstance(b, float) and _sums_to(a.val, -b):
                return a
            return self._rec(a.val - b, a.idx, 1.0, -1, -1.0)
        if type(b) is Var:
            if b.tape is not self:
                raise TapeError(_FOREIGN)
            return self._rec(a - b.val, -1, 1.0, b.idx, -1.0)
        return a - b

    def mul(self, a, b):
        if type(a) is Var:
            if a.tape is not self:
                raise TapeError(_FOREIGN)
            av = a.val
            if type(b) is Var:
                if b.tape is not self:
                    raise TapeError(_FOREIGN)
                bv = b.val
                return self._rec(av * bv, a.idx, bv, b.idx, av)
            if isinstance(b, float):
                if b == 0.0:
                    return av * b
                if b == 1.0:
                    return a
            return self._rec(av * b, a.idx, b, -1, av)
        if type(b) is Var:
            if b.tape is not self:
                raise TapeError(_FOREIGN)
            bv = b.val
            if isinstance(a, float):
                if a == 0.0:
                    return a * bv
                if a == 1.0:
                    return b
            return self._rec(a * bv, -1, bv, b.idx, a)
        return a * b

    def madd(self, y, a: float, x):
        """y + a*x for a plain float `a`, recorded as one entry.

        The value is computed as `add(y, mul(a, x))` computes it; the
        partials are (1, a).
        """
        if type(x) is not Var:
            return self.add(y, a * x)
        if x.tape is not self:
            raise TapeError(_FOREIGN)
        if a == 0.0:
            return self.add(y, a * x.val)
        if type(y) is Var:
            if y.tape is not self:
                raise TapeError(_FOREIGN)
            return self._rec(y.val + a * x.val, y.idx, 1.0, x.idx, a)
        if y == 0.0 and isinstance(y, float) and _sums_to(a * x.val, y):
            return self.mul(a, x)
        return self._rec(y + a * x.val, -1, 1.0, x.idx, a)

    def lin(self, val: float, xs, cs):
        """The affine statement of value `val` that reads each `Var` of
        `xs` with the plain float partial of `cs` at its position, as one
        entry; a plain float of `xs` is a constant and is not read.

        `val` is the caller's, computed in the float order of the chain the
        entry replaces.  With no `Var` it is returned as it is; a single
        `Var` read with partial 1.0 whose value is `val` bit for bit is
        returned itself.
        """
        ps, ds, var = [], [], None
        for x, c in zip(xs, cs):
            if type(x) is Var:
                if x.tape is not self:
                    raise TapeError(_FOREIGN)
                ps.append(x.idx)
                ds.append(c)
                var = x
        n = len(ps)
        if n > 2:
            self._np.append(ps)
            self._nd.append(ds)
            return self._rec(val, _NARY, 0.0, len(self._np) - 1, 0.0)
        if n == 2:
            return self._rec(val, ps[0], ds[0], ps[1], ds[1])
        if n == 0:
            return val
        v = var.val
        if ds[0] == 1.0 and val == v and (val or math.copysign(1, val)
                                          == math.copysign(1, v)):
            return var
        return self._rec(val, ps[0], ds[0], -1, 0.0)

    def sum(self, xs):
        """The sum of the chain `add(...add(xs[0], xs[1])..., xs[-1])` over
        a nonempty `xs`, in its float order, as one entry with partials
        1.0."""
        val = functools.reduce(operator.add,
                               [x.val if type(x) is Var else x for x in xs])
        return self.lin(val, xs, itertools.repeat(1.0))

    def rate(self, a, b, h: float):
        """(a - b) / h for a plain float h, as one entry with partials 1/h
        and -(1/h): the value `div(sub(a, b), h)` gives."""
        if type(a) is Var:
            if type(b) is Var:
                if a.tape is not self or b.tape is not self:
                    raise TapeError(_FOREIGN)
                r = 1.0 / h
                return self._rec((a.val - b.val) / h, a.idx, r, b.idx, -r)
        elif type(b) is not Var:
            return (a - b) / h
        r = 1.0 / h
        return self.lin((value(a) - value(b)) / h, (a, b), (r, -r))

    def div(self, a, b):
        if type(a) is Var:
            if a.tape is not self:
                raise TapeError(_FOREIGN)
            av, ai = a.val, a.idx
        elif type(b) is Var:
            av, ai = float(a), -1
        else:
            return a / b
        if type(b) is Var:
            if b.tape is not self:
                raise TapeError(_FOREIGN)
            bv, bi = b.val, b.idx
        else:
            if b == 1.0 and isinstance(b, float):
                return a
            bv, bi = float(b), -1
        if bv == 0.0:
            raise ZeroDivisionError("tape division by exact zero (use divg)")
        return self._rec(av / bv, ai, 1.0 / bv, bi, -av / (bv * bv))

    def divg(self, a, b):
        """Guarded division a / max2(b, GUARD_EPS)."""
        return self.div(a, self.max2(b, GUARD_EPS))

    def min2(self, a, b):
        """Minimum; at an exact tie the subgradient goes to the first argument."""
        if type(a) is Var:
            if a.tape is not self:
                raise TapeError(_FOREIGN)
            if type(b) is Var:
                if b.tape is not self:
                    raise TapeError(_FOREIGN)
                av, bv = a.val, b.val
                if av <= bv:
                    return self._rec(av, a.idx, 1.0, b.idx, 0.0)
                return self._rec(bv, a.idx, 0.0, b.idx, 1.0)
            return a if a.val <= b else b
        if type(b) is Var:
            if b.tape is not self:
                raise TapeError(_FOREIGN)
            return a if a <= b.val else b
        return a if a <= b else b

    def max2(self, a, b):
        """Maximum; at an exact tie the subgradient goes to the first argument."""
        if type(a) is Var:
            if a.tape is not self:
                raise TapeError(_FOREIGN)
            if type(b) is Var:
                if b.tape is not self:
                    raise TapeError(_FOREIGN)
                av, bv = a.val, b.val
                if av >= bv:
                    return self._rec(av, a.idx, 1.0, b.idx, 0.0)
                return self._rec(bv, a.idx, 0.0, b.idx, 1.0)
            return a if a.val >= b else b
        if type(b) is Var:
            if b.tape is not self:
                raise TapeError(_FOREIGN)
            return a if a >= b.val else b
        return a if a >= b else b

    def exp(self, a):
        if type(a) is not Var:
            return math.exp(a)
        if a.tape is not self:
            raise TapeError(_FOREIGN)
        e = math.exp(a.val)
        return self._rec(e, a.idx, e, -1, 0.0)

    # ------------------------------------------------------------------
    # sweeps

    def backward(self, output) -> np.ndarray:
        """Reverse sweep; returns the adjoint of every tape entry.

        `adjoints[v.idx]` is the subgradient of `output` with respect to
        entry `v`.  A float output (constant) yields all-zero adjoints.
        """
        n = len(self._p1)
        if type(output) is not Var:
            return np.zeros(n)
        if output.tape is not self:
            raise TapeError("output belongs to a different tape")
        adj = [0.0] * n
        adj[output.idx] = 1.0
        p1, p2, d1, d2 = self._p1, self._p2, self._d1, self._d2
        nps, nds = self._np, self._nd
        for i in range(output.idx, -1, -1):
            a = adj[i]
            if a == 0.0:
                continue
            j = p1[i]
            if j >= 0:
                adj[j] += a * d1[i]
            elif j == _NARY:
                k = p2[i]
                for j, d in zip(nps[k], nds[k]):
                    adj[j] += a * d
                continue
            j = p2[i]
            if j >= 0:
                adj[j] += a * d2[i]
        return np.array(adj)

    def grad(self, output, inputs) -> list[float]:
        """Adjoints of `output` for a list of Var-or-float inputs."""
        for v in inputs:
            if type(v) is Var and v.tape is not self:
                raise TapeError("input belongs to a different tape")
        adj = self.backward(output)
        return [adj[v.idx] if type(v) is Var else 0.0 for v in inputs]

    def jvp(self, output, direction: dict[int, float]) -> float:
        """Forward-mode sweep: directional derivative of `output`.

        `direction` maps tape indices (typically of registered inputs) to
        tangent values.
        """
        if type(output) is not Var:
            return 0.0
        if output.tape is not self:
            raise TapeError("output belongs to a different tape")
        n = output.idx + 1
        tan = [0.0] * n
        for idx, t in direction.items():
            if idx < n:
                tan[idx] = t
        p1, p2, d1, d2 = self._p1, self._p2, self._d1, self._d2
        nps, nds = self._np, self._nd
        for i in range(n):
            j, k = p1[i], p2[i]
            if j < 0 and k < 0:
                continue
            v = tan[i]
            if j >= 0:
                v += d1[i] * tan[j]
            elif j == _NARY:
                for j, d in zip(nps[k], nds[k]):
                    v += d * tan[j]
                tan[i] = v
                continue
            if k >= 0:
                v += d2[i] * tan[k]
            tan[i] = v
        return float(tan[output.idx])


class FloatTape(Tape):
    """The operations of `Tape` on plain floats only, for runs with no input.

    Each operation computes what the all-float branch of the `Tape`
    operation computes, with the same tie rule, signed zeros and
    `ZeroDivisionError`, but without testing its operands for `Var`.  The
    tape stays empty: `input` raises, and a sweep returns no adjoints.
    """

    add = operator.add
    sub = operator.sub
    mul = operator.mul
    div = operator.truediv
    exp = math.exp

    def input(self, val: float) -> Var:
        raise TapeError("a float tape takes no inputs")

    def madd(self, y, a: float, x):
        return y + a * x

    def lin(self, val: float, xs, cs):
        return val

    def sum(self, xs):
        return functools.reduce(operator.add, xs)

    def rate(self, a, b, h: float):
        return (a - b) / h

    def divg(self, a, b):
        return a / (b if b >= GUARD_EPS else GUARD_EPS)

    def min2(self, a, b):
        return a if a <= b else b

    def max2(self, a, b):
        return a if a >= b else b


# the float op table that decisions on forward values run on
FLOAT = FloatTape()
