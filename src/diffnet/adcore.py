"""Scalar reverse-mode automatic differentiation on an append-only tape.

The tape records one entry per elementary operation, each holding at most two
parent indices and the local partial derivatives evaluated at record time.
A single backward sweep yields adjoints for every entry; a forward sweep
(`jvp`) yields directional derivatives.

Operations accept a mix of `Var` handles and plain floats.  When no argument
is a `Var` the result is a plain float and nothing is recorded, so a
simulation whose registered inputs are all plain floats runs tape-free at
full speed.  This is what the finite-difference and SPSA paths use.

Exact-zero rule: with a plain float 0.0 operand (for `sub`, the right one),
`add` and `sub` return the other operand and `mul` returns 0.0, recording
nothing: such an entry moves neither a value nor an adjoint.

Kink conventions:
  * min2/max2 at an exact tie route the full partial to the FIRST argument.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Var", "Tape", "TapeError", "GUARD_EPS"]

# guard constant for protected divisions (vehicle units)
GUARD_EPS = 1e-9


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

    # Convenience operators; hot loops call the tape methods directly.
    def __add__(self, other):
        return self.tape.add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return self.tape.sub(self, other)

    def __rsub__(self, other):
        return self.tape.sub(other, self)

    def __mul__(self, other):
        return self.tape.mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self.tape.div(self, other)

    def __rtruediv__(self, other):
        return self.tape.div(other, self)

    def __neg__(self):
        return self.tape.neg(self)


def value(x) -> float:
    """Forward value of a Var or plain number."""
    return x.val if isinstance(x, Var) else float(x)


class Tape:
    """Append-only record of elementary operations.

    Entries are stored in parallel lists (parent indices, local partials,
    values).  Topological order is guaranteed by construction: a parent is
    always recorded before its child.  A tape has a single writer; once the
    forward pass is complete it may be swept any number of times.
    """

    def __init__(self):
        self._p1: list[int] = []
        self._p2: list[int] = []
        self._d1: list[float] = []
        self._d2: list[float] = []
        self._val: list[float] = []

    def __len__(self) -> int:
        return len(self._val)

    # ------------------------------------------------------------------
    # recording primitives

    def _rec(self, val, p1, d1, p2, d2) -> Var:
        i = len(self._val)
        self._p1.append(p1)
        self._p2.append(p2)
        self._d1.append(d1)
        self._d2.append(d2)
        self._val.append(val)
        return Var(self, i, val)

    def _pid(self, x) -> int:
        return self._own(x).idx if isinstance(x, Var) else -1

    def _own(self, x: Var) -> Var:
        if x.tape is not self:
            raise TapeError("variable belongs to a different tape")
        return x

    def input(self, val: float) -> Var:
        """Register a differentiable input (a leaf entry)."""
        return self._rec(float(val), -1, 0.0, -1, 0.0)

    # ------------------------------------------------------------------
    # elementary operations (Var-or-float in, Var-or-float out)

    def add(self, a, b):
        if not isinstance(b, Var):
            if not isinstance(a, Var):
                return a + b
            if isinstance(b, float) and b == 0.0:
                return self._own(a)
        elif isinstance(a, float) and a == 0.0:
            return self._own(b)
        return self._rec(value(a) + value(b), self._pid(a), 1.0, self._pid(b), 1.0)

    def sub(self, a, b):
        if not isinstance(b, Var):
            if not isinstance(a, Var):
                return a - b
            if isinstance(b, float) and b == 0.0:
                return self._own(a)
        return self._rec(value(a) - value(b), self._pid(a), 1.0, self._pid(b), -1.0)

    def mul(self, a, b):
        if not isinstance(b, Var):
            if not isinstance(a, Var):
                return a * b
            if isinstance(b, float) and b == 0.0:
                self._own(a)
                return 0.0
        elif isinstance(a, float) and a == 0.0:
            self._own(b)
            return 0.0
        av, bv = value(a), value(b)
        return self._rec(av * bv, self._pid(a), bv, self._pid(b), av)

    def div(self, a, b):
        if not (isinstance(a, Var) or isinstance(b, Var)):
            return a / b
        av, bv = value(a), value(b)
        if bv == 0.0:
            raise ZeroDivisionError("tape division by exact zero (use divg)")
        return self._rec(av / bv, self._pid(a), 1.0 / bv, self._pid(b), -av / (bv * bv))

    def divg(self, a, b):
        """Guarded division a / max2(b, GUARD_EPS)."""
        return self.div(a, self.max2(b, GUARD_EPS))

    def neg(self, a):
        if not isinstance(a, Var):
            return -a
        return self._rec(-a.val, a.idx, -1.0, -1, 0.0)

    def min2(self, a, b):
        """Minimum; at an exact tie the subgradient goes to the first argument."""
        if not (isinstance(a, Var) or isinstance(b, Var)):
            return a if a <= b else b
        av, bv = value(a), value(b)
        if av <= bv:
            return self._rec(av, self._pid(a), 1.0, self._pid(b), 0.0)
        return self._rec(bv, self._pid(a), 0.0, self._pid(b), 1.0)

    def max2(self, a, b):
        """Maximum; at an exact tie the subgradient goes to the first argument."""
        if not (isinstance(a, Var) or isinstance(b, Var)):
            return a if a >= b else b
        av, bv = value(a), value(b)
        if av >= bv:
            return self._rec(av, self._pid(a), 1.0, self._pid(b), 0.0)
        return self._rec(bv, self._pid(a), 0.0, self._pid(b), 1.0)

    def relu(self, a):
        return self.max2(a, 0.0)

    def exp(self, a):
        if not isinstance(a, Var):
            return math.exp(a)
        e = math.exp(a.val)
        return self._rec(e, a.idx, e, -1, 0.0)

    def log(self, a):
        av = value(a)
        if av <= 0.0:
            raise ValueError(f"log of non-positive value {av}")
        if not isinstance(a, Var):
            return math.log(av)
        return self._rec(math.log(av), a.idx, 1.0 / av, -1, 0.0)

    # ------------------------------------------------------------------
    # sweeps

    def backward(self, output) -> np.ndarray:
        """Reverse sweep; returns the adjoint of every tape entry.

        `adjoints[v.idx]` is the subgradient of `output` with respect to
        entry `v`.  A float output (constant) yields all-zero adjoints.
        """
        n = len(self._val)
        adj = np.zeros(n)
        if not isinstance(output, Var):
            return adj
        if output.tape is not self:
            raise TapeError("output belongs to a different tape")
        adj[output.idx] = 1.0
        p1, p2, d1, d2 = self._p1, self._p2, self._d1, self._d2
        for i in range(output.idx, -1, -1):
            a = adj[i]
            if a == 0.0:
                continue
            j = p1[i]
            if j >= 0:
                adj[j] += a * d1[i]
            j = p2[i]
            if j >= 0:
                adj[j] += a * d2[i]
        return adj

    def grad(self, output, inputs) -> list[float]:
        """Adjoints of `output` for a list of Var-or-float inputs."""
        adj = self.backward(output)
        return [adj[v.idx] if isinstance(v, Var) else 0.0 for v in inputs]

    def jvp(self, output, direction: dict[int, float]) -> float:
        """Forward-mode sweep: directional derivative of `output`.

        `direction` maps tape indices (typically of registered inputs) to
        tangent values.
        """
        if not isinstance(output, Var):
            return 0.0
        if output.tape is not self:
            raise TapeError("output belongs to a different tape")
        n = output.idx + 1
        tan = np.zeros(n)
        for idx, t in direction.items():
            if idx < n:
                tan[idx] = t
        p1, p2, d1, d2 = self._p1, self._p2, self._d1, self._d2
        for i in range(n):
            j, k = p1[i], p2[i]
            if j < 0 and k < 0:
                continue
            v = tan[i]
            if j >= 0:
                v += d1[i] * tan[j]
            if k >= 0:
                v += d2[i] * tan[k]
            tan[i] = v
        return float(tan[output.idx])
