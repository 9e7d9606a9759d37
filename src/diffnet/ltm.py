"""Link-level kinematic wave computations on cumulative count curves.

All quantities live on an AD tape; parameters and curve values may be tape
variables or plain floats interchangeably.  Time is handled in timestep
units internally (index i corresponds to i * dt seconds).  A link on a
taped run keeps its forward values in `vals`, a float run's `LinkDyn` of the
same values, on which the clamps of its sending and receiving rates and its
Newell counts are decided before anything is recorded, whichever of its
parameters are registered.  A link steps only its curves: the engine's node
stage advances its `NU_s`.

A float run steps every link at once: its `LinkLayer` holds the boundary
curves of all links as one pair of (L, T+1) arrays, and `LinkDyn.demand`,
`supply` and `update_boundaries` run on it as a few array operations per
step, each elementwise the float operations of the per-link code, so they
give its values bit for bit (Yperman 2007's link model, whose min/max
operations are elementwise over links).
"""

from __future__ import annotations

import math

import numpy as np

from .adcore import FLOAT, FloatTape, Tape, Var, value

__all__ = ["LinkDyn", "LinkLayer", "interp", "interp_rows", "fd_speed",
           "free_occupancy", "V_MIN", "K_TINY"]

# congested-branch speed floor (m/s): caps travel time at jam density
V_MIN = 0.01
# density guard for the speed relation at k -> 0 (free-flow branch wins)
K_TINY = 1e-12


def interp(tape: Tape, curve: list, tau):
    """Linear interpolation of a cumulative curve at fractional index `tau`.

    Out-of-range indices are clamped: tau < 0 returns 0 (no vehicles before
    the start), tau beyond the last stored index returns the latest value.
    Inside it is (1 - delta) * N[i] + delta * N[i+1], delta = tau - i, for
    a float `tau` and a tape variable alike, so a decision on forward values
    reads the recorded value.  A variable `tau` also carries the sensitivity
    to the index (hence to u and w).
    """
    tv = tau.val if type(tau) is Var else tau
    last = len(curve) - 1
    if tv <= 0.0:
        return 0.0
    if tv >= last:
        return curve[last]
    i = int(tv)  # tv > 0: truncation is the floor
    if tv == i:
        if type(tau) is not Var:
            return curve[i]
        # value N[i]; the centred slope makes the index sensitivity at a
        # curve kink the symmetric (central-difference) limit.  It is taken
        # on values: its factor tau - i is 0.0, so nothing reads its adjoint
        a, b = curve[i + 1], curve[i - 1]
        slope = 0.5 * ((a.val if type(a) is Var else a)
                       - (b.val if type(b) is Var else b))
        return tape.add(curve[i], tape.mul(tape.sub(tau, float(i)), slope))
    delta = tape.sub(tau, float(i))
    lo = curve[i]
    if type(lo) is Var or lo != 0.0:  # else (1 - delta) * N[i] is 0.0
        lo = tape.mul(tape.sub(1.0, delta), lo)
    return tape.add(lo, tape.mul(delta, curve[i + 1]))


def interp_rows(curves: np.ndarray, tau: np.ndarray, last: int) -> np.ndarray:
    """`interp` on `FLOAT` of every row of `curves` at once, row l at the
    index `tau[l]`, over the columns up to `last`.

    The same rules, elementwise: 0.0 at tau <= 0, N[last] at tau >= last,
    N[i] itself at a whole tau = i, else (1 - delta) * N[i] + delta *
    N[i+1] with delta = tau - i, so each row's value is `interp`'s, bit for
    bit.
    """
    i = np.minimum(np.maximum(np.floor(tau), 0.0), max(last - 1, 0))
    delta = tau - i
    at = i.astype(np.intp)
    rows = np.arange(len(tau))
    lo = curves[rows, at]
    out = (1.0 - delta) * lo + delta * curves[rows, np.minimum(at + 1, last)]
    out = np.where(delta == 0.0, lo, out)
    out = np.where(tau >= last, curves[:, last], out)
    return np.where(tau <= 0.0, 0.0, out)


def moves_with_index(curve: list, tv: float) -> bool:
    """Whether `interp` of `curve` at an index of value `tv` moves with the
    index: `tv` is strictly inside, and the entries it interpolates between
    (a grid point's neighbours) differ in value."""
    if not 0.0 < tv < len(curve) - 1:
        return False
    i = int(tv)
    a, b = curve[i - 1] if tv == i else curve[i], curve[i + 1]
    return (a.val if type(a) is Var else a) != (b.val if type(b) is Var else b)


def fd_speed(tape: Tape, u, w, kappa, k):
    """Triangular-FD speed at density k.

    Single min/max expression so the free-flow / congested branch selection
    is a subdifferentiable kink rather than a control-flow branch:
        V = min(u, max(w*(kappa - k)/k, V_MIN))
    with the density guarded away from zero (free-flow branch then wins).
    """
    kg = tape.max2(k, K_TINY)
    cong = tape.div(tape.mul(w, tape.sub(kappa, k)), kg)
    return tape.min2(u, tape.max2(cong, V_MIN))


def free_occupancy(d: float, u: float, w: float, kappa: float) -> float:
    """The largest float occupancy n at which `fd_speed` on `FLOAT` at the
    density n / d returns the free-flow speed `u` itself; `inf` where every
    occupancy is free (u <= V_MIN).

    Every IEEE operation of `fd_speed` is monotone in n, so the occupancies
    at which `u` wins are exactly those up to this bound.  It is found with
    `fd_speed` itself, by float steps from the critical occupancy
    d * w * kappa / (u + w), which lies within a few steps of it.
    """
    if u <= V_MIN:
        return math.inf

    def free(n: float) -> bool:
        return fd_speed(FLOAT, u, w, kappa, n / d) is u

    n = d * w * kappa / (u + w)
    if free(n):
        while free(up := math.nextafter(n, math.inf)):
            n = up
    else:
        while not free(n):
            n = math.nextafter(n, -math.inf)
    return n


class LinkDyn:
    """Runtime state of one link: parameters plus boundary cumulative curves.

    Parameters are Var-or-float depending on what was registered on the
    tape.  `w` and `k_crit` are derived from the independent triple unless
    the link was registered under the alternate (u, w, kappa)
    parameterization, in which case `qmax` is derived.  `dests` are the
    demanded destinations the link's head reaches, in scenario order; no
    vehicle on the link heads anywhere else.  `NU_s` holds the running
    upstream count of each of them, only when there are two or more; with
    one, `NU` is that destination's curve and its share is a plain 1.0.
    The engine's node stage, not the link, advances `NU_s`.  `vals` holds
    the link's forward values on a taped run: a float run's `LinkDyn` built
    from the values of the parameters it was given, which derives `w` (or
    `qmax`) with the float operations whose results the taped `Var`s hold,
    and whose curves `update_boundaries` extends with the link's.  `vals` is
    `None` on a float run, whose link holds nothing else and whose
    `LinkLayer` steps it: `demand`, `supply` and `update_boundaries` run on
    a taped link or on a float run's layer, never on a float run's link.
    `free_n` is the link's `free_occupancy` over its forward values.
    """

    __slots__ = (
        "id",
        "head",
        "d",
        "u",
        "qmax",
        "kappa",
        "alpha",
        "w",
        "dests",
        "NU",
        "ND",
        "NU_s",
        "vals",
        "free_n",
    )

    def __init__(self, tape, params, dests, u=None, qmax=None, kappa=None,
                 alpha=None, w=None):
        self.id = params.id
        self.head = params.head
        self.d = params.d
        self.u = params.u if u is None else u
        self.kappa = params.kappa if kappa is None else kappa
        self.alpha = params.alpha if alpha is None else alpha
        if w is not None and qmax is None:
            # alternate parameterization: qmax = u*w*kappa / (u + w)
            self.w = w
            self.qmax = tape.div(
                tape.mul(tape.mul(self.u, w), self.kappa), tape.add(self.u, w)
            )
        else:
            self.qmax = params.qmax if qmax is None else qmax
            # w = qmax / (kappa - qmax/u)
            self.w = tape.div(
                self.qmax, tape.sub(self.kappa, tape.div(self.qmax, self.u))
            )
        self.dests = tuple(dests)
        self.NU = [0.0]
        self.ND = [0.0]
        self.NU_s = {s: 0.0 for s in dests} if len(dests) > 1 else {}
        if isinstance(tape, FloatTape):
            self.vals = None
            self.free_n = free_occupancy(self.d, self.u, self.w, self.kappa)
        else:
            given = {"u": u, "qmax": qmax, "kappa": kappa, "alpha": alpha,
                     "w": w}
            self.vals = LinkDyn(FLOAT, params, (), **{
                a: value(x) for a, x in given.items() if x is not None})
            self.free_n = self.vals.free_n

    # ------------------------------------------------------------------
    def newell_N(self, tape, t, x, dt: float):
        """Newell cumulative count at time t (steps) and position x (m):
        min2 of the free-flow count, `NU` read x / u earlier, and the
        congested count, `ND` read (d - x) / w earlier plus kappa * (d - x),
        decided on values.

        Both counts are first evaluated on `FLOAT` (over `vals` on a taped
        link), and on a float run the smaller is the answer.  A taped link
        records only the smaller, the free-flow count at a tie, reading a
        `Var` speed only where the value moves with the index.
        """
        vals = self.vals
        src = self if vals is None else vals
        tau_free = float(t) - x / (src.u * dt)
        tau_cong = float(t) - (self.d - x) / (src.w * dt)
        free = interp(FLOAT, src.NU, tau_free)
        cong = interp(FLOAT, src.ND, tau_cong) + src.kappa * (self.d - x)
        if vals is None:
            return free if free <= cong else cong
        if free <= cong:
            if type(self.u) is Var and moves_with_index(self.NU, tau_free):
                tau_free = tape.sub(float(t),
                                    tape.div(x, tape.mul(self.u, dt)))
            return interp(tape, self.NU, tau_free)
        if type(self.w) is Var and moves_with_index(self.ND, tau_cong):
            tau_cong = tape.sub(float(t),
                                tape.div(self.d - x, tape.mul(self.w, dt)))
        return tape.add(interp(tape, self.ND, tau_cong),
                        tape.mul(self.kappa, self.d - x))

    def demand(self, tape, t: int, dt: float):
        """Maximum sending rate at the downstream boundary during step t:
        the sending rate clamped to [0, qmax], decided on values (on a
        `LinkLayer`, every link's, as a list in link order)."""
        return self._clamped(tape, type(self)._sending, self.u, self.NU, t,
                             dt)

    def supply(self, tape, t: int, dt: float):
        """Maximum receiving rate at the upstream boundary during step t:
        the receiving rate clamped to [0, qmax], decided on values (on a
        `LinkLayer`, every link's, as a list in link order)."""
        return self._clamped(tape, type(self)._receiving, self.w, self.ND, t,
                             dt)

    def _sending(self, tape, t: int, tau, dt: float):
        return tape.rate(interp(tape, self.NU, tau), self.ND[t], dt)

    def _receiving(self, tape, t: int, tau, dt: float):
        room = tape.add(
            interp(tape, self.ND, tau), tape.mul(self.kappa, self.d)
        )
        return tape.rate(room, self.NU[t], dt)

    def _clamped(self, tape, rate, speed, curve, t: int, dt: float):
        """min2(max2(`rate`, 0.0), qmax) at step t, decided on values.

        `rate` reads `curve` at the index `tau`, one travel time at wave
        speed `speed` before the end of step t.  It is first evaluated on
        `FLOAT` over `vals`; 0.0 or `qmax` is returned as it is if it wins.
        Else the link records the rate, reading a `Var` speed only where
        the value moves with the index.
        """
        vals = self.vals
        tau = float(t + 1) - self.d / dt / (
            speed.val if type(speed) is Var else speed)
        raw = rate(vals, FLOAT, t, tau, dt)
        qmax = self.qmax
        qv = qmax.val if type(qmax) is Var else qmax
        # the rate wins max2 and min2 alike at a tie, as their first operand
        if not 0.0 <= raw <= qv:
            return qmax if raw > qv else 0.0
        if type(speed) is Var and moves_with_index(curve, tau):
            tau = tape.sub(float(t + 1), tape.div(self.d / dt, speed))
        return rate(self, tape, t, tau, dt)

    def update_boundaries(self, tape, dt: float, f_in, f_out):
        """Extend both boundary curves one step by the inflow `f_in` and
        the outflow `f_out` (on a `LinkLayer`, every link's, from lists of
        flows in link order).

        The one check on the flows a run produces: both must be finite and
        not below -1e-12, else a `ValueError` names the link, the step and
        the flows (on a layer, the first such link in link order).
        """
        self._extend(tape, dt, f_in, f_out)

    def _extend(self, tape, dt: float, f_in, f_out):
        vi = f_in.val if type(f_in) is Var else f_in
        vo = f_out.val if type(f_out) is Var else f_out
        if not (-1e-12 <= vi < math.inf and -1e-12 <= vo < math.inf):
            raise ValueError(_bad_flows(self.id, len(self.ND) - 1, vi, vo))
        nu = tape.madd(self.NU[-1], dt, f_in)
        nd = tape.madd(self.ND[-1], dt, f_out)
        self.NU.append(nu)
        self.ND.append(nd)
        vals = self.vals
        vals.NU.append(nu.val if type(nu) is Var else nu)
        vals.ND.append(nd.val if type(nd) is Var else nd)


def _bad_flows(link_id, t: int, vi: float, vo: float) -> str:
    return (f"link {link_id} at step {t}: boundary flows in {vi!r} and out "
            f"{vo!r} must be finite and >= 0")


class LinkLayer:
    """Every link of a float run at once, in link order.

    `d`, `u`, `w`, `kappa` and `qmax` are float64 arrays of the links'
    parameters, and `NU` and `ND` (L, T+1) float64 arrays of their boundary
    curves, column t the counts at step t, filled up to column `last`.
    `LinkDyn.demand`, `supply` and `update_boundaries` run on it over its
    own `_clamped`, `_sending`, `_receiving` and `_extend`: the per-link
    formulas as array operations, elementwise the same float operations, so
    each link gets what the per-link code on `FLOAT` gives it, bit for bit.
    `update_boundaries` also extends each link's own float curves, which
    routing, compositions, segment travel times and the results read.
    """

    __slots__ = ("links", "d", "u", "w", "kappa", "qmax", "NU", "ND", "last")

    def __init__(self, links: list, n_steps: int):
        self.links = links
        self.d, self.u, self.w, self.kappa, self.qmax = (
            np.array([getattr(lk, a) for lk in links], dtype=np.float64)
            for a in ("d", "u", "w", "kappa", "qmax"))
        self.NU = np.zeros((len(links), n_steps + 1))
        self.ND = np.zeros((len(links), n_steps + 1))
        self.last = 0

    def _sending(self, tape, t: int, tau, dt: float):
        return tape.rate(interp_rows(self.NU, tau, self.last), self.ND[:, t],
                         dt)

    def _receiving(self, tape, t: int, tau, dt: float):
        room = tape.add(interp_rows(self.ND, tau, self.last),
                        tape.mul(self.kappa, self.d))
        return tape.rate(room, self.NU[:, t], dt)

    def _clamped(self, tape, rate, speed, curve, t: int, dt: float):
        # `LinkDyn._clamped`'s clamp elementwise: the rate wins a tie and
        # keeps a -0.0, a rate above qmax gives qmax, and one below 0 or
        # NaN gives 0.0
        raw = rate(self, FLOAT, t, float(t + 1) - self.d / dt / speed, dt)
        qmax = self.qmax
        return np.where(raw > qmax, qmax,
                        np.where(raw >= 0.0, raw, 0.0)).tolist()

    def _extend(self, tape, dt: float, f_in, f_out):
        vi, vo = np.array(f_in), np.array(f_out)
        ok = (vi >= -1e-12) & (vi < math.inf) & (vo >= -1e-12) & (vo < math.inf)
        t = self.last
        if not ok.all():
            k = int(ok.argmin())
            raise ValueError(_bad_flows(self.links[k].id, t, f_in[k],
                                        f_out[k]))
        nu = self.NU[:, t + 1] = self.NU[:, t] + dt * vi
        nd = self.ND[:, t + 1] = self.ND[:, t] + dt * vo
        self.last = t + 1
        for lk, a, b in zip(self.links, nu.tolist(), nd.tolist()):
            lk.NU.append(a)
            lk.ND.append(b)

