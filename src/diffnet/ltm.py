"""Link-level kinematic wave computations on cumulative count curves.

All quantities live on an AD tape; parameters and curve values may be tape
variables or plain floats interchangeably.  Time is handled in timestep
units internally (index i corresponds to i * dt seconds).
"""

from __future__ import annotations

import math

from .adcore import Tape, Var, value

__all__ = ["LinkDyn", "interp", "fd_speed", "V_MIN", "K_TINY"]

# congested-branch speed floor (m/s): caps travel time at jam density
V_MIN = 0.01
# density guard for the speed relation at k -> 0 (free-flow branch wins)
K_TINY = 1e-12


def interp(tape: Tape, curve: list, tau):
    """Linear interpolation of a cumulative curve at fractional index `tau`.

    Out-of-range indices are clamped: tau < 0 returns 0 (no vehicles before
    the start), tau beyond the last stored index returns the latest value.
    `tau` may itself be a tape variable, in which case the result also
    carries the sensitivity to the index (hence to u and w).
    """
    tv = value(tau)
    last = len(curve) - 1
    if tv <= 0.0:
        return 0.0
    if tv >= last:
        return curve[last]
    i = int(math.floor(tv))
    if isinstance(tau, Var):
        # N[i] + (tau - i) * slope: differentiable in tau and values.  When
        # tau sits exactly on a grid point the one-sided slopes differ at
        # curve kinks; the centered slope is used there so the index
        # sensitivity matches the symmetric (central-difference) limit.
        if tv == i and i >= 1:
            slope = tape.mul(0.5, tape.sub(curve[i + 1], curve[i - 1]))
        else:
            slope = tape.sub(curve[i + 1], curve[i])
        return tape.add(curve[i], tape.mul(tape.sub(tau, float(i)), slope))
    delta = tv - i
    if delta == 0.0:
        return curve[i]
    return tape.add(
        tape.mul(1.0 - delta, curve[i]), tape.mul(delta, curve[i + 1])
    )


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
    """

    __slots__ = (
        "id",
        "tail",
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
    )

    def __init__(self, tape, params, dests, u=None, qmax=None, kappa=None,
                 alpha=None, w=None):
        self.id = params.id
        self.tail = params.tail
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

    # ------------------------------------------------------------------
    def newell_N(self, tape, t, x, dt: float):
        """Newell cumulative count at time t (steps) and position x (m)."""
        off_free = tape.div(x, tape.mul(self.u, dt))
        off_cong = tape.div(self.d - x, tape.mul(self.w, dt))
        free = interp(tape, self.NU, tape.sub(float(t), off_free))
        cong = tape.add(
            interp(tape, self.ND, tape.sub(float(t), off_cong)),
            tape.mul(self.kappa, self.d - x),
        )
        return tape.min2(free, cong)

    def demand(self, tape, t: int, dt: float):
        """Maximum sending rate at the downstream boundary during step t."""
        tau = tape.sub(float(t + 1), tape.div(self.d / dt, self.u))
        raw = tape.div(tape.sub(interp(tape, self.NU, tau), self.ND[t]), dt)
        return tape.min2(tape.max2(raw, 0.0), self.qmax)

    def supply(self, tape, t: int, dt: float):
        """Maximum receiving rate at the upstream boundary during step t."""
        tau = tape.sub(float(t + 1), tape.div(self.d / dt, self.w))
        room = tape.add(
            interp(tape, self.ND, tau), tape.mul(self.kappa, self.d)
        )
        raw = tape.div(tape.sub(room, self.NU[t]), dt)
        return tape.min2(tape.max2(raw, 0.0), self.qmax)

    def update_boundaries(self, tape, dt: float, f_in, f_out, f_in_s):
        """Extend both boundary curves one step and advance the
        per-destination upstream counts.

        The one check on the flows a run produces: both must be finite and
        not below -1e-12, else a `ValueError` names the link, the step and
        the flows.
        """
        vi, vo = value(f_in), value(f_out)
        if not (-1e-12 <= vi < math.inf and -1e-12 <= vo < math.inf):
            raise ValueError(f"link {self.id} at step {len(self.ND) - 1}: "
                             f"boundary flows in {vi!r} and out {vo!r} must "
                             "be finite and >= 0")
        self.NU.append(tape.madd(self.NU[-1], dt, f_in))
        self.ND.append(tape.madd(self.ND[-1], dt, f_out))
        for s, n in self.NU_s.items():
            self.NU_s[s] = tape.madd(n, dt, f_in_s.get(s, 0.0))
