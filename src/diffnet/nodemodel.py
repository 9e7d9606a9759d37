"""Flow transfer at junctions: the Incremental Node Model.

`inm_fixed` is the differentiable variant.  It stops after one residual
pass, made once no inlink is active, within at most I + J + 1 iterations; the
name of its old fixed-length form stays because the benchmark wraps it.
Active-set membership is decided on forward values only (piecewise-constant
indicators); gradients flow through the step-size and update arithmetic of
whichever constraints are active.

`inm_reference` is the plain variable-length while-loop formulation used as
an independent oracle in the tests.
"""

from __future__ import annotations

from .adcore import Tape, value

__all__ = ["inm_fixed", "inm_reference", "ACTIVE_EPS", "B_EPS"]

# slack below which a constraint counts as binding (keeps saturated links
# deterministically inactive despite float round-off)
ACTIVE_EPS = 1e-12
# threshold above which a turning fraction counts as a connection
B_EPS = 1e-12


def _blocked(l, qout_v, S_v, B_v):
    """An inlink is blocked if any outlink it feeds has no supply slack."""
    return any(
        B_v[l][o] > B_EPS and S_v[o] - qout_v[o] <= ACTIVE_EPS
        for o in range(len(S_v))
    )


def _active_sets(qin_v, qout_v, D_v, S_v, B_v):
    """Active inlinks, active outlinks and unblocked inlinks."""
    I, J = len(D_v), len(S_v)
    unblocked = [not _blocked(l, qout_v, S_v, B_v) for l in range(I)]
    act_in = [unblocked[l] and D_v[l] - qin_v[l] > ACTIVE_EPS for l in range(I)]
    act_out = []
    for o in range(J):
        ok = S_v[o] - qout_v[o] > ACTIVE_EPS and any(
            act_in[l] and B_v[l][o] > B_EPS for l in range(I)
        )
        act_out.append(ok)
    return act_in, act_out, unblocked


def inm_fixed(tape: Tape, D, S, B, alpha):
    """Incremental flow allocation at one node.

    Once no inlink is active, one residual pass adds each unblocked inlink's
    remaining demand and the loop stops; I + J + 1 iterations are a cap.

    Args:
        D: per-inlink demand rates (Var or float).
        S: per-outlink supply rates.
        B: turning fractions, B[l][o]; rows sum to 1 for inlinks with demand.
        alpha: per-inlink merge priorities (> 0).

    Returns:
        (qin, qout): allocated per-inlink outflow and per-outlink inflow.
    """
    I, J = len(D), len(S)
    add, sub, mul = tape.add, tape.sub, tape.mul
    qin = [0.0] * I
    qout = [0.0] * J
    D_v = [value(x) for x in D]
    S_v = [value(x) for x in S]
    # connections (turning fraction above B_EPS): the outlinks each inlink
    # feeds and the inlinks feeding each outlink, in index order
    conn = [[o for o in range(J) if value(B[l][o]) > B_EPS] for l in range(I)]
    feed: list[list[int]] = [[] for _ in range(J)]
    for l, outs in enumerate(conn):
        for o in outs:
            feed[o].append(l)
    # forward values of qin and qout, updated with them
    qin_v = [0.0] * I
    qout_v = [0.0] * J

    for _ in range(I + J + 1):
        # an inlink is blocked if any outlink it feeds has no supply slack
        slack = [S_v[o] - qout_v[o] for o in range(J)]
        unblocked = [not any(slack[o] <= ACTIVE_EPS for o in conn[l])
                     for l in range(I)]
        act_in = [unblocked[l] and D_v[l] - qin_v[l] > ACTIVE_EPS
                  for l in range(I)]
        # Converged in value: the residual demand pass keeps the sensitivity
        # of exactly-exhausted (or not-yet-positive) demands attached.
        converged = not any(act_in)

        if not converged:
            # priority-weighted direction over the active inlinks
            phi_out: list = [0.0] * J
            for o in range(J):
                acc = 0.0
                for l in feed[o]:
                    if act_in[l]:
                        acc = add(acc, mul(B[l][o], alpha[l]))
                phi_out[o] = acc

            # largest step not violating any active constraint; supply
            # candidates first so a demand/supply tie resolves to the supply
            # branch (the side that persists under perturbation)
            theta = None
            for o in range(J):
                if (slack[o] > ACTIVE_EPS and value(phi_out[o]) > 0.0
                        and any(act_in[l] for l in feed[o])):
                    cand = tape.div(sub(S[o], qout[o]), phi_out[o])
                    theta = cand if theta is None else tape.min2(theta, cand)
            for l in range(I):
                if act_in[l]:
                    cand = tape.div(sub(D[l], qin[l]), alpha[l])
                    theta = cand if theta is None else tape.min2(theta, cand)

        # per-inlink step: the residual demand, or alpha*theta capped at the
        # remaining demand (same fixed point; the cap carries the demand
        # sensitivity when the demand is the binding constraint)
        for l in range(I):
            if not unblocked[l]:
                continue
            step = sub(D[l], qin[l])
            if not converged:
                step = tape.min2(mul(alpha[l], theta), step)
            q = qin[l] = add(qin[l], step)
            qin_v[l] = value(q)
            for o in conn[l]:
                q = qout[o] = add(qout[o], mul(B[l][o], step))
                qout_v[o] = value(q)
        if converged:
            break

    return qin, qout


def inm_reference(D, S, B, alpha, max_iters: int = 1000):
    """Variable-length INM on plain floats (independent test oracle)."""
    I, J = len(D), len(S)
    qin = [0.0] * I
    qout = [0.0] * J
    for _ in range(max_iters):
        act_in, act_out, _ = _active_sets(qin, qout, D, S, B)
        if not any(act_in):
            break
        phi_in = [alpha[l] if act_in[l] else 0.0 for l in range(I)]
        phi_out = [
            sum(B[l][o] * phi_in[l] for l in range(I) if act_in[l]) for o in range(J)
        ]
        candidates = [(D[l] - qin[l]) / phi_in[l] for l in range(I) if act_in[l]]
        candidates += [
            (S[o] - qout[o]) / phi_out[o]
            for o in range(J)
            if act_out[o] and phi_out[o] > 0.0
        ]
        theta = min(candidates)
        for l in range(I):
            qin[l] += theta * phi_in[l]
        for o in range(J):
            qout[o] += theta * phi_out[o]
    return qin, qout
