"""Flow transfer at junctions: the Incremental Node Model.

`inm_fixed` is the differentiable variant (Flötteröd & Rohde 2011).  It
stops after one residual pass, made once no inlink is active, within at most
I + J + 1 iterations; the name of its old fixed-length form stays because the
benchmark wraps it.  Every decision is made on forward values, read straight
from each `Var`: the active sets (piecewise-constant indicators), the
winning step candidate and, per inlink, whether the step cap or the
remaining demand wins.  Only the winners are recorded, so gradients flow
through the step-size and update arithmetic of whichever constraints are
active, and a float run and a taped run go through the same body.  It only
reads its turning-fraction rows, so the engine passes the same row object
for every single-destination inflow of a node that heads for the same
destination.

`inm_reference` is the plain variable-length while-loop formulation used as
an independent oracle in the tests.
"""

from __future__ import annotations

from .adcore import Tape, Var

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

    Each iteration first finds, on forward values, which inlinks are blocked
    (an outlink they feed has no supply slack) and which are active
    (unblocked with demand left), in one pass over the inlinks.  While any
    inlink is active, it picks on values the largest feasible step `theta`,
    the smallest candidate: supply candidates first, then demand candidates,
    the first of equal ones winning.  Each unblocked inlink steps by its cap
    `alpha * theta` where that is no more than its remaining demand, else by
    the remaining demand.  Only winners are recorded: the winning candidate
    once, if a cap reads it (with the priority-weighted direction `phi` of
    its outlink for a supply candidate), then each inlink's step.  Once no
    inlink is active, one residual pass adds each unblocked inlink's
    remaining demand and the loop stops; I + J + 1 iterations are a cap.

    Args:
        D: per-inlink demand rates (Var or float).
        S: per-outlink supply rates.
        B: turning fractions, B[l][o]; rows sum to 1 for inlinks with demand.
            Rows are only read, so inflows may share one row object.
        alpha: per-inlink merge priorities (> 0).

    Returns:
        (qin, qout): allocated per-inlink outflow and per-outlink inflow.
    """
    I, J = len(D), len(S)
    add, sub, mul, div = tape.add, tape.sub, tape.mul, tape.div
    qin, qout = [0.0] * I, [0.0] * J
    D_v = [x.val if type(x) is Var else x for x in D]
    S_v = [x.val if type(x) is Var else x for x in S]
    a_v = [x.val if type(x) is Var else x for x in alpha]
    # connections (turning fraction above B_EPS): the outlinks each inlink
    # feeds, and the inlinks feeding each outlink, in index order, with the
    # value of their term B[l][o] * alpha[l] of phi
    conn: list[list[int]] = []
    feed: list[list[tuple[int, float]]] = [[] for _ in range(J)]
    for l, row in enumerate(B):
        outs = []
        for o, b in enumerate(row):
            b = b.val if type(b) is Var else b
            if b > B_EPS:
                outs.append(o)
                feed[o].append((l, b * a_v[l]))
        conn.append(outs)
    qin_v, qout_v = [0.0] * I, [0.0] * J  # the values of qin and qout

    for _ in range(I + J + 1):
        slack = [s - q for s, q in zip(S_v, qout_v)]
        # blocked: an outlink the inlink feeds has no supply slack; active:
        # unblocked with demand left
        unblocked = [True] * I
        act_in = [False] * I
        converged = True
        for l in range(I):
            for o in conn[l]:
                if slack[o] <= ACTIVE_EPS:
                    unblocked[l] = False
                    break
            else:
                if D_v[l] - qin_v[l] > ACTIVE_EPS:
                    act_in[l] = True
                    converged = False
        # Converged in value: the residual demand pass keeps the sensitivity
        # of exactly-exhausted (or not-yet-positive) demands attached.
        capped = [False] * I

        if not converged:
            # largest step not violating any active constraint: supply
            # candidates (x - q) / w first, so a demand/supply tie resolves
            # to the supply branch (the side that persists under
            # perturbation).  An outlink with no active feeder has phi 0.0
            # and no candidate.
            theta = win = None
            for o in range(J):
                if slack[o] > ACTIVE_EPS:
                    phi = 0.0
                    for l, ba in feed[o]:
                        if act_in[l]:
                            phi += ba
                    if phi > 0.0:
                        c = slack[o] / phi
                        if win is None or not theta <= c:
                            theta, win = c, o
            for l in range(I):
                if act_in[l]:
                    c = (D_v[l] - qin_v[l]) / a_v[l]
                    if win is None or not theta <= c:
                        theta, win = c, J + l
            # the cap wins a tie with the remaining demand
            capped = [u and a * theta <= d - q for u, a, d, q
                      in zip(unblocked, a_v, D_v, qin_v)]
            if any(capped):
                if win < J:  # a supply candidate, over phi of outlink win
                    phi = 0.0
                    for l, _ in feed[win]:
                        if act_in[l]:
                            phi = add(phi, mul(B[l][win], alpha[l]))
                    theta = div(sub(S[win], qout[win]), phi)
                else:
                    l = win - J
                    theta = div(sub(D[l], qin[l]), alpha[l])

        for l in range(I):
            if not unblocked[l]:
                continue
            step = mul(alpha[l], theta) if capped[l] else sub(D[l], qin[l])
            q = qin[l] = add(qin[l], step)
            qin_v[l] = q.val if type(q) is Var else q
            row = B[l]
            for o in conn[l]:
                q = qout[o] = add(qout[o], mul(row[o], step))
                qout_v[o] = q.val if type(q) is Var else q
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
