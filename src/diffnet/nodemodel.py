"""Flow transfer at junctions: the Incremental Node Model.

`inm_fixed` is the differentiable variant (Flötteröd & Rohde 2011).  It
stops after one residual pass, made once no inlink is active, within at most
I + J + 1 iterations; the name of its old fixed-length form stays because the
benchmark wraps it.  Active-set membership is decided on forward values only
(piecewise-constant indicators), read straight from each `Var`; gradients
flow through the step-size and update arithmetic of whichever constraints
are active.  The step size and the step caps are decided on values: the
minimum over the candidate steps is replayed on forward values first, and
only the candidates that can still reach it are recorded, and only if a
step cap that a plain-float remaining demand does not win reads it.  It
only reads its turning-fraction rows, so the engine passes the same row
object for every single-destination inflow of a node that heads for the
same destination.

`inm_reference` is the plain variable-length while-loop formulation used as
an independent oracle in the tests.
"""

from __future__ import annotations

from .adcore import FloatTape, Tape, Var

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


def _step_size(cands):
    """`min2` over the candidate steps (x - q) / w, in order, on forward
    values.

    `cands` holds (x, q, w) triples.  The candidates up to the last point
    where the running minimum is a plain float cannot reach the result.
    Returns the step size's value and `None` when a plain float wins, else
    its value and the (floor, start) from which `_record_step` records it.
    """
    theta = floor = None
    var = False
    start = 0  # the candidates from here on are recorded, from `floor`
    for k, (x, q, w) in enumerate(cands):
        is_var = type(x) is Var or type(q) is Var or type(w) is Var
        if is_var:
            x, q, w = (v.val if type(v) is Var else v for v in (x, q, w))
        c = (x - q) / w  # `_candidate` on plain floats
        if theta is None or not theta <= c:  # c wins min2(theta, c)
            theta, var = c, is_var
        if not var:
            floor, start = theta, k + 1
    return theta, ((floor, start) if var else None)


def _record_step(tape: Tape, cands, theta, start: int):
    """The step size chain from candidate `start` on, from `theta`."""
    for k in range(start, len(cands)):
        c = _candidate(tape, *cands[k])
        theta = c if theta is None else tape.min2(theta, c)
    return theta


def _candidate(tape: Tape, x, q, w):
    return tape.div(tape.sub(x, q), w)


def inm_fixed(tape: Tape, D, S, B, alpha):
    """Incremental flow allocation at one node.

    Each iteration first finds, on forward values, which inlinks are blocked
    (an outlink they feed has no supply slack) and which are active
    (unblocked with demand left), in one pass over the inlinks.  While any
    inlink is active, it records the priority-weighted direction `phi_out`,
    the largest feasible step `theta` (supply candidates first, then demand
    candidates) and one capped step per unblocked inlink.  Once no inlink is
    active, one residual pass adds each unblocked inlink's remaining demand
    and the loop stops; I + J + 1 iterations are a cap.

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
    add, sub, mul, min2 = tape.add, tape.sub, tape.mul, tape.min2
    floats = isinstance(tape, FloatTape)
    qin = [0.0] * I
    qout = [0.0] * J
    D_v = [x.val if type(x) is Var else x for x in D]
    S_v = [x.val if type(x) is Var else x for x in S]
    # connections (turning fraction above B_EPS): the outlinks each inlink
    # feeds and the inlinks feeding each outlink, in index order
    conn = [[o for o, b in enumerate(row)
             if (b.val if type(b) is Var else b) > B_EPS] for row in B]
    feed: list[list[int]] = [[] for _ in range(J)]
    for l, outs in enumerate(conn):
        for o in outs:
            feed[o].append(l)
    # forward values of qin and qout, updated with them
    qin_v = [0.0] * I
    qout_v = [0.0] * J

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
            # branch (the side that persists under perturbation).  An
            # outlink with no active feeder has phi 0.0 and no candidate.
            cands = []
            for o in range(J):
                phi = phi_out[o]
                if slack[o] > ACTIVE_EPS and (
                        phi.val if type(phi) is Var else phi) > 0.0:
                    cands.append((S[o], qout[o], phi))
            for l in range(I):
                if act_in[l]:
                    cands.append((D[l], qin[l], alpha[l]))
            theta, chain = _step_size(cands)
            if not floats:
                # a step cap alpha*theta is recorded unless a plain-float
                # remaining demand wins it, and the step size only if read
                capped = [unblocked[l] and (
                    type(D[l]) is Var or type(qin[l]) is Var
                    or (a.val if type(a) is Var else a) * theta
                    <= D_v[l] - qin_v[l]) for l, a in enumerate(alpha)]
                if chain is not None and any(capped):
                    theta = _record_step(tape, cands, *chain)

        # per-inlink step: the residual demand, or alpha*theta capped at the
        # remaining demand (same fixed point; the cap carries the demand
        # sensitivity when the demand is the binding constraint)
        for l in range(I):
            if not unblocked[l]:
                continue
            step = sub(D[l], qin[l])
            if not converged and (floats or capped[l]):
                step = min2(mul(alpha[l], theta), step)
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
