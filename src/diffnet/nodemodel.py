"""Flow transfer at junctions: the Incremental Node Model.

`inm_fixed` is the differentiable variant (Flötteröd & Rohde 2011).  Its
flows are a piecewise-linear function of demands, supplies, turning
fractions and priorities.  On the piece where no outlink binds, where every
outlink keeps supply slack under the full load B^T D, it returns that
piece in closed form: each inlink's flow is its demand and each outlink's
inflow B^T D, with no iteration.  Elsewhere it iterates until no inlink is
active and then makes one residual pass, within at most I + J + 1
iterations; the name of its old fixed-length form stays because the
benchmark wraps it.  A node with one inflow has nothing to merge: there the
iteration takes one step at most and then the residual pass, the FIFO
diverge that the generic node model reduces to (Tampère et al. 2011), and
a short form takes that solution without the loop, recording what the loop
records.  Every decision is made on forward values, read
straight from each `Var`: the closed form, the active sets
(piecewise-constant indicators), the winning step candidate and, per
inlink, whether the step cap or the remaining demand wins.  Only the
winners are recorded, so gradients flow through the step-size and update
arithmetic of whichever constraints are active, and a float run and a
taped run go through the same body.  It only reads its turning-fraction
rows, so the engine passes the same row object for every
single-destination inflow of a node that heads for the same destination.
"""

from __future__ import annotations

from .adcore import Tape, Var

__all__ = ["inm_fixed", "ACTIVE_EPS", "B_EPS"]

# slack below which a constraint counts as binding (keeps saturated links
# deterministically inactive despite float round-off)
ACTIVE_EPS = 1e-12
# threshold above which a turning fraction counts as a connection
B_EPS = 1e-12


def inm_fixed(tape: Tape, D, S, B, alpha):
    """Incremental flow allocation at one node.

    First, on forward values, it sums each outlink's load B^T D over its
    feeders (turning fraction above `B_EPS`).  If every outlink with a
    feeder keeps more than `ACTIVE_EPS` of supply under that load, no
    outlink binds: it returns each inlink's demand object itself as its
    flow and records only the sums B[l][o] * D[l], in inlink order, for the
    outlink inflows.  Nothing it returns then reads S or alpha.

    Otherwise, each iteration first finds, on forward values, which
    inlinks are blocked (an outlink they feed has no supply slack) and
    which are active (unblocked with demand left), in one pass over the
    inlinks.  While any
    inlink is active, it picks on values the largest feasible step `theta`,
    the smallest candidate: supply candidates first, then demand candidates,
    the first of equal ones winning.  Each unblocked inlink steps by its cap
    `alpha * theta` where that is no more than its remaining demand, else by
    the remaining demand.  Only winners are recorded: the winning candidate
    once, if a cap reads it (with the priority-weighted direction `phi` of
    its outlink for a supply candidate), then each inlink's step.  Once no
    inlink is active, one residual pass adds each unblocked inlink's
    remaining demand and the loop stops; I + J + 1 iterations are a cap.

    A node with one inflow takes a short form instead, which makes the
    decisions above on the same values and records the same entries in the
    same order, with the same arithmetic: served in full (the closed form);
    blocked, when a fed outlink has at most `ACTIVE_EPS` of supply (flows
    0.0); or one step, capped or not, then the residual pass unless a fed
    outlink binds after it.  An uncapped step is the demand itself, so some
    fed outlink binds after it.  Only when a capped step leaves the inlink
    unblocked with more than `ACTIVE_EPS` of demand, which round-off beyond
    `ACTIVE_EPS` does at rates in the thousands, does the node go to the
    loop, decided before anything is recorded.

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
    if I == 1:
        # the one-inflow form: the closed form's and the loop's decisions,
        # on the same values, and their entries.  Where the loop reads
        # `sub(x, 0.0)`, which is x, or `add(0.0, phi)`, which is phi > 0,
        # x and phi are read as they are
        d, a, row = D[0], alpha[0], B[0]
        dv = d.val if type(d) is Var else d
        av = a.val if type(a) is Var else a
        # the fed outlinks, with their turning fraction and supply on values
        fed = []
        full = True
        for o, b in enumerate(row):
            b = b.val if type(b) is Var else b
            if b > B_EPS:
                s = S[o]
                s = s.val if type(s) is Var else s
                fed.append((o, b, s))
                if not s - b * dv > ACTIVE_EPS:
                    full = False
        if full:  # no outlink binds
            for o, _, _ in fed:
                qout[o] = add(0.0, mul(row[o], d))
            return [d], qout
        for _, _, s in fed:
            if s <= ACTIVE_EPS:
                return qin, qout  # blocked
        capped = residual = again = False
        if dv > ACTIVE_EPS:
            theta = win = None
            for o, b, s in fed:
                phi = b * av
                if phi > 0.0:
                    c = s / phi
                    if win is None or not theta <= c:
                        theta, win = c, o
            c = dv / av
            if win is None or not theta <= c:
                theta, win = c, J
            # an uncapped step is the demand itself, under whose load some
            # fed outlink binds (not served in full): no residual pass
            capped = av * theta <= dv
            if capped:
                step = av * theta
                for _, b, s in fed:
                    if s - b * step <= ACTIVE_EPS:
                        break  # blocked after the step
                else:
                    residual = True
                    # active again: the loop takes the second step
                    again = dv - step > ACTIVE_EPS
        if not again:
            if capped:
                theta = (div(S[win], mul(row[win], a)) if win < J
                         else div(d, a))
                step = mul(a, theta)
            else:
                step = d
            q = add(0.0, step)
            for o, _, _ in fed:
                qout[o] = add(0.0, mul(row[o], step))
            if residual:
                step = sub(d, q)
                q = add(q, step)
                for o, _, _ in fed:
                    qout[o] = add(qout[o], mul(row[o], step))
            return [q], qout

    D_v = [x.val if type(x) is Var else x for x in D]
    S_v = [x.val if type(x) is Var else x for x in S]
    a_v = [x.val if type(x) is Var else x for x in alpha]
    # connections (turning fraction above B_EPS): the outlinks each inlink
    # feeds, and the inlinks feeding each outlink, in index order, with the
    # value of their term B[l][o] * alpha[l] of phi; and the value of each
    # outlink's load B^T D if every inlink were served in full
    conn: list[list[int]] = []
    feed: list[list[tuple[int, float]]] = [[] for _ in range(J)]
    load = [0.0] * J
    for l, row in enumerate(B):
        outs = []
        for o, b in enumerate(row):
            b = b.val if type(b) is Var else b
            if b > B_EPS:
                outs.append(o)
                feed[o].append((l, b * a_v[l]))
                load[o] += b * D_v[l]
        conn.append(outs)
    if all(s - x > ACTIVE_EPS for s, x, f in zip(S_v, load, feed) if f):
        # no outlink binds: every inlink is served in full
        for o, f in enumerate(feed):
            for l, _ in f:
                qout[o] = add(qout[o], mul(B[l][o], D[l]))
        return list(D), qout
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

