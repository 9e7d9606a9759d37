"""The plain variable-length Incremental Node Model on floats: an oracle
for `diffnet.nodemodel.inm_fixed`, independent of its decisions on values,
its closed form and its recording."""

from diffnet.nodemodel import ACTIVE_EPS, B_EPS


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
