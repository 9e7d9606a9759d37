"""Junction flow allocation: hand cases, reference-oracle equivalence,
conservation, and gradient behavior."""

import random
import time

import pytest

from diffnet.adcore import Tape, value
from diffnet.nodemodel import inm_fixed, inm_reference


def run_fixed(D, S, B, alpha):
    tape = Tape()
    qin, qout = inm_fixed(tape, D, S, B, alpha)
    return [value(x) for x in qin], [value(x) for x in qout]


# ----------------------------------------------------------------------
# hand-checked cases


def test_merge_demand_constrained():
    # both demands fit the single outlink: everything flows
    qin, qout = run_fixed([0.4, 0.4], [1.0], [[1.0], [1.0]], [1.0, 1.0])
    assert qin == pytest.approx([0.4, 0.4])
    assert qout == pytest.approx([0.8])


def test_merge_supply_constrained_equal_priorities():
    # supply 0.8 split between demands 0.3 and 0.9: the small inlink sends
    # everything, the larger takes the remainder 0.5
    qin, qout = run_fixed([0.3, 0.9], [0.8], [[1.0], [1.0]], [1.0, 1.0])
    assert qin == pytest.approx([0.3, 0.5])
    assert qout == pytest.approx([0.8])


def test_merge_supply_constrained_priority_weighting():
    # saturated merge with priorities 3:1 splits the supply 3:1
    qin, qout = run_fixed([1.0, 1.0], [0.8], [[1.0], [1.0]], [3.0, 1.0])
    assert qin == pytest.approx([0.6, 0.2])
    assert qout == pytest.approx([0.8])


def test_diverge_one_blocked_outlink_blocks_the_inlink():
    # an inlink feeding a zero-supply outlink sends nothing at all (FIFO)
    qin, qout = run_fixed([0.6], [0.0, 1.0], [[0.5, 0.5]], [1.0])
    assert qin == pytest.approx([0.0])
    assert qout == pytest.approx([0.0, 0.0])


def test_diverge_proportional_split():
    qin, qout = run_fixed([0.6], [1.0, 1.0], [[0.25, 0.75]], [1.0])
    assert qin == pytest.approx([0.6])
    assert qout == pytest.approx([0.15, 0.45])


def test_crossing_with_shared_bottleneck():
    # two inlinks share outlink 0 (supply 0.4) and own outlink 1 amply
    D = [0.5, 0.5]
    S = [0.4, 2.0]
    B = [[0.5, 0.5], [0.5, 0.5]]
    qin, qout = run_fixed(D, S, B, [1.0, 1.0])
    # each inlink advances until the shared outlink binds at theta = 0.4
    assert qin == pytest.approx([0.4, 0.4])
    assert qout == pytest.approx([0.4, 0.4])


def test_zero_demand_passes_through():
    qin, qout = run_fixed([0.0, 0.3], [1.0], [[1.0], [1.0]], [1.0, 1.0])
    assert qin == pytest.approx([0.0, 0.3])
    assert qout == pytest.approx([0.3])


# ----------------------------------------------------------------------
# oracle equivalence


def random_node(rng):
    I = rng.randint(1, 3)
    J = rng.randint(1, 3)
    D = [rng.uniform(0.0, 1.0) for _ in range(I)]
    S = [rng.uniform(0.0, 1.0) for _ in range(J)]
    B = []
    for _ in range(I):
        row = [rng.random() for _ in range(J)]
        tot = sum(row)
        B.append([x / tot for x in row])
    alpha = [rng.uniform(0.1, 10.0) for _ in range(I)]
    return D, S, B, alpha


def test_fixed_length_matches_reference_on_1000_random_nodes():
    rng = random.Random(42)
    t0 = time.perf_counter()
    for _ in range(1000):
        D, S, B, alpha = random_node(rng)
        qin_f, qout_f = run_fixed(D, S, B, alpha)
        qin_r, qout_r = inm_reference(D, S, B, alpha)
        for a, b in zip(qin_f + qout_f, qin_r + qout_r):
            assert abs(a - b) < 1e-9
    assert time.perf_counter() - t0 < 1.0


def test_node_conservation():
    rng = random.Random(99)
    for _ in range(200):
        D, S, B, alpha = random_node(rng)
        qin, qout = run_fixed(D, S, B, alpha)
        # inflow = outflow through the node
        sent = sum(
            qin[l] * B[l][o] for l in range(len(D)) for o in range(len(S))
        )
        assert sum(qout) == pytest.approx(sent, abs=1e-9)
        for l, q in enumerate(qin):
            assert -1e-12 <= q <= D[l] + 1e-12
        for o, q in enumerate(qout):
            assert -1e-12 <= q <= S[o] + 1e-12


# ----------------------------------------------------------------------
# gradients


def fd_node(D, S, B, alpha, which, idx, eps=1e-7):
    def total_qin(Dv, Sv):
        qin, _ = inm_reference(Dv, Sv, B, alpha)
        return sum(qin)

    if which == "D":
        hi = list(D)
        lo = list(D)
        hi[idx] += eps
        lo[idx] -= eps
        return (total_qin(hi, S) - total_qin(lo, S)) / (2 * eps)
    hi = list(S)
    lo = list(S)
    hi[idx] += eps
    lo[idx] -= eps
    return (total_qin(D, hi) - total_qin(D, lo)) / (2 * eps)


def test_gradient_demand_constrained_flows_through_demand():
    tape = Tape()
    D = [tape.input(0.3), tape.input(0.2)]
    S = [tape.input(1.0)]
    qin, _ = inm_fixed(tape, D, S, [[1.0], [1.0]], [1.0, 1.0])
    total = tape.add(qin[0], qin[1])
    g = tape.grad(total, D + S)
    assert g[0] == pytest.approx(1.0)
    assert g[1] == pytest.approx(1.0)
    assert g[2] == pytest.approx(0.0)


def test_gradient_supply_constrained_flows_through_supply():
    tape = Tape()
    D = [tape.input(0.9), tape.input(0.9)]
    S = [tape.input(0.8)]
    qin, _ = inm_fixed(tape, D, S, [[1.0], [1.0]], [1.0, 1.0])
    total = tape.add(qin[0], qin[1])
    g = tape.grad(total, D + S)
    assert g[0] == pytest.approx(0.0)
    assert g[1] == pytest.approx(0.0)
    assert g[2] == pytest.approx(1.0)


def test_gradients_match_fd_away_from_ties():
    rng = random.Random(5)
    tested = 0
    while tested < 100:
        D, S, B, alpha = random_node(rng)
        # avoid exact degeneracies in the random draw (measure zero anyway)
        tape = Tape()
        Dv = [tape.input(x) for x in D]
        Sv = [tape.input(x) for x in S]
        qin, _ = inm_fixed(tape, Dv, Sv, B, alpha)
        total = 0.0
        for q in qin:
            total = tape.add(total, q)
        g = tape.grad(total, Dv + Sv)
        ok = True
        for i in range(len(D)):
            fd = fd_node(D, S, B, alpha, "D", i)
            if abs(g[i] - fd) > 1e-5:
                ok = False
        for j in range(len(S)):
            fd = fd_node(D, S, B, alpha, "S", j)
            if abs(g[len(D) + j] - fd) > 1e-5:
                ok = False
        assert ok
        tested += 1
