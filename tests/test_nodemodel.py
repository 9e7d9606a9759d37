"""Junction flow allocation: hand cases, reference-oracle equivalence,
conservation, and gradient behavior."""

import random
import time

import pytest

from diffnet.adcore import FloatTape, Tape, Var, value
from diffnet.nodemodel import ACTIVE_EPS, B_EPS, inm_fixed

from inm_oracle import inm_reference


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


# ----------------------------------------------------------------------
# the recorded tape


def inm_fixed_before(tape, D, S, B, alpha):
    """`inm_fixed` as it was before its flags were computed in one pass, its
    forward values read inline and its step size and step caps decided on
    values: it records the direction phi of every outlink, the `min2` chain
    over every candidate step and, per inlink, `min2` of the cap
    alpha * theta and the remaining demand.  The oracle for the values and
    gradients of `inm_fixed`.
    """
    I, J = len(D), len(S)
    add, sub, mul = tape.add, tape.sub, tape.mul
    qin = [0.0] * I
    qout = [0.0] * J
    D_v = [value(x) for x in D]
    S_v = [value(x) for x in S]
    conn = [[o for o in range(J) if value(B[l][o]) > B_EPS] for l in range(I)]
    feed = [[] for _ in range(J)]
    for l, outs in enumerate(conn):
        for o in outs:
            feed[o].append(l)
    qin_v = [0.0] * I
    qout_v = [0.0] * J

    for _ in range(I + J + 1):
        slack = [S_v[o] - qout_v[o] for o in range(J)]
        unblocked = [not any(slack[o] <= ACTIVE_EPS for o in conn[l])
                     for l in range(I)]
        act_in = [unblocked[l] and D_v[l] - qin_v[l] > ACTIVE_EPS
                  for l in range(I)]
        converged = not any(act_in)

        if not converged:
            phi_out = [0.0] * J
            for o in range(J):
                acc = 0.0
                for l in feed[o]:
                    if act_in[l]:
                        acc = add(acc, mul(B[l][o], alpha[l]))
                phi_out[o] = acc

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


def tie_node(rng):
    """A node of up to 4 x 4 links whose inputs are specs (value, is_var).

    Values come from a small grid so that demands equal supplies, supply
    candidates equal each other, and blocked, empty and saturated links
    occur; turning rows may route nothing to some outlinks.
    """
    I, J = rng.randint(1, 4), rng.randint(1, 4)
    grid = [0.0, 0.1, 0.2, 0.25, 0.3, 0.5, 0.6]

    def draw():
        return rng.choice(grid) if rng.random() < 0.8 else rng.uniform(0, 0.6)

    S = [draw() for _ in range(J)]
    if rng.random() < 0.5:
        S = [S[0]] * J  # equal supplies: equal supply candidates
    D = [draw() for _ in range(I)]
    for l in range(I):
        if rng.random() < 0.3:
            D[l] = rng.choice(S)  # demand equal to a supply
    B = []
    for _ in range(I):
        kind = rng.random()
        if kind < 0.3:
            row = [0.0] * J
            row[rng.randrange(J)] = 1.0
        elif kind < 0.6:
            row = [1.0 / J] * J
        else:
            row = [rng.choice([0.0, 1.0, 2.0, rng.random()]) for _ in range(J)]
            tot = sum(row)
            row = [x / tot for x in row] if tot > 0.0 else [1.0] + [0.0] * (J - 1)
        B.append(row)
    alpha = [rng.choice([1.0, 1.0, 2.0, rng.uniform(0.1, 3.0)])
             for _ in range(I)]

    def spec(x):
        return (x, rng.random() < 0.5)

    return ([spec(x) for x in D], [spec(x) for x in S],
            [[spec(x) for x in row] for row in B], [spec(x) for x in alpha])


def materialize(tape, node):
    """The node's inputs on `tape`: each `Var` spec becomes an input, in a
    fixed order, so two tapes get the same entries."""
    def make(sp):
        x, is_var = sp
        return tape.input(x) if is_var else x

    D, S, B, alpha = node
    return ([make(x) for x in D], [make(x) for x in S],
            [[make(x) for x in row] for row in B], [make(x) for x in alpha])


def plain(node):
    """The node's inputs as plain floats."""
    D, S, B, alpha = node
    return ([x for x, _ in D], [x for x, _ in S],
            [[x for x, _ in row] for row in B], [x for x, _ in alpha])


def same_values(a, b):
    """`a` and `b` are the same kinds of value with the same bits."""
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert type(x) is type(y)
        assert repr(value(x)) == repr(value(y))


class TieCountingTape(Tape):
    """A tape that counts its `min2` calls on two `Var`s (`pairs`) and
    those of them on equal values (`ties`)."""

    pairs = ties = 0

    def min2(self, a, b):
        if type(a) is Var and type(b) is Var:
            self.pairs += 1
            self.ties += a.val == b.val
        return super().min2(a, b)


def close(a, b, rel, floor=0.0):
    """`a` and `b` agree within `rel` of their largest entry, or of `floor`
    if that is larger: a gradient that cancels to zero keeps a rounding
    residue that depends on the order in which adjoints are summed."""
    scale = max([floor, *map(abs, a), *map(abs, b)])
    return all(abs(x - y) <= rel * scale for x, y in zip(a, b))


def served_in_full(D, S, B):
    """Whether every outlink that some inlink feeds keeps more than
    `ACTIVE_EPS` of supply under the full load B^T D, summed on values in
    inlink order: where `inm_fixed` serves every inlink its demand."""
    for o, s in enumerate(S):
        load, fed = 0.0, False
        for l, row in enumerate(B):
            b = value(row[o])
            if b > B_EPS:
                load += b * value(D[l])
                fed = True
        if fed and not value(s) - load > ACTIVE_EPS:
            return False
    return True


def test_tape_and_values_equal_the_earlier_form_on_tied_nodes():
    # the earlier form records every candidate and cap with `min2`;
    # `inm_fixed` records only the winners, on a tape no longer than its.
    # Where some outlink of a node with two or more inflows binds, the
    # values are the same bit for bit; where none does, each inlink's flow
    # is its demand itself and each outflow B^T D, which the earlier form's
    # steps reach up to rounding.  A node with one inflow is the FIFO
    # diverge, S / B or the demand itself, which the earlier form's step
    # alpha * (S / (B * alpha)) or alpha * (D / alpha) reaches up to
    # rounding.  The gradients are the same up to rounding and the order in
    # which adjoints are summed.
    rng = random.Random(2011)
    ties = shorter = full = 0
    for _ in range(600):
        node = tie_node(rng)
        tapes, outs, ins = [], [], []
        for impl in (inm_fixed, inm_fixed_before):
            tape = TieCountingTape()
            args = materialize(tape, node)
            n = len(tape)  # the node's inputs
            qin, qout = impl(tape, *args)
            outs.append(qin + qout)
            tapes.append(tape)
            ins.append(args)
        new, old = tapes
        assert new.pairs == 0
        assert len(new) <= len(old)
        shorter += len(new) < len(old)
        ties += old.ties
        D, S, B, _ = ins[0]
        if served_in_full(D, S, B):
            full += 1
            assert all(q is d for q, d in zip(outs[0], D))
        if len(D) == 1 or served_in_full(D, S, B):
            assert close([value(x) for x in outs[0]],
                         [value(x) for x in outs[1]], 1e-15)
        else:
            same_values(*outs)
        for a, b in zip(*outs):
            ga = new.backward(a)[:n] if type(a) is Var else [0.0] * n
            gb = old.backward(b)[:n] if type(b) is Var else [0.0] * n
            # at one inflow the earlier form's priority adjoint is the
            # residue of alpha * (x / alpha), on inputs of order 1
            assert close(ga, gb, 1e-12, 1.0 if len(D) == 1 else 0.0)
        # the float op table: the taped run's values, nothing recorded
        got = inm_fixed(FloatTape(), *plain(node))
        assert [repr(x) for x in got[0] + got[1]] == [
            repr(value(x)) for x in outs[0]]
    # the draws reach exact two-Var ties in the earlier form, where the
    # first argument wins, entries it records that `inm_fixed` does not,
    # and nodes on both sides of the closed form
    assert ties > 50
    assert shorter > 0
    assert 0 < full < 600


class OpCountingTape(Tape):
    """A tape that counts its calls of each arithmetic operation."""

    def __init__(self):
        super().__init__()
        self.calls = {}

    def _count(self, name):
        self.calls[name] = self.calls.get(name, 0) + 1

    def add(self, a, b):
        self._count("add")
        return super().add(a, b)

    def sub(self, a, b):
        self._count("sub")
        return super().sub(a, b)

    def mul(self, a, b):
        self._count("mul")
        return super().mul(a, b)

    def div(self, a, b):
        self._count("div")
        return super().div(a, b)


def boundary_node(rng):
    """A random node of up to 4 x 4 links as specs (value, is_var); in
    half of the draws some supplies sit within a few 1e-13 of their full
    load, on both sides of the `ACTIVE_EPS` slack."""
    I, J = rng.randint(1, 4), rng.randint(1, 4)
    D = [rng.choice([0.0, rng.uniform(0.0, 1.0)]) for _ in range(I)]
    B = []
    for _ in range(I):
        row = [rng.choice([0.0, rng.random()]) for _ in range(J)]
        tot = sum(row)
        B.append([x / tot for x in row] if tot > 0.0 else [1.0] + [0.0] * (J - 1))
    S = [rng.uniform(0.0, 2.0) for _ in range(J)]
    if rng.random() < 0.5:
        for o in range(J):
            if rng.random() < 0.7:
                load = 0.0
                for l in range(I):
                    if B[l][o] > B_EPS:
                        load += B[l][o] * D[l]
                S[o] = max(0.0, load + rng.randint(-20, 20) * 1e-13)
    alpha = [rng.uniform(0.1, 3.0) for _ in range(I)]

    def spec(x):
        return (x, rng.random() < 0.5)

    return ([spec(x) for x in D], [spec(x) for x in S],
            [[spec(x) for x in row] for row in B], [spec(x) for x in alpha])


def test_the_closed_form_is_taken_exactly_where_no_outlink_binds():
    rng = random.Random(2026)
    full = near = 0
    for _ in range(2000):
        node = boundary_node(rng)
        Dv, Sv, Bv, av = plain(node)
        tape = OpCountingTape()
        D, S, B, alpha = materialize(tape, node)
        qin, qout = inm_fixed(tape, D, S, B, alpha)
        vals = [value(x) for x in qin + qout]
        want = inm_reference(Dv, Sv, Bv, av)
        assert all(abs(a - b) < 1e-9 for a, b in zip(vals, want[0] + want[1]))
        conns = sum(b > B_EPS for row in Bv for b in row)
        closed = served_in_full(D, S, B)
        if len(D) == 1:
            # the FIFO diverge records at most the winning supply's quotient
            # and one product per connection, and takes no closed form
            assert set(tape.calls) <= {"div", "mul"}
            assert tape.calls.get("div", 0) <= 1
            assert tape.calls.get("mul", 0) in (0, conns)
        else:
            # the closed form records one product and one sum per
            # connection, and nothing else
            assert closed == (tape.calls == (
                {"mul": conns, "add": conns} if conns else {}))
        near += any(abs(s - sum(row[o] * d for row, d in zip(Bv, Dv))
                        - ACTIVE_EPS) < 2e-12 for o, s in enumerate(Sv))
        if closed:
            full += 1
            assert all(q is d for q, d in zip(qin, D))
            # qout reads neither the supplies nor the priorities
            idx = [x.idx for x in S + alpha if type(x) is Var]
            for q in qout:
                if type(q) is Var:
                    adj = tape.backward(q)
                    assert all(adj[i] == 0.0 for i in idx)
        # the float op table gives the taped values bit for bit
        got = inm_fixed(FloatTape(), Dv, Sv, Bv, av)
        assert [repr(x) for x in got[0] + got[1]] == [repr(x) for x in vals]
    # both sides of the closed form, and draws at its boundary
    assert 0 < full < 2000
    assert near > 100


# ----------------------------------------------------------------------
# the one-inflow form


def fifo_node(rng):
    """A node with one inflow and 1-4 outlinks as specs (value, is_var).

    Turning fractions are mostly powers of two, so that supply candidates
    S / B tie each other and the demand exactly.  A fifth of the draws rate
    up to 1e6 at random; the rest put each supply at 0 or `ACTIVE_EPS`, at
    0, +-1e-13 or `ACTIVE_EPS` (+-1e-13) from its load, or at an ample
    value, with some demands at most a few `ACTIVE_EPS` and some draws
    scaled by 1e4 or 1e6.  The priority is drawn as for any node.
    """
    J = rng.randint(1, 4)
    rows = [[1.0], [0.5, 0.5], [0.5, 0.25, 0.25], [0.25] * 4]
    row = rng.choice([r for r in rows if len(r) <= J])[:]
    row += [0.0] * (J - len(row))
    if rng.random() < 0.3:
        row = [rng.choice([0.0, rng.random()]) for _ in range(J)]
        tot = sum(row)
        row = [x / tot for x in row] if tot > 0.0 else [1.0] + [0.0] * (J - 1)
    rng.shuffle(row)
    a = rng.choice([1.0, 2.0, 0.5, 0.3, rng.uniform(0.1, 3.0)])
    if rng.random() < 0.2:
        D = 1e6 * rng.random()
        S = [1e6 * rng.random() for _ in row]
    else:
        scale = rng.choice([1.0, 1.0, 1e4, 1e6])
        if rng.random() < 0.2:
            D = rng.choice([0.0, -0.0, 0.5, 1.0, 2.0, 3.0]) * ACTIVE_EPS
        else:
            D = scale * rng.choice([0.2, 0.25, 0.5, 0.6, rng.random()])
        S = []
        for b in row:
            u = rng.random()
            if u < 0.05:
                S.append(rng.choice([0.0, ACTIVE_EPS]))
            elif u < 0.7:
                off = rng.choice([0.0, 0.0, 1e-13, -1e-13, ACTIVE_EPS,
                                  ACTIVE_EPS - 1e-13, ACTIVE_EPS + 1e-13])
                S.append(max(0.0, b * D + off))
            else:
                S.append(scale * rng.choice([0.1, 0.2, 0.25, 0.3,
                                             rng.uniform(0.0, 2.0)]))

    def spec(x):
        return (x, rng.random() < 0.5)

    return ([spec(D)], [spec(x) for x in S], [[spec(x) for x in row]],
            [spec(a)])


def fifo_reference(D, S, row, a):
    """`inm_reference` at one inflow, followed by the residual pass of
    `inm_fixed`'s loop: an unblocked inlink's remaining demand, at most
    `ACTIVE_EPS`, is passed on as well."""
    (q,), qout = inm_reference([D], S, [row], [a])
    fed = [o for o, b in enumerate(row) if b > B_EPS]
    if all(S[o] - qout[o] > ACTIVE_EPS for o in fed):
        rest = D - q
        q += rest
        for o in fed:
            qout[o] += row[o] * rest
    return [q], qout


def bits(x):
    """The bits of a flow's value, by `repr`: a zero keeps its sign, as the
    product of a -0.0 demand and a turning fraction does."""
    return repr(value(x))


def test_the_one_inflow_node_is_the_fifo_diverge():
    # a node with one inflow takes min(D, min_o S[o] / B[o]) over its fed
    # outlinks, decided on values: the demand itself, or one quotient
    # S[win] / B[win], where a supply wins a tie with the demand and the
    # first of equal supplies wins; no flow at all if a fed outlink has at
    # most `ACTIVE_EPS` of supply.  It never reads the priority.
    rng = random.Random(1995)
    counts = dict.fromkeys(["blocked", "demand", "supply", "demand tie",
                            "supply tie", "tiny demand", "rates >= 1e4"], 0)
    for _ in range(4000):
        node = fifo_node(rng)
        (Dv,), Sv, (row_v,), (av,) = plain(node)
        tape = Tape()
        (d,), S, (row,), (a,) = materialize(tape, node)
        n = len(tape)
        (q,), qout = inm_fixed(tape, [d], S, [row], [a])
        flows = [value(x) for x in [q] + qout]

        fed = [o for o, b in enumerate(row_v) if b > B_EPS]
        cands = [Sv[o] / row_v[o] for o in fed]
        if any(Sv[o] <= ACTIVE_EPS for o in fed):
            counts["blocked"] += 1
            assert [q] + qout == [0.0] * (1 + len(Sv))
        elif cands and min(cands) <= Dv:
            win = fed[cands.index(min(cands))]  # the first of equal ones
            counts["supply"] += 1
            counts["demand tie"] += min(cands) == Dv
            counts["supply tie"] += cands.count(min(cands)) > 1
            assert q is not d
            assert repr(value(q)) == repr(Sv[win] / row_v[win])
            if type(S[win]) is Var:
                assert tape.backward(q)[S[win].idx] == 1.0 / row_v[win]
        else:
            counts["demand"] += 1
            counts["tiny demand"] += Dv <= ACTIVE_EPS
            assert q is d
        for o, x in enumerate(qout):
            assert bits(x) == bits(row_v[o] * value(q) if o in fed else 0.0)
        counts["rates >= 1e4"] += max(Dv, *Sv) >= 1e4

        # the plain INM, to within rounding of the node's largest input
        want = fifo_reference(Dv, Sv, row_v, av)
        scale = max(map(abs, [Dv, *Sv]))
        assert all(abs(x - y) <= 1e-15 * scale
                   for x, y in zip(flows, want[0] + want[1]))
        # the priority is no entry's parent and gets no adjoint
        if type(a) is Var:
            assert a.idx not in tape._p1[n:] and a.idx not in tape._p2[n:]
            for x in [q] + qout:
                if type(x) is Var:
                    assert tape.backward(x)[a.idx] == 0.0
        # the float op table gives the taped values bit for bit
        got = inm_fixed(FloatTape(), [Dv], Sv, [row_v], [av])
        assert list(map(bits, got[0] + got[1])) == list(map(bits, flows))
    assert min(counts.values()) >= 100, counts
