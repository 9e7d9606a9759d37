"""Shortest paths, logit splits, and the per-destination compositions and
FIFO splits the engine reads off the links' counts."""

import itertools
import math
import random

import pytest

from diffnet.adcore import FLOAT, Tape, Var, value
from diffnet.engine import Simulator, composition, fifo_split
from diffnet.ltm import V_MIN, LinkDyn, fd_speed
from diffnet.presets import merge_scenario, toll_grid_scenario
from diffnet.routing import (
    _avg_speed,
    build_routing,
    turning_probs,
    travel_time_avg,
)
from diffnet.scenario import LinkParams, ReverseLinks, register_parameters

from test_engine import random_scenario
from test_scenario import grid_scenario


def link_params(lid, tail, head, **kw):
    p = dict(id=lid, tail=tail, head=head, d=1000.0, u=20.0, qmax=0.8,
             kappa=0.2, alpha=1.0)
    p.update(kw)
    return LinkParams(**p)


def make_link(tape, lid, tail, head, dests=("s",), **kw):
    return LinkDyn(tape, link_params(lid, tail, head, **kw), list(dests))


def build_table(tape, nodes, links, weights, dests):
    """`build_routing` over `links`, with the tree cost of every link read
    (built wherever the link's head reaches the destination)."""
    every = list(range(len(links)))
    return build_routing(tape, ReverseLinks.of(nodes, links), weights, dests,
                         {s: every for s in dests})


# ----------------------------------------------------------------------
# shortest paths vs brute force


def random_graph(rng, integer=False):
    """Random digraph; integer weights in 1..4 make equal-cost ties common."""
    n = rng.randint(3, 10)
    nodes = {f"n{i}": "intermediate" for i in range(n)}
    links = []
    weights = {}
    lid = 0
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.4:
                links.append((f"n{i}", f"n{j}", f"e{lid}"))
                weights[f"e{lid}"] = (float(rng.randint(1, 4)) if integer
                                      else rng.uniform(0.5, 10.0))
                lid += 1
    return nodes, links, weights


def brute_force_cost(nodes, links, weights, src, dest):
    """Cheapest path cost by enumerating all simple paths.

    Each path's cost is summed from the destination back, link by link, as
    the routing table sums it, so the cheapest is exact to the last bit.
    """
    best = math.inf
    out = {}
    for tail, head, lid in links:
        out.setdefault(tail, []).append((head, lid))

    def walk(node, cost, path, seen):
        nonlocal best
        if cost > best + 1e-9:  # forward sums differ from exact in the last bits
            return
        if node == dest:
            total = 0.0
            for w in reversed(path):
                total = w + total
            best = min(best, total)
            return
        for head, lid in out.get(node, []):
            if head not in seen:
                w = weights[lid]
                walk(head, cost + w, path + [w], seen | {head})

    walk(src, 0.0, [], {src})
    return best


def bellman_ford_reference(nodes, links, weights_f, dest):
    """Node costs and next hops by a reverse Bellman-Ford sweep over the
    links, with the same acceptance test and tie rule (an independent oracle
    for the label-setting search of `build_routing`)."""
    cost = {n: math.inf for n in nodes}
    cost[dest] = 0.0
    for _ in range(max(1, len(nodes) - 1)):
        changed = False
        for w, lk in zip(weights_f, links):
            c_head = cost[lk.head]
            if c_head == math.inf:
                continue
            cand = w + c_head
            if cand < cost[lk.tail] - 1e-15:
                cost[lk.tail] = cand
                changed = True
        if not changed:
            break
    best = {}
    for i, lk in enumerate(links):
        n = lk.tail
        if n == dest or cost[n] == math.inf or cost[lk.head] == math.inf:
            continue
        cand = (weights_f[i] + cost[lk.head], lk.id, i)
        if n not in best or cand < best[n]:
            best[n] = cand
    return cost, {n: b[2] for n, b in best.items()}


def check_against_references(rng, integer):
    """Node costs and next hops of every destination equal the Bellman-Ford
    oracle's; costs from every node to one destination equal brute force.
    Returns the number of equal-cost alternatives to a chosen next hop."""
    nodes, raw_links, weights = random_graph(rng, integer)
    tape = Tape()
    links = [link_params(lid, tail, head) for tail, head, lid in raw_links]
    weights_f = [weights[lid] for _, _, lid in raw_links]
    dests = sorted(nodes)
    table = build_table(tape, nodes, links, weights_f, dests)
    ties = 0
    for dest in dests:
        cost, next_link = bellman_ford_reference(nodes, links, weights_f, dest)
        assert table.node_cost[dest] == cost
        assert list(table.node_cost[dest]) == list(nodes)
        assert table.next_link[dest] == next_link
        for n, i in next_link.items():
            ties += sum(1 for j, lk in enumerate(links)
                        if j != i and lk.tail == n and cost[lk.head] < math.inf
                        and weights_f[j] + cost[lk.head] == cost[n])
    dest = random.Random(rng.random()).choice(dests)
    for src in nodes:
        if src != dest:
            expect = brute_force_cost(nodes, raw_links, weights, src, dest)
            assert table.node_cost[dest][src] == expect
    return ties


def test_bellman_ford_matches_brute_force_on_200_random_graphs():
    rng = random.Random(2024)
    for _ in range(200):
        check_against_references(rng, integer=False)


def test_shortest_paths_match_bellman_ford_with_equal_cost_ties():
    rng = random.Random(2025)
    ties = sum(check_against_references(rng, integer=True) for _ in range(200))
    assert ties > 500  # equal-cost alternatives are common


def test_negative_routing_weight_raises():
    tape = Tape()
    nodes = {"a": "intermediate", "b": "intermediate"}
    links = [link_params("e1", "a", "b")]
    with pytest.raises(ValueError, match="negative routing weight"):
        build_table(tape, nodes, links, [-1.0], ["b"])


def test_tree_cost_expressions_match_float_costs():
    rng = random.Random(5)
    for _ in range(20):
        nodes, raw_links, weights = random_graph(rng)
        tape = Tape()
        links = [link_params(lid, tail, head)
                 for tail, head, lid in raw_links]
        wvars = [tape.input(weights[lid]) for _, _, lid in raw_links]
        dest = sorted(nodes)[0]
        table = build_table(tape, nodes, links, wvars, [dest])
        for cv, cf in zip(table.link_cost_var[dest], table.link_cost[dest]):
            assert (cv is None) == math.isinf(cf)
            if cv is not None:
                assert value(cv) == pytest.approx(cf)


def test_tree_costs_are_built_only_where_a_row_reads_them():
    # with a random subset of the links read, the table holds a tape
    # expression exactly for the read links whose head reaches the
    # destination, each with the value it has when every link is read, and
    # every entry it records is one of them or is read by a later entry
    rng = random.Random(6)
    for _ in range(50):
        nodes, raw_links, weights = random_graph(rng)
        tape = Tape()
        links = [link_params(lid, tail, head)
                 for tail, head, lid in raw_links]
        wvars = [tape.input(weights[lid]) for _, _, lid in raw_links]
        dest = sorted(nodes)[0]
        full = build_table(tape, nodes, links, wvars, [dest])
        read = sorted(rng.sample(range(len(links)),
                                 rng.randint(0, len(links))))
        start = len(tape)
        table = build_routing(tape, ReverseLinks.of(nodes, links), wvars,
                              [dest], {dest: read})
        costs = table.link_cost_var.get(dest, [None] * len(links))
        for i, (cv, cf) in enumerate(zip(costs, table.link_cost[dest])):
            assert (cv is None) == (i not in read or math.isinf(cf))
            if cv is not None:
                assert value(cv) == value(full.link_cost_var[dest][i])
        kept = {cv.idx for cv in costs if cv is not None}
        parents = set(tape._p1[start:]) | set(tape._p2[start:])
        assert all(k in kept or k in parents for k in range(start, len(tape)))
    # no read link: nothing is recorded, and no cost list is kept
    start = len(tape)
    table = build_routing(tape, ReverseLinks.of(nodes, links), wvars,
                          sorted(nodes), {})
    assert len(tape) == start and table.link_cost_var == {}


def test_deterministic_tie_breaks_to_lowest_link_id():
    tape = Tape()
    nodes = {"a": "intermediate", "b": "intermediate"}
    links = [link_params("e2", "a", "b"), link_params("e1", "a", "b")]
    table = build_table(tape, nodes, links, [3.0, 3.0], ["b"])
    # e1 has the lower id but the higher link number
    assert links[table.next_link["b"]["a"]].id == "e1"


# ----------------------------------------------------------------------
# turning probabilities


def two_route_table(tape, w1, w2, mu):
    nodes = {"a": "intermediate", "b": "intermediate"}
    links = [link_params("r1", "a", "b"), link_params("r2", "a", "b")]
    table = build_table(tape, nodes, links, [w1, w2], ["b"])
    return table, [0, 1]


def test_logit_equal_costs_split_half_half():
    tape = Tape()
    table, outs = two_route_table(tape, 10.0, 10.0, mu := 0.5)
    probs = turning_probs(tape, table, "a", outs, "b", mu)
    assert value(probs[0]) == pytest.approx(0.5)
    assert value(probs[1]) == pytest.approx(0.5)


def test_logit_standard_ratio():
    # cost gap 1 with mu=1: shares 1/(1+e^-1) vs its complement
    tape = Tape()
    table, outs = two_route_table(tape, 10.0, 11.0, mu := 1.0)
    probs = turning_probs(tape, table, "a", outs, "b", mu)
    assert value(probs[0]) == pytest.approx(1.0 / (1.0 + math.exp(-1.0)))


def test_logit_large_gap_saturates():
    tape = Tape()
    table, outs = two_route_table(tape, 10.0, 10.0 + 40.0, mu := 0.5)
    # mu * gap = 20
    probs = turning_probs(tape, table, "a", outs, "b", mu)
    assert value(probs[0]) >= 1.0 - 1e-8


def test_deterministic_indicator():
    tape = Tape()
    table, outs = two_route_table(tape, 10.0, 11.0, 0.0)
    probs = turning_probs(tape, table, "a", outs, "b", 0.0)
    assert probs == [1.0, 0.0]


def test_no_outlink_towards_destination_gives_none():
    tape = Tape()
    nodes = {"a": "intermediate", "b": "intermediate", "c": "intermediate"}
    links = [link_params("ab", "a", "b"), link_params("cb", "c", "b")]
    table = build_table(tape, nodes, links, [1.0, 1.0], ["c"])
    assert turning_probs(tape, table, "a", [0], "c", 0.5) is None


def test_row_follows_outlink_numbers_with_zero_at_a_dead_end():
    tape = Tape()
    nodes = {n: "intermediate" for n in ("a", "b", "c", "t")}
    # node a's outlinks are numbers 1, 2, 3 with ids r3, r1, r2; r1 leads
    # to the dead end c
    links = [link_params("k", "b", "t"), link_params("r3", "a", "b"),
             link_params("r1", "a", "c"), link_params("r2", "a", "b")]
    outs = [3, 2, 1]
    table = build_table(tape, nodes, links, [1.0, 5.0, 1.0, 7.0], ["t"])
    probs = turning_probs(tape, table, "a", outs, "t", 0.5)
    assert value(probs[2]) == pytest.approx(1.0 / (1.0 + math.exp(-1.0)))
    assert value(probs[0]) == pytest.approx(1.0 / (1.0 + math.exp(1.0)))
    assert probs[1] == 0.0 and isinstance(probs[1], float)
    assert turning_probs(tape, table, "a", outs, "t", 0.0) == [0.0, 0.0, 1.0]
    # at equal costs the lower id r2 wins, although r3 has the lower number
    table = build_table(tape, nodes, links, [1.0, 5.0, 1.0, 5.0], ["t"])
    assert turning_probs(tape, table, "a", outs, "t", 0.0) == [1.0, 0.0, 0.0]


def test_logit_cost_gradients_nonzero_deterministic_zero():
    for mu, expect_nonzero in ((0.5, True), (0.0, False)):
        tape = Tape()
        w1 = tape.input(10.0)
        table, outs = two_route_table(tape, w1, 12.0, mu)
        probs = turning_probs(tape, table, "a", outs, "b", mu)
        g = tape.grad(probs[0], [w1]) if not isinstance(probs[0], float) \
            else [0.0]
        assert (abs(g[0]) > 1e-12) == expect_nonzero


# ----------------------------------------------------------------------
# compositions and FIFO splits


def feed(tape, lk, dt, f_in, f_in_s):
    """One boundary update of `lk` at the inflow `f_in`, then its
    per-destination counts advanced by `f_in_s` (dest -> veh/s) as
    `Simulator.run` advances them."""
    lk.update_boundaries(tape, dt, f_in, 0.0)
    for s, n in lk.NU_s.items():
        lk.NU_s[s] = tape.madd(n, dt, f_in_s.get(s, 0.0))


@pytest.mark.parametrize("loaded", [False, True])
def test_composition_of_a_one_destination_link_is_a_plain_one(loaded):
    tape = Tape()
    lk = make_link(tape, "L", "a", "b", dests=("s",))
    if loaded:
        lk.update_boundaries(tape, 5.0, tape.input(0.3), 0.0)
    comp = composition(tape, lk)
    assert comp == {"s": 1.0} and type(comp["s"]) is float


@pytest.mark.parametrize("dests", [("s1", "s2"), ("s1", "s2", "s3")])
def test_composition_of_an_empty_link_splits_evenly(dests):
    tape = Tape()
    lk = make_link(tape, "L", "a", "b", dests=dests)
    comp = composition(tape, lk)
    assert list(comp) == list(dests)
    assert all(type(c) is float and c == 1.0 / len(dests)
               for c in comp.values())


def test_composition_of_a_loaded_link_sums_to_one():
    rng = random.Random(5)
    tape = Tape()
    dests = ("s1", "s2", "s3")
    lk = make_link(tape, "L", "a", "b", dests=dests)
    for _ in range(20):
        f = {s: tape.input(rng.uniform(0.0, 0.25)) for s in dests}
        total = 0.0
        for x in f.values():
            total = tape.add(total, x)
        feed(tape, lk, 5.0, total, f)
    comp = composition(tape, lk)
    assert list(comp) == list(dests)
    assert sum(value(c) for c in comp.values()) == pytest.approx(
        1.0, rel=0.0, abs=1e-12)


def test_fifo_split_proportional_to_composition():
    tape = Tape()
    lk = make_link(tape, "L", "a", "b", dests=("s1", "s2"))
    # upstream composition 75% s1 / 25% s2
    for _ in range(10):
        feed(tape, lk, 5.0, 0.8, {"s1": 0.6, "s2": 0.2})
    split = fifo_split(tape, lk, 0.4)
    assert value(split["s1"]) == pytest.approx(0.3)
    assert value(split["s2"]) == pytest.approx(0.1)


def test_fifo_split_empty_link_is_zero():
    tape = Tape()
    lk = make_link(tape, "L", "a", "b", dests=("s1", "s2"))
    split = fifo_split(tape, lk, 0.0)
    assert split == {"s1": 0.0, "s2": 0.0}


def test_fifo_split_sums_to_aggregate():
    rng = random.Random(3)
    tape = Tape()
    lk = make_link(tape, "L", "a", "b", dests=("s1", "s2", "s3"))
    for _ in range(20):
        f = {s: rng.uniform(0.0, 0.25) for s in ("s1", "s2", "s3")}
        feed(tape, lk, 5.0, sum(f.values()), f)
    agg = 0.37
    split = fifo_split(tape, lk, agg)
    assert sum(value(x) for x in split.values()) == pytest.approx(agg)


def test_travel_time_avg_free_flow_on_empty_link():
    tape = Tape()
    lk = make_link(tape, "L", "a", "b")
    assert value(travel_time_avg(tape, lk, 0)) == pytest.approx(50.0)


# ----------------------------------------------------------------------
# the free-flow occupancy bound


def free_flow_fixtures():
    out = [("merge", merge_scenario()), ("toll grid", toll_grid_scenario()),
           ("grid n=4", grid_scenario(4, 2)), ("grid n=6", grid_scenario(6, 3))]
    # the 50 random scenarios of the conservation test
    rng = random.Random(1234)
    while len(out) < 54:
        scn = random_scenario(rng)
        if scn is not None:
            out.append((f"random {len(out) - 4}", scn))
    return out


def straddling(n, rng):
    """Occupancies on both sides of the bound n: the bound and its float
    neighbours, then draws within 1e-12 relative and within 1% of it."""
    out = [n, math.nextafter(n, math.inf), math.nextafter(n, -math.inf)]
    out += [n * (1.0 + rng.uniform(-1e-12, 1e-12)) for _ in range(20)]
    return out + [n * (1.0 + rng.uniform(-0.01, 0.01)) for _ in range(20)]


FREE_FLOW_FIXTURES = free_flow_fixtures()


@pytest.mark.parametrize("name, scn", FREE_FLOW_FIXTURES,
                         ids=[f[0] for f in FREE_FLOW_FIXTURES])
def test_free_flow_bound_is_the_last_occupancy_where_u_wins(name, scn):
    # the bound is exact: fd_speed returns u itself there and not one float
    # step above, and travel_time_avg, which tests occupancies against it
    # before it finds a speed, is d / speed bit for bit on both sides of it
    rng = random.Random(name)
    links = Simulator(scn, grad=False).links
    for lk in links:
        n, u = lk.free_n, lk.u
        assert fd_speed(FLOAT, u, lk.w, lk.kappa, n / lk.d) is u, lk.id
        above = math.nextafter(n, math.inf) / lk.d
        assert fd_speed(FLOAT, u, lk.w, lk.kappa, above) is not u, lk.id
        for occ in straddling(n, rng):
            nd = rng.choice([0.0, rng.uniform(0.0, 50.0)])
            lk.NU, lk.ND = [nd + occ], [nd]
            want = FLOAT.div(lk.d, _avg_speed(FLOAT, lk, 0))
            assert travel_time_avg(FLOAT, lk, 0) == want, (lk.id, occ)
    # a taped run with every free-flow speed registered finds the same bound
    # over its links' forward values, and decides on it alike
    tokens = ",".join(f"u{lk.id}" for lk in scn.links)
    sim = Simulator(scn, params=register_parameters(scn, tokens))
    for lk, flk in zip(sim.links, links):
        assert type(lk.u) is Var and lk.vals.free_n == flk.free_n, lk.id
        for occ in straddling(flk.free_n, rng)[:3]:
            lk.NU, lk.ND = [occ], [0.0]
            lk.vals.NU, lk.vals.ND = [occ], [0.0]
            want = FLOAT.div(lk.d, _avg_speed(FLOAT, lk.vals, 0))
            assert value(travel_time_avg(sim.tape, lk, 0)) == want, lk.id


def test_free_flow_bound_is_inf_at_a_speed_the_floor_never_binds():
    lk = make_link(FLOAT, "L", "a", "b", u=V_MIN / 2, d=1.0)
    assert lk.free_n == math.inf
    lk.NU = [1e6]
    assert travel_time_avg(FLOAT, lk, 0) == 1.0 / (V_MIN / 2)
