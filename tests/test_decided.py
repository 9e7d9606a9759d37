"""Recording decided on values: the link clamps, the free-flow travel times,
the Newell counts of segment travel times and the INM record only what
their result reads, on every link.  Deciding on values is sound because a
taped run computes the forward values of a gradient-free run, bit for bit.
"""

import dataclasses
import random

import pytest

import diffnet.engine
import diffnet.nodemodel
from diffnet.adcore import FLOAT, FloatTape, Tape, Var, value
from diffnet.engine import Simulator, build_objective, run
from diffnet.ltm import LinkDyn, LinkLayer
from diffnet.nodemodel import inm_fixed
from diffnet.presets import merge_scenario, toll_grid_scenario, two_route_scenario
from diffnet.routing import build_routing, turning_probs
from diffnet.scenario import register_parameters

from test_engine import random_scenario
from test_parity import toll_at, two_destination_scenario


class SiteTape(Tape):
    """A tape that tags the entries each call of a decided site records.

    `calls` holds one (site, link, first entry, end, results) per call, in
    the order the calls return; the call's entries are those from its first
    entry up to `end`, and its results are what it returns, for the INM
    its outflows then its inflows.
    """

    def __init__(self):
        super().__init__()
        self.calls = []

    def site(self, name, link, fn, args):
        start = len(self)
        out = fn(*args)
        results = out[0] + out[1] if name == "inm_fixed" else [out]
        self.calls.append((name, link, start, len(self), results))
        return out


def tag_sites(monkeypatch):
    """Route every taped call of a decided site through `SiteTape.site`,
    and make `SiteTape` the tape of taped runs."""
    def wrap(owner, attr, tape_at, link_at):
        fn = getattr(owner, attr)

        def call(*args):
            tape = args[tape_at]
            if type(tape) is not SiteTape:
                return fn(*args)
            link = None if link_at is None else args[link_at]
            return tape.site(attr, link, fn, args)

        monkeypatch.setattr(owner, attr, call)

    wrap(LinkDyn, "demand", 1, 0)
    wrap(LinkDyn, "supply", 1, 0)
    wrap(LinkDyn, "newell_N", 1, 0)
    wrap(diffnet.engine, "travel_time_avg", 0, 1)
    wrap(diffnet.engine, "inm_fixed", 0, None)
    monkeypatch.setattr(diffnet.engine, "Tape", SiteTape)


def unread(tape, start, end, results):
    """Entries of [start, end) that are not among `results` and that no
    later entry of the range reads."""
    read = {j for i in range(start, end)
            for j in (tape._p1[i], tape._p2[i]) if j >= start}
    read |= {x.idx for x in results if type(x) is Var}
    return [i for i in range(start, end) if i not in read]


def segments(scn, **config):
    return dataclasses.replace(scn, config=dataclasses.replace(
        scn.config, M=3, tt_method="segments", **config))


def segments_merge(**config):
    return segments(merge_scenario(), **config)


def segments_logit_merge():
    return segments_merge(mu=0.1)


def segments_logit_two_route():
    return segments(two_route_scenario(), mu=0.1)


FIXTURES = [
    ("toll grid", toll_grid_scenario, "toll:*", "toll-J"),
    ("two-route qmaxfb", two_route_scenario, "qmaxfb", "ttt"),
    ("two-route wfb", two_route_scenario, "wfb", "ttt"),
    ("two-destination", two_destination_scenario, "q1,q2,qmaxb1,ua,ub2",
     "ttt"),
    ("merge u1", merge_scenario, "u1", "ttt"),
    ("segments merge u1,u3", segments_merge, "u1,u3", "ttt"),
    ("segments merge logit u1,u3", segments_logit_merge, "u1,u3", "ttt"),
    ("segments two-route logit ufa,qmaxfb", segments_logit_two_route,
     "ufa,qmaxfb", "ttt"),
]


@pytest.mark.parametrize("name, make, tokens, objective", FIXTURES,
                         ids=[f[0] for f in FIXTURES])
def test_decided_sites_record_nothing_that_nothing_reads(
        monkeypatch, name, make, tokens, objective):
    tag_sites(monkeypatch)
    scn = make()
    sim = Simulator(scn, params=register_parameters(scn, tokens))
    res = sim.run()
    build_objective(objective, 1e-3)(res)
    tape = res.tape
    seen = {}
    for site, link, start, end, results in tape.calls:
        seen[site] = seen.get(site, 0) + 1
        # each entry the call records feeds a result, and a call whose
        # results are plain floats records nothing
        assert unread(tape, start, end, results) == [], (
            site, link and link.id)
        if all(type(x) is not Var for x in results):
            assert start == end, (site, link and link.id)
    assert {"demand", "supply", "inm_fixed"} <= set(seen)
    # the links are weighed on the tape exactly where a logit row reads a
    # tree cost: merge under logit routing has no node with a choice
    segs = scn.config.tt_method == "segments"
    assert (seen.get("newell_N" if segs else "travel_time_avg", 0) > 0) == (
        bool(sim._reads))
    assert bool(sim._reads) == (name in (
        "toll grid", "two-destination", "segments two-route logit ufa,qmaxfb"))


def test_a_remaining_demand_that_wins_the_step_cap_records_no_cap():
    # inlink 0 has no demand left while inlink 1 sets a taped step: the cap
    # 2.0 * theta of inlink 0 loses to its plain-float remaining demand 0.0
    tape = Tape()
    d = tape.input(0.3)
    qin, qout = inm_fixed(tape, [0.0, d], [0.5], [[1.0], [1.0]], [2.0, 1.5])
    assert [value(q) for q in qin] == [0.0, 0.3]
    outs = {q.idx for q in qin + qout if type(q) is Var}
    assert unread(tape, 1, len(tape), []) == sorted(outs - {d.idx})


def test_deterministic_routing_builds_its_table_on_floats(monkeypatch):
    tapes = []
    build_routing = diffnet.engine.build_routing

    def spy(tape, *args):
        tapes.append(type(tape))
        return build_routing(tape, *args)

    monkeypatch.setattr(diffnet.engine, "build_routing", spy)
    # mu = 0: a taped run weighs the links and searches on forward values
    for scn, tokens in ((merge_scenario(), "q1,u1"),
                        (two_route_scenario(), "qmaxfb")):
        Simulator(scn, params=register_parameters(scn, tokens)).run()
        assert tapes and set(tapes) == {FloatTape}
        tapes.clear()
    # segment travel times interpolate at a Var index where u1 is
    # registered, and still route on forward values
    scn = segments_merge()
    Simulator(scn, params=register_parameters(scn, "u1")).run()
    assert tapes and set(tapes) == {FloatTape}
    tapes.clear()
    # logit routing reads the tree costs: the table is built on the tape
    scn = toll_grid_scenario()
    Simulator(scn, params=register_parameters(scn, "toll:f0a:0")).run()
    assert tapes and set(tapes) == {Tape}


def refresh_on_the_tape(sim, t):
    """The routing refresh of a deterministic (mu = 0) run, with the links
    weighed and the table built on the run's tape."""
    tape = sim.tape
    weights = [tape.add(sim.link_travel_time(tape, lk, t),
                        toll_at(sim, i, t))
               for i, lk in enumerate(sim.links)]
    table = build_routing(tape, sim.net.reverse, weights, sim.dests, {})
    for plan in sim._plans:
        for s in plan.dests:
            hop = table.next_link[s][plan.node]
            if hop != plan.hops.get(s):
                plan.set_row(s, hop, turning_probs(tape, table, plan.node,
                                                   plan.outs, s, 0.0))


@pytest.mark.parametrize("scn, tokens", [
    (merge_scenario(), "q1,u1"),
    (two_route_scenario(), "qmaxfb"),
    (segments(toll_grid_scenario(), mu=0.0), "toll:f0a:0,toll:s2a:1,q1"),
], ids=["merge", "two-route", "toll grid segments"])
def test_routing_on_values_gives_the_answers_of_routing_on_the_tape(
        monkeypatch, scn, tokens):
    # the same run with deterministic routing taped: the same objective and
    # gradients, bit for bit, and the same live entries
    out = []
    for on_values in (True, False):
        if not on_values:
            monkeypatch.setattr(Simulator, "_refresh_routing",
                                refresh_on_the_tape)
        ps = register_parameters(scn, tokens)
        sim = Simulator(scn, params=ps)
        res = sim.run()
        J = build_objective("ttt")(res)
        adj = res.tape.backward(J)
        out.append((repr(J.val), [repr(adj[sim.param_vars[n].idx])
                                  for n in ps.names],
                    sum(1 for a in adj if a != 0.0), len(res.tape)))
    (j1, g1, live1, n1), (j2, g2, live2, n2) = out
    assert (j1, g1, live1) == (j2, g2, live2)
    assert n1 < n2


@pytest.mark.parametrize("make", [toll_grid_scenario, two_route_scenario])
def test_a_float_run_steps_each_link_as_the_per_link_code_would(monkeypatch,
                                                                 make):
    # at every step of a float run, the layer's sending and receiving rate
    # of each link is, by hex, what `LinkDyn.demand` and `supply` give on
    # `FLOAT` for a taped link with the same curves, and each link's own
    # curves are its rows of the layer's
    scn = make()
    twins = [LinkDyn(Tape(), lp, ["s"]) for lp in scn.links]
    seen = []

    def check(name):
        rates = getattr(LinkDyn, name)

        def checked(link, tape, t, dt):
            out = rates(link, tape, t, dt)
            if isinstance(link, LinkLayer):
                for i, (lk, twin) in enumerate(zip(link.links, twins)):
                    NU = link.NU[i, :t + 1].tolist()
                    ND = link.ND[i, :t + 1].tolist()
                    assert (lk.NU, lk.ND) == (NU, ND)
                    twin.NU, twin.ND = NU, ND
                    twin.vals.NU, twin.vals.ND = NU, ND
                    want = rates(twin, FLOAT, t, dt)
                    assert out[i].hex() == want.hex(), (name, lk.id, t)
                seen.append(name)
            return out

        monkeypatch.setattr(LinkDyn, name, checked)

    check("demand")
    check("supply")
    run(scn, grad=False)
    assert seen == ["demand", "supply"] * scn.config.n_steps


def random_draws(n):
    rng = random.Random(1234)
    draws = []
    while len(draws) < n:
        scn = random_scenario(rng)
        if scn is not None:
            tokens = [f"q{i + 1}" for i in range(len(scn.demands))]
            draws.append((scn, ",".join(tokens + [f"u{scn.links[0].id}"])))
    return draws


def forward_values(res):
    """Every forward value a run keeps, as exact hex strings: the boundary
    curves and per-destination counts of each link, the origin queues, the
    absorbed vehicles, the total travel time and the conservation error."""
    def bits(xs):
        return [value(x).hex() for x in xs]

    out = {}
    for lid, lk in res.links.items():
        out[lid] = (bits(lk.NU), bits(lk.ND), sorted(lk.NU_s),
                    bits(lk.NU_s[s] for s in sorted(lk.NU_s)))
    out["queues"] = {o: {s: bits(q) for s, q in per_dest.items()}
                     for o, per_dest in res.queues.items()}
    out["absorbed"] = bits(res.absorbed.values())
    out["objective"] = bits([build_objective("ttt")(res)])
    out["conservation_error"] = res.conservation_error.hex()
    return out


@pytest.mark.parametrize("scn, tokens", [
    (merge_scenario(), "u1,u2,u3"),
    (two_route_scenario(), "qmaxfb"),
    (two_route_scenario(), "wfb"),
    (segments_merge(), "u1"),
    (segments(toll_grid_scenario()), "toll:f0a:0,toll:s2a:1,q1"),
    (two_destination_scenario(), "q1,q2,qmaxb1,ua,ub2"),
] + random_draws(50), ids=[
    "merge", "two-route qmaxfb", "two-route wfb", "segments merge",
    "toll grid segments", "two-destination"] + [
    f"random {k:02d}" for k in range(50)])
def test_a_taped_run_has_the_forward_values_of_a_float_run(scn, tokens):
    ps = register_parameters(scn, tokens)
    taped = Simulator(scn, params=ps).run()
    floats = Simulator(scn, params=ps, grad=False).run()
    assert isinstance(floats.tape, FloatTape)
    assert forward_values(taped) == forward_values(floats)
