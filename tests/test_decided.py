"""Recording decided on values: the link clamps, the free-flow travel times
and the INM step size record only what their result reads.
"""

import dataclasses

import pytest

import diffnet.engine
import diffnet.ltm
import diffnet.nodemodel
from diffnet.adcore import FloatTape, Tape, Var
from diffnet.engine import Simulator, build_objective, run
from diffnet.ltm import LinkDyn
from diffnet.presets import merge_scenario, toll_grid_scenario, two_route_scenario
from diffnet.scenario import register_parameters

from test_parity import two_destination_scenario


class SiteTape(Tape):
    """A tape that tags the entries each call of a decided site records.

    `calls` holds one (site, link, first entry, end, result) per call, in
    the order the calls return; the call's entries are those from its first
    entry up to `end`.
    """

    def __init__(self):
        super().__init__()
        self.calls = []

    def site(self, name, link, fn, args):
        start = len(self)
        out = fn(*args)
        self.calls.append((name, link, start, len(self), out))
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
    wrap(diffnet.engine, "travel_time_avg", 0, 1)
    wrap(diffnet.nodemodel, "_step_size", 0, None)
    monkeypatch.setattr(diffnet.engine, "Tape", SiteTape)


def decided(site, link):
    """Whether the call is decided on values: the clamp's interpolation
    speed and bound, or the free-flow speed, are plain floats."""
    if site == "demand":
        return type(link.u) is not Var and type(link.qmax) is not Var
    if site == "supply":
        return type(link.w) is not Var and type(link.qmax) is not Var
    if site == "travel_time_avg":
        return type(link.u) is not Var
    return True


def unread(tape, start, end, out):
    """Entries of [start, end) that are not `out` and that no later entry
    of the range reads."""
    read = {j for i in range(start, end)
            for j in (tape._p1[i], tape._p2[i]) if j >= start}
    result = out.idx if type(out) is Var else None
    return [i for i in range(start, end) if i not in read and i != result]


FIXTURES = [
    ("toll grid", toll_grid_scenario, "toll:*", "toll-J"),
    ("two-route qmaxfb", two_route_scenario, "qmaxfb", "ttt"),
    ("two-destination", two_destination_scenario, "q1,q2,qmaxb1,ua,ub2",
     "ttt"),
    ("merge u1", merge_scenario, "u1", "ttt"),
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
    for site, link, start, end, out in tape.calls:
        if not decided(site, link):
            continue
        seen[site] = seen.get(site, 0) + 1
        # each entry the call records feeds its result, and a call whose
        # result is a plain float records nothing
        assert unread(tape, start, end, out) == [], (site, link and link.id)
        if type(out) is not Var:
            assert start == end, (site, link and link.id)
    assert {"demand", "supply", "_step_size"} <= set(seen)
    if scn.config.mu != 0.0:
        assert seen["travel_time_avg"] > 0


def test_a_var_speed_keeps_the_recorded_clamp(monkeypatch):
    # merge with u1 registered: link 1's sending-rate index is a Var, so its
    # clamp records the rate even where a bound wins, as before
    tag_sites(monkeypatch)
    scn = merge_scenario()
    res = Simulator(scn, params=register_parameters(scn, "u1")).run()
    tape = res.tape
    assert any(unread(tape, start, end, out)
               for site, link, start, end, out in tape.calls
               if site == "demand" and link.id == "1")


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
    # logit routing reads the tree costs: the table is built on the tape
    scn = toll_grid_scenario()
    Simulator(scn, params=register_parameters(scn, "toll:f0a:0")).run()
    assert tapes and set(tapes) == {Tape}
    tapes.clear()
    # segment travel times at a Var index could differ from floats in the
    # last bit, so such a run routes on its tape
    scn = segments(merge_scenario())
    Simulator(scn, params=register_parameters(scn, "u1")).run()
    assert tapes and set(tapes) == {Tape}


def segments(scn, **config):
    return dataclasses.replace(scn, config=dataclasses.replace(
        scn.config, M=3, tt_method="segments", **config))


@pytest.mark.parametrize("scn, tokens", [
    (merge_scenario(), "q1,u1"),
    (two_route_scenario(), "qmaxfb"),
    (segments(toll_grid_scenario(), mu=0.0), "toll:f0a:0,toll:s2a:1,q1"),
], ids=["merge", "two-route", "toll grid segments"])
def test_routing_on_values_gives_the_answers_of_routing_on_the_tape(
        scn, tokens):
    # the same run with deterministic routing taped: the same objective and
    # gradients, bit for bit, and the same live entries
    out = []
    for on_values in (True, False):
        ps = register_parameters(scn, tokens)
        sim = Simulator(scn, params=ps)
        assert sim._route_on_values
        sim._route_on_values = on_values
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
def test_a_float_run_interpolates_once_per_clamp(monkeypatch, make):
    calls = []
    interp = diffnet.ltm.interp

    def counting(*args):
        calls.append(1)
        return interp(*args)

    monkeypatch.setattr(diffnet.ltm, "interp", counting)
    scn = make()
    run(scn, grad=False)
    # one sending and one receiving rate per link-step, each interpolated
    # once
    assert len(calls) == 2 * len(scn.links) * scn.config.n_steps
