"""Scenario model: validation, serialization, parameter registration."""

import argparse
import contextlib
import dataclasses
import importlib.util
import io
import random
import re
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from diffnet.cli import main
from diffnet.engine import Simulator, run
from diffnet.presets import (
    bottleneck_scenario,
    merge_scenario,
    toll_grid_scenario,
    two_route_scenario,
)
from diffnet.cli import load_scenario
from diffnet.scenario import (
    M_MAX,
    Scenario,
    ScenarioError,
    ValidationError,
    register_parameters,
)
from test_engine import random_scenario

GRID = Path(__file__).resolve().parents[1] / "bench" / "grid.py"


def grid_scenario(n, n_dest):
    spec = importlib.util.spec_from_file_location("bench_grid", GRID)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return Scenario.from_dict(mod.grid_document(n, n_dest))


def base_dict():
    return {
        "meta": {"dt": 5.0, "T_max": 100.0, "dt_route": 25.0,
                 "dt_toll": 100.0, "mu": 0.0},
        "nodes": [
            {"id": "a", "kind": "origin"},
            {"id": "b", "kind": "destination"},
        ],
        "links": [
            {"id": "1", "from": "a", "to": "b", "d": 1000.0, "u": 20.0,
             "qmax": 0.8, "kappa": 0.2, "alpha": 1.0},
        ],
        "demands": [
            {"origin": "a", "destination": "b",
             "profile": [[0.0, 50.0, 0.3]]},
        ],
    }


def test_round_trip_through_file(tmp_path):
    # the writer writes every field the reader reads, on every fixture
    rng = random.Random(1234)
    randoms = []
    while len(randoms) < 50:
        scn = random_scenario(rng)
        if scn is not None:
            randoms.append(scn)
    scenarios = [merge_scenario(), two_route_scenario(), toll_grid_scenario(),
                 bottleneck_scenario(), grid_scenario(4, 2), *randoms]
    p = tmp_path / "m.scn"
    for scn in scenarios:
        scn.save(p)
        back = Scenario.load(p)
        assert back == scn
        assert back.to_dict() == scn.to_dict()


def test_from_dict_to_dict_round_trip():
    d = base_dict()
    assert Scenario.from_dict(d).to_dict() == Scenario.from_dict(
        Scenario.from_dict(d).to_dict()
    ).to_dict()


def test_cfl_violation_rejected():
    d = base_dict()
    d["meta"]["dt"] = 100.0  # d/u = 50 s < dt
    d["meta"]["dt_route"] = 100.0
    with pytest.raises(ValidationError):
        Scenario.from_dict(d)


def test_capacity_above_fd_apex_rejected():
    d = base_dict()
    # qmax must stay below u*kappa (triangular FD feasibility)
    d["links"][0]["qmax"] = 20.0 * 0.2 + 1.0
    with pytest.raises(ValidationError):
        Scenario.from_dict(d)


def test_unknown_node_reference_rejected():
    d = base_dict()
    d["links"][0]["to"] = "nowhere"
    with pytest.raises(ValidationError):
        Scenario.from_dict(d)


def test_unreachable_destination_rejected():
    d = base_dict()
    d["nodes"].append({"id": "c", "kind": "destination"})
    d["demands"].append(
        {"origin": "a", "destination": "c", "profile": [[0.0, 50.0, 0.1]]}
    )
    with pytest.raises(ValidationError):
        Scenario.from_dict(d)


def test_route_interval_must_be_multiple_of_dt():
    d = base_dict()
    d["meta"]["dt_route"] = 12.0
    with pytest.raises(ValidationError):
        Scenario.from_dict(d)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("M, want", [
    (3, 3), (2.0, 2), (2.5, None), (True, None), ("3", None), (NAN, None),
    (INF, None), (None, None)])
def test_segment_count_must_be_integral(M, want):
    # an integral float is the integer; anything else is refused rather
    # than truncated (2.5 -> 2) or coerced (true -> 1)
    d = base_dict()
    d["meta"]["M"] = M
    if want is not None:
        M_read = Scenario.from_dict(d).config.M
        assert M_read == want and type(M_read) is int
        return
    with pytest.raises(ValidationError,
                       match=re.escape(f"segment count M={M!r} must be")):
        Scenario.from_dict(d)


@pytest.mark.parametrize("M", [M_MAX + 1, 1e300, int("9" * 401)],
                         ids=["M_MAX+1", "1e300", "401 digits"])
def test_segment_count_above_its_cap_is_refused_before_any_run(M, tmp_path):
    # `travel_time_segments` evaluates M + 1 counts per link: an M past
    # M_MAX is refused by the document reader, by `SimConfig.validate` and
    # by the CLI's `--segments`, each before a scan could allocate them
    cap = f"segment count M must be <= {M_MAX}"
    d = base_dict()
    d["meta"]["M"] = M
    with pytest.raises(ValidationError, match=f"^{re.escape(cap)}$"):
        Scenario.from_dict(d)
    scn = Scenario.from_dict(base_dict())
    with pytest.raises(ValidationError, match=f"^{re.escape(cap)}$"):
        dataclasses.replace(scn.config, M=M).validate()
    path = tmp_path / "ok.scn"
    scn.save(path)
    args = argparse.Namespace(segments=M)
    with pytest.raises(ValidationError, match=f"^{re.escape(cap)}$"):
        load_scenario(str(path), args)
    d["meta"]["M"] = M_MAX
    assert Scenario.from_dict(d).config.M == M_MAX


@pytest.mark.parametrize("path, bad, field", [
    pytest.param(("meta", "dt"), NAN, "dt=nan", id="dt"),
    pytest.param(("meta", "T_max"), INF, "T_max=inf", id="T_max"),
    pytest.param(("meta", "dt_route"), NAN, "dt_route=nan", id="dt_route"),
    pytest.param(("meta", "dt_toll"), INF, "dt_toll=inf", id="dt_toll"),
    pytest.param(("meta", "mu"), NAN, "mu=nan", id="mu"),
    pytest.param(("links", 0, "d"), INF, "link 1: d ", id="link-d"),
    pytest.param(("links", 0, "u"), NAN, "link 1: u ", id="link-u"),
    pytest.param(("links", 0, "qmax"), NAN, "link 1: qmax ", id="link-qmax"),
    pytest.param(("links", 0, "kappa"), INF, "link 1: kappa ", id="link-kappa"),
    pytest.param(("links", 0, "alpha"), NAN, "link 1: alpha ", id="link-alpha"),
    pytest.param(("demands", 0, "profile", 0, 2), NAN, "rate nan",
                 id="demand-rate"),
    pytest.param(("demands", 0, "profile", 0, 0), NAN, "edge nan",
                 id="demand-start"),
    pytest.param(("demands", 0, "profile", 0, 1), INF, "edge inf",
                 id="demand-end"),
    pytest.param(("tolls", 0, "values", 0), NAN, "toll on link 1", id="toll"),
    # integers beyond the float range read as +-inf
    pytest.param(("links", 0, "d"), int("9" * 401), "link 1: d ",
                 id="link-d-401-digits"),
    pytest.param(("meta", "T_max"), int("9" * 401), "T_max=inf",
                 id="T_max-401-digits"),
    pytest.param(("tolls", 0, "values", 0), -int("9" * 401),
                 "toll on link 1", id="toll-401-digits"),
])
def test_non_finite_number_rejected_naming_its_field(path, bad, field):
    d = base_dict()
    d["tolls"] = [{"link": "1", "values": [0.0]}]
    Scenario.from_dict(d)  # valid before the edit
    target = d
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = bad
    with pytest.raises(ValidationError, match=re.escape(field)):
        Scenario.from_dict(d)


@pytest.mark.parametrize("path, bad, field", [
    pytest.param(("meta", "dt"), True, "dt=True", id="dt"),
    pytest.param(("meta", "T_max"), "100", "T_max='100'", id="T_max"),
    pytest.param(("meta", "dt_route"), False, "dt_route=False",
                 id="dt_route"),
    pytest.param(("meta", "dt_toll"), "1e2", "dt_toll='1e2'", id="dt_toll"),
    pytest.param(("meta", "mu"), True, "mu=True", id="mu"),
    pytest.param(("links", 0, "d"), "1000", "link 1: d='1000'", id="link-d"),
    pytest.param(("links", 0, "u"), True, "link 1: u=True", id="link-u"),
    pytest.param(("links", 0, "qmax"), "0.8", "link 1: qmax='0.8'",
                 id="link-qmax"),
    pytest.param(("links", 0, "kappa"), None, "link 1: kappa=None",
                 id="link-kappa"),
    pytest.param(("links", 0, "alpha"), True, "link 1: alpha=True",
                 id="link-alpha"),
    pytest.param(("demands", 0, "profile", 0, 2), True,
                 "demand a->b: rate=True", id="demand-rate"),
    pytest.param(("demands", 0, "profile", 0, 0), "0",
                 "demand a->b: interval edge='0'", id="demand-start"),
    pytest.param(("demands", 0, "profile", 0, 1), [50.0],
                 "demand a->b: interval edge=[50.0]", id="demand-end"),
    pytest.param(("tolls", 0, "values", 0), False,
                 "toll on link 1: value=False", id="toll"),
])
def test_boolean_or_string_number_rejected_naming_its_field(path, bad, field):
    # a YAML `true` would load as 1.0 and a quoted "1000" as 1000.0; each
    # is refused with the field it sits in
    d = base_dict()
    d["tolls"] = [{"link": "1", "values": [0.0]}]
    Scenario.from_dict(d)  # valid before the edit
    target = d
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = bad
    with pytest.raises(ValidationError,
                       match=re.escape(f"{field} must be a number")):
        Scenario.from_dict(d)


@pytest.mark.parametrize("path, field", [
    pytest.param(("nodes", 0, "id"), "node id", id="node-id"),
    pytest.param(("nodes", 0, "kind"), "node a: kind", id="node-kind"),
    pytest.param(("links", 0, "id"), "id", id="link-id"),
    pytest.param(("links", 0, "from"), "link 1: from", id="link-from"),
    pytest.param(("links", 0, "to"), "link 1: to", id="link-to"),
    pytest.param(("demands", 0, "origin"), "origin", id="demand-origin"),
    pytest.param(("demands", 0, "destination"), "destination",
                 id="demand-destination"),
    pytest.param(("tolls", 0, "link"), "toll link", id="toll-link"),
    pytest.param(("meta", "tt_method"), "tt_method", id="tt_method"),
])
@pytest.mark.parametrize("bad", [None, True, 1.5, ["a"], {"a": 1}],
                         ids=["null", "bool", "float", "list", "mapping"])
def test_text_field_must_be_a_string_or_an_integer(path, field, bad):
    # `id: null` would load as the node 'None', `id: 1.5` as '1.5'
    d = base_dict()
    d["tolls"] = [{"link": "1", "values": [0.0]}]
    target = d
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = bad
    with pytest.raises(ValidationError,
                       match=re.escape(f"{field}={bad!r} must be a string "
                                       "or an integer")):
        Scenario.from_dict(d)


def test_integer_names_load_as_text():
    d = base_dict()
    d["nodes"] = [{"id": 7, "kind": "origin"}, {"id": "b", "kind": "destination"}]
    d["links"][0].update(id=1, **{"from": 7})
    d["demands"][0]["origin"] = 7
    d["tolls"] = [{"link": 1, "values": [0.0]}]
    scn = Scenario.from_dict(d)
    assert list(scn.nodes) == ["7", "b"]
    assert (scn.links[0].id, scn.links[0].tail) == ("1", "7")
    assert scn.demands[0].origin == "7"
    assert list(scn.tolls.values) == ["1"]


def test_integer_numbers_load_as_floats():
    d = base_dict()
    d["meta"].update(dt=5, T_max=100, mu=0)
    d["links"][0].update(d=1000, u=20, kappa=1)
    d["demands"][0]["profile"] = [[0, 50, 1]]
    d["tolls"] = [{"link": "1", "values": [3]}]
    scn = Scenario.from_dict(d)
    got = [scn.config.dt, scn.config.T_max, scn.config.mu, scn.links[0].d,
           scn.links[0].u, scn.links[0].kappa, *scn.demands[0].profile[0],
           *scn.tolls.values["1"]]
    assert got == [5.0, 100.0, 0.0, 1000.0, 20.0, 1.0, 0.0, 50.0, 1.0, 3.0]
    assert all(type(x) is float for x in got)


def test_parameter_registration_tokens():
    scn = merge_scenario()
    ps = register_parameters(scn, "q1,q2,u1,kappa3,alpha2")
    assert ps.names == ["q1", "q2", "u1", "kappa3", "alpha2"]
    assert ps.base_values == [0.45, 0.6, 20.0, 0.2, 1.0]


def test_a_list_of_tokens_registers_as_its_comma_string():
    scn = merge_scenario()
    tokens = ["q2", "u1", "kappa3", "alpha2"]
    assert (register_parameters(scn, tokens)
            == register_parameters(scn, ",".join(tokens)))


@pytest.mark.parametrize("scn, tokens, message", [
    (merge_scenario, "q1,q1", "parameters 'q1' and 'q1' both register q1"),
    (merge_scenario, "u3,u3", "parameters 'u3' and 'u3' both register u3"),
    (toll_grid_scenario, "toll:*,toll:f0a:0",
     "parameters 'toll:*' and 'toll:f0a:0' both register toll:f0a:0"),
    (toll_grid_scenario, "toll:f0a:0,toll:f0a:00",
     "parameters 'toll:f0a:0' and 'toll:f0a:00' both register toll:f0a:0"),
])
def test_duplicate_parameter_targets_are_rejected(scn, tokens, message):
    # a second parameter on the same target would override the first,
    # leaving the first with no effect
    with pytest.raises(ScenarioError) as err:
        register_parameters(scn(), tokens)
    assert str(err.value) == message


def test_unknown_token_rejected():
    scn = merge_scenario()
    with pytest.raises(Exception):
        register_parameters(scn, "zz9")


def test_qmax_and_w_conflict_rejected():
    scn = merge_scenario()
    with pytest.raises(Exception):
        register_parameters(scn, "qmax1,w1")


def test_toll_wildcard_expansion():
    from diffnet.presets import toll_grid_scenario

    scn = toll_grid_scenario()
    ps = register_parameters(scn, "toll:*")
    assert len(ps) == 120
    assert all(n.startswith("toll:") for n in ps.names)
    assert all(v == 0.0 for v in ps.base_values)


@pytest.mark.parametrize("token", [
    "toll:zzz:0",  # unknown link
    "toll:3:1",  # the merge horizon has one toll period
    "toll:3:-1",
])
def test_toll_token_without_effect_rejected(token):
    with pytest.raises(ScenarioError, match="toll"):
        register_parameters(merge_scenario(), token)


def test_demand_token_on_a_zero_rate_profile_rejected():
    # a zero-rate profile generates no vehicles whatever q2 is set to
    d = merge_scenario().to_dict()
    d["demands"][1]["profile"][0][2] = 0.0
    scn = Scenario.from_dict(d)
    with pytest.raises(ScenarioError) as err:
        register_parameters(scn, "q1,q2")
    assert str(err.value) == ("parameter 'q2': demand profile #2 has rate 0, "
                              "so the parameter would have no effect")
    assert register_parameters(scn, "q1").base_values == [0.45]


def test_toll_token_on_untolled_link_in_horizon_accepted():
    ps = register_parameters(merge_scenario(), "toll:3:0")
    assert ps.base_values == [0.0]


def test_toll_wildcard_skips_periods_past_the_horizon():
    d = merge_scenario().to_dict()
    d["tolls"] = [{"link": "3", "values": [0.0, 5.0, 7.0]}]
    ps = register_parameters(Scenario.from_dict(d), "toll:*")
    assert ps.names == ["toll:3:0"]


def test_demand_rate_lookup():
    # demand 1 runs at 0.6 veh/s on [400 s, 1000 s); dt is 5 s
    sim = Simulator(merge_scenario())
    assert sim.demand_rate(1, 60) == 0.0
    assert sim.demand_rate(1, 80) == 0.6
    assert sim.demand_rate(1, 199) == 0.6
    assert sim.demand_rate(1, 200) == 0.0


def test_config_step_counts():
    scn = merge_scenario()
    assert scn.config.n_steps == 400
    assert scn.config.route_steps == 5


def test_scenario_is_frozen():
    scn = merge_scenario()
    with pytest.raises(dataclasses.FrozenInstanceError):
        scn.config = None


# ----------------------------------------------------------------------
# the compiled network


def brute_force_network(scn):
    """Link ids per node, the nodes reaching each demanded destination and
    demands per origin, by search."""
    out = {n: [lk.id for lk in scn.links if lk.tail == n] for n in scn.nodes}
    inc = {n: [lk.id for lk in scn.links if lk.head == n] for n in scn.nodes}
    reach = {n: {n} for n in scn.nodes}
    changed = True
    while changed:
        changed = False
        for lk in scn.links:
            if not reach[lk.head] <= reach[lk.tail]:
                reach[lk.tail] |= reach[lk.head]
                changed = True
    reaching = {s: {n for n in scn.nodes if s in reach[n]}
                for s in scn.destinations}
    demands = {o: [i for i, dm in enumerate(scn.demands) if dm.origin == o]
               for o in scn.origins}
    return out, inc, reaching, demands


def check_network(scn):
    net = scn.network
    out, inc, reaching, demands = brute_force_network(scn)
    ids = [lk.id for lk in scn.links]
    assert {n: [ids[i] for i in v] for n, v in net.outlinks.items()} == out
    assert {n: [ids[i] for i in v] for n, v in net.inlinks.items()} == inc
    assert net.reaching == reaching
    assert tuple(net.reaching) == scn.destinations
    assert net.origin_demands == demands
    # the reverse adjacency: each node's inlinks with their tails, and each
    # link's head, by position
    rev = net.reverse
    assert rev.names == tuple(scn.nodes) and rev.ids == ids
    assert all(rev.names[k] == n for n, k in rev.pos.items())
    tails = {lk.id: lk.tail for lk in scn.links}
    assert {rev.names[k]: [(ids[i], rev.names[t]) for i, t in pairs]
            for k, pairs in enumerate(rev.into)} == {
        n: [(lid, tails[lid]) for lid in lids] for n, lids in inc.items()}
    assert [rev.names[h] for h in rev.heads] == [lk.head for lk in scn.links]
    assert scn.network is net  # built once


def test_origins_and_destinations_are_computed_once_in_demand_order():
    scn = random_scenario(random.Random(30))
    dests, origins = [], []
    for dm in scn.demands:
        if dm.destination not in dests:
            dests.append(dm.destination)
        if dm.origin not in origins:
            origins.append(dm.origin)
    assert scn.destinations == tuple(dests)
    assert scn.origins == tuple(origins)
    assert scn.destinations is scn.destinations
    assert scn.origins is scn.origins


def test_network_matches_brute_force_on_random_scenarios():
    rng = random.Random(1234)
    built = 0
    while built < 50:
        scn = random_scenario(rng)
        if scn is None:
            continue
        check_network(scn)
        built += 1


def test_links_keep_state_for_the_destinations_their_head_reaches():
    # in these feed-forward networks the heads of many links reach only
    # part of the destinations; the per-destination counts add up to NU
    rng = random.Random(1234)
    built = partial = 0
    while built < 50:
        scn = random_scenario(rng)
        if scn is None:
            continue
        built += 1
        _, _, reaching, _ = brute_force_network(scn)
        for lk in run(scn, grad=False).links.values():
            assert lk.dests == tuple(s for s in scn.destinations
                                     if lk.head in reaching[s])
            partial += 0 < len(lk.dests) < len(scn.destinations)
            if len(lk.dests) > 1:
                assert list(lk.NU_s) == list(lk.dests)
                assert sum(lk.NU_s.values()) == pytest.approx(
                    lk.NU[-1], rel=1e-12, abs=1e-12)
            else:
                assert lk.NU_s == {}
    assert partial > 50


def test_network_matches_brute_force_on_grid_and_results_keep_file_order():
    scn = grid_scenario(4, 2)
    check_network(scn)
    res = run(scn, grad=False)
    ids = [lk.id for lk in scn.links]
    assert ids != sorted(ids)  # file order is not id order here
    assert list(res.links) == ids
    assert list(res.ttt_link) == ids


# ----------------------------------------------------------------------
# fuzzing the loader


def fuzz_base():
    d = base_dict()
    d["tolls"] = [{"link": "1", "values": [0.0]}]
    return d


def document_paths(node, path=()):
    """(path, whether its last step is a mapping key) of every value below
    `node`, a document of mappings and lists."""
    steps = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for step, child in steps:
        yield path + (step,), isinstance(node, dict)
        yield from document_paths(child, path + (step,))


def section(path):
    """The keys on `path`: ('links',) for any link's key."""
    return tuple(step for step in path if isinstance(step, str))


PATHS = [path for path, _ in document_paths(fuzz_base())]
KEY_PATHS = [path for path, keyed in document_paths(fuzz_base()) if keyed]
# the keys the schema declares in each section, and those the base may lack
DECLARED = {("meta",): {"M", "tt_method"}}
for path in KEY_PATHS:
    DECLARED.setdefault(section(path[:-1]), set()).add(path[-1])
OPTIONAL = {"dt_route", "dt_toll", "mu", "alpha", "demands", "tolls"}
MISSPELL = {"append": lambda k: k + "_", "drop last": lambda k: k[:-1],
            "insert": lambda k: k[:1] + "x" + k[1:]}
BAD_VALUES = [True, "1000", NAN, INF, -1, None, [1.0], int("9" * 401)]
MUTATIONS = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(KEY_PATHS)),
    st.tuples(st.just("misspell"), st.sampled_from(KEY_PATHS),
              st.sampled_from(sorted(MISSPELL))),
    st.tuples(st.just("replace"), st.sampled_from(PATHS),
              st.sampled_from(BAD_VALUES)),
)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(MUTATIONS)
def test_mutated_documents_exit_0_or_1_with_one_line(mutation):
    kind, path, *how = mutation
    doc = fuzz_base()
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    key = path[-1]
    if kind == "drop":
        del parent[key]
    elif kind == "misspell":
        new = MISSPELL[how[0]](key)
        assert new not in DECLARED[section(path[:-1])]
        parent[new] = parent.pop(key)
    else:
        parent[key] = how[0]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "s.yml"
        p.write_text(yaml.safe_dump(doc))
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", str(p), "--out", str(Path(tmp) / "o")])
    err = err.getvalue()
    assert code in (0, 1), err
    if code == 1:
        assert err.startswith("scenario error: ") and err.count("\n") == 1, err
    if kind == "misspell":
        assert code == 1 and f"unknown key {new!r}" in err, err
    elif kind == "drop":
        if key in OPTIONAL:
            assert code == 0, err
        else:
            assert code == 1 and f"KeyError({key!r})" in err, err
