"""Scenario model: validation, serialization, parameter registration."""

import dataclasses

import pytest

from diffnet.presets import merge_scenario
from diffnet.scenario import (
    Scenario,
    ScenarioError,
    ValidationError,
    register_parameters,
)


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
    scn = merge_scenario()
    p = tmp_path / "m.scn"
    scn.save(p)
    back = Scenario.load(p)
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


def test_parameter_registration_tokens():
    scn = merge_scenario()
    ps = register_parameters(scn, "q1,q2,u1,kappa3,alpha2")
    assert ps.names == ["q1", "q2", "u1", "kappa3", "alpha2"]
    assert ps.base_values == [0.45, 0.6, 20.0, 0.2, 1.0]


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


def test_toll_token_on_untolled_link_in_horizon_accepted():
    ps = register_parameters(merge_scenario(), "toll:3:0")
    assert ps.base_values == [0.0]


def test_toll_wildcard_skips_periods_past_the_horizon():
    d = merge_scenario().to_dict()
    d["tolls"] = [{"link": "3", "values": [0.0, 5.0, 7.0]}]
    ps = register_parameters(Scenario.from_dict(d), "toll:*")
    assert ps.names == ["toll:3:0"]


def test_demand_rate_lookup():
    scn = merge_scenario()
    dm = scn.demands[1]
    assert dm.rate_at(300.0) == 0.0
    assert dm.rate_at(400.0) == 0.6
    assert dm.rate_at(999.9) == 0.6
    assert dm.rate_at(1000.0) == 0.0


def test_config_step_counts():
    scn = merge_scenario()
    assert scn.config.n_steps == 400
    assert scn.config.route_steps == 5


def test_scenario_is_frozen():
    scn = merge_scenario()
    with pytest.raises(dataclasses.FrozenInstanceError):
        scn.config = None
