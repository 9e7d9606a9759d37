"""End-to-end CLI tests on the merge fixture."""

import csv
import math
import os

import pytest
import yaml

from diffnet.cli import main, write_csv
from diffnet.engine import build_objective
from diffnet.optimize import evaluate
from diffnet.presets import (
    bottleneck_scenario,
    merge_scenario,
    toll_grid_scenario,
    two_route_scenario,
)
from diffnet.scenario import register_parameters
from test_engine import give_first_outlink


@pytest.fixture(scope="module")
def merge_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("scn") / "merge.scn"
    merge_scenario().save(p)
    return str(p)


def read_csv(path):
    with open(path) as f:
        assert f.readline().startswith("# diffnet ")
        return list(csv.DictReader(f))


def test_write_csv_leaves_no_file_when_the_rows_fail(tmp_path):
    # the rows fail after one is written: the error reaches the caller, and
    # neither the target nor the temporary file it was written to is left
    def rows():
        yield {"t": 0}
        raise RuntimeError("row source failed")

    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="row source failed"):
        write_csv(str(out / "flows.csv"), rows(), ["t"])
    assert list(out.iterdir()) == []


def test_run_subcommand(merge_file, tmp_path, capsys):
    out = str(tmp_path / "o")
    assert main(["run", merge_file, "--out", out]) == 0
    assert "ttt=140065" in capsys.readouterr().out
    rows = read_csv(os.path.join(out, "links.csv"))
    assert {r["link"] for r in rows} == {"1", "2", "3"}
    final3 = [r for r in rows if r["link"] == "3"][-1]
    assert float(final3["N_down"]) == pytest.approx(810.0)
    summary = read_csv(os.path.join(out, "summary.csv"))
    assert float(summary[0]["value"]) == pytest.approx(140065.0)


def test_grad_subcommand(merge_file, tmp_path):
    out = str(tmp_path / "o")
    assert main(["grad", merge_file, "--params", "q1,u3", "--objective",
                 "ttt", "--out", out]) == 0
    rows = {r["parameter"]: float(r["ad"])
            for r in read_csv(os.path.join(out, "gradient.csv"))}
    assert rows["u3"] == pytest.approx(-2025.0, rel=1e-6)
    assert rows["q1"] == pytest.approx(389500.0, rel=1e-6)


def test_fdcheck_subcommand(merge_file, tmp_path):
    out = str(tmp_path / "o")
    assert main(["fdcheck", merge_file, "--params", "u3", "--eps",
                 "1e-1,1e-2", "--out", out]) == 0
    row = read_csv(os.path.join(out, "fdcheck.csv"))[0]
    assert float(row["ad"]) == pytest.approx(-2025.0, rel=1e-6)
    assert float(row["fd_0.1"]) == pytest.approx(-2025.0, rel=1e-3)
    assert float(row["fd_0.01"]) == pytest.approx(-2025.0, rel=1e-4)


def test_trace_subcommand(merge_file, tmp_path):
    out = str(tmp_path / "o")
    assert main(["trace", merge_file, "--trip", "500:orig1:dest",
                 "--out", out]) == 0
    rows = read_csv(os.path.join(out, "trajectories.csv"))
    assert [r["link"] for r in rows] == ["1", "3"]
    assert float(rows[-1]["t_exit"]) == pytest.approx(612.5)


def test_optimizer_subcommands(tmp_path):
    scn = toll_grid_scenario(n_fast=2, n_slow=2)
    p = tmp_path / "grid.scn"
    scn.save(p)
    out = str(tmp_path / "adam")
    assert main(["optimize-toll", str(p), "--iters", "3", "--lambda",
                 "0.001", "--out", out]) == 0
    trace = read_csv(os.path.join(out, "trace.csv"))
    assert len(trace) == 3
    tolls = read_csv(os.path.join(out, "tolls.csv"))
    assert len(tolls) == 40  # 4 tolled links x 10 periods
    out2 = str(tmp_path / "spsa")
    assert main(["spsa-toll", str(p), "--iters", "3", "--seed", "1",
                 "--out", out2]) == 0
    assert len(read_csv(os.path.join(out2, "trace.csv"))) == 4


def test_output_determinism(merge_file, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert main(["grad", merge_file, "--params", "q1,q2", "--out",
                     out]) == 0
        with open(os.path.join(out, "gradient.csv")) as f:
            outs.append(f.read())
    assert outs[0] == outs[1]


def test_missing_scenario_file_is_io_error(tmp_path):
    assert main(["run", str(tmp_path / "nope.scn"), "--out",
                 str(tmp_path)]) == 3


def test_invalid_scenario_is_validation_error(tmp_path):
    bad = merge_scenario().to_dict()
    bad["links"][0]["qmax"] = 100.0  # above the FD apex
    import yaml

    p = tmp_path / "bad.scn"
    p.write_text(yaml.safe_dump(bad))
    assert main(["run", str(p), "--out", str(tmp_path)]) == 1


def test_non_finite_demand_rate_is_validation_error(tmp_path, capsys):
    bad = merge_scenario().to_dict()
    bad["demands"][0]["profile"][0][2] = float("nan")
    import yaml

    p = tmp_path / "nan.scn"
    p.write_text(yaml.safe_dump(bad))
    assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("scenario error: ") and "rate nan" in err
    assert not os.path.exists(tmp_path / "o")


def test_bad_parameter_token_is_validation_error(merge_file, tmp_path):
    assert main(["grad", merge_file, "--params", "zz9", "--out",
                 str(tmp_path)]) == 1


def test_unknown_trip_destination_is_runtime_error(merge_file, tmp_path,
                                                   capsys):
    assert main(["trace", merge_file, "--trip", "300:orig1:nowhere",
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: ") and err.count("\n") == 1


def test_unfinished_trip_is_runtime_error(tmp_path, capsys):
    # the bottleneck queue is still growing at the end of the horizon
    p = tmp_path / "jam.scn"
    bottleneck_scenario(t_off=1900.0).save(p)
    assert main(["trace", str(p), "--trip", "1800:orig:dest", "--out",
                 str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("runtime error: ")
    # the queue has drained, but the trip would end past the horizon
    bottleneck_scenario().save(p)
    assert main(["trace", str(p), "--trip", "1990:orig:dest", "--out",
                 str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("runtime error: ")


@pytest.mark.parametrize("flow", [math.nan, math.inf, -1e-9])
def test_bad_boundary_flow_is_runtime_error(merge_file, tmp_path, capsys,
                                            monkeypatch, flow):
    give_first_outlink(monkeypatch, flow)
    assert main(["run", merge_file, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"runtime error: link 1 at step 0: boundary flows in {flow!r} and "
        "out 0.0 must be finite and >= 0\n")


def test_malformed_trip_spec_is_scenario_error(merge_file, tmp_path):
    assert main(["trace", merge_file, "--trip", "300:orig2", "--out",
                 str(tmp_path)]) == 1


@pytest.mark.parametrize("t0", ["nan", "inf", "-inf", "-100", "-1e-9"])
@pytest.mark.parametrize("command", ["trace", "run"])
def test_departure_time_that_is_not_finite_and_nonnegative_exits_1(
        merge_file, tmp_path, capsys, command, t0):
    out = str(tmp_path / "o")
    spec = f"{t0}:orig1:dest"
    args = (["--trip=" + spec] if command == "trace"
            else ["--objective", "trip:" + spec])
    assert main([command, merge_file, *args, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err == (f"scenario error: trip departure time {float(t0)!r} "
                   "must be finite and >= 0\n")


def test_unknown_objective_is_scenario_error(merge_file, tmp_path):
    assert main(["run", merge_file, "--objective", "bogus", "--out",
                 str(tmp_path)]) == 1


@pytest.mark.parametrize("command, iters", [
    ("optimize-toll", "0"), ("optimize-toll", "-2"), ("spsa-toll", "-2"),
])
def test_iteration_count_below_one_is_scenario_error(merge_file, tmp_path,
                                                     capsys, command, iters):
    out = str(tmp_path / "o")
    assert main([command, merge_file, "--params", "u1", "--iters", iters,
                 "--out", out]) == 1
    err = capsys.readouterr().err
    assert err == f"scenario error: iters must be at least 1 (got {iters})\n"
    assert not os.path.exists(out)


def test_segments_option(merge_file, tmp_path, capsys):
    out = str(tmp_path / "o")
    assert main(["run", merge_file, "--segments", "3", "--out", out]) == 0
    assert "ttt=" in capsys.readouterr().out
    assert os.path.exists(os.path.join(out, "summary.csv"))


def test_mu_override(merge_file, tmp_path, capsys):
    out = str(tmp_path / "o")
    assert main(["run", merge_file, "--mu", "0.05", "--out", out]) == 0
    assert "ttt=" in capsys.readouterr().out


@pytest.mark.parametrize("command, spec, lid", [
    ("run", "ttt-link:zzz", "zzz"),
    ("run", "att-link:zzz", "zzz"),
    ("run", "ttt-link:", ""),
    ("grad", "att-link:zzz", "zzz"),
])
def test_unknown_objective_link_is_scenario_error(merge_file, tmp_path, capsys,
                                                  command, spec, lid):
    args = [command, merge_file, "--objective", spec, "--out", str(tmp_path)]
    if command == "grad":
        args += ["--params", "u3"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("scenario error: ") and repr(lid) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("eps", ["0", "abc", "nan", "-1e-2", "inf", "1e-1,0"])
def test_bad_fd_step_is_scenario_error(merge_file, tmp_path, capsys, eps):
    out = str(tmp_path / "o")
    assert main(["fdcheck", merge_file, "--params", "u3", f"--eps={eps}",
                 "--out", out]) == 1
    assert capsys.readouterr().err.startswith("scenario error: ")
    assert not os.path.exists(out)


@pytest.mark.parametrize("command, lam", [
    ("optimize-toll", "nan"), ("optimize-toll", "-5"), ("spsa-toll", "inf"),
    ("grad", "nan"), ("grad", "-5"),
])
def test_bad_toll_weight_is_scenario_error(merge_file, tmp_path, capsys,
                                          command, lam):
    out = str(tmp_path / "o")
    args = [command, merge_file, "--params", "u1", f"--lambda={lam}",
            "--out", out]
    if command == "grad":
        args += ["--objective", "toll-J"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("scenario error: ") and "lambda" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("args, given", [
    (["grad"], "no --params given"),
    (["fdcheck"], "no --params given"),
    (["grad", "--params", ""], "--params ''"),
    (["fdcheck", "--params", " , "], "--params ' , '"),
    # the merge fixture has no tolls, so toll:* selects nothing
    (["optimize-toll", "--iters", "1"], "--params 'toll:*'"),
    (["spsa-toll", "--iters", "1"], "--params 'toll:*'"),
])
def test_empty_parameter_set_is_scenario_error(merge_file, tmp_path, capsys,
                                               args, given):
    out = str(tmp_path / "o")
    assert main([args[0], merge_file, *args[1:], "--out", out]) == 1
    err = capsys.readouterr().err
    assert err == f"scenario error: empty parameter set: {given} selects " \
        "nothing\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("args, message", [
    # options a subcommand does not read are not accepted
    (["trace", "M", "--trip", "500:orig1:dest", "--objective", "ttt"],
     "unrecognized arguments: --objective ttt"),
    (["trace", "M", "--trip", "500:orig1:dest", "--lambda", "1"],
     "unrecognized arguments: --lambda 1"),
    (["optimize-toll", "M", "--params", "u1", "--iters", "1", "--objective",
      "bogus"], "unrecognized arguments: --objective bogus"),
    (["spsa-toll", "M", "--params", "u1", "--iters", "1", "--objective",
      "ttt"], "unrecognized arguments: --objective ttt"),
    (["run", "M", "--params", "q1"], "unrecognized arguments: --params q1"),
    # malformed values and missing arguments
    (["run", "M", "--lambda", "abc"],
     "diffnet run: argument --lambda: invalid float value: 'abc'"),
    (["optimize-toll", "M", "--iters", "abc"],
     "diffnet optimize-toll: argument --iters: invalid int value: 'abc'"),
    (["run"], "the following arguments are required: scenario"),
    ([], "the following arguments are required: command"),
])
def test_usage_error_exits_1_with_one_line(merge_file, tmp_path, capsys,
                                           args, message):
    out = str(tmp_path / "o")
    args = [merge_file if a == "M" else a for a in args]
    assert main(args + (["--out", out] if args else [])) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert message in err
    assert not os.path.exists(out)


def _edit(doc, path, value):
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value


def _origin_with_inlink(doc):
    doc["nodes"].append({"id": "x", "kind": "intermediate"})
    doc["links"].append({**doc["links"][0], "id": "4", "from": "x",
                         "to": "orig1"})


def _destination_with_outlink(doc):
    doc["nodes"].append({"id": "x", "kind": "intermediate"})
    doc["links"].append({**doc["links"][0], "id": "4", "from": "dest",
                         "to": "x"})


def _unknown_link_key(doc):
    del doc["links"][0]["qmax"]


@pytest.mark.parametrize("edit, message", [
    (lambda d: _edit(d, ("demands", 0, "profile"), [[50.0, 50.0, 0.3]]),
     "demand orig1->dest: empty interval"),
    (lambda d: _edit(d, ("demands", 0, "profile"),
                     [[0.0, 500.0, 0.3], [250.0, 750.0, 0.3]]),
     "demand orig1->dest: overlapping intervals"),
    (lambda d: _edit(d, ("meta", "M"), 0), "segment count M must be >= 1"),
    (lambda d: _edit(d, ("meta", "M"), 2.5),
     "segment count M=2.5 must be an integer"),
    (lambda d: _edit(d, ("meta", "M"), True),
     "segment count M=True must be an integer"),
    (lambda d: _edit(d, ("meta", "tt_method"), "exact"),
     "unknown tt_method 'exact'"),
    (lambda d: _edit(d, ("links", 1, "id"), "1"), "duplicate link id '1'"),
    (lambda d: _edit(d, ("nodes", 2, "kind"), "junction"),
     "node merge: unknown kind 'junction'"),
    (lambda d: d["nodes"].append({"id": "merge", "kind": "destination"}),
     "duplicate node id 'merge'"),
    (_origin_with_inlink, "origin node orig1 must have no inlinks"),
    (_destination_with_outlink, "destination node dest must have no outlinks"),
    (lambda d: _edit(d, ("demands", 0, "origin"), "merge"),
     "demand merge->dest: node merge is not a declared origin"),
    (lambda d: _edit(d, ("demands", 0, "destination"), "merge"),
     "demand orig1->merge: node merge is not a declared destination"),
    (lambda d: _edit(d, ("tolls",), [{"link": "9", "values": [1.0]}]),
     "toll refers to unknown link '9'"),
    (lambda d: _edit(d, ("tolls",), [{"link": "1", "values": [1.0]},
                                     {"link": "1", "values": [2.0]}]),
     "duplicate toll link '1'"),
    (_unknown_link_key, "malformed scenario document: KeyError('qmax')"),
    # booleans and strings are refused, not read as 1.0 or parsed
    (lambda d: _edit(d, ("links", 0, "alpha"), True),
     "link 1: alpha=True must be a number"),
    (lambda d: _edit(d, ("meta", "mu"), True), "mu=True must be a number"),
    (lambda d: _edit(d, ("links", 0, "d"), "1000"),
     "link 1: d='1000' must be a number"),
    (lambda d: _edit(d, ("tolls",), [{"link": "1", "values": [0.0, True]}]),
     "toll on link 1: value=True must be a number"),
    # an integer beyond the float range reads as inf, which d's rule refuses
    (lambda d: _edit(d, ("links", 0, "d"), int("9" * 401)),
     "link 1: d must be finite and > 0"),
    # a key that nothing declares is refused, not read as its default
    (lambda d: d.update(demand=d.pop("demands")),
     "top level: unknown key 'demand'"),
    (lambda d: _edit(d, ("meta", "dt_rout"), 5.0),
     "meta: unknown key 'dt_rout'"),
    (lambda d: _edit(d, ("links", 0, "qmax_"), 0.8),
     "link 1: unknown key 'qmax_'"),
    (lambda d: _edit(d, ("links", 0, "alfa"), 2.0),
     "link 1: unknown key 'alfa'"),
    (lambda d: _edit(d, ("nodes", 0, "type"), "origin"),
     "node orig1: unknown key 'type'"),
    (lambda d: _edit(d, ("demands", 0, "rate"), 0.3),
     "demand orig1->dest: unknown key 'rate'"),
    (lambda d: _edit(d, ("tolls",), [{"link": "1", "value": [1.0]}]),
     "toll on link 1: unknown key 'value'"),
    (lambda d: _edit(d, ("nodes", 0, "id"), None),
     "node id=None must be a string or an integer"),
    # an entry that is not a mapping is named by its section and position
    (lambda d: _edit(d, ("links",), ["1000"]),
     "links entry 0: expected a mapping, got '1000'"),
    (lambda d: _edit(d, ("meta",), "1000"),
     "meta: expected a mapping, got '1000'"),
    (lambda d: _edit(d, ("nodes", 1), "orig2"),
     "nodes entry 1: expected a mapping, got 'orig2'"),
    (lambda d: _edit(d, ("demands", 0), [0.0, 500.0, 0.3]),
     "demands entry 0: expected a mapping, got [0.0, 500.0, 0.3]"),
    (lambda d: _edit(d, ("tolls",), [None]),
     "tolls entry 0: expected a mapping, got None"),
    (lambda d: _edit(d, ("links",), 5), "links: expected a list, got 5"),
    # an interval may not start before the run does
    (lambda d: _edit(d, ("demands", 0, "profile"), [[-100, 500, 0.3]]),
     "demand orig1->dest: interval edge -100.0 must be >= 0"),
    # a profile or toll values of the wrong shape are named by their entry
    (lambda d: _edit(d, ("demands", 0, "profile"), ["1000"]),
     "demand orig1->dest: interval: expected a list of 3 items, got '1000'"),
    (lambda d: _edit(d, ("demands", 0, "profile"), 5),
     "demand orig1->dest: profile: expected a list, got 5"),
    (lambda d: _edit(d, ("demands", 0, "profile"), [[0, 100]]),
     "demand orig1->dest: interval: expected a list of 3 items, got [0, 100]"),
    (lambda d: _edit(d, ("tolls",), [{"link": "1", "values": "12"}]),
     "toll on link 1: values: expected a list, got '12'"),
])
def test_invalid_scenario_file_exits_1_with_one_line(tmp_path, capsys, edit,
                                                     message):
    doc = merge_scenario().to_dict()
    edit(doc)
    p = tmp_path / "bad.scn"
    p.write_text(yaml.safe_dump(doc))
    out = str(tmp_path / "o")
    assert main(["run", str(p), "--out", out]) == 1
    assert capsys.readouterr().err == f"scenario error: {message}\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("text, message", [
    ("meta: [dt: 5\n", "cannot parse"),
    ("- just\n- a list\n", "top level must be a mapping"),
    # past Python's limit on the digits of an integer's string conversion
    pytest.param("meta: {dt: " + "9" * 5000 + "}\n", "cannot parse",
                 id="5000-digit integer"),
])
def test_unreadable_scenario_file_exits_1_with_one_line(tmp_path, capsys,
                                                        text, message):
    p = tmp_path / "bad.scn"
    p.write_text(text)
    out = str(tmp_path / "o")
    assert main(["run", str(p), "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("scenario error: ") and message in err
    assert err.count("\n") == 1
    assert not os.path.exists(out)


@pytest.mark.parametrize("fixture, params, message", [
    ("merge", "u9", "parameter 'u9': unknown link '9'"),
    ("merge", "toll:3", "bad toll token 'toll:3'"),
    ("merge", "toll:3:x", "bad toll token 'toll:3:x'"),
    ("merge", "q3", "parameter 'q3': no demand profile #3"),
    ("merge", "q0", "parameter 'q0': no demand profile #0"),
    # two-route demand comes in three phases of different rates
    ("two", "q1", "parameter 'q1': profile has multiple rates; register "
     "pieces individually via the scenario file"),
    ("zero", "q2", "parameter 'q2': demand profile #2 has rate 0, so the "
     "parameter would have no effect"),
    ("merge", "q1,q1", "parameters 'q1' and 'q1' both register q1"),
])
def test_bad_parameter_token_exits_1_with_one_line(tmp_path, capsys, fixture,
                                                   params, message):
    doc = {"merge": merge_scenario, "two": two_route_scenario,
           "zero": merge_scenario}[fixture]().to_dict()
    if fixture == "zero":
        doc["demands"][1]["profile"][0][2] = 0.0
    p = tmp_path / "s.scn"
    p.write_text(yaml.safe_dump(doc))
    out = str(tmp_path / "o")
    assert main(["grad", str(p), "--params", params, "--out", out]) == 1
    assert capsys.readouterr().err == f"scenario error: {message}\n"
    assert not os.path.exists(out)


def test_trip_objective_gradient_matches_central_fd(merge_file, tmp_path):
    spec = "trip:500:orig1:dest"
    tokens = "q1,u1,u3,qmax3"
    out = str(tmp_path / "o")
    assert main(["grad", merge_file, "--params", tokens, "--objective", spec,
                 "--out", out]) == 0
    ad = {r["parameter"]: float(r["ad"])
          for r in read_csv(os.path.join(out, "gradient.csv"))}
    scn = merge_scenario()
    ps = register_parameters(scn, tokens)
    objective = build_objective(spec)
    eps = 1e-4
    for i, name in enumerate(ps.names):
        side = []
        for e in (eps, -eps):
            x = list(ps.base_values)
            x[i] += e
            side.append(evaluate(objective, scn, ps, values=x))
        assert ad[name] == pytest.approx((side[0] - side[1]) / (2 * eps),
                                         rel=1e-6, abs=1e-6)
    # the vehicle waits behind origin 1's own queue: more demand delays it
    assert ad["q1"] > 0.0 and ad["qmax3"] < 0.0
