"""End-to-end CLI tests on the merge fixture."""

import csv
import os

import pytest

from diffnet.cli import main
from diffnet.presets import (
    bottleneck_scenario,
    merge_scenario,
    toll_grid_scenario,
)


@pytest.fixture(scope="module")
def merge_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("scn") / "merge.scn"
    merge_scenario().save(p)
    return str(p)


def read_csv(path):
    with open(path) as f:
        assert f.readline().startswith("# diffnet ")
        return list(csv.DictReader(f))


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


def test_malformed_trip_spec_is_scenario_error(merge_file, tmp_path):
    assert main(["trace", merge_file, "--trip", "300:orig2", "--out",
                 str(tmp_path)]) == 1


def test_unknown_objective_is_scenario_error(merge_file, tmp_path):
    assert main(["run", merge_file, "--objective", "bogus", "--out",
                 str(tmp_path)]) == 1


def test_mu_override(merge_file, tmp_path, capsys):
    out = str(tmp_path / "o")
    assert main(["run", merge_file, "--mu", "0.05", "--out", out]) == 0
    assert "ttt=" in capsys.readouterr().out
