"""The gain rule of `tools/pairs.py`, on canned benchmark results."""

import importlib.util
from pathlib import Path

import pytest


def load_pairs():
    path = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
    spec = importlib.util.spec_from_file_location("tools_pairs", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


pairs = load_pairs()


def rows_by_metric(parent, change, better):
    return {r["metric"]: r for r in pairs.summarize(parent, change, better)}


def runs(name, vals):
    return [{name: v} for v in vals]


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_nine_wins_and_a_gap_beyond_the_spread_is_a_gain():
    change = [0.85] * 9 + [1.10]  # loses the last pair
    r = rows_by_metric(runs("op", PARENT), runs("op", change),
                       {"op": "lower"})["op"]
    assert r["wins"] == 9 and r["pairs"] == 10
    assert r["parent"][1] == pytest.approx(1.0)
    assert r["change"][1] == pytest.approx(0.85)
    assert r["rel"] == pytest.approx(-0.15)
    assert r["gain"]


def test_eight_wins_is_no_gain():
    change = [0.85] * 8 + [1.10, 1.10]
    r = rows_by_metric(runs("op", PARENT), runs("op", change),
                       {"op": "lower"})["op"]
    assert r["wins"] == 8 and not r["gain"]


def test_ties_count_for_neither_side():
    change = [0.85] * 8 + PARENT[8:]  # the last two pairs tie
    r = rows_by_metric(runs("op", PARENT), runs("op", change),
                       {"op": "lower"})["op"]
    assert r["wins"] == 8 and not r["gain"]


def test_a_gap_within_the_parent_spread_is_no_gain():
    change = [p - 0.005 for p in PARENT]  # wins every pair by a hair
    r = rows_by_metric(runs("op", PARENT), runs("op", change),
                       {"op": "lower"})["op"]
    assert r["wins"] == 10
    assert r["spread"] > 0.005 and not r["gain"]


def test_higher_is_better_metrics_win_upwards():
    parent = runs("rate", [100.0, 101.0, 99.0, 100.0])
    up = rows_by_metric(parent, runs("rate", [120.0] * 4),
                        {"rate": "higher"})["rate"]
    down = rows_by_metric(parent, runs("rate", [80.0] * 4),
                          {"rate": "higher"})["rate"]
    assert up["wins"] == 4 and up["gain"]
    assert down["wins"] == 0 and not down["gain"]


def test_each_metric_gets_its_own_row():
    parent = [{"a": 1.0, "b": 5.0}] * 3
    change = [{"a": 0.5, "b": 6.0}] * 3
    rows = pairs.summarize(parent, change, {"a": "lower", "b": "lower"})
    assert [r["metric"] for r in rows] == ["a", "b"]
    assert [r["gain"] for r in rows] == [True, False]
    text = pairs.format_rows(rows)
    assert "a (lower is better)" in text and text.count("\n") == 1


def test_unpaired_runs_are_refused():
    with pytest.raises(ValueError):
        pairs.summarize(runs("op", [1.0, 2.0]), runs("op", [1.0]),
                        {"op": "lower"})
