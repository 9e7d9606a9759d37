"""The verdict of `tools/fingerprint.py --compare`, on canned records."""

import importlib.util
from pathlib import Path

import pytest


def load_fingerprint():
    path = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"
    spec = importlib.util.spec_from_file_location("tools_fingerprint", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


fingerprint = load_fingerprint()

OLD = {
    "run taped": {"objective": "1.5", "grad": ["2.0"], "tape_len": 100,
                  "tape_live": 40, "tape_sha": "aa",
                  "conservation_error": "0.0",
                  "trip 5:o:d": ["7.0", ["0.0"]]},
    "cli": {"run a.scn": {"exit": 0, "summary.csv": "cc"}},
}


def changed(**edits):
    new = {name: dict(rec) for name, rec in OLD.items()}
    for field, val in edits.items():
        new["run taped"][field] = val
    return new


def test_identical_fingerprints_pass(capsys):
    assert fingerprint.compare(OLD, changed()) == 0
    assert capsys.readouterr().out.startswith("0 of 2 entries differ")


def test_dropping_dead_entries_passes_and_reports_the_tape(capsys):
    assert fingerprint.compare(OLD, changed(tape_len=90, tape_sha="bb")) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "run taped: tape_len, tape_sha (tape_len 100 -> 90, "
        "tape_live 40 -> 40)")


def test_moved_numbers_are_printed_old_to_new_with_their_relative_move(
        capsys):
    new = changed(objective="1.25", **{"trip 5:o:d": ["7.0", ["1.0"]]})
    assert fingerprint.compare(OLD, new) == 1
    assert capsys.readouterr().out.splitlines()[:3] == [
        "run taped: objective, trip 5:o:d (tape_len 100 -> 100, "
        "tape_live 40 -> 40)",
        "  objective: 1.5 -> 1.25 (-1.67e-01 rel)",
        "  trip 5:o:d grad[0]: 0.0 -> 1.0 (+1.00e+00 abs)",
    ]


def test_a_record_holds_float_gradients_and_named_state():
    import diffnet
    from diffnet.presets import merge_scenario

    rec = fingerprint.simulate(diffnet, merge_scenario(), "q1,u3",
                               trips=[(500.0, "orig1", "dest")])
    assert {"queues", "absorbed", "ttt", "conservation_error"} <= rec.keys()
    assert "state" not in rec
    for g in rec["grad"] + rec["trip 500:orig1:dest"][1]:
        assert g == repr(float(g))
    assert float(rec["conservation_error"]) <= 1e-6


@pytest.mark.parametrize("edits", [
    {"tape_live": 39, "tape_len": 90, "tape_sha": "bb"},
    {"objective": "1.25"},
    {"grad": ["2.5"]},
])
def test_a_moved_value_or_live_entry_fails(edits):
    assert fingerprint.compare(OLD, changed(**edits)) == 1


def test_a_changed_csv_or_a_missing_fixture_fails(capsys):
    new = changed()
    new["cli"] = {"run a.scn": {"exit": 0, "summary.csv": "dd"}}
    assert fingerprint.compare(OLD, new) == 1
    del new["run taped"]
    assert fingerprint.compare(OLD, new) == 1
    assert "run taped: only in OLD" in capsys.readouterr().out
