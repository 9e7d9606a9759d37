"""`tools/tapesites.py`: every tape entry is counted at one site."""

import importlib.util
from pathlib import Path

import diffnet

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(f"tools_{name}",
                                                  TOOLS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_site_counts_sum_to_the_tape_and_its_live_entries_on_merge():
    fp, tapesites = load("fingerprint"), load("tapesites")
    for by in ("line", "function"):
        rows, rec = tapesites.site_counts(diffnet, fp, "merge taped", by)
        assert sum(n for _, n, _ in rows) == rec["tape_len"] > 0
        assert sum(lv for _, _, lv in rows) == rec["tape_live"] > 0
        # every site lies outside the tape core
        assert not any(site.startswith("adcore.py:") for site, _, _ in rows)
    assert any(site.startswith("nodemodel.py:inm_fixed") for site, _, _ in rows)
