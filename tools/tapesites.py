"""Tape entries and live entries per recording site, for one fixture.

    python tools/tapesites.py "toll grid toll-J zero tolls taped"
    python tools/tapesites.py "grid n=4 2 dests taped" --by function
    python tools/tapesites.py "merge taped" --root /path/to/old/checkout

Runs the named taped fixture of `tools/fingerprint.py` on a tape that tags
each entry with its recording site, the first stack frame outside `adcore`
(file, function and line), then sweeps the fixture's objective.  It prints,
per site, the entries and the live entries (nonzero adjoint in that sweep),
most entries first.  The totals are the fixture's `tape_len` and
`tape_live`.  `--by function` merges the lines of each function, so that
two checkouts whose line numbers differ can be compared site by site.

`--root` names the checkout whose `src/diffnet` is imported (default: the
checkout holding this script); the fixtures come from this checkout.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]


def site_counts(dn, fp, name: str, by: str = "line"):
    """(rows, record) for fixture `name`: rows of (site, entries, live),
    most entries first, and the fixture's fingerprint record."""
    engine = importlib.import_module("diffnet.engine")
    adcore_file = engine.Tape.__init__.__code__.co_filename
    keys: dict[tuple, int] = {}

    class SiteTape(engine.Tape):
        """A tape that keeps, per entry, the number of its site."""

        def __init__(self):
            super().__init__()
            self.sites: list[int] = []

        def _rec(self, val, p1, d1, p2, d2):
            f = sys._getframe(1)
            while f.f_code.co_filename == adcore_file:
                f = f.f_back
            code = f.f_code
            key = (Path(code.co_filename).name, code.co_name,
                   f.f_lineno if by == "line" else 0)
            self.sites.append(keys.setdefault(key, len(keys)))
            return super()._rec(val, p1, d1, p2, d2)

    thunks = dict(fp.fixtures(dn))
    if name not in thunks:
        raise SystemExit(f"no fixture named {name!r}; one of:\n  "
                         + "\n  ".join(thunks))
    runs = []
    run_record, tape_cls = fp.run_record, engine.Tape

    def capture(dn_, res, J, inputs, trips=()):
        runs.append((res.tape, J))
        return run_record(dn_, res, J, inputs, trips)

    fp.run_record, engine.Tape = capture, SiteTape
    try:
        rec = thunks[name]()
    finally:
        fp.run_record, engine.Tape = run_record, tape_cls
    tape, J = runs[0]
    if not isinstance(tape, SiteTape):
        raise SystemExit(f"fixture {name!r} is a float run: it has no tape")

    entries = [0] * len(keys)
    live = [0] * len(keys)
    for k, a in zip(tape.sites, tape.backward(J)):
        entries[k] += 1
        live[k] += a != 0.0
    rows = []
    for (file, func, line), k in keys.items():
        site = f"{file}:{func}" + (f":{line}" if by == "line" else "")
        rows.append((site, entries[k], live[k]))
    rows.sort(key=lambda r: (-r[1], r[0]))
    return rows, rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("fixture", help="a taped fixture of tools/fingerprint.py")
    ap.add_argument("--by", choices=("line", "function"), default="line",
                    help="tag entries by recording line or by function")
    ap.add_argument("--root", default=str(HERE),
                    help="checkout whose src/diffnet is imported")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(args.root).resolve() / "src"))
    sys.path.insert(0, str(HERE / "tools"))
    dn = importlib.import_module("diffnet")
    fp = importlib.import_module("fingerprint")

    rows, rec = site_counts(dn, fp, args.fixture, args.by)
    print(f"{'entries':>9} {'live':>9}  site")
    for site, n, lv in rows:
        print(f"{n:>9} {lv:>9}  {site}")
    print(f"{sum(r[1] for r in rows):>9} {sum(r[2] for r in rows):>9}  total "
          f"(tape_len {rec['tape_len']}, tape_live {rec['tape_live']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
