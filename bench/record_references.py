#!/usr/bin/env python3
"""Record the reference outputs that run.py checks on the default seed.

    python3 bench/record_references.py

Runs one cycle of units of every workload on the default seed and writes
their outputs to bench/references.json.  Re-record only when a change is
meant to alter the program's outputs, and say so where the change is
described.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    dn = run.import_diffnet()
    refs = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(dn, workloads.DEFAULT_SEED)
        wl.start()
        try:
            outputs = []
            for k in range(wl.cycle):
                rec = wl.unit(k)
                if rec.failures:
                    raise SystemExit(f"{name} unit {k}: {rec.failures}")
                outputs.append(rec.outputs)
        finally:
            wl.close()
        refs[name] = outputs
        print(f"{name}: {len(outputs)} reference ops", file=sys.stderr)
    run.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
