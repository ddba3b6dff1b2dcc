"""Record bench/reference.json: the outputs every benchmark op is checked against.

    python3 bench/record_reference.py

Runs one round of each workload (every seed covers the same cases) and
stores what the checks in workloads.py compare: the stabilization report
fields per case for stab_large, an order-independent digest plus the
pass/fail/skip summary for scan_grid, the dimensions and a digest of the
bases for hom_deep, and the dimensions for oracle_deg7.  Refuses to write
when any op raises, the scan has a failure or the oracle disagrees.
The committed file was recorded from the code the benchmark was defined on;
rerun it only to extend the benchmark, never to absorb a changed output.
"""

from __future__ import annotations

import json
import sys

from run import REFERENCE, import_program
from workloads import WORKLOADS, run_round


def main() -> int:
    wh = import_program()
    reference = {}
    for name, workload in WORKLOADS.items():
        result = run_round(wh, workload, workload.build(wh, 0))
        if result.errors:
            raise SystemExit(f"error: {name}: {result.errors[0]}")
        try:
            reference[name] = workload.reference(result.records)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}") from None
        print(f"{name}: {len(result.records)} ops in {result.wall_s:.1f}s", file=sys.stderr)
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
