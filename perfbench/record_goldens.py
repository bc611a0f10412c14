"""Record ``goldens.json``: fingerprint digests of every cell at GOLDEN_SEED.

    python3 perfbench/record_goldens.py

Runs each cell once through ``run_cell`` (about a minute on one core).
Re-record only when a change is meant to alter simulated results, and
say so in the change.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.experiments import run_cell

    from cells import (FARM_GOLDEN_CELLS, GOLDEN_SEED, GOLDENS_PATH, digest,
                       farm_cell, fingerprint, local_cells, sanity_errors)

    goldens = {}
    cells = {w: local_cells(w, GOLDEN_SEED)
             for w in ("terasort-rack", "bulk-hybrid")}
    cells["farm-serve"] = [farm_cell(GOLDEN_SEED, i)
                           for i in range(FARM_GOLDEN_CELLS)]
    for workload, pairs in cells.items():
        goldens[workload] = {}
        for label, config in pairs:
            fp = fingerprint(run_cell(config))
            errors = sanity_errors(fp)
            if errors:
                print(f"{workload} {label}: {errors}", file=sys.stderr)
                return 1
            goldens[workload][label] = digest(fp)
    with open(GOLDENS_PATH, "w") as fh:
        json.dump(goldens, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDENS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
