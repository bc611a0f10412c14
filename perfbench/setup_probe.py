"""One workload set-up, timed by the parent from process launch.

    python3 perfbench/setup_probe.py <workload> <seed>

Does what a run does before its first timed operation (imports, config
building, and for farm-serve starting ``repro serve`` until ``ping``
answers), prints ``ready`` and the times of two speed-reference loops
run just before and just after the set-up, then cleans up. ``run.py``
launches it several times, takes the loops' time out of each and scales
it by them, and reports the median as ``setup_s``.
"""

import os
import sys

from speedref import reference_s


def _ready(before: float) -> None:
    print(f"ready {before!r} {reference_s()!r}", flush=True)


def main() -> int:
    before = reference_s()
    workload, seed = sys.argv[1], int(sys.argv[2])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    if workload != "farm-serve":
        from repro.experiments import run_cell  # noqa: F401 - part of set-up
        from repro.experiments.cache import ResultCache  # noqa: F401

        from cells import local_cells

        local_cells(workload, seed)
        _ready(before)
        return 0

    from repro.farm.client import FarmClient

    from cells import farm_job
    from farmrun import WORKERS, Farm

    for client in (0, 1):
        farm_job(seed, 0, client)
    farm = Farm(root, WORKERS)
    client = FarmClient(farm.socket, client="setup")
    try:
        farm.wait_ready(client)
    except BaseException:
        farm.kill()
        raise
    _ready(before)
    problems = farm.close(client)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
