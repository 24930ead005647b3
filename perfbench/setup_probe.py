"""Set-up probe: build and boot one workload in a fresh process, then stop.

``python3 perfbench/setup_probe.py <workload> <seed>`` imports the program,
builds the seeded scenario and runs :func:`repro.scenarios.run_scenario`
until the engine's ``run_until`` is entered; it prints
``time.monotonic()`` at that instant and exits.  The caller subtracts the
monotonic time at which it started the process.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import WORKLOADS  # noqa: E402
from repro.scenarios import run_scenario  # noqa: E402
from repro.simnet.engine import SimEngine  # noqa: E402


class SetUpDone(Exception):
    """Raised at ``run_until`` entry; carries the monotonic timestamp."""


class StopAtRun(SimEngine):
    def run_until(self, deadline):
        raise SetUpDone(time.monotonic())


def main(argv) -> int:
    workload, seed = argv[1], int(argv[2])
    try:
        run_scenario(WORKLOADS[workload](seed), seed=seed,
                     engine_factory=StopAtRun)
    except SetUpDone as done:
        print(repr(done.args[0]))
        return 0
    print("run_until was never entered", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
