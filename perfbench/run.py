"""Entry point of the repository benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload churn_flat --seed 1 --seconds 30 --trace 0

The program under test is imported from this checkout's ``src/`` and from
nowhere else; without it the command exits with status 2 and prints no
result.  Everything else lives in :mod:`perfbench.bench`.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    sys.path[:0] = [str(SRC), str(ROOT)]
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    location = Path(repro.__file__).resolve()
    if SRC.resolve() not in location.parents:
        print(f"perfbench: repro was imported from {location}, not from "
              f"{SRC}", file=sys.stderr)
        return 2
    from perfbench.bench import main as bench_main
    return bench_main()


if __name__ == "__main__":
    sys.exit(main())
