#!/usr/bin/env python3
"""Performance benchmark of acsbm: seeded batch workloads with checked outputs.

Run from the repository root, for example::

    python3 benchmarks/perf.py --workload desk-strong --seed 1 --seconds 40 --trace 0

The program under test is the ``acsbm`` package in ``src/`` of the same
checkout; without it the benchmark exits with an error and prints no
result.  ``harness.py`` describes a run; ``workloads.py`` the workloads.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def load_program() -> None:
    """Import acsbm from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import acsbm
    except ImportError as exc:
        raise SystemExit(f"error: cannot import acsbm from {SRC}: {exc}")
    if Path(acsbm.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"error: acsbm was imported from {acsbm.__file__}, "
                         f"not from {SRC}")


if __name__ == "__main__":
    load_program()
    import harness
    sys.exit(harness.main())
