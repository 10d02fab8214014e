"""Regenerate ``expected_compile.json``, the compile workload's reference.

Compiles every catalogue instance once, validates each placement with the
benchmark's own checker, requires every stage to close ``optimal`` and
writes the optimal area, global routes and global packets per instance::

    python3 perfbench/make_expected.py

Only rerun this when a change is *meant* to alter the optimum found (for
example a different tie-break among equal-area crossbar sets, which moves
the route stages' optima); the committed file is what later commits are
checked against.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import SRC  # noqa: E402

sys.path.insert(0, str(SRC))

import compile_workload as workload  # noqa: E402


def main() -> int:
    from repro import BatchMapper

    mapper = BatchMapper(jobs=1)
    expected = {}
    for outcome in workload.compile_draw(mapper, sorted(workload.catalogue(0))):
        figures, _, failed = workload.measure_outcome(outcome)
        if failed:
            print(f"{sorted(figures)}: a stage did not close optimal", file=sys.stderr)
            return 1
        for key, fig in figures.items():
            expected[key] = {k: fig[k] for k in ("area", "global_routes", "global_packets")}
            print(key, expected[key])
    workload.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
