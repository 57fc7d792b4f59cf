"""Behaviour lock: exact guaranteed and optimal work on the benchmark gap grid.

The 200 points of the benchmark's gap sweep — lifespans 1000 to 16000,
``c`` in {1, 2}, ``p`` in 1..4, the five schedulers of
``specs/guideline-gap.toml`` — are pinned in
``tests/data/golden_gap_grid.json`` as ``float.hex`` strings of
``guaranteed_work`` and ``optimal_work``.  Every other equivalence test
compares two code paths of the *same* tree; this one compares against
numbers recorded before a change, so a refactor of the referee, the DP
solver or the table cache that moves any result by even one bit fails
here.  With a different numpy version than the recorded one the check
falls back to a relative tolerance of ``1e-12``.

Regenerate only on purpose, and read the printed keys::

    PYTHONPATH=src python tests/test_golden_gap_grid.py --update
"""

import argparse
import json
import math
import os
import sys
from typing import Dict

import numpy as np

from repro.experiments import SweepGrid, run_sweep

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "data", "golden_gap_grid.json")
COLUMNS = ("guaranteed_work", "optimal_work")
GRID = SweepGrid(lifespans=(1000, 2000, 4000, 8000, 16000),
                 setup_costs=(1, 2), interrupt_budgets=(1, 2, 3, 4),
                 schedulers=("equalizing-adaptive", "rosenberg-adaptive",
                             "rosenberg-nonadaptive", "fixed-period",
                             "single-period"))
RELATIVE_TOLERANCE = 1e-12


def _point_key(row) -> str:
    return (f"{row['scheduler']}/U{int(row['lifespan'])}"
            f"/c{int(row['setup_cost'])}/p{row['max_interrupts']}")


def compute_points() -> Dict[str, Dict[str, str]]:
    """``{point key: {column: float.hex}}`` of the current tree."""
    rows = run_sweep(GRID, jobs=1, include_optimal=True)
    return {_point_key(row): {column: float(row[column]).hex()
                              for column in COLUMNS}
            for row in rows}


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_gap_grid_matches_golden():
    golden = load_golden()
    current = compute_points()
    assert sorted(current) == sorted(golden["points"])
    exact = golden["numpy"] == np.__version__
    mismatches = []
    for key, expected in golden["points"].items():
        for column in COLUMNS:
            want = float.fromhex(expected[column])
            got = float.fromhex(current[key][column])
            same = (got == want if exact else
                    math.isclose(got, want, rel_tol=RELATIVE_TOLERANCE,
                                 abs_tol=0.0))
            if not same:
                mismatches.append((key, column, want, got))
    assert not mismatches, mismatches[:10]


def update() -> None:
    """Rewrite the golden file and print every key whose values changed."""
    previous = load_golden()["points"] if os.path.exists(GOLDEN_PATH) else {}
    points = compute_points()
    changed = sorted(key for key in set(points) | set(previous)
                     if points.get(key) != previous.get(key))
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump({"numpy": np.__version__, "points": points}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")
    for key in changed:
        print(key)
    print(f"{len(changed)} of {len(points)} points changed", file=sys.stderr)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="regenerate the golden file from this tree")
    if not parser.parse_args().update:
        parser.error("pass --update to regenerate the golden file "
                     "(run the check itself with pytest)")
    update()
