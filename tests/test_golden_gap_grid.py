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
falls back to a relative tolerance of ``1e-12`` (see ``golden.py``).

Regenerate only on purpose, and read the printed keys::

    PYTHONPATH=src python tests/test_golden_gap_grid.py --update
"""

import os
from typing import Dict

import golden
from repro.experiments import SweepGrid, run_sweep

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "data", "golden_gap_grid.json")
COLUMNS = ("guaranteed_work", "optimal_work")
GRID = SweepGrid(lifespans=(1000, 2000, 4000, 8000, 16000),
                 setup_costs=(1, 2), interrupt_budgets=(1, 2, 3, 4),
                 schedulers=("equalizing-adaptive", "rosenberg-adaptive",
                             "rosenberg-nonadaptive", "fixed-period",
                             "single-period"))


def _point_key(row) -> str:
    return (f"{row['scheduler']}/U{int(row['lifespan'])}"
            f"/c{int(row['setup_cost'])}/p{row['max_interrupts']}")


def compute_points() -> Dict[str, Dict[str, str]]:
    """``{point key: {column: float.hex}}`` of the current tree."""
    rows = run_sweep(GRID, jobs=1, include_optimal=True)
    return {_point_key(row): {column: golden.encode(row[column])
                              for column in COLUMNS}
            for row in rows}


def test_gap_grid_matches_golden():
    golden.assert_matches(GOLDEN_PATH, "points", compute_points())


if __name__ == "__main__":
    golden.main(GOLDEN_PATH, "points", compute_points,
                __doc__.splitlines()[0])
