"""Row checks: every point of every iteration is checked, and counted.

At the default seed (:data:`workloads.DEFAULT_SEED`) each row must match
the committed expected row of ``perfbench/expected/<spec name>.json``:

* every exactly defined number — guaranteed/optimal work, gap,
  efficiency, counts, mean/std/min/max and exact quantiles — to
  :data:`REL_TOL` relative;
* a P² quantile estimate (rows with ``quantile_method == "p2"``) to
  within :data:`P2_TOL` of the column's range (max - min) around the
  committed *exact* quantile, so a better estimator needs no edit here;
* every string column exactly.

At any other seed only the seed-free columns (:data:`SEED_FREE`) are
compared, and every row must hold these invariants:

* ``{stat}_n`` equals the spec's replications;
* ``min <= q10 <= q50 <= q90 <= max`` for every statistic;
* a sweep point never sees more interrupts than its budget ``p``;
* efficiency is work divided by the lifespan ``U``;
* no replication earns less than the scheduler's guaranteed work (the
  paper's guarantee is a worst case over every interrupt pattern).
"""

from __future__ import annotations

import json
import math
import os
from typing import Any, Dict, List, Mapping, Sequence

REL_TOL = 1e-9
P2_TOL = 0.05
QUANTILES = ("q10", "q50", "q90")
#: Columns that do not depend on the seed: the grid coordinates, the exact
#: referee and DP results, and the labels.
SEED_FREE = ("lifespan", "setup_cost", "max_interrupts", "scheduler",
             "adversary", "family", "scenario", "guaranteed_work",
             "efficiency", "optimal_work", "gap", "quantile_method")
_EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected")


def expected_path(spec_name: str) -> str:
    return os.path.join(_EXPECTED_DIR, f"{spec_name}.json")


def load_expected(spec_name: str) -> Dict[str, Any]:
    with open(expected_path(spec_name), encoding="utf-8") as handle:
        return json.load(handle)


def _close(actual: float, expected: float, tol: float = REL_TOL) -> bool:
    return math.isclose(actual, expected, rel_tol=tol, abs_tol=tol)


def _statistics(row: Mapping[str, Any]) -> List[str]:
    return sorted(key[:-2] for key in row if key.endswith("_n"))


def row_errors(row: Mapping[str, Any], expected: Mapping[str, Any], *,
               replications: int, exact_columns: bool) -> List[str]:
    """Reasons ``row`` fails its check against ``expected`` (empty: passes)."""
    errors: List[str] = []
    columns = expected if exact_columns else {
        key: value for key, value in expected.items() if key in SEED_FREE}
    p2 = row.get("quantile_method") == "p2"
    for key, want in columns.items():
        if key not in row:
            errors.append(f"missing column {key}")
            continue
        got = row[key]
        if isinstance(want, str) or isinstance(got, str):
            if got != want:
                errors.append(f"{key}={got!r}, expected {want!r}")
        elif p2 and key.rsplit("_", 1)[-1] in QUANTILES:
            stat = key.rsplit("_", 1)[0]
            span = expected[f"{stat}_max"] - expected[f"{stat}_min"]
            if abs(got - want) > P2_TOL * span:
                errors.append(f"{key}={got!r} is more than {P2_TOL} of the "
                              f"range from the exact quantile {want!r}")
        elif not _close(float(got), float(want)):
            errors.append(f"{key}={got!r}, expected {want!r}")
    if exact_columns and set(row) != set(expected):
        errors.append(f"columns differ: {sorted(set(row) ^ set(expected))}")
    errors.extend(invariant_errors(row, replications))
    return errors


def invariant_errors(row: Mapping[str, Any], replications: int) -> List[str]:
    errors: List[str] = []
    for stat in _statistics(row):
        if row[f"{stat}_n"] != replications:
            errors.append(f"{stat}_n={row[f'{stat}_n']}, expected {replications}")
        chain = [row[f"{stat}_min"]] + [row[f"{stat}_{q}"] for q in QUANTILES] \
            + [row[f"{stat}_max"]]
        if chain != sorted(chain):
            errors.append(f"{stat} min/q10/q50/q90/max out of order: {chain}")
    if "max_interrupts" in row and "interrupts_max" in row \
            and row["interrupts_max"] > row["max_interrupts"]:
        errors.append(f"interrupts_max={row['interrupts_max']} exceeds the "
                      f"budget p={row['max_interrupts']}")
    lifespan = row.get("lifespan")
    if lifespan:
        pairs = [("guaranteed_work", "efficiency")]
        pairs += [(f"work_{s}", f"efficiency_{s}")
                  for s in ("mean", "min", "max") if f"work_{s}" in row]
        for work, efficiency in pairs:
            if work in row and not _close(row[efficiency], row[work] / lifespan):
                errors.append(f"{efficiency}={row[efficiency]!r} is not "
                              f"{work}/U={row[work] / lifespan!r}")
    if "guaranteed_work" in row and "work_min" in row and \
            row["work_min"] < row["guaranteed_work"] * (1 - REL_TOL):
        errors.append(f"work_min={row['work_min']!r} is below the guaranteed "
                      f"work {row['guaranteed_work']!r}")
    return errors


def check_rows(rows: Sequence[Mapping[str, Any]], expected: Mapping[str, Any],
               *, seed: int, default_seed: int) -> List[List[str]]:
    """Per expected point, the reasons it failed (a missing row fails)."""
    want_rows = expected["rows"]
    replications = expected["replications"]
    results: List[List[str]] = []
    for index, want in enumerate(want_rows):
        if index >= len(rows):
            results.append(["row missing"])
            continue
        results.append(row_errors(rows[index], want, replications=replications,
                                  exact_columns=seed == default_seed))
    return results


def canonical(rows: Sequence[Mapping[str, Any]]) -> str:
    """Byte-exact text form of stored rows (floats by ``repr``)."""
    return json.dumps(list(rows), sort_keys=True, separators=(",", ":"))
