"""Negative control for ``scripts/check_bench_regression.py``.

The guard re-derives the committed optimality-gap table through the
referee and the DP solver; a gate that cannot fail shows nothing, so
these run it on a copy of ``benchmarks/results`` that is untouched, that
holds one drifted value, and that has lost the table.
"""

import csv
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "check_bench_regression.py")


def _check(results_dir):
    return subprocess.run(
        [sys.executable, SCRIPT, "--only", "optimality-gap",
         "--results-dir", str(results_dir)],
        capture_output=True, text=True, timeout=120)


def _copy(tmp_path):
    copy = tmp_path / "results"
    shutil.copytree(os.path.join(ROOT, "benchmarks", "results"), copy)
    return copy


def test_committed_table_passes(tmp_path):
    result = _check(_copy(tmp_path))
    assert result.returncode == 0, result.stderr


def test_drifted_value_fails_and_names_its_row(tmp_path):
    copy = _copy(tmp_path)
    path = copy / "optimality_gap.csv"
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    fields = list(rows[0])
    (row,) = [r for r in rows if r["scheduler"] == "equalizing-adaptive"
              and float(r["lifespan"]) == 1000 and int(r["max_interrupts"]) == 1]
    row["guaranteed_work"] = repr(float(row["guaranteed_work"]) * (1 + 1e-6))
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    result = _check(copy)
    assert result.returncode == 1, result.stderr
    assert ("equalizing-adaptive U=1000 p=1: guaranteed_work drifted 1.000e-06"
            in result.stderr), result.stderr


def test_missing_table_is_a_missing_baseline(tmp_path):
    copy = _copy(tmp_path)
    os.remove(copy / "optimality_gap.csv")
    result = _check(copy)
    assert result.returncode == 2, result.stderr
