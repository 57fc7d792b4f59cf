"""Shared machinery of the behaviour locks (``tests/test_golden_*.py``).

A golden file is JSON: ``{"numpy": <version>, <section>: {key: {column:
value}}}``.  Numeric values are stored as ``float.hex`` strings, so a
result that moves by one bit shows; string values are stored as
themselves.  Under the recorded numpy version the check is exact; under
another version numeric values fall back to a relative tolerance of
:data:`RELATIVE_TOLERANCE`, since numpy may change its summation order.

A lock module calls :func:`assert_matches` from its test and
:func:`main` under ``if __name__ == "__main__"``, so that::

    PYTHONPATH=src python tests/test_golden_<name>.py --update

rewrites the file and prints every key whose values changed.
"""

import argparse
import json
import math
import os
import sys
from typing import Any, Callable, Dict, List, Mapping

import numpy as np

RELATIVE_TOLERANCE = 1e-12

#: ``{key: {column: encoded value}}``.
Entries = Dict[str, Dict[str, str]]


def encode(value: Any) -> str:
    """A string stays itself; anything else becomes ``float(value).hex()``."""
    return value if isinstance(value, str) else float(value).hex()


def encode_row(row: Mapping[str, Any]) -> Dict[str, str]:
    """Every column of ``row``, encoded."""
    return {column: encode(value) for column, value in row.items()}


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _same(expected: str, got: str, exact: bool) -> bool:
    if expected == got:
        return True
    try:
        want, have = float.fromhex(expected), float.fromhex(got)
    except (TypeError, ValueError):
        return False  # a string column differs
    return not exact and math.isclose(have, want, rel_tol=RELATIVE_TOLERANCE,
                                      abs_tol=0.0)


def assert_matches(path: str, section: str, current: Entries) -> None:
    """Assert that ``current`` has the golden file's keys, columns and values."""
    golden = load(path)
    assert sorted(current) == sorted(golden[section])
    exact = golden["numpy"] == np.__version__
    mismatches = []
    for key, expected in golden[section].items():
        assert sorted(current[key]) == sorted(expected), key
        for column, value in expected.items():
            if not _same(value, current[key][column], exact):
                mismatches.append((key, column, value, current[key][column]))
    assert not mismatches, mismatches[:10]


def update(path: str, section: str, current: Entries) -> List[str]:
    """Rewrite the golden file from ``current``; print and return the changed keys."""
    previous = load(path)[section] if os.path.exists(path) else {}
    changed = sorted(key for key in set(current) | set(previous)
                     if current.get(key) != previous.get(key))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"numpy": np.__version__, section: current}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")
    for key in changed:
        print(key)
    print(f"{len(changed)} of {len(current)} {section} changed",
          file=sys.stderr)
    return changed


def main(path: str, section: str, compute: Callable[[], Entries],
         description: str) -> None:
    """The ``--update`` command line of a lock module."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--update", action="store_true",
                        help="regenerate the golden file from this tree")
    if not parser.parse_args().update:
        parser.error("pass --update to regenerate the golden file "
                     "(run the check itself with pytest)")
    update(path, section, compute())
