"""Behaviour lock: exact Monte-Carlo rows of the batch backend.

Every configuration of a small matrix — five schedulers × three stochastic
adversaries × two ``(U, c, p)`` points × three variance modes × exact and
streaming aggregation (``chunk_size=97``, so chunks end mid-stretch) — is
replayed with ``replicate_point(point, 300, base_seed=7,
backend="batch")``, and every column of its row is pinned in
``tests/data/golden_mc_batch.json``: numeric columns as ``float.hex``
strings, string columns as themselves.  A rewrite of the batch replay, the
streaming accumulators or the variance designs that moves any result by
even one bit fails here.  With a different numpy version than the recorded
one the numeric check falls back to a relative tolerance of ``1e-12``.

Regenerate only on purpose, and read the printed keys::

    PYTHONPATH=src python tests/test_golden_mc_batch.py --update
"""

import argparse
import itertools
import json
import math
import os
import sys
from typing import Dict, Iterator, Tuple

import numpy as np

from repro.experiments import SweepPoint, replicate_point

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "data", "golden_mc_batch.json")
SCHEDULERS = ("equalizing-adaptive", "rosenberg-adaptive",
              "rosenberg-nonadaptive", "fixed-period", "single-period")
ADVERSARIES = ("poisson-owner", "uniform-owner", "random-period")
POINTS = ((400, 1, 2), (1000, 2, 3))
VARIANCES = ("none", "antithetic", "stratified")
#: ``(label, replicate_point keyword arguments)`` per aggregation path.
AGGREGATIONS = (("exact", {"aggregation": "exact"}),
                ("streaming", {"aggregation": "streaming", "chunk_size": 97}))
REPLICATIONS = 300
BASE_SEED = 7
RELATIVE_TOLERANCE = 1e-12


def configurations() -> Iterator[Tuple[str, SweepPoint, dict]]:
    """``(key, point, keyword arguments)`` of every locked configuration.

    A point's index (and so its seeds) depends only on its scheduler,
    adversary and ``(U, c, p)``, not on the variance or aggregation mode.
    """
    combos = itertools.product(SCHEDULERS, ADVERSARIES, POINTS)
    for index, (scheduler, adversary, (lifespan, c, p)) in enumerate(combos):
        point = SweepPoint(index=index, lifespan=lifespan, setup_cost=c,
                           max_interrupts=p, scheduler=scheduler,
                           adversary=adversary)
        for variance in VARIANCES:
            for label, kwargs in AGGREGATIONS:
                key = (f"{scheduler}/{adversary}/U{lifespan}/c{c}/p{p}"
                       f"/{variance}/{label}")
                yield key, point, dict(kwargs, variance=variance)


def _encode(value) -> str:
    return value if isinstance(value, str) else float(value).hex()


def compute_rows() -> Dict[str, Dict[str, str]]:
    """``{configuration key: {column: encoded value}}`` of the current tree."""
    out = {}
    for key, point, kwargs in configurations():
        row = replicate_point(point, REPLICATIONS, base_seed=BASE_SEED,
                              backend="batch", **kwargs)
        out[key] = {column: _encode(value) for column, value in row.items()}
    return out


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
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


def test_batch_rows_match_golden():
    golden = load_golden()
    current = compute_rows()
    assert sorted(current) == sorted(golden["rows"])
    exact = golden["numpy"] == np.__version__
    mismatches = []
    for key, expected in golden["rows"].items():
        assert sorted(current[key]) == sorted(expected), key
        for column, value in expected.items():
            if not _same(value, current[key][column], exact):
                mismatches.append((key, column, value, current[key][column]))
    assert not mismatches, mismatches[:10]


def update() -> None:
    """Rewrite the golden file and print every key whose row changed."""
    previous = load_golden()["rows"] if os.path.exists(GOLDEN_PATH) else {}
    rows = compute_rows()
    changed = sorted(key for key in set(rows) | set(previous)
                     if rows.get(key) != previous.get(key))
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump({"numpy": np.__version__, "rows": rows}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")
    for key in changed:
        print(key)
    print(f"{len(changed)} of {len(rows)} configurations changed",
          file=sys.stderr)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="regenerate the golden file from this tree")
    if not parser.parse_args().update:
        parser.error("pass --update to regenerate the golden file "
                     "(run the check itself with pytest)")
    update()
