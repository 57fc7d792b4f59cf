"""Behaviour lock: exact Monte-Carlo rows of the event backend.

The event engine is the reference the batch backend is compared with, so
its own rows are pinned too: the batch lock's five schedulers × three
stochastic adversaries × two ``(U, c, p)`` points × three variance modes
(90 configurations), each replayed with ``replicate_point(point, 100,
base_seed=7, backend="event")`` and exact aggregation, with every column
of its row pinned in ``tests/data/golden_mc_event.json`` (numeric columns
as ``float.hex`` strings, string columns as themselves).  A rewrite of the
event replay, the schedulers it consults or the variance designs that
moves any result by even one bit fails here.  With a different numpy
version than the recorded one the numeric check falls back to a relative
tolerance of ``1e-12`` (see ``golden.py``).

Regenerate only on purpose, and read the printed keys::

    PYTHONPATH=src python tests/test_golden_mc_event.py --update
"""

import itertools
import os
from typing import Dict, Iterator, Tuple

import golden
from repro.experiments import SweepPoint, replicate_point
from test_golden_mc_batch import ADVERSARIES, BASE_SEED, POINTS, SCHEDULERS, VARIANCES

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "data", "golden_mc_event.json")
REPLICATIONS = 100


def configurations() -> Iterator[Tuple[str, SweepPoint, str]]:
    """``(key, point, variance)`` of every locked configuration, with the
    batch lock's point indices (so its seeds)."""
    combos = itertools.product(SCHEDULERS, ADVERSARIES, POINTS)
    for index, (scheduler, adversary, (lifespan, c, p)) in enumerate(combos):
        point = SweepPoint(index=index, lifespan=lifespan, setup_cost=c,
                           max_interrupts=p, scheduler=scheduler,
                           adversary=adversary)
        for variance in VARIANCES:
            key = f"{scheduler}/{adversary}/U{lifespan}/c{c}/p{p}/{variance}"
            yield key, point, variance


def compute_rows() -> Dict[str, Dict[str, str]]:
    """``{configuration key: {column: encoded value}}`` of the current tree."""
    return {key: golden.encode_row(replicate_point(
                point, REPLICATIONS, base_seed=BASE_SEED, backend="event",
                aggregation="exact", variance=variance))
            for key, point, variance in configurations()}


def test_event_rows_match_golden():
    golden.assert_matches(GOLDEN_PATH, "rows", compute_rows())


if __name__ == "__main__":
    golden.main(GOLDEN_PATH, "rows", compute_rows, __doc__.splitlines()[0])
