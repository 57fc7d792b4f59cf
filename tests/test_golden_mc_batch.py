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
one the numeric check falls back to a relative tolerance of ``1e-12``
(see ``golden.py``).

Regenerate only on purpose, and read the printed keys::

    PYTHONPATH=src python tests/test_golden_mc_batch.py --update
"""

import itertools
import os
from typing import Dict, Iterator, Tuple

import golden
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


def compute_rows() -> Dict[str, Dict[str, str]]:
    """``{configuration key: {column: encoded value}}`` of the current tree."""
    out = {}
    for key, point, kwargs in configurations():
        row = replicate_point(point, REPLICATIONS, base_seed=BASE_SEED,
                              backend="batch", **kwargs)
        out[key] = golden.encode_row(row)
    return out


def test_batch_rows_match_golden():
    golden.assert_matches(GOLDEN_PATH, "rows", compute_rows())


if __name__ == "__main__":
    golden.main(GOLDEN_PATH, "rows", compute_rows, __doc__.splitlines()[0])
