"""Behaviour lock: exact scenario replication rows on both backends.

Every configuration of the matrix — the eight scenario families × the
event and batch backends × three variance modes × exact and streaming
aggregation (``chunk_size=3``, so chunks end mid-replication-set) — is
replayed with ``replicate_scenario(family, 8, base_seed=7)`` and the
default scheduler, and every column of its row is pinned in
``tests/data/golden_scenario.json``: numeric columns as ``float.hex``
strings, string columns as themselves.  A rewrite of the replication
driver, the simulators, the scenario generators or the variance designs
that moves any result by even one bit fails here.  With a different numpy
version than the recorded one the numeric check falls back to a relative
tolerance of ``1e-12`` (see ``golden.py``).

Regenerate only on purpose, and read the printed keys::

    PYTHONPATH=src python tests/test_golden_scenario.py --update
"""

import itertools
import os
from typing import Dict, Iterator, Tuple

import golden
from repro.experiments import replicate_scenario
from repro.registry import SCENARIO_FAMILIES

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "data", "golden_scenario.json")
BACKENDS = ("event", "batch")
VARIANCES = ("none", "antithetic", "stratified")
#: ``(label, replicate_scenario keyword arguments)`` per aggregation path.
AGGREGATIONS = (("exact", {"aggregation": "exact"}),
                ("streaming", {"aggregation": "streaming", "chunk_size": 3}))
REPLICATIONS = 8
BASE_SEED = 7


def configurations() -> Iterator[Tuple[str, str, dict]]:
    """``(key, family name, keyword arguments)`` of every configuration."""
    combos = itertools.product(SCENARIO_FAMILIES.names(), BACKENDS,
                               VARIANCES, AGGREGATIONS)
    for family, backend, variance, (label, kwargs) in combos:
        yield (f"{family}/{backend}/{variance}/{label}", family,
               dict(kwargs, backend=backend, variance=variance))


def compute_rows() -> Dict[str, Dict[str, str]]:
    """``{configuration key: {column: encoded value}}`` of the current tree."""
    return {key: golden.encode_row(replicate_scenario(
                SCENARIO_FAMILIES[family], REPLICATIONS, base_seed=BASE_SEED,
                **kwargs))
            for key, family, kwargs in configurations()}


def test_scenario_rows_match_golden():
    golden.assert_matches(GOLDEN_PATH, "rows", compute_rows())


if __name__ == "__main__":
    golden.main(GOLDEN_PATH, "rows", compute_rows, __doc__.splitlines()[0])
