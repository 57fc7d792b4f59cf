"""The benchmark's workloads: a spec generator and a ``--jobs`` setting each.

Every workload is one experiment spec, generated from the benchmark seed,
run the way a default user's ``repro run`` + ``repro report`` would run it.
The program under test only ever sees the generated spec file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict

#: Seed at which ``perfbench/expected/<workload>.json`` was recorded.
DEFAULT_SEED = 0

# The five schedulers of specs/guideline-gap.toml, copied so that an edit
# to the committed spec cannot silently change the benchmark's input.
GUIDELINE_SCHEDULERS = ["equalizing-adaptive", "rosenberg-adaptive",
                        "rosenberg-nonadaptive", "fixed-period",
                        "single-period"]


def gap_sweep_spec(seed: int) -> Dict[str, Any]:
    """200 analytic points: exact guaranteed work against the DP optimum."""
    return {
        "experiment": {"name": "bench-gap-sweep", "kind": "sweep",
                       "seed": seed, "replications": 0},
        "sweep": {"lifespans": [1000, 2000, 4000, 8000, 16000],
                  "setup_costs": [1, 2], "interrupts": [1, 2, 3, 4],
                  "schedulers": GUIDELINE_SCHEDULERS, "optimal": True},
    }


def mc_stream_spec(seed: int) -> Dict[str, Any]:
    """Two streaming Monte-Carlo points on the batch backend."""
    return {
        "experiment": {"name": "bench-mc-stream", "kind": "sweep",
                       "seed": seed, "replications": MC_STREAM_REPLICATIONS,
                       "backend": "batch", "aggregation": "streaming"},
        "sweep": {"lifespans": [400], "setup_costs": [1], "interrupts": [2],
                  "schedulers": ["equalizing-adaptive",
                                 "rosenberg-nonadaptive"],
                  "adversaries": ["poisson-owner"], "optimal": True},
    }


def scenario_diurnal_spec(seed: int) -> Dict[str, Any]:
    """specs/diurnal.toml at 150 replications (``auto`` resolves to exact)."""
    return {
        "experiment": {"name": "bench-scenario-diurnal", "kind": "scenario",
                       "seed": seed, "replications": 150,
                       "backend": "batch"},
        "scenario": {"family": "diurnal",
                     "schedulers": ["equalizing-adaptive",
                                    "rosenberg-adaptive", "fixed-period"]},
    }


#: Replications per mc-stream point.
MC_STREAM_REPLICATIONS = 10_000


@dataclass(frozen=True)
class Workload:
    name: str
    spec: Callable[[int], Dict[str, Any]]
    jobs: int


#: Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("gap-sweep", gap_sweep_spec, 1),
    Workload("gap-sweep-jobs2", gap_sweep_spec, 2),
    Workload("mc-stream", mc_stream_spec, 1),
    Workload("scenario-diurnal", scenario_diurnal_spec, 1),
)}
