"""Shared harness for the streaming Monte-Carlo memory/throughput evidence.

One canonical high-replication sweep point is measured by three consumers,
which must agree on its definition for the committed evidence to be
re-derivable:

* ``benchmarks/test_bench_mc_streaming.py`` generates the committed
  ``benchmarks/results/mc_streaming.*`` table (seconds, peak RSS and the
  deterministic work statistics per replication count and aggregation
  mode);
* ``scripts/check_mc_memory.py`` is the CI memory-flatness gate (peak RSS
  of a streaming run must stay within :data:`RSS_RATIO_FLOOR` of a run
  100x smaller);
* ``scripts/check_bench_regression.py --only mc-streaming`` re-derives the
  committed deterministic columns and enforces the committed RSS-ratio
  evidence without re-running the expensive counts.

Peak memory is the ``VmHWM`` line of ``/proc/self/status`` read by a
**fresh subprocess per measurement** (:func:`measure_subprocess`): the
high-water mark lasts the process's lifetime, so measuring two counts in
one process would let the first run's peak mask the second's.  It is not
``ru_maxrss``: Linux carries the parent's ``ru_maxrss`` into a child, so
a child of a large parent (a pytest run, say) reads the parent's peak
and every count reads the same.  ``VmHWM`` is the child's own.  No
third-party memory profiler is involved.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Dict, Optional

_HERE = os.path.abspath(__file__)
_ROOT = os.path.dirname(os.path.dirname(_HERE))
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

#: The committed evidence must show the million-replication streaming run
#: peaking within this factor of the 10^4-replication run (ISSUE/ROADMAP
#: acceptance bar; the measured ratio is ~1.1).
RSS_RATIO_FLOOR = 1.5

#: Fixed streaming chunk for all measurements.  The auto-sized chunk grows
#: with the replication count (to amortise schedule sharing), which would
#: conflate chunk-size footprint with replication-count footprint; pinning
#: one chunk size makes the RSS envelope measure exactly the claim —
#: peak memory flat in ``--replications``.
CHUNK_SIZE = 4096

#: Base seed for every measurement (results are deterministic given it).
BASE_SEED = 0

#: The canonical point: a mid-size adaptive sweep point on the vectorized
#: batch backend — the configuration million-replication production sweeps
#: actually use.
POINT_KWARGS = dict(index=1, lifespan=400.0, setup_cost=1.0,
                    max_interrupts=2, scheduler="equalizing-adaptive",
                    adversary="poisson-owner")


def canonical_point():
    from repro.experiments import SweepPoint

    return SweepPoint(**POINT_KWARGS)


def replicate_stats(count: int, aggregation: str,
                    chunk_size: Optional[int] = CHUNK_SIZE) -> Dict[str, float]:
    """Replicate the canonical point in-process; returns the aggregate row."""
    from repro.experiments import replicate_point

    return replicate_point(canonical_point(), count, base_seed=BASE_SEED,
                           backend="batch", aggregation=aggregation,
                           chunk_size=chunk_size)


def peak_rss_mib() -> float:
    """This process's own peak resident set size (``VmHWM``), in MiB."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0  # the line is in kB
    raise RuntimeError("/proc/self/status has no VmHWM line")


def measure_inprocess(count: int, aggregation: str,
                      chunk_size: Optional[int] = CHUNK_SIZE) -> Dict[str, float]:
    """One measurement in THIS process: seconds, peak RSS and work stats."""
    import time

    start = time.perf_counter()
    row = replicate_stats(count, aggregation, chunk_size)
    seconds = time.perf_counter() - start
    return {
        "aggregation": aggregation,
        "replications": int(count),
        "chunk_size": int(chunk_size) if chunk_size is not None else 0,
        "seconds": float(seconds),
        "rss_mib": peak_rss_mib(),
        "work_mean": float(row["work_mean"]),
        "work_std": float(row["work_std"]),
        "work_q50": float(row["work_q50"]),
        "quantile_method": str(row["quantile_method"]),
    }


def measure_subprocess(count: int, aggregation: str,
                       chunk_size: Optional[int] = CHUNK_SIZE,
                       timeout: float = 900.0) -> Dict[str, float]:
    """One measurement in a fresh subprocess (its own ``VmHWM``)."""
    argv = [sys.executable, _HERE, "--count", str(int(count)),
            "--aggregation", aggregation]
    if chunk_size is not None:
        argv += ["--chunk-size", str(int(chunk_size))]
    proc = subprocess.run(argv, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(
            f"measurement subprocess failed (count={count}, "
            f"aggregation={aggregation!r}):\n{proc.stderr}")
    return json.loads(proc.stdout)


def _main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="worker: measure one replication count, print JSON")
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--aggregation", default="streaming",
                        choices=["exact", "streaming", "auto"])
    parser.add_argument("--chunk-size", type=int, default=CHUNK_SIZE)
    args = parser.parse_args(argv)
    print(json.dumps(measure_inprocess(args.count, args.aggregation,
                                       args.chunk_size)))
    return 0


if __name__ == "__main__":
    sys.exit(_main())
