"""Negative controls: each of the benchmark's own checks must trip when it should.

    python3 perfbench/controls.py

1. Row check: a 1e-8 relative perturbation of one committed expected
   value makes exactly that point fail, while the untouched rows pass.
2. Memory: an iteration holding an extra 100 MiB reads at least 99 MiB
   more ``peak_rss_mib`` than one that does not (the baseline's own peak
   moves by a few tenths of a MiB from run to run).
3. Tracing: a busy wait added inside ``DPTableCache.solve`` shows up in
   ``dp.solve_s`` (at least 80% of the added time) and not in any other
   layer's self time (each moves by less than 25% of it, which bounds the
   run-to-run noise of the other layers on a shared machine).

Exits 0 when every control behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import sys

from rowcheck import check_rows
from run import Bench
from tracing import SELF_TIME_METRICS
from workloads import DEFAULT_SEED

BALLAST_MIB = 100
#: Busy wait per DPTableCache.solve call; gap-sweep makes 200 of them.
SLOW_DP_S = 0.02


def control_row_check() -> bool:
    bench = Bench("mc-stream", DEFAULT_SEED, 0)
    try:
        rows = bench.iteration(1)["rows"]
    finally:
        bench.close()
    clean = check_rows(rows, bench.expected, seed=DEFAULT_SEED,
                       default_seed=DEFAULT_SEED)
    perturbed = copy.deepcopy(bench.expected)
    perturbed["rows"][0]["work_mean"] *= 1 + 1e-8
    dirty = check_rows(rows, perturbed, seed=DEFAULT_SEED,
                       default_seed=DEFAULT_SEED)
    ok = not any(clean) and bool(dirty[0]) and not any(dirty[1:])
    print(f"row check: clean rows fail {sum(map(bool, clean))} points, "
          f"perturbed work_mean fails {sum(map(bool, dirty))} "
          f"({dirty[0][:1]}) -> {'ok' if ok else 'FAILED'}")
    return ok


def control_memory() -> bool:
    bench = Bench("mc-stream", DEFAULT_SEED, 0)
    try:
        plain = bench.iteration(1)["peak_rss_mib"]
        heavy = bench.spawn("--ballast-mib", str(BALLAST_MIB))["peak_rss_mib"]
    finally:
        bench.close()
    ok = heavy - plain >= 0.99 * BALLAST_MIB
    print(f"memory: peak_rss_mib {plain:.1f} -> {heavy:.1f} MiB with "
          f"{BALLAST_MIB} MiB extra -> {'ok' if ok else 'FAILED'}")
    return ok


def control_slow_dp() -> bool:
    bench = Bench("gap-sweep", DEFAULT_SEED, 0)
    try:
        plain = bench.iteration(1, trace="controls/plain")["trace"]["metrics"]
        slow = bench.spawn("--jobs", "1", "--slow-dp", str(SLOW_DP_S),
                           "--trace-out", bench.tmp + "/slow.npz",
                           "--trace-label", "controls/slow")["trace"]["metrics"]
    finally:
        bench.close()
    added = SLOW_DP_S * slow["dp.lookups"]
    deltas = {name: slow[name] - plain[name] for name in SELF_TIME_METRICS}
    others = {name: delta for name, delta in deltas.items()
              if name != "dp.solve_s"}
    worst = max(others, key=lambda name: abs(others[name]))
    ok = deltas["dp.solve_s"] >= 0.8 * added and \
        abs(others[worst]) < 0.25 * added
    print(f"slow DP: added {added:.2f}s; dp.solve_s moved "
          f"{deltas['dp.solve_s']:+.3f}s, largest other move {worst} "
          f"{others[worst]:+.3f}s -> {'ok' if ok else 'FAILED'}")
    return ok


def main() -> int:
    results = [control_row_check(), control_memory(), control_slow_dp()]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
