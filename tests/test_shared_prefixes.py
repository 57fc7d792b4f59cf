"""The guideline schedulers' process-wide backward prefixes.

Guideline schedulers built with the default oracle share one backward
prefix per ``(class, tail_epsilon, max_periods, p, c)`` across instances
(the gap sweep builds a scheduler per point).  A prefix one batch
extended must serve a later instance exactly as a fresh process would,
an instance with its own oracle must never see a shared prefix, and the
cache takes no lock: threads may extend it at once, and a process forked
while another thread is mid-extension must still work.
"""

import hashlib
import multiprocessing
import os
import subprocess
import sys
import threading
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.schedules import (
    EqualizingAdaptiveScheduler,
    RosenbergAdaptiveScheduler,
    adaptive,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
RESIDUALS = np.linspace(2.5, 900.0, 97).tolist()
CASES = [(EqualizingAdaptiveScheduler, 3, 1.0), (RosenbergAdaptiveScheduler, 3, 1.0),
         (EqualizingAdaptiveScheduler, 2, 2.0)]


@pytest.fixture
def fresh_cache(monkeypatch):
    monkeypatch.setattr(adaptive, "_SHARED_PREFIXES", {})


def _batch_rows(make, residuals, p, c):
    return [s.periods.tobytes() for s in make().episode_schedule_batch(
        residuals, p, c)]


def _scalar_rows(scheduler, residuals, p, c):
    return [scheduler.episode_schedule(r, p, c).periods.tobytes()
            for r in residuals]


def _digest(rows):
    return hashlib.sha256(b"".join(rows)).hexdigest()


def _wavy_oracle(residual, q, c):
    if residual <= (q + 1) * c:
        return 0.0
    return (residual - (q + 1) * c) * (1.0 + 0.2 * np.sin(residual / (3 * c)))


_FRESH = """
import hashlib, sys
import numpy as np
from repro.schedules import EqualizingAdaptiveScheduler, RosenbergAdaptiveScheduler
residuals = np.linspace(2.5, 900.0, 97).tolist()
for make, p, c in [(EqualizingAdaptiveScheduler, 3, 1.0),
                   (RosenbergAdaptiveScheduler, 3, 1.0),
                   (EqualizingAdaptiveScheduler, 2, 2.0)]:
    rows = [s.periods.tobytes()
            for s in make().episode_schedule_batch(residuals, p, c)]
    print(hashlib.sha256(b"".join(rows)).hexdigest())
"""


def test_a_later_instance_builds_what_a_fresh_process_builds(fresh_cache):
    # Another instance first stretches every shared prefix far past these
    # residuals, through batches of several sizes.
    for make, p, c in CASES:
        for limit in (50.0, 20_000.0, 60_000.0):
            make().episode_schedule_batch([limit, 3.0], p, c)
    here = [_digest(_batch_rows(make, RESIDUALS, p, c)) for make, p, c in CASES]
    fresh = subprocess.run([sys.executable, "-c", _FRESH], check=True,
                           capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=SRC)).stdout.split()
    assert here == fresh
    for (make, p, c), digest in zip(CASES, here):
        assert digest == _digest(_scalar_rows(make(), RESIDUALS, p, c))


def test_instances_share_one_prefix(fresh_cache):
    first = EqualizingAdaptiveScheduler()
    first.episode_schedule_batch(RESIDUALS, 3, 1.0)
    state = first._ensure_prefix(3, 1.0, 900.0)
    assert EqualizingAdaptiveScheduler()._ensure_prefix(3, 1.0, 900.0) is state
    # Extending publishes a copy; the prefix already handed out stays whole.
    body = list(state.body_t)
    longer = EqualizingAdaptiveScheduler()._ensure_prefix(3, 1.0, 5000.0)
    assert longer is not state and state.body_t == body
    assert longer.body_t[:len(body)] == body


@pytest.mark.parametrize("other", [
    lambda: EqualizingAdaptiveScheduler(oracle=_wavy_oracle),
    lambda: EqualizingAdaptiveScheduler(oracle=adaptive._closed_form_oracle.__call__),
    lambda: EqualizingAdaptiveScheduler(tail_epsilon=0.25),
    lambda: EqualizingAdaptiveScheduler(max_periods=40),
    lambda: RosenbergAdaptiveScheduler(),
])
def test_a_different_construction_never_shares(fresh_cache, other):
    EqualizingAdaptiveScheduler().episode_schedule_batch([5000.0], 3, 1.0)
    shared = list(adaptive._SHARED_PREFIXES.values())
    scheduler = other()
    assert _batch_rows(lambda: scheduler, RESIDUALS, 3, 1.0) == _scalar_rows(
        scheduler, RESIDUALS, 3, 1.0)
    state = scheduler._ensure_prefix(3, 1.0, 900.0)
    assert all(state is not prefix for prefix in shared)


def test_own_oracle_prefixes_stay_with_their_instance(fresh_cache):
    first = EqualizingAdaptiveScheduler(oracle=_wavy_oracle)
    second = EqualizingAdaptiveScheduler(oracle=_wavy_oracle)
    first.episode_schedule_batch(RESIDUALS, 2, 1.0)
    second.episode_schedule_batch(RESIDUALS, 2, 1.0)
    assert not adaptive._SHARED_PREFIXES
    assert (first._ensure_prefix(2, 1.0, 900.0)
            is not second._ensure_prefix(2, 1.0, 900.0))


def test_least_recently_used_prefixes_are_dropped(fresh_cache, monkeypatch):
    monkeypatch.setattr(adaptive, "_SHARED_PREFIX_LIMIT", 3)
    scheduler = RosenbergAdaptiveScheduler()
    for p in (1, 2, 3, 4):
        scheduler.episode_schedule_batch([100.0], p, 1.0)
    scheduler.episode_schedule_batch([100.0], 2, 1.0)  # used again
    scheduler.episode_schedule_batch([100.0], 5, 1.0)
    assert [key[3] for key in adaptive._SHARED_PREFIXES] == [4, 2, 5]


def test_threads_extend_the_shared_prefixes_safely(fresh_cache):
    built = []

    def request(seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            residuals = rng.uniform(2.5, rng.uniform(10.0, 4000.0), 20).tolist()
            for make in (EqualizingAdaptiveScheduler, RosenbergAdaptiveScheduler):
                built.append((make, residuals,
                              _batch_rows(make, residuals, 3, 1.0)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=request, args=(seed,))
                   for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(built) == 4 * 20 * 2
    for make, residuals, rows in built:
        assert rows == _scalar_rows(make(), residuals, 3, 1.0)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_fork_while_another_thread_extends(fresh_cache, monkeypatch):
    # A lock held by the extending thread would be held forever in the
    # forked worker: the worker's batch would never return.
    entered, release = threading.Event(), threading.Event()
    extend = RosenbergAdaptiveScheduler._extend_body

    def held(self, state, p, c):
        if threading.current_thread() is holder and not release.is_set():
            entered.set()
            release.wait(60)
        extend(self, state, p, c)

    monkeypatch.setattr(RosenbergAdaptiveScheduler, "_extend_body", held)
    holder = threading.Thread(target=_batch_rows, args=(
        RosenbergAdaptiveScheduler, [5000.0], 3, 1.0))
    holder.start()
    try:
        assert entered.wait(60)
        pool = ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork"))
        try:
            rows = pool.submit(_batch_rows, RosenbergAdaptiveScheduler,
                               RESIDUALS, 3, 1.0).result(timeout=60)
        finally:
            for process in list(getattr(pool, "_processes", {}).values()):
                process.kill()  # a hung worker must not hang the suite
            pool.shutdown(wait=False, cancel_futures=True)
    finally:
        release.set()
        holder.join(timeout=60)
    assert not holder.is_alive()
    assert rows == _scalar_rows(RosenbergAdaptiveScheduler(), RESIDUALS, 3, 1.0)
