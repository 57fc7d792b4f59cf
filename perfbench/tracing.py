"""Span recorder the traced benchmark run installs around the program's layers.

Nothing under ``src/`` is changed: :func:`install` replaces each wrapped
public name (a module attribute, or a method on a class) with a timing
wrapper.  Each call records one span — name, start, end, parent span and
the point being evaluated — in typed arrays, so the tens of thousands of
adversary calls of ``mc-stream`` cost a few bytes each.  Spans stay in
memory and are written once, by :meth:`Tracer.write`, when the run ends.

A layer's self time is its spans' durations minus the time their child
spans cover.  Every span opened inside the run window is a descendant of
``orchestrator.run`` (``run_spec``) or ``reporting.render``
(``refresh_run_report``), so the self times of all buckets plus the time no
span covers add up to the run's wall time (checked by :func:`reconciles`).

Schedule constructions made by the referee are part of the referee's
work: while a ``game.referee`` span is open, schedule calls pass through
untraced, so ``schedules.*`` measures the Monte-Carlo replay's schedule
builds only.
"""

from __future__ import annotations

import functools
import importlib
import os
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: Span names, one per bucket a metric reads.  The id of a name is its index.
NAMES = (
    "specs.load", "specs.expand",
    "game.referee",
    "dp.lookup", "dp.solve",
    "schedules.build",
    "adversary.make", "adversary.choose", "variance.seed",
    "montecarlo.replicate",
    "streaming.stream", "streaming.exact",
    "workloads.tasks", "workloads.traces",
    "simulator.batch",
    "runstore.write", "runstore.scan", "runstore.consolidate",
    "reporting.render",
    "orchestrator.run", "orchestrator.point", "orchestrator.publish",
)
_ID = {name: i for i, name in enumerate(NAMES)}


class Tracer:
    """Spans and counters of one traced run (one process)."""

    def __init__(self) -> None:
        self.ids = array("q")
        self.parents = array("q")
        self.names = array("b")
        self.points = array("l")
        self.starts = array("d")
        self.ends = array("d")
        #: open spans: [span id, start, time covered by children]
        self.stack: List[list] = []
        self.next_id = 0
        self.point = -1
        #: >0 while schedule spans must not be opened (inside the referee,
        #: or a schedule call nested in another schedule call)
        self.mute = 0
        self.self_time = [0.0] * len(NAMES)
        self.calls = [0] * len(NAMES)
        self.counters: Dict[str, float] = {}
        self.dp_keys: set = set()

    def reset_totals(self) -> Dict[str, Any]:
        """Return the totals so far and start them afresh (spans are kept)."""
        totals = self.snapshot()
        self.self_time = [0.0] * len(NAMES)
        self.calls = [0] * len(NAMES)
        self.counters = {}
        self.dp_keys = set()
        return totals

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + amount

    def snapshot(self) -> Dict[str, Any]:
        """Copy of the accumulated totals (taken when the run window closes)."""
        return {"self_time": list(self.self_time), "calls": list(self.calls),
                "counters": dict(self.counters),
                "dp_keys": len(self.dp_keys), "spans": len(self.ids)}

    def durations(self, name: str) -> np.ndarray:
        starts, ends = self.span_bounds(name)
        return ends - starts

    def span_bounds(self, name: str) -> Tuple[np.ndarray, np.ndarray]:
        mask = np.frombuffer(self.names, dtype=np.int8) == _ID[name]
        return (np.frombuffer(self.starts, dtype=float)[mask],
                np.frombuffer(self.ends, dtype=float)[mask])

    def write(self, path: str, label: str) -> None:
        """Write every span once, as arrays plus the id scheme's parts.

        Span ``i``'s id is ``{label}/p{point:04d}/{name}`` (``run`` in place
        of the point outside point evaluation), numbered by ``span``.
        """
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        np.savez(path, label=np.array(label), names=np.array(NAMES),
                 span=np.frombuffer(self.ids, dtype=np.int64),
                 parent=np.frombuffer(self.parents, dtype=np.int64),
                 name=np.frombuffer(self.names, dtype=np.int8),
                 point=np.asarray(self.points, dtype=np.int64),
                 start=np.frombuffer(self.starts, dtype=float),
                 end=np.frombuffer(self.ends, dtype=float))


def _wrap(tracer: Tracer, fn: Callable, name: str,
          after: Optional[Callable] = None, mute: bool = False,
          skip_when_muted: bool = False) -> Callable:
    """A timing wrapper around ``fn`` recording spans of bucket ``name``.

    ``after(tracer, args, kwargs, result)`` updates counters once the span
    has closed, so its own cost stays out of every span.  While a ``mute``
    span is open, wrappers made with ``skip_when_muted`` (schedule
    construction) call straight through without opening a span.
    """
    name_id = _ID[name]
    t = tracer
    stack = t.stack

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if skip_when_muted and t.mute:
            return fn(*args, **kwargs)
        span_id = t.next_id
        t.next_id = span_id + 1
        parent = stack[-1][0] if stack else -1
        if mute:
            t.mute += 1
        frame = [span_id, 0.0, 0.0]
        stack.append(frame)
        start = frame[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            if mute:
                t.mute -= 1
            duration = end - start
            t.self_time[name_id] += duration - frame[2]
            t.calls[name_id] += 1
            if stack:
                stack[-1][2] += duration
            t.ids.append(span_id)
            t.parents.append(parent)
            t.names.append(name_id)
            t.points.append(t.point)
            t.starts.append(start)
            t.ends.append(end)
        if after is not None:
            after(t, args, kwargs, result)
        return result

    return wrapper


# -- counter hooks (run after the span closes) ------------------------------
def _count_dp_key(t, args, kwargs, result):
    t.dp_keys.add((int(args[0]), int(args[1]), int(args[2]),
                   kwargs.get("method", "fast")))


def _count_schedules(t, args, kwargs, result):
    schedules = result if isinstance(result, list) else [result]
    t.add("schedules.built", len(schedules))
    t.add("schedules.episodes", sum(len(s.periods) for s in schedules))


def _count_stream_values(t, args, kwargs, result):
    # StreamingAggregator.extend(self, values, strata=None)
    t.add("streaming.values", len(args[1]))


def _count_exact_values(t, args, kwargs, result):
    # montecarlo.aggregate(values, prefix)
    t.add("streaming.values", len(args[0]))


def _count_reps(t, args, kwargs, result):
    # replicate_point(point, replications, ...) / replicate_scenario(family, replications, ...)
    t.add("montecarlo.reps", int(args[1]))


def _count_sim_reps(t, args, kwargs, result):
    t.add("simulator.reps", len(args[0]))


def _count_shard(t, args, kwargs, result):
    run, index = args[0], args[1]
    t.add("runstore.shard_bytes", os.path.getsize(run.shard_path(index)))


def _count_published(t, args, kwargs, result):
    t.add("orchestrator.tables_published", len(result[1].shared_tables))


def _enter_point(fn: Callable, tracer: Tracer) -> Callable:
    """Label spans with the point index while a payload is evaluated."""

    @functools.wraps(fn)
    def wrapper(payload):
        index = payload[0].index if isinstance(payload, tuple) else payload.index
        tracer.point = int(index)
        try:
            return fn(payload)
        finally:
            tracer.point = -1

    return wrapper


# -- installation -----------------------------------------------------------
#: (module, attribute path, bucket, after-hook)
_TARGETS = (
    ("repro.specs", "load_spec", "specs.load", None),
    ("repro.runstore", "expand_payloads", "specs.expand", None),
    ("repro.runstore", "RunStore.create", "specs.expand", None),
    ("repro.experiments.orchestrator", "measure_guaranteed_work",
     "game.referee", None),
    ("repro.experiments.cache", "DPTableCache.solve", "dp.lookup", None),
    ("repro.experiments.cache", "solve", "dp.solve", _count_dp_key),
    ("repro.experiments.montecarlo", "make_adversary", "adversary.make", None),
    ("repro.experiments.montecarlo", "replication_seed", "variance.seed", None),
    ("repro.adversary.stochastic", "PoissonOwner.choose_interrupt",
     "adversary.choose", None),
    ("repro.adversary.stochastic", "UniformResidualOwner.choose_interrupt",
     "adversary.choose", None),
    ("repro.experiments.orchestrator", "replicate_point",
     "montecarlo.replicate", _count_reps),
    ("repro.experiments.montecarlo", "replicate_scenario",
     "montecarlo.replicate", _count_reps),
    ("repro.experiments.streaming", "StreamingAggregator.extend",
     "streaming.stream", _count_stream_values),
    ("repro.experiments.streaming", "StreamingAggregator.summary",
     "streaming.stream", None),
    ("repro.experiments.montecarlo", "aggregate", "streaming.exact",
     _count_exact_values),
    ("repro.workloads.scenarios", "lognormal_tasks", "workloads.tasks", None),
    ("repro.workloads.scenarios", "uniform_tasks", "workloads.tasks", None),
    ("repro.workloads.scenarios", "bursty_interrupts", "workloads.traces", None),
    ("repro.workloads.scenarios", "inhomogeneous_poisson_interrupts",
     "workloads.traces", None),
    ("repro.workloads.scenarios", "poisson_interrupts", "workloads.traces", None),
    ("repro.workloads.scenarios", "poisson_interrupts_batch",
     "workloads.traces", None),
    ("repro.workloads.scenarios", "workday_interrupts", "workloads.traces", None),
    ("repro.simulator.batch", "simulate_scenarios_batch", "simulator.batch",
     _count_sim_reps),
    ("repro.runstore", "Run.write_point", "runstore.write", _count_shard),
    ("repro.runstore", "Run.completed_points", "runstore.scan", None),
    ("repro.runstore", "Run.consolidate_columns", "runstore.consolidate", None),
    ("repro.reporting", "refresh_run_report", "reporting.render", None),
    ("repro.runstore", "run_spec", "orchestrator.run", None),
    ("repro.experiments.orchestrator", "publish_shared_tables",
     "orchestrator.publish", _count_published),
)

#: Scheduler methods that construct schedules.
_SCHEDULE_METHODS = ("episode_schedule", "episode_schedule_batch",
                     "opportunity_schedule")


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer) -> None:
    """Wrap every traced public name of the program (once per process)."""
    for module_name, path, name, after in _TARGETS:
        owner, attr = _resolve(module_name, path)
        # The referee builds schedules internally; mute them (module doc).
        setattr(owner, attr, _wrap(tracer, getattr(owner, attr), name, after,
                                   mute=name == "game.referee"))

    import repro.schedules as schedules

    for cls in vars(schedules).values():
        if not isinstance(cls, type):
            continue
        for method in _SCHEDULE_METHODS:
            if method in vars(cls):
                setattr(cls, method, _wrap(tracer, vars(cls)[method],
                                           "schedules.build",
                                           _count_schedules, mute=True,
                                           skip_when_muted=True))

    # Point evaluation: the runstore executor calls it by this bound name,
    # and the process pool pickles it by its defining module's name, so
    # both bindings must be the same wrapper.
    import repro.runstore as runstore
    import repro.specs as specs

    point = _enter_point(_wrap(tracer, specs.evaluate_payload,
                               "orchestrator.point"), tracer)
    specs.evaluate_payload = point
    runstore.evaluate_payload = point


# -- metrics ----------------------------------------------------------------
def layer_metrics(totals: Dict[str, Any], run_s: float,
                  top_level_s: float) -> Dict[str, float]:
    """Per-layer metrics from a :meth:`Tracer.snapshot` of one traced run.

    ``top_level_s`` is the time covered by spans opened directly in the
    run window (``run_spec`` and ``refresh_run_report``).
    """
    st = dict(zip(NAMES, totals["self_time"]))
    calls = dict(zip(NAMES, totals["calls"]))
    counters = totals["counters"]
    built = counters.get("schedules.built", 0.0)
    metrics = {
        "specs.expand_s": st["specs.expand"],
        "game.referee_calls": calls["game.referee"],
        "game.referee_self_s": st["game.referee"],
        "dp.lookups": calls["dp.lookup"],
        "dp.solves": calls["dp.solve"],
        "dp.solves_per_key": (calls["dp.solve"] / totals["dp_keys"]
                              if totals["dp_keys"] else 0.0),
        "dp.solve_s": st["dp.lookup"] + st["dp.solve"],
        "schedules.built": built,
        "schedules.self_s": st["schedules.build"],
        "schedules.episodes_per_schedule": (
            counters.get("schedules.episodes", 0.0) / built if built else 0.0),
        "adversary.made": calls["adversary.make"],
        "adversary.make_s": st["adversary.make"],
        "adversary.choose_calls": calls["adversary.choose"],
        "adversary.choose_s": st["adversary.choose"],
        "variance.seed_s": st["variance.seed"],
        "montecarlo.reps": counters.get("montecarlo.reps", 0.0),
        "montecarlo.self_s": st["montecarlo.replicate"],
        "streaming.values": counters.get("streaming.values", 0.0),
        "streaming.stream_s": st["streaming.stream"],
        "streaming.exact_s": st["streaming.exact"],
        "workloads.instances": calls["workloads.tasks"],
        "workloads.tasks_s": st["workloads.tasks"],
        "workloads.traces_s": st["workloads.traces"],
        "simulator.reps": counters.get("simulator.reps", 0.0),
        "simulator.self_s": st["simulator.batch"],
        "runstore.shards": calls["runstore.write"],
        "runstore.shard_bytes": counters.get("runstore.shard_bytes", 0.0),
        "runstore.write_s": st["runstore.write"] + st["runstore.scan"],
        "runstore.consolidate_s": st["runstore.consolidate"],
        "reporting.render_s": st["reporting.render"],
        "orchestrator.self_s": st["orchestrator.run"] + st["orchestrator.point"],
        "orchestrator.publish_s": st["orchestrator.publish"],
        "orchestrator.tables_published": counters.get(
            "orchestrator.tables_published", 0.0),
        "trace.run_s": run_s,
        "trace.unaccounted_s": run_s - top_level_s,
        "trace.spans": totals["spans"],
    }
    return metrics


#: Metrics that are self times of run-window buckets; with
#: ``trace.unaccounted_s`` they must add up to ``trace.run_s``.
SELF_TIME_METRICS = (
    "specs.expand_s", "game.referee_self_s", "dp.solve_s", "schedules.self_s",
    "adversary.make_s", "adversary.choose_s", "variance.seed_s",
    "montecarlo.self_s", "streaming.stream_s", "streaming.exact_s",
    "workloads.tasks_s", "workloads.traces_s", "simulator.self_s",
    "runstore.write_s", "runstore.consolidate_s", "reporting.render_s",
    "orchestrator.self_s", "orchestrator.publish_s",
)


def reconciles(metrics: Dict[str, float], tolerance: float = 1e-6) -> bool:
    """Do the self times plus the uncovered time add up to the run's wall?"""
    total = sum(metrics[name] for name in SELF_TIME_METRICS)
    return abs(total + metrics["trace.unaccounted_s"]
               - metrics["trace.run_s"]) <= tolerance
