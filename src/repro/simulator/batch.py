"""Vectorized batch backend: simulate many replications at once.

The event-driven :class:`~repro.simulator.engine.CycleStealingSimulation`
walks one heap event at a time, which makes Monte-Carlo replication —
thousands of randomized owner traces per parameter point — the wall-clock
bottleneck of ``sweep``.  This module replaces the per-event Python loop
with array passes over a whole *batch* of replications of one
(scenario × scheduler) point:

* every (replication, workstation) pair becomes one *row*;
* owner-interrupt traces are packed as arrays and partition each row's
  timeline into *segments* (one episode per segment);
* rows that share an episode state — same residual lifespan, interrupt
  budget and set-up cost — share a single scheduler call and a single
  prefix-sum of the episode's period lengths;
* per-episode completed-period counts come from ``searchsorted`` of the
  segment boundary into the episode's cumulative finish times, and all
  per-period accounting (productive/overhead/work) is done with
  ``cumsum`` passes over each row's chronological period stream.

Equivalence with the event engine is exact, not approximate: ``np.cumsum``
accumulates sequentially, i.e. in the same order as the engine's ``+=``
loops, so on identical traces the batch backend reproduces the engine's
float metrics bit for bit (the test-suite pins this on several scenario
families).  That includes the idle-interrupt corner — an owner interrupt
arriving while a workstation sits idle between episodes.  The engine
closes the idle gap against its *accounted* time (the running
productive + overhead + wasted + idle sum), so the kernel records each
idle reclaim's position in the row's accounting stream and settles the
gap in :meth:`_BatchKernel._finalize_rows` from the same partial sums,
in the same order.  No replication is ever re-routed to the event engine
any more (``fallback_reps`` stays empty; it is kept as an attribute so
harness code and the regression tests can assert exactly that).

The task-bag pass replays :meth:`TaskBag.take`'s greedy packing against the
bag's size prefix-sums in the event heap's completion order, so
``tasks_completed`` also matches the engine.  The heap pops by time, then
push sequence, and equal times are common: machines with the same contract
finish periods at the same instants.  Events pushed when the heap is
first filled pop by construction order; every other event was pushed by
one predecessor pop, so tied pushed events pop in their predecessors'
order.  :meth:`_BatchKernel._block_order` computes that order in array
passes: one stable sort by replication, time, filled-first and
construction order, then waves that place the k-th tied group of every
replication by its predecessors' final positions (a predecessor pops
strictly earlier, so its position is final by then).  A replication in
which some event ties its own predecessor — a period below half an ulp of
its finish time — falls back to the heap replay
:meth:`_BatchKernel._completion_order`, which is also the tests' oracle.
The pass orders and packs one block of replications at a time
(:data:`_BLOCK_EVENTS`), because it runs at the kernel's memory peak.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.exceptions import SimulationError
from ..core.game import _check_row_count, _state_blocks
from ..workloads.owner_activity import pad_traces
from .engine import CycleStealingSimulation
from .metrics import SimulationReport, WorkstationMetrics

__all__ = ["simulate_scenarios_batch", "simulate_batch"]

#: The engine's tolerance for a period finishing exactly at the contract
#: boundary (see ``CycleStealingSimulation._handle_lifespan_end``).
LIFESPAN_SLACK = 1e-9

#: Most events one block of the task-bag replay lays out (see
#: :meth:`_BatchKernel._assign_tasks`).  Blocks are whole replications, so
#: a replication with more events is a block alone.
_BLOCK_EVENTS = 1 << 13

#: Construction sequence of an event pushed after the heap is first filled.
_PUSHED = np.iinfo(np.intp).max


def simulate_scenarios_batch(scenarios: Sequence, scheduler=None,
                             *, scheduler_factory=None) -> List[SimulationReport]:
    """Simulate one report per scenario, all replications in one array pass.

    Parameters
    ----------
    scenarios:
        The replications to simulate — typically independently seeded
        instances of one scenario family (see
        :mod:`repro.workloads.scenarios`).  Each scenario contributes one
        :class:`~repro.simulator.metrics.SimulationReport` to the result,
        in order.
    scheduler / scheduler_factory:
        Same contract as :class:`CycleStealingSimulation`.  A factory is
        invoked once per (replication, workstation) row; factories must be
        pure functions of the workstation (which the adaptive-scheduler
        protocol requires anyway).

    Notes
    -----
    Unlike the event engine, the batch backend does **not** mutate the
    scenarios' task bags — completed-task counts are reported in the
    returned metrics only.  Owner interrupts that arrive while a
    workstation sits idle are handled natively in the array passes
    (``kernel.fallback_reps`` stays empty on every scenario family; the
    test-suite asserts it).

    All reported quantities use the paper's units: work, productive,
    overhead, wasted and idle time are measured in the contract's time
    unit (the unit of the lifespan ``U``/``L`` and the set-up cost
    ``c``); interrupt counts are bounded by each contract's negotiated
    budget ``p`` only if the trace respects it — contract-breaking
    traces (e.g. the ``flaky`` family) are simulated as given.
    """
    scenarios = list(scenarios)
    if not scenarios:
        return []

    resolve = CycleStealingSimulation._resolve_scheduler(scheduler, scheduler_factory)
    kernel = _BatchKernel(resolve)
    for rep, scenario in enumerate(scenarios):
        kernel.add_replication(rep, scenario.workstations, scenario.task_bag)
    kernel.run()
    return [kernel.report(rep) for rep in range(len(scenarios))]


def simulate_batch(workstation_sets: Sequence[Sequence], scheduler=None, *,
                   task_bags: Optional[Sequence] = None,
                   scheduler_factory=None) -> List[SimulationReport]:
    """Lower-level entry point taking raw workstation lists (no Scenario).

    ``workstation_sets[r]`` is the list of
    :class:`~repro.simulator.workstation.BorrowedWorkstation` contracts of
    replication ``r``; ``task_bags[r]`` (optional) its data-parallel
    workload.

    Units follow the paper's notation: each contract's ``lifespan`` (the
    paper's ``U``, written ``L`` on the integer DP grid), ``setup_cost``
    (``c``) and owner-interrupt times all share one time unit;
    ``interrupt_budget`` is the negotiated maximum number of reclaims
    (``p``, a count); workstation ``speed`` is a dimensionless work-rate
    multiplier.  Returned reports account work in the same time unit.
    """
    class _Bare:
        __slots__ = ("workstations", "task_bag")

        def __init__(self, workstations, task_bag):
            self.workstations = workstations
            self.task_bag = task_bag

    bags = list(task_bags) if task_bags is not None else [None] * len(workstation_sets)
    if len(bags) != len(workstation_sets):
        raise SimulationError("task_bags must match workstation_sets in length")
    return simulate_scenarios_batch(
        [_Bare(ws, bag) for ws, bag in zip(workstation_sets, bags)],
        scheduler, scheduler_factory=scheduler_factory)


# ----------------------------------------------------------------------
# Kernel
# ----------------------------------------------------------------------
class _BatchKernel:
    """Array-level replay of the event engine over (replication × workstation) rows."""

    def __init__(self, resolve_scheduler):
        self._resolve = resolve_scheduler
        # Static row data (parallel lists; scalars stay Python floats to
        # avoid numpy-scalar boxing in the hot grouping loop).
        self.row_rep: List[int] = []
        self.row_order: List[int] = []       # workstation creation order within its rep
        self.row_id: List[str] = []
        self.row_lifespan: List[float] = []
        self.row_setup: List[float] = []
        self.row_speed: List[float] = []
        self.row_budget: List[int] = []
        self.row_trace: List[np.ndarray] = []
        self.row_scheduler: List[object] = []
        # Per-replication data.
        self.rep_rows: Dict[int, List[int]] = {}
        self.rep_bag: Dict[int, Optional[object]] = {}
        self.rep_makespan: Dict[int, float] = {}
        #: Replications re-routed to the event engine.  Always empty since
        #: the idle-interrupt corner became native; kept (and asserted
        #: empty by the test-suite) as the sentinel that no array pass
        #: ever silently gives up on a replication again.
        self.fallback_reps: Set[int] = set()
        #: Replications whose task-bag order came from the heap replay
        #: :meth:`_completion_order`, because some completion tied the
        #: event that pushed it (a period below half an ulp of its finish).
        self.replayed_reps: Set[int] = set()
        # Mutable accounting, filled by run().  A "piece" is one episode's
        # run of completed periods: (segment index, lengths, end times).
        self._pieces: List[List[Tuple[int, np.ndarray, np.ndarray]]] = []
        self._boundary: List[bool] = []      # last completion handled at LIFESPAN_END
        self._wasted_parts: List[List[float]] = []
        self._killed: List[int] = []
        self._interrupts: List[int] = []
        self._idle_tail: List[bool] = []
        # Idle reclaims: (time, completed periods so far, kill parts so far)
        # per row, in chronological order — enough to recompute the engine's
        # accounted time at each reclaim during _finalize_rows.
        self._idle_events: List[List[Tuple[float, int, int]]] = []
        self._piece_counts: List[int] = []   # completed periods recorded so far
        self._metrics: List[Optional[WorkstationMetrics]] = []
        self._schedule_memo: Dict[Tuple[int, float, int, float], object] = {}

    # ------------------------------------------------------------------
    def add_replication(self, rep: int, workstations: Sequence, task_bag) -> None:
        workstations = list(workstations)
        if not workstations:
            raise SimulationError("at least one borrowed workstation is required")
        ids = [w.workstation_id for w in workstations]
        if len(set(ids)) != len(ids):
            raise SimulationError(f"workstation ids must be unique, got {ids}")
        rows = []
        for order, ws in enumerate(workstations):
            row = len(self.row_rep)
            rows.append(row)
            self.row_rep.append(rep)
            self.row_order.append(order)
            self.row_id.append(ws.workstation_id)
            self.row_lifespan.append(float(ws.lifespan))
            self.row_setup.append(float(ws.setup_cost))
            self.row_speed.append(float(ws.speed))
            self.row_budget.append(int(ws.interrupt_budget))
            # The engine only schedules interrupts strictly inside the lifespan.
            trace = np.asarray(ws.owner_interrupts, dtype=float)
            self.row_trace.append(trace[trace < ws.lifespan])
            self.row_scheduler.append(self._resolve(ws))
        self.rep_rows[rep] = rows
        self.rep_bag[rep] = task_bag
        self.rep_makespan[rep] = max(float(w.lifespan) for w in workstations)

    # ------------------------------------------------------------------
    def run(self) -> None:
        n = len(self.row_rep)
        self._pieces = [[] for _ in range(n)]
        self._boundary = [False] * n
        self._wasted_parts = [[] for _ in range(n)]
        self._killed = [0] * n
        self._interrupts = [0] * n
        self._idle_tail = [False] * n
        self._idle_events = [[] for _ in range(n)]
        self._piece_counts = [0] * n
        self._metrics = [None] * n

        # The (rows × max-interrupts) trace matrix: segment boundaries for
        # the whole batch in one array (+inf padding never compares true).
        self._trace_matrix, trace_counts = pad_traces(self.row_trace)
        self._trace_counts = trace_counts.tolist()

        max_segments = 1 + self._trace_matrix.shape[1]
        for segment in range(max_segments):
            self._run_segment(segment)
        self._finalize_rows()
        self._assign_tasks()

    # ------------------------------------------------------------------
    def _run_segment(self, segment: int) -> None:
        """Process episode ``segment`` of every row that reaches it."""
        groups: Dict[Tuple[int, float, float, int, float], List[int]] = {}
        starts = (self._trace_matrix[:, segment - 1].tolist() if segment
                  else None)
        counts = self._trace_counts
        schedulers = self.row_scheduler
        lifespans = self.row_lifespan
        budgets = self.row_budget
        setups = self.row_setup
        setdefault = groups.setdefault
        for row in range(len(self.row_rep)):
            if segment > counts[row]:
                continue
            start = starts[row] if segment else 0.0
            p_rem = budgets[row] - segment
            key = (id(schedulers[row]), start, lifespans[row],
                   p_rem if p_rem > 0 else 0, setups[row])
            setdefault(key, []).append(row)

        self._fill_schedule_memo(groups)
        for (sid, start, lifespan, p_rem, setup), rows in groups.items():
            residual = lifespan - start
            schedule = self._schedule_memo[(sid, residual, p_rem, setup)]
            periods = schedule.periods
            m = periods.size

            final_rows = [r for r in rows if segment == self._trace_counts[r]]
            int_rows = [r for r in rows if segment < self._trace_counts[r]]

            if m == 1:
                # Dominant shape for short residuals (single long period):
                # scalar fast path, no per-group array constructions.
                self._run_single_period_group(segment, final_rows, int_rows,
                                              periods, start, lifespan)
                continue

            # Absolute finish times, accumulated exactly like the engine's
            # successive ``event.time + schedule[j]`` pushes.
            shifted = np.empty(m + 1)
            shifted[0] = start
            shifted[1:] = periods
            finishes = np.cumsum(shifted)[1:]

            if final_rows:
                self._close_final(segment, final_rows, periods, finishes, start,
                                  lifespan)
            if int_rows:
                ends = self._trace_matrix[int_rows, segment]
                # Strict '<': an interrupt landing exactly on a period end
                # is processed first (it was queued earlier), killing the period.
                ks = np.searchsorted(finishes, ends, side="left")
                for r, k, end in zip(int_rows, ks.tolist(), ends.tolist()):
                    if k < m:
                        in_flight_start = float(finishes[k - 1]) if k else start
                        self._wasted_parts[r].append(max(0.0, end - in_flight_start))
                        self._killed[r] += 1
                        self._interrupts[r] += 1
                        if k:
                            self._pieces[r].append((segment, periods[:k],
                                                    finishes[:k]))
                            self._piece_counts[r] += k
                    else:
                        # Interrupt while idle: the whole episode completed
                        # and the machine sat idle until the reclaim.  No
                        # period is killed; the idle gap is settled against
                        # the engine's accounted time in _finalize_rows.
                        self._pieces[r].append((segment, periods, finishes))
                        self._piece_counts[r] += m
                        self._idle_events[r].append(
                            (end, self._piece_counts[r],
                             len(self._wasted_parts[r])))
                        self._interrupts[r] += 1

    def _run_single_period_group(self, segment: int, final_rows: List[int],
                                 int_rows: List[int], periods: np.ndarray,
                                 start: float, lifespan: float) -> None:
        """One-period episode, all in scalars (mirrors the general path).

        ``start + float(periods[0])`` is the same double addition the
        general path's cumsum performs, so every comparison below sees the
        identical finish time.
        """
        finish = start + float(periods[0])
        if final_rows:
            boundary_kill: Optional[float] = None
            boundary_complete = False
            idle_tail = False
            piece: Optional[Tuple[int, np.ndarray, np.ndarray]] = None
            if finish >= lifespan:
                if finish <= lifespan + LIFESPAN_SLACK:
                    # Completes within the boundary slack, processed by the
                    # LIFESPAN_END handler at time U.
                    boundary_complete = True
                    piece = (segment, periods, np.array((lifespan,)))
                else:
                    boundary_kill = max(0.0, lifespan - start)
            else:
                idle_tail = True
                piece = (segment, periods, np.array((finish,)))
            for r in final_rows:
                if piece is not None:
                    self._pieces[r].append(piece)
                    self._piece_counts[r] += 1
                if boundary_kill is not None:
                    self._wasted_parts[r].append(boundary_kill)
                    self._killed[r] += 1    # lifespan kill: no owner interrupt
                self._boundary[r] = boundary_complete
                self._idle_tail[r] = idle_tail
        if int_rows:
            idle_piece: Optional[Tuple[int, np.ndarray, np.ndarray]] = None
            for r in int_rows:
                end = float(self._trace_matrix[r, segment])
                if end <= finish:
                    # An interrupt landing exactly on the period end still
                    # kills it (it was queued earlier) — same tie rule as
                    # the general path's side="left" searchsorted.
                    self._wasted_parts[r].append(max(0.0, end - start))
                    self._killed[r] += 1
                    self._interrupts[r] += 1
                else:
                    # Interrupt while idle (see the general path).
                    if idle_piece is None:
                        idle_piece = (segment, periods, np.array((finish,)))
                    self._pieces[r].append(idle_piece)
                    self._piece_counts[r] += 1
                    self._idle_events[r].append(
                        (end, self._piece_counts[r],
                         len(self._wasted_parts[r])))
                    self._interrupts[r] += 1

    def _fill_schedule_memo(self, groups: Dict[Tuple, List[int]]) -> None:
        """Build every schedule a segment needs, batched per scheduler state.

        All residuals that share a ``(scheduler, interrupts-left, setup)``
        state go through one ``episode_schedule_batch`` call, so schedulers
        with a vectorized construction amortise their work across the whole
        batch (the base class falls back to a loop).
        """
        missing: Dict[Tuple[int, int, float], List[Tuple[float, Tuple]]] = {}
        scheduler_of: Dict[int, object] = {}
        for (sid, start, lifespan, p_rem, setup), rows in groups.items():
            residual = lifespan - start
            memo_key = (sid, residual, p_rem, setup)
            if memo_key not in self._schedule_memo:
                missing.setdefault((sid, p_rem, setup), []).append((residual, memo_key))
                scheduler_of[sid] = self.row_scheduler[rows[0]]
        for (sid, p_rem, setup), items in missing.items():
            scheduler = scheduler_of[sid]
            residuals = [residual for residual, _key in items]
            build = getattr(scheduler, "episode_schedule_batch", None)
            if build is not None:
                schedules = list(build(residuals, p_rem, setup))
            else:
                schedules = [scheduler.episode_schedule(residual, p_rem, setup)
                             for residual in residuals]
            _check_row_count(len(schedules), len(residuals))
            for (_residual, memo_key), schedule in zip(items, schedules):
                self._schedule_memo[memo_key] = schedule

    def _close_final(self, segment: int, rows: List[int], periods: np.ndarray,
                     finishes: np.ndarray, start: float, lifespan: float) -> None:
        """Account the last episode of ``rows`` up to the contract boundary."""
        m = periods.size
        # Periods finishing strictly before the lifespan complete normally ...
        kp = int(np.searchsorted(finishes, lifespan, side="left"))
        lengths_piece = periods[:kp]
        times_piece = finishes[:kp]
        boundary_kill: Optional[float] = None
        boundary_complete = False
        idle_tail = False
        if kp < m:
            # ... and the one in flight at LIFESPAN_END completes only if it
            # ends within the engine's boundary slack.
            in_flight_start = float(finishes[kp - 1]) if kp else start
            if float(finishes[kp]) <= lifespan + LIFESPAN_SLACK:
                boundary_complete = True
                lengths_piece = periods[:kp + 1]
                times_piece = finishes[:kp + 1].copy()
                # Processed by the LIFESPAN_END handler at time U, which is
                # where it lands in the task-bag order.
                times_piece[-1] = lifespan
            else:
                boundary_kill = max(0.0, lifespan - in_flight_start)
        else:
            idle_tail = True
        for r in rows:
            if lengths_piece.size:
                self._pieces[r].append((segment, lengths_piece, times_piece))
                self._piece_counts[r] += lengths_piece.size
            if boundary_kill is not None:
                self._wasted_parts[r].append(boundary_kill)
                self._killed[r] += 1          # lifespan kill: no owner interrupt
            self._boundary[r] = boundary_complete
            self._idle_tail[r] = idle_tail

    # ------------------------------------------------------------------
    def _finalize_rows(self) -> None:
        # One flat elementwise pass over every completed period of the whole
        # batch, then a per-row cumsum for the totals.  cumsum accumulates
        # sequentially — the same order as the engine's per-period ``+=`` —
        # so the totals are bit-exact.
        n = len(self.row_rep)
        live = range(n)
        all_pieces: List[np.ndarray] = []
        row_setups: List[float] = []
        row_speeds: List[float] = []
        row_counts: List[int] = []
        for row in live:
            count = 0
            for _seg, lengths, _times in self._pieces[row]:
                all_pieces.append(lengths)
                count += lengths.size
            row_setups.append(self.row_setup[row])
            row_speeds.append(self.row_speed[row])
            row_counts.append(count)
        # The task-bag replay reads each completed period's work from the
        # flat stream, where each row's periods start at _row_periods[row].
        self._row_periods = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(row_counts, out=self._row_periods[1:])
        if all_pieces:
            flat_len = np.concatenate(all_pieces)
            counts_arr = np.asarray(row_counts)
            flat_setup = np.repeat(np.asarray(row_setups), counts_arr)
            productive = np.maximum(flat_len - flat_setup, 0.0)
            overhead = np.minimum(flat_len, flat_setup)
            work = productive * np.repeat(np.asarray(row_speeds), counts_arr)
            # Plain-Python accumulation below: the same sequential IEEE
            # additions as np.cumsum (and the engine's ``+=``), minus the
            # per-row array-call overhead for thousands of tiny rows.
            prod_list = productive.tolist()
            over_list = overhead.tolist()
            work_list = work.tolist()
        else:
            productive = overhead = work = np.empty(0, dtype=float)
            prod_list = over_list = work_list = []
        self._period_work = work

        offset = 0
        for row, count in zip(live, row_counts):
            prod_cum = over_cum = None
            if count:
                sl = slice(offset, offset + count)
                productive_time = 0.0
                for v in prod_list[offset:offset + count]:
                    productive_time += v
                overhead_time = 0.0
                for v in over_list[offset:offset + count]:
                    overhead_time += v
                completed_work = 0.0
                for v in work_list[offset:offset + count]:
                    completed_work += v
                if self._idle_events[row]:
                    # Idle gaps close against partial accounted sums, so
                    # this (rare) row needs the full prefix cumsums.
                    prod_cum = np.cumsum(productive[sl])
                    over_cum = np.cumsum(overhead[sl])
                offset += count
            else:
                productive_time = overhead_time = completed_work = 0.0
            # Kill parts and idle reclaims accumulate chronologically, the
            # way the engine's += does: each idle gap closes against the
            # accounted time *at that reclaim* (partial productive/overhead
            # cumsums, kill parts recorded before it, idle gaps so far).
            parts = self._wasted_parts[row]
            wasted_time = 0.0
            idle_time = 0.0
            next_part = 0
            for end, n_periods, n_parts in self._idle_events[row]:
                while next_part < n_parts:
                    wasted_time += parts[next_part]
                    next_part += 1
                p_sum = float(prod_cum[n_periods - 1]) if n_periods else 0.0
                o_sum = float(over_cum[n_periods - 1]) if n_periods else 0.0
                accounted = p_sum + o_sum + wasted_time + idle_time
                idle_time += max(0.0, end - accounted)
            while next_part < len(parts):
                wasted_time += parts[next_part]
                next_part += 1
            if self._idle_tail[row]:
                accounted = productive_time + overhead_time + wasted_time + idle_time
                idle_time += max(0.0, self.row_lifespan[row] - accounted)
            self._metrics[row] = WorkstationMetrics(
                workstation_id=self.row_id[row],
                productive_time=productive_time,
                overhead_time=overhead_time,
                wasted_time=wasted_time,
                idle_time=idle_time,
                completed_work=completed_work,
                completed_periods=count,
                killed_periods=self._killed[row],
                owner_interrupts=self._interrupts[row],
                episodes=self.row_trace[row].size + 1,
            )

    # ------------------------------------------------------------------
    def _assign_tasks(self) -> None:
        """Replay each shared task bag in event-heap completion order.

        The replay runs at the kernel's memory peak, so it orders and packs
        one block of replications at a time: at most :data:`_BLOCK_EVENTS`
        events per block, or one replication that alone has more.
        """
        reps = list(self.rep_rows)
        bags = self.rep_bag
        pending = {rep for rep in reps if bags[rep] is not None
                   and bags[rep].completed_tasks < bags[rep].sizes.size}
        if not pending:
            return
        # A replication's events: its owner interrupts and its completions.
        row_events = np.asarray(self._trace_counts) + np.diff(self._row_periods)
        rep_events = np.add.reduceat(row_events,
                                     [self.rep_rows[rep][0] for rep in reps])
        for first, stop in _state_blocks(rep_events, _BLOCK_EVENTS):
            for rep, completions in self._block_completions(first, stop):
                if rep in pending:
                    self._pack(rep, completions)

    def _pack(self, rep: int, completions) -> None:
        """:meth:`TaskBag.take`'s greedy packing of ``(row, work)`` completions.

        Whole tasks fit while their cumulative size stays within the work
        plus the take's slack, so each completion is one ``searchsorted``
        into the bag's size prefix sums.
        """
        bag = self.rep_bag[rep]
        sizes = bag.sizes
        total = sizes.size
        pointer = bag.completed_tasks
        prefix = np.empty(total + 1)
        prefix[0] = 0.0
        np.cumsum(sizes, out=prefix[1:])
        search, at = prefix.searchsorted, prefix.item
        anchor = at(pointer)
        counts: Dict[int, int] = {}
        for row, budget in completions:
            if budget <= 0.0:
                continue
            new_pointer = int(search(anchor + budget + 1e-12, "right")) - 1
            if new_pointer > pointer:
                counts[row] = counts.get(row, 0) + (new_pointer - pointer)
                pointer = new_pointer
                if pointer >= total:
                    break
                anchor = at(pointer)
        for row, count in counts.items():
            self._metrics[row].tasks_completed = count

    def _block_completions(self, first: int, stop: int):
        """Yield ``(rep, completions)`` for replications ``first:stop``.

        Replications count in :attr:`rep_rows` order; ``completions``
        iterates each completed period's ``(row, work)`` in event-heap
        order: the array order of :meth:`_block_order`, or the heap replay
        :meth:`_completion_order` for a replication that order cannot
        resolve (recorded in :attr:`replayed_reps`).
        """
        reps = list(self.rep_rows)[first:stop]
        rows, works, bounds, replay = self._block_order(reps)
        for k, rep in enumerate(reps):
            if k in replay:
                self.replayed_reps.add(rep)
                yield rep, self._completion_order(self.rep_rows[rep])
            else:
                lo, hi = bounds[k], bounds[k + 1]
                yield rep, zip(rows[lo:hi], works[lo:hi])

    def _block_order(self, reps: List[int]):
        """Every completion of consecutive replications ``reps``, heap-ordered.

        The block's events are laid out as arrays (see the module
        docstring): owner interrupts, period completions, and the lifespan
        ends that process a boundary completion.  The heap's other events,
        silent lifespan ends and killed periods, push nothing, so they
        cannot reorder a completion.  An event pushed while the heap is
        first filled carries its construction sequence (row by row: its
        interrupts, its lifespan end, its first completion); any other
        event, its predecessor: the previous completion of its episode, or
        the interrupt that opened the episode.

        Returns the completions' rows and works (lists, replication by
        replication), each replication's bounds into them, and the block
        indices of the replications to replay instead (some event ties its
        own predecessor).
        """
        lo = self.rep_rows[reps[0]][0]
        hi = self.rep_rows[reps[-1]][-1] + 1
        pieces = [(row - lo, segment, times) for row in range(lo, hi)
                  for segment, _lengths, times in self._pieces[row]]
        if not pieces:
            return [], [], [0] * (len(reps) + 1), set()
        # Rows count from 0 in the block.  Events: every row's interrupts,
        # then every row's completions (the flat period stream's order).
        piece_row, segment, piece_times = zip(*pieces)
        piece_row, segment = np.array(piece_row), np.array(segment)
        sizes = [times.size for times in piece_times]
        interrupts = np.zeros(hi - lo + 1, dtype=np.intp)
        np.cumsum(self._trace_counts[lo:hi], out=interrupts[1:])
        n_int = int(interrupts[-1])
        times = np.concatenate(self.row_trace[lo:hi] + list(piece_times))
        size = times.size
        event_row = np.concatenate((np.repeat(np.arange(hi - lo), np.diff(interrupts)),
                                    np.repeat(piece_row, sizes)))
        event_rep = np.repeat(np.arange(len(reps)),
                              [len(self.rep_rows[rep]) for rep in reps])[event_row]

        # Construction sequence: a row's interrupts, its lifespan end and
        # its first completion follow every earlier row's (an interrupt's
        # index plus two slots per earlier row).
        seq = np.full(size, _PUSHED, dtype=np.intp)
        seq[:n_int] = np.arange(n_int) + 2 * event_row[:n_int]
        head = n_int + np.cumsum([0] + sizes[:-1])  # each episode's first
        opening = segment == 0
        seq[head[opening]] = (interrupts[piece_row[opening] + 1]
                              + 2 * piece_row[opening] + 1)
        # A completion's predecessor is the previous completion of its
        # episode, or the interrupt that opened a later episode.
        pred = np.arange(-1, size - 1)
        later = ~opening
        pred[head[later]] = interrupts[piece_row[later]] + segment[later] - 1
        # A boundary completion is the lifespan end's work.
        boundary = np.flatnonzero(self._boundary[lo:hi])
        p0 = int(self._row_periods[lo])
        seq[n_int + self._row_periods[lo + boundary + 1] - 1 - p0] = (
            interrupts[boundary + 1] + 2 * boundary)

        order = np.lexsort((seq, times, event_rep))
        pushed = seq == _PUSHED
        chained = np.flatnonzero(pushed)
        replay = set(event_rep[chained[times[pred[chained]]
                                       == times[chained]]].tolist())
        sorted_times = times[order]
        sorted_rep = event_rep[order]
        group = np.flatnonzero((sorted_times[1:] != sorted_times[:-1])
                               | (sorted_rep[1:] != sorted_rep[:-1])) + 1
        group = np.concatenate(([0], group, [size]))   # equal-time groups
        pushed_count = np.add.reduceat(pushed[order].astype(np.intp), group[:-1])
        tied = np.flatnonzero(pushed_count > 1)
        if tied.size:
            # Wave k: the k-th tied group of each replication.
            group_rep = sorted_rep[group[tied]]
            wave = np.arange(tied.size) - np.searchsorted(group_rep, group_rep)
            by_wave = np.argsort(wave, kind="stable")
            count = pushed_count[tied][by_wave]
            offsets = np.zeros(count.size + 1, dtype=np.intp)
            np.cumsum(count, out=offsets[1:])
            # A group's pushed events hold its last slots.
            ends = group[tied + 1][by_wave]
            slots = np.repeat(ends - offsets[1:], count) + np.arange(offsets[-1])
            cuts = offsets[np.searchsorted(wave[by_wave],
                                           np.arange(wave.max() + 2))].tolist()
            position = np.empty(size, dtype=np.intp)
            position[order] = np.arange(size)
            for start, end in zip(cuts[:-1], cuts[1:]):
                where = slots[start:end]
                members = order[where]
                members = members[np.argsort(position[pred[members]])]
                order[where] = members
                position[members] = where

        done = order[order >= n_int]
        bounds = np.zeros(len(reps) + 1, dtype=np.intp)
        np.cumsum(np.bincount(event_rep[done], minlength=len(reps)),
                  out=bounds[1:])
        return ((event_row[done] + lo).tolist(),
                self._period_work[done + (p0 - n_int)].tolist(),
                bounds.tolist(), replay)

    def _completion_order(self, rows: List[int]):
        """Yield ``(row, work)`` for every completed period in event-heap order.

        A single workstation's completions are simply chronological.  With
        several workstations sharing the bag, ties between equal completion
        times are broken by the heap's *push order*, which chains from each
        workstation's previous event — so we replay the heap discipline over
        the already-known completion streams.  Only event ordering is
        replayed here; all the expensive accounting stayed vectorized.

        This is the readable reference and the fallback of
        :meth:`_block_order`, which the batch simulator tests and
        ``scripts/check_completion_order.py`` pin against it.
        """
        import heapq
        import itertools

        counter = itertools.count()
        # Entries: (time, seq, kind, row, segment, i) — ordered by
        # (time, seq); seq is unique so later fields never compare.
        heap: List[Tuple[float, int, int, int, int, int]] = []
        PE, INT, LIFE = 0, 1, 2
        # Piece lookup per row: segment -> (times, works, chain length);
        # times/works as plain lists (hot indexing).  The last piece may
        # end with the boundary completion, which the LIFESPAN_END pop
        # processes — it is excluded from the chain length.
        piece_of: Dict[int, Dict[int, Tuple[list, list, int]]] = {}

        def push_first(row: int, segment: int) -> None:
            entry = piece_of[row].get(segment)
            if entry is not None and entry[2] > 0:
                heapq.heappush(heap, (entry[0][0], next(counter), PE,
                                      row, segment, 0))

        for row in rows:               # init pushes, in workstation order
            per_seg = {}
            trace = self.row_trace[row]
            works = self._period_work[self._row_periods[row]:
                                      self._row_periods[row + 1]].tolist()
            offset = 0
            for segment, _lengths, times in self._pieces[row]:
                boundary_here = (self._boundary[row]
                                 and segment == trace.size)
                per_seg[segment] = (times.tolist(),
                                    works[offset:offset + times.size],
                                    times.size - (1 if boundary_here else 0))
                offset += times.size
            piece_of[row] = per_seg
            for seg, t in enumerate(trace.tolist()):
                heapq.heappush(heap, (t, next(counter), INT, row, seg, 0))
            heapq.heappush(heap, (self.row_lifespan[row], next(counter),
                                  LIFE, row, 0, 0))
            push_first(row, 0)

        while heap:
            _time, _seq, kind, row, segment, i = heapq.heappop(heap)
            if kind == PE:
                times, works, chain = piece_of[row][segment]
                yield row, works[i]
                if i + 1 < chain:
                    heapq.heappush(heap, (times[i + 1], next(counter), PE,
                                          row, segment, i + 1))
            elif kind == INT:
                push_first(row, segment + 1)
            else:  # LIFE: the boundary completion is processed here, at time U
                if self._boundary[row]:
                    entry = piece_of[row].get(int(self.row_trace[row].size))
                    if entry is not None:
                        yield row, entry[1][-1]

    # ------------------------------------------------------------------
    def report(self, rep: int) -> SimulationReport:
        per_ws = {self.row_id[r]: self._metrics[r] for r in self.rep_rows[rep]}
        return SimulationReport(per_workstation=per_ws,
                                makespan=self.rep_makespan[rep])
