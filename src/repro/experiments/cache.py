"""Two-level cache for solved ``W^(p)[L]`` dynamic-programming tables.

Every parameter sweep, optimality-gap measurement and benchmark needs the
same handful of :class:`~repro.dp.value.ValueTable` objects, and solving one
is by far the most expensive primitive in the library (``O(p·L)`` after the
fast-solver rewrite, but with ``L`` in the tens of thousands).  The cache
here keeps solved tables at hand, so a key already held by one of its
levels is never solved again:

* **Level 1 — in-process LRU.**  An ``OrderedDict`` of the most recently
  used tables, each under its own ``(max_lifespan, setup_cost,
  max_interrupts, method)`` key.  Lookups are *covering*: a cached table
  with the same ``(setup_cost, method)`` and a lifespan/interrupt range at
  least as large answers the request, because the DP over a lifespan
  prefix is independent of ``L_max``.
* **Level 2 — on-disk ``.npz`` store.**  Compressed NumPy archives under a
  cache directory, one file per key, written atomically (temp file +
  ``os.replace``) so concurrent sweep workers sharing the directory never
  observe a torn file.  Corrupt or unreadable files are treated as misses
  and transparently rewritten.  Without a file for the exact key, a
  stored covering table (same ``setup_cost`` and ``method``, range at
  least as large) answers, as in the memory level.

* **Level 0 — shared-memory publication.**  Both lower levels still hand
  every worker *process* its own private copy of the solved arrays; for
  nightly-sized tables (``L = 60k``) that multiplies megabytes by
  ``--jobs``.  :class:`SharedTablePublisher` (driver side) copies a solved
  :class:`~repro.dp.value.ValueTable`'s ``values``/``first_periods`` into
  one ``multiprocessing.shared_memory`` block per key and hands workers a
  picklable :class:`SharedTableHandle`; :func:`attach_shared_table`
  (worker side) maps that block **by name** and wraps zero-copy read-only
  arrays over it, so a table is materialised once per *machine*, not once
  per worker.  The orchestrator preloads attached tables into each
  worker's :class:`DPTableCache` memory level, which keeps every lookup
  path (including covering lookups) unchanged.

The orchestrator in :mod:`repro.experiments.orchestrator` solves a run's
planned tables before its first point — usually one covering table per
setup cost, see :func:`~repro.experiments.orchestrator.solve_table_plan`
— and every point is then a covering lookup.  The cluster coordinator
solves the same plan and ships each table to its workers under the
table's own key (:func:`table_key`, :func:`serialize_table`), so a disk
hit on a larger covering table still has one canonical blob.  Each worker
process keeps its own memory level; only with a ``cache_dir`` do tables
outlive the process, so a later sweep whose keys a stored table covers
loads it from disk.
"""

from __future__ import annotations

import os
import re
import tempfile
import threading
import zipfile
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.exceptions import InvalidParameterError
from ..dp.solver import solve
from ..dp.value import ValueTable

__all__ = ["CacheStats", "DPTableCache", "cached_solve", "shared_cache",
           "configure_shared_cache", "SharedTableHandle", "PublisherStats",
           "SharedTablePublisher", "attach_shared_table", "table_key",
           "serialize_table", "deserialize_table"]

#: Cache key: ``(max_lifespan, setup_cost, max_interrupts, method)``.
CacheKey = Tuple[int, int, int, str]

#: File name of one key in the on-disk level (see ``DPTableCache._path``).
_DISK_NAME = re.compile(r"dp_L(\d+)_c(\d+)_p(\d+)_(\w+)\.npz")


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`DPTableCache`."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total number of :meth:`DPTableCache.solve` calls."""
        return self.memory_hits + self.disk_hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered without re-solving the DP."""
        if self.lookups == 0:
            return 0.0
        return (self.memory_hits + self.disk_hits) / self.lookups


class DPTableCache:
    """LRU + on-disk cache in front of :func:`repro.dp.solver.solve`.

    Parameters
    ----------
    cache_dir:
        Directory for the on-disk ``.npz`` level.  ``None`` disables the
        disk level (the LRU level always operates).  Created on demand.
    max_memory_entries:
        Capacity of the in-process LRU level.

    A cached table — in memory or on disk — whose range covers the
    request (same ``setup_cost`` and ``method``, lifespan and interrupt
    range at least as large) is returned instead of solving a smaller
    table from scratch.
    """

    def __init__(self, cache_dir: Optional[str] = None,
                 max_memory_entries: int = 16):
        if max_memory_entries < 1:
            raise InvalidParameterError(
                f"max_memory_entries must be >= 1, got {max_memory_entries!r}")
        self.cache_dir = cache_dir
        self.max_memory_entries = int(max_memory_entries)
        self._memory: "OrderedDict[CacheKey, ValueTable]" = OrderedDict()
        self.stats = CacheStats()
        # The run-service shares one cache across worker THREADS; the LRU
        # OrderedDict (and the covering lookup's iteration over it) is not
        # safe under concurrent mutation.  Holding the lock across a full
        # solve() also means concurrent requests for the same key solve it
        # exactly once per process — the behaviour the service wants.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def solve(self, max_lifespan: int, setup_cost: int, max_interrupts: int,
              *, method: str = "fast") -> ValueTable:
        """Return the solved table, computing it at most once per key."""
        key = self._key(max_lifespan, setup_cost, max_interrupts, method)

        with self._lock:
            table = self._memory_lookup(key)
            if table is not None:
                self.stats.memory_hits += 1
                return table

            table = self._disk_lookup(key)
            if table is not None:
                self.stats.disk_hits += 1
                # Under the table's own key: it may be a covering one.
                self._memory_store(table_key(table, key[3]), table)
                return table

            self.stats.misses += 1
            table = solve(key[0], key[1], key[2], method=key[3])
            self._memory_store(key, table)
            self._disk_store(key, table)
            return table

    def preload(self, table: ValueTable, *, method: str = "fast") -> None:
        """Seed the memory level with an externally obtained table.

        Used by the shared-memory path: workers attach a published table
        (zero-copy) and preload it here, so every subsequent
        :meth:`solve` — including covering lookups for smaller ranges —
        is served without touching disk or re-solving.  Does not count as
        a lookup in :attr:`stats`.
        """
        with self._lock:
            self._memory_store(table_key(table, method), table)

    def clear(self, *, memory: bool = True, disk: bool = False) -> None:
        """Drop cached tables (the disk level only when asked explicitly)."""
        if memory:
            with self._lock:
                self._memory.clear()
        if disk and self.cache_dir and os.path.isdir(self.cache_dir):
            for name in os.listdir(self.cache_dir):
                if name.startswith("dp_") and name.endswith(".npz"):
                    try:
                        os.remove(os.path.join(self.cache_dir, name))
                    except OSError:
                        pass

    def __len__(self) -> int:
        return len(self._memory)

    # ------------------------------------------------------------------
    # Level 1: in-process LRU
    # ------------------------------------------------------------------
    @staticmethod
    def _key(max_lifespan: int, setup_cost: int, max_interrupts: int,
             method: str) -> CacheKey:
        L, c, p = int(max_lifespan), int(setup_cost), int(max_interrupts)
        if (L, c, p) != (max_lifespan, setup_cost, max_interrupts):
            raise InvalidParameterError(
                "DP cache keys must be integer-valued, got "
                f"({max_lifespan!r}, {setup_cost!r}, {max_interrupts!r})")
        return (L, c, p, str(method))

    def _memory_lookup(self, key: CacheKey) -> Optional[ValueTable]:
        if key in self._memory:
            self._memory.move_to_end(key)
            return self._memory[key]
        L, c, p, method = key
        for (kL, kc, kp, kmethod), table in self._memory.items():
            if kc == c and kmethod == method and kL >= L and kp >= p:
                self._memory.move_to_end((kL, kc, kp, kmethod))
                return table
        return None

    def _memory_store(self, key: CacheKey, table: ValueTable) -> None:
        self._memory[key] = table
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    # ------------------------------------------------------------------
    # Level 2: on-disk .npz store
    # ------------------------------------------------------------------
    def _path(self, key: CacheKey) -> Optional[str]:
        if not self.cache_dir:
            return None
        L, c, p, method = key
        return os.path.join(self.cache_dir, f"dp_L{L}_c{c}_p{p}_{method}.npz")

    def _disk_lookup(self, key: CacheKey) -> Optional[ValueTable]:
        if not self.cache_dir:
            return None
        table = self._disk_load(key)
        if table is None:
            for covering in self._covering_disk_keys(key):
                table = self._disk_load(covering)
                if table is not None:
                    break
        return table

    def _covering_disk_keys(self, key: CacheKey) -> List[CacheKey]:
        """Stored keys whose tables cover ``key``, fewest cells first."""
        L, c, p, method = key
        try:
            names = os.listdir(self.cache_dir)
        except OSError:
            return []
        found = []
        for name in names:
            match = _DISK_NAME.fullmatch(name)
            if match is None:
                continue
            kL, kc, kp = int(match[1]), int(match[2]), int(match[3])
            if (kc == c and match[4] == method and kL >= L and kp >= p
                    and (kL, kp) != (L, p)):
                found.append(((kL + 1) * (kp + 1), (kL, kc, kp, method)))
        return [covering for _cells, covering in sorted(found)]

    def _disk_load(self, key: CacheKey) -> Optional[ValueTable]:
        path = self._path(key)
        if not os.path.exists(path):
            return None
        try:
            with np.load(path) as archive:
                values = np.asarray(archive["values"], dtype=np.int64)
                first = np.asarray(archive["first_periods"], dtype=np.int64)
                setup_cost = int(archive["setup_cost"])
            L, c, p, _method = key
            if (setup_cost != c or values.shape != (p + 1, L + 1)
                    or first.shape != values.shape):
                return None  # stale or mismatched file: treat as a miss
            return ValueTable(setup_cost=setup_cost, values=values,
                              first_periods=first)
        except (OSError, KeyError, ValueError, EOFError, zipfile.BadZipFile):
            return None  # corrupt file: recompute and rewrite

    def _disk_store(self, key: CacheKey, table: ValueTable) -> None:
        path = self._path(key)
        if path is None:
            return
        os.makedirs(self.cache_dir, exist_ok=True)
        # Atomic publish: concurrent workers may race on the same key, but
        # each writes a complete temp file and os.replace() is atomic, so
        # readers only ever see whole archives.
        fd, tmp_path = tempfile.mkstemp(dir=self.cache_dir, suffix=".npz.tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez_compressed(
                    handle,
                    values=table.values,
                    first_periods=table.first_periods,
                    setup_cost=np.int64(table.setup_cost),
                )
            os.replace(tmp_path, path)
        except OSError:
            try:
                os.remove(tmp_path)
            except OSError:
                pass


def table_key(table: ValueTable, method: str = "fast") -> CacheKey:
    """The cache key a solved table is stored, published and shipped under."""
    return DPTableCache._key(table.max_lifespan, table.setup_cost,
                             table.max_interrupts, method)


# ----------------------------------------------------------------------
# Shared default cache
# ----------------------------------------------------------------------
_shared: Optional[DPTableCache] = None


def shared_cache() -> DPTableCache:
    """The process-wide default cache (memory-only until configured)."""
    global _shared
    if _shared is None:
        _shared = DPTableCache(cache_dir=os.environ.get("REPRO_DP_CACHE_DIR"))
    return _shared


def configure_shared_cache(cache_dir: Optional[str] = None,
                           max_memory_entries: int = 16) -> DPTableCache:
    """Replace the process-wide default cache (e.g. to point it at a directory)."""
    global _shared
    _shared = DPTableCache(cache_dir=cache_dir,
                           max_memory_entries=max_memory_entries)
    return _shared


def cached_solve(max_lifespan: int, setup_cost: int, max_interrupts: int,
                 *, method: str = "fast",
                 cache: Optional[DPTableCache] = None) -> ValueTable:
    """Drop-in replacement for :func:`repro.dp.solver.solve` with caching."""
    cache = cache if cache is not None else shared_cache()
    return cache.solve(max_lifespan, setup_cost, max_interrupts, method=method)


# ----------------------------------------------------------------------
# Level 0: shared-memory publication (one table per machine, not per worker)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SharedTableHandle:
    """Picklable pointer to a DP table published in shared memory.

    Workers receive handles through the (pickled) experiment config and
    attach by ``block_name`` — no table bytes ever travel through the
    pickle stream or the process pool's pipes.
    """

    #: ``multiprocessing.shared_memory`` block name to attach to.
    block_name: str
    #: The cache key ``(max_lifespan, setup_cost, max_interrupts, method)``.
    key: CacheKey

    @property
    def shape(self) -> Tuple[int, int]:
        """Shape of each of the two stacked ``int64`` arrays."""
        L, _c, p, _method = self.key
        return (p + 1, L + 1)

    @property
    def num_bytes(self) -> int:
        """Total size of the block (``values`` + ``first_periods``)."""
        rows, cols = self.shape
        return 2 * rows * cols * 8


@dataclass
class PublisherStats:
    """Publication counters of one :class:`SharedTablePublisher`.

    The run-service asserts on these: two concurrent submissions sharing
    an ``(L, c, p)`` key must show ``created == 1`` and ``reused >= 1``
    for it — the shared-memory table really was published exactly once
    per machine.  Counters survive :meth:`SharedTablePublisher.close`.
    """

    #: Blocks actually created (one per distinct cache key).
    created: int = 0
    #: ``publish()`` calls answered by an already-published block.
    reused: int = 0
    #: The keys created, in publication order.
    created_keys: List[CacheKey] = field(default_factory=list)


class SharedTablePublisher:
    """Driver-side owner of DP tables published to shared memory.

    ``publish()`` copies a solved table's ``values`` and ``first_periods``
    into one shared-memory block (stacked, ``int64``); the publisher keeps
    the block objects alive and ``close()`` unlinks them when the sweep is
    done.  Workers that attached keep valid mappings until they exit —
    POSIX keeps an unlinked segment alive while mapped — so the driver can
    clean up unconditionally in a ``finally``.

    Usable as a context manager; exceptions during ``publish`` (e.g. an
    exhausted ``/dev/shm``) surface to the caller, which should fall back
    to per-worker solving rather than fail the sweep.  ``publish()`` is
    thread-safe: the run-service calls it from concurrent worker threads
    and relies on per-key idempotence holding under that concurrency.
    """

    def __init__(self) -> None:
        self._blocks: List[object] = []
        self._handles: Dict[CacheKey, SharedTableHandle] = {}
        self._lock = threading.Lock()
        self.stats = PublisherStats()

    def publish(self, table: ValueTable, *, method: str = "fast") -> SharedTableHandle:
        """Publish one solved table; idempotent per cache key."""
        from multiprocessing import shared_memory

        key = table_key(table, method)
        with self._lock:
            handle = self._handles.get(key)
            if handle is not None:
                self.stats.reused += 1
                return handle
            values = np.ascontiguousarray(table.values, dtype=np.int64)
            first = np.ascontiguousarray(table.first_periods, dtype=np.int64)
            block = shared_memory.SharedMemory(create=True,
                                               size=values.nbytes + first.nbytes)
            self._blocks.append(block)
            stacked = np.ndarray((2,) + values.shape, dtype=np.int64,
                                 buffer=block.buf)
            stacked[0] = values
            stacked[1] = first
            handle = SharedTableHandle(block_name=block.name, key=key)
            self._handles[key] = handle
            self.stats.created += 1
            self.stats.created_keys.append(key)
            return handle

    @property
    def handles(self) -> Tuple[SharedTableHandle, ...]:
        """Every published handle, in publication order."""
        return tuple(self._handles.values())

    def close(self, *, unlink: bool = True) -> None:
        """Release (and by default unlink) every published block.

        :attr:`stats` is deliberately left intact — the counters describe
        the publisher's whole lifetime and are read after shutdown.
        """
        with self._lock:
            blocks, self._blocks = self._blocks, []
            self._handles = {}
        for block in blocks:
            try:
                block.close()
                if unlink:
                    block.unlink()
            except OSError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "SharedTablePublisher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _attach_block(name: str):
    """Attach a shared-memory block without resource-tracker side effects.

    Python 3.13+ exposes ``track=False`` so an attach never involves the
    resource tracker.  Before 3.13, attaching (re-)registers the segment —
    but multiprocessing workers share the driver's tracker process, where
    the duplicate registration is an idempotent no-op and the driver's
    ``unlink()`` removes the single entry, so a plain attach is already
    clean.  (Never *unregister* here: with a shared tracker that would
    drop the driver's own registration.)
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, create=False, track=False)
    except TypeError:  # Python < 3.13: no track= parameter
        return shared_memory.SharedMemory(name=name, create=False)


#: Worker-side attachment memo: block name -> (block, ValueTable).  Keeps
#: the SharedMemory objects (and therefore the mappings) alive for the
#: lifetime of the worker process; attaching the same handle twice is free.
_attached_tables: Dict[str, ValueTable] = {}
_attached_blocks: Dict[str, object] = {}


def attach_shared_table(handle: SharedTableHandle) -> ValueTable:
    """Map a published table by name and wrap it zero-copy (read-only).

    The returned :class:`~repro.dp.value.ValueTable` views the shared
    block directly — no bytes are copied, so a 60k-lifespan table costs a
    worker a few page-table entries instead of megabytes of private RSS.
    Attachments are memoised per block name for the process lifetime.
    """
    table = _attached_tables.get(handle.block_name)
    if table is not None:
        return table
    block = _attach_block(handle.block_name)
    stacked = np.ndarray((2,) + handle.shape, dtype=np.int64, buffer=block.buf)
    stacked.setflags(write=False)
    table = ValueTable(setup_cost=handle.key[1], values=stacked[0],
                       first_periods=stacked[1])
    _attached_blocks[handle.block_name] = block
    _attached_tables[handle.block_name] = table
    return table


# ----------------------------------------------------------------------
# Wire format: content-addressed table shipping (cluster table service)
# ----------------------------------------------------------------------
def serialize_table(table: ValueTable) -> bytes:
    """Flatten a solved table to wire bytes (stacked little-endian int64).

    The cluster table service ships these from the coordinator to workers
    alongside the table's :func:`table_key` and a sha256 of the bytes:
    ``values`` and ``first_periods`` stacked as a ``(2, p + 1, L + 1)``
    array in a fixed ``<i8`` byte order, so the digest is
    machine-independent and :func:`deserialize_table` needs only the key
    to rebuild the table.
    """
    values = np.ascontiguousarray(table.values, dtype="<i8")
    first = np.ascontiguousarray(table.first_periods, dtype="<i8")
    if values.shape != first.shape:  # pragma: no cover - ValueTable invariant
        raise InvalidParameterError(
            f"table arrays disagree on shape: {values.shape} vs {first.shape}")
    return values.tobytes() + first.tobytes()


def deserialize_table(data: bytes, *, key: CacheKey) -> ValueTable:
    """Rebuild a :class:`ValueTable` from :func:`serialize_table` bytes.

    Validates the byte count against the shape the key implies — a
    truncated or padded blob (a torn stream the sha256 check somehow
    missed, or a coordinator/worker version skew) raises rather than
    yielding a silently wrong table.
    """
    max_lifespan, setup_cost, max_interrupts, _method = key
    rows, cols = max_interrupts + 1, max_lifespan + 1
    expected = 2 * rows * cols * 8
    if len(data) != expected:
        raise InvalidParameterError(
            f"table blob for key {key!r} holds {len(data)} bytes, "
            f"expected {expected}")
    stacked = np.frombuffer(data, dtype="<i8").astype(np.int64)
    stacked = stacked.reshape(2, rows, cols)
    values = np.ascontiguousarray(stacked[0])
    first = np.ascontiguousarray(stacked[1])
    values.setflags(write=False)
    first.setflags(write=False)
    return ValueTable(setup_cost=setup_cost, values=values,
                      first_periods=first)
