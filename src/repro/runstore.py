"""Resumable on-disk run store: durable, self-describing experiment runs.

Results used to evaporate when the sweep process exited; this module makes
every run a durable artifact.  A *run* is one execution of an
:class:`~repro.specs.ExperimentSpec`, laid out on disk as::

    runs/<run-id>/
        manifest.json            # the spec (inline), point count + per-point
                                 # payload digests, status
        points/point-0000.npz    # one shard per completed point
        points/point-0001.npz
        columns.npz              # columnar sidecar over the completed shards
        report.md                # written by ``repro report`` (optional)
        report.md.digest         # report cache stamp (see repro.reporting)

The orchestrator **streams** results into the store: each point's result
row is written to its own compressed ``.npz`` shard the moment the point
finishes, atomically (temp file + ``os.replace``), so a run killed at any
instant — mid-sweep, mid-write, power loss — leaves only whole shards
behind.  ``repro resume <run-id>`` reads the manifest's point count and
per-point payload digests, finds the pending indices from the shard
directory, and expands **only the pending payloads** (lazy grid
expansion; full re-expansion is the fallback for manifests written before
the digests existed).  Because every point and replication is seeded from
its own coordinates (see :func:`repro.experiments.grid.point_seed`), a
resumed run's rows — and the report rendered from them — are
byte-identical to an uninterrupted run with the same seed.

Shards store one row each (scalar statistics keyed by column name), which
keeps the store format independent of the spec kind: anything expressible
as a ``{column: scalar}`` row — guaranteed work in time units of the
lifespan ``U``, DP optima ``W^(p)[L]``, Monte-Carlo aggregates — round-trips
through :func:`write_row_shard` / :func:`read_row_shard`.

Analytics read the store through the **columnar sidecar** ``columns.npz``:
one array per result column (plus the point-index column), consolidated
atomically from the completed shards on :meth:`Run.mark_complete` and
opportunistically after every run/resume.  The handle that writes a shard
keeps the row it wrote, with the stat of the file it published (taken
before the rename), so consolidation reads from disk only the shards this
handle did not write (a resumed run's earlier points) or that changed
since (another handle or process replaced them); a shard that changes
during the pass leaves the sidecar unpublished.  :meth:`Run.rows` and
:meth:`Run.columns` read the sidecar in a single pass — zero per-shard
``.npz`` opens on the warm path — and fall back to per-shard reads
whenever the sidecar is missing, stale (manifest digest or shard-set
mismatch) or corrupt; the fallback rebuilds the sidecar best-effort.  The
sidecar is a cache, never a source of truth: shards always win, and
deleting ``columns.npz`` merely costs the next reader one rebuild pass.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import struct
import sys
import tempfile
import time
import zipfile
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple, Union

import numpy as np
from numpy.lib import format as npformat

from .core.exceptions import CycleStealingError
from .experiments.profiling import render_profile
from .specs import (
    ExperimentSpec,
    default_run_id,
    evaluate_payload,
    expand_payload_at,
    expand_payloads,
    parse_spec,
    payload_config,
    payload_digest,
    payload_digests,
    spec_to_dict,
)

__all__ = [
    "RunStoreError",
    "RunStore",
    "Run",
    "RunColumns",
    "run_spec",
    "resume_run",
    "write_row_shard",
    "read_row_shard",
    "row_to_shard_bytes",
    "row_from_shard_bytes",
    "write_shard_bytes",
    "DEFAULT_RUNS_DIR",
    "ROW_SOURCES",
]

#: Default root directory for stored runs (relative to the working directory).
DEFAULT_RUNS_DIR = "runs"

#: Manifest schema version.  Version 2 adds ``payload_digests`` (lazy
#: resume); version-1 manifests are still read — resume then falls back to
#: full grid expansion.
MANIFEST_VERSION = 2

#: Columnar-sidecar schema version (``columns.npz``).
SIDECAR_VERSION = 1

#: Shard-vouch schema version (``columns.vouch.json``).
VOUCH_VERSION = 1

_SHARD_RE = re.compile(r"^point-(\d{4,})\.npz$")

#: The one result-access vocabulary, shared by :meth:`Run.rows`,
#: :meth:`Run.columns` and :meth:`repro.catalog.Catalog.frame`:
#: ``"auto"`` reads the columnar sidecar when valid and falls back to
#: per-shard reads, ``"sidecar"`` requires a valid sidecar, ``"shards"``
#: always reads per shard.
ROW_SOURCES = ("auto", "sidecar", "shards")


def _check_source(source: str) -> str:
    """Validate a result-access ``source`` value (shared error message)."""
    if source not in ROW_SOURCES:
        raise ValueError(
            f"unknown source {source!r}; expected one of {list(ROW_SOURCES)}")
    return source

#: Array-name prefixes inside the sidecar: one ``col::<name>`` per result
#: column, plus ``mask::<name>`` for columns absent from some rows.
_COL_PREFIX = "col::"
_MASK_PREFIX = "mask::"

#: Test-only hook: seconds to sleep between staging the sidecar temp file
#: and its atomic publish (lets the kill-during-consolidation test land a
#: SIGKILL inside the window; see tests/test_runstore.py).
_CONSOLIDATE_DELAY_ENV = "REPRO_TEST_CONSOLIDATE_DELAY"


class RunStoreError(CycleStealingError, RuntimeError):
    """A missing, conflicting or corrupt stored run."""


#: A shard file's ``(st_size, st_mtime_ns, st_ino)``: any replacement of the
#: file (a new inode) or in-place edit (new size or mtime) changes it.
_Signature = Tuple[int, int, int]


def _signature(stat: os.stat_result) -> _Signature:
    return (stat.st_size, stat.st_mtime_ns, stat.st_ino)


# ----------------------------------------------------------------------
# Row <-> .npz shard round-trip
# ----------------------------------------------------------------------
def _row_arrays(row: Dict[str, Any]) -> Dict[str, np.ndarray]:
    """Validate a result row into the arrays its shard will store."""
    arrays = {}
    for key, value in row.items():
        arr = np.asarray(value)
        if arr.dtype == object:
            # An object array (e.g. a None value) would *write* fine but can
            # never be read back with allow_pickle=False — the shard would
            # count as corrupt forever and the run could never complete.
            # Fail loudly at write time instead.
            raise RunStoreError(
                f"row value {key}={value!r} cannot be stored in an .npz "
                "shard; rows must hold scalars (numbers, strings, booleans) "
                "or numeric/string arrays")
        arrays[key] = arr
    return arrays


def row_to_shard_bytes(row: Dict[str, Any]) -> bytes:
    """Serialize one result row to the exact bytes its ``.npz`` shard holds.

    Shards are written through the same deterministic zip writer as the
    columnar sidecar (members stamped with the zip epoch), so the bytes
    are a pure function of the row: the same row produces the same shard
    on any machine at any time.  That is what lets a distributed worker
    stream shard bytes to the coordinator with a sha256 alongside, lets a
    duplicate completion of a point be verified *identical* instead of
    merely plausible, and makes a multi-worker cluster run byte-identical
    to a single-machine ``--jobs`` run of the same spec.
    """
    return _npz_bytes(_row_arrays(row))


def write_row_shard(path: Union[str, os.PathLike], row: Dict[str, Any]) -> None:
    """Atomically write one result row as a compressed ``.npz`` shard.

    Scalars (floats, ints, bools, strings) are stored as 0-d arrays.  The
    write is temp-file + ``os.replace``, so concurrent readers (and any
    process inspecting a killed run) only ever observe whole shards; the
    bytes themselves are deterministic (see :func:`row_to_shard_bytes`).
    """
    write_shard_bytes(path, row_to_shard_bytes(row))


def write_shard_bytes(path: Union[str, os.PathLike],
                      data: bytes) -> os.stat_result:
    """Atomically publish already-serialized shard bytes (temp + replace).

    The write path the distributed coordinator uses for remotely computed
    points: the worker serialized the row with :func:`row_to_shard_bytes`
    and the coordinator verified its sha256, so the bytes land unmodified
    through the exact same temp-file + ``os.replace`` discipline as a
    locally computed shard.

    Returns the stat of the published file, taken from the temp file
    after its last write and before the rename (which keeps its size,
    mtime and inode): the stat is this call's file even if another writer
    replaces the shard right after the rename.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".npz.tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            stat = os.fstat(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.remove(tmp_path)
        except OSError:
            pass
        raise
    return stat


def _row_from_arrays(arrays: Mapping[str, np.ndarray]) -> Dict[str, Any]:
    """The row a shard's arrays read back as, in the shard's column order.

    0-d arrays become python scalars; other arrays stay arrays.  Both the
    shard readers (``arrays`` is the open ``.npz``) and a writer's held
    row (``arrays`` is what :func:`_row_arrays` made of the row) go
    through here, so a held row equals the row read back from its shard.
    """
    row: Dict[str, Any] = {}
    for key, value in arrays.items():
        if value.ndim == 0:
            item = value.item()
            if isinstance(item, (np.generic,)):  # pragma: no cover
                item = item.item()
            row[key] = item
        else:
            row[key] = value
    return row


def read_row_shard(path: Union[str, os.PathLike]) -> Dict[str, Any]:
    """Read one shard back into a plain ``{column: scalar}`` row.

    Raises :class:`RunStoreError` on corrupt/truncated files — the resume
    path treats that as "point not completed" and recomputes it.
    """
    try:
        with np.load(os.fspath(path), allow_pickle=False) as archive:
            return _row_from_arrays(archive)
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        raise RunStoreError(f"corrupt or unreadable shard {path!r}: {exc}") from exc


def row_from_shard_bytes(data: bytes) -> Dict[str, Any]:
    """Parse in-memory shard bytes back into the row they encode.

    The coordinator runs every remotely streamed shard through this
    before publishing it — a worker that shipped bytes whose sha256
    matches but whose content is not a readable shard must be rejected,
    not written into the store where it would poison every future resume.
    """
    try:
        with np.load(io.BytesIO(data), allow_pickle=False) as archive:
            return _row_from_arrays(archive)
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        raise RunStoreError(f"corrupt shard bytes: {exc}") from exc


# ----------------------------------------------------------------------
# Columnar sidecar: deterministic .npz writing and row <-> column packing
# ----------------------------------------------------------------------
#: zipfile gives a member zip64 extras once ``size × 1.05`` passes this, and
#: the archive zip64 records once an offset or the directory size does;
#: :func:`_npz_bytes` raises instead.
_ZIP64_LIMIT = (1 << 31) - 1
#: zipfile writes zip64 records for more members than this.
_ZIP_COUNT_LIMIT = (1 << 16) - 1
#: zipfile's ``ZipInfo.create_system``.
_ZIP_CREATE_SYSTEM = 0 if sys.platform == "win32" else 3
#: Member flag zipfile sets for a name that is not ASCII.
_ZIP_UTF8 = 1 << 11
#: 1980-01-01 as a DOS date (the time is 00:00:00, a DOS time of 0).
_ZIP_EPOCH_DATE = (1 << 5) | 1
#: ``.npy`` header of each 0-d array dtype already written, by ``dtype.str``.
_NPY_HEADERS: Dict[str, bytes] = {}


def _npy_bytes(array: np.ndarray) -> bytes:
    """``numpy.lib.format.write_array``'s bytes for ``array``."""
    simple = (array.ndim == 0 and array.dtype.kind in "biufcmMSU"
              and array.dtype.metadata is None)
    header = _NPY_HEADERS.get(array.dtype.str) if simple else None
    if header is not None:
        return header + array.tobytes()
    buffer = io.BytesIO()
    npformat.write_array(buffer, array, allow_pickle=False)
    data = buffer.getvalue()
    if simple:
        _NPY_HEADERS[array.dtype.str] = data[:len(data) - array.nbytes]
    return data


def _npz_bytes(arrays: Dict[str, np.ndarray]) -> bytes:
    """The ``.npz`` bytes of ``arrays``, a pure function of their contents.

    ``np.savez_compressed`` stamps each zip member with the current local
    time, so two consolidations of identical rows would differ at the
    byte level and spuriously invalidate the report digest cache.  Here
    every member is stamped with the zip epoch; deflate itself is
    deterministic, so identical rows yield an identical shard or sidecar —
    on a resumed run just as on an uninterrupted one.

    The bytes are what ``zipfile`` writes for deflated ``<name>.npy``
    members with that stamp and ``0o600`` permissions, packed directly:
    per member a local header and the raw deflate stream at zlib's default
    level (zipfile's compressor), then the central directory and the end
    record.  An archive zipfile would give zip64 records raises
    :class:`RunStoreError`.
    """
    records: List[bytes] = []
    directory: List[bytes] = []
    offset = 0
    for name, array in arrays.items():
        data = _npy_bytes(np.asarray(array))
        member = (name + ".npy").split("\0", 1)[0]  # as zipfile cuts it
        try:
            encoded, flags = member.encode("ascii"), 0
        except UnicodeEncodeError:
            encoded, flags = member.encode("utf-8"), _ZIP_UTF8
        packed = zlib.compress(data, -1, -15)
        if (len(data) * 1.05 > _ZIP64_LIMIT or len(packed) > _ZIP64_LIMIT
                or offset > _ZIP64_LIMIT):
            raise RunStoreError(f"array {name!r} ({len(data)} bytes at offset "
                                f"{offset}) would need a zip64 archive")
        fields = (flags, zipfile.ZIP_DEFLATED, 0, _ZIP_EPOCH_DATE,
                  zlib.crc32(data), len(packed), len(data), len(encoded))
        records += [struct.pack("<4s2B4HL2L2H", b"PK\003\004", 20, 0,
                                *fields, 0), encoded, packed]
        directory += [struct.pack("<4s4B4HL2L5H2L", b"PK\001\002", 20,
                                  _ZIP_CREATE_SYSTEM, 20, 0, *fields, 0, 0,
                                  0, 0, 0o600 << 16, offset), encoded]
        offset += 30 + len(encoded) + len(packed)
    listing = b"".join(directory)
    count = len(directory) // 2
    if (count > _ZIP_COUNT_LIMIT or offset > _ZIP64_LIMIT
            or len(listing) > _ZIP64_LIMIT):
        raise RunStoreError(f"{count} arrays ({offset} bytes) would need a "
                            "zip64 archive")
    end = struct.pack("<4s4H2LH", b"PK\005\006", 0, 0, count, count,
                      len(listing), offset, 0)
    return b"".join(records) + listing + end


#: Scalar python types a column must hold (homogeneously) to be columnar,
#: with the numpy dtype each maps to (``str`` keeps numpy's unicode sizing).
_COLUMN_DTYPES = {bool: np.bool_, int: np.int64, float: np.float64, str: None}


def _columnarize(indices: List[int],
                 rows: List[Dict[str, Any]]) -> Optional[Dict[str, np.ndarray]]:
    """Pack result rows into one array per column (None when not columnar).

    Column order is first-seen row order (the same order ``rows()``
    reconstructs).  Columns missing from some rows get a ``mask::`` flag
    array.  Rows holding non-scalar values, or a column mixing python
    types (an ``int`` in one row, a ``float`` in another), cannot be
    stored losslessly — the caller then simply skips the sidecar and
    per-shard reads stay the source of truth.
    """
    if not rows:
        return None
    order: List[str] = []
    for row in rows:
        for key in row:
            if key not in order:
                order.append(key)
    arrays: Dict[str, np.ndarray] = {
        "_point_index": np.asarray(indices, dtype=np.int64)}
    for name in order:
        present = [name in row for row in rows]
        values = [row[name] for row in rows if name in row]
        kind = type(values[0])
        if kind not in _COLUMN_DTYPES \
                or any(type(v) is not kind for v in values):
            return None
        try:
            column = np.asarray(values, dtype=_COLUMN_DTYPES[kind])
        except (OverflowError, ValueError):  # e.g. an int beyond int64
            return None
        if all(present):
            arrays[_COL_PREFIX + name] = column
        else:
            full = np.zeros(len(rows), dtype=column.dtype)
            full[np.asarray(present, dtype=bool)] = column
            arrays[_COL_PREFIX + name] = full
            arrays[_MASK_PREFIX + name] = np.asarray(present, dtype=np.bool_)
    return arrays


@dataclass
class RunColumns:
    """A run's completed rows as one array per column (the analytic view).

    ``point_index[i]`` is the run-store point index of logical row ``i``
    (ascending).  ``data[name]`` holds the column's values; for columns
    absent from some rows, ``mask[name]`` flags where the value is real
    (masked-out slots hold the dtype's zero/empty filler).
    :meth:`to_rows` reconstructs exactly the ``{column: scalar}`` rows the
    per-shard reads produce — same python types, same key order — which is
    what lets :meth:`Run.rows` serve either representation
    interchangeably.
    """

    point_index: np.ndarray
    data: Dict[str, np.ndarray] = field(default_factory=dict)
    mask: Dict[str, np.ndarray] = field(default_factory=dict)

    def __len__(self) -> int:
        return int(self.point_index.size)

    def to_rows(self) -> List[Dict[str, Any]]:
        """Rebuild the plain list-of-dict rows (python scalars, row order)."""
        rows: List[Dict[str, Any]] = [{} for _ in range(len(self))]
        for name, column in self.data.items():
            values = column.tolist()
            mask = self.mask.get(name)
            if mask is None:
                for row, value in zip(rows, values):
                    row[name] = value
            else:
                for row, value, ok in zip(rows, values, mask.tolist()):
                    if ok:
                        row[name] = value
        return rows


# ----------------------------------------------------------------------
# Run + RunStore
# ----------------------------------------------------------------------
class Run:
    """Handle to one stored run directory."""

    def __init__(self, root: str) -> None:
        self.root = os.fspath(root)
        self.run_id = os.path.basename(os.path.normpath(self.root))
        self._manifest: Optional[Dict[str, Any]] = None
        #: Parsed-sidecar memo, keyed by the file's (size, mtime_ns) so a
        #: re-consolidation (this process or another) invalidates it.
        self._sidecar_memo: Optional[Tuple[Tuple[int, int], RunColumns]] = None
        #: ``{index: (signature, row)}`` for every shard this handle wrote:
        #: the row as its shard reads back, with the signature of the file
        #: this handle published (see :func:`write_shard_bytes` and
        #: :meth:`consolidate_columns`).
        self._held: Dict[int, Tuple[_Signature, Dict[str, Any]]] = {}

    # -- manifest ------------------------------------------------------
    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, "manifest.json")

    @property
    def points_dir(self) -> str:
        return os.path.join(self.root, "points")

    @property
    def report_path(self) -> str:
        return os.path.join(self.root, "report.md")

    @property
    def columns_path(self) -> str:
        """The columnar sidecar consolidated from the completed shards."""
        return os.path.join(self.root, "columns.npz")

    @property
    def manifest(self) -> Dict[str, Any]:
        """The parsed manifest (cached after first read)."""
        if self._manifest is None:
            try:
                with open(self.manifest_path, "r", encoding="utf-8") as handle:
                    self._manifest = json.load(handle)
            except (OSError, json.JSONDecodeError) as exc:
                raise RunStoreError(
                    f"run {self.run_id!r} has no readable manifest "
                    f"({self.manifest_path}): {exc}") from exc
        return self._manifest

    def spec(self) -> ExperimentSpec:
        """Re-validate and return the spec stored in the manifest."""
        return parse_spec(self.manifest["spec"],
                          source=f"manifest of run {self.run_id!r}")

    @property
    def num_points(self) -> int:
        return int(self.manifest["num_points"])

    @property
    def status(self) -> str:
        """``"running"`` (shards may be missing) or ``"complete"``."""
        return str(self.manifest.get("status", "running"))

    def _write_manifest(self, manifest: Dict[str, Any]) -> None:
        os.makedirs(self.root, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=self.root, suffix=".json.tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(manifest, handle, indent=2, sort_keys=True)
                handle.write("\n")
            os.replace(tmp_path, self.manifest_path)
        except BaseException:
            try:
                os.remove(tmp_path)
            except OSError:
                pass
            raise
        self._manifest = manifest

    def mark_complete(self) -> None:
        """Flip the run to ``"complete"``, consolidating the sidecar first.

        The sidecar write is atomic and the status flip comes after it, so
        a kill anywhere in between leaves a resumable ``"running"`` run
        whose next resume re-consolidates.  A sidecar failure (exhausted
        disk, non-columnar rows) never blocks completion — the sidecar is
        an optimisation, the shards are the record.
        """
        try:
            self.consolidate_columns()
        except (OSError, RunStoreError):
            pass
        manifest = dict(self.manifest)
        manifest["status"] = "complete"
        self._write_manifest(manifest)

    # -- shards --------------------------------------------------------
    def shard_path(self, index: int) -> str:
        return os.path.join(self.points_dir, f"point-{index:04d}.npz")

    def completed_points(self) -> Set[int]:
        """Indices of every point with a whole, readable shard on disk.

        A shard that exists but cannot be read (torn by a crash that
        bypassed the atomic rename, disk corruption) counts as *not*
        completed, so resume recomputes it rather than trusting it.

        Shards the consolidation pass has *vouched* for — read whole
        while building ``columns.npz``, stat signature recorded in
        ``columns.vouch.json`` — are trusted from a ``stat()`` alone when
        the signature still matches; only uncovered or suspect shards
        (changed size/mtime, no vouch entry) pay a full ``.npz`` open.
        On a consolidated run a resume therefore scans the directory
        once and opens zero shards; any in-place edit or corruption
        changes the stat and sends that shard back through the full read.

        Shards this scan *did* have to open and read whole are folded
        back into the vouch (best-effort, signature captured before the
        read and confirmed unchanged after) — so a run receiving a steady
        stream of remotely computed shards (a live distributed sweep) pays
        the full open once per new shard across repeated ``repro status``
        scans, not once per scan, and the reported counts are never stale.
        """
        completed: Set[int] = set()
        vouched = self._read_vouch()
        fresh: Dict[int, _Signature] = {}
        for index, path, signature in self._shard_stats():
            if vouched.get(index) == signature[:2]:
                completed.add(index)
                continue
            try:
                read_row_shard(path)
            except RunStoreError:
                continue
            completed.add(index)
            fresh[index] = signature
        if fresh:
            # Re-stat: a shard overwritten while we were reading it must
            # not be vouched under the pre-overwrite signature.
            after = self._shard_stat_snapshot()
            stable = {index: signature for index, signature in fresh.items()
                      if after.get(index) == signature}
            if stable:
                merged = {index: after[index]
                          for index, signature in vouched.items()
                          if after.get(index, ())[:2] == signature}
                merged.update(stable)
                self._write_vouch(merged)
        return completed

    def write_point(self, index: int, row: Dict[str, Any]) -> None:
        """Persist one point's result row (atomic, idempotent).

        The shard is published before this returns.  Any shard write also
        drops the columnar sidecar: the sidecar is a cache over an exact
        shard *contents*, and an in-place overwrite (same filename,
        different row) would otherwise pass the shard-set validity check
        while serving the old values.  The next completed read or
        consolidation rebuilds it — from the row this handle holds for
        the shard, as long as the shard's stat still shows the file this
        call published (see :meth:`consolidate_columns`).
        """
        arrays = _row_arrays(row)
        # Array values are copied: the caller may reuse its arrays.
        held = _row_from_arrays({key: array.copy() if array.ndim else array
                                 for key, array in arrays.items()})
        self._publish_shard(index, _npz_bytes(arrays), held)

    def write_point_bytes(self, index: int, data: bytes) -> None:
        """Persist pre-serialized shard bytes for one point (atomic).

        The distributed coordinator's landing strip for remotely computed
        shards: the bytes were produced by :func:`row_to_shard_bytes` on
        the worker and sha256-verified on receipt, and they go through the
        same temp + ``os.replace`` path, sidecar drop and held row as a
        local :meth:`write_point` — resume, vouch, and consolidation see
        no difference between a local and a remote shard.
        """
        row = row_from_shard_bytes(data)  # reject unparseable bytes up front
        self._publish_shard(index, data, row)

    def _publish_shard(self, index: int, data: bytes,
                       row: Dict[str, Any]) -> None:
        """Publish shard bytes, hold the row they encode, drop the sidecar."""
        stat = write_shard_bytes(self.shard_path(index), data)
        self._held[index] = (_signature(stat), row)
        try:
            os.remove(self.columns_path)
        except OSError:
            pass

    def read_point(self, index: int) -> Dict[str, Any]:
        return read_row_shard(self.shard_path(index))

    def _shard_names_on_disk(self) -> List[Tuple[int, str]]:
        """``(index, filename)`` of every shard file present, sorted by index.

        A pure directory listing — no shard is opened, so corrupt files
        are listed too (validity is the *reader's* concern).
        """
        try:
            names = os.listdir(self.points_dir)
        except OSError:
            return []
        return sorted((int(match.group(1)), name) for name in names
                      for match in [_SHARD_RE.match(name)] if match)

    def _read_all_shards(self) -> Tuple[List[int], List[Dict[str, Any]]]:
        """Read every readable shard once, in point order (skip corrupt)."""
        indices: List[int] = []
        rows: List[Dict[str, Any]] = []
        for index, name in self._shard_names_on_disk():
            try:
                rows.append(read_row_shard(os.path.join(self.points_dir, name)))
            except RunStoreError:
                continue
            indices.append(index)
        return indices, rows

    def _shard_stats(self) -> List[Tuple[int, str, _Signature]]:
        """``(index, path, signature)`` of every shard file present, by index."""
        out: List[Tuple[int, str, _Signature]] = []
        for index, name in self._shard_names_on_disk():
            path = os.path.join(self.points_dir, name)
            try:
                stat = os.stat(path)
            except OSError:
                continue
            out.append((index, path, _signature(stat)))
        return out

    def _shard_stat_snapshot(self) -> Dict[int, _Signature]:
        """``{index: signature}`` of every shard file present.

        Every sidecar rebuild compares snapshots taken before and after
        its pass over the shards: if any shard changed in between (a
        concurrent resume overwriting a point), publishing a sidecar built
        from the pre-change rows would resurrect stale data — the rebuild
        skips the publish, and the sidecar stays dropped until a pass
        that saw no change.
        """
        return {index: signature
                for index, _path, signature in self._shard_stats()}

    # -- shard vouch (resume fast-path) --------------------------------
    @property
    def vouch_path(self) -> str:
        """Sidecar companion recording which shards are known whole.

        ``{index: (size, mtime_ns)}`` signatures captured *before* a
        consolidation pass, bound to the run's identity digest.  The pass
        vouches for every shard it took a row from whose stat did not
        change during the pass: shards it read whole, and shards whose
        row this handle holds because it wrote them (it produced those
        bytes and published them atomically, and their stat still matches
        the file it published).  Purely advisory:
        :meth:`completed_points` trusts a matching signature without
        opening the shard, and any mismatch, corruption or absence just
        degrades to the full per-shard scan.  Kept out of ``columns.npz``
        (whose bytes are pinned deterministic for the report digest cache)
        and out of :meth:`content_digest`.
        """
        return os.path.join(self.root, "columns.vouch.json")

    def _read_vouch(self) -> Dict[int, Tuple[int, int]]:
        """The vouched shard signatures (empty on any doubt)."""
        try:
            with open(self.vouch_path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
            if data.get("schema") != VOUCH_VERSION \
                    or data.get("identity") != self._identity_digest():
                return {}
            shards = data.get("shards")
            if not isinstance(shards, dict):
                return {}
            return {int(index): (int(sig[0]), int(sig[1]))
                    for index, sig in shards.items()}
        except (OSError, ValueError, TypeError, KeyError, IndexError,
                json.JSONDecodeError, RunStoreError):
            return {}

    def _write_vouch(self, signatures: Dict[int, _Signature]) -> None:
        """Atomically publish the vouch file (best-effort, never raises)."""
        payload = {
            "schema": VOUCH_VERSION,
            "identity": self._identity_digest(),
            "shards": {str(index): [size, mtime_ns]
                       for index, (size, mtime_ns, _ino)
                       in sorted(signatures.items())},
        }
        try:
            fd, tmp_path = tempfile.mkstemp(dir=self.root, suffix=".json.tmp")
        except OSError:
            return
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
            os.replace(tmp_path, self.vouch_path)
        except (OSError, RunStoreError):
            try:
                os.remove(tmp_path)
            except OSError:
                pass

    def _vouch_after_read(self, indices: List[int],
                          before: Dict[int, _Signature]) -> None:
        """Vouch for shards read whole whose stat never changed meanwhile.

        ``before`` is the pre-read :meth:`_shard_stat_snapshot`; a shard
        overwritten between snapshot and now gets no vouch — the rows in
        hand may predate the overwrite, and a stale vouch would let a
        future resume trust the wrong signature.
        """
        after = self._shard_stat_snapshot()
        signatures = {index: before[index] for index in indices
                      if index in before and before[index] == after.get(index)}
        if signatures:
            self._write_vouch(signatures)

    # -- columnar sidecar ----------------------------------------------
    def _identity_digest(self) -> str:
        """Digest binding a sidecar to this run's spec and point count.

        Deliberately excludes ``status`` so completing a run does not
        invalidate the sidecar consolidated moments earlier.
        """
        manifest = self.manifest
        blob = json.dumps({"spec": manifest.get("spec"),
                           "num_points": manifest.get("num_points")},
                          sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def _read_sidecar(self) -> Optional[RunColumns]:
        """Parse ``columns.npz`` (None when missing/corrupt/wrong run)."""
        try:
            with np.load(self.columns_path, allow_pickle=False) as archive:
                files = archive.files
                if "_schema" not in files or "_point_index" not in files \
                        or "_manifest_digest" not in files:
                    return None
                if int(archive["_schema"]) != SIDECAR_VERSION:
                    return None
                if str(archive["_manifest_digest"].item()) \
                        != self._identity_digest():
                    return None
                point_index = np.asarray(archive["_point_index"],
                                         dtype=np.int64)
                data: Dict[str, np.ndarray] = {}
                mask: Dict[str, np.ndarray] = {}
                for name in files:
                    if name.startswith(_COL_PREFIX):
                        data[name[len(_COL_PREFIX):]] = archive[name]
                    elif name.startswith(_MASK_PREFIX):
                        mask[name[len(_MASK_PREFIX):]] = archive[name]
                n = point_index.size
                if any(column.shape != (n,) for column in data.values()) \
                        or any(m.shape != (n,) for m in mask.values()):
                    return None
                return RunColumns(point_index=point_index, data=data,
                                  mask=mask)
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
            return None

    def _load_valid_sidecar(self) -> Optional[RunColumns]:
        """The sidecar, iff it is readable *and* matches the shards on disk.

        Staleness is a set comparison against the directory listing — no
        shard is opened.  A shard file that appeared after consolidation
        or vanished makes the sidecar stale, and readers fall back to
        per-shard reads; in-place overwrites (same filename, new content)
        never reach this check because :meth:`write_point` drops the
        sidecar outright.

        The parsed sidecar is memoised against the file's stat signature,
        so one :class:`Run` handle decompresses it once per consolidation
        — a digest check followed by a render costs one parse, not two.
        """
        try:
            stat = os.stat(self.columns_path)
        except OSError:
            self._sidecar_memo = None
            return None
        signature = (stat.st_size, stat.st_mtime_ns)
        if self._sidecar_memo is not None \
                and self._sidecar_memo[0] == signature:
            columns = self._sidecar_memo[1]
        else:
            columns = self._read_sidecar()
            if columns is None:
                self._sidecar_memo = None
                return None
            self._sidecar_memo = (signature, columns)
        on_disk = {index for index, _name in self._shard_names_on_disk()}
        if set(columns.point_index.tolist()) != on_disk:
            return None
        return columns

    def _write_sidecar(self, indices: List[int],
                       rows: List[Dict[str, Any]]) -> Optional[str]:
        """Atomically publish a sidecar over ``rows`` (None if not columnar)."""
        packed = _columnarize(indices, rows)
        if packed is None:
            return None
        return self._publish_sidecar(packed)

    def _publish_sidecar(self, packed: Dict[str, np.ndarray]) -> str:
        """Atomically write already-columnarized arrays as ``columns.npz``."""
        arrays: Dict[str, np.ndarray] = {
            "_schema": np.asarray(SIDECAR_VERSION),
            "_manifest_digest": np.asarray(self._identity_digest()),
        }
        arrays.update(packed)
        fd, tmp_path = tempfile.mkstemp(dir=self.root, suffix=".npz.tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(_npz_bytes(arrays))
            delay = os.environ.get(_CONSOLIDATE_DELAY_ENV)
            if delay:  # test-only kill window, see _CONSOLIDATE_DELAY_ENV
                with open(os.path.join(self.root, ".consolidating"), "w"):
                    pass
                time.sleep(float(delay))
            os.replace(tmp_path, self.columns_path)
        except BaseException:
            try:
                os.remove(tmp_path)
            except OSError:
                pass
            raise
        return self.columns_path

    def consolidate_columns(self, *, force: bool = False) -> Optional[str]:
        """Consolidate the completed shards into ``columns.npz``.

        One pass over a stat snapshot of the shards takes each shard's
        row: the row this handle holds when it wrote the shard and the
        shard's stat still matches the file that write published,
        otherwise the shard read whole from disk (a resumed run's earlier
        points, a shard another handle or process replaced).  The rows,
        and so the sidecar's bytes, are the same either way.

        Returns the sidecar path, or ``None`` when there is nothing to
        consolidate (no readable shards), when a shard changed during the
        pass (the rows in hand may predate the change, and the sidecar
        stays dropped until a pass that saw none), or when the rows cannot
        be stored columnar (non-scalar values, type-mixed columns) —
        per-shard reads then remain the only path, which is always
        correct.  A sidecar that is already valid for the current shard
        set is kept as is unless ``force`` is given; the write itself is
        temp-file + ``os.replace``, so readers and crashes only ever see
        whole sidecars.
        """
        if not force and self._load_valid_sidecar() is not None:
            return self.columns_path
        stats = self._shard_stats()
        before = {index: signature for index, _path, signature in stats}
        indices: List[int] = []
        rows: List[Dict[str, Any]] = []
        for index, path, signature in stats:
            held = self._held.get(index)
            if held is not None and held[0] == signature:
                row = held[1]
            else:
                try:
                    row = read_row_shard(path)
                except RunStoreError:
                    continue
            indices.append(index)
            rows.append(row)
        if not rows or self._shard_stat_snapshot() != before:
            return None
        path = self._write_sidecar(indices, rows)
        # Every row in hand is its shard's content: vouch for the shards
        # whose stat did not change since, so the next resume's
        # completed_points() trusts them without reopening.
        self._vouch_after_read(indices, before)
        return path

    def columns(self, *, source: str = "auto") -> RunColumns:
        """The completed rows as one array per column (single-pass read).

        ``source`` selects the path: ``"auto"`` (the default) reads the
        sidecar when valid and falls back to per-shard reads otherwise
        (rebuilding the sidecar best-effort); ``"sidecar"`` requires a
        valid sidecar and raises :class:`RunStoreError` without one;
        ``"shards"`` always reads per shard.  Raises
        :class:`RunStoreError` when the rows cannot be represented
        columnar.
        """
        _check_source(source)
        if source != "shards":
            sidecar = self._load_valid_sidecar()
            if sidecar is not None:
                return sidecar
            if source == "sidecar":
                raise RunStoreError(
                    f"run {self.run_id!r} has no valid columnar sidecar "
                    f"({self.columns_path}); run consolidate_columns() or "
                    "read with source='shards'")
        before = self._shard_stat_snapshot() if source == "auto" else {}
        indices, rows = self._read_all_shards()
        if not rows:  # no completed rows yet: an empty view, not an error
            return RunColumns(point_index=np.empty(0, dtype=np.int64))
        packed = _columnarize(indices, rows)
        if packed is None:
            raise RunStoreError(
                f"run {self.run_id!r} rows are not columnar (non-scalar "
                "values or a type-mixed column); use rows() instead")
        if source == "auto":
            # Best-effort rebuild from the arrays already packed above —
            # but only when every shard was readable and nothing changed
            # underneath the read (see _shard_stat_snapshot).
            if set(indices) == set(before) \
                    and self._shard_stat_snapshot() == before:
                try:
                    self._publish_sidecar(packed)
                except (OSError, RunStoreError):
                    pass
                self._vouch_after_read(indices, before)
        data = {name[len(_COL_PREFIX):]: column
                for name, column in packed.items()
                if name.startswith(_COL_PREFIX)}
        mask = {name[len(_MASK_PREFIX):]: column
                for name, column in packed.items()
                if name.startswith(_MASK_PREFIX)}
        return RunColumns(point_index=packed["_point_index"], data=data,
                          mask=mask)

    def column_schema(self, *, source: str = "auto") -> Dict[str, str]:
        """``{column: numpy dtype string}`` of the completed result rows.

        The schema the cross-run catalog indexes per run: column names in
        first-seen row order, each with its array dtype (``"<f8"``,
        ``"<i8"``, ``"<U12"``, …).  Reads through :meth:`columns`, so with
        a valid sidecar it costs one file pass and zero per-shard opens;
        raises :class:`RunStoreError` when the rows are not columnar.
        """
        return {name: column.dtype.str
                for name, column in self.columns(source=source).data.items()}

    def _opportunistic_consolidate(
            self, indices: List[int], rows: List[Dict[str, Any]],
            before: Dict[int, _Signature]) -> None:
        """Best-effort sidecar rebuild from rows already in hand.

        Only when every shard on disk was readable (otherwise the fresh
        sidecar would be instantly stale against the directory listing and
        every reader would rebuild it again) *and* no shard changed while
        we read (``before`` is the pre-read :meth:`_shard_stat_snapshot`;
        a concurrent writer overwriting a point must not have its fresh
        sidecar clobbered by one built from the pre-overwrite rows) — and
        never letting an I/O failure break the read path that triggered
        it.
        """
        if not rows:
            return
        if set(indices) != set(before) \
                or self._shard_stat_snapshot() != before:
            return
        try:
            self._write_sidecar(indices, rows)
        except (OSError, RunStoreError):
            pass
        self._vouch_after_read(indices, before)

    def content_digest(self) -> Optional[str]:
        """Digest of the run's manifest + consolidated results, or ``None``.

        The digest only exists while a *valid* sidecar covers the shards
        on disk; it is then a pure function of the spec, status and stored
        rows (the sidecar bytes are deterministic), so
        :func:`repro.reporting.write_run_report` can cache the rendered
        markdown against it — and an invalid sidecar simply disables the
        cache rather than ever serving a stale report.
        """
        if self._load_valid_sidecar() is None:
            return None
        digest = hashlib.sha256()
        try:
            for path in (self.manifest_path, self.columns_path):
                with open(path, "rb") as handle:
                    digest.update(handle.read())
        except OSError:
            return None
        return digest.hexdigest()

    def rows(self, *, source: str = "auto") -> List[Dict[str, Any]]:
        """All completed rows, in point order (the grid/spec order).

        With the default ``source="auto"`` the rows come from the columnar
        sidecar in one file read when it is valid — zero per-shard
        ``.npz`` opens — and from per-shard reads otherwise (unreadable
        shards are skipped, same as :meth:`completed_points`, and the
        sidecar is rebuilt best-effort).  ``source="sidecar"`` /
        ``"shards"`` force one path (the former raises
        :class:`RunStoreError` when no valid sidecar exists); both return
        identical rows whenever both are available, which the nightly
        workflow re-verifies end to end.
        """
        _check_source(source)
        if source != "shards":
            sidecar = self._load_valid_sidecar()
            if sidecar is not None:
                return sidecar.to_rows()
            if source == "sidecar":
                raise RunStoreError(
                    f"run {self.run_id!r} has no valid columnar sidecar "
                    f"({self.columns_path}); run consolidate_columns() or "
                    "read with source='shards'")
        before = self._shard_stat_snapshot() if source == "auto" else {}
        indices, rows = self._read_all_shards()
        if source == "auto":
            self._opportunistic_consolidate(indices, rows, before)
        return rows


class RunStore:
    """A directory of stored runs (``runs/`` by default)."""

    def __init__(self, root: Union[str, os.PathLike] = DEFAULT_RUNS_DIR) -> None:
        self.root = os.fspath(root)

    def run_path(self, run_id: str) -> str:
        return os.path.join(self.root, run_id)

    def exists(self, run_id: str) -> bool:
        return os.path.isfile(os.path.join(self.run_path(run_id),
                                           "manifest.json"))

    def open(self, run_id: str) -> Run:
        """Open an existing run; raises with the known ids when absent."""
        if not self.exists(run_id):
            raise RunStoreError(
                f"no run {run_id!r} under {self.root!r}; "
                f"known runs: {self.list_runs()}")
        return Run(self.run_path(run_id))

    def create(self, spec: ExperimentSpec, *,
               run_id: Optional[str] = None,
               payloads: Optional[List[Any]] = None) -> Run:
        """Create a fresh run directory for ``spec`` and write its manifest.

        ``payloads`` (the spec's full expansion, when the caller already
        holds it) avoids a second expansion just to derive the manifest's
        per-point digests.
        """
        run_id = run_id or default_run_id(spec)
        if self.exists(run_id):
            raise RunStoreError(
                f"run {run_id!r} already exists under {self.root!r}; "
                "use resume_run() / `repro resume` to continue it, or pass "
                "a different run id")
        run = Run(self.run_path(run_id))
        if payloads is None:
            digests = payload_digests(spec)
        else:
            digests = [payload_digest(payload) for payload in payloads]
        run._write_manifest({
            "version": MANIFEST_VERSION,
            "run_id": run_id,
            "spec": spec_to_dict(spec),
            "num_points": len(digests),
            # One identity digest per point, in point order: resume uses
            # these to verify lazily expanded pending payloads instead of
            # re-expanding the whole grid.
            "payload_digests": digests,
            "status": "running",
        })
        os.makedirs(run.points_dir, exist_ok=True)
        return run

    def list_runs(self) -> List[str]:
        """Ids of every run with a manifest, sorted."""
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        return sorted(n for n in names if self.exists(n))


# ----------------------------------------------------------------------
# Execution: run / resume a spec against a store
# ----------------------------------------------------------------------
def run_spec(spec: ExperimentSpec, *,
             runs_dir: Union[str, os.PathLike] = DEFAULT_RUNS_DIR,
             run_id: Optional[str] = None, jobs: int = 1,
             cache_dir: Optional[str] = None,
             max_points: Optional[int] = None,
             resume: bool = False,
             profile: bool = False,
             publisher: Optional[Any] = None,
             table_cache: Optional[Any] = None) -> Run:
    """Execute a spec, streaming every completed point into the run store.

    Parameters
    ----------
    spec:
        A validated :class:`~repro.specs.ExperimentSpec`.
    runs_dir:
        Root directory of the run store.
    run_id:
        Run identifier; defaults to :func:`~repro.specs.default_run_id`
        (deterministic in the spec contents).
    jobs:
        Worker processes (``1`` = in-process serial, ``0`` = one per CPU).
        Shards are written as each point finishes, in either mode.
    cache_dir:
        Shared on-disk DP-table cache directory for sweep points
        (default: disabled — tables are cached in memory per process only).
    max_points:
        Stop after completing this many *new* points (checkpointing knob;
        the run stays ``"running"`` and can be resumed).
    resume:
        Continue an existing run instead of failing on collision.  The
        stored manifest's spec must match ``spec`` exactly.
    profile:
        Print a per-stage wall-time breakdown (referee / DP solve /
        Monte-Carlo / shard I/O) to stderr when the run finishes.  Timing
        columns never reach the stored shards, so profiled and unprofiled
        runs are byte-identical.
    publisher:
        An externally owned
        :class:`~repro.experiments.cache.SharedTablePublisher` (the
        run-service passes its service-lifetime one).  Sweep DP tables are
        then published through it — even with ``jobs=1``, so concurrent
        in-process runs share one machine-wide copy — and never closed
        here; ownership stays with the caller.
    table_cache:
        A :class:`~repro.experiments.cache.DPTableCache` to solve shared
        tables through (only meaningful with ``publisher``); the service
        passes one cache for its whole lifetime so a table is solved once
        per service, not once per submission.

    Returns the :class:`Run`; its status is ``"complete"`` once every
    point has a shard.

    The points run through
    :func:`repro.experiments.orchestrator.execute_points`, the executor
    behind ``run_sweep`` too: sweep-kind specs solve their DP tables
    before the first point — usually one covering table per setup cost —
    and with ``jobs > 1`` publish them to shared memory, attached by name
    in every worker.

    Only the *pending* points are expanded (lazily, verified against the
    manifest's per-point payload digests) — resuming a run with a handful
    of missing shards never pays for re-expanding the whole grid.  When
    the run finishes (and opportunistically after partial progress) the
    completed shards are consolidated into the ``columns.npz`` sidecar.
    """
    wall_started = time.perf_counter()
    store = RunStore(runs_dir)
    run_id = run_id or default_run_id(spec)
    parse_started = time.perf_counter()
    fresh_payloads: Optional[List[Any]] = None
    if store.exists(run_id):
        if not resume:
            raise RunStoreError(
                f"run {run_id!r} already exists under {store.root!r}; "
                "use `repro resume` (or resume=True) to continue it")
        run = store.open(run_id)
        stored = run.spec()
        if stored != spec:
            raise RunStoreError(
                f"run {run_id!r} was created from a different spec; "
                "refusing to mix results (start a fresh run id instead)")
    else:
        # Fresh run: one full expansion serves both the manifest's digest
        # list and the execution below — only *resumes* expand lazily.
        fresh_payloads = expand_payloads(spec, cache_dir=cache_dir,
                                         profile=profile)
        run = store.create(spec, run_id=run_id, payloads=fresh_payloads)
    spec_parse_seconds = time.perf_counter() - parse_started

    num_points = run.num_points
    scan_started = time.perf_counter()
    done = run.completed_points()
    scan_seconds = time.perf_counter() - scan_started
    pending = [i for i in range(num_points) if i not in done]
    if max_points is not None:
        pending = pending[:max(0, int(max_points))]

    parse_started = time.perf_counter()
    if fresh_payloads is not None:
        payloads: Dict[int, Any] = {i: fresh_payloads[i] for i in pending}
    else:
        payloads = _expand_pending(run, spec, pending,
                                   cache_dir=cache_dir, profile=profile)
    spec_parse_seconds += time.perf_counter() - parse_started

    # The orchestrator pulls in the analysis stack, which `import
    # repro.runstore` alone should not pay for.
    from .experiments.orchestrator import execute_points, resolve_jobs

    shard_seconds = 0.0

    def write(index: int, row: Dict[str, Any]) -> None:
        nonlocal shard_seconds
        write_started = time.perf_counter()
        run.write_point(index, row)
        shard_seconds += time.perf_counter() - write_started

    # evaluate_payload is looked up at call time: rebinding this module's
    # name (as a tracer does) reroutes every point, in-process or pooled.
    totals = execute_points(payloads, pending, jobs=jobs,
                            evaluate=evaluate_payload, on_row=write,
                            publisher=publisher, table_cache=table_cache)

    # execute_points returning means every pending shard was written and
    # atomically published, so no re-scan of the store is needed here.
    consolidate_started = time.perf_counter()
    if pending:
        # New points were computed (including any recomputed corrupt
        # shards): force a fresh consolidation rather than trusting a
        # sidecar staged before them.  Partial runs get a partial sidecar
        # — in-flight reports then read one file, not N shards.
        try:
            run.consolidate_columns(force=True)
        except (OSError, RunStoreError):
            pass
    if len(done) + len(pending) == num_points:
        run.mark_complete()  # re-validates the sidecar, then flips status
    if profile:
        totals["spec_parse"] = totals.get("spec_parse", 0.0) + spec_parse_seconds
        totals["shard_io"] = (totals.get("shard_io", 0.0) + shard_seconds
                              + scan_seconds
                              + time.perf_counter() - consolidate_started)
        print(render_profile(totals,
                             wall_seconds=time.perf_counter() - wall_started,
                             points=len(pending), jobs=resolve_jobs(jobs)),
              file=sys.stderr)
    return run


def resume_run(run_id: str, *,
               runs_dir: Union[str, os.PathLike] = DEFAULT_RUNS_DIR,
               jobs: int = 1, cache_dir: Optional[str] = None,
               max_points: Optional[int] = None,
               profile: bool = False,
               publisher: Optional[Any] = None,
               table_cache: Optional[Any] = None) -> Run:
    """Finish an interrupted run from its last completed point.

    Only the manifest is needed — not the original spec file — so a run
    directory copied to another machine resumes there just as well.
    """
    run = RunStore(runs_dir).open(run_id)
    return run_spec(run.spec(), runs_dir=runs_dir, run_id=run_id, jobs=jobs,
                    cache_dir=cache_dir, max_points=max_points, resume=True,
                    profile=profile, publisher=publisher,
                    table_cache=table_cache)


def _expand_pending(run: Run, spec: ExperimentSpec, pending: List[int],
                    *, cache_dir: Optional[str] = None,
                    profile: bool = False) -> Dict[int, Any]:
    """Payloads for the pending indices only (``{index: payload}``).

    When the manifest carries per-point payload digests (manifest version
    ≥ 2), each pending payload is expanded lazily with
    :func:`repro.specs.expand_payload_at` and verified against its
    recorded digest — a mismatch means the manifest's grid and the spec's
    expansion have diverged, and mixing their results would corrupt the
    run.  Older manifests fall back to one full expansion.
    """
    digests = run.manifest.get("payload_digests")
    if digests is None:  # pre-digest manifest: the old full expansion
        payloads = expand_payloads(spec, cache_dir=cache_dir, profile=profile)
        return {i: payloads[i] for i in pending}
    config = payload_config(spec, cache_dir=cache_dir, profile=profile)
    out: Dict[int, Any] = {}
    for index in pending:
        payload = expand_payload_at(spec, index, profile=profile,
                                    config=config)
        if index >= len(digests) or payload_digest(payload) != digests[index]:
            raise RunStoreError(
                f"run {run.run_id!r}: payload digest mismatch at point "
                f"{index}; the manifest's recorded grid does not match the "
                "spec's expansion — refusing to mix results (was the "
                "manifest edited, or the point-expansion order changed?)")
        out[index] = payload
    return out
