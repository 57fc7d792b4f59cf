"""The run store's ``.npz`` bytes against the ``zipfile`` writer they replace.

Shard and sidecar bytes are pinned: a cluster worker's shard must hash
equal to the coordinator's copy and to a ``--jobs`` run's, and a resumed
run's sidecar must equal an uninterrupted run's.  ``runstore._npz_bytes``
packs the zip records itself; the oracle here is the ``zipfile`` writer it
replaced, which must give the same bytes for every row the run store
accepts.  Where ``zipfile`` would switch to zip64 records the direct
writer raises instead, and a failed sidecar is no sidecar.
"""

import io
import os
import struct
import zipfile

import numpy as np
import pytest
from numpy.lib import format as npformat

import repro.runstore as runstore
from repro.runstore import RunStoreError, run_spec
from repro.specs import parse_spec

SPEC = {
    "experiment": {"name": "npz-bytes", "kind": "sweep", "seed": 3,
                   "replications": 4},
    "sweep": {"lifespans": [100.0, 250.0], "interrupts": [1, 2],
              "schedulers": ["equalizing-adaptive", "fixed-period"],
              "adversaries": ["poisson-owner"], "optimal": True},
}
DTYPES = ["?", "i1", "i2", "i4", "i8", "u1", "u2", "u4", "u8", "f2", "f4",
          "f8", "c8", "c16", ">f8", ">i4", "<U7", "S5", "M8[s]", "m8[ms]"]
NAMES = ["work_mean", "λ", "größe", "列名", "a b", "", "x.y",
         "col::guaranteed_work", "mask::ü", "nul\0cut"]
ALPHABET = list("abcxyz019 _-λüß中")


def _zipfile_npz(arrays):
    """The oracle: the run store's former writer, through ``zipfile``."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_DEFLATED) as archive:
        for name, array in arrays.items():
            member = io.BytesIO()
            npformat.write_array(member, np.asarray(array), allow_pickle=False)
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_DEFLATED
            info.external_attr = 0o600 << 16
            archive.writestr(info, member.getvalue())
    return buffer.getvalue()


def _values(rng, dtype, size):
    dtype = np.dtype(dtype)
    if dtype.kind == "b":
        return rng.random(size) < 0.5
    if dtype.kind in "iumM":
        native = np.dtype(np.int64) if dtype.kind in "mM" else dtype.newbyteorder("=")
        info = np.iinfo(native)
        ints = rng.integers(info.min, info.max, size, endpoint=True, dtype=native)
        return ints.view(dtype) if dtype.kind in "mM" else ints.astype(dtype)
    if dtype.kind in "fc":
        values = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
        special = rng.random(size) < 0.1
        values[special] = rng.choice([np.nan, np.inf, -np.inf, -0.0, 0.0],
                                     int(special.sum()))
        if dtype.kind == "c":
            values = values + 1j * rng.standard_normal(size)
        with np.errstate(over="ignore"):
            return values.astype(dtype)
    text = ["".join(rng.choice(ALPHABET, rng.integers(0, 8))) for _ in range(size)]
    if dtype.kind == "S":
        text = [t.encode("utf-8")[:5] for t in text]
    return np.array(text, dtype=dtype)


def _random_row(rng):
    row = {}
    for _ in range(int(rng.integers(1, 10))):
        name = str(rng.integers(0, 50)) + str(rng.choice(NAMES))
        kind = rng.integers(0, 4)
        if kind == 0:  # a python scalar, as result rows hold them
            options = [True, False, int(rng.integers(-2**63, 2**63 - 1)),
                       2**63 - 1, -2**63, float(rng.standard_normal()),
                       float("nan"), "".join(rng.choice(ALPHABET, 6))]
            value = options[rng.integers(len(options))]
        elif kind == 1:  # a 0-d array of any dtype
            value = _values(rng, rng.choice(DTYPES), 1).reshape(())
        else:  # a 1-d array, possibly empty, or now and then 2-d
            value = _values(rng, rng.choice(DTYPES), int(rng.integers(0, 20)))
            if kind == 3 and value.size % 2 == 0 and value.size:
                value = value.reshape(2, -1)
        row[name] = value
    return row


def test_random_rows_are_zipfile_bytes():
    rng = np.random.default_rng(2024)
    for _ in range(1200):
        arrays = runstore._row_arrays(_random_row(rng))
        assert runstore._npz_bytes(arrays) == _zipfile_npz(arrays), list(arrays)


def test_result_rows_are_zipfile_bytes():
    row = {"scheduler": "equalizing-adaptive", "lifespan": 1000.0,
           "setup_cost": 1.0, "max_interrupts": 2, "optimal": True,
           "guaranteed_work": 912.5, "count": 2**62, "état": "ü"}
    assert runstore.row_to_shard_bytes(row) == _zipfile_npz(
        runstore._row_arrays(row))


def test_written_shards_and_sidecar_are_zipfile_bytes(tmp_path):
    run = run_spec(parse_spec(SPEC), runs_dir=tmp_path)
    paths = [os.path.join(run.root, "points", name)
             for name in sorted(os.listdir(os.path.join(run.root, "points")))]
    assert len(paths) == 8
    for path in paths + [run.columns_path]:
        with np.load(path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        with open(path, "rb") as handle:
            assert handle.read() == _zipfile_npz(arrays), path


def _uses_zip64(data):
    """Whether zipfile wrote zip64 records: a zip64 end record, or an extra
    field (the only extras it writes here) in a local or central header."""
    if b"PK\x06\x06" in data:
        return True
    with zipfile.ZipFile(io.BytesIO(data)) as archive:
        infos = archive.infolist()
    return any(info.extra or struct.unpack_from("<H", data, info.header_offset + 28)[0]
               for info in infos)


def _limits(monkeypatch, size=2000, count=None):
    monkeypatch.setattr(runstore, "_ZIP64_LIMIT", size)
    monkeypatch.setattr(zipfile, "ZIP64_LIMIT", size)
    if count is not None:
        monkeypatch.setattr(runstore, "_ZIP_COUNT_LIMIT", count)
        monkeypatch.setattr(zipfile, "ZIP_FILECOUNT_LIMIT", count)


def _raises_exactly_where_zipfile_needs_zip64(arrays):
    theirs = _zipfile_npz(arrays)
    try:
        ours = runstore._npz_bytes(arrays)
    except RunStoreError:
        assert _uses_zip64(theirs)
        return True
    assert not _uses_zip64(theirs) and ours == theirs
    return False


def test_member_size_boundary(monkeypatch):
    _limits(monkeypatch)  # a member needs zip64 past 2000 / 1.05 bytes
    raised = [_raises_exactly_where_zipfile_needs_zip64(
                  {"a": np.arange(n, dtype=np.uint8)})
              for n in range(1700, 1850)]
    assert raised[0] is False and raised[-1] is True
    assert raised == sorted(raised)


def test_offset_boundary(monkeypatch):
    _limits(monkeypatch)  # members fit, their offsets pass 2000 bytes
    noise = np.random.default_rng(5).integers(0, 256, 700, dtype=np.uint8)
    raised = [_raises_exactly_where_zipfile_needs_zip64(
                  {f"m{k}": noise for k in range(n)}) for n in range(1, 6)]
    assert raised[0] is False and raised[-1] is True
    assert raised == sorted(raised)


def test_member_count_boundary(monkeypatch):
    _limits(monkeypatch, size=10**6, count=4)
    raised = [_raises_exactly_where_zipfile_needs_zip64(
                  {f"m{k}": np.asarray(k) for k in range(n)}) for n in (3, 4, 5)]
    assert raised == [False, False, True]


def test_a_sidecar_that_needs_zip64_is_no_sidecar(tmp_path, monkeypatch):
    run = run_spec(parse_spec(SPEC), runs_dir=tmp_path)
    rows = run.rows(source="shards")
    os.remove(run.columns_path)
    monkeypatch.setattr(runstore, "_ZIP64_LIMIT", 400)
    with pytest.raises(RunStoreError, match="zip64"):
        run.consolidate_columns(force=True)
    assert run.columns().to_rows() == rows
    assert run.rows() == rows
    run.mark_complete()
    assert not os.path.exists(run.columns_path)
