"""Tests for the resumable run store (:mod:`repro.runstore`).

The headline property — an interrupted run, resumed, produces
byte-identical reports to an uninterrupted run — is pinned twice: once by
stopping at a point boundary (``max_points``) and once by SIGKILLing a
real ``repro run`` subprocess mid-sweep.
"""

import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import repro.runstore as runstore_module
from repro.reporting import render_run_report, write_run_report
from repro.runstore import (
    Run,
    RunStore,
    RunStoreError,
    read_row_shard,
    resume_run,
    run_spec,
    write_row_shard,
)
from repro.specs import parse_spec

SWEEP_SPEC = {
    "experiment": {"name": "rs-sweep", "kind": "sweep", "seed": 1,
                   "replications": 3},
    "sweep": {"lifespans": [100.0, 200.0, 300.0], "interrupts": [1],
              "schedulers": ["equalizing-adaptive", "single-period"],
              "adversaries": ["poisson-owner"], "optimal": True},
}

SCENARIO_SPEC = {
    "experiment": {"name": "rs-scenario", "kind": "scenario", "seed": 0,
                   "replications": 2, "backend": "batch"},
    "scenario": {"family": "laptop",
                 "schedulers": ["equalizing-adaptive", "fixed-period"]},
}


class TestShardRoundTrip:
    def test_scalars_round_trip(self, tmp_path):
        path = tmp_path / "row.npz"
        row = {"scheduler": "equalizing-adaptive", "lifespan": 100.0,
               "max_interrupts": 2, "optimal": True, "work_mean": 87.25}
        write_row_shard(path, row)
        back = read_row_shard(path)
        assert back == row
        assert isinstance(back["scheduler"], str)
        assert isinstance(back["max_interrupts"], int)
        assert isinstance(back["work_mean"], float)
        assert back["optimal"] is True

    def test_unstorable_values_rejected_at_write_time(self, tmp_path):
        # None becomes an object array, which np.load(allow_pickle=False)
        # could never read back — the shard would look corrupt forever and
        # the run could never complete.  Must fail on write, not on read.
        path = tmp_path / "row.npz"
        with pytest.raises(RunStoreError) as excinfo:
            write_row_shard(path, {"ok": 1.0, "bad": None})
        assert "bad" in str(excinfo.value)
        assert not path.exists()

    def test_write_is_atomic_no_tmp_left_behind(self, tmp_path):
        path = tmp_path / "row.npz"
        write_row_shard(path, {"x": 1})
        leftovers = [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
        assert leftovers == []

    def test_array_values_round_trip(self, tmp_path):
        path = tmp_path / "arr.npz"
        write_row_shard(path, {"trace": np.array([1.0, 2.0, 3.0]), "n": 3})
        back = read_row_shard(path)
        assert back["n"] == 3
        np.testing.assert_array_equal(back["trace"], [1.0, 2.0, 3.0])

    def test_corrupt_shard_raises(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"this is not a zip archive")
        with pytest.raises(RunStoreError):
            read_row_shard(path)
        truncated = tmp_path / "trunc.npz"
        write_row_shard(truncated, {"x": np.arange(100)})
        data = truncated.read_bytes()
        truncated.write_bytes(data[: len(data) // 2])
        with pytest.raises(RunStoreError):
            read_row_shard(truncated)


class TestRunStore:
    def test_create_open_list(self, tmp_path):
        store = RunStore(tmp_path)
        spec = parse_spec(SCENARIO_SPEC)
        run = store.create(spec, run_id="r1")
        assert store.exists("r1")
        assert store.list_runs() == ["r1"]
        reopened = store.open("r1")
        assert reopened.spec() == spec
        assert reopened.num_points == 2
        assert reopened.status == "running"

    def test_open_missing_run_lists_known(self, tmp_path):
        store = RunStore(tmp_path)
        store.create(parse_spec(SCENARIO_SPEC), run_id="exists")
        with pytest.raises(RunStoreError) as excinfo:
            store.open("missing")
        assert "exists" in str(excinfo.value)

    def test_create_collision_rejected(self, tmp_path):
        store = RunStore(tmp_path)
        store.create(parse_spec(SCENARIO_SPEC), run_id="dup")
        with pytest.raises(RunStoreError):
            store.create(parse_spec(SCENARIO_SPEC), run_id="dup")

    def test_unreadable_manifest_raises(self, tmp_path):
        run_dir = tmp_path / "broken-run"
        run_dir.mkdir()
        (run_dir / "manifest.json").write_text("{not json")
        with pytest.raises(RunStoreError):
            _ = Run(str(run_dir)).manifest

    def test_list_runs_ignores_stray_entries(self, tmp_path):
        store = RunStore(tmp_path)
        store.create(parse_spec(SCENARIO_SPEC), run_id="real")
        (tmp_path / "not-a-run").mkdir()
        (tmp_path / "loose-file.txt").write_text("x")
        assert store.list_runs() == ["real"]
        assert RunStore(tmp_path / "nowhere").list_runs() == []

    def test_completed_points_skips_corrupt_shards(self, tmp_path):
        store = RunStore(tmp_path)
        run = store.create(parse_spec(SCENARIO_SPEC), run_id="c")
        run.write_point(0, {"x": 1.0})
        with open(run.shard_path(1), "wb") as handle:
            handle.write(b"torn write")
        assert run.completed_points() == {0}


class TestRunSpecExecution:
    def test_serial_and_parallel_rows_agree(self, tmp_path):
        spec = parse_spec(SWEEP_SPEC)
        serial = run_spec(spec, runs_dir=tmp_path / "a", jobs=1)
        parallel = run_spec(spec, runs_dir=tmp_path / "b", jobs=2)
        assert serial.status == "complete" == parallel.status
        assert serial.rows() == parallel.rows()

    def test_rerun_without_resume_flag_fails(self, tmp_path):
        spec = parse_spec(SCENARIO_SPEC)
        run_spec(spec, runs_dir=tmp_path)
        with pytest.raises(RunStoreError):
            run_spec(spec, runs_dir=tmp_path)

    def test_resume_refuses_a_different_spec(self, tmp_path):
        spec = parse_spec(SCENARIO_SPEC)
        run = run_spec(spec, runs_dir=tmp_path, max_points=1)
        other = parse_spec({**SCENARIO_SPEC,
                            "experiment": {**SCENARIO_SPEC["experiment"],
                                           "seed": 99}})
        with pytest.raises(RunStoreError):
            run_spec(other, runs_dir=tmp_path, run_id=run.run_id, resume=True)

    def test_resume_of_a_complete_run_is_a_noop(self, tmp_path):
        spec = parse_spec(SCENARIO_SPEC)
        run = run_spec(spec, runs_dir=tmp_path)
        before = run.rows()
        again = resume_run(run.run_id, runs_dir=tmp_path, jobs=0)
        assert again.status == "complete"
        assert again.rows() == before

    def test_max_points_checkpointing(self, tmp_path):
        spec = parse_spec(SWEEP_SPEC)
        run = run_spec(spec, runs_dir=tmp_path, max_points=2)
        assert run.status == "running"
        assert run.completed_points() == {0, 1}
        run = resume_run(run.run_id, runs_dir=tmp_path, max_points=2)
        assert run.completed_points() == {0, 1, 2, 3}
        run = resume_run(run.run_id, runs_dir=tmp_path)
        assert run.status == "complete"
        assert len(run.rows()) == 6

    def test_interrupted_then_resumed_report_is_byte_identical(self, tmp_path):
        spec = parse_spec(SWEEP_SPEC)
        # Uninterrupted reference run.
        full = run_spec(spec, runs_dir=tmp_path / "full")
        # Interrupted at a point boundary, then resumed.
        broken = run_spec(spec, runs_dir=tmp_path / "broken", max_points=3)
        assert broken.status == "running"
        resumed = resume_run(broken.run_id, runs_dir=tmp_path / "broken")
        assert resumed.status == "complete"
        assert resumed.rows() == full.rows()
        assert render_run_report(resumed) == render_run_report(full)

    def test_resume_recomputes_a_corrupted_point(self, tmp_path):
        spec = parse_spec(SWEEP_SPEC)
        run = run_spec(spec, runs_dir=tmp_path)
        reference = run.rows()
        with open(run.shard_path(2), "wb") as handle:
            handle.write(b"disk corruption")
        resumed = resume_run(run.run_id, runs_dir=tmp_path)
        assert resumed.rows() == reference

    def test_scenario_spec_runs_and_reports(self, tmp_path):
        spec = parse_spec(SCENARIO_SPEC)
        run = run_spec(spec, runs_dir=tmp_path)
        report = render_run_report(run)
        assert "# Run report: rs-scenario" in report
        assert "`laptop`" in report
        assert "Monte-Carlo replication" in report
        path = write_run_report(run)
        assert os.path.exists(path)
        assert open(path).read() == report

    def test_partial_run_report_says_so(self, tmp_path):
        spec = parse_spec(SWEEP_SPEC)
        run = run_spec(spec, runs_dir=tmp_path, max_points=1)
        report = render_run_report(run)
        assert "partial run" in report
        assert f"repro resume {run.run_id}" in report


def _synthetic_complete_run(root, num_points=64):
    """A completed run with ``num_points`` synthetic (but realistic) rows."""
    assert num_points % 4 == 0
    spec = parse_spec({
        "experiment": {"name": "synthetic", "kind": "sweep", "seed": 0},
        "sweep": {"lifespans": [100.0 + 10.0 * k for k in range(num_points // 4)],
                  "interrupts": [1, 2],
                  "schedulers": ["equalizing-adaptive", "single-period"]},
    })
    run = RunStore(root).create(spec, run_id="synthetic")
    for point in spec.to_grid().points():
        row = point.key_columns()
        row["guaranteed_work"] = 0.9 * point.lifespan - point.index * 1e-3
        run.write_point(point.index, row)
    run.mark_complete()
    return run


class TestColumnarSidecar:
    def test_sidecar_written_on_completion_and_sources_agree(self, tmp_path):
        run = run_spec(parse_spec(SWEEP_SPEC), runs_dir=tmp_path)
        assert os.path.exists(run.columns_path)
        via_auto = run.rows()
        via_shards = run.rows(source="shards")
        via_sidecar = run.rows(source="sidecar")
        assert via_auto == via_shards == via_sidecar
        assert len(via_auto) == 6

    def test_columns_view_round_trips_rows(self, tmp_path):
        run = run_spec(parse_spec(SWEEP_SPEC), runs_dir=tmp_path)
        columns = run.columns()
        assert len(columns) == 6
        assert columns.point_index.tolist() == list(range(6))
        assert columns.to_rows() == run.rows(source="shards")
        # Scalar python types survive the columnar round-trip exactly.
        row = columns.to_rows()[0]
        assert isinstance(row["scheduler"], str)
        assert isinstance(row["max_interrupts"], int)
        assert isinstance(row["guaranteed_work"], float)

    def test_warm_report_performs_zero_per_shard_reads(self, tmp_path,
                                                       monkeypatch):
        # The acceptance property: rendering a completed >= 64-point run
        # with a valid sidecar never opens a point shard.
        run = _synthetic_complete_run(tmp_path, num_points=64)
        reads = []
        real = runstore_module.read_row_shard
        monkeypatch.setattr(runstore_module, "read_row_shard",
                            lambda path: (reads.append(path), real(path))[1])
        reopened = RunStore(tmp_path).open("synthetic")
        report = render_run_report(reopened)
        assert "# Run report: synthetic" in report
        assert reads == []

    def test_corrupt_sidecar_falls_back_and_rebuilds(self, tmp_path):
        run = run_spec(parse_spec(SWEEP_SPEC), runs_dir=tmp_path)
        reference = run.rows(source="shards")
        with open(run.columns_path, "wb") as handle:
            handle.write(b"this is not a zip archive")
        assert run.rows() == reference  # fallback, then rebuild
        assert run.rows(source="sidecar") == reference  # rebuilt and valid

    def test_truncated_sidecar_falls_back_and_rebuilds(self, tmp_path):
        run = run_spec(parse_spec(SWEEP_SPEC), runs_dir=tmp_path)
        reference = run.rows(source="shards")
        data = open(run.columns_path, "rb").read()
        with open(run.columns_path, "wb") as handle:
            handle.write(data[: len(data) // 2])
        assert run.rows() == reference
        assert run.rows(source="sidecar") == reference

    def test_missing_sidecar_raises_only_for_source_sidecar(self, tmp_path):
        run = run_spec(parse_spec(SWEEP_SPEC), runs_dir=tmp_path)
        os.remove(run.columns_path)
        with pytest.raises(RunStoreError):
            run.rows(source="sidecar")
        assert len(run.rows()) == 6  # auto falls back (and rebuilds)
        with pytest.raises(ValueError):
            run.rows(source="nonsense")

    def test_stale_sidecar_after_recomputed_corrupt_shard(self, tmp_path):
        # A corrupt point shard is recomputed on resume; the sidecar
        # consolidated before the corruption must be refreshed, not
        # trusted, and both read paths must agree afterwards.
        run = run_spec(parse_spec(SWEEP_SPEC), runs_dir=tmp_path)
        reference = run.rows(source="shards")
        with open(run.shard_path(2), "wb") as handle:
            handle.write(b"disk corruption")
        # While shard 2 is corrupt the fallback serves one row fewer, and
        # the (pre-corruption) sidecar still covers the full shard set.
        assert len(run.rows(source="shards")) == 5
        resumed = resume_run(run.run_id, runs_dir=tmp_path)
        assert resumed.rows(source="sidecar") == reference
        assert resumed.rows(source="shards") == reference

    def test_sidecar_of_removed_shard_set_is_stale(self, tmp_path):
        run = run_spec(parse_spec(SWEEP_SPEC), runs_dir=tmp_path)
        os.remove(run.shard_path(3))
        # Shard set changed after consolidation: the sidecar is stale, so
        # a forced sidecar read refuses ...
        with pytest.raises(RunStoreError):
            run.rows(source="sidecar")
        # ... and auto reads fall back to the 5 surviving shards, then
        # rebuild a fresh (now valid) 5-point sidecar.
        assert len(run.rows()) == 5
        assert run.rows(source="sidecar") == run.rows(source="shards")

    def test_sidecar_from_another_run_is_rejected(self, tmp_path):
        a = run_spec(parse_spec(SWEEP_SPEC), runs_dir=tmp_path / "a")
        b = run_spec(parse_spec(SCENARIO_SPEC), runs_dir=tmp_path / "b")
        import shutil
        shutil.copyfile(a.columns_path, b.columns_path)
        # Manifest digest mismatch: the foreign sidecar must not serve.
        assert b.rows() == b.rows(source="shards")
        assert {row["family"] for row in b.rows()} == {"laptop"}

    def test_non_columnar_rows_skip_sidecar_gracefully(self, tmp_path):
        spec = parse_spec(SCENARIO_SPEC)
        run = RunStore(tmp_path).create(spec, run_id="mixed")
        run.write_point(0, {"scheduler": "a", "value": 1})     # int ...
        run.write_point(1, {"scheduler": "b", "value": 1.5})   # ... then float
        run.mark_complete()
        assert not os.path.exists(run.columns_path)
        rows = run.rows()
        assert [row["value"] for row in rows] == [1, 1.5]
        with pytest.raises(RunStoreError):
            run.columns()

    def test_array_valued_rows_skip_sidecar_gracefully(self, tmp_path):
        spec = parse_spec(SCENARIO_SPEC)
        run = RunStore(tmp_path).create(spec, run_id="arrays")
        run.write_point(0, {"scheduler": "a", "trace": np.arange(3.0)})
        run.write_point(1, {"scheduler": "b", "trace": np.arange(4.0)})
        run.mark_complete()
        assert not os.path.exists(run.columns_path)
        assert len(run.rows()) == 2

    def test_missing_column_round_trips_via_mask(self, tmp_path):
        spec = parse_spec(SCENARIO_SPEC)
        run = RunStore(tmp_path).create(spec, run_id="ragged")
        run.write_point(0, {"scheduler": "a", "work_mean": 1.25, "extra": 7})
        run.write_point(1, {"scheduler": "b", "work_mean": 2.5})
        run.mark_complete()
        assert os.path.exists(run.columns_path)
        rows = run.rows(source="sidecar")
        assert rows == run.rows(source="shards")
        assert "extra" in rows[0] and "extra" not in rows[1]

    def test_overwriting_a_point_drops_the_sidecar(self, tmp_path):
        # An in-place overwrite keeps the shard filename, so the shard-set
        # staleness check alone could not see it; write_point must drop
        # the sidecar so both read paths stay identical.
        run = run_spec(parse_spec(SWEEP_SPEC), runs_dir=tmp_path)
        assert os.path.exists(run.columns_path)
        corrected = dict(run.read_point(2), guaranteed_work=123.456)
        run.write_point(2, corrected)
        assert not os.path.exists(run.columns_path)
        rows = run.rows()  # fallback + rebuild over the corrected shard
        assert rows[2]["guaranteed_work"] == 123.456
        assert run.rows(source="sidecar") == run.rows(source="shards")

    def test_consolidate_with_no_shards_is_a_noop(self, tmp_path):
        run = RunStore(tmp_path).create(parse_spec(SCENARIO_SPEC),
                                        run_id="empty")
        assert run.consolidate_columns() is None
        assert not os.path.exists(run.columns_path)
        assert run.rows() == []

    def test_columns_sources_mirror_rows_sources(self, tmp_path):
        run = run_spec(parse_spec(SWEEP_SPEC), runs_dir=tmp_path)
        via_shards = run.columns(source="shards")
        via_sidecar = run.columns(source="sidecar")
        assert via_shards.to_rows() == via_sidecar.to_rows()
        with pytest.raises(ValueError):
            run.columns(source="nonsense")
        os.remove(run.columns_path)
        with pytest.raises(RunStoreError):
            run.columns(source="sidecar")
        assert run.columns().to_rows() == via_shards.to_rows()  # auto rebuild

    def test_future_sidecar_schema_is_ignored(self, tmp_path):
        run = run_spec(parse_spec(SWEEP_SPEC), runs_dir=tmp_path)
        reference = run.rows(source="shards")
        with np.load(run.columns_path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        arrays["_schema"] = np.asarray(99)
        np.savez(run.columns_path, **arrays)
        with pytest.raises(RunStoreError):
            run.rows(source="sidecar")
        assert run.rows() == reference  # fallback + rebuild at version 1

    def test_sidecar_bytes_deterministic(self, tmp_path):
        run = run_spec(parse_spec(SWEEP_SPEC), runs_dir=tmp_path)
        first = open(run.columns_path, "rb").read()
        assert run.consolidate_columns(force=True) == run.columns_path
        assert open(run.columns_path, "rb").read() == first

    def test_resumed_and_uninterrupted_sidecars_byte_identical(self, tmp_path):
        spec = parse_spec(SWEEP_SPEC)
        full = run_spec(spec, runs_dir=tmp_path / "full")
        broken = run_spec(spec, runs_dir=tmp_path / "broken", max_points=3)
        resumed = resume_run(broken.run_id, runs_dir=tmp_path / "broken")
        assert open(resumed.columns_path, "rb").read() \
            == open(full.columns_path, "rb").read()

    def test_partial_run_gets_a_partial_sidecar(self, tmp_path):
        run = run_spec(parse_spec(SWEEP_SPEC), runs_dir=tmp_path,
                       max_points=2)
        assert run.status == "running"
        assert os.path.exists(run.columns_path)
        assert run.rows(source="sidecar") == run.rows(source="shards")
        assert len(run.rows()) == 2

    def test_content_digest_tracks_run_changes(self, tmp_path):
        run = run_spec(parse_spec(SWEEP_SPEC), runs_dir=tmp_path,
                       max_points=2)
        partial = run.content_digest()
        assert partial
        resumed = resume_run(run.run_id, runs_dir=tmp_path)
        complete = resumed.content_digest()
        assert complete and complete != partial
        os.remove(resumed.columns_path)
        assert resumed.content_digest() is None


class TestLazyResume:
    def test_manifest_records_payload_digests(self, tmp_path):
        run = run_spec(parse_spec(SWEEP_SPEC), runs_dir=tmp_path)
        digests = run.manifest["payload_digests"]
        assert len(digests) == run.num_points == 6
        assert all(isinstance(d, str) and len(d) == 64 for d in digests)

    def test_resume_never_expands_the_full_grid(self, tmp_path, monkeypatch):
        spec = parse_spec(SWEEP_SPEC)
        run = run_spec(spec, runs_dir=tmp_path, max_points=2)

        def boom(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("resume re-expanded the full grid")

        monkeypatch.setattr(runstore_module, "expand_payloads", boom)
        expanded = []
        real = runstore_module.expand_payload_at
        monkeypatch.setattr(
            runstore_module, "expand_payload_at",
            lambda spec, i, **kw: (expanded.append(i), real(spec, i, **kw))[1])
        resumed = resume_run(run.run_id, runs_dir=tmp_path)
        assert resumed.status == "complete"
        assert expanded == [2, 3, 4, 5]  # pending points only

    def test_payload_digest_mismatch_refuses_to_mix(self, tmp_path):
        run = run_spec(parse_spec(SWEEP_SPEC), runs_dir=tmp_path,
                       max_points=2)
        manifest = json.load(open(run.manifest_path))
        manifest["payload_digests"][3] = "0" * 64
        with open(run.manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(RunStoreError) as excinfo:
            resume_run(run.run_id, runs_dir=tmp_path)
        assert "digest mismatch" in str(excinfo.value)
        assert "point 3" in str(excinfo.value)

    def test_pre_digest_manifest_still_resumes(self, tmp_path):
        # Manifests written before version 2 carry no payload digests;
        # resume must fall back to the full expansion and still finish.
        spec = parse_spec(SWEEP_SPEC)
        reference = run_spec(spec, runs_dir=tmp_path / "ref").rows()
        run = run_spec(spec, runs_dir=tmp_path, max_points=2)
        manifest = json.load(open(run.manifest_path))
        del manifest["payload_digests"]
        manifest["version"] = 1
        with open(run.manifest_path, "w") as handle:
            json.dump(manifest, handle)
        resumed = resume_run(run.run_id, runs_dir=tmp_path)
        assert resumed.status == "complete"
        assert resumed.rows() == reference


class TestKillResume:
    """A real mid-run kill: SIGKILL the CLI subprocess, then resume."""

    SPEC_TOML = """\
[experiment]
name = "kill-test"
kind = "scenario"
seed = 0
replications = 30
backend = "event"

[scenario]
family = "laptop"
schedulers = ["equalizing-adaptive", "rosenberg-adaptive", "fixed-period", "single-period", "equal-split", "geometric"]
"""

    def _reference_report(self, spec_path, tmp_path):
        from repro.specs import load_spec

        # Same run id (in a separate store) so the reports can be compared
        # byte for byte, header included.
        run = run_spec(load_spec(spec_path), runs_dir=tmp_path / "ref",
                       run_id="victim")
        return render_run_report(run)

    def test_sigkill_mid_run_then_resume_matches(self, tmp_path):
        # Bounded internally: the poll loop gives up after 120 s and the
        # subprocess wait after 60 s, so no pytest-timeout mark is needed.
        spec_path = tmp_path / "kill.toml"
        spec_path.write_text(self.SPEC_TOML)
        runs_dir = tmp_path / "runs"
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep \
            + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "run", str(spec_path),
             "--runs-dir", str(runs_dir), "--run-id", "victim"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            # Kill as soon as at least one point has been persisted (the
            # interesting window); if the run wins the race and finishes,
            # resume below degrades to a no-op — the equality still holds.
            points_dir = runs_dir / "victim" / "points"
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline and proc.poll() is None:
                if points_dir.is_dir() and any(points_dir.glob("point-*.npz")):
                    break
                time.sleep(0.02)
            killed = proc.poll() is None
            if killed:
                proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()
                proc.wait()

        run = Run(str(runs_dir / "victim"))
        completed_before = run.completed_points()
        if killed:
            assert run.status == "running"
            assert len(completed_before) < 6
        resumed = resume_run("victim", runs_dir=runs_dir)
        assert resumed.status == "complete"
        assert resumed.completed_points() == set(range(6))
        assert render_run_report(resumed) \
            == self._reference_report(spec_path, tmp_path)

    def test_sigkill_during_sidecar_consolidation_then_resume(self, tmp_path):
        # Land the kill inside the consolidation window: the test-only
        # REPRO_TEST_CONSOLIDATE_DELAY hook makes the run stage the
        # sidecar, touch a `.consolidating` marker, and sleep before the
        # atomic publish — every point shard is already on disk when the
        # SIGKILL arrives.  Resume must re-consolidate and the report must
        # stay byte-identical to an uninterrupted run's.
        spec_path = tmp_path / "kill.toml"
        spec_path.write_text(self.SPEC_TOML.replace("replications = 30",
                                                    "replications = 5"))
        runs_dir = tmp_path / "runs"
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep \
            + env.get("PYTHONPATH", "")
        env["REPRO_TEST_CONSOLIDATE_DELAY"] = "120"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "run", str(spec_path),
             "--runs-dir", str(runs_dir), "--run-id", "victim"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        marker = runs_dir / "victim" / ".consolidating"
        try:
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline and proc.poll() is None:
                if marker.exists():
                    break
                time.sleep(0.02)
            assert marker.exists(), "consolidation never started"
            assert proc.poll() is None, "run exited before the kill window"
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()
                proc.wait()

        run = Run(str(runs_dir / "victim"))
        # Killed between the last shard and the status flip: all points
        # are durable, the sidecar publish never happened, and only whole
        # files are visible (the staged temp file is not a sidecar).
        assert run.status == "running"
        assert run.completed_points() == set(range(6))
        assert not os.path.exists(run.columns_path)
        resumed = resume_run("victim", runs_dir=runs_dir)
        assert resumed.status == "complete"
        assert resumed.rows(source="sidecar") == resumed.rows(source="shards")
        assert render_run_report(resumed) \
            == self._reference_report(spec_path, tmp_path)


class TestEmptyColumns:
    def test_columns_of_an_empty_run_is_an_empty_view(self, tmp_path):
        run = RunStore(tmp_path).create(parse_spec(SCENARIO_SPEC),
                                        run_id="fresh")
        columns = run.columns()
        assert len(columns) == 0
        assert columns.to_rows() == [] == run.rows()


class TestCompletedPointsVouch:
    """The resume fast-path: vouched shards are trusted from a stat().

    ``consolidate_columns`` reads every shard whole anyway, so it vouches
    for their ``(size, mtime_ns)`` signatures in ``columns.vouch.json``.
    ``completed_points()`` then skips opening any shard whose stat still
    matches — resume on a large mostly-complete run goes from N shard
    opens to only the uncovered/suspect ones.
    """

    def _count_reads(self, monkeypatch):
        reads = []
        real = runstore_module.read_row_shard
        monkeypatch.setattr(runstore_module, "read_row_shard",
                            lambda path: (reads.append(path), real(path))[1])
        return reads

    def test_completed_run_resume_opens_zero_shards(self, tmp_path,
                                                    monkeypatch):
        run = run_spec(parse_spec(SWEEP_SPEC), runs_dir=tmp_path)
        assert os.path.exists(run.vouch_path)
        reads = self._count_reads(monkeypatch)
        reopened = RunStore(tmp_path).open(run.run_id)
        assert reopened.completed_points() == set(range(6))
        assert reads == []

    def test_modified_shard_is_suspect_and_reopened(self, tmp_path,
                                                    monkeypatch):
        # Corrupt one shard in place: its stat signature no longer matches
        # the vouch, so it (and only it) pays a full open — which fails,
        # excluding it from the completed set.
        run = run_spec(parse_spec(SWEEP_SPEC), runs_dir=tmp_path)
        with open(run.shard_path(2), "wb") as handle:
            handle.write(b"disk corruption")
        reads = self._count_reads(monkeypatch)
        reopened = RunStore(tmp_path).open(run.run_id)
        assert reopened.completed_points() == set(range(6)) - {2}
        assert reads == [run.shard_path(2)]

    def test_missing_vouch_falls_back_to_full_scan(self, tmp_path,
                                                   monkeypatch):
        run = run_spec(parse_spec(SWEEP_SPEC), runs_dir=tmp_path)
        os.remove(run.vouch_path)
        reads = self._count_reads(monkeypatch)
        reopened = RunStore(tmp_path).open(run.run_id)
        assert reopened.completed_points() == set(range(6))
        assert len(reads) == 6  # no vouch: every shard verified whole

    def test_identity_mismatch_invalidates_whole_vouch(self, tmp_path,
                                                       monkeypatch):
        # A vouch written by a different spec/manifest must not be
        # trusted, even if the shard signatures happen to line up.
        run = run_spec(parse_spec(SWEEP_SPEC), runs_dir=tmp_path)
        with open(run.vouch_path) as handle:
            vouch = json.load(handle)
        vouch["identity"] = "0" * 16
        with open(run.vouch_path, "w") as handle:
            json.dump(vouch, handle)
        reads = self._count_reads(monkeypatch)
        reopened = RunStore(tmp_path).open(run.run_id)
        assert reopened.completed_points() == set(range(6))
        assert len(reads) == 6

    def test_partial_vouch_opens_only_uncovered_shards(self, tmp_path,
                                                       monkeypatch):
        run = run_spec(parse_spec(SWEEP_SPEC), runs_dir=tmp_path)
        with open(run.vouch_path) as handle:
            vouch = json.load(handle)
        for index in ("0", "3"):
            del vouch["shards"][index]
        with open(run.vouch_path, "w") as handle:
            json.dump(vouch, handle)
        reads = self._count_reads(monkeypatch)
        reopened = RunStore(tmp_path).open(run.run_id)
        assert reopened.completed_points() == set(range(6))
        assert sorted(reads) == [run.shard_path(0), run.shard_path(3)]

    def test_full_scan_refreshes_vouch_for_the_next_scan(self, tmp_path,
                                                         monkeypatch):
        # Shards a scan had to open whole are folded back into the vouch,
        # so the *second* status scan is free again.
        run = run_spec(parse_spec(SWEEP_SPEC), runs_dir=tmp_path)
        os.remove(run.vouch_path)
        first = self._count_reads(monkeypatch)
        assert RunStore(tmp_path).open(run.run_id).completed_points() \
            == set(range(6))
        assert len(first) == 6
        second = self._count_reads(monkeypatch)
        assert RunStore(tmp_path).open(run.run_id).completed_points() \
            == set(range(6))
        assert second == []

    def test_streamed_shards_verified_once_not_once_per_scan(self, tmp_path,
                                                             monkeypatch):
        # A run receiving remotely computed shards (a live distributed
        # sweep): each new shard pays one full open across repeated status
        # scans, not one per scan — so live counts are cheap *and* fresh.
        run = RunStore(tmp_path).create(parse_spec(SWEEP_SPEC),
                                        run_id="streamed")
        for index in range(4):
            run.write_point(index, {"x": float(index)})
        first = self._count_reads(monkeypatch)
        scan = RunStore(tmp_path).open("streamed")
        assert scan.completed_points() == set(range(4))
        assert len(first) == 4  # each streamed shard verified whole once
        run.write_point(4, {"x": 4.0})  # one more shard lands mid-run
        second = self._count_reads(monkeypatch)
        scan = RunStore(tmp_path).open("streamed")
        assert scan.completed_points() == set(range(5))
        assert second == [run.shard_path(4)]  # only the newcomer

    def test_unreadable_shard_is_never_vouched(self, tmp_path, monkeypatch):
        run = run_spec(parse_spec(SWEEP_SPEC), runs_dir=tmp_path)
        with open(run.shard_path(2), "wb") as handle:
            handle.write(b"disk corruption")
        for _ in range(2):  # suspect on every scan, not just the first
            reads = self._count_reads(monkeypatch)
            scan = RunStore(tmp_path).open(run.run_id)
            assert scan.completed_points() == set(range(6)) - {2}
            assert reads == [run.shard_path(2)]

    def test_vouch_file_never_changes_published_bytes(self, tmp_path):
        # The vouch is a cache hint, not data: the sidecar, the report and
        # the content digest are identical with and without it.
        run = run_spec(parse_spec(SWEEP_SPEC), runs_dir=tmp_path)
        with_vouch = (render_run_report(run), run.content_digest())
        os.remove(run.vouch_path)
        reopened = RunStore(tmp_path).open(run.run_id)
        assert (render_run_report(reopened),
                reopened.content_digest()) == with_vouch


class TestHeldRows:
    """Consolidation takes the rows a writing handle holds, not its shards.

    A handle keeps the row of every shard it writes, with the shard's stat
    taken right after the write; ``consolidate_columns`` reads from disk
    only the shards it did not write or whose stat has changed since.
    ``rows(source="shards")`` still reads every shard: the shards stay the
    record.
    """

    def _count_reads(self, monkeypatch):
        reads = []
        real = runstore_module.read_row_shard
        monkeypatch.setattr(runstore_module, "read_row_shard",
                            lambda path: (reads.append(path), real(path))[1])
        return reads

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fresh_run_reads_no_shard_back(self, tmp_path, monkeypatch,
                                           jobs):
        reads = self._count_reads(monkeypatch)
        run = run_spec(parse_spec(SWEEP_SPEC), runs_dir=tmp_path, jobs=jobs)
        assert run.status == "complete"
        assert reads == []
        assert run.rows(source="sidecar") == run.rows(source="shards")
        assert len(reads) == 6  # source="shards" reads every shard

    def test_sidecar_from_held_rows_matches_one_read_from_shards(
            self, tmp_path):
        run = run_spec(parse_spec(SWEEP_SPEC), runs_dir=tmp_path)
        held = open(run.columns_path, "rb").read()
        with open(run.vouch_path) as handle:
            vouched = json.load(handle)["shards"]
        reader = RunStore(tmp_path).open(run.run_id)  # holds no rows
        assert reader.consolidate_columns(force=True) == reader.columns_path
        assert open(reader.columns_path, "rb").read() == held
        with open(reader.vouch_path) as handle:
            assert json.load(handle)["shards"] == vouched
        assert sorted(vouched) == [str(index) for index in range(6)]

    def test_held_row_equals_the_row_read_back(self, tmp_path):
        run = RunStore(tmp_path).create(parse_spec(SCENARIO_SPEC),
                                        run_id="types")
        trace = np.arange(3.0)
        row = {"scheduler": "a", "count": 3, "flag": True, "work": 1.5,
               "narrow": np.float32(0.25), "small": np.int16(-2),
               "tag": np.str_("x"), "trace": trace}
        run.write_point(0, row)
        trace[0] = 99.0  # the caller reusing its array changes nothing
        held = run._held[0][1]
        back = read_row_shard(run.shard_path(0))
        assert list(held) == list(back) == list(row)
        for key in row:
            assert type(held[key]) is type(back[key]), key
        np.testing.assert_array_equal(held.pop("trace"), [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(back.pop("trace"), [0.0, 1.0, 2.0])
        assert held == back

    def test_resumed_run_reads_only_the_shards_written_before(
            self, tmp_path, monkeypatch):
        spec = parse_spec(SWEEP_SPEC)
        full = run_spec(spec, runs_dir=tmp_path / "full")
        broken = run_spec(spec, runs_dir=tmp_path / "broken", max_points=3)
        reads = self._count_reads(monkeypatch)
        resumed = resume_run(broken.run_id, runs_dir=tmp_path / "broken")
        assert resumed.status == "complete"
        assert reads == [resumed.shard_path(index) for index in range(3)]
        assert open(resumed.columns_path, "rb").read() \
            == open(full.columns_path, "rb").read()

    def test_shard_replaced_by_another_handle_is_read_from_disk(
            self, tmp_path, monkeypatch):
        run = _synthetic_complete_run(tmp_path, num_points=8)
        other = RunStore(tmp_path).open(run.run_id)
        replacement = dict(run.read_point(2), guaranteed_work=-1.0)
        other.write_point(2, replacement)  # drops the sidecar
        reads = self._count_reads(monkeypatch)
        assert run.consolidate_columns(force=True) == run.columns_path
        assert reads == [run.shard_path(2)]
        assert run.rows(source="sidecar")[2] == replacement
        assert run.rows(source="sidecar") == run.rows(source="shards")

    def test_shard_replaced_right_after_its_rename_is_read_from_disk(
            self, tmp_path, monkeypatch):
        # Another handle replaces shard 2 the moment this handle's rename
        # publishes it: the held signature is that of the file this handle
        # renamed into place, not of whatever the path holds afterwards.
        run = _synthetic_complete_run(tmp_path, num_points=8)
        other = RunStore(tmp_path).open(run.run_id)
        replacement = dict(run.read_point(2), guaranteed_work=-1.0)
        real_replace = os.replace
        raced = []

        def replace_then_overwrite(src, dst):
            real_replace(src, dst)
            if dst == run.shard_path(2) and not raced:
                raced.append(dst)
                other.write_point(2, replacement)

        monkeypatch.setattr(os, "replace", replace_then_overwrite)
        run.write_point(2, run.read_point(2))
        monkeypatch.setattr(os, "replace", real_replace)
        assert raced
        reads = self._count_reads(monkeypatch)
        assert run.consolidate_columns(force=True) == run.columns_path
        assert reads == [run.shard_path(2)]
        assert run.rows(source="sidecar")[2] == replacement

    def test_shard_replaced_during_consolidation_is_not_published(
            self, tmp_path, monkeypatch):
        # While a forced consolidation reads shard 3, another handle
        # overwrites shard 1: the rows in hand hold shard 1's old value,
        # so the pass must not publish them as the sidecar.
        run = run_spec(parse_spec(SWEEP_SPEC), runs_dir=tmp_path)
        fresh = RunStore(tmp_path).open(run.run_id)  # holds no rows
        other = RunStore(tmp_path).open(run.run_id)
        replacement = dict(run.read_point(1), guaranteed_work=-1.0)
        real = runstore_module.read_row_shard

        def read_and_overwrite(path):
            if path == fresh.shard_path(3):
                other.write_point(1, replacement)
            return real(path)

        monkeypatch.setattr(runstore_module, "read_row_shard",
                            read_and_overwrite)
        assert fresh.consolidate_columns(force=True) is None
        assert not os.path.exists(fresh.columns_path)
        monkeypatch.setattr(runstore_module, "read_row_shard", real)
        assert fresh.rows()[1] == replacement
        assert fresh.rows(source="sidecar") == fresh.rows(source="shards")
