"""The repository benchmark: one workload, end to end or layer by layer.

    python3 perfbench/run.py --workload gap-sweep --seed 0 --seconds 30 --trace 0

Generates the workload's spec from ``--seed`` and runs it in fresh
interpreters (``perfbench/program.py``), one after another — a closed loop
with one client — until ``--seconds`` are used up, checking every stored
row of every iteration (``perfbench/rowcheck.py``).  Runs use a fresh
temporary runs directory under ``.perfbench/`` and the default DP cache,
and leave nothing else behind.

``--trace 0`` reports the end-to-end metrics, each the median over the
iterations: ``setup_s``, ``run_s``, ``cpu_s`` and ``peak_rss_mib``.  Set-up
is also sampled by interpreters that stop where ``run_spec`` would be
entered, so its median rests on at least :data:`SETUP_PROBES` more samples.

Timings are calibrated against the host's speed.  On a shared host, other
tenants' load slows a CPU by up to 2x in episodes that last from seconds to
minutes, longer than a run.  So every interpreter is pinned to the CPUs its
workload uses, and a fixed reference computation (:func:`reference_s`,
pure Python plus numpy, nothing from the program) is timed on those CPUs
before and after it.  Each timing is divided by the mean of the two
reference times over :data:`REFERENCE_S`, its duration on an unloaded
host: it reads as seconds on that host.  The raw medians and the host's
slowdown are printed beside the metrics.

``--trace 1`` alternates an untraced and a traced iteration (plus, for a
multi-process workload, a traced serial iteration of the same spec) and
reports the per-layer metrics of ``perfbench/tracing.py``, each the median
over the traced iterations.  Spans are written to ``.perfbench/traces/``.

The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (points run and points that failed their row
check) and ``metrics``.  The lines before it print every metric by name,
with its unit, and the error rate.  The exit code is 0 whenever a result
is printed; it is not 0, with no result, when the program cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAM = os.path.join(HERE, "program.py")
WORK_DIR = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)
from rowcheck import canonical, check_rows, load_expected  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

#: Set-up-only interpreters per run, besides one unmeasured warm-up.
SETUP_PROBES = 8
#: Fewest iterations a run makes, whatever ``--seconds`` says.
MIN_ITERATIONS = 3
#: Every process of one run must have ended by then (seconds).
DEADLINE_S = 170.0
#: :func:`reference_s` on an unloaded CPU of the 2-vCPU Xeon host (seconds).
REFERENCE_S = 0.11


def reference_s(cpu: int) -> float:
    """Time of a fixed pure-Python and numpy computation on one CPU.

    It uses nothing from the program, so a change to the program cannot
    move it; it moves only with the host's speed.  Leaves this process
    pinned to ``cpu``.
    """
    os.sched_setaffinity(0, {cpu})
    data = np.random.default_rng(0).random(1 << 16)
    started = time.perf_counter()
    for _ in range(15):
        total = 0
        for i in range(100_000):
            total += i * i
        for _ in range(4):
            np.sort(data)
    return time.perf_counter() - started


def declared_units(section: str) -> Dict[str, str]:
    """Metric name -> unit of one metric list of BENCHMARK.json, in order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"]
                for metric in json.load(handle)[section]}


class BenchError(RuntimeError):
    """The program could not be run; no result is printed."""


class Bench:
    """One benchmark run: its workload, spec, temporary directory and row checks."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.started = time.monotonic()
        self.deadline = self.started + DEADLINE_S
        spec = self.workload.spec(seed)
        self.expected = load_expected(spec["experiment"]["name"])
        os.makedirs(WORK_DIR, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR)
        self.spec_path = os.path.join(self.tmp, "spec.json")
        with open(self.spec_path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        self.attempted = 0
        self.failed = 0
        #: Why points failed, or why the run's own checks did.
        self.failures: List[str] = []
        self.env = {key: value for key, value in os.environ.items()
                    if not key.startswith("REPRO_")}
        self.env["PYTHONPATH"] = os.path.join(ROOT, "src")
        #: The CPUs every interpreter of this run is pinned to.
        self.cpus = sorted(os.sched_getaffinity(0))[:self.workload.jobs]
        #: The host's slowdown measured after the last interpreter ended.
        self.last_slowdown: Optional[float] = None

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def slowdown(self) -> float:
        """How much slower than an unloaded host this run's CPUs are now.

        Leaves this process, and so the next interpreter, pinned to them.
        """
        factor = statistics.fmean(reference_s(cpu) for cpu in self.cpus)
        os.sched_setaffinity(0, self.cpus)
        return factor / REFERENCE_S

    def spawn(self, *args: str) -> Dict[str, Any]:
        """Run the program once in a fresh interpreter; its JSON result.

        ``slowdown`` in the result is the host's slowdown over the run: the
        mean of the measurements just before and just after it.
        """
        before = self.last_slowdown or self.slowdown()
        result = self._spawn(*args)
        self.last_slowdown = self.slowdown()
        result["slowdown"] = (before + self.last_slowdown) / 2
        return result

    def _spawn(self, *args: str) -> Dict[str, Any]:
        workdir = tempfile.mkdtemp(dir=self.tmp)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before the run finished")
        try:
            spawned = time.monotonic()
            # A new process group, so a timeout also ends its pool workers.
            proc = subprocess.Popen(
                [sys.executable, PROGRAM, "--spawned-at", repr(spawned),
                 "--spec", self.spec_path,
                 "--runs-dir", os.path.join(workdir, "runs"), *args],
                cwd=workdir, env=self.env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, start_new_session=True)
            try:
                stdout, stderr = proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired as exc:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise BenchError(f"program timed out after {timeout:.0f}s") from exc
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            raise BenchError(f"program exited with {proc.returncode}:\n"
                             f"{stderr[-2000:]}")
        try:
            return json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, ValueError) as exc:
            raise BenchError(f"program printed no result: {stdout[-500:]!r}"
                             ) from exc

    def setup(self) -> Dict[str, Any]:
        return self.spawn("--setup-only")

    def iteration(self, jobs: int, trace: Optional[str] = None) -> Dict[str, Any]:
        args = ["--jobs", str(jobs)]
        if trace is not None:
            args += ["--trace-out", os.path.join(WORK_DIR, "traces",
                                                 f"{trace.replace('/', '-')}.npz"),
                     "--trace-label", trace]
        result = self.spawn(*args)
        self.check(result["rows"], trace or "untraced")
        return result

    def check(self, rows, label: str) -> None:
        for index, errors in enumerate(check_rows(
                rows, self.expected, seed=self.seed, default_seed=DEFAULT_SEED)):
            self.attempted += 1
            if errors:
                self.failed += 1
                self.failures.append(f"{label} point {index}: {'; '.join(errors)}")

    def same_rows(self, rows, reference, label: str) -> None:
        """Traced rows must be byte-identical to untraced ones."""
        for index, (row, want) in enumerate(zip(rows, reference)):
            if canonical([row]) != canonical([want]):
                self.failed += 1
                self.failures.append(f"{label} point {index}: row differs "
                                     "from the untraced row")

    def time_left_for(self, durations: List[float], minimum: int) -> bool:
        """Is there room for one more iteration of the typical duration?"""
        if len(durations) < minimum:
            return True
        elapsed = time.monotonic() - self.started
        return elapsed + statistics.median(durations) <= self.seconds


def measure(bench: Bench, units: Dict[str, str]) -> Dict[str, float]:
    """End-to-end metrics: medians over untraced iterations, timings calibrated."""
    bench.setup()  # warm-up: bytecode caches and the page cache
    setups = [bench.setup() for _ in range(SETUP_PROBES)]
    runs: List[Dict[str, Any]] = []
    durations: List[float] = []
    while bench.time_left_for(durations, MIN_ITERATIONS):
        started = time.monotonic()
        runs.append(bench.iteration(bench.workload.jobs))
        durations.append(time.monotonic() - started)
    spawns = setups + runs
    samples = {
        "setup_s": [spawn["setup_s"] / spawn["slowdown"] for spawn in spawns],
        **{name: [run[name] / run["slowdown"] for run in runs]
           for name in ("run_s", "cpu_s")},
        "peak_rss_mib": [run["peak_rss_mib"] for run in runs],
    }
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    _describe(metrics, units, samples)
    slowdowns = [spawn["slowdown"] for spawn in spawns]
    print(f"host slowdown {statistics.median(slowdowns):.4g}x "
          f"(from {min(slowdowns):.4g}x to {max(slowdowns):.4g}x); uncalibrated "
          f"medians: setup_s {statistics.median(s['setup_s'] for s in spawns):.6g} s, "
          + ", ".join(f"{name} {statistics.median(run[name] for run in runs):.6g} s"
                      for name in ("run_s", "cpu_s")))
    return metrics


def measure_layers(bench: Bench, units: Dict[str, str]) -> Dict[str, float]:
    """Per-layer metrics: medians over traced iterations."""
    jobs = bench.workload.jobs
    samples: List[Dict[str, float]] = []
    durations: List[float] = []
    while bench.time_left_for(durations, 1):
        started = time.monotonic()
        label = f"{bench.workload.name}/r{len(samples)}"
        plain = bench.iteration(jobs)
        traced = bench.iteration(jobs, trace=label)
        serial = traced if jobs == 1 else bench.iteration(
            1, trace=f"{label}-serial")
        durations.append(time.monotonic() - started)
        bench.same_rows(traced["rows"], plain["rows"], label)
        if serial is not traced:
            bench.same_rows(serial["rows"], plain["rows"], f"{label}-serial")
        summary = traced["trace"]
        if not summary["reconciles"]:
            bench.failures.append("self times plus trace.unaccounted_s do not "
                                  "add up to trace.run_s")
        sample = dict(summary["metrics"])
        sample["montecarlo.reps_per_s"] = (
            sample["montecarlo.reps"] / summary["montecarlo_s"]
            if summary["montecarlo_s"] else 0.0)
        sample["orchestrator.first_shard_s"] = plain["first_shard_s"]
        sample["orchestrator.scaling_eff"] = (
            serial["trace"]["busy_s"] / (jobs * summary["compute_wall_s"]))
        sample["trace.overhead"] = (traced["run_s"] / traced["slowdown"]) / (
            plain["run_s"] / plain["slowdown"]) - 1.0
        samples.append(sample)
    metrics = {name: statistics.median(sample[name] for sample in samples)
               for name in units}
    _describe(metrics, units, {name: [sample[name] for sample in samples]
                               for name in units})
    return metrics


def _describe(metrics: Dict[str, float], units: Dict[str, str],
              samples: Dict[str, List[float]]) -> None:
    for name, value in metrics.items():
        values = samples[name]
        spread = ""
        if len(values) >= 2:
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (f"  ({len(values)} samples; min {min(values):.6g}, "
                      f"quartiles {q1:.6g} {median:.6g} {q3:.6g})")
        print(f"{name:34s} {value:14.6g} {units[name]}{spread}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2

    units = declared_units("per_layer" if args.trace else "end_to_end")
    bench = Bench(args.workload, args.seed, args.seconds)
    try:
        print(f"workload {args.workload} seed {args.seed} "
              f"({'per-layer, traced' if args.trace else 'end to end'}; "
              f"jobs={bench.workload.jobs})")
        metrics = (measure_layers if args.trace else measure)(bench, units)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.close()
    for failure in bench.failures[:20]:
        print(f"FAILED {failure}")
    print(f"error_rate {bench.failed / bench.attempted:.6g} "
          f"({bench.failed} of {bench.attempted} points failed their check)")
    print(json.dumps({
        "correct": not bench.failures, "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
