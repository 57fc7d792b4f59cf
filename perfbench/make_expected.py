"""Regenerate the committed expected rows and the environment record.

    python3 perfbench/make_expected.py

Runs each workload's spec at the default seed through ``run_spec`` and
writes ``perfbench/expected/<spec name>.json``.  For streaming specs the
quantile columns are replaced by those of an exact-aggregation run of the
same spec, so the row check can hold the P² estimates to a tolerance
around the exact values.  ``perfbench/expected/environment.json`` records
where the rows were derived: git commit, Python and numpy versions, CPU
count and model.  Prints every expected file whose rows changed.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from repro.runstore import run_spec  # noqa: E402
from repro.specs import parse_spec  # noqa: E402
from rowcheck import QUANTILES, expected_path  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def stored_rows(spec_data, workdir: str):
    run = run_spec(parse_spec(spec_data), runs_dir=workdir, jobs=1)
    return run.rows()


def expected_rows(spec_data, workdir: str):
    rows = stored_rows(spec_data, os.path.join(workdir, "as-specified"))
    if spec_data["experiment"].get("aggregation") != "streaming":
        return rows
    exact = dict(spec_data, experiment=dict(spec_data["experiment"],
                                            aggregation="exact"))
    for row, exact_row in zip(rows, stored_rows(exact, os.path.join(
            workdir, "exact"))):
        for key in row:
            if key.rsplit("_", 1)[-1] in QUANTILES:
                row[key] = exact_row[key]
    return rows


def environment():
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {"git_commit": commit, "python": platform.python_version(),
            "numpy": np.__version__, "nproc": os.cpu_count(),
            "cpu_model": model, "default_seed": DEFAULT_SEED}


def main() -> int:
    specs = {}
    for workload in WORKLOADS.values():
        data = workload.spec(DEFAULT_SEED)
        specs[data["experiment"]["name"]] = data
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="expected-",
                               dir=os.path.join(ROOT, ".perfbench"))
    try:
        for name, data in specs.items():
            payload = {"spec": data,
                       "replications": data["experiment"]["replications"],
                       "rows": expected_rows(data, os.path.join(workdir, name))}
            path = expected_path(name)
            try:
                with open(path, encoding="utf-8") as handle:
                    changed = json.load(handle)["rows"] != payload["rows"]
            except (OSError, ValueError, KeyError):
                changed = True
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=1, sort_keys=True)
                handle.write("\n")
            print(f"{'changed' if changed else 'unchanged'}: {path}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(HERE, "expected", "environment.json"), "w",
              encoding="utf-8") as handle:
        json.dump(environment(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
