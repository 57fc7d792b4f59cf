"""The curated public facade and its keyword-only entry points.

``repro.__all__`` is the supported surface (docs/api.md): every name must
resolve, the heavy ones must resolve *lazily*, and the config-bearing
parameters of the blessed entry points are keyword-only.
"""

import inspect
import pathlib
import subprocess
import sys
import tomllib

import pytest

import repro
from repro.experiments.grid import SweepPoint
from repro.experiments.montecarlo import replicate_point
from repro.runstore import ROW_SOURCES, resume_run, run_spec
from repro.specs import parse_spec

SPEC = {
    "experiment": {"name": "facade", "kind": "sweep", "seed": 0,
                   "replications": 0},
    "sweep": {"lifespans": [40.0], "setup_costs": [1.0], "interrupts": [1],
              "schedulers": ["equalizing-adaptive"]},
}


class TestFacade:
    def test_every_public_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_blessed_entry_points_are_exported(self):
        for name in ("run_spec", "resume_run", "Run", "RunColumns",
                     "Catalog", "CatalogError", "export_frame",
                     "ExperimentSpec", "load_spec", "parse_spec",
                     "spec_digest", "spec_summary", "replicate_point",
                     "SCHEDULERS", "ADVERSARIES", "SCENARIO_FAMILIES"):
            assert name in repro.__all__, name

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError, match="no attribute"):
            repro.definitely_not_an_export

    def test_facade_is_lazy(self):
        # `import repro` must not drag in the run store / catalog /
        # experiments machinery; touching a facade name loads it then.
        code = (
            "import sys, repro\n"
            "heavy = [m for m in ('repro.runstore', 'repro.catalog',"
            " 'repro.experiments.montecarlo') if m in sys.modules]\n"
            "assert not heavy, f'eagerly imported: {heavy}'\n"
            "repro.Catalog\n"
            "assert 'repro.catalog' in sys.modules\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_dir_lists_lazy_exports(self):
        listing = dir(repro)
        assert "Catalog" in listing and "run_spec" in listing


class TestSharedSourceVocabulary:
    def test_row_sources_constant(self):
        assert ROW_SOURCES == ("auto", "sidecar", "shards")

    def test_rows_columns_and_schema_share_the_error(self, tmp_path):
        run = run_spec(parse_spec(SPEC), runs_dir=str(tmp_path))
        for method in (run.rows, run.columns, run.column_schema):
            with pytest.raises(ValueError,
                               match="unknown source 'bogus'"):
                method(source="bogus")

    def test_column_schema_exposes_dtypes(self, tmp_path):
        run = run_spec(parse_spec(SPEC), runs_dir=str(tmp_path))
        schema = run.column_schema()
        assert schema["lifespan"] == "<f8"
        assert schema["max_interrupts"] == "<i8"
        assert set(schema) == set(run.rows()[0])


def test_positional_config_argument_is_a_type_error(tmp_path):
    with pytest.raises(TypeError, match="positional"):
        run_spec(parse_spec(SPEC), str(tmp_path))


class TestKeywordOnlyEntryPoints:
    @pytest.mark.parametrize("func, positional", [
        (run_spec, ("spec",)),
        (resume_run, ("run_id",)),
        (replicate_point, ("point", "replications")),
    ], ids=["run_spec", "resume_run", "replicate_point"])
    def test_config_parameters_are_keyword_only(self, func, positional):
        params = inspect.signature(func).parameters.values()
        assert tuple(param.name for param in params
                     if param.kind is not param.KEYWORD_ONLY) == positional

    def test_replicate_point_positional_base_seed_is_a_type_error(self):
        point = SweepPoint(index=0, lifespan=80.0, setup_cost=1.0,
                           max_interrupts=1, scheduler="equalizing-adaptive",
                           adversary="poisson-owner")
        with pytest.raises(TypeError, match="positional"):
            replicate_point(point, 4, 7)
        assert replicate_point(point, 4, base_seed=7)["work_n"] == 4


def test_package_and_project_versions_match():
    pyproject = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert repro.__version__ == project["version"]
