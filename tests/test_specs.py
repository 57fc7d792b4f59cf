"""Tests for declarative experiment specs (:mod:`repro.specs`)."""

import json
import pathlib
import tomllib

import pytest

#: The committed spec files, located relative to this test file so the
#: suite passes regardless of pytest's working directory.
_SPECS_DIR = pathlib.Path(__file__).resolve().parent.parent / "specs"

from repro.specs import (
    ExperimentSpec,
    ScenarioPoint,
    SpecError,
    canonical_spec_json,
    default_run_id,
    evaluate_payload,
    expand_payloads,
    load_spec,
    parse_spec,
    spec_to_dict,
)

SCENARIO_SPEC = {
    "experiment": {"name": "t-scenario", "kind": "scenario", "seed": 3,
                   "replications": 2, "backend": "batch"},
    "scenario": {"family": "laptop",
                 "schedulers": ["equalizing-adaptive", "fixed-period"]},
}

SWEEP_SPEC = {
    "experiment": {"name": "t-sweep", "kind": "sweep", "seed": 0,
                   "replications": 3},
    "sweep": {"lifespans": [100.0, 200.0], "interrupts": [1],
              "schedulers": ["equalizing-adaptive", "single-period"],
              "adversaries": ["poisson-owner"], "optimal": True},
}

SCENARIO_TOML = """\
# comment line
[experiment]
name = "t-scenario"          # trailing comment
kind = "scenario"
seed = 3
replications = 2
backend = "batch"

[scenario]
family = "laptop"
schedulers = ["equalizing-adaptive", "fixed-period"]
"""


class TestParsing:
    def test_parse_scenario_spec(self):
        spec = parse_spec(SCENARIO_SPEC)
        assert spec.kind == "scenario" and spec.family == "laptop"
        assert spec.schedulers == ("equalizing-adaptive", "fixed-period")
        assert spec.seed == 3 and spec.replications == 2
        assert spec.backend == "batch"

    def test_parse_sweep_spec(self):
        spec = parse_spec(SWEEP_SPEC)
        assert spec.kind == "sweep"
        assert spec.lifespans == (100.0, 200.0)
        assert spec.interrupts == (1,)
        assert spec.adversaries == ("poisson-owner",)
        assert spec.optimal is True
        assert spec.to_grid().size == 4

    def test_dict_round_trip(self):
        for data in (SCENARIO_SPEC, SWEEP_SPEC):
            spec = parse_spec(data)
            assert parse_spec(spec_to_dict(spec)) == spec

    def test_toml_and_json_forms_agree(self, tmp_path):
        toml_path = tmp_path / "spec.toml"
        toml_path.write_text(SCENARIO_TOML)
        json_path = tmp_path / "spec.json"
        json_path.write_text(json.dumps(SCENARIO_SPEC))
        assert load_spec(toml_path) == load_spec(json_path)

    def test_committed_specs_all_validate(self):
        paths = sorted(_SPECS_DIR.glob("*.toml")) + sorted(_SPECS_DIR.glob("*.json"))
        assert len(paths) >= 9
        families = set()
        for path in paths:
            spec = load_spec(path)
            assert expand_payloads(spec)
            if spec.kind == "scenario":
                families.add(spec.family)
        # every registered family is runnable from a committed spec
        assert families == {"laptop", "desktops", "lab", "office", "cluster",
                            "flaky", "diurnal", "fleet"}

    def test_run_id_is_deterministic_and_content_sensitive(self):
        a = parse_spec(SCENARIO_SPEC)
        b = parse_spec(json.loads(json.dumps(SCENARIO_SPEC)))
        assert default_run_id(a) == default_run_id(b)
        assert default_run_id(a).startswith("t-scenario-")
        changed = dict(SCENARIO_SPEC,
                       experiment=dict(SCENARIO_SPEC["experiment"], seed=4))
        assert default_run_id(parse_spec(changed)) != default_run_id(a)
        assert canonical_spec_json(a) == canonical_spec_json(b)


class TestMalformedSpecs:
    """Error messages must be actionable: say where, what, and what's allowed."""

    def assert_error(self, data, *needles, source=None):
        with pytest.raises(SpecError) as excinfo:
            parse_spec(data, source=source)
        message = str(excinfo.value)
        for needle in needles:
            assert needle in message, (needle, message)
        return message

    def test_missing_experiment_table(self):
        self.assert_error({}, "[experiment]")

    def test_bad_kind_lists_choices(self):
        data = {"experiment": {"name": "x", "kind": "banana"}}
        self.assert_error(data, "sweep", "scenario", "banana")

    def test_unknown_key_lists_allowed(self):
        data = {"experiment": dict(SCENARIO_SPEC["experiment"], typo=1),
                "scenario": SCENARIO_SPEC["scenario"]}
        self.assert_error(data, "typo", "allowed")

    def test_unknown_scheduler_lists_registry_names(self):
        data = {"experiment": SCENARIO_SPEC["experiment"],
                "scenario": {"family": "laptop", "schedulers": ["warp-drive"]}}
        self.assert_error(data, "warp-drive", "equalizing-adaptive")

    def test_unknown_family_lists_registry_names(self):
        data = {"experiment": SCENARIO_SPEC["experiment"],
                "scenario": {"family": "mars-rover"}}
        self.assert_error(data, "mars-rover", "laptop")

    def test_source_path_is_woven_into_message(self):
        message = self.assert_error({}, "spec.toml", source="spec.toml")
        assert "spec.toml" in message

    def test_scenario_needs_replications(self):
        data = {"experiment": {"name": "x", "kind": "scenario"},
                "scenario": {"family": "laptop"}}
        self.assert_error(data, "replications")

    def test_adversaries_scalar_or_bare_string_get_a_spec_error(self):
        exp = {"name": "x", "kind": "sweep"}
        base_sweep = {"lifespans": [100.0],
                      "schedulers": ["equalizing-adaptive"]}
        # A scalar must not raise a raw TypeError...
        self.assert_error({"experiment": exp,
                           "sweep": {**base_sweep, "adversaries": 5}},
                          "sweep.adversaries")
        # ...and a bare string must not be split into characters.
        self.assert_error({"experiment": exp,
                           "sweep": {**base_sweep,
                                     "adversaries": "poisson-owner"}},
                          "sweep.adversaries")

    def test_sweep_replications_need_adversaries(self):
        data = {"experiment": {"name": "x", "kind": "sweep", "replications": 5},
                "sweep": {"lifespans": [100.0],
                          "schedulers": ["equalizing-adaptive"]}}
        self.assert_error(data, "adversaries")

    def test_nonadaptive_scheduler_rejected_for_scenarios(self):
        data = {"experiment": SCENARIO_SPEC["experiment"],
                "scenario": {"family": "laptop",
                             "schedulers": ["rosenberg-nonadaptive"]}}
        self.assert_error(data, "rosenberg-nonadaptive", "NOW simulator")

    def test_wrong_tables_for_kind(self):
        self.assert_error({"experiment": {"name": "x", "kind": "sweep"},
                           "sweep": {"lifespans": [1.0],
                                     "schedulers": ["equalizing-adaptive"]},
                           "scenario": {"family": "laptop"}}, "[scenario]")

    def test_bad_value_types(self):
        base = {"experiment": dict(SCENARIO_SPEC["experiment"]),
                "scenario": dict(SCENARIO_SPEC["scenario"])}
        bad_seed = {**base, "experiment": {**base["experiment"], "seed": "zero"}}
        self.assert_error(bad_seed, "experiment.seed")
        bad_backend = {**base,
                       "experiment": {**base["experiment"], "backend": "warp"}}
        self.assert_error(bad_backend, "backend", "event")

    def test_root_must_be_a_table(self):
        with pytest.raises(SpecError):
            parse_spec(["not", "a", "table"])

    def test_empty_name_rejected(self):
        self.assert_error({"experiment": {"name": "", "kind": "sweep"}},
                          "experiment.name")

    def test_negative_seed_rejected(self):
        data = {"experiment": dict(SCENARIO_SPEC["experiment"], seed=-1),
                "scenario": SCENARIO_SPEC["scenario"]}
        self.assert_error(data, "experiment.seed")

    def test_bad_sweep_value_shapes(self):
        exp = {"name": "x", "kind": "sweep"}
        self.assert_error({"experiment": exp,
                           "sweep": {"lifespans": [],
                                     "schedulers": ["equalizing-adaptive"]}},
                          "sweep.lifespans")
        self.assert_error({"experiment": exp,
                           "sweep": {"lifespans": ["a"],
                                     "schedulers": ["equalizing-adaptive"]}},
                          "numbers")
        self.assert_error({"experiment": exp,
                           "sweep": {"lifespans": [100.0], "interrupts": [1.5],
                                     "schedulers": ["equalizing-adaptive"]}},
                          "integers")
        self.assert_error({"experiment": exp,
                           "sweep": {"lifespans": [100.0], "schedulers": [1]}},
                          "strings")
        self.assert_error({"experiment": exp,
                           "sweep": {"lifespans": [100.0], "optimal": "yes",
                                     "schedulers": ["equalizing-adaptive"]}},
                          "sweep.optimal")

    def test_scenario_params_typo_caught_at_parse_time(self):
        exp = SCENARIO_SPEC["experiment"]
        message = self.assert_error(
            {"experiment": exp,
             "scenario": {"family": "laptop",
                          "params": {"num_machine": 5}}},  # typo
            "num_machine", "laptop")
        assert "not valid" in message

    def test_scenario_params_must_not_set_seed(self):
        exp = SCENARIO_SPEC["experiment"]
        self.assert_error(
            {"experiment": exp,
             "scenario": {"family": "laptop", "params": {"seed": 1}}},
            "seed", "experiment.seed")

    def test_bad_scenario_value_shapes(self):
        exp = SCENARIO_SPEC["experiment"]
        self.assert_error({"experiment": exp, "scenario": {"family": 7}},
                          "scenario.family")
        self.assert_error({"experiment": exp,
                           "scenario": {"family": "laptop", "params": [1]}},
                          "scenario.params")

    def test_invalid_toml_reports_path(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("[unclosed\n")
        with pytest.raises(SpecError) as excinfo:
            load_spec(path)
        assert "bad.toml" in str(excinfo.value)

    @pytest.mark.parametrize("text", [
        "just some words\n",
        "key =\n",
        "[a..b]\n",
        "a = 1\n[a]\n",
        'xs = ["unterminated]\n',
        " = 1\n",
    ], ids=["bare-words", "missing-value", "empty-table-name",
            "table-redefines-key", "unterminated-string", "missing-key"])
    def test_toml_syntax_errors_are_spec_errors(self, tmp_path, text):
        path = tmp_path / "bad.toml"
        path.write_text(text)
        with pytest.raises(SpecError, match="invalid TOML") as excinfo:
            load_spec(path)
        assert "bad.toml" in str(excinfo.value)

    def test_bad_file_extension_and_missing_file(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("x")
        with pytest.raises(SpecError):
            load_spec(path)
        with pytest.raises(SpecError):
            load_spec(tmp_path / "missing.toml")

    def test_invalid_json_reports_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SpecError) as excinfo:
            load_spec(path)
        assert "bad.json" in str(excinfo.value)


class TestFamilyParams:
    def test_scenario_params_round_trip_and_reach_the_generator(self):
        data = {
            "experiment": {"name": "custom", "kind": "scenario",
                           "replications": 2, "backend": "batch"},
            "scenario": {"family": "laptop",
                         "schedulers": ["equalizing-adaptive"],
                         "params": {"lifespan": 120.0, "interrupt_budget": 1}},
        }
        spec = parse_spec(data)
        assert spec.family_params == {"lifespan": 120.0, "interrupt_budget": 1}
        assert parse_spec(spec_to_dict(spec)) == spec
        (payload,) = expand_payloads(spec)
        row = evaluate_payload(payload)
        assert row["work_n"] == 2

    def test_scenario_params_from_toml_subtable(self):
        spec = parse_spec(tomllib.loads(
            '[experiment]\nname = "x"\nkind = "scenario"\nreplications = 1\n'
            '[scenario]\nfamily = "laptop"\n'
            '[scenario.params]\nlifespan = 90.0\n'))
        assert spec.family_params == {"lifespan": 90.0}


    def test_scenario_params_from_toml_inline_table(self, tmp_path):
        path = tmp_path / "inline.toml"
        path.write_text(
            '[experiment]\nname = "x"\nkind = "scenario"\nreplications = 1\n'
            '[scenario]\nfamily = "laptop"\n'
            'params = {lifespan = 90.0, interrupt_budget = 1}\n')
        assert load_spec(path).family_params == {"lifespan": 90.0,
                                                 "interrupt_budget": 1}

    def test_toml_number_and_boolean_spellings(self, tmp_path):
        path = tmp_path / "numbers.toml"
        path.write_text(
            '[experiment]\nname = "x"\nkind = "sweep"\nseed = 0x10\n'
            'replications = 1_000\n'
            '[sweep]\nlifespans = [1e2, 2_00.5]\ninterrupts = [1]\n'
            'schedulers = ["equalizing-adaptive"]\n'
            'adversaries = ["poisson-owner"]\noptimal = true\n')
        spec = load_spec(path)
        assert spec.seed == 16 and spec.replications == 1000
        assert spec.lifespans == (100.0, 200.5)
        assert spec.optimal is True


class TestPayloads:
    def test_scenario_payload_expansion_order(self):
        spec = parse_spec(SCENARIO_SPEC)
        payloads = expand_payloads(spec)
        assert [p.scheduler for p in payloads] == list(spec.schedulers)
        assert all(isinstance(p, ScenarioPoint) for p in payloads)
        assert [p.index for p in payloads] == [0, 1]

    def test_sweep_payload_expansion_matches_grid(self):
        spec = parse_spec(SWEEP_SPEC)
        payloads = expand_payloads(spec, cache_dir="/tmp/somewhere")
        assert len(payloads) == spec.to_grid().size
        point, config = payloads[0]
        assert config.cache_dir == "/tmp/somewhere"
        assert config.replications == 3 and config.include_optimal is True

    def test_evaluate_scenario_payload(self):
        spec = parse_spec({
            "experiment": {"name": "tiny", "kind": "scenario",
                           "replications": 2, "backend": "batch"},
            "scenario": {"family": "laptop",
                         "schedulers": ["equalizing-adaptive"]},
        })
        (payload,) = expand_payloads(spec)
        row = evaluate_payload(payload)
        assert row["family"] == "laptop"
        assert row["scheduler"] == "equalizing-adaptive"
        assert row["work_n"] == 2 and row["work_mean"] > 0.0

    def test_scenario_backends_agree(self):
        base = {
            "experiment": {"name": "tiny", "kind": "scenario",
                           "replications": 2},
            "scenario": {"family": "laptop",
                         "schedulers": ["equalizing-adaptive"]},
        }
        rows = {}
        for backend in ("event", "batch"):
            data = {**base, "experiment": {**base["experiment"],
                                           "backend": backend}}
            (payload,) = expand_payloads(parse_spec(data))
            rows[backend] = evaluate_payload(payload)
        assert rows["event"]["work_mean"] == pytest.approx(
            rows["batch"]["work_mean"], rel=1e-9)


class TestSpecDataclass:
    def test_to_grid_requires_sweep_kind(self):
        spec = parse_spec(SCENARIO_SPEC)
        with pytest.raises(SpecError):
            spec.to_grid()

    def test_num_points(self):
        assert parse_spec(SCENARIO_SPEC).num_points() == 2
        assert parse_spec(SWEEP_SPEC).num_points() == 4

    def test_specs_are_plain_picklable_data(self):
        import pickle

        spec = parse_spec(SWEEP_SPEC)
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert isinstance(spec, ExperimentSpec)


class TestLazyExpansion:
    """expand_payload_at / payload digests — the run store's lazy resume."""

    def test_expand_payload_at_matches_full_expansion(self):
        from repro.specs import expand_payload_at

        for raw in (SWEEP_SPEC, SCENARIO_SPEC):
            spec = parse_spec(raw)
            full = expand_payloads(spec)
            for i in range(len(full)):
                assert expand_payload_at(spec, i) == full[i]

    def test_count_payloads_matches_expansion(self):
        from repro.specs import count_payloads

        for raw in (SWEEP_SPEC, SCENARIO_SPEC):
            spec = parse_spec(raw)
            assert count_payloads(spec) == len(expand_payloads(spec))

    def test_grid_point_at_matches_points(self):
        spec = parse_spec({
            "experiment": {"name": "big", "kind": "sweep", "seed": 0,
                           "replications": 1},
            "sweep": {"lifespans": [100.0, 200.0, 300.0],
                      "setup_costs": [1.0, 2.0], "interrupts": [1, 2],
                      "schedulers": ["equalizing-adaptive", "single-period"],
                      "adversaries": ["poisson-owner", "uniform-owner"]},
        })
        grid = spec.to_grid()
        points = grid.points()
        assert grid.size == len(points) == 48
        for i, point in enumerate(points):
            assert grid.point_at(i) == point

    def test_point_at_rejects_out_of_range(self):
        from repro.core.exceptions import InvalidParameterError

        grid = parse_spec(SWEEP_SPEC).to_grid()
        with pytest.raises(InvalidParameterError):
            grid.point_at(grid.size)
        with pytest.raises(InvalidParameterError):
            grid.point_at(-1)

    def test_expand_payload_at_rejects_bad_scenario_index(self):
        from repro.specs import expand_payload_at

        with pytest.raises(SpecError):
            expand_payload_at(parse_spec(SCENARIO_SPEC), 2)

    def test_payload_digests_are_stable_and_identity_only(self):
        from repro.specs import expand_payload_at, payload_digest, payload_digests

        spec = parse_spec(SWEEP_SPEC)
        digests = payload_digests(spec)
        assert len(digests) == len(expand_payloads(spec))
        assert len(set(digests)) == len(digests)  # one identity per point
        # Execution knobs (profile, cache_dir) never change the identity.
        assert payload_digest(expand_payload_at(spec, 1, profile=True,
                                                cache_dir="/tmp/x")) \
            == digests[1]
        # ... but result-shaping knobs do.
        other = parse_spec({**SWEEP_SPEC,
                            "experiment": {**SWEEP_SPEC["experiment"],
                                           "seed": 99}})
        assert payload_digests(other) != digests

    def test_scenario_digests_cover_family_params(self):
        from repro.specs import payload_digests

        base = parse_spec(SCENARIO_SPEC)
        tweaked = parse_spec({**SCENARIO_SPEC,
                              "scenario": {**SCENARIO_SPEC["scenario"],
                                           "params": {"lifespan": 300.0}}})
        assert payload_digests(base) != payload_digests(tweaked)
