"""Declarative experiment specs: TOML/JSON files that *name* an experiment.

A spec is a small, self-describing file that pins down everything needed to
reproduce an experiment — which scenario family or parameter grid, which
schedulers and adversaries (by :mod:`repro.registry` name), how many
Monte-Carlo replications, which backend, and the base seed.  Committed
specs under ``specs/`` *are* the experiments of this repository: running
one (``python -m repro run specs/laptop.toml``) streams results into the
resumable run store of :mod:`repro.runstore`, and the rendered report of
:mod:`repro.reporting.report` is a pure function of the stored rows.

Two spec kinds exist, mirroring the two experiment styles of the library:

``kind = "sweep"``
    The analytic/Monte-Carlo grid of ``repro sweep``: lifespans ``U`` ×
    set-up costs ``c`` × interrupt budgets ``p`` × schedulers ×
    adversaries, each point evaluated for exact guaranteed work,
    optionally the DP optimum ``W^(p)[U]``, and optionally ``N``
    replications against the named stochastic owners.
``kind = "scenario"``
    Replication of one scenario family through the NOW simulator: ``N``
    independently seeded instances of the family per scheduler, with the
    same instances shared across schedulers (paired comparison).

Units and notation: lifespans and set-up costs are in the paper's single
time unit (``U`` — written ``L`` on the integer DP grid — and ``c``);
interrupt budgets are counts (the paper's ``p``); seeds and replication
counts are dimensionless integers.

File format
-----------
TOML (parsed with :mod:`tomllib`) or JSON with the same structure::

    [experiment]
    name = "laptop-typical-day"     # required
    kind = "scenario"               # "sweep" | "scenario"
    seed = 0                        # base seed (default 0)
    replications = 200              # Monte-Carlo layer (required for scenario)
    backend = "batch"               # "event" | "batch" (default "event")
    aggregation = "auto"            # "exact" | "streaming" | "auto" (default)
    chunk_size = 4096               # streaming chunk size (optional)
    variance = "none"               # "none" | "antithetic" | "stratified"

    [scenario]                      # when kind = "scenario"
    family = "laptop"               # a repro.registry.SCENARIO_FAMILIES name
    schedulers = ["equalizing-adaptive", "fixed-period"]

    [sweep]                         # when kind = "sweep"
    lifespans = [200.0, 400.0]
    setup_costs = [1.0]
    interrupts = [1, 2]
    schedulers = ["equalizing-adaptive", "rosenberg-nonadaptive"]
    adversaries = ["poisson-owner"]
    optimal = true                  # also compute the exact DP optimum

Every name is validated against the registries at parse time, so a typo
fails immediately with the list of known names — not an hour into a sweep.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from .core.exceptions import CycleStealingError
from .registry import ADVERSARIES, SCENARIO_FAMILIES, SCHEDULERS

__all__ = [
    "SpecError",
    "ExperimentSpec",
    "ScenarioPoint",
    "SubmissionMeta",
    "load_spec",
    "load_spec_data",
    "decode_spec_data",
    "parse_spec",
    "parse_submission",
    "spec_to_dict",
    "spec_summary",
    "canonical_spec_json",
    "spec_digest",
    "default_run_id",
    "expand_payloads",
    "count_payloads",
    "payload_config",
    "expand_payload_at",
    "payload_digest",
    "payload_digests",
    "evaluate_payload",
    "KINDS",
]

#: Recognised spec kinds.
KINDS = ("sweep", "scenario")


class SpecError(CycleStealingError, ValueError):
    """A malformed or invalid experiment spec.

    The message always says *where* (file and section/key when known) and
    *what was expected* — specs are user-facing configuration, and their
    errors must be actionable without reading this module's source.
    """


# ----------------------------------------------------------------------
# The spec model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExperimentSpec:
    """A fully validated experiment description (plain, picklable data)."""

    #: Experiment name (used in run ids and report headings).
    name: str
    #: ``"sweep"`` or ``"scenario"``.
    kind: str
    #: Base seed for the deterministic per-point/replication seeding.
    seed: int = 0
    #: Monte-Carlo replications (per point for sweeps, per scheduler for
    #: scenario specs; ``0`` disables the layer for sweeps).
    replications: int = 0
    #: Replication backend, ``"event"`` or ``"batch"``.
    backend: str = "event"
    #: Monte-Carlo aggregation mode: ``"exact"``, ``"streaming"`` or
    #: ``"auto"`` (exact below the streaming threshold, streaming above).
    aggregation: str = "auto"
    #: Streaming chunk size (replications per chunk); ``None`` auto-sizes
    #: from the replication count.  Chunking never changes results, so it
    #: is excluded from point digests (a resume may change it freely).
    chunk_size: Optional[int] = None
    #: Variance-reduction mode: ``"none"``, ``"antithetic"`` or
    #: ``"stratified"``.  Non-default modes add CI columns (and antithetic
    #: changes the draws), so they are part of the point digests.
    variance: str = "none"

    # --- kind = "sweep" ------------------------------------------------
    lifespans: Tuple[float, ...] = ()
    setup_costs: Tuple[float, ...] = (1.0,)
    interrupts: Tuple[int, ...] = (1,)
    schedulers: Tuple[str, ...] = ()
    adversaries: Tuple[str, ...] = ()
    #: Also compute the exact DP optimum per integer-valued point.
    optimal: bool = False

    # --- kind = "scenario" ---------------------------------------------
    family: Optional[str] = None
    #: Extra keyword arguments forwarded to the scenario generator.
    family_params: Mapping[str, Any] = field(default_factory=dict)

    def num_points(self) -> int:
        """How many run-store points this spec expands to (O(1), no expansion)."""
        return count_payloads(self)

    def to_grid(self):
        """The :class:`~repro.experiments.grid.SweepGrid` of a sweep spec."""
        from .experiments.grid import SweepGrid

        if self.kind != "sweep":
            raise SpecError(f"spec {self.name!r} has kind {self.kind!r}, "
                            "only sweep specs define a grid")
        return SweepGrid(lifespans=self.lifespans,
                         setup_costs=self.setup_costs,
                         interrupt_budgets=self.interrupts,
                         schedulers=self.schedulers,
                         adversaries=self.adversaries)


#: Tenant names become run-store subdirectories under the service, so the
#: same filesystem-safe alphabet is enforced here and in the queue journal.
_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


@dataclass(frozen=True)
class SubmissionMeta:
    """Service-submission metadata carried by an optional ``[submission]``
    table in a spec file.

    Deliberately *not* part of :class:`ExperimentSpec`: the tenant and
    priority say where and when a run executes, never what it computes, so
    they stay out of the canonical spec JSON, the default run id and the
    run-store manifest.  ``spec_to_dict`` never emits the table, keeping
    every pre-service run id byte-identical.
    """

    #: Run-store namespace; runs land under ``<runs-dir>/<tenant>/``.
    tenant: str = "default"
    #: Scheduling priority (higher first; FIFO within a band).
    priority: int = 0


_SUBMISSION_KEYS = {"tenant", "priority"}


def parse_submission(data: Mapping, *, source: Optional[str] = None
                     ) -> SubmissionMeta:
    """Validate a spec file's optional ``[submission]`` table."""
    if not isinstance(data, Mapping):
        raise SpecError(f"spec root must be a table/object, got "
                        f"{type(data).__name__}{_where(source)}")
    table = data.get("submission")
    if table is None:
        return SubmissionMeta()
    if not isinstance(table, Mapping):
        raise SpecError(
            f"[submission] must be a table, got {table!r}{_where(source)}")
    _reject_unknown_keys(table, _SUBMISSION_KEYS, "submission", source)
    tenant = table.get("tenant", "default")
    if not isinstance(tenant, str) or not _TENANT_RE.match(tenant):
        raise SpecError(
            f"submission.tenant must match [A-Za-z0-9][A-Za-z0-9._-]* "
            f"(max 64 chars), got {tenant!r}{_where(source)}")
    priority = table.get("priority", 0)
    if isinstance(priority, bool) or not isinstance(priority, int):
        raise SpecError(
            f"submission.priority must be an integer, got "
            f"{priority!r}{_where(source)}")
    return SubmissionMeta(tenant=tenant, priority=priority)


@dataclass(frozen=True)
class ScenarioPoint:
    """One (scenario family × scheduler) point of a scenario spec.

    Plain picklable data, mirroring
    :class:`~repro.experiments.grid.SweepPoint`: the family and scheduler
    travel by registry name and are instantiated inside the worker.
    """

    index: int
    family: str
    scheduler: str
    replications: int
    seed: int
    backend: str = "event"
    aggregation: str = "auto"
    chunk_size: Optional[int] = None
    variance: str = "none"
    family_params: Tuple[Tuple[str, Any], ...] = ()
    #: Return per-stage timing columns with the row (``--profile``).
    profile: bool = False

    def key_columns(self) -> Dict[str, object]:
        """The identifying columns shared by this point's result row."""
        return {"family": self.family, "scheduler": self.scheduler}


# ----------------------------------------------------------------------
# Parsing and validation
# ----------------------------------------------------------------------
_EXPERIMENT_KEYS = {"name", "kind", "seed", "replications", "backend",
                    "aggregation", "chunk_size", "variance"}
_SWEEP_KEYS = {"lifespans", "setup_costs", "interrupts", "schedulers",
               "adversaries", "optimal"}
_SCENARIO_KEYS = {"family", "schedulers", "params"}


def _where(source: Optional[str]) -> str:
    return f" (in {source})" if source else ""


def _require_table(data: Mapping, key: str, source: Optional[str]) -> Mapping:
    table = data.get(key)
    if not isinstance(table, Mapping):
        raise SpecError(f"spec is missing the [{key}] table{_where(source)}")
    return table


def _reject_unknown_keys(table: Mapping, allowed: set, section: str,
                         source: Optional[str]) -> None:
    unknown = sorted(set(table) - allowed)
    if unknown:
        raise SpecError(
            f"unknown key(s) {unknown!r} in [{section}]{_where(source)}; "
            f"allowed: {sorted(allowed)}")


def _as_int(value, key: str, source: Optional[str], *, minimum: int = 0) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"{key} must be an integer, got {value!r}{_where(source)}")
    if value < minimum:
        raise SpecError(f"{key} must be >= {minimum}, got {value!r}{_where(source)}")
    return int(value)


def _as_number_list(value, key: str, source: Optional[str],
                    *, integral: bool = False) -> Tuple:
    if not isinstance(value, (list, tuple)) or not value:
        raise SpecError(
            f"{key} must be a non-empty array of numbers, got {value!r}{_where(source)}")
    out = []
    for item in value:
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise SpecError(
                f"{key} entries must be numbers, got {item!r}{_where(source)}")
        if integral:
            if not float(item).is_integer():
                raise SpecError(
                    f"{key} entries must be integers, got {item!r}{_where(source)}")
            out.append(int(item))
        else:
            out.append(float(item))
    return tuple(out)


def _as_str_list(value, key: str, source: Optional[str]) -> Tuple[str, ...]:
    if not isinstance(value, (list, tuple)) or not value \
            or not all(isinstance(v, str) for v in value):
        raise SpecError(
            f"{key} must be a non-empty array of strings, got {value!r}{_where(source)}")
    return tuple(value)


def parse_spec(data: Mapping, *, source: Optional[str] = None) -> ExperimentSpec:
    """Validate a nested spec dictionary into an :class:`ExperimentSpec`.

    ``source`` (a file path, when known) is woven into every error message.
    Registry names — schedulers, adversaries, the scenario family — are
    checked against :mod:`repro.registry` here, at parse time.
    """
    if not isinstance(data, Mapping):
        raise SpecError(f"spec root must be a table/object, got "
                        f"{type(data).__name__}{_where(source)}")
    allowed_tables = {"experiment", "sweep", "scenario", "submission"}
    _reject_unknown_keys(data, allowed_tables, "spec root", source)
    # [submission] carries service routing metadata (tenant/priority).  It
    # is validated here so a typo fails at parse time, but it is NOT part
    # of the ExperimentSpec: spec_to_dict never emits it, so run ids and
    # manifests are unaffected by how a spec was submitted.
    parse_submission(data, source=source)

    exp = _require_table(data, "experiment", source)
    _reject_unknown_keys(exp, _EXPERIMENT_KEYS, "experiment", source)
    name = exp.get("name")
    if not isinstance(name, str) or not name:
        raise SpecError(
            f"experiment.name must be a non-empty string, got {name!r}{_where(source)}")
    kind = exp.get("kind")
    if kind not in KINDS:
        raise SpecError(
            f"experiment.kind must be one of {list(KINDS)}, got {kind!r}{_where(source)}")
    seed = _as_int(exp.get("seed", 0), "experiment.seed", source)
    replications = _as_int(exp.get("replications", 0),
                           "experiment.replications", source)
    backend = exp.get("backend", "event")
    from .experiments.montecarlo import AGGREGATIONS, BACKENDS
    if backend not in BACKENDS:
        raise SpecError(
            f"experiment.backend must be one of {list(BACKENDS)}, "
            f"got {backend!r}{_where(source)}")
    aggregation = exp.get("aggregation", "auto")
    if aggregation not in AGGREGATIONS:
        raise SpecError(
            f"experiment.aggregation must be one of {list(AGGREGATIONS)}, "
            f"got {aggregation!r}{_where(source)}")
    chunk_size: Optional[int] = None
    if exp.get("chunk_size") is not None:
        chunk_size = _as_int(exp.get("chunk_size"), "experiment.chunk_size",
                             source, minimum=1)
    variance = exp.get("variance", "none")
    from .experiments.montecarlo import VARIANCE_MODES
    if variance not in VARIANCE_MODES:
        raise SpecError(
            f"experiment.variance must be one of {list(VARIANCE_MODES)}, "
            f"got {variance!r}{_where(source)}")
    if variance == "antithetic" and replications % 2 != 0:
        raise SpecError(
            "experiment.variance = 'antithetic' plays replications in "
            "pairs and needs an even experiment.replications, got "
            f"{replications}{_where(source)}")

    if kind == "sweep":
        if "scenario" in data:
            raise SpecError(
                f"a sweep spec must not contain a [scenario] table{_where(source)}")
        sweep = _require_table(data, "sweep", source)
        _reject_unknown_keys(sweep, _SWEEP_KEYS, "sweep", source)
        lifespans = _as_number_list(sweep.get("lifespans"), "sweep.lifespans", source)
        setup_costs = _as_number_list(sweep.get("setup_costs", [1.0]),
                                      "sweep.setup_costs", source)
        interrupts = _as_number_list(sweep.get("interrupts", [1]),
                                     "sweep.interrupts", source, integral=True)
        schedulers = _as_str_list(sweep.get("schedulers"), "sweep.schedulers", source)
        raw_adversaries = sweep.get("adversaries", [])
        if raw_adversaries in ([], (), None):
            adversaries: Tuple[str, ...] = ()
        else:
            adversaries = _as_str_list(raw_adversaries, "sweep.adversaries", source)
        optimal = sweep.get("optimal", False)
        if not isinstance(optimal, bool):
            raise SpecError(
                f"sweep.optimal must be a boolean, got {optimal!r}{_where(source)}")
        try:
            SCHEDULERS.validate(schedulers, context="sweep.schedulers")
            ADVERSARIES.validate(adversaries, context="sweep.adversaries")
        except CycleStealingError as exc:
            raise SpecError(f"{exc}{_where(source)}") from None
        if replications > 0 and not adversaries:
            raise SpecError(
                "sweep.adversaries must name at least one adversary when "
                f"experiment.replications > 0{_where(source)}")
        return ExperimentSpec(name=name, kind=kind, seed=seed,
                              replications=replications, backend=backend,
                              aggregation=aggregation, chunk_size=chunk_size,
                              variance=variance,
                              lifespans=lifespans, setup_costs=setup_costs,
                              interrupts=interrupts, schedulers=schedulers,
                              adversaries=adversaries, optimal=optimal)

    # kind == "scenario"
    if "sweep" in data:
        raise SpecError(
            f"a scenario spec must not contain a [sweep] table{_where(source)}")
    scen = _require_table(data, "scenario", source)
    _reject_unknown_keys(scen, _SCENARIO_KEYS, "scenario", source)
    family = scen.get("family")
    if not isinstance(family, str) or not family:
        raise SpecError(
            f"scenario.family must be a registry name, got {family!r}{_where(source)}")
    schedulers = _as_str_list(scen.get("schedulers", ["equalizing-adaptive"]),
                              "scenario.schedulers", source)
    family_params = scen.get("params", {})
    if not isinstance(family_params, Mapping):
        raise SpecError(
            f"[scenario.params] must be a table, got {family_params!r}{_where(source)}")
    try:
        SCENARIO_FAMILIES.validate([family], context="scenario.family")
        SCHEDULERS.validate(schedulers, context="scenario.schedulers")
    except CycleStealingError as exc:
        raise SpecError(f"{exc}{_where(source)}") from None
    _check_family_params(family, family_params, source)
    _check_simulator_capable(schedulers, source)
    if replications < 1:
        raise SpecError(
            "scenario specs need experiment.replications >= 1 "
            f"(got {replications}){_where(source)}")
    return ExperimentSpec(name=name, kind=kind, seed=seed,
                          replications=replications, backend=backend,
                          aggregation=aggregation, chunk_size=chunk_size,
                          variance=variance,
                          schedulers=schedulers, family=family,
                          family_params=dict(family_params))


def _check_family_params(family: str, family_params: Mapping[str, Any],
                         source: Optional[str]) -> None:
    """Probe the scenario generator with the spec's params at parse time.

    A typo'd keyword (``num_machine`` for ``num_machines``) or an
    out-of-range value would otherwise surface as a raw worker traceback
    after the run directory has already been created.  The probe also
    rejects ``seed`` — the Monte-Carlo layer owns seeding, deriving it
    per replication from the experiment's base seed.
    """
    if "seed" in family_params:
        raise SpecError(
            "[scenario.params] must not set 'seed'; seeding is derived per "
            f"replication from experiment.seed{_where(source)}")
    try:
        SCENARIO_FAMILIES.create(family, **dict(family_params))
    except (TypeError, ValueError) as exc:
        raise SpecError(
            f"[scenario.params] {dict(family_params)!r} are not valid for "
            f"the {family!r} generator: {exc}{_where(source)}") from exc


def _check_simulator_capable(schedulers: Tuple[str, ...],
                             source: Optional[str]) -> None:
    """Reject scenario schedulers the NOW simulator cannot drive.

    The simulator re-plans per episode, so it needs the adaptive protocol
    (``episode_schedule``); purely non-adaptive guidelines would only fail
    deep inside the first replication, so catch them at parse time with a
    probe instantiation on canonical parameters.
    """
    from .core.params import CycleStealingParams
    from .experiments.grid import make_scheduler

    probe = CycleStealingParams(lifespan=100.0, setup_cost=1.0,
                                max_interrupts=1)
    for name in schedulers:
        if not hasattr(make_scheduler(name, probe), "episode_schedule"):
            raise SpecError(
                f"scheduler {name!r} implements only the non-adaptive "
                "protocol and cannot drive the NOW simulator; scenario "
                "specs need adaptive schedulers such as "
                f"'equalizing-adaptive'{_where(source)}")


def spec_to_dict(spec: ExperimentSpec) -> Dict[str, Any]:
    """The nested (file-shaped) dictionary form of a spec.

    ``parse_spec(spec_to_dict(s)) == s`` for every valid spec — the
    round-trip the manifest of a stored run relies on.
    """
    out: Dict[str, Any] = {"experiment": {
        "name": spec.name, "kind": spec.kind, "seed": spec.seed,
        "replications": spec.replications, "backend": spec.backend,
    }}
    # Emitted only when non-default (like sweep.adversaries below): the
    # canonical JSON — and therefore every default run id — of specs
    # predating these keys stays byte-identical.
    if spec.aggregation != "auto":
        out["experiment"]["aggregation"] = spec.aggregation
    if spec.chunk_size is not None:
        out["experiment"]["chunk_size"] = spec.chunk_size
    if spec.variance != "none":
        out["experiment"]["variance"] = spec.variance
    if spec.kind == "sweep":
        sweep: Dict[str, Any] = {
            "lifespans": list(spec.lifespans),
            "setup_costs": list(spec.setup_costs),
            "interrupts": list(spec.interrupts),
            "schedulers": list(spec.schedulers),
            "optimal": spec.optimal,
        }
        if spec.adversaries:
            sweep["adversaries"] = list(spec.adversaries)
        out["sweep"] = sweep
    else:
        scenario: Dict[str, Any] = {
            "family": spec.family,
            "schedulers": list(spec.schedulers),
        }
        if spec.family_params:
            scenario["params"] = dict(spec.family_params)
        out["scenario"] = scenario
    return out


def spec_summary(spec: ExperimentSpec) -> Dict[str, Any]:
    """Flat, JSON-safe metadata summary of a spec (the catalog index form).

    A *projection* of the spec for indexing and filtering — every value is
    a JSON scalar or a list of scalars, keys are stable, and kind-specific
    keys (``family`` for scenarios, ``lifespans``/``interrupts``/… for
    sweeps) appear only when the kind defines them.  This is what
    :mod:`repro.catalog` stores per run and what ``Catalog.find`` filters
    against; the *complete* spec still lives in the run manifest and is
    recovered with :func:`parse_spec` when needed.
    """
    out: Dict[str, Any] = {
        "name": spec.name,
        "kind": spec.kind,
        "seed": spec.seed,
        "replications": spec.replications,
        "backend": spec.backend,
        "aggregation": spec.aggregation,
        "variance": spec.variance,
        "schedulers": list(spec.schedulers),
    }
    if spec.kind == "sweep":
        out["lifespans"] = [float(u) for u in spec.lifespans]
        out["setup_costs"] = [float(c) for c in spec.setup_costs]
        out["interrupts"] = [int(p) for p in spec.interrupts]
        out["adversaries"] = list(spec.adversaries)
        out["optimal"] = bool(spec.optimal)
    else:
        out["family"] = spec.family
        out["family_params"] = dict(spec.family_params)
    return out


def canonical_spec_json(spec: ExperimentSpec) -> str:
    """Canonical (sorted-keys, no-whitespace) JSON of a spec."""
    return json.dumps(spec_to_dict(spec), sort_keys=True,
                      separators=(",", ":"))


def spec_digest(spec: ExperimentSpec) -> str:
    """Full sha256 hex digest of a spec's canonical JSON.

    The handshake token of the distributed executor: a worker offering a
    digest that differs from the coordinator's spec is computing a
    *different experiment* and must be refused before it leases anything.
    """
    return hashlib.sha256(canonical_spec_json(spec).encode()).hexdigest()


def default_run_id(spec: ExperimentSpec) -> str:
    """Deterministic run id: spec name plus a digest of its contents.

    Re-running an identical spec maps to the same run directory (so a
    finished run is recognised and an interrupted one resumed), while any
    change to the spec yields a fresh id.
    """
    return f"{spec.name}-{spec_digest(spec)[:10]}"


# ----------------------------------------------------------------------
# File loading (TOML / JSON)
# ----------------------------------------------------------------------
def load_spec(path: Union[str, os.PathLike]) -> ExperimentSpec:
    """Load and validate a spec file (``.toml`` or ``.json``)."""
    path = os.fspath(path)
    return parse_spec(load_spec_data(path), source=path)


def load_spec_data(path: Union[str, os.PathLike]) -> Mapping:
    """Read a spec file into its raw nested dictionary, format-checked only.

    This is the submission half of :func:`load_spec`: the run-service
    journals the *raw* dictionary (so what executes is exactly what was
    submitted) and defers semantic validation to the service's own
    validate step, where a bad spec becomes a dead-letter entry with a
    captured error instead of a client-side crash.
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise SpecError(f"cannot read spec file {path!r}: {exc}") from exc
    lower = path.lower()
    if lower.endswith(".json"):
        try:
            data = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SpecError(f"invalid JSON in spec file {path!r}: {exc}") from exc
    elif lower.endswith(".toml"):
        data = _load_toml(raw, path)
    else:
        raise SpecError(
            f"spec files must end in .toml or .json, got {path!r}")
    if not isinstance(data, Mapping):
        raise SpecError(
            f"spec root must be a table/object, got "
            f"{type(data).__name__} (in {path})")
    return data


def decode_spec_data(text: str, *, format: Optional[str] = None,
                     source: Optional[str] = None) -> Mapping:
    """Decode spec text (e.g. from stdin) into its raw dictionary.

    ``format`` is ``"toml"``, ``"json"`` or ``None`` to sniff: text whose
    first non-whitespace character is ``{`` is JSON, anything else TOML.
    """
    where = source or "<stdin>"
    if format is None:
        stripped = text.lstrip()
        format = "json" if stripped.startswith("{") else "toml"
    if format == "json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid JSON spec from {where}: {exc}") from exc
    elif format == "toml":
        data = _load_toml(text.encode("utf-8"), where)
    else:
        raise SpecError(
            f"unknown spec format {format!r}; expected 'toml' or 'json'")
    if not isinstance(data, Mapping):
        raise SpecError(
            f"spec root must be a table/object, got "
            f"{type(data).__name__} (in {where})")
    return data


def _load_toml(raw: bytes, path: str) -> Mapping:
    # Imported here, not at module level: most specs are JSON, and every
    # `import repro.specs` would otherwise pay for the TOML parser.
    import tomllib

    try:
        return tomllib.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, tomllib.TOMLDecodeError) as exc:
        raise SpecError(f"invalid TOML in spec file {path!r}: {exc}") from exc


# ----------------------------------------------------------------------
# Point expansion and evaluation (worker side)
# ----------------------------------------------------------------------
def expand_payloads(spec: ExperimentSpec,
                    cache_dir: Optional[str] = None,
                    profile: bool = False) -> List[Any]:
    """Expand a spec into an ordered list of picklable point payloads.

    The order is part of the spec's identity: point ``i`` of a resumed run
    is the same experiment as point ``i`` of the original run, which is
    what lets the run store skip completed shards.  ``profile`` only adds
    timing columns to the computed rows (stripped again by the driver); it
    never changes the results themselves.
    """
    if spec.kind == "sweep":
        config = payload_config(spec, cache_dir=cache_dir, profile=profile)
        return [(point, config) for point in spec.to_grid().points()]
    return [_scenario_point_at(spec, i, profile=profile)
            for i in range(len(spec.schedulers))]


def count_payloads(spec: ExperimentSpec) -> int:
    """How many points :func:`expand_payloads` yields, without expanding.

    For sweep specs this is the grid's Cartesian size; for scenario specs
    the scheduler count.  The run store records this (plus the per-point
    digests of :func:`payload_digests`) in the manifest, so a resume can
    find pending indices without re-expanding the whole grid.
    """
    if spec.kind == "sweep":
        return spec.to_grid().size
    return len(spec.schedulers)


def payload_config(spec: ExperimentSpec,
                   cache_dir: Optional[str] = None,
                   profile: bool = False):
    """The spec-wide half of a sweep payload (``None`` for scenario specs).

    Sweep payloads are ``(SweepPoint, ExperimentConfig)`` pairs whose
    config is identical across the grid; building it once and passing it
    to :func:`expand_payload_at` keeps lazy expansion O(pending), not
    O(grid).
    """
    if spec.kind != "sweep":
        return None
    from .experiments.orchestrator import ExperimentConfig

    return ExperimentConfig(replications=spec.replications,
                            seed=spec.seed, cache_dir=cache_dir,
                            include_optimal=spec.optimal,
                            backend=spec.backend,
                            aggregation=spec.aggregation,
                            chunk_size=spec.chunk_size,
                            variance=spec.variance,
                            profile=bool(profile))


def _scenario_point_at(spec: ExperimentSpec, index: int,
                       *, profile: bool = False) -> "ScenarioPoint":
    return ScenarioPoint(index=index, family=spec.family,
                         scheduler=spec.schedulers[index],
                         replications=spec.replications, seed=spec.seed,
                         backend=spec.backend,
                         aggregation=spec.aggregation,
                         chunk_size=spec.chunk_size,
                         variance=spec.variance,
                         family_params=tuple(sorted(spec.family_params.items())),
                         profile=bool(profile))


def expand_payload_at(spec: ExperimentSpec, index: int, *,
                      cache_dir: Optional[str] = None,
                      profile: bool = False, config=None):
    """Materialise payload ``index`` of :func:`expand_payloads` lazily.

    ``expand_payload_at(spec, i) == expand_payloads(spec)[i]`` for every
    valid index (pinned by the spec tests) — the run store resumes large
    grids through this, expanding only the points whose shards are
    missing.  Pass ``config`` (from :func:`payload_config`) to amortise
    the sweep-config construction across many calls.
    """
    if spec.kind == "sweep":
        if config is None:
            config = payload_config(spec, cache_dir=cache_dir, profile=profile)
        return (spec.to_grid().point_at(index), config)
    if not 0 <= index < len(spec.schedulers):
        raise SpecError(f"payload index {index} out of range for scenario "
                        f"spec {spec.name!r} ({len(spec.schedulers)} points)")
    return _scenario_point_at(spec, index, profile=profile)


def payload_digest(payload) -> str:
    """Content digest of one point payload's *identity* (sha256 hex).

    Covers exactly the coordinates that determine the point's result row
    — grid coordinates and registry names for sweep points; family,
    scheduler, replications, seed, backend and family params for scenario
    points.  Execution knobs that never change results (``cache_dir``,
    ``profile``, ``chunk_size`` — chunking is memory layout, the
    accumulators see the same stream) are excluded, so a profiled or
    re-chunked resume still matches the digests recorded by the original
    run.  The aggregation mode *does* change quantile columns, so a
    non-default ``aggregation`` is part of the identity (the default
    ``"auto"`` is omitted, keeping digests of older runs stable).  The
    same holds for ``variance``: non-default modes add CI columns (and
    antithetic changes the draws), so they are part of the identity,
    while the default ``"none"`` is omitted.
    """
    if isinstance(payload, ScenarioPoint):
        identity = {
            "kind": "scenario", "index": payload.index,
            "family": payload.family, "scheduler": payload.scheduler,
            "replications": payload.replications, "seed": payload.seed,
            "backend": payload.backend,
            "params": [[k, v] for k, v in payload.family_params],
        }
        if payload.aggregation != "auto":
            identity["aggregation"] = payload.aggregation
        if payload.variance != "none":
            identity["variance"] = payload.variance
    else:
        point, config = payload
        identity = {
            "kind": "sweep", "index": point.index,
            "lifespan": float(point.lifespan),
            "setup_cost": float(point.setup_cost),
            "max_interrupts": int(point.max_interrupts),
            "scheduler": point.scheduler, "adversary": point.adversary,
            "replications": config.replications, "seed": config.seed,
            "backend": config.backend, "optimal": config.include_optimal,
        }
        if config.aggregation != "auto":
            identity["aggregation"] = config.aggregation
        if config.variance != "none":
            identity["variance"] = config.variance
    blob = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def payload_digests(spec: ExperimentSpec) -> List[str]:
    """Per-point identity digests for the whole spec, in point order.

    Computed once when a run is created and stored in its manifest; a
    resume then verifies only the *pending* points' lazily expanded
    payloads against them instead of re-expanding the full grid.
    """
    return [payload_digest(payload) for payload in expand_payloads(spec)]


#: Test hook: a float number of seconds to sleep before evaluating each
#: point.  Lets scheduling-layer tests and the distributed-executor
#: benchmark give every point a known fixed cost that overlaps across
#: worker *processes* regardless of core count — the same idiom as
#: ``REPRO_TEST_CONSOLIDATE_DELAY`` and ``REPRO_TEST_JOURNAL_DELAY``.
_POINT_DELAY_ENV = "REPRO_TEST_POINT_DELAY"


def evaluate_payload(payload) -> Dict[str, Any]:
    """Compute one result row from a point payload (runs inside workers)."""
    delay = os.environ.get(_POINT_DELAY_ENV)
    if delay:
        import time

        time.sleep(float(delay))
    if isinstance(payload, ScenarioPoint):
        return _evaluate_scenario_point(payload)
    from .experiments.orchestrator import _evaluate_point
    return _evaluate_point(payload)


def _evaluate_scenario_point(point: ScenarioPoint) -> Dict[str, Any]:
    import time

    from .experiments.grid import make_scheduler
    from .experiments.montecarlo import replicate_scenario
    from .experiments.profiling import stage_column

    family = SCENARIO_FAMILIES[point.family]
    family_params = dict(point.family_params)
    # A canonical-seed probe instance supplies the opportunity parameters
    # (U, c, p) that parameter-dependent scheduler factories need.
    probe = family(**family_params)
    scheduler = make_scheduler(point.scheduler, probe.params)
    row: Dict[str, Any] = point.key_columns()
    started = time.perf_counter() if point.profile else 0.0
    chunk_profile = {} if point.profile else None
    row.update(replicate_scenario(family, point.replications,
                                  base_seed=point.seed, scheduler=scheduler,
                                  backend=point.backend,
                                  aggregation=point.aggregation,
                                  chunk_size=point.chunk_size,
                                  variance=point.variance,
                                  profile=chunk_profile,
                                  **family_params))
    if point.profile:
        row[stage_column("monte_carlo")] = time.perf_counter() - started
        for key, value in (chunk_profile or {}).items():
            row[stage_column(key)] = value
    return row
