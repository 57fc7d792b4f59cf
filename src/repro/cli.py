"""Command-line interface: ``cycle-stealing <command>`` (or ``python -m repro``).

Sub-commands
------------
``table1``     Instantiate the paper's Table 1 for a guideline schedule.
``table2``     Reproduce Table 2 (the p = 1 closed forms vs. measurements).
``nonadaptive``Sweep the Section 3.1 non-adaptive guarantee.
``adaptive``   Sweep the Theorem 5.1 adaptive guarantee.
``gap``        Optimality gaps of every registered scheduler against the
               exact DP optimum.
``simulate``   Run a canned NOW scenario through the discrete-event simulator.
``sweep``      Parallel experiment sweep (guaranteed work, DP optima and
               Monte-Carlo replication) over a lifespan × cost × interrupts ×
               scheduler × adversary grid, with ``--jobs``, ``--replications``,
               ``--seed`` and a shared DP-table ``--cache-dir``.
``run``        Execute a declarative experiment spec (TOML/JSON, see
               :mod:`repro.specs`) into the resumable run store —
               in-process (``--executor local``) or through a loopback
               worker cluster (``--executor cluster``).
``resume``     Finish an interrupted run from its last completed point.
``report``     Render a stored run as a paper-style markdown report.
``serve``      Run the spec-submission service: durable queue, bounded
               workers, crash recovery (see docs/service.md).
``submit``     Enqueue a spec file (or stdin) for the service to execute.
``status``     Show the submission queue (table or ``--json``).
``catalog``    Cross-run analytics: ``index`` / ``list`` / ``query`` /
               ``export`` / ``diff`` over one or more runs roots
               (see docs/catalog.md).
``cancel``     Cancel a not-yet-running submission.
``coordinator``Serve a spec's points to remote ``worker`` processes over
               TCP (work-stealing leases; see docs/distributed.md).
``worker``     Connect to a coordinator, compute leased points, stream
               the shards back.

Scheduler, adversary and scenario-family names accepted by the commands
are the :mod:`repro.registry` names.  Each table-producing command prints
an aligned ASCII table; ``--csv PATH`` writes the same rows to a CSV file.
``report`` prints markdown.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .analysis import (
    adaptive_guarantee_sweep,
    nonadaptive_guarantee_sweep,
    table1_rows,
    table2_rows,
)
from .core.params import CycleStealingParams
from .reporting import render_table, write_csv

__all__ = ["main", "build_parser"]

#: The one true description of ``--cache-dir`` — shared by every
#: sub-command and asserted (together with README.md) by the CLI tests, so
#: help text, docs and code cannot drift apart again.
CACHE_DIR_HELP_DEFAULT = None
CACHE_DIR_HELP = ("on-disk DP-table cache directory shared by all workers "
                  "(default: disabled — DP tables are cached in memory, "
                  "per process, for the current run only)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="cycle-stealing",
        description="Guaranteed-output cycle-stealing guidelines (Rosenberg, IPPS 1999)")
    parser.add_argument("--csv", default=None, help="also write the rows to this CSV file")
    sub = parser.add_subparsers(dest="command", required=True)

    t1 = sub.add_parser("table1", help="consequences of the adversary's options")
    t1.add_argument("--lifespan", "-U", type=float, default=100.0)
    t1.add_argument("--setup-cost", "-c", type=float, default=1.0)
    t1.add_argument("--interrupts", "-p", type=int, default=2)

    t2 = sub.add_parser("table2", help="p = 1 parameters: optimal vs guideline")
    t2.add_argument("--setup-cost", "-c", type=float, default=1.0)
    t2.add_argument("--lifespans", type=float, nargs="+",
                    default=[100.0, 1_000.0, 10_000.0, 100_000.0])

    na = sub.add_parser("nonadaptive", help="Section 3.1 guarantee sweep")
    na.add_argument("--setup-cost", "-c", type=float, default=1.0)
    na.add_argument("--lifespans", type=float, nargs="+",
                    default=[100.0, 1_000.0, 10_000.0])
    na.add_argument("--interrupts", type=int, nargs="+", default=[1, 2, 4, 8])

    ad = sub.add_parser("adaptive", help="Theorem 5.1 guarantee sweep")
    ad.add_argument("--setup-cost", "-c", type=float, default=1.0)
    ad.add_argument("--lifespans", type=float, nargs="+",
                    default=[100.0, 1_000.0, 10_000.0])
    ad.add_argument("--interrupts", type=int, nargs="+", default=[1, 2, 3, 4])

    from .registry import SCENARIO_FAMILIES, SCHEDULERS

    gp = sub.add_parser("gap", help="optimality gap of every scheduler vs the DP optimum")
    gp.add_argument("--lifespan", "-U", type=int, default=2_000)
    gp.add_argument("--setup-cost", "-c", type=int, default=1)
    gp.add_argument("--interrupts", "-p", type=int, default=2)
    gp.add_argument("--jobs", type=int, default=1,
                    help="worker processes for the comparison sweep")
    gp.add_argument("--cache-dir", default=CACHE_DIR_HELP_DEFAULT,
                    help=CACHE_DIR_HELP)

    sim = sub.add_parser("simulate", help="run a canned NOW scenario")
    sim.add_argument("--scenario", choices=SCENARIO_FAMILIES.names(),
                     default="laptop")
    sim.add_argument("--scheduler", choices=SCHEDULERS.names(),
                     default="equalizing-adaptive",
                     help="registry scheduler name")
    sim.add_argument("--seed", type=int, default=None,
                     help="scenario seed (default: the family's canonical seed)")
    sim.add_argument("--backend", choices=["event", "batch"], default="event",
                     help="simulation backend (batch = vectorized, same results)")

    from .experiments.grid import adversary_names, scheduler_names

    sw = sub.add_parser(
        "sweep", help="parallel experiment sweep with Monte-Carlo replication")
    sw.add_argument("--lifespans", type=float, nargs="+",
                    default=[200.0, 400.0, 800.0])
    sw.add_argument("--setup-costs", type=float, nargs="+", default=[1.0])
    sw.add_argument("--interrupts", type=int, nargs="+", default=[1, 2])
    sw.add_argument("--schedulers", nargs="+", choices=scheduler_names(),
                    default=["equalizing-adaptive", "rosenberg-nonadaptive"])
    sw.add_argument("--adversaries", nargs="+", choices=adversary_names(),
                    default=[],
                    help="stochastic owners to sample (enables the Monte-Carlo columns)")
    sw.add_argument("--jobs", "-j", type=int, default=1,
                    help="worker processes (0 = one per CPU)")
    sw.add_argument("--replications", "-n", type=int, default=0,
                    help="Monte-Carlo replications per point (0 = analytic only)")
    sw.add_argument("--seed", type=int, default=0,
                    help="base seed for deterministic per-point trace sampling")
    sw.add_argument("--cache-dir", default=CACHE_DIR_HELP_DEFAULT,
                    help=CACHE_DIR_HELP)
    sw.add_argument("--optimal", action="store_true",
                    help="also compute the exact DP optimum per point (integer grids)")
    sw.add_argument("--backend", choices=["event", "batch"], default="event",
                    help="Monte-Carlo replication backend (batch = vectorized; "
                         "~10x faster on large --replications, same aggregates)")
    sw.add_argument("--aggregation", choices=["exact", "streaming", "auto"],
                    default="auto",
                    help="Monte-Carlo aggregation: exact one-shot arrays, "
                         "streaming online accumulators (flat memory, P2 "
                         "quantile estimates), or auto (exact below the "
                         "streaming threshold)")
    sw.add_argument("--chunk-size", type=int, default=None,
                    help="streaming chunk size in replications (default: "
                         "auto-sized from --replications; never changes "
                         "results, only memory/throughput)")
    sw.add_argument("--variance", choices=["none", "antithetic", "stratified"],
                    default="none",
                    help="variance-reduction mode: antithetic pairs the "
                         "interrupt traces (needs even --replications), "
                         "stratified post-stratifies on interrupt count; "
                         "both add CI columns ({col}_sem/_ci_lo/_ci_hi)")
    sw.add_argument("--profile", action="store_true",
                    help="print a per-stage wall-time breakdown (referee / "
                         "DP solve / Monte-Carlo) to stderr")

    from .runstore import DEFAULT_RUNS_DIR

    rn = sub.add_parser(
        "run", help="run a declarative experiment spec into the run store")
    rn.add_argument("spec", help="path to a .toml or .json experiment spec "
                                 "(see specs/ and docs/specs.md)")
    rn.add_argument("--runs-dir", default=DEFAULT_RUNS_DIR,
                    help=f"run-store root directory (default: {DEFAULT_RUNS_DIR}/)")
    rn.add_argument("--run-id", default=None,
                    help="run id (default: spec name + content digest)")
    rn.add_argument("--jobs", "-j", type=int, default=1,
                    help="worker processes (0 = one per CPU)")
    rn.add_argument("--replications", "-n", type=int, default=None,
                    help="override the spec's replication count")
    rn.add_argument("--seed", type=int, default=None,
                    help="override the spec's base seed")
    rn.add_argument("--backend", choices=["event", "batch"], default=None,
                    help="override the spec's replication backend")
    rn.add_argument("--aggregation", choices=["exact", "streaming", "auto"],
                    default=None,
                    help="override the spec's Monte-Carlo aggregation mode "
                         "(re-validated on resume like every spec key)")
    rn.add_argument("--chunk-size", type=int, default=None, dest="chunk_size",
                    help="override the spec's streaming chunk size (never "
                         "changes results, so resumes may re-chunk freely)")
    rn.add_argument("--variance", choices=["none", "antithetic", "stratified"],
                    default=None,
                    help="override the spec's variance-reduction mode "
                         "(changes results, so it is part of the run identity)")
    rn.add_argument("--cache-dir", default=CACHE_DIR_HELP_DEFAULT,
                    help=CACHE_DIR_HELP)
    rn.add_argument("--max-points", type=int, default=None,
                    help="checkpoint: stop after completing N new points "
                         "(resume later with `resume`)")
    rn.add_argument("--resume", action="store_true",
                    help="continue the run if it already exists")
    rn.add_argument("--profile", action="store_true",
                    help="print a per-stage wall-time breakdown (spec parse / "
                         "referee / DP solve / Monte-Carlo / shard I/O) to stderr")
    rn.add_argument("--executor", choices=["local", "cluster"],
                    default="local",
                    help="point executor: local in-process pool, or cluster "
                         "(loopback coordinator + --jobs worker processes "
                         "talking the distributed protocol; byte-identical "
                         "results, see docs/distributed.md)")
    rn.add_argument("--lease-ttl", type=float, default=60.0,
                    help="cluster executor only: lease expiry in seconds "
                         "(a worker silent this long forfeits its point)")

    rs = sub.add_parser(
        "resume", help="finish an interrupted run from its last completed point")
    rs.add_argument("run_id", help="id of a run under --runs-dir")
    rs.add_argument("--runs-dir", default=DEFAULT_RUNS_DIR,
                    help=f"run-store root directory (default: {DEFAULT_RUNS_DIR}/)")
    rs.add_argument("--jobs", "-j", type=int, default=1,
                    help="worker processes (0 = one per CPU)")
    rs.add_argument("--cache-dir", default=CACHE_DIR_HELP_DEFAULT,
                    help=CACHE_DIR_HELP)
    rs.add_argument("--max-points", type=int, default=None,
                    help="checkpoint: stop after completing N new points")

    rp = sub.add_parser(
        "report", help="render a stored run as a markdown report")
    rp.add_argument("run_id", help="id of a run under --runs-dir")
    rp.add_argument("--runs-dir", default=DEFAULT_RUNS_DIR,
                    help=f"run-store root directory (default: {DEFAULT_RUNS_DIR}/)")
    rp.add_argument("--output", default=None,
                    help="where to write the markdown "
                         "(default: <runs-dir>/<run-id>/report.md; '-' = print only)")
    rp.add_argument("--force", action="store_true",
                    help="re-render even when the report digest cache is "
                         "warm (an unchanged run is otherwise a pure cache hit)")
    rp.add_argument("--profile", action="store_true",
                    help="print the end-to-end report_render wall time to "
                         "stderr (collapses to the digest check on a cache hit)")

    sv = sub.add_parser(
        "serve", help="run the spec-submission service (durable queue, "
                      "bounded workers, crash recovery)")
    sv.add_argument("--runs-dir", default=DEFAULT_RUNS_DIR,
                    help=f"run-store root directory (default: {DEFAULT_RUNS_DIR}/); "
                         "the queue journal lives in <runs-dir>/_queue/")
    sv.add_argument("--workers", type=int, default=2,
                    help="concurrently executing submissions (default: 2)")
    sv.add_argument("--jobs", "-j", type=int, default=1,
                    help="worker processes per run (0 = one per CPU)")
    sv.add_argument("--max-retries", type=int, default=3,
                    help="failed attempts retried before dead-lettering")
    sv.add_argument("--backoff-base", type=float, default=0.5,
                    help="first retry delay in seconds (doubles per attempt)")
    sv.add_argument("--backoff-cap", type=float, default=30.0,
                    help="maximum retry delay in seconds")
    sv.add_argument("--poll-interval", type=float, default=0.1,
                    help="journal poll period in seconds")
    sv.add_argument("--cache-dir", default=CACHE_DIR_HELP_DEFAULT,
                    help=CACHE_DIR_HELP)
    sv.add_argument("--http-port", type=int, default=None,
                    help="serve the JSON status endpoint on this localhost "
                         "port (0 = ephemeral, printed at startup; "
                         "default: disabled)")
    sv.add_argument("--drain", action="store_true",
                    help="exit once every submission is published, dead or "
                         "cancelled (instead of serving forever)")
    sv.add_argument("--max-runtime", type=float, default=None,
                    help="wall-clock safety limit in seconds")
    sv.add_argument("--executor", choices=["local", "cluster"],
                    default="local",
                    help="how submissions execute: local run_spec, or "
                         "cluster (loopback coordinator + --cluster-workers "
                         "worker processes per submission)")
    sv.add_argument("--cluster-workers", type=int, default=2,
                    help="worker processes per submission with "
                         "--executor cluster (default: 2)")
    sv.add_argument("--no-catalog", action="store_true",
                    help="skip the catalog index upsert after each publish "
                         "(default: published runs become queryable via "
                         "`repro catalog` immediately)")

    co = sub.add_parser(
        "coordinator", help="serve a spec's pending points to workers over "
                            "TCP (work-stealing leases, table service)")
    co.add_argument("spec", help="path to a .toml or .json experiment spec")
    co.add_argument("--runs-dir", default=DEFAULT_RUNS_DIR,
                    help=f"run-store root directory (default: {DEFAULT_RUNS_DIR}/)")
    co.add_argument("--run-id", default=None,
                    help="run id (default: spec name + content digest)")
    co.add_argument("--bind", default="127.0.0.1:0",
                    help="host:port to listen on (port 0 = ephemeral; the "
                         "bound address is printed to stdout at startup)")
    co.add_argument("--lease-ttl", type=float, default=60.0,
                    help="lease expiry in seconds; workers heartbeat at a "
                         "third of this (default: 60)")
    co.add_argument("--resume", action="store_true",
                    help="continue the run if it already exists")
    co.add_argument("--cache-dir", default=CACHE_DIR_HELP_DEFAULT,
                    help=CACHE_DIR_HELP)
    co.add_argument("--http-port", type=int, default=None,
                    help="serve /healthz + /metrics on this localhost port "
                         "(0 = ephemeral, printed at startup; default: "
                         "disabled)")
    co.add_argument("--max-runtime", type=float, default=None,
                    help="wall-clock safety limit in seconds")

    wk = sub.add_parser(
        "worker", help="connect to a coordinator, compute leased points, "
                       "stream the shards back")
    wk.add_argument("address", help="coordinator host:port (printed by "
                                    "`repro coordinator` at startup)")
    wk.add_argument("--spec", default=None,
                    help="local spec file to verify against the coordinator "
                         "by digest (default: adopt the coordinator's spec)")
    wk.add_argument("--jobs", "-j", type=int, default=1,
                    help="local evaluation processes (leases up to this "
                         "many points at once)")
    wk.add_argument("--cache-dir", default=CACHE_DIR_HELP_DEFAULT,
                    help=CACHE_DIR_HELP)
    wk.add_argument("--worker-id", default=None,
                    help="stable worker identity for logs and lease "
                         "accounting (default: random)")
    wk.add_argument("--retry-for", type=float, default=10.0,
                    help="seconds to retry the initial connection while the "
                         "coordinator comes up (default: 10)")

    sb = sub.add_parser(
        "submit", help="enqueue a spec file (or '-' for stdin) for the service")
    sb.add_argument("spec", help="path to a .toml/.json experiment spec, "
                                 "or '-' to read the spec from stdin")
    sb.add_argument("--runs-dir", default=DEFAULT_RUNS_DIR,
                    help=f"run-store root directory (default: {DEFAULT_RUNS_DIR}/)")
    sb.add_argument("--tenant", default=None,
                    help="run-store namespace (default: the spec file's "
                         "[submission] tenant, else 'default')")
    sb.add_argument("--priority", type=int, default=None,
                    help="scheduling priority, higher first (default: the "
                         "spec file's [submission] priority, else 0)")
    sb.add_argument("--format", choices=["toml", "json"], default=None,
                    help="stdin spec format (default: sniffed — a leading "
                         "'{' means JSON, anything else TOML)")

    st = sub.add_parser(
        "status", help="show the submission queue (table or --json)")
    st.add_argument("entry", nargs="?", default=None,
                    help="show one entry in full (default: the whole queue)")
    st.add_argument("--runs-dir", default=DEFAULT_RUNS_DIR,
                    help=f"run-store root directory (default: {DEFAULT_RUNS_DIR}/)")
    st.add_argument("--json", action="store_true", dest="as_json",
                    help="emit the machine-readable JSON snapshot (the "
                         "schema the HTTP /status endpoint also serves)")

    cn = sub.add_parser(
        "cancel", help="cancel a not-yet-running submission")
    cn.add_argument("entry", help="entry id to cancel (see `repro status`)")
    cn.add_argument("--runs-dir", default=DEFAULT_RUNS_DIR,
                    help=f"run-store root directory (default: {DEFAULT_RUNS_DIR}/)")

    ct = sub.add_parser(
        "catalog", help="cross-run analytics over one or more runs roots "
                        "(see docs/catalog.md)")
    ct.add_argument("--runs-dir", action="append", default=None,
                    dest="runs_dirs", metavar="DIR",
                    help="runs root to index/query (repeatable for multiple "
                         f"roots; default: {DEFAULT_RUNS_DIR}/; the index "
                         "lives in <first root>/_catalog/)")
    ctsub = ct.add_subparsers(dest="catalog_command", required=True)

    def add_find_filters(sp):
        """The shared ``find()`` filter flags (list / query / export)."""
        sp.add_argument("--name", default=None, help="exact spec name")
        sp.add_argument("--kind", choices=["sweep", "scenario"], default=None)
        sp.add_argument("--family", default=None,
                        help="scenario family (scenario runs only)")
        sp.add_argument("--scheduler", default=None,
                        help="runs whose spec includes this scheduler")
        sp.add_argument("--adversary", default=None,
                        help="runs whose spec includes this adversary")
        sp.add_argument("-p", "--interrupts", type=int, default=None,
                        dest="p", help="runs sweeping this interrupt budget")
        sp.add_argument("-c", "--setup-cost", type=float, default=None,
                        dest="c", help="runs sweeping this set-up cost")
        sp.add_argument("-U", "--lifespan", type=float, default=None,
                        dest="u", help="runs sweeping this lifespan")
        sp.add_argument("--status", choices=["running", "complete"],
                        default=None)
        sp.add_argument("--tenant", default=None,
                        help="service namespace ('' = top-level CLI runs)")
        sp.add_argument("--since", default=None,
                        help="runs modified at/after this ISO date or "
                             "POSIX timestamp")
        sp.add_argument("--no-refresh", action="store_true",
                        help="query the index as-is instead of refreshing "
                             "it incrementally first")

    cti = ctsub.add_parser(
        "index", help="bring the index in line with the runs roots "
                      "(incremental: only changed runs are re-read)")
    cti.add_argument("--full", action="store_true",
                     help="re-extract every run, ignoring content digests")

    ctl = ctsub.add_parser("list", help="list indexed runs (one row each)")
    add_find_filters(ctl)

    ctq = ctsub.add_parser(
        "query", help="concatenate matching runs' result rows "
                      "(provenance-tagged: run_id, tenant, spec_digest)")
    add_find_filters(ctq)
    ctq.add_argument("--columns", nargs="+", default=None,
                     help="restrict the result columns (provenance columns "
                          "are always appended)")
    ctq.add_argument("--where", action="append", default=None,
                     metavar="COL=VALUE",
                     help="keep only rows where COL equals VALUE "
                          "(repeatable; repeated COL means 'any of')")
    ctq.add_argument("--source", choices=["auto", "sidecar", "shards"],
                     default="auto",
                     help="where rows come from (auto = sidecar fast path "
                          "when valid, shards otherwise)")

    cte = ctsub.add_parser(
        "export", help="write the matching rows to CSV / Parquet / Arrow")
    cte.add_argument("output", help="output path (.csv, .parquet, .arrow; "
                                    "Parquet/Arrow need pyarrow installed)")
    add_find_filters(cte)
    cte.add_argument("--columns", nargs="+", default=None)
    cte.add_argument("--where", action="append", default=None,
                     metavar="COL=VALUE")
    cte.add_argument("--format", choices=["auto", "csv", "parquet", "arrow"],
                     default="auto",
                     help="export format (default: from the file extension)")

    ctd = ctsub.add_parser(
        "diff", help="markdown comparison of two indexed runs")
    ctd.add_argument("run_a", help="first run id")
    ctd.add_argument("run_b", help="second run id")
    ctd.add_argument("--tenant-a", default=None,
                     help="disambiguate run_a across tenants")
    ctd.add_argument("--tenant-b", default=None,
                     help="disambiguate run_b across tenants")
    ctd.add_argument("--no-refresh", action="store_true",
                     help="query the index as-is instead of refreshing first")

    return parser


def _cmd_table1(args) -> List[dict]:
    from .schedules import EqualizingAdaptiveScheduler

    params = CycleStealingParams(lifespan=args.lifespan, setup_cost=args.setup_cost,
                                 max_interrupts=args.interrupts)
    schedule = EqualizingAdaptiveScheduler().episode_schedule(
        params.lifespan, params.max_interrupts, params.setup_cost)
    return table1_rows(schedule, params)


def _cmd_table2(args) -> List[dict]:
    return table2_rows(args.lifespans, args.setup_cost)


def _cmd_nonadaptive(args) -> List[dict]:
    return nonadaptive_guarantee_sweep(args.lifespans, args.setup_cost, args.interrupts)


def _cmd_adaptive(args) -> List[dict]:
    return adaptive_guarantee_sweep(args.lifespans, args.setup_cost, args.interrupts)


def _cmd_gap(args) -> List[dict]:
    from .analysis.sweeps import registry_comparison_sweep
    from .experiments.cache import configure_shared_cache
    from .registry import SCHEDULERS

    params = CycleStealingParams(lifespan=float(args.lifespan),
                                 setup_cost=float(args.setup_cost),
                                 max_interrupts=args.interrupts)
    # The shared cache serves both this solve and any dp-optimal factory
    # instantiation, so the table is computed exactly once per process.
    cache = configure_shared_cache(cache_dir=args.cache_dir)
    table = cache.solve(int(args.lifespan), int(args.setup_cost), args.interrupts)
    names = ["dp-optimal"] + [n for n in SCHEDULERS.names() if n != "dp-optimal"]
    return registry_comparison_sweep(names, [params], dp_table=table,
                                     jobs=args.jobs)


def _cmd_simulate(args) -> List[dict]:
    from .experiments.grid import make_scheduler
    from .registry import SCENARIO_FAMILIES
    from .simulator import CycleStealingSimulation

    family = SCENARIO_FAMILIES[args.scenario]
    scenario = family() if args.seed is None else family(seed=args.seed)
    scheduler = make_scheduler(args.scheduler, scenario.params)
    if not hasattr(scheduler, "episode_schedule"):
        raise SystemExit(
            f"error: scheduler {args.scheduler!r} implements only the "
            "non-adaptive protocol and cannot drive the NOW simulator (it "
            "cannot re-plan after an owner reclaim); choose an adaptive "
            "scheduler such as 'equalizing-adaptive'")
    if args.backend == "batch":
        from .simulator.batch import simulate_scenarios_batch

        (report,) = simulate_scenarios_batch([scenario], scheduler)
    else:
        report = CycleStealingSimulation(scenario.workstations, scheduler,
                                         task_bag=scenario.task_bag).run()
    return report.rows()


def _cmd_sweep(args) -> List[dict]:
    from .experiments import SweepGrid, run_sweep

    adversaries = tuple(args.adversaries)
    if args.replications > 0 and not adversaries:
        # Asking for replications implies a Monte-Carlo layer; silently
        # producing none would be a no-op, so default to a Poisson owner.
        adversaries = ("poisson-owner",)
        print("note: --replications given without --adversaries; "
              "defaulting to 'poisson-owner'", file=sys.stderr)

    grid = SweepGrid(lifespans=tuple(args.lifespans),
                     setup_costs=tuple(args.setup_costs),
                     interrupt_budgets=tuple(args.interrupts),
                     schedulers=tuple(args.schedulers),
                     adversaries=adversaries)
    return run_sweep(grid, jobs=args.jobs, replications=args.replications,
                     seed=args.seed, cache_dir=args.cache_dir,
                     include_optimal=args.optimal, backend=args.backend,
                     aggregation=args.aggregation, chunk_size=args.chunk_size,
                     variance=args.variance, profile=args.profile)


def _spec_with_overrides(args):
    """Load the spec file and re-validate it with any CLI overrides applied."""
    from .specs import load_spec, parse_spec, spec_to_dict

    spec = load_spec(args.spec)
    overrides = {key: getattr(args, key, None)
                 for key in ("replications", "seed", "backend",
                             "aggregation", "chunk_size", "variance")}
    if any(value is not None for value in overrides.values()):
        data = spec_to_dict(spec)
        for key, value in overrides.items():
            if value is not None:
                data["experiment"][key] = value
        spec = parse_spec(data, source=f"{args.spec} (with CLI overrides)")
    return spec


def _cmd_run(args) -> List[dict]:
    from .runstore import run_spec

    spec = _spec_with_overrides(args)
    if args.executor == "cluster":
        if args.max_points is not None or args.profile:
            raise SystemExit("error: --max-points and --profile are not "
                             "supported with --executor cluster (run the "
                             "coordinator directly for finer control)")
        from .distributed import run_spec_distributed
        from .experiments.orchestrator import resolve_jobs

        run = run_spec_distributed(spec, runs_dir=args.runs_dir,
                                   run_id=args.run_id,
                                   workers=resolve_jobs(args.jobs),
                                   cache_dir=args.cache_dir,
                                   lease_ttl=args.lease_ttl,
                                   resume=args.resume)
    else:
        run = run_spec(spec, runs_dir=args.runs_dir,
                       run_id=args.run_id, jobs=args.jobs,
                       cache_dir=args.cache_dir, max_points=args.max_points,
                       resume=args.resume, profile=args.profile)
    rows = run.rows()
    print(f"run {run.run_id}: {run.status} "
          f"({len(rows)}/{run.num_points} points) "
          f"under {args.runs_dir}/", file=sys.stderr)
    return rows


def _cmd_resume(args) -> List[dict]:
    from .runstore import resume_run

    run = resume_run(args.run_id, runs_dir=args.runs_dir, jobs=args.jobs,
                     cache_dir=args.cache_dir, max_points=args.max_points)
    rows = run.rows()
    print(f"run {run.run_id}: {run.status} "
          f"({len(rows)}/{run.num_points} points)", file=sys.stderr)
    return rows


def _cmd_report(args) -> str:
    import time

    from .experiments.profiling import render_profile
    from .reporting import refresh_run_report, render_run_report
    from .runstore import RunStore

    started = time.perf_counter()
    run = RunStore(args.runs_dir).open(args.run_id)
    if args.output == "-":  # print-only mode: render fresh, write nothing
        text = render_run_report(run)
        hit = False
    else:
        path, hit = refresh_run_report(run, args.output, force=args.force)
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        print(f"report-cache: {'hit' if hit else 'miss — rendered'}",
              file=sys.stderr)
        print(f"{'cached' if hit else 'wrote'} {path}", file=sys.stderr)
    if args.profile:
        elapsed = time.perf_counter() - started
        # On a cache hit nothing is re-read or re-rendered, so the stage
        # collapses to the digest check — exactly the win being measured.
        print(render_profile({"report_render": elapsed},
                             wall_seconds=elapsed, points=run.num_points),
              file=sys.stderr)
    return text


def _open_journal(runs_dir: str):
    import os

    from .service.journal import QUEUE_DIRNAME, Journal

    return Journal(os.path.join(runs_dir, QUEUE_DIRNAME))


def _cmd_serve(args) -> str:
    import signal

    from .service.http import StatusHTTPServer
    from .service.runner import RunService

    service = RunService(args.runs_dir, workers=args.workers,
                         jobs_per_run=args.jobs,
                         max_retries=args.max_retries,
                         backoff_base=args.backoff_base,
                         backoff_cap=args.backoff_cap,
                         poll_interval=args.poll_interval,
                         cache_dir=args.cache_dir,
                         http_port=args.http_port,
                         executor=args.executor,
                         cluster_workers=args.cluster_workers,
                         catalog_index=not args.no_catalog)

    def request_stop(signum, frame):
        service.stop()

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, request_stop)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    if args.http_port is not None:
        # Start HTTP before the blocking loop so an ephemeral port
        # (--http-port 0) can be announced to whoever started us.
        service.http = StatusHTTPServer(service.journal, port=args.http_port,
                                        inflight=service.inflight_ids,
                                        metrics=service.metrics_snapshot)
        service.http.start()
        print(f"status endpoint: http://127.0.0.1:{service.http.port}/status",
              file=sys.stderr)
    counts = service.serve(drain=args.drain, max_runtime=args.max_runtime)
    pending = sum(counts[state]
                  for state in ("submitted", "validated", "running", "failed"))
    return (f"service stopped: {counts['published']} published, "
            f"{counts['dead']} dead, {counts['cancelled']} cancelled, "
            f"{pending} pending")


def _cmd_submit(args) -> str:
    from .service.journal import JournalError
    from .specs import (
        SpecError,
        decode_spec_data,
        load_spec_data,
        parse_submission,
    )

    try:
        if args.spec == "-":
            data = decode_spec_data(sys.stdin.read(), format=args.format)
            source = "<stdin>"
        else:
            data = load_spec_data(args.spec)
            source = args.spec
        # Submission metadata resolution: CLI flag > the spec file's
        # [submission] table > defaults.  Semantic spec validation is the
        # service's job (a bad spec dead-letters with a captured error);
        # only the format and the routing metadata are checked here.
        meta = parse_submission(data, source=source)
        tenant = args.tenant if args.tenant is not None else meta.tenant
        priority = args.priority if args.priority is not None else meta.priority
        entry = _open_journal(args.runs_dir).submit(
            data, tenant=tenant, priority=priority)
    except (SpecError, JournalError) as exc:
        raise SystemExit(f"error: {exc}")
    return (f"submitted {entry.entry_id} "
            f"(spec={entry.spec_name or '?'}, tenant={tenant}, "
            f"priority={priority}) from {source}")


def _status_row(summary: dict) -> dict:
    """One compact table row (full detail lives in --json / single-entry)."""
    error = (summary["error"] or "").strip()
    return {
        "entry": summary["entry"],
        "state": summary["state"],
        "tenant": summary["tenant"],
        "priority": summary["priority"],
        "attempts": summary["attempts"],
        "spec": summary["spec_name"] or "?",
        "run_id": summary["run_id"] or "",
        "error": error.splitlines()[-1][:60] if error else "",
    }


def _cmd_status(args):
    import json

    from .service.journal import JournalError
    from .service.status import entry_summary, status_snapshot

    journal = _open_journal(args.runs_dir)
    if args.entry is None:
        if args.as_json:
            return json.dumps(status_snapshot(journal), indent=2,
                              sort_keys=True)
        rows = [_status_row(entry_summary(entry))
                for entry in journal.entries()]
        if not rows:
            return f"queue is empty: no submissions under {journal.root}/"
        return rows
    try:
        entry = journal.get(args.entry)
    except JournalError as exc:
        raise SystemExit(f"error: {exc}")
    summary = entry_summary(entry)
    if args.as_json:
        return json.dumps(summary, indent=2, sort_keys=True)
    lines = [f"{key}: {summary[key]}"
             for key in ("entry", "state", "tenant", "priority", "seq",
                         "spec_name", "run_id", "attempts",
                         "next_attempt_at", "submitted_at", "updated_at")]
    if summary["error"]:
        lines += ["error:", str(summary["error"]).rstrip()]
    return "\n".join(lines)


def _cmd_coordinator(args) -> str:
    from .distributed import Coordinator, DistributedError
    from .distributed.protocol import resolve_bind
    from .specs import load_spec

    spec = load_spec(args.spec)
    host, port = resolve_bind(args.bind)
    coordinator = Coordinator(spec, runs_dir=args.runs_dir,
                              run_id=args.run_id, host=host, port=port,
                              lease_ttl=args.lease_ttl, resume=args.resume,
                              cache_dir=args.cache_dir)
    http = None
    try:
        coordinator.start()
        bound_host, bound_port = coordinator.address
        # Announced on stdout, flushed before blocking: scripts spawning
        # `repro coordinator --bind host:0` parse this line for the port.
        print(f"coordinator listening on {bound_host}:{bound_port}",
              flush=True)
        if args.http_port is not None:
            from .service.http import StatusHTTPServer

            http = StatusHTTPServer(None, port=args.http_port,
                                    metrics=coordinator.metrics_snapshot)
            http.start()
            print(f"metrics endpoint: "
                  f"http://127.0.0.1:{http.port}/metrics", flush=True)
        finished = coordinator.wait(timeout=args.max_runtime)
    finally:
        coordinator.stop()
        if http is not None:
            http.close()
    counts = coordinator.ledger.counts()
    if not finished:
        raise SystemExit(
            f"error: coordinator stopped with {counts.total - counts.done} "
            f"of {counts.total} points incomplete (run "
            f"{coordinator.run.run_id!r} stays resumable)")
    metrics = coordinator.metrics_snapshot()
    return (f"run {coordinator.run.run_id}: complete "
            f"({counts.done}/{counts.total} points; "
            f"{metrics['workers']['seen']} workers, "
            f"{metrics['table_service']['dp_solves']} DP solves, "
            f"{metrics['shards']['bytes_streamed']} shard bytes streamed)")


def _cmd_worker(args) -> str:
    from .distributed import WorkerClient
    from .distributed.protocol import resolve_bind

    host, port = resolve_bind(args.address)
    spec = None
    if args.spec is not None:
        from .specs import load_spec

        spec = load_spec(args.spec)
    stats = WorkerClient(host, port, spec=spec, worker_id=args.worker_id,
                         jobs=args.jobs, cache_dir=args.cache_dir,
                         connect_retry_for=args.retry_for).run()
    return (f"worker {stats.worker_id}: "
            f"{stats.points_completed} points completed "
            f"({stats.points_duplicate} duplicates, "
            f"{stats.tables_fetched} tables fetched, "
            f"{stats.shard_bytes_sent} shard bytes sent)")


def _parse_where(pairs: Optional[List[str]]) -> Optional[dict]:
    """``--where COL=VALUE`` flags into a ``frame(where=...)`` dict.

    Values parse as JSON when possible (so ``-p 3`` style numerics compare
    as numbers) and fall back to plain strings; a repeated column becomes
    a membership list.
    """
    import json

    if not pairs:
        return None
    where: dict = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"error: --where expects COL=VALUE, got {pair!r}")
        name, _, raw = pair.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        if name in where:
            previous = where[name]
            where[name] = (previous if isinstance(previous, list)
                           else [previous]) + [value]
        else:
            where[name] = value
    return where


def _catalog_record_row(record) -> dict:
    """One ``catalog list`` table row per indexed run."""
    spec = record.spec
    return {
        "run_id": record.run_id,
        "tenant": record.tenant or "-",
        "status": record.status,
        "points": f"{record.completed}/{record.num_points}",
        "kind": spec.get("kind", "?"),
        "name": spec.get("name", "?"),
        "schedulers": len(spec.get("schedulers", [])),
        "columns": len(record.column_schema),
        "spec_digest": record.spec_digest[:12],
    }


def _cmd_catalog(args):
    from .catalog import Catalog, CatalogError, export_frame
    from .runstore import DEFAULT_RUNS_DIR

    roots = args.runs_dirs or [DEFAULT_RUNS_DIR]
    catalog = Catalog(roots)
    try:
        if args.catalog_command == "index":
            stats = catalog.refresh(full=args.full)
            return (f"indexed {stats['indexed']} run(s), "
                    f"{stats['unchanged']} unchanged, "
                    f"{stats['removed']} removed, "
                    f"{stats['failed']} unreadable "
                    f"({stats['total']} total) -> {catalog.index_path}")
        if not args.no_refresh:
            catalog.refresh()
        if args.catalog_command == "diff":
            return catalog.diff(args.run_a, args.run_b,
                                tenant_a=args.tenant_a,
                                tenant_b=args.tenant_b)
        filters = {key: getattr(args, key)
                   for key in ("name", "kind", "family", "scheduler",
                               "adversary", "p", "c", "u", "status",
                               "tenant", "since")
                   if getattr(args, key) is not None}
        if args.catalog_command == "list":
            handles = catalog.find(**filters)
            if not handles:
                return (f"no indexed runs match under {', '.join(roots)} "
                        "(run `repro catalog index` after adding runs)")
            return [_catalog_record_row(h.record) for h in handles]
        frame = catalog.frame(args.columns, where=_parse_where(args.where),
                              source=getattr(args, "source", "auto"),
                              **filters)
        if args.catalog_command == "query":
            return frame
        fmt = export_frame(frame, args.output, format=args.format)
        return (f"wrote {len(frame)} row(s) x {len(frame.data)} column(s) "
                f"to {args.output} ({fmt})")
    except CatalogError as exc:
        raise SystemExit(f"error: {exc}")


def _cmd_cancel(args) -> str:
    from .service.journal import JournalError

    try:
        entry = _open_journal(args.runs_dir).cancel(args.entry)
    except JournalError as exc:
        raise SystemExit(f"error: {exc}")
    return f"cancelled {entry.entry_id} (spec={entry.spec_name or '?'})"


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "table1": _cmd_table1,
        "table2": _cmd_table2,
        "nonadaptive": _cmd_nonadaptive,
        "adaptive": _cmd_adaptive,
        "gap": _cmd_gap,
        "simulate": _cmd_simulate,
        "sweep": _cmd_sweep,
        "run": _cmd_run,
        "resume": _cmd_resume,
        "report": _cmd_report,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "status": _cmd_status,
        "cancel": _cmd_cancel,
        "catalog": _cmd_catalog,
        "coordinator": _cmd_coordinator,
        "worker": _cmd_worker,
    }
    result = handlers[args.command](args)
    try:
        if isinstance(result, str):  # pre-rendered output (markdown reports)
            print(result)
            return 0
        print(render_table(result, title=f"cycle-stealing {args.command}"))
        if args.csv:
            write_csv(args.csv, result)
            print(f"\nwrote {len(result)} rows to {args.csv}")
    except BrokenPipeError:
        # Downstream consumer (head, grep -q, ...) closed stdout early:
        # the conventional CLI response is a quiet exit, not a traceback.
        # Detach stdout so interpreter shutdown doesn't re-raise on flush.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
