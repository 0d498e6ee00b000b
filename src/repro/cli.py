"""Command-line interface: run scenarios, sweep seeds, compare results.

Usage::

    python -m repro run --seed 2016 --out results/
    python -m repro run --scenario paste_only --seed 7
    python -m repro run --persona-mix 'curious=0.5,stuffing_bot=0.5'
    python -m repro run --checkpoint-every 30 --checkpoint-dir ckpt/
    python -m repro run --resume-from ckpt/checkpoint_day_30.pkl
    python -m repro serve --wal events.wal --checkpoint service.ckpt
    python -m repro serve --scenario fast --shutdown-after-feed
    python -m repro tables --seed 2016 --out results/
    python -m repro scenarios                 # list the registry
    python -m repro scenarios paste_only      # describe one entry
    python -m repro personas                  # list attacker personas
    python -m repro personas lurker           # describe one persona
    python -m repro defenses                  # list defender mechanisms
    python -m repro defenses c3               # describe one defense
    python -m repro run --scenario c3_defended --seed 7
    python -m repro run --defenses 'c3,reset_policy' --seed 7
    python -m repro sweep --seeds 2016..2018 --jobs 2
    python -m repro sweep --store results-store --seeds 2016..2023
    python -m repro sweep --store results-store --resume --backend pool
    python -m repro store ls --store results-store
    python -m repro compare --scenarios fast,no_case_studies --seeds 1..2

``--persona-mix`` accepts a compact ``name=weight`` spec (combos join
with ``+``, applied to every outlet of the plan), inline JSON, or a
path to a ``PersonaMix`` JSON file.

``--defenses`` accepts comma-separated registered defense names (each
with its default parameters), inline JSON (a list of defense specs),
or a path to a JSON file of specs; it replaces the scenario's defense
list.  ``--defenses ''`` strips all defenses from a defended scenario.

``sweep --store DIR`` turns a one-shot sweep into a persistent,
memoized campaign (:mod:`repro.sweeps`): completed (scenario, seed,
code-version) cells are stored content-addressed under ``DIR`` and
skipped on re-launch (``--resume``), with every state transition
journaled to ``DIR/journal.jsonl``.  ``store ls``/``verify``/``gc``
inspect and maintain the store.

``python -m repro.cli ...`` keeps working for older scripts.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.analysis.export import export_results
from repro.analysis.report import (
    format_persona_report,
    format_table2,
    format_taxonomy_summary,
)
from repro.api.envelope import run_scenario
from repro.api.registry import scenarios
from repro.api.runner import BatchRunner
from repro.api.scenario import Scenario
from repro.attackers.personas import PersonaMix, personas
from repro.defenses import Defense, defenses, defenses_from_specs
from repro.errors import ConfigurationError, ReproError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce 'What Happens After You Are Pwnd' (IMC 2016) on "
            "the simulated honey-account ecosystem."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run", help="run one measurement and print the overview"
    )
    tables_parser = subparsers.add_parser(
        "tables", help="run and print Table 2 + the taxonomy summary"
    )
    for sub in (run_parser, tables_parser):
        sub.add_argument(
            "--seed", type=int, default=2016,
            help="master seed (default: 2016)",
        )
        sub.add_argument(
            "--scenario", default=None, metavar="NAME",
            help="registry scenario to run (default: fast)",
        )
        sub.add_argument(
            "--paper-cadence", action="store_true",
            help="use the paper's 10-minute script scans (slower); "
            "shorthand for --scenario paper_default",
        )
        sub.add_argument(
            "--duration-days", type=float, default=None, metavar="DAYS",
            help="override the measurement window length",
        )
        sub.add_argument(
            "--out", default=None, metavar="DIR",
            help="export results.json and figure CSVs into DIR",
        )
        sub.add_argument(
            "--persona-mix", default=None, metavar="SPEC",
            dest="persona_mix",
            help="override the attacker persona mix: 'name=w,name2+name3=w2' "
            "(applied to every outlet), inline JSON, or a JSON file path",
        )
        sub.add_argument(
            "--defenses", default=None, metavar="SPEC",
            dest="defenses",
            help="replace the scenario's defender stack: comma-separated "
            "defense names ('c3,reset_policy'), inline JSON (a list of "
            "defense specs), a JSON file path, or '' to strip defenses",
        )
    run_parser.add_argument(
        "--telemetry-out", default=None, metavar="DIR",
        help="export raw telemetry (accesses.jsonl, notifications.jsonl, "
        "dataset.json) into DIR after the run",
    )
    run_parser.add_argument(
        "--spill-telemetry", default=None, metavar="DIR",
        help="stream accesses/notifications to JSONL in DIR *during* the "
        "run (for measurements too large to keep resident)",
    )
    run_parser.add_argument(
        "--telemetry-budget", type=float, default=None, metavar="MB",
        dest="telemetry_budget",
        help="cap resident telemetry at MB megabytes: stores that "
        "would exceed it write chunked columns to disk during the run "
        "and the analysis streams them back (bit-identical results; "
        "0 spills everything)",
    )
    run_parser.add_argument(
        "--spill-dir", default=None, metavar="DIR", dest="spill_dir",
        help="directory for spilled telemetry chunks (default: a "
        "temporary directory; implies --telemetry-budget 0 when given "
        "alone)",
    )
    run_parser.add_argument(
        "--profile", default=None, metavar="FILE", dest="profile",
        help="dump a cProfile capture of the simulation loop to FILE "
        "(pstats format; inspect with 'python -m pstats FILE')",
    )
    run_parser.add_argument(
        "--shards", type=int, default=None, metavar="K",
        help="partition the account population across K worker "
        "processes (bit-identical analysis; default: the scenario's "
        "own shard count, usually 1)",
    )
    run_parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for a sharded run (default: "
        "min(shards, cpu count); 1 = run shards sequentially "
        "in-process)",
    )
    run_parser.add_argument(
        "--shard-timeout", type=float, default=None, metavar="SECONDS",
        dest="shard_timeout",
        help="wall-clock limit per shard worker attempt; a shard past "
        "it is killed and re-executed (deterministic, so the rerun is "
        "bit-identical; default: no limit)",
    )
    run_parser.add_argument(
        "--shard-retries", type=int, default=1, metavar="N",
        dest="shard_retries",
        help="re-executions allowed per crashed/hung/timed-out shard "
        "before the run fails (default: 1)",
    )
    run_parser.add_argument(
        "--fault-plan", default=None, metavar="FILE",
        dest="fault_plan",
        help="activate the fault-injection plan in FILE (FaultPlan "
        "JSON) for this run and its workers — chaos testing the "
        "supervision paths",
    )
    run_parser.add_argument(
        "--scenario-file", default=None, metavar="FILE",
        dest="scenario_file",
        help="run the scenario serialized in FILE (Scenario JSON) "
        "instead of a registry entry — how the sweep subprocess "
        "backend dispatches cells",
    )
    run_parser.add_argument(
        "--result-out", default=None, metavar="FILE", dest="result_out",
        help="pickle the RunResult envelope to FILE after the run "
        "(readable with pickle.load; used by the sweep subprocess "
        "backend to ship results back)",
    )
    run_parser.add_argument(
        "--fingerprint", action="store_true",
        help="print the sha256 fingerprint of the analysis output "
        "(canonical form; equal fingerprints mean field-for-field "
        "equal results — the sharded-equivalence smoke check in CI "
        "compares these)",
    )
    run_parser.add_argument(
        "--checkpoint-every", type=float, default=None, metavar="DAYS",
        dest="checkpoint_every",
        help="snapshot the whole mid-horizon simulation every DAYS "
        "simulated days; a snapshot resumes with --resume-from and "
        "finishes bit-identical to the uninterrupted run",
    )
    run_parser.add_argument(
        "--checkpoint-dir", default="checkpoints", metavar="DIR",
        dest="checkpoint_dir",
        help="directory for --checkpoint-every snapshots "
        "(default: checkpoints/)",
    )
    run_parser.add_argument(
        "--resume-from", default=None, metavar="FILE",
        dest="resume_from",
        help="resume a --checkpoint-every snapshot to its horizon "
        "instead of starting a new run",
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the live ingestion API (online classification, "
        "/stats dashboard, write-ahead log, checkpoint on shutdown)",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    serve_parser.add_argument(
        "--port", type=int, default=0,
        help="bind port (default: 0 = pick a free one; the chosen "
        "port is printed as 'serving on http://HOST:PORT')",
    )
    serve_parser.add_argument(
        "--wal", default=None, metavar="FILE",
        help="write-ahead log: every accepted event is journaled to "
        "FILE before it mutates state; an existing FILE is replayed "
        "on startup and appended to",
    )
    serve_parser.add_argument(
        "--checkpoint", default=None, metavar="FILE",
        help="service checkpoint: loaded (with the WAL tail past it) "
        "on startup, rewritten on graceful shutdown",
    )
    serve_parser.add_argument(
        "--scenario", default=None, metavar="NAME",
        help="also run this registry scenario and stream its "
        "telemetry into the service over its own HTTP API "
        "(default: serve only, wait for an external feed)",
    )
    serve_parser.add_argument(
        "--seed", type=int, default=2016,
        help="master seed for --scenario (default: 2016)",
    )
    serve_parser.add_argument(
        "--duration-days", type=float, default=None, metavar="DAYS",
        help="override the --scenario measurement window length",
    )
    serve_parser.add_argument(
        "--feed-batch", type=int, default=256, metavar="N",
        dest="feed_batch",
        help="events per --scenario feed POST (default: 256)",
    )
    serve_parser.add_argument(
        "--shutdown-after-feed", action="store_true",
        dest="shutdown_after_feed",
        help="gracefully shut down once the --scenario feed "
        "completes (the CI smoke mode)",
    )
    serve_parser.add_argument(
        "--degraded-ok", action="store_true", dest="degraded_ok",
        help="keep /healthz answering 200 while the WAL is unwritable "
        "(ingest still answers 503 + degraded flag; default: "
        "/healthz answers 503 when degraded)",
    )

    scenarios_parser = subparsers.add_parser(
        "scenarios", help="list registry scenarios, or describe one"
    )
    scenarios_parser.add_argument(
        "name", nargs="?", default=None,
        help="scenario to describe (omit to list all)",
    )
    scenarios_parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the scenario's full JSON definition",
    )

    personas_parser = subparsers.add_parser(
        "personas", help="list registered attacker personas, or describe one"
    )
    personas_parser.add_argument(
        "name", nargs="?", default=None,
        help="persona to describe (omit to list all)",
    )

    defenses_parser = subparsers.add_parser(
        "defenses",
        help="list registered defender mechanisms, or describe one",
    )
    defenses_parser.add_argument(
        "name", nargs="?", default=None,
        help="defense to describe (omit to list all)",
    )

    sweep_parser = subparsers.add_parser(
        "sweep", help="run one scenario across many seeds"
    )
    compare_parser = subparsers.add_parser(
        "compare", help="run several scenarios and compare aggregates"
    )
    for sub in (sweep_parser, compare_parser):
        sub.add_argument(
            "--seeds", default="2016..2018", metavar="SPEC",
            help="seed spec: 'A..B' (inclusive), 'a,b,c', or one seed "
            "(default: 2016..2018)",
        )
        sub.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help="worker processes (default: 1 = serial)",
        )
        sub.add_argument(
            "--duration-days", type=float, default=None, metavar="DAYS",
            help="override the measurement window length",
        )
        sub.add_argument(
            "--out", default=None, metavar="DIR",
            help="write the batch summary JSON into DIR",
        )
    sweep_parser.add_argument(
        "--scenario", default="fast", metavar="NAME[,NAME...]",
        help="registry scenario(s) to sweep, comma-separated "
        "(default: fast)",
    )
    sweep_parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="memoize (scenario, seed, code-version) cells in a "
        "content-addressed results store under DIR; already-stored "
        "cells are skipped",
    )
    sweep_parser.add_argument(
        "--resume", action="store_true",
        help="continue a sweep journaled in --store (required to run "
        "against a store that already has a journal)",
    )
    sweep_parser.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="extra attempts per failed cell before it is reported "
        "failed (default: 1; store mode only)",
    )
    sweep_parser.add_argument(
        "--backend", default=None,
        choices=["inprocess", "pool", "subprocess"],
        help="dispatch backend for store-mode sweeps (default: pool "
        "when --jobs > 1, else inprocess)",
    )
    sweep_parser.add_argument(
        "--max-cells", type=int, default=None, metavar="N",
        dest="max_cells",
        help="execute at most N uncached cells this invocation, "
        "deferring the rest (store mode only; resume later with "
        "--resume)",
    )
    sweep_parser.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        dest="cell_timeout",
        help="wall-clock limit per cell attempt on the pool/subprocess "
        "backends; a cell past it is killed, reported failed, and "
        "requeued under --retries (store mode only; default: no "
        "limit)",
    )

    store_parser = subparsers.add_parser(
        "store",
        help="inspect or maintain a memoized sweep results store",
    )
    store_parser.add_argument(
        "action", choices=["ls", "verify", "gc"],
        help="ls: list entries; verify: integrity-check payloads and "
        "addresses; gc: drop entries from other code versions plus "
        "interrupted writes",
    )
    store_parser.add_argument(
        "--store", required=True, metavar="DIR",
        help="the results store directory",
    )
    store_parser.add_argument(
        "--keep-version", default=None, metavar="TOKEN",
        dest="keep_version",
        help="gc: code-version token to keep (default: the current "
        "code version)",
    )
    store_parser.add_argument(
        "--quarantine", action="store_true",
        help="verify: move corrupt/uncommitted entries to "
        "<store>/quarantine/ instead of only reporting them, so "
        "'sweep --resume' recomputes those cells",
    )
    compare_parser.add_argument(
        "--scenarios", default="fast,no_case_studies", metavar="A,B,...",
        dest="scenario_names",
        help="comma-separated registry scenarios "
        "(default: fast,no_case_studies)",
    )
    return parser


def parse_seed_spec(spec: str) -> list[int]:
    """Parse 'A..B' (inclusive range), 'a,b,c', or a single seed."""
    spec = spec.strip()
    try:
        if ".." in spec:
            low_text, high_text = spec.split("..", 1)
            low, high = int(low_text), int(high_text)
            if high < low:
                raise ConfigurationError(
                    f"seed range {spec!r} is empty (end before start)"
                )
            return list(range(low, high + 1))
        if "," in spec:
            return [int(part) for part in spec.split(",") if part.strip()]
        return [int(spec)]
    except ValueError as exc:
        raise ConfigurationError(f"bad seed spec {spec!r}: {exc}") from exc


def _apply_duration(scenario: Scenario, duration_days: float | None) -> Scenario:
    if duration_days is None:
        return scenario
    return (
        scenario.to_builder().with_duration_days(duration_days).build()
    )


def parse_persona_mix_spec(spec: str, scenario: Scenario) -> PersonaMix:
    """Parse a ``--persona-mix`` value.

    Three forms: a path to a JSON file, inline JSON (starts with
    ``{``), or the compact ``name=weight,combo+parts=weight`` table
    applied to every outlet the scenario's leak plan uses.  Unknown
    persona names raise :class:`~repro.errors.ConfigurationError`
    listing the registered ones.
    """
    text = spec.strip()
    if text.startswith("{"):
        try:
            return PersonaMix.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"bad persona mix JSON: {exc}"
            ) from exc
    if text.endswith(".json") or Path(text).is_file():
        try:
            payload = json.loads(Path(text).read_text())
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read persona mix file {text!r}: {exc}"
            ) from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"bad persona mix JSON in {text!r}: {exc}"
            ) from exc
        return PersonaMix.from_dict(payload)
    rows = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        combo_text, separator, weight_text = part.partition("=")
        if not separator:
            raise ConfigurationError(
                f"bad persona mix entry {part!r}: expected name=weight"
            )
        combo = tuple(
            name.strip() for name in combo_text.split("+") if name.strip()
        )
        try:
            weight = float(weight_text)
        except ValueError as exc:
            raise ConfigurationError(
                f"bad persona mix weight in {part!r}: {exc}"
            ) from exc
        rows.append((combo, weight))
    if not rows:
        raise ConfigurationError(f"empty persona mix spec {spec!r}")
    return PersonaMix.from_table(
        {outlet: rows for outlet in scenario.outlets}
    ).validate()


def parse_defenses_spec(spec: str) -> tuple[Defense, ...]:
    """Parse a ``--defenses`` value into configured defense instances.

    Four forms: the empty string (strip all defenses), inline JSON
    starting with ``[`` (a list of defense specs, each a name string or
    a ``{"name": ..., <param>: ...}`` dict), a path to a JSON file
    holding such a list, or comma-separated registered names (each
    instantiated with its default parameters).  Unknown names and
    unknown parameters raise :class:`~repro.errors.ConfigurationError`
    listing the known ones.
    """
    text = spec.strip()
    if not text:
        return ()
    if text.startswith("["):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"bad defenses JSON: {exc}") from exc
        return defenses_from_specs(payload)
    if text.endswith(".json") or Path(text).is_file():
        try:
            payload = json.loads(Path(text).read_text())
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read defenses file {text!r}: {exc}"
            ) from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"bad defenses JSON in {text!r}: {exc}"
            ) from exc
        return defenses_from_specs(payload)
    names = [name.strip() for name in text.split(",") if name.strip()]
    return defenses_from_specs(names)


def _resolve_scenario(args) -> Scenario:
    """The scenario a run/tables invocation asks for, seed applied."""
    scenario_file = getattr(args, "scenario_file", None)
    if scenario_file is not None:
        if args.scenario is not None or args.paper_cadence:
            raise ConfigurationError(
                "--scenario-file cannot be combined with --scenario "
                "or --paper-cadence (the file already is the scenario)"
            )
        try:
            payload = Path(scenario_file).read_text()
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read scenario file {scenario_file!r}: {exc}"
            ) from exc
        base = Scenario.from_json(payload)
    else:
        name = args.scenario
        if name is None:
            name = "paper_default" if args.paper_cadence else "fast"
        elif args.paper_cadence:
            raise ConfigurationError(
                "--paper-cadence cannot be combined with --scenario "
                "(the scenario already fixes the cadence)"
            )
        base = scenarios.get(name)
    scenario = _apply_duration(
        base.with_seed(args.seed), args.duration_days
    )
    if getattr(args, "persona_mix", None):
        mix = parse_persona_mix_spec(args.persona_mix, scenario)
        scenario = scenario.to_builder().with_personas(mix).build()
    if getattr(args, "defenses", None) is not None:
        scenario = scenario.with_defenses(
            *parse_defenses_spec(args.defenses)
        )
    return scenario


def _command_run(args) -> int:
    if getattr(args, "fault_plan", None):
        from repro.faults import FaultPlan

        FaultPlan.from_json(Path(args.fault_plan).read_text()).activate()
    if args.resume_from is not None:
        return _run_resumed(args)
    if args.checkpoint_every is not None:
        return _run_checkpointed(args)
    scenario = _resolve_scenario(args)
    if args.shards is not None:
        if args.shards > 1 and (args.spill_telemetry or args.profile):
            raise ConfigurationError(
                "--shards cannot be combined with --spill-telemetry or "
                "--profile (both instrument one in-process world)"
            )
        scenario = scenario.with_shards(args.shards)
    spilled: list = []
    monitors: list = []

    def _attach_spill(experiment) -> None:
        monitors.append(experiment.monitor)
        spilled.extend(
            experiment.monitor.spill_telemetry(args.spill_telemetry)
        )

    budget = None
    if (
        getattr(args, "telemetry_budget", None) is not None
        or getattr(args, "spill_dir", None)
    ):
        from repro.telemetry import TelemetryBudget

        if args.telemetry_budget is None:
            budget = TelemetryBudget.spill_all(spill_dir=args.spill_dir)
        else:
            budget = TelemetryBudget(
                max_resident_mb=args.telemetry_budget,
                spill_dir=args.spill_dir,
            )
    run = run_scenario(
        scenario,
        on_built=_attach_spill if args.spill_telemetry else None,
        profile_path=args.profile,
        jobs=args.jobs,
        telemetry_budget=budget,
        shard_timeout=args.shard_timeout,
        shard_retries=args.shard_retries,
    )
    for monitor in monitors:
        monitor.close_spill()
    return _report_run(run, args, spilled=spilled)


def _run_checkpointed(args) -> int:
    """``run --checkpoint-every DAYS``: snapshot the simulation as it
    advances; every snapshot resumes with ``--resume-from``."""
    from repro.service import run_with_checkpoints

    incompatible = [
        flag
        for flag, value in (
            ("--shards", args.shards),
            ("--jobs", args.jobs),
            ("--spill-telemetry", args.spill_telemetry),
            ("--telemetry-budget", args.telemetry_budget),
            ("--spill-dir", args.spill_dir),
            ("--profile", args.profile),
            ("--shard-timeout", args.shard_timeout),
        )
        if value is not None
    ]
    if incompatible:
        raise ConfigurationError(
            "--checkpoint-every snapshots one in-process world; it "
            f"cannot be combined with {', '.join(incompatible)}"
        )
    scenario = _resolve_scenario(args)
    run, paths = run_with_checkpoints(
        scenario,
        every_days=args.checkpoint_every,
        directory=args.checkpoint_dir,
    )
    for path in paths:
        print(f"wrote checkpoint: {path}")
    return _report_run(run, args)


def _run_resumed(args) -> int:
    """``run --resume-from FILE``: finish a checkpointed run."""
    from repro.service import resume_run

    incompatible = [
        flag
        for flag, value in (
            ("--scenario", args.scenario),
            ("--scenario-file", args.scenario_file),
            ("--paper-cadence", args.paper_cadence or None),
            ("--persona-mix", args.persona_mix),
            ("--duration-days", args.duration_days),
            ("--checkpoint-every", args.checkpoint_every),
            ("--shards", args.shards),
            ("--jobs", args.jobs),
            ("--spill-telemetry", args.spill_telemetry),
            ("--telemetry-budget", args.telemetry_budget),
            ("--spill-dir", args.spill_dir),
            ("--profile", args.profile),
            ("--shard-timeout", args.shard_timeout),
        )
        if value is not None
    ]
    if incompatible:
        raise ConfigurationError(
            "--resume-from continues the checkpointed run as it was "
            f"configured; it cannot be combined with "
            f"{', '.join(incompatible)}"
        )
    run = resume_run(args.resume_from)
    print(f"resumed from checkpoint: {args.resume_from}")
    return _report_run(run, args)


def _report_run(run, args, *, spilled: list | None = None) -> int:
    stats = run.overview()
    print(f"measurement complete in {run.elapsed_seconds:.1f}s "
          f"(scenario={run.scenario.name}, seed={run.seed}, "
          f"{run.events_executed} events, "
          f"{run.events_per_second:,.0f} events/s)")
    if run.shard_perf:
        slowest = max(
            s["elapsed_seconds"] for s in run.shard_perf
        )
        print(
            f"sharded across {len(run.shard_perf)} workers: "
            f"slowest shard {slowest:.1f}s, merge "
            f"{run.perf.get('merge', 0.0):.2f}s, per-shard accounts "
            f"{[s['owned_accounts'] for s in run.shard_perf]}"
        )
    if args.fingerprint:
        from repro.analysis.fingerprint import fingerprint_digest

        print(f"analysis fingerprint: {fingerprint_digest(run.analysis)}")
    if args.profile:
        print(f"wrote simulation-loop profile: {args.profile}")
    print(f"unique accesses: {stats.unique_accesses} (paper: 327)")
    print(f"emails read/sent/drafts: {stats.emails_read}/"
          f"{stats.emails_sent}/{stats.unique_drafts} "
          "(paper: 147/845/12)")
    print(f"blocked accounts: {stats.blocked_accounts} (paper: 42)")
    print(f"labels: {stats.label_totals}")
    for name, p_value in run.significance().items():
        print(f"cvm {name}: p={p_value:.7f}")
    if run.analysis.persona_report.matched_accesses:
        print(format_persona_report(run.analysis))
    if run.scenario.defenses:
        print("defense report:")
        for line in run.defense_report().describe().splitlines():
            print(f"  {line}")
    if args.out:
        written = export_results(
            run.analysis, args.out, blacklisted_ips=run.blacklisted_ips
        )
        print(f"exported {len(written)} files to {args.out}")
    if spilled:
        for path in spilled:
            print(f"spilled telemetry stream: {path}")
    if args.telemetry_out:
        written = run.export_telemetry(args.telemetry_out)
        print(f"exported telemetry ({len(written)} files) "
              f"to {args.telemetry_out}")
    if args.result_out:
        import pickle

        result_path = Path(args.result_out)
        result_path.parent.mkdir(parents=True, exist_ok=True)
        with result_path.open("wb") as handle:
            pickle.dump(run, handle, protocol=pickle.HIGHEST_PROTOCOL)
        print(f"wrote result envelope: {result_path}")
    return 0


def _command_tables(args) -> int:
    run = _resolve_scenario(args).run()
    print(format_taxonomy_summary(run.analysis))
    print()
    print(format_table2(run.analysis))
    if args.out:
        written = export_results(
            run.analysis, args.out, blacklisted_ips=run.blacklisted_ips
        )
        print(f"\nexported {len(written)} files to {args.out}")
    return 0


def _command_serve(args) -> int:
    """Run the live ingestion service, optionally self-fed.

    With ``--scenario`` the named scenario runs in a feeder thread and
    streams its telemetry through the service's own public HTTP API —
    the same path an external deployment would use; the scenario name
    resolves through the registry, so an unknown name exits 2 listing
    the known ones before the socket ever binds.
    """
    import threading

    from repro.errors import ServiceError
    from repro.service import (
        LiveFeed,
        ReproService,
        restore_service_state,
        run_service,
    )

    scenario = None
    if args.scenario is not None:
        scenario = _apply_duration(
            scenarios.get(args.scenario).with_seed(args.seed),
            args.duration_days,
        )
    state = restore_service_state(args.wal, args.checkpoint)
    if state.classifier.events_ingested:
        print(f"restored {state.classifier.events_ingested} events "
              f"(WAL position "
              f"{state.wal.position if state.wal else 0})")
    service = ReproService(
        state,
        host=args.host,
        port=args.port,
        checkpoint_path=args.checkpoint,
        degraded_ok=args.degraded_ok,
    )
    feed_errors: list[BaseException] = []

    def _feed(url: str) -> None:
        try:
            feed = LiveFeed.over_http(
                url + "/events", batch_size=args.feed_batch
            )
            run_scenario(
                scenario, on_built=lambda exp: feed.attach(exp)
            )
            feed.close()
            print(f"feed complete: {feed.events_sent} events in "
                  f"{feed.batches_sent} batches", flush=True)
        except BaseException as exc:  # reported after shutdown
            feed_errors.append(exc)
        finally:
            if args.shutdown_after_feed or feed_errors:
                service.request_shutdown()

    def announce(line: str) -> None:
        print(line, flush=True)
        if scenario is not None:
            url = line.split("serving on ", 1)[1]
            threading.Thread(
                target=_feed, args=(url,), daemon=True
            ).start()

    run_service(service, announce=announce)
    if feed_errors:
        raise ServiceError(f"scenario feed failed: {feed_errors[0]}")
    return 0


def _command_scenarios(args) -> int:
    if args.name is None:
        width = max(len(name) for name in scenarios.names())
        for entry in scenarios:
            print(f"{entry.name:<{width}}  {entry.summary}")
        return 0
    scenario = scenarios.get(args.name)
    if args.as_json:
        print(scenario.to_json(indent=2))
    else:
        print(scenario.describe())
    return 0


def _command_personas(args) -> int:
    if args.name is None:
        width = max(len(name) for name in personas.names())
        for persona in personas:
            print(f"{persona.name:<{width}}  {persona.summary}")
        return 0
    print(personas.get(args.name).describe())
    return 0


def _command_defenses(args) -> int:
    if args.name is None:
        width = max(len(name) for name in defenses.names())
        for defense_cls in defenses:
            print(f"{defense_cls.name:<{width}}  {defense_cls.summary}")
        return 0
    print(defenses.get(args.name)().describe())
    return 0


def _write_batch_summary(batch, out_dir: str) -> Path:
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "batch_summary.json"
    path.write_text(
        json.dumps(batch.to_dict(), indent=2, sort_keys=True)
    )
    return path


def _print_batch(batch, args) -> None:
    for run in batch.runs:
        stats = run.overview()
        print(f"  {run.scenario.name} seed={run.seed}: "
              f"accesses={stats.unique_accesses} "
              f"read={stats.emails_read} sent={stats.emails_sent} "
              f"blocked={stats.blocked_accounts}")
    for failure in batch.failures:
        print(f"  {failure.scenario_name} seed={failure.seed}: "
              f"FAILED ({failure.error})", file=sys.stderr)
    for aggregate in batch.aggregates.values():
        print(aggregate.format())
    if args.out:
        path = _write_batch_summary(batch, args.out)
        print(f"wrote {path}")


def _command_sweep(args) -> int:
    seeds = parse_seed_spec(args.seeds)
    names = [n.strip() for n in args.scenario.split(",") if n.strip()]
    if not names:
        raise ConfigurationError(f"empty scenario list {args.scenario!r}")
    scenario_list = [
        _apply_duration(scenarios.get(name), args.duration_days)
        for name in names
    ]
    if args.store is None:
        if (
            args.resume
            or args.max_cells is not None
            or args.backend
            or args.cell_timeout is not None
        ):
            raise ConfigurationError(
                "--resume/--max-cells/--backend/--cell-timeout need a "
                "persistent store; add --store DIR"
            )
        started = time.time()
        batch = BatchRunner(jobs=args.jobs).run_matrix(
            scenario_list, seeds
        )
        elapsed = time.time() - started
        print(f"swept {', '.join(names)} over {len(seeds)} seeds "
              f"in {elapsed:.1f}s (jobs={args.jobs})")
        _print_batch(batch, args)
        return 1 if batch.failures else 0
    return _sweep_with_store(args, scenario_list, seeds)


def _sweep_with_store(args, scenario_list, seeds) -> int:
    from repro.sweeps import (
        ResultsStore,
        SweepManager,
        backend_from_name,
    )

    backend_name = args.backend or (
        "pool" if args.jobs > 1 else "inprocess"
    )
    backend = backend_from_name(
        backend_name, jobs=args.jobs, cell_timeout=args.cell_timeout
    )
    store = ResultsStore(args.store)

    def progress(record: dict) -> None:
        if record.get("event") != "cell":
            return
        status = record["status"]
        if status in ("done", "cached", "failed", "requeued"):
            detail = ""
            if status == "done":
                detail = f" ({record.get('elapsed_seconds', 0):.1f}s)"
            elif status in ("failed", "requeued"):
                detail = f" ({record.get('error')})"
            print(f"  [{status}] {record['scenario']} "
                  f"seed={record['seed']}{detail}")

    manager = SweepManager(
        scenario_list,
        seeds,
        store,
        retries=args.retries,
        progress=progress,
    )
    result = manager.run(
        backend,
        resume=args.resume,
        max_cells=args.max_cells,
    )
    counts = result.counts()
    print(f"sweep over {len(result.cells)} cells in "
          f"{result.elapsed_seconds:.1f}s (backend={backend.name}): "
          f"{counts['done']} executed, {counts['cached']} cached, "
          f"{counts['failed']} failed, "
          f"{counts['deferred'] + counts['pending']} deferred")
    print(f"store: {store.root} ({len(store)} cells), journal: "
          f"{manager.journal_path}")
    batch = result.batch()
    if batch.runs:
        _print_batch(batch, args)
    if not result.complete and not result.failed:
        print("sweep incomplete: re-invoke with --resume to continue")
    return 1 if result.failed else 0


def _command_store(args) -> int:
    from repro.sweeps import open_store

    store = open_store(args.store, must_exist=True)
    if args.action == "ls":
        entries = store.entries()
        if not entries:
            print("store is empty")
            return 0
        width = max(len(e.scenario_name) for e in entries)
        for e in entries:
            print(f"{e.scenario_name:<{width}}  seed={e.seed:<6d} "
                  f"{e.address[:12]}  {e.payload_bytes / 1024:8.1f} KiB  "
                  f"{e.elapsed_seconds:7.1f}s  "
                  f"accesses={e.summary.get('unique_accesses')}  "
                  f"{e.code_version}")
        print(f"{len(entries)} cells")
        return 0
    if args.action == "verify":
        problems = store.verify(quarantine=args.quarantine)
        for problem in problems:
            print(f"PROBLEM: {problem}", file=sys.stderr)
        print(f"{len(store)} entries, {len(problems)} problems")
        if args.quarantine and problems:
            print(f"quarantined under {store.quarantine_dir}")
        return 1 if problems else 0
    removed = store.gc(keep_code_version=args.keep_version)
    print(f"gc removed {len(removed)} objects, kept {len(store)}")
    return 0


def _command_compare(args) -> int:
    names = [n.strip() for n in args.scenario_names.split(",") if n.strip()]
    if len(names) < 2:
        raise ConfigurationError(
            "compare needs at least two scenarios (--scenarios A,B)"
        )
    seeds = parse_seed_spec(args.seeds)
    scenario_list = [
        _apply_duration(scenarios.get(name), args.duration_days)
        for name in names
    ]
    started = time.time()
    batch = BatchRunner(jobs=args.jobs).run_matrix(scenario_list, seeds)
    elapsed = time.time() - started
    print(f"compared {len(names)} scenarios x {len(seeds)} seeds "
          f"in {elapsed:.1f}s (jobs={args.jobs})")
    aggregates = batch.aggregates
    metrics = next(iter(aggregates.values())).metrics
    name_width = max(len(m) for m in metrics)
    column = max(max(len(n) for n in names), 12) + 2
    header = " " * name_width + "".join(
        f"{name:>{column}}" for name in aggregates
    )
    print(header)
    for metric in metrics:
        row = f"{metric:<{name_width}}"
        for agg in aggregates.values():
            summary = agg.metrics[metric]
            row += f"{summary.mean:>{column - 9}.1f} ±{summary.stdev:7.1f}"
        print(row)
    for name, agg in aggregates.items():
        for test, p_value in agg.pooled_cvm.items():
            print(f"  {name} pooled cvm {test}: p={p_value:.7f}")
    for failure in batch.failures:
        print(f"  {failure.scenario_name} seed={failure.seed}: "
              f"FAILED ({failure.error})", file=sys.stderr)
    if args.out:
        path = _write_batch_summary(batch, args.out)
        print(f"wrote {path}")
    return 1 if batch.failures else 0


_COMMANDS = {
    "run": _command_run,
    "serve": _command_serve,
    "tables": _command_tables,
    "scenarios": _command_scenarios,
    "personas": _command_personas,
    "defenses": _command_defenses,
    "sweep": _command_sweep,
    "compare": _command_compare,
    "store": _command_store,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
