"""Sharded scenario execution: partition accounts, run, merge.

The honey-account methodology is embarrassingly partitionable: each
account's leak, visits and telemetry are independent once the shared
build-time processes (leak venues, arrival draws, attacker profiles)
are replayed identically everywhere.  :func:`run_sharded` exploits
that:

1. **Partition** — accounts map to shards by a stable BLAKE2b hash of
   their address (:mod:`repro.core.sharding`); the case-study block is
   pinned to shard 0 because the scripted campaigns couple its
   accounts.
2. **Run** — every shard builds the *full* world and provisions the
   *full* account population (so every shared RNG stream advances
   draw-for-draw as in the serial run), but installs scan scripts,
   watches the scraper, schedules attacker visits and runs case
   studies only for the accounts it owns.  Shards execute as
   independent :class:`~repro.core.experiment.Experiment` runs in
   forked workers, reusing the process-pool approach of
   :class:`~repro.api.runner.BatchRunner`.
3. **Merge** — the per-shard columnar stores are merged back into one
   :class:`~repro.core.records.ObservedDataset`: strings re-interned
   into a fresh shared table and rows re-sorted into the exact global
   order the serial monitor would have appended them in (scrape-tick
   interleaving for accesses, scan-tick interleaving for
   notifications, watch order breaking ties).

The contract is the one PRs 2 and 4 established for the telemetry and
event-loop rewrites, now across process boundaries: *faster, but
bit-identical* — ``analyze()`` over the merged dataset equals the
serial run field for field, and :func:`dataset_mismatches` returns
nothing.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from repro.api.envelope import RunResult, run_scenario
from repro.api.scenario import Scenario
from repro.core.experiment import Experiment
from repro.core.records import AccountProvenance, ObservedDataset
from repro.core.sharding import ShardSpec, shard_of, stable_hash64
from repro.errors import ConfigurationError, SupervisionError
from repro.faults.plan import fault_site
from repro.faults.supervise import supervise_iter

__all__ = [
    "ShardRun",
    "ShardSpec",
    "dataset_mismatches",
    "merge_shard_runs",
    "run_sharded",
    "shard_of",
    "stable_hash64",
]


@dataclass
class ShardRun:
    """Everything one shard worker sends back to the coordinator.

    Picklable: the dataset rides on the compact columnar pickle path,
    the live world stays in the worker.
    """

    spec: ShardSpec
    dataset: ObservedDataset
    events_executed: int
    blacklisted_ips: set[str]
    perf: dict[str, float]
    elapsed_seconds: float
    #: Full population in provision (= watch) order; identical across
    #: shards and the source of the merge interleaving order.
    all_addresses: tuple[str, ...]
    #: The subset this shard simulated and observed.
    owned_addresses: tuple[str, ...]
    #: Spill manifest when the worker ran under a telemetry budget and
    #: left its chunked columns on disk (``None`` otherwise).  The
    #: coordinator reattaches the on-disk chunks with
    #: :meth:`~repro.core.records.ObservedDataset.attach_spilled_stores`
    #: instead of the worker pickling the full stores back into RAM.
    spill_manifest: dict | None = None


def _execute_shard(task: tuple) -> ShardRun:
    """Run one shard of a serialized scenario.

    Module-level so process pools can pickle it; the in-process path
    calls it too, guaranteeing identical execution either way (the
    same property :class:`~repro.api.runner.BatchRunner` relies on).

    ``task`` is ``(scenario_json, index, count)`` plus an optional
    trailing :meth:`TelemetryBudget.to_dict` payload with the shard's
    spill directory already pinned by the coordinator.
    """
    scenario_json, index, count, *rest = task
    fault_site("shard.worker", shard=index, shards=count)
    budget = None
    if rest and rest[0] is not None:
        from repro.telemetry import TelemetryBudget

        budget = TelemetryBudget.from_dict(rest[0])
    scenario = Scenario.from_json(scenario_json)
    spec = ShardSpec(index=index, count=count)
    started = time.perf_counter()
    experiment = Experiment.from_scenario(
        scenario, shard=spec, telemetry_budget=budget
    )
    result = experiment.run()
    elapsed = time.perf_counter() - started
    dataset = result.dataset
    spill_manifest = None
    if budget is not None and any(
        store.spilled
        for store in (dataset.access_store, dataset.notification_store)
    ):
        # Leave the chunks where they are; ship only the manifest.  The
        # detached dataset pickles as empty stores plus metadata.
        spill_manifest = dataset.detach_spilled_stores()
    return ShardRun(
        spec=spec,
        dataset=dataset,
        events_executed=result.events_executed,
        blacklisted_ips=set(result.blacklisted_ips),
        perf=dict(result.perf),
        elapsed_seconds=elapsed,
        all_addresses=result.all_addresses,
        owned_addresses=result.owned_addresses,
        spill_manifest=spill_manifest,
    )


# ----------------------------------------------------------------------
# merge
# ----------------------------------------------------------------------
def _access_ticks(
    timestamps: list[float],
    period: float,
    delimiters: list[bool],
) -> list[int]:
    """Scrape-tick indices at which one account's rows were ingested.

    Every *successful* scrape of an account reads the page tail and
    then appends the scraper's own row, stamped with the exact tick
    time (see :mod:`repro.core.monitor`) — so in store order, each
    ingestion batch ends with a scraper row, and that row's timestamp
    names the batch's tick.  ``delimiters`` marks those rows
    (monitor-IP rows whose timestamp sits exactly on the tick grid); a
    right-to-left scan assigns every row the tick of the next delimiter
    at or after it.

    This recovers two cases a plain ``ceil(timestamp / period)`` gets
    wrong: the sandbox campaign's future-stamped login rows (written at
    world build, drained at the account's first scrape) and backlog
    drained after a lockout clears (a defender-forced reset re-syncs
    the scraper's credential mid-run, so rows recorded while the
    scraper was locked out are ingested at the first tick after the
    reset, not the first tick after their timestamps).
    """
    ticks = [0] * len(timestamps)
    next_tick: int | None = None
    for i in range(len(timestamps) - 1, -1, -1):
        if delimiters[i]:
            # Exact division: delimiter timestamps are tick times.
            next_tick = int(timestamps[i] / period)
            ticks[i] = next_tick
        elif next_tick is not None:
            ticks[i] = next_tick
        else:
            # No following scrape row (not produced by the monitor's
            # batch structure); fall back to the live-recording model.
            ticks[i] = math.ceil(timestamps[i] / period)
    return ticks


def _string_remaps(target_strings, shard_runs: list["ShardRun"]):
    """Per-shard id translation tables into the merged string table.

    Each shard's three stores share one interning table (the monitor
    wires them that way), so one pass over that table per shard
    re-interns every distinct string exactly once; column merging then
    copies raw ids through ``remap`` without materialising any row.
    Remaps are built in shard order, so the merged table's id
    assignment is deterministic.
    """
    intern = target_strings.intern
    remaps = []
    for run in shard_runs:
        table = run.dataset.access_store.strings
        remaps.append(
            [intern(table.lookup(i)) for i in range(len(table))]
        )
    return remaps


def _merge_columns(target, sources, order, remaps) -> None:
    """Fill ``target``'s columns with the globally ordered rows.

    ``order`` is the merged row order as ``(shard, row)`` pairs;
    ``remaps`` translates each shard's string ids into the target
    table.  Works column-at-a-time on the raw arrays — no row tuples,
    no per-value interning — which keeps the merge a small fraction of
    one shard's simulate phase even at hundreds of thousands of rows.

    Both sides may be out-of-core: spilled *sources* serve reads from
    mmap'd chunks (random access goes through a small per-file mmap
    cache), and a spilled *target* is filled one chunk-sized batch at a
    time, sealing each batch to disk before the next — so the merge
    never holds more than one target chunk of row data resident.  A
    resident target takes a single whole-``order`` batch, which is
    byte-for-byte the old behaviour.
    """
    batch = target.spill_chunk_rows if target.spilled else 0
    if not batch:
        batch = max(len(order), 1)
    shard_columns_by_field = {
        field.name: [source.column(field.name) for source in sources]
        for field in target.schema
    }
    for start in range(0, len(order), batch):
        window = order[start : start + batch]
        for field in target.schema:
            column = target.column(field.name)
            shard_columns = shard_columns_by_field[field.name]
            if field.kind == "intern":
                ids = [col.ids for col in shard_columns]
                column.ids.extend(
                    [remaps[s][ids[s][r]] for s, r in window]
                )
            elif field.kind == "opt_f64":
                data = [col.data for col in shard_columns]
                mask = [col.mask for col in shard_columns]
                column.data.extend([data[s][r] for s, r in window])
                column.mask.extend([mask[s][r] for s, r in window])
            else:  # f64, i64, obj — raw payloads copy through
                data = [col.data for col in shard_columns]
                column.data.extend([data[s][r] for s, r in window])
        if target.spilled:
            target._maybe_flush()


def merge_shard_runs(
    scenario: Scenario,
    shard_runs: list[ShardRun],
    *,
    telemetry_budget=None,
    spill_directory=None,
) -> tuple[ObservedDataset, dict]:
    """Merge per-shard datasets into one, in serial append order.

    Returns the merged dataset plus merge diagnostics (row counts and
    wall-clock).  Raises :class:`ConfigurationError` when the shards
    disagree about the population or overlap in ownership — either
    means the partition itself is broken.

    With a ``telemetry_budget``, the merged stores the budget plans as
    spilled are created out-of-core up front (chunks land under
    ``spill_directory``, default ``<budget spill dir>/merged``), so
    merging spilled shard chunks streams disk-to-disk instead of
    re-materialising every shard's rows in RAM.
    """
    started = time.perf_counter()
    if not shard_runs:
        raise ConfigurationError("cannot merge zero shard runs")
    shard_runs = sorted(shard_runs, key=lambda run: run.spec.index)
    reference = shard_runs[0].all_addresses
    for run in shard_runs[1:]:
        if run.all_addresses != reference:
            raise ConfigurationError(
                "shards disagree about the account population "
                f"(shard {run.spec.index} vs shard "
                f"{shard_runs[0].spec.index})"
            )
    watch_index = {address: i for i, address in enumerate(reference)}
    owner: dict[str, ShardRun] = {}
    for run in shard_runs:
        for address in run.owned_addresses:
            if address in owner:
                raise ConfigurationError(
                    f"account {address!r} owned by two shards"
                )
            owner[address] = run
    missing = [address for address in reference if address not in owner]
    if missing:
        raise ConfigurationError(
            f"{len(missing)} accounts owned by none of the given "
            f"shards (first: {missing[0]!r}) — a shard run is missing"
        )

    scrape_period = scenario.config.scrape_period
    merged = ObservedDataset()
    if telemetry_budget is not None:
        plan = telemetry_budget.plan(
            account_count=len(reference),
            duration_days=scenario.config.duration_days,
            scrape_period=scenario.config.scrape_period,
            scan_period=scenario.config.scan_period,
        )
        spill_stores = tuple(
            name
            for name in ("accesses", "notifications")
            if plan.get(name)
        )
        if spill_stores:
            if spill_directory is None:
                spill_directory = (
                    Path(telemetry_budget.resolve_spill_dir()) / "merged"
                )
            merged.configure_spill(
                Path(spill_directory),
                chunk_rows=telemetry_budget.chunk_rows,
                stores=spill_stores,
            )
    remaps = _string_remaps(merged.access_store.strings, shard_runs)

    # Access rows interleave at scrape ticks (a per-account property:
    # the running minimum in _access_ticks needs each account's page
    # order, and every account's rows live in exactly one shard, in
    # page order).  Sort keys carry (shard, row) so ties keep the
    # per-account order and the sort is fully deterministic.
    access_keys: list[tuple] = []
    for s, run in enumerate(shard_runs):
        store = run.dataset.access_store
        lookup = store.strings.lookup
        id_of = store.strings.id_of
        timestamps = store.timestamps
        ip_ids = store.ip_ids
        # Scraper login rows delimit ingestion batches: monitor-IP rows
        # stamped exactly on the tick grid.  (Sandbox rows also carry
        # monitor IPs but continuous build-time timestamps, so the grid
        # test excludes them.)
        monitor_ip_ids = {
            id_of(ip)
            for ip in run.dataset.monitor_ips
            if id_of(ip) is not None
        }
        rows_by_account: dict[int, list[int]] = {}
        for r, account_id in enumerate(store.account_ids):
            rows_by_account.setdefault(account_id, []).append(r)
        for account_id, row_ids in rows_by_account.items():
            index = watch_index[lookup(account_id)]
            ticks = _access_ticks(
                [timestamps[r] for r in row_ids],
                scrape_period,
                [
                    ip_ids[r] in monitor_ip_ids
                    and timestamps[r] > 0.0
                    and timestamps[r] % scrape_period == 0.0
                    for r in row_ids
                ],
            )
            access_keys.extend(
                (tick, index, s, r) for tick, r in zip(ticks, row_ids)
            )
    access_keys.sort()
    _merge_columns(
        merged.access_store,
        [run.dataset.access_store for run in shard_runs],
        [(s, r) for _, _, s, r in access_keys],
        remaps,
    )

    # Notifications and scrape failures carry their tick time directly
    # (scripts report at scan ticks, lockouts at scrape ticks); watch
    # order breaks same-tick ties exactly as the serial loops do.
    notification_keys: list[tuple] = []
    for s, run in enumerate(shard_runs):
        store = run.dataset.notification_store
        lookup = store.strings.lookup
        timestamps = store.timestamps
        notification_keys.extend(
            (timestamps[r], watch_index[lookup(account_id)], s, r)
            for r, account_id in enumerate(store.account_ids)
        )
    notification_keys.sort()
    _merge_columns(
        merged.notification_store,
        [run.dataset.notification_store for run in shard_runs],
        [(s, r) for _, _, s, r in notification_keys],
        remaps,
    )

    failure_keys: list[tuple] = []
    for s, run in enumerate(shard_runs):
        log = run.dataset.failure_log
        lookup = log.strings.lookup
        timestamps = log.column("timestamp").data
        failure_keys.extend(
            (timestamps[r], watch_index[lookup(address_id)], s, r)
            for r, address_id in enumerate(log.column("address").ids)
        )
    failure_keys.sort()
    _merge_columns(
        merged.failure_log,
        [run.dataset.failure_log for run in shard_runs],
        [(s, r) for _, _, s, r in failure_keys],
        remaps,
    )

    # Defense actions carry continuous per-account trigger times (the
    # planner jitters every check phase), so scheduled rows never tie
    # across accounts.  The one cross-account tie source is synchronous
    # ``prevented_login`` rows from attacker burst waves, where many
    # devices attempt at one shared arrival instant; serial execution
    # order there is device-creation order, i.e. ascending device id —
    # the ``detail`` column.  Within an account, same-time rows (check +
    # detect) keep their recorded sequence: equal details fall through
    # to (shard, row), which is shard-invariant because an account
    # lives in one shard, and a detect's detail ("", "false_positive")
    # never sorts before its check's "".
    defense_keys: list[tuple] = []
    for s, run in enumerate(shard_runs):
        store = run.dataset.defense_store
        lookup = store.strings.lookup
        timestamps = store.timestamps
        details = store.detail_ids
        defense_keys.extend(
            (
                timestamps[r],
                lookup(details[r]),
                watch_index[lookup(account_id)],
                s,
                r,
            )
            for r, account_id in enumerate(store.account_ids)
        )
    defense_keys.sort()
    _merge_columns(
        merged.defense_store,
        [run.dataset.defense_store for run in shard_runs],
        [(s, r) for *_, s, r in defense_keys],
        remaps,
    )

    # Account-keyed fields rebuild in watch order from the owner shard,
    # which is exactly the order the serial assembly walks accounts in.
    merged.monitor_city = shard_runs[0].dataset.monitor_city
    for run in shard_runs:
        merged.monitor_ips |= run.dataset.monitor_ips
    for address in reference:
        run = owner[address]
        provenance = run.dataset.provenance.get(address)
        if provenance is not None:
            merged.provenance[address] = AccountProvenance(
                address=address,
                group=provenance.group,
                leak_time=provenance.leak_time,
            )
        texts = run.dataset.all_email_texts.get(address)
        if texts is not None:
            merged.all_email_texts[address] = list(texts)
    blocked: dict[str, float] = {}
    for run in shard_runs:
        for address, blocked_at in run.dataset.blocked_accounts:
            blocked[address] = blocked_at
    merged.blocked_accounts = [
        (address, blocked[address])
        for address in reference
        if address in blocked
    ]
    for run in shard_runs:
        merged.ground_truth_personas.update(
            run.dataset.ground_truth_personas
        )

    diagnostics = {
        "access_rows": len(access_keys),
        "notification_rows": len(notification_keys),
        "failure_rows": len(failure_keys),
        "defense_rows": len(defense_keys),
        "merge_seconds": round(time.perf_counter() - started, 6),
    }
    return merged, diagnostics


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def run_sharded(
    scenario: Scenario,
    *,
    shards: int | None = None,
    jobs: int | None = None,
    seed: int | None = None,
    telemetry_budget=None,
    supervise: bool = True,
    shard_timeout: float | None = None,
    shard_retries: int = 1,
    heartbeat_interval: float = 0.2,
    stale_after: float | None = None,
) -> RunResult:
    """Run ``scenario`` across ``shards`` workers and merge the result.

    Args:
        shards: partition size; defaults to the scenario's ``shards``
            field.  ``1`` falls through to the ordinary serial
            :func:`~repro.api.envelope.run_scenario`.
        jobs: worker processes; defaults to ``min(shards, cpu_count)``.
            ``1`` runs the shards sequentially in this process — same
            result, no pool (useful for tests and debugging).
        seed: master-seed override, as in ``Scenario.run``.
        telemetry_budget: out-of-core telemetry policy applied to every
            worker *and* the merge.  One spill directory is resolved
            here and partitioned as ``shard-<i>/`` per worker plus
            ``merged/`` for the coordinator; workers ship chunk
            manifests back instead of pickled row data, and the merge
            streams shard chunks into merged chunks.
        supervise: run pooled workers under
            :func:`repro.faults.supervise.supervise_iter` — a crashed,
            hung, or timed-out shard is killed and re-executed instead
            of aborting the whole run (shard execution is
            deterministic in (scenario, seed), so reruns are
            bit-identical).  ``False`` keeps the bare process pool
            (the benchmark baseline).
        shard_timeout: wall-clock limit per shard attempt, seconds.
        shard_retries: re-executions allowed per shard before the run
            fails with :class:`~repro.errors.SupervisionError`.
        heartbeat_interval: how often supervised workers touch their
            heartbeat file.
        stale_after: kill a worker whose heartbeat is older than this
            (``None`` disables the hang watchdog).

    The returned :class:`RunResult` carries the merged dataset, the
    union of blacklist snapshots, summed event counts, critical-path
    ``perf`` phases (the per-phase *maximum* across shards — what an
    idealised K-worker pool pays) and the full per-shard breakdown in
    ``shard_perf``.
    """
    if seed is not None:
        scenario = scenario.with_seed(seed)
    if shards is None:
        shards = scenario.shards
    if shards < 1:
        raise ConfigurationError("shards must be >= 1")
    if shards == 1:
        # Force the scenario serial too: run_scenario dispatches
        # shards > 1 scenarios back here, so an explicit shards=1
        # override must not leave the field set.
        return run_scenario(
            scenario.with_shards(1), telemetry_budget=telemetry_budget
        )
    # Workers re-read the shard count from the serialized scenario;
    # keep the two in sync even when ``shards`` came in as an override.
    if scenario.shards != shards:
        scenario = scenario.with_shards(shards)
    started = time.perf_counter()
    serialized = scenario.to_json()
    spill_base: Path | None = None
    budget_dicts: list[dict | None] = [None] * shards
    if telemetry_budget is not None:
        # Resolve the directory once in the coordinator so an
        # unconfigured budget doesn't hand every worker its own
        # unrelated tempdir; workers then spill under shard-<i>/.
        spill_base = Path(telemetry_budget.resolve_spill_dir())
        budget_dicts = [
            telemetry_budget.with_spill_dir(
                spill_base / f"shard-{index}"
            ).to_dict()
            for index in range(shards)
        ]
    tasks = [
        (serialized, index, shards, budget_dicts[index])
        for index in range(shards)
    ]
    if jobs is None:
        jobs = min(shards, os.cpu_count() or 1)
    if jobs <= 1:
        shard_runs = [_execute_shard(task) for task in tasks]
    elif supervise:
        outcomes = list(
            supervise_iter(
                _execute_shard,
                tasks,
                jobs=min(jobs, shards),
                timeout=shard_timeout,
                retries=shard_retries,
                heartbeat_interval=heartbeat_interval,
                stale_after=stale_after,
            )
        )
        failed = sorted(
            (o for o in outcomes if not o.ok), key=lambda o: o.index
        )
        if failed:
            worst = failed[0]
            raise SupervisionError(
                f"shard {worst.index} failed after {worst.attempts} "
                f"attempt(s): {worst.error}"
                + (
                    f" (+{len(failed) - 1} more shards)"
                    if len(failed) > 1
                    else ""
                )
            )
        shard_runs = [
            o.result for o in sorted(outcomes, key=lambda o: o.index)
        ]
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, shards)) as pool:
            shard_runs = list(pool.map(_execute_shard, tasks))
    for run in shard_runs:
        if run.spill_manifest is not None:
            run.dataset.attach_spilled_stores(run.spill_manifest)
    dataset, diagnostics = merge_shard_runs(
        scenario,
        shard_runs,
        telemetry_budget=telemetry_budget,
        spill_directory=(
            None if spill_base is None else spill_base / "merged"
        ),
    )
    elapsed = time.perf_counter() - started

    phases = sorted({name for run in shard_runs for name in run.perf})
    perf = {
        name: round(
            max(run.perf.get(name, 0.0) for run in shard_runs), 6
        )
        for name in phases
    }
    perf["merge"] = diagnostics["merge_seconds"]
    shard_perf = [
        {
            "shard": run.spec.index,
            "shards": run.spec.count,
            "owned_accounts": len(run.owned_addresses),
            "events_executed": run.events_executed,
            "elapsed_seconds": round(run.elapsed_seconds, 6),
            "phases": dict(run.perf),
        }
        for run in shard_runs
    ]
    blacklisted: set[str] = set()
    for run in shard_runs:
        blacklisted |= run.blacklisted_ips
    return RunResult(
        scenario=scenario,
        seed=scenario.seed,
        dataset=dataset,
        config=scenario.config,
        events_executed=sum(run.events_executed for run in shard_runs),
        blacklisted_ips=blacklisted,
        account_count=len(shard_runs[0].all_addresses),
        elapsed_seconds=elapsed,
        perf=perf,
        shard_perf=shard_perf,
    )


# ----------------------------------------------------------------------
# equivalence oracle
# ----------------------------------------------------------------------
def dataset_mismatches(
    expected: ObservedDataset, actual: ObservedDataset
) -> list[str]:
    """Field-for-field comparison of two datasets; empty means equal.

    Compares decoded *rows* (append order included), never raw column
    ids: two stores that interned strings in different orders but hold
    the same rows are equal.  This is the sharded-vs-serial oracle —
    tests and the shard benchmark gate both call it.
    """
    mismatches: list[str] = []

    def compare_rows(name: str, a, b) -> None:
        if len(a) != len(b):
            mismatches.append(
                f"{name}: {len(a)} rows vs {len(b)} rows"
            )
            return
        for i in range(len(a)):
            if a.row(i) != b.row(i):
                mismatches.append(
                    f"{name}: first divergence at row {i}: "
                    f"{a.row(i)!r} != {b.row(i)!r}"
                )
                return

    compare_rows(
        "accesses", expected.access_store, actual.access_store
    )
    compare_rows(
        "notifications",
        expected.notification_store,
        actual.notification_store,
    )
    compare_rows(
        "scrape_failures", expected.failure_log, actual.failure_log
    )
    compare_rows(
        "defense_actions", expected.defense_store, actual.defense_store
    )
    if list(expected.provenance) != list(actual.provenance):
        mismatches.append("provenance: account order differs")
    else:
        for address, left in expected.provenance.items():
            right = actual.provenance[address]
            if (left.group, left.leak_time) != (
                right.group,
                right.leak_time,
            ):
                mismatches.append(f"provenance[{address}] differs")
                break
    for name in ("monitor_ips", "monitor_city", "blocked_accounts"):
        if getattr(expected, name) != getattr(actual, name):
            mismatches.append(f"{name} differs")
    if expected.all_email_texts != actual.all_email_texts:
        mismatches.append("all_email_texts differs")
    if expected.ground_truth_personas != actual.ground_truth_personas:
        mismatches.append("ground_truth_personas differs")
    return mismatches
