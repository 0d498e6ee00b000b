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
   independent :class:`~repro.core.experiment.Experiment` runs
   through :func:`~repro.faults.supervise.fan_out`: sequentially in
   this process for one job with no shard timeout, in supervised
   forked workers otherwise.
3. **Merge** — the per-shard columnar stores are merged back into one
   :class:`~repro.core.records.ObservedDataset`, column-wise: strings
   re-interned into a fresh shared table (one id remap array per
   shard); per store, numpy key arrays (scrape tick for accesses,
   timestamp for the other stores, then account watch order, then the
   shard and row) and one ``numpy.lexsort`` give the exact global
   order the serial monitor would have appended the rows in; every
   column is then gathered by fancy index, one window of at most a
   chunk of rows at a time, through :meth:`EventLog.extend`.  No row
   becomes a Python tuple except ``obj`` payloads.

The contract is the one PRs 2 and 4 established for the telemetry and
event-loop rewrites, now across process boundaries: *faster, but
bit-identical* — ``analyze()`` over the merged dataset equals the
serial run field for field, and :func:`dataset_mismatches` returns
nothing.
"""

from __future__ import annotations

import os
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.api.envelope import RunResult, run_scenario
from repro.api.scenario import Scenario
from repro.core.experiment import Experiment
from repro.core.records import AccountProvenance, ObservedDataset
from repro.core.sharding import ShardSpec, shard_of, stable_hash64
from repro.errors import ConfigurationError, SupervisionError
from repro.faults.plan import fault_site
from repro.faults.supervise import fan_out
from repro.telemetry.spill import (
    DEFAULT_CHUNK_ROWS,
    NUMPY_BY_TYPECODE,
    SpilledArray,
    iter_column_chunks,
)

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
    #: Spill manifest when the worker ran with a spill directory and
    #: left its chunked columns on disk (``None`` otherwise).  The
    #: coordinator reattaches the on-disk chunks with
    #: :meth:`~repro.core.records.ObservedDataset.attach_spilled_stores`
    #: instead of the worker pickling the full stores back into RAM.
    spill_manifest: dict | None = None


def _execute_shard(task: tuple) -> ShardRun:
    """Run one shard of a serialized scenario.

    Module-level so worker processes can run it; the in-process path
    calls it too, guaranteeing identical execution either way (the
    same property :class:`~repro.api.runner.BatchRunner` relies on).

    ``task`` is ``(scenario_json, index, count)`` plus an optional
    trailing ``(spill_dir, chunk_rows)``: the shard's own spill
    directory, already pinned by the coordinator.
    """
    scenario_json, index, count, *spill = task
    spill_dir, chunk_rows = spill or (None, None)
    fault_site("shard.worker", shard=index, shards=count)
    scenario = Scenario.from_json(scenario_json)
    spec = ShardSpec(index=index, count=count)
    started = time.perf_counter()
    experiment = Experiment.from_scenario(
        scenario, shard=spec, spill_dir=spill_dir, chunk_rows=chunk_rows
    )
    result = experiment.run()
    elapsed = time.perf_counter() - started
    dataset = result.dataset
    spill_manifest = None
    if spill_dir is not None:
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
def _string_remaps(target_strings, shard_runs: list["ShardRun"]):
    """Per-shard id translation tables into the merged string table.

    Each shard's stores share one interning table (the monitor wires
    them that way), so one pass over that table per shard re-interns
    every distinct string exactly once; the column gather then maps raw
    ids through ``remap`` without materialising any row.  Remaps are
    built in shard order, so the merged table's id assignment is
    deterministic.
    """
    intern = target_strings.intern
    remaps = []
    for run in shard_runs:
        table = run.dataset.access_store.strings
        remaps.append(
            np.fromiter(
                (intern(table.lookup(i)) for i in range(len(table))),
                dtype=np.int64,
                count=len(table),
            )
        )
    return remaps


def _whole_column(raw, dtype) -> np.ndarray:
    """One raw column as a single numpy array (a view when resident)."""
    chunks = list(iter_column_chunks(raw, dtype))
    if len(chunks) == 1:
        return chunks[0]
    return np.concatenate(chunks) if chunks else np.empty(0, dtype)


def _access_ticks(
    accounts: np.ndarray,
    timestamps: np.ndarray,
    delimiters: np.ndarray,
    period: float,
) -> np.ndarray:
    """Scrape-tick index at which each of one shard's access rows was
    ingested.

    Every *successful* scrape of an account reads the page tail and
    then appends the scraper's own row, stamped with the exact tick
    time (see :mod:`repro.core.monitor`) — so in store order, each
    ingestion batch ends with a scraper row, and that row's timestamp
    names the batch's tick.  ``delimiters`` marks those rows
    (monitor-IP rows whose timestamp sits exactly on the tick grid);
    every row takes the tick of its account's next delimiter at or
    after it.  A stable sort groups the rows by account, each account
    still in page order, and a running minimum from the right finds
    every row's next delimiter.

    This recovers two cases a plain ``ceil(timestamp / period)`` gets
    wrong: the sandbox campaign's future-stamped login rows (written at
    world build, drained at the account's first scrape) and backlog
    drained after a lockout clears (a defender-forced reset re-syncs
    the scraper's credential mid-run, so rows recorded while the
    scraper was locked out are ingested at the first tick after the
    reset, not the first tick after their timestamps).
    """
    order = np.argsort(accounts, kind="stable")
    grouped = accounts[order]
    stamps = timestamps[order]
    # Rows with no later delimiter of their account (not produced by
    # the monitor's batch structure) keep the live-recording model.
    ticks = np.ceil(stamps / period).astype(np.int64)
    # Position of the next delimiter at or after each row (n: none),
    # as a running minimum from the right.
    n = len(order)
    following = np.where(delimiters[order], np.arange(n), n)
    following = np.minimum.accumulate(following[::-1])[::-1]
    rows = np.flatnonzero(following < n)
    marks = following[rows]
    own = grouped[marks] == grouped[rows]
    # Exact division: delimiter timestamps are tick times, so
    # truncation is int() of the quotient.
    ticks[rows[own]] = (stamps[marks[own]] / period).astype(np.int64)
    unsorted = np.empty_like(ticks)
    unsorted[order] = ticks
    return unsorted


class _ShardKeys:
    """Sort-key columns of one store, concatenated across shards.

    Every column is translated into the merged string table, so keys
    compare across shards.  ``position`` is the row's index in the
    shard-major concatenation — the ``(shard, row)`` tail that makes
    every merge order total.
    """

    def __init__(self, stores, remaps, watch_of) -> None:
        self.stores = stores
        self.remaps = remaps
        self.watch_of = watch_of
        self.sizes = [len(store) for store in stores]
        self.position = np.arange(sum(self.sizes), dtype=np.int64)

    def ids(self, name: str, s: int) -> np.ndarray:
        """Shard ``s``'s ``intern`` column ``name``, in merged ids."""
        raw = self.stores[s].column(name).ids
        return self.remaps[s][_whole_column(raw, np.int64)]

    def stamps(self, s: int) -> np.ndarray:
        """Shard ``s``'s timestamp column."""
        raw = self.stores[s].column("timestamp").data
        return _whole_column(raw, np.float64)

    def watch(self, name: str) -> np.ndarray:
        """Watch index of every row's account column ``name``."""
        merged = [self.ids(name, s) for s in range(len(self.stores))]
        index = self.watch_of[np.concatenate(merged)]
        if (index < 0).any():
            raise ConfigurationError(
                "a shard holds rows of an account outside the population"
            )
        return index

    def timestamps(self) -> np.ndarray:
        return np.concatenate(
            [self.stamps(s) for s in range(len(self.stores))]
        )

    def origin(self, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(shard, row)`` of the concatenated rows in ``order``."""
        starts = np.cumsum([0] + self.sizes[:-1])
        shard = np.searchsorted(starts, order, side="right") - 1
        return shard, order - starts[shard]


def _gather_sources(store):
    """Per backing container of ``store``, in :meth:`EventLog.extend`
    order: ``(kind, reader)``.  Numeric readers support ``take(rows)``
    (a zero-copy numpy view of a resident array, or a
    :class:`~repro.telemetry.spill.SpilledArray` that maps only the
    chunks a window touches); ``obj`` readers are the payload list."""
    parts = []
    for field in store.schema:
        for raw in store.column(field.name).arrays():
            if field.kind == "obj" or isinstance(raw, SpilledArray):
                parts.append((field.kind, raw))
            else:
                dtype = NUMPY_BY_TYPECODE[raw.typecode]
                parts.append((field.kind, np.frombuffer(raw, dtype)))
    return parts


def _merge_store(target, sources, shard, row, remaps) -> None:
    """Append the rows ``(shard[i], row[i])`` of ``sources`` to
    ``target``, in that order, with ids remapped into its table.

    Column-at-a-time: each window of at most one target chunk (or
    :data:`DEFAULT_CHUNK_ROWS` for a resident target) gathers every
    numeric column with one fancy index per shard and lands through
    :meth:`EventLog.extend`, so a spilled target seals the same chunks
    as appending row by row, and no more than one window of row data
    is ever transient.  ``obj`` payloads gather in Python.
    """
    window = target.spill_chunk_rows or DEFAULT_CHUNK_ROWS
    readers = [_gather_sources(source) for source in sources]
    typecodes = [
        getattr(raw, "typecode", None)
        for field in target.schema
        for raw in target.column(field.name).arrays()
    ]
    for start in range(0, len(shard), window):
        shard_w = shard[start : start + window]
        row_w = row[start : start + window]
        picks = []
        for s in range(len(sources)):
            at = np.flatnonzero(shard_w == s)
            if len(at):
                picks.append((s, at, row_w[at]))
        columns = []
        for c, typecode in enumerate(typecodes):
            if typecode is None:  # obj payloads
                data = [parts[c][1] for parts in readers]
                columns.append(
                    [data[s][r] for s, r in zip(shard_w.tolist(), row_w.tolist())]
                )
                continue
            out = np.empty(len(shard_w), NUMPY_BY_TYPECODE[typecode])
            for s, at, rows in picks:
                kind, reader = readers[s][c]
                values = reader.take(rows)
                out[at] = remaps[s][values] if kind == "intern" else values
            column = array(typecode)
            column.frombytes(out.view(np.uint8))
            columns.append(column)
        target.extend(columns)


def merge_shard_runs(
    scenario: Scenario,
    shard_runs: list[ShardRun],
    *,
    spill_dir: str | Path | None = None,
    chunk_rows: int | None = None,
) -> tuple[ObservedDataset, dict]:
    """Merge per-shard datasets into one, in serial append order.

    Returns the merged dataset plus merge diagnostics (row counts and
    wall-clock).  Raises :class:`ConfigurationError` when the shards
    disagree about the population or overlap in ownership — either
    means the partition itself is broken.

    With a ``spill_dir``, the merged access and notification stores
    are created out-of-core up front (chunks land under ``spill_dir``),
    so merging spilled shard chunks streams disk-to-disk instead of
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
    if spill_dir is not None:
        merged.configure_spill(spill_dir, chunk_rows=chunk_rows)
    strings = merged.access_store.strings
    remaps = _string_remaps(strings, shard_runs)
    # Watch (= provision) order per merged string id; -1 for strings
    # that name no account.
    watch_of = np.full(len(strings), -1, dtype=np.int64)
    for index, address in enumerate(reference):
        ident = strings.id_of(address)
        if ident is not None:
            watch_of[ident] = index

    def merge(attr: str, account: str, leading_keys) -> int:
        """Sort one store's rows by ``leading_keys(keys)``, then the
        watch order of column ``account``, then ``(shard, row)``, and
        gather them into the merged store.  Keys are listed least
        significant first, as :func:`numpy.lexsort` takes them.
        Returns the row count."""
        stores = [getattr(run.dataset, attr) for run in shard_runs]
        keys = _ShardKeys(stores, remaps, watch_of)
        order = np.lexsort(
            (keys.position, keys.watch(account), *leading_keys(keys))
        )
        _merge_store(getattr(merged, attr), stores, *keys.origin(order), remaps)
        return len(order)

    # Access rows interleave at scrape ticks, then watch order, then
    # page order.  Ticks are a per-account property (the next
    # delimiter needs each account's page order) and every account's
    # rows live in exactly one shard, in page order.
    def access_keys(keys):
        ticks = []
        for s, run in enumerate(shard_runs):
            # Scraper login rows delimit ingestion batches: monitor-IP
            # rows stamped exactly on the tick grid.  (Sandbox rows
            # also carry monitor IPs but continuous build-time
            # timestamps, so the grid test excludes them.)
            monitor_ids = [
                ident
                for ident in map(strings.id_of, run.dataset.monitor_ips)
                if ident is not None
            ]
            stamps = keys.stamps(s)
            delimiters = (
                np.isin(keys.ids("ip_address", s), monitor_ids)
                & (stamps > 0.0)
                & (stamps % scrape_period == 0.0)
            )
            ticks.append(
                _access_ticks(
                    keys.ids("account_address", s),
                    stamps,
                    delimiters,
                    scrape_period,
                )
            )
        return (np.concatenate(ticks),)

    # Notifications and scrape failures carry their tick time directly
    # (scripts report at scan ticks, lockouts at scrape ticks); watch
    # order breaks same-tick ties exactly as the serial loops do.
    def timed_keys(keys):
        return (keys.timestamps(),)

    # Defense actions carry continuous per-account trigger times (the
    # planner jitters every check phase), so scheduled rows never tie
    # across accounts.  The one cross-account tie source is synchronous
    # ``prevented_login`` rows from attacker burst waves, where many
    # devices attempt at one shared arrival instant; serial execution
    # order there is device-creation order, i.e. ascending device id —
    # the ``detail`` column, compared as strings (ranked with Python's
    # ``sorted``).  Within an account, same-time rows (check + detect)
    # keep their recorded sequence: equal details fall through to
    # (shard, row), which is shard-invariant because an account lives
    # in one shard, and a detect's detail ("", "false_positive") never
    # sorts before its check's "".
    def defense_keys(keys):
        details = np.concatenate(
            [keys.ids("detail", s) for s in range(len(shard_runs))]
        )
        ranked = sorted(np.unique(details).tolist(), key=strings.lookup)
        rank = np.zeros(len(strings), dtype=np.int64)
        rank[ranked] = np.arange(len(ranked))
        return (rank[details], keys.timestamps())

    access_rows = merge("access_store", "account_address", access_keys)
    notification_rows = merge(
        "notification_store", "account_address", timed_keys
    )
    failure_rows = merge("failure_log", "address", timed_keys)
    defense_rows = merge("defense_store", "account_address", defense_keys)

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
        "access_rows": access_rows,
        "notification_rows": notification_rows,
        "failure_rows": failure_rows,
        "defense_rows": defense_rows,
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
    spill_dir: str | Path | None = None,
    chunk_rows: int | None = None,
    shard_timeout: float | None = None,
    shard_retries: int | None = None,
) -> RunResult:
    """Run ``scenario`` across ``shards`` workers and merge the result.

    Args:
        shards: partition size; defaults to the scenario's ``shards``
            field.  ``1`` falls through to the ordinary serial
            :func:`~repro.api.envelope.run_scenario`, which refuses
            ``shard_timeout`` and ``shard_retries``.
        jobs: worker processes; defaults to ``min(shards, cpu_count)``.
            ``1`` with no ``shard_timeout`` runs the shards
            sequentially in this process — same result, no fork
            (useful for tests, tracing and debugging).  Otherwise
            :func:`repro.faults.supervise.fan_out` forks supervised
            workers: a crashed or timed-out shard is killed and
            re-executed instead of aborting the whole run (shard
            execution is deterministic in (scenario, seed), so reruns
            are bit-identical).
        seed: master-seed override, as in ``Scenario.run``.
        spill_dir: makes every worker *and* the merge spill telemetry
            (``chunk_rows`` rows per chunk).  The directory is
            partitioned as ``shard-<i>/`` per worker plus ``merged/``
            for the coordinator; workers ship chunk manifests back
            instead of pickled row data, and the merge streams shard
            chunks into merged chunks.
        shard_timeout: wall-clock limit per shard attempt, seconds.
        shard_retries: re-executions allowed per forked shard before
            the run fails with :class:`~repro.errors.SupervisionError`
            (default 1).  Shards running in this process cannot be
            requeued, so giving it there is a
            :class:`~repro.errors.ConfigurationError`.

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
            scenario.with_shards(1),
            spill_dir=spill_dir,
            chunk_rows=chunk_rows,
            shard_timeout=shard_timeout,
            shard_retries=shard_retries,
        )
    # Workers re-read the shard count from the serialized scenario;
    # keep the two in sync even when ``shards`` came in as an override.
    if scenario.shards != shards:
        scenario = scenario.with_shards(shards)
    started = time.perf_counter()
    serialized = scenario.to_json()
    if spill_dir is None:
        tasks = [(serialized, index, shards) for index in range(shards)]
    else:
        spill_dir = Path(spill_dir)
        tasks = [
            (serialized, index, shards, spill_dir / f"shard-{index}", chunk_rows)
            for index in range(shards)
        ]
    if jobs is None:
        jobs = min(shards, os.cpu_count() or 1)
    jobs = min(jobs, shards)
    if shard_retries is None:
        shard_retries = 1
    elif jobs == 1 and shard_timeout is None:
        raise ConfigurationError(
            "--shard-retries (shard_retries) requeues forked shards only; "
            "with one job and no shard timeout the shards run in this "
            "process, where a failed shard cannot be retried"
        )
    outcomes = sorted(
        fan_out(
            _execute_shard,
            tasks,
            jobs=jobs,
            timeout=shard_timeout,
            retries=shard_retries,
        ),
        key=lambda o: o.index,
    )
    failed = [o for o in outcomes if not o.ok]
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
    shard_runs = [o.result for o in outcomes]
    for run in shard_runs:
        if run.spill_manifest is not None:
            run.dataset.attach_spilled_stores(run.spill_manifest)
    dataset, diagnostics = merge_shard_runs(
        scenario,
        shard_runs,
        spill_dir=None if spill_dir is None else spill_dir / "merged",
        chunk_rows=chunk_rows,
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
def _translation(left, right) -> np.ndarray:
    """``right``'s string ids as ``left``'s ids for the same strings
    (ids past ``left``'s table for strings it lacks)."""
    index = {value: ident for ident, value in enumerate(left.to_list())}
    return np.asarray(
        [
            index.get(value, len(index) + ident)
            for ident, value in enumerate(right.to_list())
        ],
        dtype=np.int64,
    )


def _first_divergence(a, b, translation) -> int | None:
    """The first row at which two same-length stores decode differently.

    Column-at-a-time: ``b``'s interned ids compare after translation
    into ``a``'s table, an ``opt_f64`` value only where present, ``obj``
    payloads as Python values (and only up to the earliest divergence
    found so far).
    """
    first = len(a)
    for field in a.schema:
        left, right = a.column(field.name), b.column(field.name)
        if field.kind == "obj":
            for i, (x, y) in enumerate(zip(left.values(), right.values())):
                if i >= first:
                    break
                if x != y:
                    first = i
                    break
            continue
        if field.kind == "intern":
            to_left = translation(a.strings, b.strings)
            differ = (
                _whole_column(left.ids, np.int64)[:first]
                != to_left[_whole_column(right.ids, np.int64)[:first]]
            )
        else:
            dtype = np.int64 if field.kind == "i64" else np.float64
            differ = (
                _whole_column(left.data, dtype)[:first]
                != _whole_column(right.data, dtype)[:first]
            )
            if field.kind == "opt_f64":
                present = _whole_column(left.mask, np.int8)[:first] != 0
                differ &= present
                differ |= present != (
                    _whole_column(right.mask, np.int8)[:first] != 0
                )
        hits = np.flatnonzero(differ)
        if len(hits):
            first = int(hits[0])
    return first if first < len(a) else None


def dataset_mismatches(
    expected: ObservedDataset, actual: ObservedDataset
) -> list[str]:
    """Field-for-field comparison of two datasets; empty means equal.

    Compares decoded *rows* (append order included), never raw column
    ids: two stores that interned strings in different orders but hold
    the same rows are equal.  Columns compare whole, and the first
    divergent row is reported decoded.  This is the sharded-vs-serial
    oracle — tests and the shard benchmark gate both call it.
    """
    mismatches: list[str] = []
    translations: dict[tuple[int, int], np.ndarray] = {}

    def translation(left, right) -> np.ndarray:
        # The stores of a dataset share one table: translate it once.
        key = (id(left), id(right))
        if key not in translations:
            translations[key] = _translation(left, right)
        return translations[key]

    def compare_rows(name: str, a, b) -> None:
        if len(a) != len(b):
            mismatches.append(
                f"{name}: {len(a)} rows vs {len(b)} rows"
            )
            return
        i = _first_divergence(a, b, translation)
        if i is not None:
            mismatches.append(
                f"{name}: first divergence at row {i}: "
                f"{a.row(i)!r} != {b.row(i)!r}"
            )

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
