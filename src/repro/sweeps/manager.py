"""Persistent, resumable, memoized sweep campaigns.

:class:`SweepManager` plans a scenario × seed matrix into cells, checks
each cell's content address against the :class:`ResultsStore`, and
dispatches only the missing ones through
:func:`~repro.faults.supervise.fan_out`: in this process for one job
with no cell timeout, one supervised forked child per cell otherwise
(a SIGKILLed or timed-out child costs exactly that cell).  Every state
transition is journaled to a JSONL progress log inside the store, so a
killed sweep leaves a readable record and a re-launched one
(``resume=True`` / ``--resume``) picks up exactly where it stopped:
completed cells load from the store instead of re-executing, and the
final :class:`~repro.api.runner.BatchResult` is bit-identical to an
uninterrupted run's (runs are deterministic in (scenario, seed), so
*where* a result came from cannot matter).

Failed cells are requeued with a bounded budget (``retries`` extra
attempts per cell); cells that exhaust it surface as
:class:`~repro.api.runner.FailedRun` records on the batch — or raise,
in strict mode.  ``max_cells`` caps how many uncached cells one
invocation executes, which is both a cost-control knob and the hook
the resume smoke test uses to simulate a killed sweep.

Without a store (``store=None``) the same engine runs a one-shot
batch: nothing is looked up, stored or journaled to disk, but cells
are still dispatched, retried and reported the same way, and the
``progress`` callback still sees every journal record.  This is how
:class:`~repro.api.runner.BatchRunner` and a storeless
``python -m repro sweep`` run.

Journal records are JSON objects, one per line, ``event``-tagged:

``launch``
    one per invocation: jobs, cell timeout, cell counts, code version;
``cell``
    one per state transition, with ``status`` ∈ ``cached`` /
    ``running`` / ``done`` / ``requeued`` / ``failed`` / ``deferred``
    plus the cell's scenario, seed, and address;
``finish``
    one per invocation: final counts and wall-clock seconds.
"""

from __future__ import annotations

import enum
import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.api.runner import BatchResult, FailedRun
from repro.api.scenario import Scenario
from repro.errors import ConfigurationError, SweepError
from repro.faults.plan import fault_site
from repro.faults.retry import DEFAULT_IO_RETRY
from repro.faults.supervise import fan_out
from repro.sweeps.jobspec import JobSpec, default_code_version
from repro.sweeps.store import ResultsStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api.envelope import RunResult


@dataclass(frozen=True)
class CellTask:
    """One dispatchable cell: a serialized scenario plus its seed."""

    index: int
    scenario_json: str
    seed: int


@dataclass(frozen=True)
class CellOutcome:
    """What one dispatched cell produced: a run or a contained failure."""

    index: int
    run: "RunResult | None"
    elapsed_seconds: float
    error: str | None = None
    traceback: str | None = None

    @property
    def ok(self) -> bool:
        return self.run is not None


def _execute_cell(task: CellTask) -> CellOutcome:
    """Run one cell, containing any failure into a failed outcome.

    Module-level so forked workers can run it; in-process sweeps call
    it too, so every cell follows the same serialize-rebuild-run
    discipline wherever it runs.
    """
    from repro.api.envelope import run_scenario

    started = time.perf_counter()
    try:
        fault_site("sweep.cell", index=task.index, seed=task.seed)
        scenario = Scenario.from_json(task.scenario_json)
        run = run_scenario(scenario, seed=task.seed)
    except Exception as exc:  # noqa: BLE001 - failures must be contained
        return CellOutcome(
            index=task.index,
            run=None,
            elapsed_seconds=time.perf_counter() - started,
            error=f"{type(exc).__name__}: {exc}",
            traceback=traceback.format_exc(),
        )
    return CellOutcome(
        index=task.index,
        run=run,
        elapsed_seconds=time.perf_counter() - started,
    )


class CellStatus(enum.Enum):
    """Lifecycle of one sweep cell."""

    PENDING = "pending"
    DEFERRED = "deferred"
    CACHED = "cached"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


@dataclass(eq=False)
class SweepCell:
    """One (scenario, seed) cell of the sweep matrix."""

    spec: JobSpec
    scenario: Scenario
    seed: int
    index: int = 0
    status: CellStatus = CellStatus.PENDING
    attempts: int = 0
    error: str | None = None
    traceback: str | None = field(default=None, repr=False)
    run: "RunResult | None" = field(default=None, repr=False)

    @property
    def address(self) -> str:
        return self.spec.address


@dataclass
class SweepResult:
    """What one :meth:`SweepManager.run` invocation produced."""

    cells: list[SweepCell]
    elapsed_seconds: float

    def counts(self) -> dict[str, int]:
        counts = {status.value: 0 for status in CellStatus}
        for cell in self.cells:
            counts[cell.status.value] += 1
        return counts

    @property
    def executed(self) -> int:
        return sum(1 for c in self.cells if c.status is CellStatus.DONE)

    @property
    def cached(self) -> int:
        return sum(1 for c in self.cells if c.status is CellStatus.CACHED)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.cells if c.status is CellStatus.FAILED)

    @property
    def deferred(self) -> int:
        return sum(
            1
            for c in self.cells
            if c.status in (CellStatus.DEFERRED, CellStatus.PENDING)
        )

    @property
    def complete(self) -> bool:
        """Every cell resolved to a run (none failed, none deferred)."""
        return all(
            c.status in (CellStatus.DONE, CellStatus.CACHED)
            for c in self.cells
        )

    def batch(self) -> BatchResult:
        """The runs as a :class:`BatchResult`, in stable plan order.

        Cached and freshly-executed cells are indistinguishable here —
        both contribute their :class:`RunResult`; failed cells become
        :class:`FailedRun` records.  This is the one place a
        :class:`BatchResult` is built (``BatchRunner`` returns it too).
        """
        runs = [
            cell.run
            for cell in self.cells
            if cell.run is not None
        ]
        failures = [
            FailedRun(
                scenario_name=cell.scenario.name,
                seed=cell.seed,
                error=cell.error or "unknown failure",
                traceback=cell.traceback or "",
            )
            for cell in self.cells
            if cell.status is CellStatus.FAILED
        ]
        return BatchResult(runs=runs, failures=failures)


class SweepManager:
    """Plans, dispatches, journals, and memoizes one sweep campaign.

    Args:
        scenario_list: scenarios to sweep (names must be unique).
        seeds: master seeds; the matrix is the full cross product in
            scenario-major, seed-minor order (the ``BatchRunner``
            ordering).
        store: the memoizing results store, or ``None`` for a one-shot
            sweep that caches nothing and writes no journal file.
        code_version: the code-version token folded into every cell
            address (default: :func:`default_code_version`).
        retries: extra attempts per failed cell before it is declared
            failed (0 = no requeue).  Requeue rounds back off on
            ``DEFAULT_IO_RETRY``'s schedule (its ``attempts`` field is
            ignored), and the same policy guards ``store.put`` against
            transient IO errors.
        journal_path: where to journal (default:
            ``<store root>/journal.jsonl``; needs a store).
        progress: optional callback receiving every journal record as
            a dict, for live progress displays.
    """

    def __init__(
        self,
        scenario_list: "Scenario | Sequence[Scenario]",
        seeds: Iterable[int],
        store: ResultsStore | None,
        *,
        code_version: str | None = None,
        retries: int = 1,
        journal_path: str | Path | None = None,
        progress: Callable[[dict], None] | None = None,
    ) -> None:
        if isinstance(scenario_list, Scenario):
            scenario_list = [scenario_list]
        self.scenario_list = list(scenario_list)
        self.seeds = list(seeds)
        if not self.scenario_list:
            raise ConfigurationError("need at least one scenario")
        if not self.seeds:
            raise ConfigurationError("need at least one seed")
        names = [s.name for s in self.scenario_list]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                "scenario names in a sweep must be unique "
                "(use with_name() to disambiguate)"
            )
        if retries < 0:
            raise ConfigurationError("retries must be >= 0")
        if store is None and journal_path is not None:
            raise ConfigurationError("a sweep journal needs a store")
        self.store = store
        self.code_version = code_version or default_code_version()
        self.retries = retries
        self.journal_path = (
            Path(journal_path)
            if journal_path
            else store.journal_path if store is not None else None
        )
        self.progress = progress

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def plan(self) -> list[SweepCell]:
        """The full cell matrix, with already-stored cells marked cached."""
        cells: list[SweepCell] = []
        for scenario in self.scenario_list:
            for seed in self.seeds:
                spec = JobSpec.for_cell(
                    scenario, seed, code_version=self.code_version
                )
                status = (
                    CellStatus.CACHED
                    if self.store is not None and spec in self.store
                    else CellStatus.PENDING
                )
                cells.append(
                    SweepCell(
                        spec=spec,
                        scenario=scenario.with_seed(seed),
                        seed=seed,
                        index=len(cells),
                        status=status,
                    )
                )
        return cells

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        jobs: int = 1,
        *,
        cell_timeout: float | None = None,
        resume: bool = False,
        max_cells: int | None = None,
        strict: bool = False,
    ) -> SweepResult:
        """Execute the sweep, memoizing through the store.

        Cells run through :func:`~repro.faults.supervise.fan_out`: in
        this process when ``jobs == 1`` and ``cell_timeout`` is
        ``None``, otherwise each in its own supervised forked child, at
        most ``jobs`` at a time, killed once it runs past
        ``cell_timeout`` seconds.  Either way a raising, crashing or
        timed-out cell fails only itself and is requeued under the
        manager's ``retries`` budget.

        ``resume=False`` refuses to run against a store whose journal
        shows a previous invocation — resuming must be explicit, so a
        stale store path cannot silently serve old results.  With
        ``resume=True`` cached cells are loaded instead of re-executed.

        ``max_cells`` caps the number of *uncached* cells this
        invocation dispatches (retries of a dispatched cell do not
        count); the rest are journaled as deferred.  ``strict=True``
        raises :class:`~repro.errors.SweepError` if any cell exhausts
        its retry budget.  ``resume`` and ``max_cells`` need a store.
        """
        if jobs < 1:
            raise ConfigurationError("jobs must be >= 1")
        if max_cells is not None and max_cells < 0:
            raise ConfigurationError("max_cells must be >= 0")
        if self.store is None and (resume or max_cells is not None):
            raise ConfigurationError(
                "resume (--resume) and max_cells (--max-cells) need a "
                "persistent results store (--store DIR)"
            )
        if (
            self.journal_path is not None
            and self.journal_path.exists()
            and not resume
        ):
            raise ConfigurationError(
                f"journal {self.journal_path} records a previous sweep; "
                "pass resume=True (--resume) to continue it, or point "
                "the sweep at a fresh store"
            )
        started = time.perf_counter()
        cells = self.plan()

        dispatchable = [
            c for c in cells if c.status is CellStatus.PENDING
        ]
        if max_cells is not None:
            for cell in dispatchable[max_cells:]:
                cell.status = CellStatus.DEFERRED
            dispatchable = dispatchable[:max_cells]

        self._journal(
            {
                "event": "launch",
                "jobs": jobs,
                "cell_timeout": cell_timeout,
                "code_version": self.code_version,
                "cells": len(cells),
                "cached": sum(
                    1 for c in cells if c.status is CellStatus.CACHED
                ),
                "dispatching": len(dispatchable),
                "deferred": sum(
                    1 for c in cells if c.status is CellStatus.DEFERRED
                ),
                "retries": self.retries,
            }
        )

        for cell in cells:
            if cell.status is CellStatus.CACHED:
                cell.run = self.store.get(cell.spec)
                self._journal_cell(cell, "cached")
            elif cell.status is CellStatus.DEFERRED:
                self._journal_cell(cell, "deferred")

        queue = list(dispatchable)
        while queue:
            tasks = []
            for cell in queue:
                cell.status = CellStatus.RUNNING
                self._journal_cell(cell, "running")
                tasks.append(
                    CellTask(
                        index=cell.index,
                        scenario_json=cell.scenario.to_json(),
                        seed=cell.seed,
                    )
                )
            requeue: list[tuple[SweepCell, float]] = []
            for supervised in fan_out(
                _execute_cell, tasks, jobs=jobs, timeout=cell_timeout
            ):
                outcome = (
                    supervised.result
                    if supervised.ok
                    else CellOutcome(
                        index=tasks[supervised.index].index,
                        run=None,
                        elapsed_seconds=supervised.elapsed_seconds,
                        error=f"worker {supervised.error}",
                    )
                )
                cell = cells[outcome.index]
                cell.attempts += 1
                if outcome.ok:
                    cell.run = outcome.run
                    cell.error = None
                    cell.traceback = None
                    cell.status = CellStatus.DONE
                    if self.store is not None:
                        self._store_with_retry(cell, outcome.run)
                    self._journal_cell(
                        cell,
                        "done",
                        elapsed_seconds=round(
                            outcome.elapsed_seconds, 6
                        ),
                        attempts=cell.attempts,
                    )
                else:
                    cell.error = outcome.error
                    cell.traceback = outcome.traceback
                    if cell.attempts <= self.retries:
                        cell.status = CellStatus.PENDING
                        delay = DEFAULT_IO_RETRY.delay(
                            cell.attempts, key=cell.address
                        )
                        requeue.append((cell, delay))
                        self._journal_cell(
                            cell,
                            "requeued",
                            error=outcome.error,
                            attempts=cell.attempts,
                            delay_seconds=round(delay, 6),
                        )
                    else:
                        cell.status = CellStatus.FAILED
                        self._journal_cell(
                            cell,
                            "failed",
                            error=outcome.error,
                            attempts=cell.attempts,
                        )
            if requeue:
                # One backoff per round: the slowest cell's schedule
                # (per-cell sleeps would serialize the round).
                pause = max(delay for _, delay in requeue)
                if pause > 0:
                    time.sleep(pause)
            queue = [cell for cell, _ in requeue]

        result = SweepResult(
            cells=cells,
            elapsed_seconds=time.perf_counter() - started,
        )
        self._journal(
            {
                "event": "finish",
                "elapsed_seconds": round(result.elapsed_seconds, 6),
                **result.counts(),
            }
        )
        if strict and result.failed:
            first = next(
                c for c in cells if c.status is CellStatus.FAILED
            )
            raise SweepError(
                f"{result.failed} cell(s) failed after "
                f"{self.retries + 1} attempt(s); first: "
                f"{first.scenario.name} seed={first.seed}: {first.error}"
            )
        return result

    # ------------------------------------------------------------------
    # retry plumbing
    # ------------------------------------------------------------------
    def _store_with_retry(self, cell: SweepCell, run) -> None:
        """Memoize a finished run, riding out transient store IO errors.

        A run that took minutes to compute must not be lost to one
        flaky write; each retry is journaled so the recovery is
        visible in the campaign record.
        """
        DEFAULT_IO_RETRY.call(
            lambda: self.store.put(cell.spec, run),
            retry_on=(OSError,),
            key=cell.address,
            on_retry=lambda attempt, pause, exc: self._journal_cell(
                cell,
                "store_retry",
                error=f"{type(exc).__name__}: {exc}",
                attempts=attempt,
                delay_seconds=round(pause, 6),
            ),
        )

    # ------------------------------------------------------------------
    # journaling
    # ------------------------------------------------------------------
    def _journal(self, record: dict) -> None:
        record = {"ts": round(time.time(), 3), **record}
        if self.journal_path is not None:
            self.journal_path.parent.mkdir(parents=True, exist_ok=True)
            with self.journal_path.open("a") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        if self.progress is not None:
            self.progress(record)

    def _journal_cell(self, cell: SweepCell, status: str, **extra) -> None:
        self._journal(
            {
                "event": "cell",
                "status": status,
                "scenario": cell.scenario.name,
                "seed": cell.seed,
                "address": cell.address,
                **extra,
            }
        )


def read_journal(path: str | Path) -> list[dict]:
    """Parse a sweep journal back into its records (for tests/tools)."""
    records = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            records.append(json.loads(line))
    return records
