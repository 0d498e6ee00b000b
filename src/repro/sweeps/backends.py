"""Pluggable dispatch backends for sweep cells.

A :class:`DispatchBackend` turns a batch of :class:`CellTask`s into
:class:`CellOutcome`s, yielding each outcome **as it completes** so the
:class:`~repro.sweeps.manager.SweepManager` can journal progress,
memoize results, and requeue failures incrementally.  Outcomes carry an
index back to the task, so completion order is free to differ from
submission order.

Two implementations ship, and :func:`backend_for` picks between them:

* :class:`InProcessBackend` — runs cells serially in the calling
  process.  Zero marshalling overhead; the backend of a one-worker
  sweep or a serial :class:`~repro.api.runner.BatchRunner`.
* :class:`LocalPoolBackend` — forked workers under
  :func:`repro.faults.supervise.supervise_iter`, one child per cell.
  Workers rebuild runs from the serialized scenario, so pooled results
  are bit-identical to in-process ones, and a SIGKILLed or hung worker
  costs exactly that cell.

Every backend must **contain** per-cell failures: a raising, crashing,
or timed-out cell becomes a failed :class:`CellOutcome`, never an
exception that aborts the generator (and with it every in-flight
sibling).  The pool backend takes a ``cell_timeout``: a cell past its
wall-clock budget is killed and reported failed, and the
:class:`~repro.sweeps.manager.SweepManager` requeues it under its
retry policy.  Other dispatchers (remote hosts, a batch scheduler)
plug in through the same protocol; tests substitute fake backends
through it too.

Scenarios with ``shards > 1`` compose transparently: each cell's
``run_scenario`` call dispatches to the sharded executor, so one sweep
can saturate a fleet twice over (cells across workers, shards within a
cell).
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Protocol, Sequence, runtime_checkable

from repro.errors import ConfigurationError
from repro.faults.plan import fault_site
from repro.faults.supervise import supervise_iter

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


@runtime_checkable
class DispatchBackend(Protocol):
    """The contract every dispatch backend satisfies."""

    #: Stable identifier used in journals and sweep summaries.
    name: str

    def run_cells(
        self, tasks: Sequence[CellTask]
    ) -> Iterator[CellOutcome]:
        """Execute ``tasks``, yielding one outcome per task as it finishes."""
        ...  # pragma: no cover - protocol


def _execute_cell(task: CellTask) -> CellOutcome:
    """Run one cell in this process, containing any failure.

    Module-level so forked workers can run it; the in-process backend
    calls it too, guaranteeing identical execution either way (the same
    serialize-rebuild-run discipline for every sweep and batch).
    """
    from repro.api.envelope import run_scenario
    from repro.api.scenario import Scenario

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


class InProcessBackend:
    """Serial execution in the calling process."""

    name = "inprocess"

    def run_cells(
        self, tasks: Sequence[CellTask]
    ) -> Iterator[CellOutcome]:
        for task in tasks:
            yield _execute_cell(task)


class LocalPoolBackend:
    """Supervised forked-worker dispatch, crash-isolated per cell.

    Each cell runs in its own forked child under
    :func:`~repro.faults.supervise.supervise_iter`.  A child that
    crashes or exceeds ``cell_timeout`` is killed and surfaced as a
    *failed* outcome for that one cell; the manager's retry loop decides
    whether to requeue it (the backend itself never retries — retry
    accounting lives in one place).
    """

    name = "pool"

    def __init__(
        self,
        jobs: int = 2,
        *,
        cell_timeout: float | None = None,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError("pool backend needs jobs >= 1")
        self.jobs = jobs
        self.cell_timeout = cell_timeout

    def run_cells(
        self, tasks: Sequence[CellTask]
    ) -> Iterator[CellOutcome]:
        if not tasks:
            return
        tasks = list(tasks)
        for outcome in supervise_iter(
            _execute_cell,
            tasks,
            jobs=min(self.jobs, len(tasks)),
            timeout=self.cell_timeout,
            retries=0,
        ):
            if outcome.ok:
                yield outcome.result
            else:
                task = tasks[outcome.index]
                yield CellOutcome(
                    index=task.index,
                    run=None,
                    elapsed_seconds=outcome.elapsed_seconds,
                    error=f"worker {outcome.error}",
                )


def backend_for(
    jobs: int = 1, *, cell_timeout: float | None = None
) -> DispatchBackend:
    """The backend a sweep of ``jobs`` workers runs on.

    Forked workers (:class:`LocalPoolBackend`) when more than one runs
    at a time or a cell timeout needs a worker to kill; the calling
    process (:class:`InProcessBackend`) otherwise.
    """
    if jobs < 1:
        raise ConfigurationError("jobs must be >= 1")
    if jobs > 1 or cell_timeout is not None:
        return LocalPoolBackend(jobs, cell_timeout=cell_timeout)
    return InProcessBackend()
