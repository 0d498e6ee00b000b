"""Pluggable dispatch backends for sweep cells.

A :class:`DispatchBackend` turns a batch of :class:`CellTask`s into
:class:`CellOutcome`s, yielding each outcome **as it completes** so the
:class:`~repro.sweeps.manager.SweepManager` can journal progress,
memoize results, and requeue failures incrementally.  Outcomes carry an
index back to the task, so completion order is free to differ from
submission order.

Three implementations ship:

* :class:`InProcessBackend` — runs cells serially in the calling
  process.  Zero marshalling overhead; the right default for one-off
  sweeps and the path a serial :class:`~repro.api.runner.BatchRunner`
  takes.
* :class:`LocalPoolBackend` — forked workers under
  :func:`repro.faults.supervise.supervise_iter`, one child per cell.
  Workers rebuild runs from the serialized scenario, so pooled results
  are bit-identical to in-process ones, and a SIGKILLed or hung worker
  costs exactly that cell.  A pooled
  :class:`~repro.api.runner.BatchRunner` runs here too.
* :class:`SubprocessBackend` — shells out to ``python -m repro run
  --scenario-file ... --result-out ...`` per cell.  Each cell is a
  fully independent OS process with no shared interpreter state — the
  shape that generalizes to SSH/SLURM dispatch: replace the local
  ``Popen`` with a remote submit and the manager never knows.

Every backend must **contain** per-cell failures: a raising, crashing,
or timed-out cell becomes a failed :class:`CellOutcome`, never an
exception that aborts the generator (and with it every in-flight
sibling).  Both process-spawning backends take a ``cell_timeout``:
a cell past its wall-clock budget is killed and reported failed, and
the :class:`~repro.sweeps.manager.SweepManager` requeues it under its
retry policy.

Scenarios with ``shards > 1`` compose transparently: each cell's
``run_scenario`` call dispatches to the sharded executor, so one sweep
can saturate a fleet twice over (cells across workers, shards within a
cell).
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass
from pathlib import Path
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

    #: Stable identifier used in journals and ``--backend`` flags.
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
    crashes, exceeds ``cell_timeout``, or goes heartbeat-silent for
    ``stale_after`` seconds is killed and surfaced as a *failed*
    outcome for that one cell; the manager's retry loop decides
    whether to requeue it (the backend itself never retries — retry
    accounting lives in one place).
    """

    name = "pool"

    def __init__(
        self,
        jobs: int = 2,
        *,
        cell_timeout: float | None = None,
        stale_after: float | None = None,
        heartbeat_interval: float = 0.2,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError("pool backend needs jobs >= 1")
        self.jobs = jobs
        self.cell_timeout = cell_timeout
        self.stale_after = stale_after
        self.heartbeat_interval = heartbeat_interval

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
            heartbeat_interval=self.heartbeat_interval,
            stale_after=self.stale_after,
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


class SubprocessBackend:
    """One ``python -m repro run`` child process per cell.

    The cell's scenario is written to a JSON file, the child runs it
    with ``--scenario-file``/``--result-out``, and the pickled
    :class:`RunResult` is read back.  ``jobs`` children run
    concurrently (each is its own OS process; the coordinating threads
    only block on ``Popen.communicate``).  This is deliberately the
    dumbest possible remote-execution shape — swap the local ``Popen``
    for ``ssh host python -m repro ...`` or ``sbatch`` and nothing
    above this class changes.

    Children never outlive the dispatch: a cell past ``cell_timeout``
    is killed and reported failed, and if the parent unwinds mid-sweep
    (``KeyboardInterrupt``, generator closed early) every live child
    is killed and each cell's scenario/result scratch files are
    removed — no orphaned workers, no leaked temp files.
    """

    name = "subprocess"

    def __init__(
        self,
        jobs: int = 1,
        *,
        python: str | None = None,
        extra_args: Sequence[str] = (),
        cell_timeout: float | None = None,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError("subprocess backend needs jobs >= 1")
        self.jobs = jobs
        self.python = python or sys.executable
        self.extra_args = tuple(extra_args)
        self.cell_timeout = cell_timeout

    def run_cells(
        self, tasks: Sequence[CellTask]
    ) -> Iterator[CellOutcome]:
        from concurrent.futures import ThreadPoolExecutor

        if not tasks:
            return
        # Live children, keyed by cell index.  Worker threads register
        # every Popen here so the finally below can kill stragglers
        # whenever the generator unwinds — normal exhaustion, an early
        # close(), or a KeyboardInterrupt riding through yield.
        live: dict[int, subprocess.Popen] = {}
        with tempfile.TemporaryDirectory(prefix="repro-sweep-") as tmp:
            pool = ThreadPoolExecutor(
                max_workers=min(self.jobs, len(tasks))
            )
            try:
                pending = {
                    pool.submit(self._run_one, task, Path(tmp), live)
                    for task in tasks
                }
                while pending:
                    done, pending = wait(
                        pending, return_when=FIRST_COMPLETED
                    )
                    yield from (future.result() for future in done)
            finally:
                for proc in list(live.values()):
                    proc.kill()
                pool.shutdown(wait=True, cancel_futures=True)

    def _run_one(
        self,
        task: CellTask,
        tmp: Path,
        live: dict[int, subprocess.Popen],
    ) -> CellOutcome:
        import pickle

        started = time.perf_counter()
        scenario_path = tmp / f"cell-{task.index}.scenario.json"
        result_path = tmp / f"cell-{task.index}.result.pkl"

        def fail(error: str, tb: str | None = None) -> CellOutcome:
            return CellOutcome(
                index=task.index,
                run=None,
                elapsed_seconds=time.perf_counter() - started,
                error=error,
                traceback=tb,
            )

        scenario_path.write_text(task.scenario_json)
        command = [
            self.python,
            "-m",
            "repro",
            "run",
            "--scenario-file",
            str(scenario_path),
            "--seed",
            str(task.seed),
            "--result-out",
            str(result_path),
            *self.extra_args,
        ]
        proc: subprocess.Popen | None = None
        try:
            try:
                proc = subprocess.Popen(
                    command,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    text=True,
                )
            except OSError as exc:
                return fail(f"failed to spawn {self.python}: {exc}")
            live[task.index] = proc
            try:
                _, stderr = proc.communicate(timeout=self.cell_timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                return fail(
                    f"cell timed out after {self.cell_timeout:.6g}s "
                    "(worker killed)"
                )
            except BaseException:
                # Interrupted mid-cell: take the child down with us.
                proc.kill()
                proc.communicate()
                raise
            if proc.returncode != 0:
                tail = "\n".join(stderr.splitlines()[-8:])
                return fail(
                    f"exit status {proc.returncode} from "
                    f"'{' '.join(command[:4])} ...'",
                    tail or None,
                )
            try:
                with result_path.open("rb") as handle:
                    run = pickle.load(handle)
            except (OSError, pickle.UnpicklingError, EOFError) as exc:
                return fail(f"child produced no readable result: {exc}")
            return CellOutcome(
                index=task.index,
                run=run,
                elapsed_seconds=time.perf_counter() - started,
            )
        finally:
            live.pop(task.index, None)
            for path in (scenario_path, result_path):
                try:
                    path.unlink(missing_ok=True)
                except OSError:
                    pass


#: ``--backend`` flag values mapped to constructors taking ``jobs``.
BACKEND_NAMES = ("inprocess", "pool", "subprocess")


def backend_from_name(
    name: str, *, jobs: int = 1, cell_timeout: float | None = None
) -> DispatchBackend:
    """Build the backend the CLI asked for by name.

    ``cell_timeout`` applies to the process-spawning backends; the
    in-process backend has no worker to kill and ignores it.
    """
    if name == "inprocess":
        return InProcessBackend()
    if name == "pool":
        return LocalPoolBackend(jobs=jobs, cell_timeout=cell_timeout)
    if name == "subprocess":
        return SubprocessBackend(jobs=jobs, cell_timeout=cell_timeout)
    raise ConfigurationError(
        f"unknown dispatch backend {name!r}; known: "
        + ", ".join(BACKEND_NAMES)
    )
