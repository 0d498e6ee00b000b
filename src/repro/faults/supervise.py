"""Fan-out of independent tasks: in this process, or in supervised
forks with timeouts, heartbeats and kill-and-requeue.

:func:`fan_out` is the one place the library decides where a batch of
independent tasks runs; sharded runs (:func:`repro.shard.run_sharded`)
and sweep cells (:meth:`repro.sweeps.SweepManager.run`, which
:class:`~repro.api.runner.BatchRunner` batches go through) both call
it.  One job with no timeout runs the tasks in the calling process;
anything else forks under :func:`supervise_iter`.

In :func:`supervise_iter` each task runs in its own forked child (so a
SIGKILL takes out exactly one task, never a shared pool); the child
ships its result back through a pickle file written atomically, and
touches a heartbeat file from a daemon thread while it works.  The
parent polls children against two clocks:

* a **wall-clock deadline** per attempt (``timeout``) — catches tasks
  that run but never finish;
* a **heartbeat staleness** bound (``stale_after``) — catches tasks
  that stop making progress entirely (a hung interpreter stops
  touching its heartbeat; so does an injected hang fault, by design).

A child that dies, times out, or goes silent is killed and the task
requeued up to ``retries`` times.  Because every workload in this
repository is deterministic in (task, seed), re-execution is safe: the
rerun produces bit-identical output, which is what the chaos suite
asserts.

The fault-free overhead is one ``fork`` per task plus a poll loop —
benchmarked in ``benchmarks/bench_faults.py`` and gated at ≤5 % over
a bare process pool (kept in the benchmark only) on the sharded
critical path.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

from repro.errors import ConfigurationError
from repro.faults.plan import hang_active

#: Parent poll cadence, seconds.
POLL_INTERVAL = 0.02


@dataclass
class SupervisedOutcome:
    """What happened to one supervised task.

    Attributes:
        index: position of the task in the input sequence.
        result: the worker's return value (``None`` on failure).
        error: ``None`` on success, else a one-line description of the
            *last* failure ("died with SIGKILL", "timed out after
            2.0s", "heartbeat stale ...").
        attempts: executions consumed (1 = first try succeeded).
        elapsed_seconds: wall time from first launch to resolution.
    """

    index: int
    result: object = None
    error: str | None = None
    attempts: int = 1
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


class _Attempt:
    """One running child: process + result/heartbeat paths + clocks."""

    def __init__(
        self,
        index: int,
        attempt: int,
        process,
        result_path: Path,
        heartbeat_path: Path,
        deadline: float | None,
    ) -> None:
        self.index = index
        self.attempt = attempt
        self.process = process
        self.result_path = result_path
        self.heartbeat_path = heartbeat_path
        self.deadline = deadline
        self.started = time.monotonic()


def _child_main(
    worker: Callable,
    task,
    result_path: Path,
    heartbeat_path: Path,
    heartbeat_interval: float,
) -> None:
    """Child-side wrapper: heartbeat thread + worker + atomic result.

    Runs in the forked child.  The heartbeat thread goes silent while
    :func:`~repro.faults.plan.hang_active` reports an injected hang, so
    supervision observes injected hangs exactly as it would a wedged
    interpreter.  All exceptions are contained into the result file —
    the parent decides whether a failure is retryable.
    """
    stop = threading.Event()

    def _beat() -> None:
        while not stop.wait(heartbeat_interval):
            if hang_active():
                continue
            try:
                os.utime(heartbeat_path)
            except OSError:
                return

    heartbeat_path.touch()
    beat = threading.Thread(target=_beat, daemon=True)
    beat.start()
    try:
        try:
            payload = ("ok", worker(task))
        except BaseException as exc:  # noqa: BLE001 - shipped to parent
            payload = ("error", f"{type(exc).__name__}: {exc}")
        tmp = result_path.with_suffix(".tmp")
        with open(tmp, "wb") as handle:
            pickle.dump(payload, handle)
        os.replace(tmp, result_path)
    finally:
        stop.set()


def supervise_iter(
    worker: Callable,
    tasks: Sequence,
    *,
    jobs: int,
    timeout: float | None = None,
    retries: int = 0,
    heartbeat_interval: float = 0.2,
    stale_after: float | None = None,
) -> Iterator[SupervisedOutcome]:
    """Run ``worker(task)`` for every task under supervision, yielding
    :class:`SupervisedOutcome`s as they resolve (not in input order).

    Args:
        worker: picklable callable executed in a forked child.
        tasks: the task sequence; each must be picklable.
        jobs: concurrent children; must be >= 1.
        timeout: per-attempt wall-clock limit in seconds; ``None``
            disables the deadline (heartbeats still apply).
        retries: requeues allowed per task after a crash/hang/timeout.
        heartbeat_interval: how often children touch their heartbeat.
        stale_after: kill a child whose heartbeat is older than this;
            ``None`` disables the watchdog.  Must comfortably exceed
            ``heartbeat_interval`` (a 4x margin is a good floor).

    The generator owns every child it forks: closing it early (or a
    ``KeyboardInterrupt`` unwinding through it) kills outstanding
    children and removes their scratch files — no orphans.
    """
    if jobs < 1:
        raise ConfigurationError("supervise_iter needs jobs >= 1")
    ctx = multiprocessing.get_context("fork")
    pending: deque[tuple[int, int]] = deque(
        (index, 1) for index in range(len(tasks))
    )
    first_start: dict[int, float] = {}
    running: list[_Attempt] = []

    with tempfile.TemporaryDirectory(prefix="repro-supervise-") as scratch:
        scratch_dir = Path(scratch)

        def _launch(index: int, attempt: int) -> None:
            result_path = scratch_dir / f"task{index}.a{attempt}.result"
            heartbeat_path = scratch_dir / f"task{index}.a{attempt}.hb"
            process = ctx.Process(
                target=_child_main,
                args=(
                    worker,
                    tasks[index],
                    result_path,
                    heartbeat_path,
                    heartbeat_interval,
                ),
            )
            process.start()
            first_start.setdefault(index, time.monotonic())
            deadline = (
                time.monotonic() + timeout if timeout is not None else None
            )
            running.append(
                _Attempt(
                    index,
                    attempt,
                    process,
                    result_path,
                    heartbeat_path,
                    deadline,
                )
            )

        def _resolve(att: _Attempt) -> SupervisedOutcome | None:
            """Outcome/requeue for a finished or condemned attempt."""
            failure: str | None = None
            result = None
            if att.result_path.exists():
                try:
                    with open(att.result_path, "rb") as handle:
                        status, payload = pickle.load(handle)
                except (OSError, pickle.PickleError, EOFError) as exc:
                    failure = f"unreadable result: {exc}"
                else:
                    if status == "ok":
                        result = payload
                    else:
                        failure = payload
            else:
                code = att.process.exitcode
                failure = (
                    f"died with exit code {code}"
                    if code is not None
                    else "died without result"
                )
            elapsed = time.monotonic() - first_start[att.index]
            if failure is None:
                return SupervisedOutcome(
                    index=att.index,
                    result=result,
                    attempts=att.attempt,
                    elapsed_seconds=elapsed,
                )
            if att.attempt <= retries:
                pending.append((att.index, att.attempt + 1))
                return None
            return SupervisedOutcome(
                index=att.index,
                error=failure,
                attempts=att.attempt,
                elapsed_seconds=elapsed,
            )

        def _condemn(att: _Attempt, reason: str) -> SupervisedOutcome | None:
            att.process.kill()
            att.process.join()
            # A kill can race a completed result write; honour the
            # result if it landed, otherwise record the reason.
            if not att.result_path.exists():
                elapsed = time.monotonic() - first_start[att.index]
                if att.attempt <= retries:
                    pending.append((att.index, att.attempt + 1))
                    return None
                return SupervisedOutcome(
                    index=att.index,
                    error=reason,
                    attempts=att.attempt,
                    elapsed_seconds=elapsed,
                )
            return _resolve(att)

        try:
            while pending or running:
                while pending and len(running) < jobs:
                    index, attempt = pending.popleft()
                    _launch(index, attempt)
                time.sleep(POLL_INTERVAL)
                now = time.monotonic()
                still_running: list[_Attempt] = []
                for att in running:
                    if not att.process.is_alive():
                        att.process.join()
                        outcome = _resolve(att)
                        if outcome is not None:
                            yield outcome
                        continue
                    if att.deadline is not None and now > att.deadline:
                        outcome = _condemn(
                            att,
                            f"timed out after {timeout:.6g}s",
                        )
                        if outcome is not None:
                            yield outcome
                        continue
                    if stale_after is not None:
                        try:
                            age = (
                                time.time()
                                - att.heartbeat_path.stat().st_mtime
                            )
                        except OSError:
                            # Not yet touched: measure from launch so a
                            # slow fork gets the same grace.
                            age = now - att.started
                        if age > stale_after:
                            outcome = _condemn(
                                att,
                                "heartbeat stale "
                                f"({age:.2f}s > {stale_after:.6g}s)",
                            )
                            if outcome is not None:
                                yield outcome
                            continue
                    still_running.append(att)
                running[:] = still_running
        finally:
            for att in running:
                if att.process.is_alive():
                    att.process.kill()
                att.process.join()
            running.clear()


def fan_out(
    worker: Callable,
    tasks: Sequence,
    *,
    jobs: int = 1,
    timeout: float | None = None,
    retries: int = 0,
) -> Iterator[SupervisedOutcome]:
    """Run ``worker(task)`` for every task, here or in supervised forks.

    ``jobs == 1`` with no ``timeout`` runs the tasks one after another
    in the calling process, in input order, and lets a raising worker's
    exception propagate (there is no child to kill or requeue, so
    ``retries`` does not apply).  Any other combination — more than one
    job, or a deadline that needs a child to kill — is
    :func:`supervise_iter` with the same arguments.
    """
    if jobs < 1:
        raise ConfigurationError("jobs must be >= 1")
    if jobs == 1 and timeout is None:
        return _in_process(worker, tasks)
    return supervise_iter(
        worker, tasks, jobs=jobs, timeout=timeout, retries=retries
    )


def _in_process(
    worker: Callable, tasks: Sequence
) -> Iterator[SupervisedOutcome]:
    for index, task in enumerate(tasks):
        started = time.monotonic()
        result = worker(task)
        yield SupervisedOutcome(
            index=index,
            result=result,
            elapsed_seconds=time.monotonic() - started,
        )
