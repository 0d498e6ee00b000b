"""Distributed sweep orchestration with a memoized results store.

:class:`SweepManager` is the one engine that plans, dispatches, retries
and reports a scenario × seed matrix.  Without a store it runs a
one-shot batch (:class:`~repro.api.runner.BatchRunner` is a thin facade
over it); with one, sweeps become persistent, resumable **campaigns**:

* :class:`JobSpec` (:mod:`repro.sweeps.jobspec`) — a deterministic
  content address for each (scenario, seed, code-version) cell,
  derived from the scenario's canonical JSON;
* :class:`ResultsStore` (:mod:`repro.sweeps.store`) — an atomic,
  content-addressed on-disk store that memoizes completed cells, with
  ``ls``/``verify``/``gc`` maintenance;
* :class:`SweepManager` (:mod:`repro.sweeps.manager`) — plans the
  scenario × seed matrix, skips cached cells, journals every state
  transition to JSONL, survives kill-and-restart (``resume=True``),
  and requeues failures with a bounded retry budget;
* cell dispatch — ``SweepManager.run(jobs, cell_timeout=...)`` hands
  the cells to :func:`repro.faults.supervise.fan_out`, the same
  decision sharded runs use: in this process for one job with no cell
  timeout, one supervised forked child per cell otherwise.

Quickstart::

    from repro import scenarios
    from repro.sweeps import ResultsStore, SweepManager

    store = ResultsStore("results-store")
    manager = SweepManager(
        [scenarios.get("fast")], seeds=range(2016, 2024), store=store
    )
    result = manager.run()            # executes 8 cells, memoizes each
    print(result.batch().aggregate().format())

    result = manager.run(resume=True)  # instant: all 8 load from disk
    assert result.cached == 8

The CLI mirrors this: ``python -m repro sweep [--store DIR [--resume]
[--max-cells N]] [--jobs N] [--retries N] [--cell-timeout SEC]`` plus
``python -m repro store ls|verify|gc``.
"""

from repro.sweeps.jobspec import (
    CODE_VERSION_ENV,
    JobSpec,
    canonical_scenario_json,
    default_code_version,
)
from repro.sweeps.manager import (
    CellOutcome,
    CellStatus,
    CellTask,
    SweepCell,
    SweepManager,
    SweepResult,
    read_journal,
)
from repro.sweeps.store import ResultsStore, StoreEntry, open_store

__all__ = [
    "CODE_VERSION_ENV",
    "CellOutcome",
    "CellStatus",
    "CellTask",
    "JobSpec",
    "ResultsStore",
    "StoreEntry",
    "SweepCell",
    "SweepManager",
    "SweepResult",
    "canonical_scenario_json",
    "default_code_version",
    "open_store",
    "read_journal",
]
