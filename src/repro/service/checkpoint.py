"""Checkpoint/resume: simulation snapshots and service snapshots.

Two checkpoint kinds, one discipline (write to a temp file, fsync,
atomic rename — a reader never sees a torn checkpoint):

* **Simulation checkpoints** pickle a mid-horizon
  :class:`~repro.core.experiment.Experiment`: the event heap holds only
  ``functools.partial`` callbacks over bound methods, so the entire
  world graph — simulator, RNG streams, mailboxes, telemetry stores —
  serializes and resumes bit-identically.  ``repro run
  --checkpoint-every D`` writes one per ``D`` simulated days;
  ``--resume-from FILE`` continues the horizon and produces an
  ``analyze()`` fingerprint identical to an uninterrupted run.

* **Service checkpoints** are JSON: the online classifier's rolling
  state (which holds everything ``/stats`` reports) and the WAL
  position it covers.  A restarting service loads the snapshot and
  replays only the WAL tail past that position.
"""

from __future__ import annotations

import json
import os
import pickle
from pathlib import Path

from repro.api.scenario import Scenario
from repro.core.experiment import Experiment
from repro.errors import ServiceError
from repro.faults.plan import fault_site
from repro.service.classifier import OnlineClassifier
from repro.service.state import ServiceState
from repro.service.wal import replay_wal

#: Format tag inside every service checkpoint; bump on layout changes.
#: Version 2 carries the dashboard inside ``classifier``; a version-1
#: checkpoint (with a separate ``dashboard`` key) is refused.
SERVICE_CHECKPOINT_VERSION = 2


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    fault_site("checkpoint.write", path=str(path), data=payload)
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(path.name + ".tmp")
    with temp.open("wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    temp.replace(path)


# ----------------------------------------------------------------------
# simulation checkpoints
# ----------------------------------------------------------------------


def save_experiment_checkpoint(
    experiment: Experiment,
    path: str | Path,
    *,
    scenario: Scenario | None = None,
    completed_day: float | None = None,
) -> Path:
    """Pickle a mid-horizon experiment (plus its scenario) to ``path``."""
    payload = pickle.dumps(
        {
            "kind": "experiment_checkpoint",
            "scenario": scenario,
            "completed_day": completed_day,
            "experiment": experiment,
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    path = Path(path)
    _atomic_write_bytes(path, payload)
    return path


def load_experiment_checkpoint(path: str | Path) -> dict:
    """Load a simulation checkpoint; returns the payload dict
    (``experiment``, ``scenario``, ``completed_day``)."""
    path = Path(path)
    try:
        with path.open("rb") as handle:
            payload = pickle.load(handle)
    except OSError as exc:
        raise ServiceError(
            f"cannot read checkpoint {str(path)!r}: {exc}"
        ) from exc
    except (pickle.UnpicklingError, EOFError) as exc:
        raise ServiceError(
            f"corrupt checkpoint {str(path)!r}: {exc}"
        ) from exc
    if (
        not isinstance(payload, dict)
        or payload.get("kind") != "experiment_checkpoint"
    ):
        raise ServiceError(
            f"{str(path)!r} is not an experiment checkpoint"
        )
    return payload


def run_with_checkpoints(
    scenario: Scenario,
    *,
    every_days: float,
    directory: str | Path,
):
    """Run a scenario, checkpointing every ``every_days`` simulated
    days; returns ``(RunResult, [checkpoint paths])``.

    Checkpoints land at ``directory/checkpoint_day_<D>.pkl``.  The
    final result is identical to an uninterrupted
    :func:`repro.api.envelope.run_scenario`.
    """
    import time

    from repro.api.envelope import RunResult

    if every_days <= 0:
        raise ServiceError("checkpoint interval must be positive")
    directory = Path(directory)
    started = time.perf_counter()
    experiment = Experiment.from_scenario(scenario)
    experiment.start_measurement()
    horizon = experiment.config.duration_days
    paths: list[Path] = []
    day = every_days
    while day < horizon:
        experiment.advance_to_day(day)
        paths.append(
            save_experiment_checkpoint(
                experiment,
                directory / f"checkpoint_day_{day:g}.pkl",
                scenario=scenario,
                completed_day=day,
            )
        )
        day += every_days
    result = experiment.finish_measurement()
    elapsed = time.perf_counter() - started
    return (
        RunResult.from_experiment(scenario, result, elapsed),
        paths,
    )


def resume_run(path: str | Path):
    """Resume a checkpointed run to its horizon; returns a
    :class:`~repro.api.envelope.RunResult` whose analysis fingerprint
    matches the uninterrupted run's."""
    import time

    from repro.api.envelope import RunResult

    payload = load_experiment_checkpoint(path)
    experiment: Experiment = payload["experiment"]
    scenario = payload["scenario"]
    started = time.perf_counter()
    result = experiment.finish_measurement()
    elapsed = time.perf_counter() - started
    if scenario is None:
        scenario = Scenario(
            name="resumed",
            config=experiment.config,
            leak_plan=experiment.leak_plan,
            description="resumed from a checkpoint without a scenario",
        )
    return RunResult.from_experiment(scenario, result, elapsed)


# ----------------------------------------------------------------------
# service checkpoints
# ----------------------------------------------------------------------


def write_service_checkpoint(
    path: str | Path, state: ServiceState
) -> Path:
    """Snapshot a service's classifier and WAL position."""
    state.flush()
    payload = {
        "kind": "service_checkpoint",
        "version": SERVICE_CHECKPOINT_VERSION,
        "wal_position": (
            state.wal.position if state.wal is not None else 0
        ),
        "classifier": state.classifier.to_dict(),
    }
    path = Path(path)
    _atomic_write_bytes(
        path, json.dumps(payload, sort_keys=True).encode()
    )
    return path


def load_service_checkpoint(path: str | Path) -> dict:
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise ServiceError(
            f"cannot read checkpoint {str(path)!r}: {exc}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise ServiceError(
            f"corrupt checkpoint {str(path)!r}: {exc}"
        ) from exc
    if payload.get("kind") != "service_checkpoint":
        raise ServiceError(
            f"{str(path)!r} is not a service checkpoint"
        )
    if payload.get("version") != SERVICE_CHECKPOINT_VERSION:
        raise ServiceError(
            f"checkpoint {str(path)!r} has version "
            f"{payload.get('version')!r}; this build reads "
            f"{SERVICE_CHECKPOINT_VERSION}"
        )
    return payload


def restore_service_state(
    wal_path: str | Path | None,
    checkpoint_path: str | Path | None,
) -> ServiceState:
    """Rebuild a service's state from its checkpoint + WAL tail.

    Order of operations on restart:

    1. load the checkpoint (if any) — the classifier resumes from the
       snapshot, which covers WAL lines ``[0, position)``;
    2. replay the WAL tail ``[position, end)`` without re-journaling;
    3. reopen the WAL in append mode so new events continue it.

    With no checkpoint the whole WAL is replayed; with no WAL the
    snapshot alone is the state.
    """
    from repro.service.wal import WriteAheadLog

    position = 0
    classifier = None
    if checkpoint_path is not None and Path(checkpoint_path).exists():
        payload = load_service_checkpoint(checkpoint_path)
        position = payload["wal_position"]
        classifier = OnlineClassifier.from_dict(payload["classifier"])
    state = ServiceState(classifier)
    if wal_path is not None:
        state.replay(replay_wal(wal_path, position))
        state.wal = WriteAheadLog(wal_path, resume=True)
        if position and state.wal.position < position:
            raise ServiceError(
                f"WAL {str(wal_path)!r} is shorter "
                f"({state.wal.position} lines) than the checkpoint's "
                f"position ({position}); refusing to resume from a "
                "truncated journal"
            )
    return state
