"""Live ingestion service: online classification of honey-account telemetry.

The batch pipeline (:mod:`repro.analysis`) answers "what happened"
after a run completes; this package answers it *while it happens*.
:func:`events_from_dataset` turns a run's telemetry into wire-format
JSON events, which a :class:`LiveFeed` delivers in batches to a
:class:`ServiceState`, which journals each request's events to a
:class:`WriteAheadLog` as one line and folds each of them once into
the :class:`OnlineClassifier`, whose rolling per-(account, cookie)
state also holds what the ``/stats`` dashboard reports.
:class:`ReproService` exposes all of that over a stdlib-only asyncio
HTTP API, and :mod:`repro.service.checkpoint` makes both the service
and a mid-horizon simulation restartable.

The contract that makes online mode trustworthy: after any event
prefix, :meth:`OnlineClassifier.classified` equals batch
``classify_accesses`` run on that same prefix — pinned by the parity
test gate.
"""

from repro.service.checkpoint import (
    load_experiment_checkpoint,
    load_service_checkpoint,
    restore_service_state,
    resume_run,
    run_with_checkpoints,
    save_experiment_checkpoint,
    write_service_checkpoint,
)
from repro.service.classifier import (
    OnlineClassifier,
    classification_fingerprint,
    ingest_all,
)
from repro.service.events import (
    events_from_dataset,
    meta_event,
    validate_event,
)
from repro.service.feed import LiveFeed
from repro.service.server import ReproService, run_service
from repro.service.state import ServiceState
from repro.service.wal import WriteAheadLog, replay_wal

__all__ = [
    "LiveFeed",
    "OnlineClassifier",
    "classification_fingerprint",
    "ReproService",
    "ServiceState",
    "WriteAheadLog",
    "events_from_dataset",
    "ingest_all",
    "load_experiment_checkpoint",
    "load_service_checkpoint",
    "meta_event",
    "replay_wal",
    "restore_service_state",
    "resume_run",
    "run_service",
    "run_with_checkpoints",
    "save_experiment_checkpoint",
    "validate_event",
    "write_service_checkpoint",
]
