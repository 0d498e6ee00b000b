"""Deterministic fault injection, retries, and supervised execution.

Three pieces, used together by the chaos suite and independently by
the layers they harden:

* :mod:`repro.faults.plan` — :class:`FaultPlan`/:class:`FaultRule`
  (seeded, JSON-lossless fault descriptions), the :func:`fault_site`
  hook the library calls at its failure points, and the ``REPRO_FAULTS``
  environment channel that carries a plan into forked and subprocess
  children.
* :mod:`repro.faults.retry` — :class:`RetryPolicy` (bounded retries,
  exponential backoff, deterministic jitter) and its one instance,
  ``DEFAULT_IO_RETRY``, shared by sweeps, the live feed, and service
  IO.
* :mod:`repro.faults.supervise` — :func:`fan_out`, which runs a batch
  of tasks in this process or forks them under :func:`supervise_iter`,
  the fork-per-task supervision loop with wall-clock timeouts,
  heartbeat watchdogs, and kill-and-requeue.
"""

from repro.faults.plan import (
    FAULT_KINDS,
    FAULTS_ENV,
    FaultPlan,
    FaultRule,
    active_plan,
    deactivate_faults,
    fault_site,
    hang_active,
    reset_faults,
)
from repro.faults.retry import (
    DEFAULT_IO_RETRY,
    RetryPolicy,
)
from repro.faults.supervise import SupervisedOutcome, fan_out, supervise_iter

__all__ = [
    "FAULT_KINDS",
    "FAULTS_ENV",
    "FaultPlan",
    "FaultRule",
    "active_plan",
    "deactivate_faults",
    "fault_site",
    "hang_active",
    "reset_faults",
    "DEFAULT_IO_RETRY",
    "RetryPolicy",
    "SupervisedOutcome",
    "fan_out",
    "supervise_iter",
]
