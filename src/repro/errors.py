"""Exception hierarchy shared across the ``repro`` package.

Every subsystem raises subclasses of :class:`ReproError` so callers can
catch library failures without masking programming errors such as
``TypeError`` or ``KeyError`` raised by genuine bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class SimulationError(ReproError):
    """Raised for invalid operations on the discrete-event engine."""


class SchedulingError(SimulationError):
    """Raised when an event is scheduled in the past or on a closed engine."""


class WebmailError(ReproError):
    """Base class for webmail-service failures."""


class AuthenticationError(WebmailError):
    """Raised when a login attempt presents invalid credentials."""


class AccountBlockedError(WebmailError):
    """Raised when operating on an account suspended by anti-abuse."""

    def __init__(self, address: str, reason: str = "terms-of-service") -> None:
        super().__init__(f"account {address} is blocked ({reason})")
        self.address = address
        self.reason = reason


class NoSuchAccountError(WebmailError):
    """Raised when an operation references an unknown account address."""


class NoSuchMessageError(WebmailError):
    """Raised when an operation references an unknown message id."""


class SessionError(WebmailError):
    """Raised when a session token is invalid, expired, or revoked."""


class QuotaExceededError(WebmailError):
    """Raised when an Apps Script exceeds its execution-time quota."""


class LeakError(ReproError):
    """Raised for invalid leak-outlet operations."""


class SandboxError(ReproError):
    """Raised by the malware sandbox infrastructure."""


class AnalysisError(ReproError):
    """Raised when the analysis pipeline receives inconsistent data."""


class ConfigurationError(ReproError):
    """Raised when an experiment configuration is internally inconsistent."""


class SweepError(ReproError):
    """Raised when a strict sweep has cells that exhausted their retries."""


class ServiceError(ReproError):
    """Raised for live-service failures (ingest, WAL, checkpointing)."""


class ValidationError(ServiceError):
    """Raised when an ingested event does not match the wire schema.

    ``accepted`` counts the events of the same request that came before
    the invalid one; ``ServiceState.apply`` journals and applies those
    before it raises.
    """

    accepted = 0


class DegradedError(ServiceError):
    """Raised when the service cannot durably journal an event.

    The HTTP layer maps this to 503 so callers can back off and retry;
    the event that triggered it was **not** applied to state.
    """


class FaultInjectedError(ReproError):
    """Raised when a fault plan is malformed or a fault site cannot
    perform the injection it was asked for (never on the fault-free
    path)."""


class SupervisionError(ReproError):
    """Raised when a supervised worker exhausts its retry budget —
    crashed, hung, or timed out more times than the caller allowed."""
