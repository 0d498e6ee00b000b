"""Bounded retries with exponential backoff and deterministic jitter.

One policy object is shared by every layer that retries —
:class:`~repro.sweeps.manager.SweepManager` requeues, ``LiveFeed``
HTTP delivery, WAL appends, spill-chunk flushes, checkpoint writes —
so backoff behaviour is uniform and tunable in one place.

Jitter is deterministic: it is drawn from a hash of ``(seed, key,
attempt)`` rather than global RNG state, so a replayed run backs off
identically and retry schedules never perturb simulation RNG streams.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

from repro.errors import ConfigurationError


def _jitter_draw(seed: int, key: str, attempt: int) -> float:
    """Deterministic uniform draw in [0, 1) for one (key, attempt)."""
    digest = hashlib.blake2b(
        f"{seed}:{key}:{attempt}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2**64


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry, and how long to wait between tries.

    Attributes:
        attempts: total tries including the first (``attempts=3`` =
            one try plus up to two retries; ``attempts=1`` disables
            retrying).
        base_delay: backoff before the first retry, in seconds.
        multiplier: backoff growth factor per retry.
        max_delay: backoff ceiling, in seconds.
        jitter: fraction of the delay randomised away — the delay for
            retry *k* is ``d_k * (1 - jitter * u)`` with ``u`` drawn
            deterministically from ``(seed, key, k)``.
        seed: jitter stream seed.
    """

    attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ConfigurationError("attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ConfigurationError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ConfigurationError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError("jitter must be in [0, 1]")

    # ------------------------------------------------------------------
    # serialization (lossless, for journals and docs)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "attempts": self.attempts,
            "base_delay": self.base_delay,
            "multiplier": self.multiplier,
            "max_delay": self.max_delay,
            "jitter": self.jitter,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RetryPolicy":
        return cls(**data)

    # ------------------------------------------------------------------
    # schedule
    # ------------------------------------------------------------------
    def delay(self, attempt: int, *, key: str = "") -> float:
        """Backoff before retry ``attempt`` (1 = first retry), jittered
        deterministically by ``key`` so concurrent retriers spread out
        but a replayed run waits identically."""
        if attempt < 1:
            return 0.0
        raw = min(
            self.base_delay * self.multiplier ** (attempt - 1),
            self.max_delay,
        )
        if self.jitter == 0.0:
            return raw
        return raw * (
            1.0 - self.jitter * _jitter_draw(self.seed, key, attempt)
        )

    def call(
        self,
        fn,
        *,
        retry_on: tuple = (OSError, ConnectionError),
        key: str = "",
        on_retry=None,
        sleep=time.sleep,
    ):
        """Run ``fn()`` under this policy; the last failure propagates.

        Args:
            fn: zero-argument callable.
            retry_on: exception types worth retrying; anything else
                propagates immediately.
            key: jitter key — use a stable identity for the operation
                (a cell address, a WAL path) so concurrent retriers
                decorrelate.
            on_retry: callback ``(attempt, delay_seconds, exc)`` before
                each backoff sleep (journaling, logging).
            sleep: injection point for tests.
        """
        attempt = 0
        while True:
            try:
                return fn()
            except retry_on as exc:
                attempt += 1
                if attempt >= self.attempts:
                    raise
                pause = self.delay(attempt, key=key)
                if on_retry is not None:
                    on_retry(attempt, pause, exc)
                if pause > 0:
                    sleep(pause)


#: The one policy every retrying layer uses (WAL appends, feed POSTs,
#: sweep requeues and store writes, spill flushes, checkpoint writes):
#: three tries, ~50/100 ms backoffs — fast enough not to stall an
#: ingest loop, spaced enough to ride out transient EIO/ENOSPC blips.
DEFAULT_IO_RETRY = RetryPolicy()
