"""Login sessions and cookie identifiers.

The paper's unit of analysis is the *unique access*: "Google identifies
each access to a Gmail account with a cookie identifier".  A returning
device presents the same cookie, so repeated visits collapse into one
access whose duration is t_last − t0.  :class:`SessionManager` implements
that: cookies are minted per (device, account) pair and re-used on
subsequent logins from the same device.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import SessionError
from repro.sim.rng import derive_seed


@dataclass(frozen=True, slots=True)
class Cookie:
    """An opaque per-device-per-account cookie identifier."""

    value: str

    def __str__(self) -> str:
        return self.value


@dataclass(slots=True)
class Session:
    """A live login session bound to a cookie.

    Slotted: one session object is minted per login.
    """

    cookie: Cookie
    account_address: str
    started_at: float
    last_active_at: float
    session_id: int
    revoked: bool = False

    def touch(self, at_time: float) -> None:
        self.last_active_at = max(self.last_active_at, at_time)


@dataclass
class SessionManager:
    """Mints cookies and tracks sessions for the provider.

    Cookie values are a pure function of the manager's seed and the
    (device, account) pair — *not* of the order devices first log in.
    That order-independence is what lets a sharded run (each shard sees
    only its accounts' logins) mint exactly the cookies the unsharded
    run mints; see :mod:`repro.core.sharding`.
    """

    rng: random.Random
    _device_cookies: dict[tuple[str, str], Cookie] = field(
        default_factory=dict
    )
    _sessions: dict[int, Session] = field(default_factory=dict)
    _counter: itertools.count = field(
        default_factory=lambda: itertools.count(1)
    )
    _cookie_seed: int = field(init=False)
    #: Per-account cookie generation; bumped on forced resets so a
    #: returning device minting "again" gets a fresh identifier.
    _cookie_generations: dict[str, int] = field(default_factory=dict)
    #: Cookies invalidated by generation bumps, oldest first — kept so
    #: ground-truth attribution still covers pre-reset accesses.
    _retired_cookies: dict[tuple[str, str], list[Cookie]] = field(
        default_factory=dict
    )
    #: Called with the account address after every generation bump
    #: (the scraper's wake marks).  They must pickle, since checkpoints
    #: pickle the manager.
    _generation_hooks: list[Callable[[str], None]] = field(
        default_factory=list, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        # One draw at construction (a fixed point in the service build
        # sequence) anchors all minting; every cookie then derives from
        # this seed plus its own (device, account) path.
        self._cookie_seed = self.rng.getrandbits(64)

    def cookie_for(self, device_id: str, account_address: str) -> Cookie:
        """The stable cookie for a (device, account) pair, minting once."""
        key = (device_id, account_address)
        cookie = self._device_cookies.get(key)
        if cookie is None:
            # Generation 0 (the only generation unless a defense forced
            # a reset) derives from the exact path it always has, so
            # defenses-off runs mint byte-identical cookies; later
            # generations extend the path with the generation number.
            generation = self._cookie_generations.get(account_address, 0)
            if generation:
                seed = derive_seed(
                    self._cookie_seed,
                    device_id,
                    account_address,
                    str(generation),
                )
            else:
                seed = derive_seed(
                    self._cookie_seed, device_id, account_address
                )
            mint = random.Random(seed)
            token = "".join(
                mint.choice("abcdef0123456789") for _ in range(24)
            )
            cookie = Cookie(f"ck-{token}")
            self._device_cookies[key] = cookie
        return cookie

    def bump_cookie_generation(self, account_address: str) -> int:
        """Invalidate minted cookies on an account (forced reset).

        Cached cookies for the account are dropped, so every device —
        attacker or monitor — presents a fresh generation-``n``
        identifier on its next login; the activity page then shows the
        post-reset visits as new unique accesses, exactly as a real
        provider's cookie rotation would.  Returns the new generation.
        """
        generation = self._cookie_generations.get(account_address, 0) + 1
        self._cookie_generations[account_address] = generation
        for key in [
            key
            for key in self._device_cookies
            if key[1] == account_address
        ]:
            self._retired_cookies.setdefault(key, []).append(
                self._device_cookies.pop(key)
            )
        for hook in self._generation_hooks:
            hook(account_address)
        return generation

    def add_generation_hook(self, hook: Callable[[str], None]) -> None:
        """Call ``hook(address)`` after every future generation bump."""
        self._generation_hooks.append(hook)

    def all_minted_cookies(self) -> dict[tuple[str, str], tuple[Cookie, ...]]:
        """Every cookie ever minted per (device, account), oldest first.

        Unlike :meth:`minted_cookies` this includes generations retired
        by :meth:`bump_cookie_generation`, so ground-truth attribution
        covers accesses recorded before a forced reset."""
        combined: dict[tuple[str, str], tuple[Cookie, ...]] = {
            key: tuple(retired)
            for key, retired in self._retired_cookies.items()
        }
        for key, cookie in self._device_cookies.items():
            combined[key] = combined.get(key, ()) + (cookie,)
        return combined

    def minted_cookies(self) -> dict[tuple[str, str], Cookie]:
        """Every cookie minted so far, keyed by (device, account).

        Read-only snapshot for ground-truth attribution: researchers own
        the simulation, so mapping device identities back to cookies is
        legitimate measurement metadata (never visible to the analysis
        cleaning path, which only sees scraped rows).
        """
        return dict(self._device_cookies)

    def open_session(
        self, device_id: str, account_address: str, at_time: float
    ) -> Session:
        """Open a session for a device on an account."""
        cookie = self.cookie_for(device_id, account_address)
        session = Session(
            cookie=cookie,
            account_address=account_address,
            started_at=at_time,
            last_active_at=at_time,
            session_id=next(self._counter),
        )
        self._sessions[session.session_id] = session
        return session

    def get(self, session_id: int) -> Session:
        """Fetch a live session.

        Raises:
            SessionError: if unknown or revoked.
        """
        session = self._sessions.get(session_id)
        if session is None:
            raise SessionError(f"unknown session {session_id}")
        if session.revoked:
            raise SessionError(f"session {session_id} was revoked")
        return session

    def revoke(self, session_id: int) -> None:
        """Revoke one session (logout or enforcement)."""
        session = self._sessions.get(session_id)
        if session is not None:
            session.revoked = True

    def revoke_account_sessions(self, account_address: str) -> int:
        """Revoke all sessions on an account; returns how many."""
        revoked = 0
        for session in self._sessions.values():
            if session.account_address == account_address and not session.revoked:
                session.revoked = True
                revoked += 1
        return revoked

    def sessions_for(self, account_address: str) -> list[Session]:
        """All sessions (live and revoked) ever opened on an account."""
        return [
            s
            for s in self._sessions.values()
            if s.account_address == account_address
        ]
