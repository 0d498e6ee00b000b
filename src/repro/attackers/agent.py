"""The attacker agent: schedules visits and steps behaviour policies.

One :class:`AttackerAgent` owns one :class:`AttackerProfile`, one target
account and one chain of :class:`~repro.attackers.personas.
BehaviorPolicy` objects.  It schedules its visits on the simulator; each
visit logs in through the public service API (leaving an activity-page
row), steps every policy in order, and — for visits longer than a few
minutes — re-authenticates near the end, which is what makes access
durations observable on the activity page, as cookies are observed at
each login.

The agent knows nothing about taxonomy classes: what happens inside the
account is entirely the policies' business, and every caller passes the
chain explicitly (the population builds it from the drawn personas).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

from repro.attackers.personas import BehaviorPolicy, VisitContext
from repro.attackers.sophistication import AttackerProfile
from repro.errors import ConfigurationError, WebmailError
from repro.netsim.anonymity import AnonymityNetwork, OriginKind
from repro.netsim.cities import city_by_name
from repro.netsim.geo import GeoDatabase
from repro.netsim.ipaddr import IPAddress
from repro.netsim.useragents import UserAgentFactory
from repro.sim.clock import minutes
from repro.sim.engine import Simulator
from repro.webmail.service import LoginContext, WebmailService
from repro.webmail.sessions import Session


@dataclass
class AgentOutcome:
    """Ground-truth trace of what this agent actually did (tests only)."""

    logins_attempted: int = 0
    logins_succeeded: int = 0
    emails_read: int = 0
    emails_sent: int = 0
    drafts_created: int = 0
    searches: list[str] = field(default_factory=list)
    hijacked: bool = False
    new_password: str | None = None


class AttackerAgent:
    """Executes one profile's visits against one honey account."""

    def __init__(
        self,
        profile: AttackerProfile,
        account_address: str,
        leaked_password: str,
        *,
        sim: Simulator,
        service: WebmailService,
        geo: GeoDatabase,
        anonymity: AnonymityNetwork,
        ua_factory: UserAgentFactory,
        rng: random.Random,
        policies: Sequence[BehaviorPolicy],
        blacklist_registrar=None,
        advertised_midpoint: tuple[float, float] | None = None,
    ) -> None:
        self.profile = profile
        self.account_address = account_address
        self._password = leaked_password
        self._sim = sim
        self._service = service
        self._geo = geo
        self._anonymity = anonymity
        self._rng = rng
        self._blacklist_registrar = blacklist_registrar
        self._advertised_midpoint = advertised_midpoint
        self.outcome = AgentOutcome()
        self._device_id = f"dev-{profile.attacker_id}"
        self._user_agent = self._pick_user_agent(ua_factory)
        self._source_ip: IPAddress | None = None
        self._policies: list[BehaviorPolicy] = list(policies)
        # Per-session constants, computed once: the connection identity
        # never changes between visits, and neither does the policy
        # chain, so the login context and the machine-paced flag are
        # visit-loop invariants.
        self._login_context: LoginContext | None = None
        self._visit_context: VisitContext | None = None
        self._machine_paced = all(p.machine_paced for p in self._policies)
        # Resolve the connection identity eagerly, at construction.
        # Construction order is fixed by the leak ledger (the population
        # spawns every agent in the same order in every process), so the
        # shared geo/anonymity streams are consumed identically whether
        # or not this particular agent is later scheduled — lazy
        # first-visit resolution would instead consume them in visit
        # order, which differs between a shard and the serial run.
        self._resolve_source_ip()

    @property
    def device_id(self) -> str:
        """The stable device identity cookies are minted against."""
        return self._device_id

    @property
    def policies(self) -> tuple[BehaviorPolicy, ...]:
        return tuple(self._policies)

    def adopt_password(self, new_password: str) -> None:
        """Switch the credential used for later visits (hijack move)."""
        self._password = new_password

    # ------------------------------------------------------------------
    # connection identity
    # ------------------------------------------------------------------
    def _pick_user_agent(self, factory: UserAgentFactory) -> str:
        if self.profile.hide_user_agent:
            return factory.empty()
        if self.profile.android_device:
            return factory.android()
        return factory.desktop()

    def _resolve_source_ip(self) -> IPAddress:
        """The agent's stable source address (per-device, reused)."""
        if self._source_ip is not None:
            return self._source_ip
        if self.profile.origin is not OriginKind.DIRECT:
            node = self._anonymity.pick(self.profile.origin)
            self._source_ip = node.address
            return self._source_ip
        if self.profile.origin_city is None:
            raise ConfigurationError(
                "direct connections need an origin city"
            )
        city = city_by_name(self.profile.origin_city)
        self._source_ip = self._geo.allocate_in_city(city)
        if self.profile.infected_host and self._blacklist_registrar:
            self._blacklist_registrar(self._source_ip)
        return self._source_ip

    def _login(self, now: float) -> Session | None:
        self.outcome.logins_attempted += 1
        context = self._login_context
        if context is None:
            context = self._login_context = LoginContext(
                device_id=self._device_id,
                ip_address=self._resolve_source_ip(),
                user_agent=self._user_agent,
            )
        try:
            session = self._service.login(
                self.account_address, self._password, context, now
            )
        except WebmailError:
            return None  # hijacked by someone else, or suspended
        self.outcome.logins_succeeded += 1
        account = self._service.account(self.account_address)
        self._service.abuse.observe_login_signal(
            account,
            blacklisted_ip=self.profile.infected_host,
            anonymised=self.profile.anonymised,
            now=now,
        )
        return session

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, first_visit_time: float, gaps: list[float]) -> None:
        """Schedule all visits on the simulator."""
        visit_time = first_visit_time
        self._schedule_visit(visit_time, is_first=True)
        for gap in gaps:
            visit_time += gap
            self._schedule_visit(visit_time, is_first=False)

    def _schedule_visit(self, at_time: float, *, is_first: bool) -> None:
        if at_time <= self._sim.now:
            at_time = self._sim.now + 1.0
        # partial, not a closure: scheduled callbacks must pickle for
        # simulation checkpointing (repro.service.checkpoint).
        self._sim.schedule_at(
            at_time,
            partial(self._visit, is_first=is_first),
            label=f"visit:{self.profile.attacker_id}",
        )

    # ------------------------------------------------------------------
    # one visit
    # ------------------------------------------------------------------
    def _visit(self, *, is_first: bool) -> None:
        now = self._sim.now
        session = self._login(now)
        if session is None:
            return
        profile = self.profile
        visit_length = minutes(self._rng.uniform(1.0, 35.0))
        context = self._visit_context
        if context is None:
            context = self._visit_context = VisitContext(
                agent=self,
                service=self._service,
                session=session,
                rng=self._rng,
                now=now,
                is_first=is_first,
            )
        else:
            context.session = session
            context.now = now
            context.is_first = is_first
        try:
            for policy in self._policies:
                policy.on_visit(context)
        except WebmailError:
            # The account was suspended mid-visit; the session died.
            # Skip the remaining policy steps but keep the re-login
            # schedule: the visit still happened.
            pass
        # Long visits re-authenticate near the end; the activity page then
        # shows the same cookie again, making the duration measurable.
        # Fully machine-paced agents (credential-stuffing probes) leave
        # after one login and never produce an observable duration.
        if self._machine_paced:
            return
        if visit_length > minutes(5):
            end_time = now + visit_length
            self._sim.schedule_at(
                end_time,
                partial(self._relogin, end_time),
                label=f"relogin:{profile.attacker_id}",
            )

    def _relogin(self, at_time: float) -> None:
        self._login(at_time)
