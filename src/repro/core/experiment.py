"""End-to-end experiment orchestration.

:class:`Experiment` reproduces the paper's full methodology on the
simulated ecosystem:

1. build the world (geo database, anonymity networks, webmail provider,
   Apps Script runtime, monitor, sinkhole, blacklist);
2. provision 100 instrumented honey accounts per the Table 1 leak plan;
3. leak credentials — pastes on paste sites, teaser threads on
   underground forums, sandbox logins on malware-infected VMs;
4. spawn the calibrated attacker population and the scripted case
   studies (blackmail campaign, quota notices, carding registration);
5. run the simulation for the 7-month measurement window;
6. assemble the :class:`~repro.core.records.ObservedDataset` from what
   the monitoring infrastructure actually collected.

Everything is driven by one master seed; two runs with the same seed and
config produce identical datasets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.attackers.casestudies import (
    BlackmailCampaign,
    CardingForumRegistration,
    deliver_quota_notice,
)
from repro.attackers.population import AttackerPopulation, PopulationConfig
from repro.core.groups import LeakPlan, OutletKind, paper_leak_plan
from repro.core.honeyaccount import HoneyAccount, HoneyAccountFactory
from repro.core.monitor import MonitorInfrastructure
from repro.core.records import AccountProvenance, ObservedDataset
from repro.core.sharding import (
    CASE_STUDY_GROUP,
    ShardSpec,
    pinned_account_count,
)
from repro.core.sinkhole import SINKHOLE_ADDRESS, SinkholeMailServer
from repro.defenses.engine import DefenseEngine
from repro.errors import ConfigurationError
from repro.leaks.formats import leak_content_for, render_paste
from repro.leaks.forums import UndergroundForum
from repro.leaks.malware import MalwareLeakChannel
from repro.leaks.outlet import LeakEvent, LeakLedger
from repro.leaks.pastesites import PasteSite
from repro.malwaresim.cnc import CncServer
from repro.malwaresim.prudent import PrudentPracticeGuard
from repro.malwaresim.samples import SampleLibrary
from repro.malwaresim.sandbox import Sandbox, SandboxConfig
from repro.malwaresim.webserver import DistributionWebServer
from repro.netsim.anonymity import AnonymityNetwork
from repro.netsim.blacklist import IPBlacklist
from repro.netsim.cities import city_by_name
from repro.netsim.geo import GeoDatabase
from repro.perf import PhaseTimer, capture_profile
from repro.sim.clock import days, hours, minutes
from repro.sim.engine import Simulator
from repro.sim.rng import SeedSequence
from repro.webmail.appsscript import AppsScriptRuntime
from repro.webmail.service import WebmailService

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.attackers.personas import PersonaMix


@dataclass(frozen=True)
class ExperimentConfig:
    """Experiment-level knobs.

    The defaults reproduce the paper's setup; ``fast()`` relaxes the
    monitoring cadences (which barely affect the analysis) so tests and
    benchmarks run quickly.
    """

    master_seed: int = 2016
    duration_days: float = 236.0  # 2015-06-25 .. 2016-02-16
    monitor_city_name: str = "Reading"
    scan_period: float = minutes(10)
    scrape_period: float = hours(2)
    emails_per_account: tuple[int, int] = (150, 250)
    quota_case_study_accounts: int = 2
    enable_case_studies: bool = True
    population: PopulationConfig = field(default_factory=PopulationConfig)

    def __post_init__(self) -> None:
        if self.duration_days <= 0:
            raise ConfigurationError("duration_days must be positive")
        if self.scan_period <= 0 or self.scrape_period <= 0:
            raise ConfigurationError("periods must be positive")
        if len(self.emails_per_account) != 2:
            raise ConfigurationError(
                "emails_per_account must be a (low, high) pair"
            )
        low, high = self.emails_per_account
        if low < 1 or high < 1:
            raise ConfigurationError(
                "emails_per_account bounds must be positive"
            )
        if low > high:
            raise ConfigurationError(
                "emails_per_account low bound exceeds high bound"
            )

    @classmethod
    def fast(cls, master_seed: int = 2016) -> "ExperimentConfig":
        """A configuration tuned for test/benchmark wall-clock time."""
        return cls(
            master_seed=master_seed,
            scan_period=hours(2),
            scrape_period=hours(3),
            emails_per_account=(60, 100),
        )


@dataclass
class ExperimentResult:
    """Everything a finished run exposes.

    ``blacklisted_ips`` plays the role of the Spamhaus lookup the paper
    ran over every observed IP at analysis time: it is reputation data
    external to the honey measurement itself.

    ``perf`` holds the per-phase wall-clock breakdown of the run
    (``build`` / ``provision`` / ``leak`` / ``case_studies`` /
    ``simulate`` / ``assemble`` seconds) collected by the
    :class:`repro.perf.PhaseTimer` that :meth:`Experiment.
    start_measurement` starts and :meth:`Experiment.finish_measurement`
    reads, checkpointed or not; sweeps read run costs from it without
    re-running benchmarks.
    """

    dataset: ObservedDataset
    honey_accounts: list[HoneyAccount]
    ledger: LeakLedger
    config: ExperimentConfig
    events_executed: int
    blacklisted_ips: set[str] = field(default_factory=set)
    perf: dict[str, float] = field(default_factory=dict)
    #: RSS high-water mark (kB) at the end of each run phase, from the
    #: same :class:`~repro.perf.PhaseTimer`; spilled runs use it to
    #: show what spilling saves.
    rss_kb: dict[str, int] = field(default_factory=dict)
    #: All account addresses in provision (= watch) order.  In a
    #: sharded run every shard provisions the full population, so this
    #: is identical across shards and gives the merge step the global
    #: interleaving order.
    all_addresses: tuple[str, ...] = ()
    #: Addresses this process actually observed (equal to
    #: ``all_addresses`` for unsharded runs; possibly empty for a
    #: surplus shard).  ``None`` only for results built before sharding
    #: existed — e.g. direct test construction.
    owned_addresses: tuple[str, ...] | None = None

    @property
    def account_count(self) -> int:
        if self.owned_addresses is not None:
            return len(self.owned_addresses)
        return len(self.honey_accounts)


class Experiment:
    """Builds the world and runs the measurement once.

    Construction only records the configuration; the simulated world
    (geo database, provider, monitor, attacker population, ...) is
    created by :meth:`build`.  The split lets callers — in particular
    :class:`repro.api.Scenario` — inspect or override components after
    the world exists but before anything is scheduled::

        experiment = Experiment(config).build()
        experiment.monitor.register_monitor_ip(extra_probe_ip)
        result = experiment.run()

    Every stage method calls :meth:`build` on demand, so plain
    ``Experiment(config).run()`` keeps working unchanged.
    """

    def __init__(
        self,
        config: ExperimentConfig | None = None,
        leak_plan: LeakPlan | None = None,
        persona_mix: "PersonaMix | None" = None,
        shard: ShardSpec | None = None,
        spill_dir: str | Path | None = None,
        chunk_rows: int | None = None,
        defenses: tuple = (),
    ) -> None:
        self.config = config or ExperimentConfig()
        self.leak_plan = leak_plan or paper_leak_plan()
        #: Which attacker personas each outlet attracts; ``None`` keeps
        #: the population's default (the paper's calibrated mix).
        self.persona_mix = persona_mix
        #: Defender-side mechanisms (:mod:`repro.defenses`) active
        #: during the run; empty means the pre-defense instruction
        #: stream executes unchanged.
        self.defenses = tuple(defenses)
        self.defense_engine: DefenseEngine | None = None
        #: Where the monitor's telemetry stores spill chunked columns
        #: (``chunk_rows`` rows per chunk); ``None`` keeps every store
        #: resident in RAM.
        self.spill_dir = spill_dir
        self.chunk_rows = chunk_rows
        #: When set, this process simulates only the accounts the shard
        #: owns: every account is still provisioned (and every attacker
        #: profile drawn) so the RNG streams match the serial run, but
        #: scan scripts, scraping, attacker visits and case studies run
        #: only for owned accounts.  ``None`` (or a one-shard spec) is
        #: the ordinary serial run.
        self.shard = shard
        self.honey_accounts: list[HoneyAccount] = []
        #: The accounts this process observes, in provision order:
        #: every honey account in a serial run, the shard's own ones in
        #: a sharded run.
        self.owned_accounts: list[HoneyAccount] = []
        self._owned_set: set[str] = set()
        self.blackmail: BlackmailCampaign | None = None
        self.carding: CardingForumRegistration | None = None
        self._quota_notified: set[str] = set()
        self._provisioned = False
        self._leaked = False
        self._built = False
        self._build_seconds = 0.0
        self._measuring = False
        self._timer: PhaseTimer | None = None
        self._events_executed = 0
        # World components; populated by build().
        self._seeds: SeedSequence | None = None
        self.sim: Simulator | None = None
        self.geo: GeoDatabase | None = None
        self.anonymity: AnonymityNetwork | None = None
        self.blacklist: IPBlacklist | None = None
        self.service: WebmailService | None = None
        self.sinkhole: SinkholeMailServer | None = None
        self.monitor: MonitorInfrastructure | None = None
        self.runtime: AppsScriptRuntime | None = None
        self.ledger: LeakLedger | None = None
        self.population: AttackerPopulation | None = None

    @classmethod
    def from_scenario(
        cls,
        scenario,
        seed: int | None = None,
        *,
        shard: ShardSpec | None = None,
        spill_dir: str | Path | None = None,
        chunk_rows: int | None = None,
    ) -> "Experiment":
        """Instantiate from a :class:`repro.api.Scenario`.

        ``seed`` overrides the scenario's master seed when given;
        ``shard`` restricts the run to one shard of the account
        population (see :mod:`repro.shard`); ``spill_dir`` makes the
        telemetry stores spill chunked columns under that directory.
        The directory deliberately lives outside the scenario itself:
        it changes where bytes sit, not what is measured, so scenario
        hashes — and the sweep result cache keyed on them — are
        unaffected.
        """
        if seed is not None:
            scenario = scenario.with_seed(seed)
        return cls(
            config=scenario.config,
            leak_plan=scenario.leak_plan,
            persona_mix=getattr(scenario, "persona_mix", None),
            shard=shard,
            spill_dir=spill_dir,
            chunk_rows=chunk_rows,
            defenses=getattr(scenario, "defenses", ()),
        )

    @property
    def is_built(self) -> bool:
        return self._built

    @property
    def _shard_is_serial(self) -> bool:
        return self.shard is None or self.shard.is_serial

    def build(self) -> "Experiment":
        """Construct the simulated world (step 1).  Idempotent."""
        if self._built:
            return self
        build_started = time.perf_counter()
        seeds = SeedSequence(self.config.master_seed)
        self._seeds = seeds
        self.sim = Simulator()
        self.geo = GeoDatabase(seeds.rng("geo"))
        self.anonymity = AnonymityNetwork(self.geo, seeds.rng("anonymity"))
        self.blacklist = IPBlacklist()
        self.service = WebmailService(self.geo, seeds.rng("service"))
        self.sinkhole = SinkholeMailServer()
        self.service.router.register_sink(SINKHOLE_ADDRESS, self.sinkhole)
        self.monitor = MonitorInfrastructure(
            self.sim,
            self.service,
            self.geo,
            city_by_name(self.config.monitor_city_name),
            scrape_period=self.config.scrape_period,
        )
        if self.spill_dir is not None:
            # Before provisioning: a store only spills while empty.
            self.monitor.configure_spill(
                self.spill_dir, chunk_rows=self.chunk_rows
            )
        self.runtime = AppsScriptRuntime(
            self.sim, quota_notifier=self._on_quota_trip
        )
        self.ledger = LeakLedger()
        self.population = AttackerPopulation(
            sim=self.sim,
            service=self.service,
            geo=self.geo,
            anonymity=self.anonymity,
            rng=seeds.rng("population"),
            config=self.config.population,
            persona_mix=self.persona_mix,
            blacklist_registrar=self._register_infected_ip,
            # Sharded runs draw every agent but schedule only their
            # own; the ownership set is filled during provisioning,
            # which always precedes leaking (and thus spawning).
            schedule_filter=(
                None
                if self._shard_is_serial
                else self._owned_set.__contains__
            ),
        )
        self._built = True
        # Recorded here, not around the run()-phase call: callers (the
        # scenario API in particular) usually build before run(), which
        # would otherwise time an idempotent no-op as the build phase.
        self._build_seconds = time.perf_counter() - build_started
        return self

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def _register_infected_ip(self, ip) -> None:
        self.blacklist.list_address(
            ip, reason="malware-infected host", listed_at=self.sim.now
        )

    def _on_quota_trip(self, account_address: str, now: float) -> None:
        """Provider notice lands in the honey inbox (once per account)."""
        if account_address in self._quota_notified:
            return
        self._quota_notified.add(account_address)
        deliver_quota_notice(self.service, account_address, now)

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def provision_accounts(self) -> list[HoneyAccount]:
        """Create and instrument all honey accounts (step 2)."""
        if self._provisioned:
            return self.honey_accounts
        self.build()
        factory = HoneyAccountFactory(
            self.service,
            self.runtime,
            self.monitor.notification_sink,
            self._seeds.rng("provisioning"),
            emails_per_account=self.config.emails_per_account,
            scan_period=self.config.scan_period,
        )
        quota_budget = self.config.quota_case_study_accounts
        # The Section 4.7 case studies couple the leading block of
        # paste_popular_noloc accounts to each other (one blackmail
        # campaign walks them in order); a sharded run pins that block
        # to shard 0 so the campaign's RNG stream replays unbroken.
        pinned_budget = (
            pinned_account_count(self.config.quota_case_study_accounts)
            if self.config.enable_case_studies
            else 0
        )
        for group in self.leak_plan.groups:
            for index in range(group.size):
                # The quota case study: a couple of paste-group accounts
                # carry a heavier script that trips the daily quota.
                # A heavy script exceeds the daily quota after a couple of
                # runs: the provider notice email arrives, and monitoring
                # still reports during the first runs of each day.
                heavy = (
                    self.config.enable_case_studies
                    and quota_budget > 0
                    and group.name == "paste_popular_noloc"
                )
                cost = 40.0 if heavy else 0.005
                if heavy:
                    quota_budget -= 1
                pinned = (
                    group.name == CASE_STUDY_GROUP and index < pinned_budget
                )
                # Provision first (the address is minted here), then
                # decide ownership from the address; installing the
                # scan trigger afterwards is draw-free and preserves
                # install order, so the serial path is unchanged.
                honey = factory.provision(
                    group, script_execution_cost=cost, observe=False
                )
                self.honey_accounts.append(honey)
                owned = self._shard_is_serial or self.shard.owns(
                    honey.address, pinned=pinned
                )
                if owned:
                    factory.install_script(honey)
                    self.owned_accounts.append(honey)
                    self._owned_set.add(honey.address)
                    self.monitor.watch(
                        honey.address, honey.leaked_credentials.password
                    )
        self._provisioned = True
        return self.honey_accounts

    def leak_credentials(self) -> LeakLedger:
        """Leak every group on its outlet (step 3).  Idempotent: a
        second call (e.g. from :meth:`schedule_defenses`, which needs
        the leak times) must not re-publish any leak."""
        if self._leaked:
            return self.ledger
        if not self._provisioned:
            self.provision_accounts()
        by_group: dict[str, list[HoneyAccount]] = {}
        for honey in self.honey_accounts:
            by_group.setdefault(honey.group.name, []).append(honey)
        for group in self.leak_plan.groups:
            accounts = by_group[group.name]
            if group.outlet is OutletKind.PASTE:
                self._leak_on_paste_sites(group.venues, accounts)
            elif group.outlet is OutletKind.FORUM:
                self._leak_on_forums(group.venues, accounts)
            else:
                self._leak_via_malware(accounts)
        self._leaked = True
        return self.ledger

    def _leak_on_paste_sites(self, venues, accounts) -> None:
        rng = self._seeds.rng("leak", "paste")
        for venue in venues:
            site = PasteSite.from_name(venue)
            contents = [
                leak_content_for(
                    h.identity, h.leaked_credentials, h.group.location_hint
                )
                for h in accounts
            ]
            publish_time = days(rng.uniform(0.0, 2.0))
            site.publish(
                render_paste(contents),
                tuple(h.address for h in accounts),
                publish_time,
            )
            for honey, content in zip(accounts, contents):
                event = LeakEvent(
                    content=content,
                    group=honey.group,
                    venue=venue,
                    leak_time=publish_time,
                )
                self.ledger.record(event)
                self.population.spawn_for_leak(
                    event, honey.leaked_credentials.password
                )

    def _leak_on_forums(self, venues, accounts) -> None:
        rng = self._seeds.rng("leak", "forum")
        for venue in venues:
            forum = UndergroundForum.from_name(venue)
            poster = f"freshseller{rng.randrange(100, 999)}"
            forum.register(poster)
            contents = [
                leak_content_for(
                    h.identity, h.leaked_credentials, h.group.location_hint
                )
                for h in accounts
            ]
            publish_time = days(rng.uniform(0.0, 3.0))
            post = forum.post_teaser(
                poster,
                render_paste(contents, teaser=True),
                tuple(h.address for h in accounts),
                publish_time,
            )
            forum.generate_inquiries(post, rng)
            for honey, content in zip(accounts, contents):
                event = LeakEvent(
                    content=content,
                    group=honey.group,
                    venue=venue,
                    leak_time=publish_time,
                )
                self.ledger.record(event)
                self.population.spawn_for_leak(
                    event, honey.leaked_credentials.password
                )

    def _leak_via_malware(self, accounts) -> None:
        """Run the sandbox campaign that exposes credentials to malware."""
        rng = self._seeds.rng("leak", "malware")
        botmasters = [
            CncServer(
                hostname=f"cnc{i}.badnet.example",
                family="zeus" if i % 3 else "corebot",
                is_alive=(i % 4 != 3),  # a quarter of C&Cs are dead
                botmaster_id=f"botmaster-{i}",
            )
            for i in range(8)
        ]
        library = SampleLibrary(rng)
        library.build_default_population(botmasters)
        webserver = DistributionWebServer(rng=rng)
        webserver.load_samples(library.liveness_prefilter())
        webserver.load_credentials(
            [h.leaked_credentials for h in accounts]
        )
        sandbox = Sandbox(
            service=self.service,
            webserver=webserver,
            guard=PrudentPracticeGuard(),
            geo=self.geo,
            host_city=self.monitor.monitor_city,
            rng=rng,
            config=SandboxConfig(),
        )
        # Sandbox logins are infrastructure accesses; exclude them.
        self.monitor.register_monitor_ip(sandbox.host_ip)
        channel = MalwareLeakChannel(self.ledger)
        runs = sandbox.run_campaign(start_time=hours(1.0))
        by_address = {h.address: h for h in accounts}
        for run in runs:
            honey = by_address[run.credential.address]
            content = leak_content_for(
                honey.identity,
                honey.leaked_credentials,
                honey.group.location_hint,
            )
            event = channel.process_sandbox_run(run, content, honey.group)
            if event is not None:
                self.population.spawn_for_leak(
                    event, honey.leaked_credentials.password
                )

    def schedule_case_studies(self) -> None:
        """Wire the Section 4.7 case studies (step 4).

        In a sharded run the case studies execute only on shard 0 —
        their target accounts are pinned there (see
        :mod:`repro.core.sharding`), and their RNG streams are private,
        so the other shards skip them without perturbing any draw.
        """
        if not self.config.enable_case_studies:
            return
        if self.shard is not None and self.shard.index != 0:
            return
        self.build()
        paste_accounts = [
            h
            for h in self.honey_accounts
            if h.group.name == "paste_popular_noloc"
        ]
        self.blackmail = BlackmailCampaign(
            sim=self.sim,
            service=self.service,
            geo=self.geo,
            rng=self._seeds.rng("casestudy", "blackmail"),
        )
        # Skip the quota-case-study accounts (their heavy scripts report
        # only during the first runs of each day) so the blackmail drafts
        # are reliably picked up by monitoring.  The blackmailer gets a
        # pool of candidates and uses the first three still accessible.
        start = self.config.quota_case_study_accounts
        for honey in paste_accounts[start:start + 8]:
            self.blackmail.target(
                honey.address, honey.leaked_credentials.password
            )
        self.blackmail.schedule()
        self.carding = CardingForumRegistration(
            sim=self.sim, service=self.service
        )
        if len(paste_accounts) > start + 8:
            self.carding.schedule(paste_accounts[start + 8].address)

    def schedule_defenses(self) -> None:
        """Plan and schedule the scenario's defenses (defender side of
        step 4).  Idempotent; a no-op for an empty defense list, which
        is the bit-identical defenses-off guarantee.

        Unlike the case studies this is *not* gated to shard 0: defense
        timelines are per-account (derived RNG streams keyed on the
        account address), so each shard schedules exactly its owned
        accounts' triggers and the merged telemetry matches the serial
        run row for row.
        """
        if not self.defenses or self.defense_engine is not None:
            return
        self.leak_credentials()
        engine = DefenseEngine(
            self.defenses,
            master_seed=self.config.master_seed,
            sim=self.sim,
            service=self.service,
            monitor=self.monitor,
            population=self.population,
            horizon=days(self.config.duration_days),
        )
        for honey in self.owned_accounts:
            leak_time = self.ledger.first_leak_time(honey.address)
            engine.schedule_account(
                honey.address,
                leak_time if leak_time is not None else float("inf"),
            )
        self.defense_engine = engine

    # ------------------------------------------------------------------
    # run
    # ------------------------------------------------------------------
    def run(self, *, profile_path: str | None = None) -> ExperimentResult:
        """Execute the full measurement and assemble the dataset:
        :meth:`start_measurement`, then :meth:`finish_measurement`.

        Args:
            profile_path: when set, a :mod:`cProfile` capture of the
                simulation loop (only — setup and assembly are excluded)
                is dumped to this path in ``pstats`` format.
        """
        self.start_measurement()
        return self.finish_measurement(profile_path=profile_path)

    # ------------------------------------------------------------------
    # incremental measurement (checkpointable runs)
    # ------------------------------------------------------------------
    def start_measurement(self) -> None:
        """Set up everything and start monitoring, without advancing
        simulated time.

        :meth:`run` is this followed by :meth:`finish_measurement`;
        calling :meth:`advance_to_day` in between hands control back
        between advances so a caller can pickle the whole experiment
        mid-horizon (:mod:`repro.service.checkpoint`).  Every stage is
        timed into one :class:`~repro.perf.PhaseTimer` that travels
        with the experiment, so a checkpointed run reports the same
        phases as an uninterrupted one.  Idempotent.
        """
        if self._measuring:
            return
        timer = self._timer = PhaseTimer(track_rss=True)
        with timer.phase("build"):
            self.build()
        with timer.phase("provision"):
            self.provision_accounts()
        with timer.phase("leak"):
            self.leak_credentials()
        with timer.phase("case_studies"):
            self.schedule_case_studies()
            self.schedule_defenses()
            self.monitor.start()
        self._measuring = True

    def advance_to_day(self, day: float) -> int:
        """Advance the measurement to ``day`` (cumulative); returns the
        events executed so far across all advances.

        Scan ticks that passed idle (up to and including ``day``) count
        as executed, so the total reads as if every trigger fired.
        """
        self.start_measurement()
        with self._timer.phase("simulate"):
            skipped = self.runtime.ticks_skipped
            fired = self.sim.run_until(days(day))
            self._events_executed += (
                fired + self.runtime.ticks_skipped - skipped
            )
        return self._events_executed

    def finish_measurement(
        self, *, profile_path: str | None = None
    ) -> ExperimentResult:
        """Advance to the configured horizon and assemble the dataset.

        The result is identical to :meth:`run`'s for the same config
        and seed, however many advance/pickle/resume cycles happened in
        between.  ``profile_path`` profiles this last advance, as in
        :meth:`run`.
        """
        self.start_measurement()
        with capture_profile(profile_path):
            self.advance_to_day(self.config.duration_days)
        timer = self._timer
        with timer.phase("assemble"):
            self.monitor.stop()
            dataset = self._assemble_dataset()
        self._measuring = False
        perf = timer.summary()
        # When the world was built before the timed build phase (the
        # scenario API path), that phase was an idempotent no-op;
        # report the real construction cost recorded by build() itself.
        perf["build"] = round(self._build_seconds, 6)
        return ExperimentResult(
            dataset=dataset,
            honey_accounts=self.honey_accounts,
            ledger=self.ledger,
            config=self.config,
            events_executed=self._events_executed,
            blacklisted_ips={
                str(entry.address) for entry in self.blacklist
            },
            perf=perf,
            rss_kb=timer.rss_kb,
            all_addresses=tuple(h.address for h in self.honey_accounts),
            owned_addresses=tuple(h.address for h in self.owned_accounts),
        )

    def _assemble_dataset(self) -> ObservedDataset:
        # Zero-copy handoff: the monitor's columnar telemetry stores
        # become the dataset's backing storage.
        dataset = ObservedDataset.from_streams(
            access_store=self.monitor.access_store,
            notification_store=self.monitor.notification_store,
            failure_log=self.monitor.failure_log,
            defense_store=self.monitor.defense_store,
        )
        dataset.monitor_ips = set(self.monitor.monitor_ip_strings)
        dataset.monitor_city = self.monitor.monitor_city.name
        for honey in self.owned_accounts:
            leak_time = self.ledger.first_leak_time(honey.address)
            dataset.provenance[honey.address] = AccountProvenance(
                address=honey.address,
                group=honey.group,
                leak_time=leak_time if leak_time is not None else 0.0,
            )
            dataset.all_email_texts[honey.address] = [
                m.text
                for m in honey.account.mailbox.all_messages()
                if m.received_at < 0  # seeded history only
            ]
        for honey in self.owned_accounts:
            if honey.account.is_blocked:
                dataset.blocked_accounts.append(
                    (honey.address, honey.account.blocked_at or 0.0)
                )
        dataset.ground_truth_personas = self._ground_truth_personas()
        return dataset

    def _ground_truth_personas(self) -> dict[tuple[str, str], tuple[str, ...]]:
        """Map (account, cookie) -> the personas that actually drove it.

        Researchers own every simulated actor, so per-access ground
        truth is free: population agents carry their persona combo, and
        the scripted case studies get ``case_study:*`` labels — which
        are deliberately *not* registered personas, so the analysis
        layer's signature table reports them in its ``other`` bucket.
        """
        minted = self.service.sessions.all_minted_cookies()
        truth: dict[tuple[str, str], tuple[str, ...]] = {}
        for agent in self.population.agents:
            for cookie in minted.get(
                (agent.device_id, agent.account_address), ()
            ):
                truth[(agent.account_address, str(cookie))] = (
                    agent.profile.persona_names
                )
        for (device_id, address), cookies in minted.items():
            if device_id == "blackmailer-rig":
                labels = ("case_study:blackmail",)
            elif device_id.startswith("draft-reader-"):
                labels = ("case_study:draft_reader",)
            else:
                continue
            for cookie in cookies:
                truth[(address, str(cookie))] = labels
        return truth

