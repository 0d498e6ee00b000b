"""Cross-cutting invariants: determinism, ethics, observed-data hygiene."""

from repro.core.experiment import Experiment, ExperimentConfig
from repro.core.groups import OutletKind
from repro.sim.clock import days
from repro.webmail.smtp import DeliveryOutcome


class TestDeterminism:
    def test_same_seed_same_dataset(self):
        def run(seed):
            config = ExperimentConfig.fast(master_seed=seed)
            config = ExperimentConfig(
                master_seed=seed,
                duration_days=40.0,
                scan_period=config.scan_period,
                scrape_period=config.scrape_period,
                emails_per_account=(20, 30),
            )
            result = Experiment(config).run()
            dataset = result.dataset
            return (
                len(dataset.access_store),
                len(dataset.notification_store),
                tuple(sorted(dataset.access_store.values("cookie_id"))),
                tuple(sorted(dataset.blocked_accounts)),
            )

        assert run(123) == run(123)

    def test_different_seed_different_dataset(self):
        def run(seed):
            config = ExperimentConfig(
                master_seed=seed,
                duration_days=40.0,
                scan_period=ExperimentConfig.fast().scan_period,
                scrape_period=ExperimentConfig.fast().scrape_period,
                emails_per_account=(20, 30),
            )
            result = Experiment(config).run()
            return tuple(
                sorted(result.dataset.access_store.values("cookie_id"))
            )

        assert run(1) != run(2)


class TestEthicsInvariants:
    def test_no_outbound_mail_ever_delivered(self, experiment_result):
        """The paper's core safeguard: honey accounts cannot spam anyone."""
        # ExperimentResult does not expose the router directly; re-run a
        # short experiment and inspect the ledger.
        config = ExperimentConfig(
            master_seed=5,
            duration_days=60.0,
            scan_period=ExperimentConfig.fast().scan_period,
            scrape_period=ExperimentConfig.fast().scrape_period,
            emails_per_account=(20, 30),
        )
        experiment = Experiment(config)
        experiment.run()
        for sent in experiment.service.router.ledger:
            if experiment.service.has_account(sent.account_address):
                assert sent.outcome is not DeliveryOutcome.DELIVERED
        assert experiment.sinkhole.delivered_to_outside_world == 0

    def test_all_honey_mail_reaches_sinkhole(self):
        config = ExperimentConfig(
            master_seed=6,
            duration_days=60.0,
            scan_period=ExperimentConfig.fast().scan_period,
            scrape_period=ExperimentConfig.fast().scrape_period,
            emails_per_account=(20, 30),
        )
        experiment = Experiment(config)
        experiment.run()
        sinkholed = {
            s.account_address for s in experiment.sinkhole.dumped
        }
        honey = {h.address for h in experiment.honey_accounts}
        assert sinkholed <= honey


class TestObservedDataHygiene:
    def test_monitor_rows_removed_by_cleaning(
        self, experiment_result, analysis
    ):
        dataset = experiment_result.dataset
        monitor_rows = [
            ip
            for ip in dataset.access_store.values("ip_address")
            if ip in dataset.monitor_ips
        ]
        assert monitor_rows, "raw dataset must contain scraper logins"
        for access in analysis.unique_accesses:
            assert not (
                set(access.ip_addresses) & dataset.monitor_ips
            )

    def test_provenance_covers_all_accounts(self, experiment_result):
        assert len(experiment_result.dataset.provenance) == 100

    def test_leak_plan_sizes(self, experiment_result):
        by_outlet = {}
        for provenance in experiment_result.dataset.provenance.values():
            outlet = provenance.group.outlet
            by_outlet[outlet] = by_outlet.get(outlet, 0) + 1
        assert by_outlet[OutletKind.PASTE] == 50
        assert by_outlet[OutletKind.FORUM] == 30
        assert by_outlet[OutletKind.MALWARE] == 20

    def test_all_accounts_seeded_with_history(self, experiment_result):
        for texts in experiment_result.dataset.all_email_texts.values():
            assert len(texts) >= 20

    def test_leak_times_recorded(self, experiment_result):
        for provenance in experiment_result.dataset.provenance.values():
            assert 0.0 <= provenance.leak_time < days(10)

    def test_hijack_stops_scraping_but_not_notifications(
        self, experiment_result, analysis
    ):
        """The paper's key observation about password changes."""
        dataset = experiment_result.dataset
        if not dataset.failure_log:
            return
        address, lockout_time = dataset.failure_log.row(0)
        store = dataset.access_store
        later_rows = [
            timestamp
            for account, timestamp in zip(
                store.values("account_address"), store.values("timestamp")
            )
            if account == address and timestamp > lockout_time
        ]
        assert later_rows == []
