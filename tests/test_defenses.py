"""The defender-side subsystem: registry, scenarios, engine, analysis.

The expensive end-to-end checks run on shortened windows; the
full-window defended equivalence and overhead gates live in
``benchmarks/bench_defenses.py`` (gated in CI).
"""

import hashlib
import json
from collections import Counter

import pytest

from _golden import analysis_fingerprint
from repro.analysis.defense import defense_report
from repro.api.registry import scenarios
from repro.api.scenario import Scenario
from repro.cli import main as cli_main, parse_defenses_spec
from repro.defenses import (
    BreachNotification,
    C3Service,
    Defense,
    DefenseRegistry,
    ResetPolicy,
    defense_from_dict,
    defenses,
    defenses_from_specs,
    register_defense,
)
from repro.errors import ConfigurationError
from repro.shard import dataset_mismatches, run_sharded


def _defended(days: float = 15.0, **c3_params) -> Scenario:
    params = {
        "check_period_days": 3.0,
        "hit_rate": 0.9,
        **c3_params,
    }
    return (
        scenarios.get("fast")
        .to_builder()
        .with_duration_days(days)
        .with_defenses(C3Service(**params), ResetPolicy(latency_days=0.5))
        .build()
    )


class TestRegistry:
    def test_builtins_are_registered(self):
        assert "c3" in defenses
        assert "breach_notification" in defenses
        assert "reset_policy" in defenses
        assert defenses.get("c3") is C3Service

    def test_unknown_name_lists_known_names(self):
        with pytest.raises(ConfigurationError) as excinfo:
            defenses.get("nope")
        message = str(excinfo.value)
        assert "nope" in message
        for name in defenses.names():
            assert name in message

    def test_duplicate_registration_needs_replace(self):
        registry = DefenseRegistry()
        registry.register(C3Service)
        with pytest.raises(ConfigurationError):
            registry.register(C3Service)
        registry.register(C3Service, replace=True)

    def test_register_defense_decorator(self):
        registry = DefenseRegistry()

        @register_defense(registry=registry)
        class Quota(Defense):
            name = "quota"
            summary = "sending-rate caps"

        assert registry.get("quota") is Quota
        assert "quota" not in defenses

    def test_nameless_defense_is_rejected(self):
        registry = DefenseRegistry()
        with pytest.raises(ConfigurationError):
            registry.register(Defense)


class TestSpecs:
    def test_round_trip_through_dict(self):
        defense = C3Service(check_period_days=3.5, coverage=0.7)
        assert defense_from_dict(defense.to_dict()) == defense

    def test_bare_name_uses_defaults(self):
        assert defense_from_dict("c3") == C3Service()

    def test_unknown_parameter_lists_known_parameters(self):
        with pytest.raises(ConfigurationError) as excinfo:
            defense_from_dict({"name": "c3", "cadence": 3})
        message = str(excinfo.value)
        assert "cadence" in message
        assert "check_period_days" in message

    def test_heterogeneous_spec_list(self):
        parsed = defenses_from_specs(
            [
                "c3",
                {"name": "reset_policy", "latency_days": 2.0},
                BreachNotification(),
            ]
        )
        assert parsed == (
            C3Service(),
            ResetPolicy(latency_days=2.0),
            BreachNotification(),
        )

    @pytest.mark.parametrize(
        "bad",
        [
            {"check_period_days": -1.0},
            {"coverage": 1.5},
            {"hit_rate": -0.1},
            {"bucket_fp_rate": 2.0},
        ],
    )
    def test_c3_parameter_validation(self, bad):
        with pytest.raises(ConfigurationError):
            C3Service(**bad)

    def test_builtin_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            BreachNotification(delay_median_days=0.0)
        with pytest.raises(ConfigurationError):
            ResetPolicy(releak_probability=1.5)


class TestScenarioIntegration:
    def test_scenario_json_round_trip_is_lossless(self):
        scenario = scenarios.get("defense_matrix")
        assert scenario.defenses
        restored = Scenario.from_json(scenario.to_json())
        assert restored == scenario
        assert restored.defenses == scenario.defenses

    def test_empty_defenses_stay_out_of_canonical_json(self):
        # Pre-defense sweep stores content-address the canonical JSON;
        # an always-present empty list would invalidate every address.
        payload = json.loads(scenarios.get("fast").to_json())
        assert "defenses" not in payload

    def test_unknown_defense_name_fails_at_construction(self):
        with pytest.raises(ConfigurationError) as excinfo:
            scenarios.get("fast").with_defenses("nope")
        assert "known defenses" in str(excinfo.value)

    def test_with_defenses_replaces_and_strips(self):
        defended = scenarios.get("fast").with_defenses("c3")
        assert defended.defenses == (C3Service(),)
        assert defended.with_defenses().defenses == ()

    def test_builder_adding_defense(self):
        scenario = (
            scenarios.get("fast")
            .to_builder()
            .with_defenses("c3")
            .adding_defense(ResetPolicy())
            .build()
        )
        assert scenario.defenses == (C3Service(), ResetPolicy())
        assert (
            scenario.to_builder().without_defenses().build().defenses == ()
        )

    def test_describe_names_the_defenses(self):
        description = scenarios.get("c3_defended").describe()
        assert "c3" in description

    def test_two_reset_policies_are_rejected_at_run(self):
        scenario = (
            scenarios.get("fast")
            .to_builder()
            .with_duration_days(5.0)
            .with_defenses(ResetPolicy(), ResetPolicy(latency_days=2.0))
            .build()
        )
        with pytest.raises(ConfigurationError):
            scenario.run(seed=1)


class TestEngineEndToEnd:
    @pytest.fixture(scope="class")
    def defended_run(self):
        return _defended().run(seed=2016)

    def test_defended_run_records_actions(self, defended_run):
        actions = set(defended_run.dataset.defense_store.values("action"))
        assert "check" in actions
        assert "detect" in actions
        assert "reset" in actions
        assert "prevented_login" in actions

    def test_prevented_logins_follow_resets(self, defended_run):
        rows = list(defended_run.dataset.defense_store.iter_rows())
        first_reset: dict[str, float] = {}
        for _, action, address, timestamp, _ in rows:
            if action == "reset":
                first_reset.setdefault(address, timestamp)
        assert first_reset
        for _, action, address, timestamp, _ in rows:
            if action == "prevented_login":
                assert timestamp >= first_reset[address]

    @pytest.fixture(scope="class")
    def baseline_run(self):
        return _defended().with_defenses().run(seed=2016)

    def test_defense_report_counts_match_rows(self, defended_run):
        report = defended_run.defense_report()
        actions = [
            action
            for _, action, _, _, _ in defended_run.dataset.defense_store.iter_rows()
        ]
        assert report.prevented_accesses == actions.count("prevented_login")
        assert report.resets == actions.count("reset")
        assert report.prevented_accesses > 0
        assert report.median_dwell_days is not None
        assert report.median_dwell_days >= 0.0
        assert report.has_defenses
        payload = report.to_dict()
        assert payload["prevented_accesses"] == report.prevented_accesses
        assert json.dumps(payload)  # JSON-serialisable

    def test_defense_report_is_pinned(self, defended_run, baseline_run):
        # sha256 of the sorted-key JSON report, recorded before the
        # report moved from record objects to store row tuples.
        def digest(report):
            payload = json.dumps(report.to_dict(), sort_keys=True)
            return hashlib.sha256(payload.encode()).hexdigest()

        assert digest(defended_run.defense_report()) == (
            "2007dd7e6631eb190b1ffc310f598f651160f8d8a85f0e219e429d8cc0a3ce62"
        )
        assert digest(defended_run.defense_report(baseline=baseline_run)) == (
            "5e6bbbe1b41912f0e32282829056ac0e6e545bbb114d1697f8804ecdb9e7442a"
        )

    def test_taxonomy_delta_against_undefended_baseline(
        self, defended_run, baseline_run
    ):
        report = defended_run.defense_report(baseline=baseline_run)
        assert report.taxonomy_delta is not None
        # A 15-day defended window must show suppressed access labels.
        assert sum(report.taxonomy_delta.values()) < 0

    def test_dataset_json_round_trip_keeps_defense_rows(self, defended_run):
        from repro.core.records import ObservedDataset

        restored = ObservedDataset.from_json_dict(
            defended_run.dataset.to_json_dict()
        )
        assert list(restored.defense_store.iter_rows()) == list(
            defended_run.dataset.defense_store.iter_rows()
        )

    def test_sharded_defended_run_is_bit_identical(self, defended_run):
        sharded = run_sharded(
            _defended().with_seed(2016), shards=3, jobs=1
        )
        mismatches = dataset_mismatches(
            defended_run.dataset, sharded.dataset
        )
        assert not mismatches, mismatches[:3]
        assert analysis_fingerprint(
            defended_run.analysis
        ) == analysis_fingerprint(sharded.analysis)
        assert defense_report(sharded.dataset).to_dict() == defense_report(
            defended_run.dataset
        ).to_dict()

    def test_shard_count_does_not_change_defense_rows(self, defended_run):
        other = run_sharded(_defended().with_seed(2016), shards=5, jobs=1)
        assert list(other.dataset.defense_store.iter_rows()) == list(
            defended_run.dataset.defense_store.iter_rows()
        )


class TestBreachNotification:
    def test_notification_drives_owner_resets(self):
        scenario = (
            scenarios.get("fast")
            .to_builder()
            .with_duration_days(20.0)
            .with_defenses(
                BreachNotification(
                    delay_median_days=3.0, delay_sigma=0.3, compliance=1.0
                ),
                ResetPolicy(latency_days=0.5),
            )
            .build()
        )
        run = scenario.run(seed=5)
        by_action = Counter(run.dataset.defense_store.values("action"))
        assert by_action.get("notify", 0) > 0
        assert by_action.get("reset", 0) > 0


class TestCli:
    def test_parse_defenses_spec_names(self):
        assert parse_defenses_spec("c3, reset_policy") == (
            C3Service(),
            ResetPolicy(),
        )

    def test_parse_defenses_spec_inline_json(self):
        spec = json.dumps(
            ["c3", {"name": "reset_policy", "latency_days": 2.0}]
        )
        assert parse_defenses_spec(spec) == (
            C3Service(),
            ResetPolicy(latency_days=2.0),
        )

    def test_parse_defenses_spec_file(self, tmp_path):
        path = tmp_path / "defenses.json"
        path.write_text(json.dumps([{"name": "c3", "coverage": 0.5}]))
        assert parse_defenses_spec(str(path)) == (C3Service(coverage=0.5),)

    def test_parse_defenses_spec_empty_strips(self):
        assert parse_defenses_spec("") == ()

    def test_defenses_command_lists_and_describes(self, capsys):
        assert cli_main(["defenses"]) == 0
        listing = capsys.readouterr().out
        for name in defenses.names():
            assert name in listing
        assert cli_main(["defenses", "c3"]) == 0
        assert "check_period_days" in capsys.readouterr().out

    def test_unknown_defense_exits_with_error(self, capsys):
        assert cli_main(["defenses", "nope"]) == 2
        assert "known defenses" in capsys.readouterr().err
