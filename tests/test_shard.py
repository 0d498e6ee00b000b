"""Sharded runner: partitioning, merge, and the bit-identity contract.

The expensive end-to-end equivalence checks run on shortened windows;
the full-window ``scaled(200)`` equivalence is asserted by
``benchmarks/bench_shard.py`` (gated in CI) so the suite stays fast.
"""

import pickle

import pytest

from _golden import analysis_fingerprint
from repro.api.envelope import run_scenario
from repro.api.registry import scenarios
from repro.api.scenario import Scenario
from repro.core.records import AccountProvenance, ObservedDataset
from repro.core.sharding import (
    ShardSpec,
    pinned_account_count,
    shard_of,
    stable_hash64,
)
from repro.errors import ConfigurationError, SupervisionError
from repro.shard import (
    ShardRun,
    dataset_mismatches,
    merge_shard_runs,
    run_sharded,
)


def _short(name: str, days: float = 20.0, **kwargs) -> Scenario:
    return (
        scenarios.get(name, **kwargs)
        .to_builder()
        .with_duration_days(days)
        .build()
    )


def _assert_equivalent(serial, sharded) -> None:
    mismatches = dataset_mismatches(serial.dataset, sharded.dataset)
    assert not mismatches, mismatches[:3]
    serial_fp = analysis_fingerprint(serial.analysis)
    sharded_fp = analysis_fingerprint(sharded.analysis)
    assert serial_fp == sharded_fp


class TestPartition:
    def test_shard_of_is_stable(self):
        address = "someone@gmail.example"
        assert shard_of(address, 4) == shard_of(address, 4)
        assert stable_hash64(address) == stable_hash64(address)
        assert 0 <= shard_of(address, 4) < 4

    def test_shard_of_does_not_use_builtin_hash(self):
        # The partition must survive PYTHONHASHSEED changes; pin one
        # concrete value so any future hash-function swap is loud.
        assert stable_hash64("pin@example") == int.from_bytes(
            __import__("hashlib")
            .blake2b(b"pin@example", digest_size=8)
            .digest(),
            "big",
        )

    def test_single_shard_owns_everything(self):
        spec = ShardSpec(index=0, count=1)
        assert spec.is_serial
        assert spec.owns("anyone@example")
        assert spec.owns("anyone@example", pinned=True)

    def test_pinned_accounts_belong_to_shard_zero(self):
        for count in (2, 3, 8):
            zero = ShardSpec(index=0, count=count)
            other = ShardSpec(index=count - 1, count=count)
            assert zero.owns("whatever@example", pinned=True)
            assert not other.owns("whatever@example", pinned=True)

    def test_partition_covers_and_separates(self):
        addresses = [f"user{i}@gmail.example" for i in range(200)]
        count = 4
        specs = [ShardSpec(index=i, count=count) for i in range(count)]
        for address in addresses:
            owners = [s.index for s in specs if s.owns(address)]
            assert owners == [shard_of(address, count)]

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            ShardSpec(index=0, count=0)
        with pytest.raises(ConfigurationError):
            ShardSpec(index=2, count=2)
        with pytest.raises(ConfigurationError):
            shard_of("x@example", 0)

    def test_pinned_block_size_tracks_quota_accounts(self):
        assert pinned_account_count(2) == 11
        assert pinned_account_count(0) == 9


class TestScenarioSurface:
    def test_builder_and_round_trip(self):
        scenario = (
            scenarios.get("fast").to_builder().with_shards(4).build()
        )
        assert scenario.shards == 4
        rebuilt = Scenario.from_json(scenario.to_json())
        assert rebuilt.shards == 4
        assert "shards=4" in scenario.describe()

    def test_serial_scenarios_serialize_without_the_key(self):
        # Pre-shard serialized scenarios must round-trip unchanged, so
        # the default stays implicit.
        scenario = scenarios.get("fast")
        assert scenario.shards == 1
        assert "shards" not in scenario.to_dict()
        assert Scenario.from_dict(scenario.to_dict()).shards == 1

    def test_with_shards_validation(self):
        with pytest.raises(ConfigurationError):
            scenarios.get("fast").to_builder().with_shards(0)
        with pytest.raises(ConfigurationError):
            scenarios.get("fast").with_shards(0)


class TestShardedEquivalence:
    """Sharded == serial, field for field — the tentpole contract."""

    @pytest.mark.parametrize("seed", [2016, 7])
    def test_fast_scenario_bit_identical(self, seed):
        scenario = _short("fast")
        serial = run_scenario(scenario, seed=seed)
        sharded = run_sharded(scenario.with_seed(seed), shards=3, jobs=1)
        _assert_equivalent(serial, sharded)

    def test_pool_workers_match_in_process_shards(self):
        scenario = _short("fast", days=10.0)
        in_process = run_sharded(
            scenario.with_seed(2016), shards=2, jobs=1
        )
        pooled = run_sharded(scenario.with_seed(2016), shards=2, jobs=2)
        assert not dataset_mismatches(
            in_process.dataset, pooled.dataset
        )

    def test_outlet_restricted_scenario(self):
        scenario = _short("paste_only")
        serial = run_scenario(scenario, seed=2016)
        sharded = run_sharded(
            scenario.with_seed(2016), shards=4, jobs=1
        )
        _assert_equivalent(serial, sharded)

    def test_scenario_shards_field_drives_run(self):
        scenario = _short("fast", days=10.0).to_builder().with_shards(
            2
        ).build()
        sharded = run_scenario(scenario, seed=2016, jobs=1)
        assert sharded.shard_perf is not None
        serial = run_scenario(
            scenario.with_shards(1), seed=2016
        )
        _assert_equivalent(serial, sharded)

    def test_case_studies_land_on_shard_zero(self):
        scenario = _short("fast", days=30.0)
        sharded = run_sharded(
            scenario.with_seed(2016), shards=4, jobs=1
        )
        # The blackmail drafts (a case-study artifact) survive the
        # merge, proving shard 0 ran the scripted campaigns.
        drafts = [
            body
            for kind, _, _, _, _, body in (
                sharded.dataset.notification_store.iter_rows()
            )
            if kind == "draft" and "bitcoin" in body
        ]
        assert drafts


class TestShardEdgeCases:
    def test_k1_degenerates_to_serial_path(self):
        scenario = _short("fast", days=10.0)
        via_shard = run_sharded(scenario.with_seed(2016), shards=1)
        direct = run_scenario(scenario, seed=2016)
        # shards=1 must not spin up workers or a merge: it IS the
        # serial path, live experiment handle included.
        assert via_shard.shard_perf is None
        assert via_shard.experiment_result is not None
        assert not dataset_mismatches(direct.dataset, via_shard.dataset)

    @pytest.mark.parametrize(
        "supervision", [{"shard_timeout": 5.0}, {"shard_retries": 2}]
    )
    def test_serial_path_refuses_shard_supervision(self, supervision):
        # Nothing forks on the serial path, so there is nothing to time
        # out or requeue: the settings would be dropped.
        scenario = _short("fast", days=2.0)
        with pytest.raises(ConfigurationError, match="--shard-timeout"):
            run_scenario(scenario, seed=2016, **supervision)
        with pytest.raises(ConfigurationError, match="--shard-retries"):
            run_sharded(scenario.with_seed(2016), shards=1, **supervision)
        with pytest.raises(ConfigurationError, match="serial run"):
            run_sharded(
                scenario.with_shards(2).with_seed(2016), shards=1,
                **supervision,
            )

    def test_serial_path_accepts_jobs(self):
        scenario = _short("fast", days=2.0)
        run = run_scenario(scenario, seed=2016, jobs=3)
        assert run.shard_perf is None

    def test_more_shards_than_accounts(self):
        scenario = (
            _short("fast", days=10.0)
            .to_builder()
            .scaled_to(8)
            .without_case_studies()
            .build()
        )
        serial = run_scenario(scenario, seed=2016)
        sharded = run_sharded(
            scenario.with_seed(2016), shards=16, jobs=1
        )
        assert sharded.account_count == 8
        assert len(sharded.shard_perf) == 16
        empty = [
            s for s in sharded.shard_perf if s["owned_accounts"] == 0
        ]
        assert empty, "16 shards over 8 accounts must leave idle shards"
        _assert_equivalent(serial, sharded)

    def test_one_job_with_a_shard_timeout_is_supervised(self):
        # A timeout needs a worker to kill, so one job still forks:
        # the deadline applies instead of being dropped.
        with pytest.raises(SupervisionError, match="timed out"):
            run_sharded(
                _short("fast", days=2.0).with_seed(2016),
                shards=2,
                jobs=1,
                shard_timeout=0.001,
                shard_retries=0,
            )

    def test_run_result_round_trips_shard_perf(self):
        scenario = _short("fast", days=10.0)
        sharded = run_sharded(scenario.with_seed(2016), shards=2, jobs=1)
        restored = pickle.loads(pickle.dumps(sharded))
        assert restored.shard_perf == sharded.shard_perf
        assert restored.perf["merge"] == sharded.perf["merge"]


def _toy_shard_run(
    spec: ShardSpec,
    all_addresses: tuple[str, ...],
    owned: tuple[str, ...],
    rows: list[tuple],
) -> ShardRun:
    dataset = ObservedDataset()
    for row in rows:
        dataset.access_store.append_fields(*row)
    for address in owned:
        dataset.provenance[address] = AccountProvenance(
            address=address,
            group=scenarios.get("fast").leak_plan.groups[0],
            leak_time=0.0,
        )
        dataset.all_email_texts[address] = [f"history of {address}"]
    dataset.monitor_city = "Reading"
    dataset.monitor_ips = {"10.0.0.1"}
    return ShardRun(
        spec=spec,
        dataset=dataset,
        events_executed=len(rows),
        blacklisted_ips=set(),
        perf={"simulate": 0.0},
        elapsed_seconds=0.0,
        all_addresses=all_addresses,
        owned_addresses=owned,
    )


def _toy_access_row(address: str, marker: str, timestamp: float) -> tuple:
    return (
        address,
        f"ck-{marker}",
        f"198.51.100.{len(marker)}",
        marker,  # city — deliberately collision-heavy across shards
        marker,  # country
        1.0,
        2.0,
        "desktop",
        marker,
        "chrome",
        f"UA {marker}",
        timestamp,
    )


class TestMergeReinterning:
    """String tables re-intern cleanly however the shards interleaved."""

    ADDRESSES = ("a@example", "b@example")

    def _scenario(self) -> Scenario:
        return _short("fast", days=10.0)

    def test_collision_heavy_tables_merge_losslessly(self):
        # Both shards intern the same marker strings but in opposite
        # first-seen orders, plus private strings; merged rows must
        # decode identically to the originals, whatever ids they got.
        spec0 = ShardSpec(index=0, count=2)
        spec1 = ShardSpec(index=1, count=2)
        rows_a = [
            _toy_access_row("a@example", "shared-x", 100.0),
            _toy_access_row("a@example", "shared-y", 200.0),
            _toy_access_row("a@example", "only-a", 300.0),
        ]
        rows_b = [
            _toy_access_row("b@example", "shared-y", 150.0),
            _toy_access_row("b@example", "shared-x", 250.0),
            _toy_access_row("b@example", "only-b", 350.0),
        ]
        merged, diagnostics = merge_shard_runs(
            self._scenario(),
            [
                _toy_shard_run(
                    spec0, self.ADDRESSES, ("a@example",), rows_a
                ),
                _toy_shard_run(
                    spec1, self.ADDRESSES, ("b@example",), rows_b
                ),
            ],
        )
        assert diagnostics["access_rows"] == 6
        decoded = [merged.access_store.row(i) for i in range(6)]
        # All six rows land in one scrape tick, so watch order (a
        # before b) decides the interleave, each account in page order.
        assert [row[0] for row in decoded] == [
            "a@example", "a@example", "a@example",
            "b@example", "b@example", "b@example",
        ]
        assert sorted(decoded) == sorted(rows_a + rows_b)
        # One merged table serves every column; collision-heavy
        # markers intern to a single id each.
        strings = merged.access_store.strings
        assert strings.id_of("shared-x") is not None
        assert strings.id_of("shared-x") == strings.id_of("shared-x")

    def test_population_disagreement_is_loud(self):
        spec0 = ShardSpec(index=0, count=2)
        spec1 = ShardSpec(index=1, count=2)
        runs = [
            _toy_shard_run(spec0, self.ADDRESSES, ("a@example",), []),
            _toy_shard_run(
                spec1, ("a@example", "c@example"), ("c@example",), []
            ),
        ]
        with pytest.raises(ConfigurationError):
            merge_shard_runs(self._scenario(), runs)

    def test_overlapping_ownership_is_loud(self):
        spec0 = ShardSpec(index=0, count=2)
        spec1 = ShardSpec(index=1, count=2)
        runs = [
            _toy_shard_run(spec0, self.ADDRESSES, ("a@example",), []),
            _toy_shard_run(spec1, self.ADDRESSES, ("a@example",), []),
        ]
        with pytest.raises(ConfigurationError):
            merge_shard_runs(self._scenario(), runs)

    def test_missing_shard_is_loud(self):
        # A crashed or filtered-out worker must not produce a quietly
        # smaller "merged" dataset.
        spec0 = ShardSpec(index=0, count=2)
        runs = [
            _toy_shard_run(spec0, self.ADDRESSES, ("a@example",), []),
        ]
        with pytest.raises(ConfigurationError, match="owned by none"):
            merge_shard_runs(self._scenario(), runs)

    def test_shards_override_forces_serial(self):
        # An explicit shards=1 override on a sharded scenario must run
        # the serial path, not bounce back into the sharded executor.
        scenario = (
            self._scenario().to_builder().with_shards(3).build()
        )
        run = run_sharded(scenario.with_seed(2016), shards=1)
        assert run.shard_perf is None
        assert run.experiment_result is not None
