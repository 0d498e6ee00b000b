"""Tests for repro.sweeps.store — the content-addressed results store."""

import pickle

import pytest

from repro.analysis.dataset import analyze
from repro.analysis.fingerprint import fingerprint_digest
from repro.api import run_scenario, scenarios
from repro.errors import ConfigurationError
from repro.sweeps import JobSpec, ResultsStore, open_store

TINY = (
    scenarios.get("fast")
    .to_builder()
    .named("tiny")
    .with_duration_days(6.0)
    .with_emails_per_account(8, 12)
    .build()
)

VERSION = "store-test-v1"


@pytest.fixture(scope="module")
def tiny_run():
    return run_scenario(TINY, seed=2016)


@pytest.fixture()
def store(tmp_path) -> ResultsStore:
    return ResultsStore(tmp_path / "store")


def spec_of(seed=2016):
    return JobSpec.for_cell(TINY, seed, code_version=VERSION)


class TestPutGet:
    def test_round_trip(self, store, tiny_run):
        spec = spec_of()
        assert spec not in store
        assert store.get(spec) is None
        entry = store.put(spec, tiny_run)
        assert spec in store
        assert spec.address in store  # bare addresses work too
        assert entry.address == spec.address
        assert entry.scenario_name == "tiny"
        assert entry.seed == 2016
        assert entry.code_version == VERSION
        assert entry.payload_bytes > 0

        restored = store.get(spec)
        assert restored.seed == 2016
        assert restored.summary() == tiny_run.summary()

    def test_entries_sorted_and_len(self, store, tiny_run):
        for seed in (3, 1, 2):
            store.put(spec_of(seed), tiny_run)
        assert len(store) == 3
        assert [e.seed for e in store.entries()] == [1, 2, 3]
        assert store.entry(spec_of(2)).seed == 2
        assert store.entry(spec_of(99)) is None

    def test_no_temp_files_left_behind(self, store, tiny_run):
        store.put(spec_of(), tiny_run)
        strays = [
            p
            for p in store.root.rglob("*")
            if p.is_file() and ".tmp." in p.name
        ]
        assert strays == []

    def test_durable_mode_round_trips(self, tmp_path, tiny_run):
        store = ResultsStore(tmp_path / "durable", durable=True)
        spec = spec_of()
        store.put(spec, tiny_run)
        assert spec in store
        assert store.get(spec).summary() == tiny_run.summary()
        assert store.verify() == []

    def test_double_put_is_idempotent(self, store, tiny_run):
        store.put(spec_of(), tiny_run)
        store.put(spec_of(), tiny_run)
        assert len(store) == 1
        assert store.verify() == []


class TestIntegrity:
    def test_payload_without_sidecar_is_not_present(
        self, store, tiny_run
    ):
        # Simulate a crash between the payload replace and the sidecar
        # replace: the commit marker is missing, so the entry must not
        # count as cached.
        spec = spec_of()
        store.put(spec, tiny_run)
        store._sidecar_path(spec.address).unlink()
        assert spec not in store
        assert store.get(spec) is None
        problems = store.verify()
        assert any("interrupted put" in p for p in problems)

    def test_verify_clean_store(self, store, tiny_run):
        store.put(spec_of(1), tiny_run)
        store.put(spec_of(2), tiny_run)
        assert store.verify() == []

    def test_verify_detects_corrupt_payload(self, store, tiny_run):
        spec = spec_of()
        store.put(spec, tiny_run)
        payload = store._payload_path(spec.address)
        payload.write_bytes(payload.read_bytes()[:-4] + b"????")
        problems = store.verify()
        assert any("sha256 mismatch" in p for p in problems)

    def test_verify_detects_tampered_sidecar(self, store, tiny_run):
        spec = spec_of()
        store.put(spec, tiny_run)
        sidecar = store._sidecar_path(spec.address)
        sidecar.write_text(
            sidecar.read_text().replace('"seed": 2016', '"seed": 1999')
        )
        problems = store.verify()
        assert any("does not hash" in p for p in problems)

    def test_verify_reports_missing_payload(self, store, tiny_run):
        spec = spec_of()
        store.put(spec, tiny_run)
        store._payload_path(spec.address).unlink()
        assert any("payload missing" in p for p in store.verify())


class TestGc:
    def test_gc_drops_other_code_versions(self, store, tiny_run):
        keep = spec_of(1)
        stale = JobSpec.for_cell(TINY, 1, code_version="old-v0")
        store.put(keep, tiny_run)
        store.put(stale, tiny_run)
        removed = store.gc(keep_code_version=VERSION)
        assert removed == [stale.address]
        assert keep in store
        assert stale not in store

    def test_gc_reclaims_interrupted_puts(self, store, tiny_run):
        spec = spec_of()
        store.put(spec, tiny_run)
        store._sidecar_path(spec.address).unlink()
        removed = store.gc(keep_code_version=VERSION)
        assert spec.address in removed
        assert not store._payload_path(spec.address).exists()

    def test_gc_reclaims_stray_temp_files(self, store, tiny_run):
        spec = spec_of()
        store.put(spec, tiny_run)
        stray = store._payload_path(spec.address).with_suffix(
            ".pkl.tmp.999"
        )
        stray.write_bytes(b"partial write")
        store.gc(keep_code_version=VERSION)
        assert not stray.exists()
        assert spec in store


class TestOpenStore:
    def test_open_creates_by_default(self, tmp_path):
        store = open_store(tmp_path / "fresh")
        assert store.objects_dir.is_dir()

    def test_must_exist_refuses_missing(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no results store"):
            open_store(tmp_path / "nope", must_exist=True)

    def test_must_exist_opens_existing(self, tmp_path):
        ResultsStore(tmp_path / "s")
        reopened = open_store(tmp_path / "s", must_exist=True)
        assert len(reopened) == 0  # empty but real


class TestPayloadShape:
    def test_payload_drops_live_world(self, store, tiny_run):
        # The pickled envelope must not drag the simulator graph along.
        spec = spec_of()
        store.put(spec, tiny_run)
        restored = pickle.loads(
            store._payload_path(spec.address).read_bytes()
        )
        assert restored.experiment_result is None
        # The analysis the sidecar's overview ran is stored with it.
        assert restored._analysis is not None

    def test_stored_analysis_matches_reanalysis(self, store, tiny_run):
        # A loaded run is not re-analysed, so check here that what it
        # carries is what analysing its own dataset gives.
        spec = spec_of()
        store.put(spec, tiny_run)
        restored = store.get(spec)
        fresh = analyze(
            restored.dataset, scan_period=restored.config.scan_period
        )
        assert fingerprint_digest(restored.analysis) == fingerprint_digest(
            fresh
        )
        assert fingerprint_digest(restored.analysis) == fingerprint_digest(
            tiny_run.analysis
        )
