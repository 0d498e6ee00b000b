"""Tests for repro.sweeps.jobspec — job-identity stability."""

import json
import subprocess
import sys
from pathlib import Path

from repro.api import scenarios
from repro.api.scenario import Scenario
from repro.sweeps import (
    CODE_VERSION_ENV,
    JobSpec,
    canonical_scenario_json,
    default_code_version,
)

#: A compact scenario used for identity tests (never executed here).
TINY = (
    scenarios.get("fast")
    .to_builder()
    .named("tiny")
    .with_duration_days(8.0)
    .with_emails_per_account(8, 12)
    .build()
)

VERSION = "test-vX"


def spec_of(scenario, seed=2016):
    return JobSpec.for_cell(scenario, seed, code_version=VERSION)


class TestAddressStability:
    def test_builder_json_and_dict_round_trips_agree(self):
        built = spec_of(TINY)
        via_json = spec_of(Scenario.from_json(TINY.to_json()))
        via_dict = spec_of(Scenario.from_dict(TINY.to_dict()))
        assert built.address == via_json.address == via_dict.address
        assert built.canonical == via_json.canonical

    def test_seed_is_folded_into_the_scenario(self):
        # The same cell expressed two ways: seed as an argument, and
        # seed pre-applied to the scenario.
        assert (
            spec_of(TINY, seed=99).address
            == spec_of(TINY.with_seed(99), seed=None).address
        )

    def test_rebuild_scenario_round_trips_the_address(self):
        spec = spec_of(TINY, seed=5)
        rebuilt = spec.rebuild_scenario()
        assert rebuilt.name == "tiny"
        assert rebuilt.seed == 5
        assert spec_of(rebuilt, seed=None).address == spec.address

    def test_stable_across_processes(self):
        """A fresh interpreter derives the same address.

        PYTHONHASHSEED varies between processes, so any hash-ordered
        iteration leaking into the canonical form would break this.
        """
        spec = spec_of(TINY, seed=2016)
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "import json, sys\n"
            "from repro.api.scenario import Scenario\n"
            "from repro.sweeps import JobSpec\n"
            "scenario = Scenario.from_json(sys.stdin.read())\n"
            f"spec = JobSpec.for_cell(scenario, 2016, code_version={VERSION!r})\n"
            "print(spec.address)\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", code],
            input=TINY.to_json(),
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(src), "PYTHONHASHSEED": "271828"},
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == spec.address


class TestSemanticChangesChangeTheAddress:
    def test_seed(self):
        assert spec_of(TINY, 1).address != spec_of(TINY, 2).address

    def test_duration(self):
        longer = TINY.to_builder().with_duration_days(16.0).build()
        assert spec_of(longer).address != spec_of(TINY).address

    def test_persona_mix(self):
        stuffed = TINY.to_builder().only_persona("stuffing_bot").build()
        assert spec_of(stuffed).address != spec_of(TINY).address

    def test_shards(self):
        assert (
            spec_of(TINY.with_shards(2)).address
            != spec_of(TINY).address
        )

    def test_leak_plan(self):
        pastes = TINY.to_builder().only_outlets("paste").build()
        assert spec_of(pastes).address != spec_of(TINY).address

    def test_code_version(self):
        assert (
            JobSpec.for_cell(TINY, 1, code_version="a").address
            != JobSpec.for_cell(TINY, 1, code_version="b").address
        )


class TestCodeVersion:
    def test_default_uses_package_version(self, monkeypatch):
        monkeypatch.delenv(CODE_VERSION_ENV, raising=False)
        from repro import __version__

        assert default_code_version() == f"repro-{__version__}"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(CODE_VERSION_ENV, "ci-abc123")
        assert default_code_version() == "ci-abc123"
        spec = JobSpec.for_cell(TINY, 1)
        assert spec.code_version == "ci-abc123"


class TestCanonicalForm:
    def test_canonical_is_json_and_deterministic(self):
        canonical = canonical_scenario_json(TINY)
        assert json.loads(canonical)  # parses
        assert canonical == canonical_scenario_json(
            Scenario.from_json(TINY.to_json())
        )

    def test_describe_mentions_the_essentials(self):
        spec = spec_of(TINY, seed=3)
        text = spec.describe()
        assert "tiny" in text and "seed=3" in text
        assert spec.address[:12] in text
