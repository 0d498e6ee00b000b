"""Shared fixtures.

The full (fast-config) experiment takes a few seconds, so it runs once
per session; all integration-level tests share the same
:class:`ExperimentResult` and :class:`AnalysisResults`.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import settings

from repro.analysis.dataset import analyze
from repro.core.experiment import Experiment, ExperimentConfig
from repro.netsim.geo import GeoDatabase
from repro.sim.engine import Simulator
from repro.sim.rng import derive_rng
from repro.webmail.service import WebmailService

#: The seed every session-scoped run uses; tests asserting calibration
#: bands use this fixed, documented seed.
SESSION_SEED = 2016

# Hypothesis profiles.  ``ci`` (loaded here; Hypothesis's own CI
# profile plus a 50-example budget) is tier-1's; the nightly workflow
# passes ``--hypothesis-profile=nightly``.  Both are derandomised with
# no deadline and no example database, locally as under CI.  Only the
# monitor's scrape, the shard merge and the corpus draw-exact property
# tests take their budget from the profile; every other property test
# pins ``max_examples`` on its own.
settings.register_profile("ci", settings.get_profile("ci"), max_examples=50)
settings.register_profile(
    "nightly", settings.get_profile("ci"), max_examples=500
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def experiment_result():
    """One full fast-config experiment run, shared across the session."""
    experiment = Experiment(ExperimentConfig.fast(master_seed=SESSION_SEED))
    return experiment.run()


@pytest.fixture(scope="session")
def analysis(experiment_result):
    """The Section 4 analysis over the shared run."""
    return analyze(
        experiment_result.dataset,
        scan_period=experiment_result.config.scan_period,
    )


@pytest.fixture()
def rng() -> random.Random:
    """A fresh deterministic RNG for unit tests."""
    return random.Random(12345)


@pytest.fixture()
def sim() -> Simulator:
    return Simulator()


@pytest.fixture()
def geo() -> GeoDatabase:
    return GeoDatabase(derive_rng(77, "test-geo"))


@pytest.fixture()
def service(geo) -> WebmailService:
    return WebmailService(geo, derive_rng(77, "test-service"))
