"""Tests for repro.attackers.sophistication and arrival."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attackers.arrival import (
    lognormal_from_median,
    sample_arrival_delay,
    sample_burst_arrival,
    sample_return_gaps,
)
from repro.attackers.sophistication import (
    AttackerProfile,
    SophisticationLevel,
    TaxonomyClass,
)
from repro.core.groups import OutletKind
from repro.errors import ConfigurationError
from repro.netsim.anonymity import OriginKind
from repro.sim.clock import days


def make_profile(**overrides):
    spec = dict(
        attacker_id="atk-1",
        outlet=OutletKind.PASTE,
        classes=frozenset({TaxonomyClass.CURIOUS}),
        level=SophisticationLevel.MEDIUM,
        origin=OriginKind.DIRECT,
        origin_city="Paris",
        hide_user_agent=False,
        location_malleable=False,
        android_device=False,
        infected_host=False,
        visits=1,
        visit_span_days=0.0,
    )
    spec.update(overrides)
    return AttackerProfile(**spec)


class TestProfileValidation:
    def test_valid_profile(self):
        profile = make_profile()
        assert profile.is_curious_only
        assert not profile.anonymised

    def test_spammer_only_forbidden(self):
        # Section 4.2: "there was no access that behaved exclusively as
        # 'spammer'".
        with pytest.raises(ValueError):
            make_profile(classes=frozenset({TaxonomyClass.SPAMMER}))

    def test_spammer_with_hijacker_allowed(self):
        profile = make_profile(
            classes=frozenset(
                {TaxonomyClass.SPAMMER, TaxonomyClass.HIJACKER}
            )
        )
        assert profile.has(TaxonomyClass.SPAMMER)

    def test_empty_classes_forbidden(self):
        with pytest.raises(ValueError):
            make_profile(classes=frozenset())

    def test_zero_visits_forbidden(self):
        with pytest.raises(ValueError):
            make_profile(visits=0)

    def test_anonymised_property(self):
        tor = make_profile(origin=OriginKind.TOR, origin_city=None)
        assert tor.anonymised


class TestArrivalSampling:
    def test_lognormal_median(self):
        rng = random.Random(3)
        samples = sorted(
            lognormal_from_median(rng, 10.0, 1.0) for _ in range(4001)
        )
        median = samples[2000]
        assert 8.0 < median < 12.5

    def test_invalid_median(self, rng):
        with pytest.raises(ConfigurationError):
            lognormal_from_median(rng, 0.0, 1.0)

    def test_dormancy_shifts_right(self):
        rng = random.Random(4)
        for _ in range(200):
            delay = sample_arrival_delay(
                rng, median_days=5.0, dormancy_days=62.0
            )
            assert delay >= days(62.0)

    def test_delays_inside_horizon(self):
        rng = random.Random(5)
        for _ in range(500):
            delay = sample_arrival_delay(
                rng, median_days=30.0, sigma=2.0, horizon_days=236.0
            )
            assert 0.0 < delay < days(236.0)

    def test_burst_centred(self):
        rng = random.Random(6)
        samples = [
            sample_burst_arrival(rng, burst_center_days=30.0)
            for _ in range(500)
        ]
        mean_days = sum(samples) / len(samples) / days(1)
        assert 28.0 < mean_days < 32.0

    def test_burst_validation(self, rng):
        with pytest.raises(ConfigurationError):
            sample_burst_arrival(rng, burst_center_days=0.0)


class TestReturnGaps:
    def test_single_visit_no_gaps(self, rng):
        assert sample_return_gaps(rng, 1, 10.0) == []

    def test_gap_count(self, rng):
        assert len(sample_return_gaps(rng, 4, 10.0)) == 3

    @settings(max_examples=100)
    @given(
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=0.1, max_value=60.0),
    )
    def test_gaps_positive(self, visits, span):
        rng = random.Random(42)
        for gap in sample_return_gaps(rng, visits, span):
            assert gap > 0.0
