"""Tests for repro.netsim.geo."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.netsim.cities import city_by_name
from repro.netsim.geo import GeoDatabase, distance_between, haversine_km

coords = st.tuples(
    st.floats(min_value=-90, max_value=90),
    st.floats(min_value=-180, max_value=180),
)


class TestHaversine:
    def test_london_paris(self):
        london = city_by_name("London")
        paris = city_by_name("Paris")
        distance = distance_between(london, paris)
        assert distance == pytest.approx(344, rel=0.05)

    def test_london_new_york(self):
        distance = distance_between(
            city_by_name("London"), city_by_name("New York")
        )
        assert distance == pytest.approx(5570, rel=0.05)

    def test_pontiac_chicago(self):
        distance = distance_between(
            city_by_name("Pontiac"), city_by_name("Chicago")
        )
        assert distance == pytest.approx(140, rel=0.3)

    @settings(max_examples=100)
    @given(coords)
    def test_self_distance_zero(self, point):
        lat, lon = point
        assert haversine_km(lat, lon, lat, lon) == pytest.approx(0.0, abs=1e-6)

    @settings(max_examples=100)
    @given(coords, coords)
    def test_symmetry(self, a, b):
        d1 = haversine_km(a[0], a[1], b[0], b[1])
        d2 = haversine_km(b[0], b[1], a[0], a[1])
        assert d1 == pytest.approx(d2, rel=1e-9, abs=1e-9)

    @settings(max_examples=100)
    @given(coords, coords)
    def test_bounded_by_half_circumference(self, a, b):
        distance = haversine_km(a[0], a[1], b[0], b[1])
        assert 0.0 <= distance <= 20_038.0


class TestGeoDatabase:
    def test_city_roundtrip(self, geo):
        city = city_by_name("Berlin")
        addr = geo.allocate_in_city(city)
        location = geo.locate(addr)
        assert location is not None
        assert location.city == "Berlin"
        assert location.country == "DE"
        assert location.latitude == city.latitude

    def test_city_of(self, geo):
        city = city_by_name("Tokyo")
        addr = geo.allocate_in_city(city)
        assert geo.city_of(addr) is city

    def test_unlocated_pool(self, geo):
        geo.register_unlocated_pool("anon:test", prefix_count=2)
        addr = geo.allocate_unlocated("anon:test")
        assert geo.locate(addr) is None
        assert geo.city_of(addr) is None

    def test_allocate_unlocated_requires_registration(self, geo):
        with pytest.raises(ConfigurationError):
            geo.allocate_unlocated("never-registered")

    def test_distinct_cities_distinct_prefixes(self, geo):
        a = geo.allocate_in_city(city_by_name("London"))
        b = geo.allocate_in_city(city_by_name("Paris"))
        assert geo.locate(a).city != geo.locate(b).city

    def test_prefixes_per_city_validated(self, rng):
        with pytest.raises(ConfigurationError):
            GeoDatabase(rng, prefixes_per_city=0)
