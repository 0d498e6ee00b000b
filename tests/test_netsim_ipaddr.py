"""Tests for repro.netsim.ipaddr."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.netsim.ipaddr import IPAddress, IPAllocator


class TestIPAddress:
    def test_parse_and_format(self):
        addr = IPAddress.from_string("192.0.2.7")
        assert str(addr) == "192.0.2.7"
        assert addr.octets == (192, 0, 2, 7)

    def test_from_octets(self):
        assert str(IPAddress.from_octets(10, 0, 0, 1)) == "10.0.0.1"

    def test_prefix16(self):
        addr = IPAddress.from_string("10.1.2.3")
        assert addr.prefix16 == (10 << 8) | 1

    def test_ordering(self):
        a = IPAddress.from_string("10.0.0.1")
        b = IPAddress.from_string("10.0.0.2")
        assert a < b

    @pytest.mark.parametrize(
        "bad", ["1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "-1.0.0.0"]
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            IPAddress.from_string(bad)

    def test_out_of_range_value_rejected(self):
        with pytest.raises(ConfigurationError):
            IPAddress(2**32)

    @settings(max_examples=100)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_roundtrip_property(self, value):
        addr = IPAddress(value)
        assert IPAddress.from_string(str(addr)) == addr


class TestIPAllocator:
    def make(self):
        allocator = IPAllocator(random.Random(1))
        allocator.register_pool("city-a", [0x0A00, 0x0A01])
        allocator.register_pool("city-b", [0x0B00])
        return allocator

    def test_allocates_inside_pool(self):
        allocator = self.make()
        for _ in range(50):
            addr = allocator.allocate("city-a")
            assert addr.prefix16 in (0x0A00, 0x0A01)

    def test_addresses_unique(self):
        allocator = self.make()
        addresses = {allocator.allocate("city-a") for _ in range(200)}
        assert len(addresses) == 200

    def test_pool_of(self):
        allocator = self.make()
        addr = allocator.allocate("city-b")
        assert allocator.pool_of(addr) == "city-b"
        outsider = IPAddress.from_string("200.1.2.3")
        assert allocator.pool_of(outsider) is None

    def test_unknown_pool_rejected(self):
        with pytest.raises(ConfigurationError):
            self.make().allocate("nope")

    def test_duplicate_pool_rejected(self):
        allocator = self.make()
        with pytest.raises(ConfigurationError):
            allocator.register_pool("city-a", [0x0C00])

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigurationError):
            self.make().register_pool("empty", [])

    def test_invalid_prefix_rejected(self):
        with pytest.raises(ConfigurationError):
            self.make().register_pool("bad", [0x10000])

    def test_allocated_count(self):
        allocator = self.make()
        allocator.allocate("city-a")
        allocator.allocate("city-b")
        assert allocator.allocated_count == 2
