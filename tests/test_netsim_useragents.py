"""Tests for repro.netsim.useragents."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.netsim.useragents import (
    UserAgentFactory,
    build_user_agent,
    parse_user_agent,
)


class TestParse:
    def test_empty_string(self):
        info = parse_user_agent("")
        assert info.is_empty
        assert info.browser == "unknown"
        assert info.os_family == "unknown"
        assert not info.is_mobile

    def test_chrome_windows(self):
        ua = build_user_agent("chrome", "windows7", "43.0.2357")
        info = parse_user_agent(ua)
        assert info.browser == "chrome"
        assert info.os_family == "Windows"
        assert not info.is_mobile

    def test_firefox_linux(self):
        ua = build_user_agent("firefox", "linux", "40.0")
        info = parse_user_agent(ua)
        assert info.browser == "firefox"
        assert info.os_family == "Linux"

    def test_safari_mac(self):
        ua = build_user_agent("safari", "macos", "9.0")
        info = parse_user_agent(ua)
        assert info.browser == "safari"
        assert info.os_family == "Mac OS X"

    def test_opera_detected_before_chrome(self):
        ua = build_user_agent("opera", "windows8", "31.0")
        assert parse_user_agent(ua).browser == "opera"

    def test_ie(self):
        ua = build_user_agent("ie", "windows7", "11.0")
        assert parse_user_agent(ua).browser == "ie"

    def test_android_is_mobile(self):
        ua = build_user_agent("chrome", "android", "44.0.2403")
        info = parse_user_agent(ua)
        assert info.is_mobile
        assert info.os_family == "Android"

    @settings(max_examples=100)
    @given(
        st.sampled_from(["chrome", "firefox", "ie", "opera", "safari"]),
        st.sampled_from(
            ["windows7", "windows8", "windows10", "macos", "linux"]
        ),
    )
    def test_build_parse_roundtrip(self, browser, os_key):
        if browser == "safari" and not os_key.startswith("mac"):
            os_key = "macos"
        if browser == "ie" and not os_key.startswith("windows"):
            os_key = "windows7"
        ua = build_user_agent(browser, os_key, "1.0")
        assert parse_user_agent(ua).browser == browser


class TestBuildValidation:
    def test_unknown_browser(self):
        with pytest.raises(ConfigurationError):
            build_user_agent("netscape", "windows7", "1.0")

    def test_unknown_os(self):
        with pytest.raises(ConfigurationError):
            build_user_agent("chrome", "temple-os", "1.0")


class TestFactory:
    def test_empty(self):
        assert UserAgentFactory(random.Random(1)).empty() == ""

    def test_desktop_is_parseable(self):
        factory = UserAgentFactory(random.Random(1))
        for _ in range(50):
            info = parse_user_agent(factory.desktop())
            assert info.browser != "unknown"
            assert not info.is_mobile

    def test_android(self):
        factory = UserAgentFactory(random.Random(1))
        assert parse_user_agent(factory.android()).is_mobile

    def test_sample_android_fraction(self):
        factory = UserAgentFactory(random.Random(1))
        samples = [factory.sample(android_fraction=0.5) for _ in range(400)]
        mobile = sum(1 for s in samples if parse_user_agent(s).is_mobile)
        assert 120 < mobile < 280

    def test_sample_zero_fraction_is_desktop(self):
        factory = UserAgentFactory(random.Random(1))
        assert not parse_user_agent(
            factory.sample(android_fraction=0.0)
        ).is_mobile

    def test_invalid_fraction(self):
        factory = UserAgentFactory(random.Random(1))
        with pytest.raises(ConfigurationError):
            factory.sample(android_fraction=1.5)

    def test_deterministic(self):
        a = UserAgentFactory(random.Random(9))
        b = UserAgentFactory(random.Random(9))
        assert [a.desktop() for _ in range(10)] == [
            b.desktop() for _ in range(10)
        ]
