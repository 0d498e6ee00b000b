"""Tests for repro.sim.rng."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import SeedSequence, derive_rng, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", "b") == derive_seed(42, "a", "b")

    def test_path_sensitivity(self):
        assert derive_seed(42, "a", "b") != derive_seed(42, "a", "c")

    def test_master_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_path_concatenation_is_not_ambiguous(self):
        # ("ab",) must differ from ("a", "b"): the separator matters.
        assert derive_seed(42, "ab") != derive_seed(42, "a", "b")

    def test_integer_path_parts(self):
        assert derive_seed(42, 1, 2) == derive_seed(42, "1", "2")

    @settings(max_examples=100)
    @given(st.integers(min_value=0, max_value=2**32), st.text(max_size=20))
    def test_seed_is_64_bit(self, master, name):
        assert 0 <= derive_seed(master, name) < 2**64


class TestDeriveRng:
    def test_streams_reproducible(self):
        a = derive_rng(42, "x")
        b = derive_rng(42, "x")
        assert [a.random() for _ in range(10)] == [
            b.random() for _ in range(10)
        ]

    def test_streams_independent(self):
        a = derive_rng(42, "x")
        b = derive_rng(42, "y")
        assert [a.random() for _ in range(10)] != [
            b.random() for _ in range(10)
        ]


class TestSeedSequence:
    def test_child_path_equivalence(self):
        root = SeedSequence(42, "attackers")
        via_child = root.child("paste").rng("arrival")
        direct = root.rng("paste", "arrival")
        assert via_child.random() == direct.random()

    def test_seed_method(self):
        root = SeedSequence(42)
        assert root.seed("a") == derive_seed(42, "a")

    def test_spawn_many(self):
        root = SeedSequence(42, "accounts")
        children = SeedSequence.spawn_many(root, ["a", "b"])
        assert set(children) == {"a", "b"}
        assert children["a"].rng().random() != children["b"].rng().random()

    def test_properties(self):
        root = SeedSequence(42, "a", 1)
        assert root.master_seed == 42
        assert root.path == ("a", 1)
