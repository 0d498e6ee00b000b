"""Tests for repro.analysis.tfidf and ecdf."""

import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.ecdf import Ecdf
from repro.analysis.tfidf import (
    TfidfRow,
    TfidfTable,
    compute_tfidf_table,
    smooth_idf,
    term_frequencies,
)
from repro.errors import AnalysisError

words = st.lists(
    st.sampled_from(["alpha", "bravo", "candy", "delta", "eagle"]),
    min_size=1,
    max_size=60,
)


class TestTermFrequencies:
    def test_relative(self):
        tf = term_frequencies(Counter(["apple", "apple", "pear", "plum"]))
        assert tf["apple"] == pytest.approx(0.5)
        assert tf["pear"] == pytest.approx(0.25)

    def test_empty(self):
        assert term_frequencies(Counter()) == {}

    @settings(max_examples=100)
    @given(words)
    def test_sums_to_one(self, terms):
        total = sum(term_frequencies(Counter(terms)).values())
        assert total == pytest.approx(1.0)


class TestSmoothIdf:
    def test_term_in_both_docs(self):
        docs = [{"apple"}, {"apple"}]
        assert smooth_idf("apple", docs) == pytest.approx(1.0)

    def test_term_in_one_doc_weighs_more(self):
        docs = [{"apple"}, {"pear"}]
        rare = smooth_idf("apple", docs)
        assert rare > smooth_idf("apple", [{"apple"}, {"apple"}])
        assert rare == pytest.approx(1.0 + math.log(1.5))


class TestTfidfTable:
    def test_searched_word_ranks_high(self):
        # 'bitcoin' appears only in the read document: it must top the
        # difference ranking, exactly the Table 2 mechanism.
        read = ["bitcoin"] * 5 + ["energy"] * 5
        everything = ["energy"] * 50 + ["company"] * 40 + ["please"] * 10
        table = compute_tfidf_table(Counter(read), Counter(everything))
        top = table.top_by_difference(3)
        assert top[0].term == "bitcoin"
        assert table.row("bitcoin").tfidf_a == 0.0

    def test_corpus_word_ranks_by_weight(self):
        read = ["bitcoin"]
        everything = ["energy"] * 50 + ["company"] * 30 + ["please"] * 20
        table = compute_tfidf_table(Counter(read), Counter(everything))
        ranking = [row.term for row in table.top_by_corpus_weight(3)]
        assert ranking == ["energy", "company", "please"]

    def test_common_words_near_zero_difference(self):
        shared = ["energy"] * 50
        table = compute_tfidf_table(Counter(shared), Counter(shared))
        assert table.row("energy").difference == pytest.approx(0.0)

    def test_weights_in_unit_interval(self):
        read = ["alpha", "bravo", "bravo"]
        everything = ["alpha"] * 4 + ["candy"] * 4
        table = compute_tfidf_table(Counter(read), Counter(everything))
        for row in table.rows.values():
            assert 0.0 <= row.tfidf_r <= 1.0
            assert 0.0 <= row.tfidf_a <= 1.0

    def test_missing_term_raises(self):
        table = compute_tfidf_table(Counter(["alpha"]), Counter(["alpha"]))
        with pytest.raises(AnalysisError):
            table.row("zulu")
        assert "alpha" in table
        assert len(table) == 1

    def test_empty_all_document_rejected(self):
        with pytest.raises(AnalysisError):
            compute_tfidf_table(Counter(["alpha"]), Counter())

    @settings(max_examples=100)
    @given(words, words)
    def test_l2_norms_bounded(self, read, everything):
        table = compute_tfidf_table(Counter(read), Counter(everything))
        norm_r = math.sqrt(
            sum(r.tfidf_r**2 for r in table.rows.values())
        )
        assert norm_r <= 1.0 + 1e-9


class TestTieOrder:
    """Exact weight ties must not rank by set iteration order, which
    follows ``PYTHONHASHSEED``."""

    def test_tied_terms_rank_the_same_in_either_insertion_order(self):
        tied = [
            TfidfRow(term, tfidf_r=0.5, tfidf_a=0.25)
            for term in ("delta", "alpha", "echo", "charlie", "bravo")
        ]
        forward = TfidfTable({row.term: row for row in tied})
        backward = TfidfTable({row.term: row for row in reversed(tied)})
        for table in (forward, backward):
            assert [r.term for r in table.top_by_difference(3)] == [
                "alpha", "bravo", "charlie",
            ]
            assert [r.term for r in table.top_by_corpus_weight(3)] == [
                "alpha", "bravo", "charlie",
            ]

    def test_weights_do_not_depend_on_the_hash_seed(self):
        code = (
            "from collections import Counter\n"
            "from repro.analysis.tfidf import compute_tfidf_table\n"
            "read = [f'w{i % 37}' for i in range(300)]\n"
            "every = [f'w{i % 911}' for i in range(7 * 911 + 5)]\n"
            "table = compute_tfidf_table(Counter(read), Counter(every))\n"
            "print(sorted((r.term, r.tfidf_r.hex(), r.tfidf_a.hex())"
            " for r in table.rows.values()))\n"
            "print([r.term for r in table.top_by_difference(20)])\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = {
            subprocess.run(
                [sys.executable, "-c", code],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                capture_output=True, text=True, check=True,
            ).stdout
            for seed in ("0", "1", "2")
        }
        assert len(outputs) == 1


class TestEcdf:
    def test_evaluate(self):
        ecdf = Ecdf.from_sample([1.0, 2.0, 3.0, 4.0])
        assert ecdf.evaluate(0.5) == 0.0
        assert ecdf.evaluate(2.0) == 0.5
        assert ecdf.evaluate(10.0) == 1.0

    def test_quantile(self):
        ecdf = Ecdf.from_sample([10.0, 20.0, 30.0, 40.0])
        assert ecdf.quantile(0.5) == 20.0
        assert ecdf.quantile(1.0) == 40.0
        assert ecdf.median == 20.0

    def test_series(self):
        ecdf = Ecdf.from_sample([3.0, 1.0])
        assert ecdf.series() == [(1.0, 0.5), (3.0, 1.0)]

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            Ecdf.from_sample([])

    def test_bad_quantile(self):
        ecdf = Ecdf.from_sample([1.0])
        with pytest.raises(AnalysisError):
            ecdf.quantile(0.0)

    @settings(max_examples=100)
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=100,
        )
    )
    def test_monotone_and_bounded(self, values):
        ecdf = Ecdf.from_sample(values)
        assert 0.0 < ecdf.y[0] <= 1.0
        assert ecdf.y[-1] == pytest.approx(1.0)
        assert all(b >= a for a, b in zip(ecdf.y, ecdf.y[1:]))
