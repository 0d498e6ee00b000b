"""Tests for repro.analysis.detector (the Discussion-section defence)."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.detector import (
    AccountAnomalyDetector,
    DurationModel,
    VocabularyModel,
)
from repro.attackers.casestudies import BLACKMAIL_BODY
from repro.corpus.enron import CorpusGenerator
from repro.errors import AnalysisError


@pytest.fixture()
def corpus_texts(rng):
    generator = CorpusGenerator(rng)
    return [e.text for e in generator.generate_mailbox(150)]


class TestVocabularyModel:
    def test_untrained_rejected(self):
        with pytest.raises(AnalysisError):
            VocabularyModel().term_surprisal("payment")

    def test_known_term_less_surprising(self, corpus_texts):
        model = VocabularyModel()
        model.train(corpus_texts)
        assert model.term_surprisal("energy") < model.term_surprisal(
            "bitcoin"
        )

    def test_score_empty_text(self, corpus_texts):
        model = VocabularyModel()
        model.train(corpus_texts)
        assert model.score_text("") == 0.0

    def test_corpus_text_scores_below_blackmail(self, corpus_texts):
        model = VocabularyModel()
        model.train(corpus_texts)
        benign = model.score_text(corpus_texts[0])
        malicious = model.score_text(BLACKMAIL_BODY)
        assert malicious > benign

    @settings(max_examples=100)
    @given(st.text(max_size=200))
    def test_scores_finite_and_nonnegative(self, text):
        model = VocabularyModel()
        model.train(["the company energy transfer report arrived"])
        score = model.score_text(text)
        assert score >= 0.0
        assert math.isfinite(score)


class TestDurationModel:
    def test_needs_two_samples(self):
        model = DurationModel()
        model.train([60.0])
        with pytest.raises(AnalysisError):
            model.z_score(60.0)

    def test_typical_duration_low_z(self):
        model = DurationModel()
        rng = random.Random(1)
        model.train([rng.lognormvariate(math.log(600), 0.5)
                     for _ in range(200)])
        assert model.z_score(600.0) < 1.0

    def test_extreme_duration_high_z(self):
        model = DurationModel()
        rng = random.Random(1)
        model.train([rng.lognormvariate(math.log(600), 0.5)
                     for _ in range(200)])
        assert model.z_score(86400.0 * 14) > 3.0

    def test_nonpositive_duration_ignored(self):
        model = DurationModel()
        model.train([0.0, -5.0, 60.0, 120.0])
        assert model.is_trained
        assert model.z_score(0.0) == 0.0


class TestCombinedDetector:
    @pytest.fixture()
    def detector(self, corpus_texts):
        detector = AccountAnomalyDetector()
        rng = random.Random(2)
        benign_durations = [
            rng.lognormvariate(math.log(900), 0.6) for _ in range(100)
        ]
        detector.train(corpus_texts, benign_durations)
        return detector

    def test_benign_access_passes(self, detector, corpus_texts):
        verdict = detector.assess(corpus_texts[5], 900.0)
        assert not verdict.is_anomalous

    def test_blackmail_content_flagged(self, detector):
        verdict = detector.assess(BLACKMAIL_BODY, 900.0)
        assert verdict.is_anomalous
        assert verdict.vocabulary_score > detector.vocabulary_threshold

    def test_weird_duration_flagged(self, detector, corpus_texts):
        verdict = detector.assess(corpus_texts[5], 86400.0 * 30)
        assert verdict.is_anomalous
        assert verdict.duration_z > detector.duration_z_threshold

    def test_verdict_fields(self, detector, corpus_texts):
        verdict = detector.assess(corpus_texts[0], 600.0)
        assert verdict.vocabulary_score >= 0.0
        assert verdict.duration_z >= 0.0
