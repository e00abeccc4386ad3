"""Tests for configuration objects."""

import pytest

from repro.config import NaiveConfig, RankingWeights, TPWConfig


class TestRankingWeights:
    def test_defaults(self):
        weights = RankingWeights()
        assert weights.match_weight == 1.0
        assert weights.join_weight == 0.05

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            RankingWeights(match_weight=-1.0)
        with pytest.raises(ValueError):
            RankingWeights(join_weight=-0.1)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            RankingWeights().match_weight = 2.0  # type: ignore[misc]


class TestTPWConfig:
    def test_paper_defaults(self):
        config = TPWConfig()
        assert config.pmnj == 2
        assert config.allow_backtrack is False
        assert config.exhaustive_weave is False

    def test_negative_pmnj_rejected(self):
        with pytest.raises(ValueError):
            TPWConfig(pmnj=-1)

    def test_custom_ranking(self):
        config = TPWConfig(ranking=RankingWeights(join_weight=0.2))
        assert config.ranking.join_weight == 0.2


class TestNaiveConfig:
    def test_defaults(self):
        config = NaiveConfig()
        assert config.pmnj == 2
        assert config.max_candidates == 200_000

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            NaiveConfig(pmnj=-1)
        with pytest.raises(ValueError):
            NaiveConfig(max_candidates=-1)
