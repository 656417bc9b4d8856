"""Metric checks against brute-force oracles."""

import numpy as np
import pytest

from storerank import metrics as M
from oracles import pairwise_auc, grouped_gauc, naive_logloss


@pytest.fixture
def rng():
    return np.random.default_rng(123)


class TestAuc:
    def test_perfect_ordering(self):
        assert M.auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0

    def test_all_ties(self):
        assert M.auc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            M.auc([1, 1, 1], [0.1, 0.2, 0.3])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            M.auc([0, 1], [0.1, np.nan])

    def test_matches_pairwise_oracle_exactly(self, rng):
        for trial in range(10):
            n = 200
            labels = rng.integers(0, 2, size=n)
            labels[0], labels[1] = 0, 1
            # coarse grid forces plenty of ties
            scores = rng.integers(0, 20, size=n) / 19.0
            # signed zeros tie with each other; all-tied scores give 0.5
            signed_zeros = rng.choice([-0.0, 0.0, 1.0], size=n)
            for s in (scores, signed_zeros, np.full(n, -0.0), np.full(n, 0.7)):
                assert M.auc(labels, s) == pairwise_auc(labels, s)

    def test_invariant_under_monotone_transform(self, rng):
        labels = rng.integers(0, 2, size=150)
        labels[:2] = [0, 1]
        scores = rng.uniform(size=150)
        assert M.auc(labels, scores) == M.auc(labels, np.exp(3.0 * scores) + 7.0)


class TestGauc:
    def test_single_group_equals_auc(self, rng):
        labels = rng.integers(0, 2, size=60)
        labels[:2] = [0, 1]
        scores = rng.uniform(size=60)
        groups = np.zeros(60, dtype=int)
        assert M.gauc(labels, scores, groups) == M.auc(labels, scores)

    def test_weighting_formula(self):
        # group a (10 rows): perfectly ordered. group b (30 rows): all tied.
        labels = np.r_[np.repeat([0, 1], 5), np.tile([0, 1], 15)]
        scores = np.r_[np.repeat([0.1, 0.9], 5), np.full(30, 0.5)]
        groups = np.r_[np.full(10, "a"), np.full(30, "b")]
        assert M.gauc(labels, scores, groups) == (10 * 1.0 + 30 * 0.5) / 40

    def test_single_class_groups_skipped(self):
        labels = np.array([1, 1, 0, 1])
        scores = np.array([0.9, 0.8, 0.2, 0.7])
        groups = np.array([0, 0, 1, 1])
        assert M.gauc(labels, scores, groups) == 1.0

    def test_no_valid_group_rejected(self):
        with pytest.raises(ValueError):
            M.gauc([1, 1, 0], [0.5, 0.6, 0.7], [0, 0, 1])

    def test_matches_grouped_oracle(self, rng):
        for trial in range(5):
            n = 300
            labels = rng.integers(0, 2, size=n)
            scores = rng.integers(0, 10, size=n) / 9.0
            groups = rng.integers(0, 12, size=n)
            assert M.gauc(labels, scores, groups) == grouped_gauc(labels, scores, groups)

    def test_many_groups_sum_in_sorted_order(self, rng):
        # with hundreds of groups, any other summation order than the
        # oracle's running sum would round differently
        for trial in range(3):
            n = 3000
            labels = rng.integers(0, 2, size=n)
            scores = rng.uniform(size=n)
            groups = rng.integers(0, 500, size=n)
            assert M.gauc(labels, scores, groups) == grouped_gauc(labels, scores, groups)


class TestLogloss:
    def test_uninformative_score(self):
        assert M.logloss([0, 1, 0, 1], [0.5] * 4) == pytest.approx(np.log(2), abs=1e-12)

    def test_perfect_score_clipped(self):
        val = M.logloss([0, 1], [0.0, 1.0])
        assert 0.0 < val < 2e-7

    def test_matches_formula_oracle(self, rng):
        labels = rng.integers(0, 2, size=500)
        scores = rng.uniform(size=500)
        want = naive_logloss(labels, scores, eps=M.LOGLOSS_CLIP)
        assert abs(M.logloss(labels, scores) - want) < 1e-12
