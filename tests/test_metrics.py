"""Ranking metric values and invariants."""

import numpy as np
import pytest

from hypersess.metrics import mrr_at_k, p_at_k, rank_of


def case_with_rank(rank):
    """Target 'T' at the given 1-based rank."""
    return (rank, "T")


def miss_case():
    """A target that could not be ranked."""
    return (None, "T")


class TestMrr:
    def test_rank_one(self):
        assert mrr_at_k([case_with_rank(1)], 20) == 1.0

    def test_rank_four(self):
        assert mrr_at_k([case_with_rank(4)], 20) == 0.25

    def test_mix_with_miss(self):
        assert mrr_at_k([case_with_rank(2), miss_case()], 20) == 0.25

    def test_beyond_k_counts_zero(self):
        assert mrr_at_k([case_with_rank(7)], 5) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mrr_at_k([], 20)


class TestPrecision:
    def test_all_hits(self):
        assert p_at_k([case_with_rank(1), case_with_rank(5)], 20) == 1.0

    def test_no_hits(self):
        assert p_at_k([miss_case(), miss_case()], 20) == 0.0

    def test_three_of_four(self):
        cases = [case_with_rank(1), case_with_rank(2), case_with_rank(3), miss_case()]
        assert p_at_k(cases, 20) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            p_at_k([], 20)


class TestFixture:
    def test_five_case_hand_values(self):
        # ranks {1, 4, miss, 2, miss} at K = 20:
        # MRR = (1 + 0.25 + 0 + 0.5 + 0)/5 = 0.35, P = 3/5 = 0.6
        cases = [case_with_rank(1), case_with_rank(4), miss_case(),
                 case_with_rank(2), miss_case()]
        assert mrr_at_k(cases, 20) == 0.35
        assert p_at_k(cases, 20) == 0.6


class TestInvariants:
    def test_mrr_bounded_by_precision(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            cases = []
            for _ in range(int(rng.integers(1, 8))):
                if rng.random() < 0.3:
                    cases.append(miss_case())
                else:
                    cases.append(case_with_rank(int(rng.integers(1, 26))))
            k = int(rng.integers(1, 26))
            m, p = mrr_at_k(cases, k), p_at_k(cases, k)
            assert 0.0 <= m <= p <= 1.0

    def test_rank_of(self):
        assert rank_of(1, "a") == 1
        assert rank_of(26, "c") == 26
        assert rank_of(None, "z") is None

    def test_none_ranking_is_a_miss(self):
        assert rank_of(None, "a") is None
        assert mrr_at_k([(None, "a"), (2, "b")], 3) == 0.25
        assert p_at_k([(None, "a"), (2, "b")], 3) == 0.5

    def test_rank_of_an_int_is_that_rank(self):
        assert rank_of(3, "a") == 3
        assert mrr_at_k([(1, "a"), (4, "b"), (2, "c")], 3) == pytest.approx(0.5)
        assert p_at_k([(1, "a"), (4, "b"), (2, "c")], 3) == pytest.approx(2 / 3)
