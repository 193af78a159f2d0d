"""Session graph construction and interval normalization."""

import math

import numpy as np
import pytest

from hypersess.graph import (
    IntervalNormalizer,
    SessionRecord,
    build_session_graph,
    in_neighbors,
    neighborhood,
    out_neighbors,
)
from hypersess.manifold import EPS_BALL

NORM = IntervalNormalizer()


class TestNormalizeInterval:
    def test_zero(self):
        assert NORM(0) == 0.0

    def test_saturates_at_cap(self):
        assert NORM(86400) == 1.0 - EPS_BALL
        assert NORM(10 * 86400) == 1.0 - EPS_BALL

    def test_closed_form(self):
        # log(2)/log(1441) ~= 0.0953
        out = NORM(60)
        assert out == pytest.approx(math.log(2) / math.log(1441), abs=1e-12)
        assert out == pytest.approx(0.0953, abs=2e-4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            NORM(-1)

    def test_monotone(self):
        rng = np.random.default_rng(0)
        deltas = np.sort(rng.integers(0, 200000, size=200))
        vals = [NORM(int(d)) for d in deltas]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 - EPS_BALL for v in vals)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            IntervalNormalizer(tau=0.0)
        with pytest.raises(ValueError):
            IntervalNormalizer(cap=-5.0)


class TestSessionRecord:
    def test_decreasing_timestamps_rejected(self):
        with pytest.raises(ValueError):
            SessionRecord("s", [("a", 10), ("b", 5)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SessionRecord("s", [])


class TestBuildGraph:
    def test_basic_construction(self):
        rec = SessionRecord("s", [("A", 0), ("B", 10), ("A", 25), ("C", 30)])
        g = build_session_graph(rec, NORM)
        assert g.nodes == ["A", "B", "C"]
        assert g.last_index == g.node_index["C"]
        assert g.last_timestamp == 30
        edges = {(s, d): iv for s, d, iv in g.edges}
        assert set(edges) == {(0, 1), (1, 0), (0, 2)}
        assert edges[(0, 1)] == NORM(10)
        assert edges[(1, 0)] == NORM(15)
        assert edges[(0, 2)] == NORM(5)

    def test_duplicate_pair_keeps_minimum(self):
        rec = SessionRecord("s", [("A", 0), ("B", 10), ("A", 20), ("B", 23)])
        g = build_session_graph(rec, NORM)
        edges = {(s, d): iv for s, d, iv in g.edges}
        assert edges[(0, 1)] == NORM(3)
        assert edges[(1, 0)] == NORM(10)

    def test_repeat_click_self_loop(self):
        rec = SessionRecord("s", [("A", 0), ("A", 7)])
        g = build_session_graph(rec, NORM)
        assert g.nodes == ["A"]
        assert g.edges == [(0, 0, NORM(7))]

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            build_session_graph(SessionRecord("s", [("A", 0)]), NORM)

    def test_min_events_override_for_prefixes(self):
        g = build_session_graph(SessionRecord("s", [("A", 0)]), NORM, min_events=1)
        assert g.nodes == ["A"] and g.edges == []

    def test_deterministic(self):
        rec = SessionRecord("s", [("A", 0), ("B", 10), ("A", 25), ("C", 30)])
        a, b = build_session_graph(rec, NORM), build_session_graph(rec, NORM)
        assert a.nodes == b.nodes and a.edges == b.edges

    def test_node_and_edge_counts(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            items = [f"i{rng.integers(0, 5)}" for _ in range(n)]
            times = np.cumsum(rng.integers(0, 100, size=n)).tolist()
            rec = SessionRecord("s", list(zip(items, times)))
            g = build_session_graph(rec, NORM)
            assert len(g.nodes) == len(set(items))
            assert len(g.edges) <= n - 1
            assert all(0.0 <= iv <= 1.0 - EPS_BALL for _, _, iv in g.edges)


class TestNeighbors:
    def test_predecessor_plus_self(self):
        g = build_session_graph(SessionRecord("s", [("A", 0), ("B", 10)]), NORM)
        assert in_neighbors(g, g.node_index["B"]) == [(0, NORM(10)), (1, 0.0)]

    def test_self_only(self):
        g = build_session_graph(SessionRecord("s", [("A", 0), ("B", 10)]), NORM)
        assert in_neighbors(g, g.node_index["A"]) == [(0, 0.0)]

    def test_explicit_self_loop_interval_wins(self):
        g = build_session_graph(SessionRecord("s", [("A", 0), ("A", 7)]), NORM)
        assert in_neighbors(g, 0) == [(0, NORM(7))]

    def test_out_of_range(self):
        g = build_session_graph(SessionRecord("s", [("A", 0), ("B", 10)]), NORM)
        with pytest.raises(IndexError):
            in_neighbors(g, 5)
        with pytest.raises(IndexError):
            out_neighbors(g, -1)

    def test_directions(self):
        g = build_session_graph(
            SessionRecord("s", [("A", 0), ("B", 10), ("C", 25)]), NORM
        )
        b = g.node_index["B"]
        assert neighborhood(g, b, "in") == [(0, NORM(10)), (1, 0.0)]
        assert neighborhood(g, b, "out") == [(1, 0.0), (2, NORM(15))]
        assert neighborhood(g, b, "both") == [(0, NORM(10)), (1, 0.0), (2, NORM(15))]
        with pytest.raises(ValueError):
            neighborhood(g, b, "sideways")
