"""Session graph construction and interval normalization."""

import math

import numpy as np
import pytest

from hypersess.graph import (
    IntervalNormalizer,
    SessionRecord,
    batch_graphs,
    build_session_graph,
    neighborhood,
)
from hypersess.manifold import EPS_BALL

NORM = IntervalNormalizer()


class TestNormalizeInterval:
    def test_zero(self):
        assert NORM(0) == 0.0

    def test_saturates_at_cap(self):
        assert NORM(86400) == 1.0 - EPS_BALL
        assert NORM(10 * 86400) == 1.0 - EPS_BALL

    def test_gap_too_large_for_a_float(self):
        # 10**400 / tau overflows a float; a gap at or past cap saturates first
        assert NORM(10**400) == 1.0 - EPS_BALL
        assert NORM(NORM.cap) == 1.0 - EPS_BALL
        assert IntervalNormalizer(tau=1.0, cap=10.0)(10**400) == 1.0 - EPS_BALL

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
        assert neighborhood(g, g.node_index["B"], "in") == [(0, NORM(10)), (1, 0.0)]

    def test_self_only(self):
        g = build_session_graph(SessionRecord("s", [("A", 0), ("B", 10)]), NORM)
        assert neighborhood(g, g.node_index["A"], "in") == [(0, 0.0)]

    def test_explicit_self_loop_interval_wins(self):
        g = build_session_graph(SessionRecord("s", [("A", 0), ("A", 7)]), NORM)
        assert neighborhood(g, 0, "in") == [(0, NORM(7))]

    def test_out_of_range(self):
        g = build_session_graph(SessionRecord("s", [("A", 0), ("B", 10)]), NORM)
        with pytest.raises(IndexError):
            neighborhood(g, 5, "in")
        with pytest.raises(IndexError):
            neighborhood(g, -1, "out")

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


def scanned_neighborhood(g, i, direction):
    """A node's neighborhood by scanning every edge, from the definition:
    itself at interval 0 unless it has a self-loop, its predecessors ("in"),
    its successors ("out"), or both with the smaller interval."""
    preds, succs = {i: 0.0}, {i: 0.0}
    for src, dst, interval in g.edges:
        if dst == i:
            preds[src] = interval
        if src == i:
            succs[dst] = interval
    if direction == "in":
        return sorted(preds.items())
    if direction == "out":
        return sorted(succs.items())
    merged = dict(succs)
    for j, interval in preds.items():
        merged[j] = min(interval, merged.get(j, interval))
    return sorted(merged.items())


class TestBatchGraphs:
    def random_graphs(self, rng):
        graphs = []
        for _ in range(rng.integers(1, 5)):
            t, events = 0, []
            for _ in range(rng.integers(1, 9)):
                t += int(rng.choice([0, 0, 5, 100, 7200]))
                events.append((str(rng.choice(list("abcd"))), t))
            graphs.append(build_session_graph(SessionRecord("s", events), NORM, min_events=1))
        return graphs

    @pytest.mark.parametrize("direction", ["in", "out", "both"])
    def test_entries_are_the_neighborhoods(self, direction):
        # repeats, self-loops and equal timestamps all occur among the draws
        rng = np.random.default_rng(12)
        for _ in range(200):
            graphs = self.random_graphs(rng)
            batch = batch_graphs(graphs, direction)
            expected = []
            base = 0
            for g in graphs:
                for i in range(g.n_nodes):
                    pairs = scanned_neighborhood(g, i, direction)
                    assert neighborhood(g, i, direction) == pairs
                    expected += [(base + i, base + j, iv) for j, iv in pairs]
                base += g.n_nodes
            got = list(zip(batch.dst.tolist(), batch.src.tolist(), batch.interval.tolist()))
            assert got == expected

    def test_segments_and_last_nodes(self):
        graphs = [
            build_session_graph(SessionRecord("s1", [("a", 0), ("b", 10), ("a", 20)]), NORM),
            build_session_graph(SessionRecord("s2", [("c", 0)]), NORM, min_events=1),
            build_session_graph(SessionRecord("s3", [("a", 0), ("d", 5), ("e", 9)]), NORM),
        ]
        batch = batch_graphs(graphs)
        assert batch.node_session.tolist() == [0, 0, 1, 2, 2, 2]
        assert batch.last.tolist() == [0, 2, 5]
        assert (batch.n_nodes, batch.n_sessions) == (6, 3)

    def test_self_loop_replaces_the_self_entry(self):
        g = build_session_graph(SessionRecord("s", [("a", 0), ("a", 30)]), NORM)
        batch = batch_graphs([g])
        assert batch.interval.tolist() == [NORM(30)]

    def test_unknown_direction(self):
        g = build_session_graph(SessionRecord("s", [("a", 0), ("b", 30)]), NORM)
        with pytest.raises(ValueError):
            batch_graphs([g], "diagonal")
