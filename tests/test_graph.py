"""Session graph construction and interval normalization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypersess.graph import (
    DIRECTIONS,
    IntervalNormalizer,
    SessionRecord,
    batch_graphs,
    batch_sessions,
    build_session_graph,
    examples_from_records,
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

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="nan"):
            NORM(float("nan"))

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

    @pytest.mark.parametrize("tau, cap", [(60.0, 86400.0), (1.0, 10.0), (0.3, 7.0),
                                          (3600.0, 60.0), (1e-3, 1e9)])
    def test_closed_form_bits(self, tau, cap):
        norm = IntervalNormalizer(tau=tau, cap=cap)
        gaps = [0, 1, 2, 7, 59, 60, 61, 3599, 86399, 0.5, 1e-9, cap / 3, cap * (1 - 1e-12)]
        for d in gaps:
            if d >= cap:
                continue
            expected = min(math.log1p(d / tau) / math.log1p(cap / tau), 1.0 - EPS_BALL)
            assert norm(d) == expected, d
        assert norm(cap) == norm(2 * cap) == 1.0 - EPS_BALL

    @pytest.mark.parametrize("tau, cap", [(60.0, 86400.0), (1.0, 10.0), (3600.0, 60.0)])
    def test_array_form_has_the_bits_of_call(self, tau, cap):
        norm = IntervalNormalizer(tau=tau, cap=cap)
        rng = np.random.default_rng(5)
        for gaps in (np.arange(200_000),
                     [cap, 2 * cap, cap * (1 + 1e-15), 10**12, float("inf")],
                     rng.uniform(0, 2 * cap, 1000), rng.exponential(tau, 1000),
                     [0.5, 1e-300, 5e-324, 0.0, cap * (1 - 1e-16)],
                     [10**400, 0, 7]):
            got = norm.normalize(gaps)
            assert got.dtype == np.float64
            expected = np.array([norm(g) for g in np.asarray(gaps).tolist()])
            assert got.tobytes() == expected.tobytes()
        assert norm.normalize([]).shape == (0,)

    @pytest.mark.parametrize("bad", [-1, float("nan"), -1e-300])
    def test_array_form_rejects_what_call_rejects(self, bad):
        with pytest.raises(ValueError, match="negative or NaN time interval"):
            NORM.normalize([0, 5, bad, 7])

    def test_value_semantics(self):
        # the cached log(1 + cap/tau) takes no part in equality, hash or repr
        assert IntervalNormalizer() == IntervalNormalizer(60.0, 86400.0)
        assert IntervalNormalizer() != IntervalNormalizer(tau=30.0)
        assert hash(IntervalNormalizer()) == hash(IntervalNormalizer(60.0, 86400.0))
        assert repr(IntervalNormalizer()) == "IntervalNormalizer(tau=60.0, cap=86400.0)"
        with pytest.raises(AttributeError):
            IntervalNormalizer().tau = 1.0


class TestSessionRecord:
    def test_decreasing_timestamps_rejected(self):
        with pytest.raises(ValueError):
            SessionRecord("s", [("a", 10), ("b", 5)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SessionRecord("s", [])

    def test_nan_timestamp_rejected_naming_the_session(self):
        with pytest.raises(ValueError, match="session s7"):
            SessionRecord("s7", [("a", 0), ("b", float("nan")), ("c", 5)])


class TestBuildGraph:
    def test_basic_construction(self):
        rec = SessionRecord("s", [("A", 0), ("B", 10), ("A", 25), ("C", 30)])
        g = build_session_graph(rec, NORM)
        assert g.nodes == ["A", "B", "C"]
        assert g.last_index == g.node_index["C"]
        edges = {(s, d): iv for s, d, iv in g.edges}
        assert set(edges) == {(0, 1), (1, 0), (0, 2)}
        assert edges[(0, 1)] == NORM(10)
        assert edges[(1, 0)] == NORM(15)
        assert edges[(0, 2)] == NORM(5)

    def test_duplicate_pair_keeps_minimum(self):
        # A -> B at gaps 3 s then 20 s; a self-loop on C at gaps 50 s then 2 s
        events = [("A", 0), ("B", 3), ("A", 10), ("B", 30), ("C", 40), ("C", 90), ("C", 92)]
        g = build_session_graph(SessionRecord("s", events), NORM)
        a, b, c = (g.node_index[x] for x in "ABC")
        assert neighborhood(g, b, "in") == [(a, NORM(3)), (b, 0.0)]
        assert neighborhood(g, a, "out") == [(a, 0.0), (b, NORM(3))]
        assert neighborhood(g, a, "both") == [(a, 0.0), (b, NORM(3))]
        assert neighborhood(g, c, "in") == [(b, NORM(10)), (c, NORM(2))]
        assert neighborhood(g, c, "out") == [(c, NORM(2))]
        assert neighborhood(g, c, "both") == [(b, NORM(10)), (c, NORM(2))]

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

    def test_prefix_graphs_equal_record_graphs(self):
        # revisits, self-loops and equal timestamps all occur among the draws
        rng = np.random.default_rng(4)
        records = []
        for k in range(120):
            t, events = 0, []
            for _ in range(rng.integers(1, 12)):
                t += int(rng.choice([0, 0, 3, 60, 7200]))
                events.append((str(rng.choice(list("abcde"))), t))
            records.append(SessionRecord(f"s{k}", events))
        for augment in (False, True):
            examples = iter(examples_from_records(records, NORM, augment_prefixes=augment))
            for rec in records:
                n = len(rec.events)
                for c in (range(2, n + 1) if augment else [n] if n >= 2 else []):
                    ex = next(examples)
                    g = build_session_graph(SessionRecord(rec.session_id, rec.events[:c - 1]),
                                            NORM, min_events=1)
                    assert ex.graph == g
                    assert ex.target_item == rec.events[c - 1][0]
                    assert ex.target_interval == NORM(rec.events[c - 1][1] - rec.events[c - 2][1])
            assert next(examples, None) is None

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
            assert len(g.edges) == n - 1
            assert g.edges == [(g.node_index[a], g.node_index[b], NORM(tb - ta))
                               for (a, ta), (b, tb) in zip(rec.events, rec.events[1:])]
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
    its successors ("out"), or both with the smaller interval; a pair
    clicked more than once keeps its smallest interval."""
    preds, succs = {}, {}
    for src, dst, interval in g.edges:
        if dst == i:
            preds[src] = min(interval, preds.get(src, interval))
        if src == i:
            succs[dst] = min(interval, succs.get(dst, interval))
    preds.setdefault(i, 0.0)
    succs.setdefault(i, 0.0)
    if direction == "in":
        return sorted(preds.items())
    if direction == "out":
        return sorted(succs.items())
    merged = dict(succs)
    for j, interval in preds.items():
        merged[j] = min(interval, merged.get(j, interval))
    return sorted(merged.items())


def assert_dtypes(batch):
    for name in ("dst", "src", "node_session", "last"):
        assert getattr(batch, name).dtype == np.intp, name
    assert batch.interval.dtype == np.float64


def assert_batch_is_neighborhoods(batch, graphs, direction):
    """The batch's entries are each graph's scanned neighborhoods, in order."""
    expected, sessions, last = [], [], []
    base = 0
    for b, g in enumerate(graphs):
        for i in range(g.n_nodes):
            expected += [(base + i, base + j, iv) for j, iv in scanned_neighborhood(g, i, direction)]
        sessions += [b] * g.n_nodes
        last.append(base + g.last_index)
        base += g.n_nodes
    got = list(zip(batch.dst.tolist(), batch.src.tolist(), batch.interval.tolist()))
    assert got == expected
    assert batch.node_session.tolist() == sessions
    assert batch.last.tolist() == last
    assert_dtypes(batch)


class TestBatchGraphs:
    def random_graph(self, rng):
        t, events = 0, []
        for _ in range(rng.integers(1, 9)):
            t += int(rng.choice([0, 0, 5, 100, 7200]))
            events.append((str(rng.choice(list("abcd"))), t))
        return build_session_graph(SessionRecord("s", events), NORM, min_events=1)

    def random_graphs(self, rng):
        return [self.random_graph(rng) for _ in range(rng.integers(1, 5))]

    @pytest.mark.parametrize("direction", ["in", "out", "both"])
    def test_entries_are_the_neighborhoods(self, direction):
        # repeats, self-loops and equal timestamps all occur among the draws
        rng = np.random.default_rng(12)
        for _ in range(200):
            graphs = self.random_graphs(rng)
            assert_batch_is_neighborhoods(batch_graphs(graphs, direction), graphs, direction)
            for g in graphs:
                for i in range(g.n_nodes):
                    assert neighborhood(g, i, direction) == scanned_neighborhood(g, i, direction)

    @pytest.mark.parametrize("direction", ["in", "out", "both"])
    def test_large_batches_are_the_neighborhoods(self, direction):
        rng = np.random.default_rng(21)
        for size in (64, 1, 17, 64, 40):
            graphs = [self.random_graph(rng) for _ in range(size)]
            assert_batch_is_neighborhoods(batch_graphs(graphs, direction), graphs, direction)

    def test_reciprocal_edges_under_both(self):
        # a <-> b with equal intervals, b <-> c with unequal ones, a self-loop on c
        events = [("a", 0), ("b", 10), ("a", 20), ("c", 21), ("b", 26), ("c", 126), ("c", 127)]
        g = build_session_graph(SessionRecord("s", events), NORM)
        assert {(s, d) for s, d, _ in g.edges} >= {(0, 1), (1, 0), (1, 2), (2, 1), (2, 2)}
        batch = batch_graphs([g, g], "both")
        assert_batch_is_neighborhoods(batch, [g, g], "both")
        entries = {(d, s): iv for d, s, iv in zip(batch.dst.tolist(), batch.src.tolist(),
                                                  batch.interval.tolist())}
        assert entries[(0, 1)] == entries[(1, 0)] == NORM(10)
        assert entries[(1, 2)] == entries[(2, 1)] == NORM(5)
        assert entries[(2, 2)] == NORM(1)

    def test_single_node_graphs_and_the_empty_batch(self):
        lone = build_session_graph(SessionRecord("s", [("a", 0)]), NORM, min_events=1)
        for direction in ("in", "out", "both"):
            batch = batch_graphs([lone, lone, lone], direction)
            assert_batch_is_neighborhoods(batch, [lone] * 3, direction)
            assert batch.dst.tolist() == batch.src.tolist() == [0, 1, 2]
            assert batch.interval.tolist() == [0.0, 0.0, 0.0]
            empty = batch_graphs([], direction)
            assert (empty.n_nodes, empty.n_sessions, len(empty.dst)) == (0, 0, 0)
            assert_dtypes(empty)

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


def session_strategy():
    """Sessions of 1-7 events over items a-d and the unknown zz, timestamps
    int, float or mixed, gaps from 0 to past cap, repeats and self-loops
    frequent."""
    gap = st.one_of(st.integers(0, 200_000), st.sampled_from([0, 0, 1, 60, NORM.cap, 10**7]),
                    st.floats(0, 2e5, allow_subnormal=False))
    event = st.tuples(st.sampled_from(["a", "a", "b", "c", "d", "d", "zz"]), gap, st.booleans())

    def timed(draws):
        t, events = 0, []
        for item, g, as_float in draws:
            t += g
            events.append((item, float(t) if as_float else t))
        return events

    return st.lists(event, min_size=1, max_size=7).map(timed)


ITEM_ROWS = {"b": 0, "d": 1, "a": 2, "c": 3}  # rows not in item-id order


def assert_same_array(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


class TestBatchSessions:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(session_strategy(), max_size=9), st.sampled_from(DIRECTIONS),
           st.integers(0, 9))
    def test_equals_batch_graphs_of_the_examples(self, sessions, direction, cut):
        records = [SessionRecord(f"s{k}", events) for k, events in enumerate(sessions)]
        got = batch_sessions(records, ITEM_ROWS, NORM, direction)
        usable = [rec for rec in records if len(rec.events) >= 2
                  and all(item in ITEM_ROWS for item, _ in rec.events)]
        assert got.records == usable
        examples = examples_from_records(usable, NORM)
        expected = batch_graphs([ex.graph for ex in examples], direction)
        for name in ("dst", "src", "interval", "node_session", "last"):
            assert_same_array(getattr(got.batch, name), getattr(expected, name))
        assert_same_array(got.node_rows, np.array(
            [ITEM_ROWS[it] for ex in examples for it in ex.graph.nodes], dtype=np.intp))
        assert got.targets == [ex.target_item for ex in examples]
        assert_same_array(got.intervals, np.array([ex.target_interval for ex in examples]))
        # the examples' intervals are the scalar normalizer's
        for rec, ex in zip(usable, examples):
            (_, before), (_, after) = rec.events[-2:]
            assert ex.target_interval == NORM(after - before)
            gaps = [NORM(t - s) for (_, s), (_, t) in zip(rec.events[:-1], rec.events[1:-1])]
            assert [iv for _, _, iv in ex.graph.edges] == gaps
        # a slice of the batch is the batch of the slice
        cut = min(cut, len(usable))
        for start, stop in ((0, cut), (cut, len(usable))):
            part, alone = got.select(start, stop), batch_sessions(
                usable[start:stop], ITEM_ROWS, NORM, direction)
            assert part.records == alone.records and part.targets == alone.targets
            for name in ("dst", "src", "interval", "node_session", "last"):
                assert_same_array(getattr(part.batch, name), getattr(alone.batch, name))
            assert_same_array(part.node_rows, alone.node_rows)
            assert_same_array(part.intervals, alone.intervals)

    def test_skips_short_and_unknown_sessions(self):
        records = [SessionRecord("one", [("a", 0)]),
                   SessionRecord("alien", [("a", 0), ("zz", 5)]),
                   SessionRecord("ok", [("a", 0), ("a", 30), ("b", 40)]),
                   SessionRecord("alien-target", [("zz", 0), ("b", 5)])]
        got = batch_sessions(records, ITEM_ROWS, NORM)
        assert [rec.session_id for rec in got.records] == ["ok"]
        # the prefix a, a is one node with a self-loop
        assert got.node_rows.tolist() == [ITEM_ROWS["a"]]
        assert got.batch.interval.tolist() == [NORM(30)]
        assert got.targets == ["b"] and got.intervals.tolist() == [NORM(10)]
        empty = batch_sessions(records[:2], ITEM_ROWS, NORM)
        assert (empty.records, empty.batch.n_nodes, empty.batch.n_sessions) == ([], 0, 0)
        assert_dtypes(empty.batch)

    def test_nan_gap_rejected(self):
        inf = float("inf")
        records = [SessionRecord("s", [("a", inf), ("b", inf)])]
        with pytest.raises(ValueError, match="NaN"):
            batch_sessions(records, ITEM_ROWS, NORM)
        with pytest.raises(ValueError, match="NaN"):
            examples_from_records(records, NORM)
