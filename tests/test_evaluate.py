"""Test protocol, report determinism, baseline."""

import numpy as np
import pytest
from oracles import rand_ball

from hypersess import data, evaluate as ev, manifold as M, model, train
from hypersess.graph import IntervalNormalizer, SessionRecord

NORM = IntervalNormalizer()


def spread_params(seed, items, d=8):
    rng = np.random.default_rng(seed)
    p = model.init_params(list(items), d, rng)
    p.item_features = np.stack([rand_ball(rng, d, 0.5) for _ in items])
    return p


class TestEvaluate:
    def test_engineered_exact_hit(self):
        params = spread_params(0, ["a", "b", "c", "d"])
        params.feat_proj = np.eye(8)
        rec = SessionRecord("s", [("a", 0), ("b", 30), ("c", 75)])
        g_events = rec.events[:-1]
        from hypersess.graph import build_session_graph
        g = build_session_graph(SessionRecord("s", list(g_events)), NORM, min_events=1)
        t_norm = NORM(rec.events[-1][1] - rec.events[-2][1])
        fw = model.forward_session(g, t_norm, params)
        # plant the target exactly at the prediction
        params.item_features[params.item_index["c"]] = M.log_map0(fw.item_future)
        report = ev.evaluate(params, [rec], k=20, norm=NORM)
        assert report.mrr_at_k == 1.0 and report.p_at_k == 1.0
        assert report.n_test == 1

    def test_untrained_chance_level(self):
        # random params rank ~uniformly: P@20 over 100 items ~= 0.2.  A single
        # parameter draw yields correlated rankings across cases, so the band
        # is asserted on the mean over three independent draws.
        synth = data.generate_synthetic(100, 520, seed=21)
        vals = []
        for pseed in (1, 2, 3):
            params = spread_params(pseed, synth.items)
            report = ev.evaluate(params, synth.records[:500], k=20, norm=NORM)
            assert report.n_test >= 480
            vals.append(report.p_at_k)
        assert np.mean(vals) == pytest.approx(0.2, abs=0.05)

    def test_deterministic_reports(self):
        synth = data.generate_synthetic(20, 30, seed=3)
        params = spread_params(2, synth.items)
        r1 = ev.evaluate(params, synth.records, k=5, norm=NORM)
        r2 = ev.evaluate(params, synth.records, k=5, norm=NORM)
        assert r1.csv_rows() == r2.csv_rows()
        assert (r1.mrr_at_k, r1.p_at_k, r1.n_test) == (r2.mrr_at_k, r2.p_at_k, r2.n_test)

    def test_checkpoint_reload_bit_identical(self, tmp_path):
        synth = data.generate_synthetic(15, 25, seed=4)
        config = train.TrainConfig(dim=8, epochs=2, batch_size=8, seed=6)
        examples = train.examples_from_records(synth.records[:20], config.normalizer())
        res = train.fit(examples, config, vocab=synth.items)
        path = tmp_path / "ck.npz"
        train.save_checkpoint(path, res.params, config)
        loaded, config2 = train.load_checkpoint(path)
        r1 = ev.evaluate(res.params, synth.records[20:], k=5, norm=config.normalizer())
        r2 = ev.evaluate(loaded, synth.records[20:], k=5, norm=config2.normalizer())
        assert r1.mrr_at_k == r2.mrr_at_k and r1.p_at_k == r2.p_at_k

    def test_short_and_unknown_sessions_skipped(self):
        params = spread_params(5, ["a", "b"])
        records = [
            SessionRecord("ok", [("a", 0), ("b", 10)]),
            SessionRecord("short", [("a", 0)]),
            SessionRecord("alien", [("a", 0), ("zz", 10)]),
        ]
        report = ev.evaluate(params, records, k=2, norm=NORM)
        assert report.n_test == 1 and report.skipped == 2

    def test_ranks_are_ints(self):
        params = spread_params(5, ["a", "b", "c"])
        records = [SessionRecord("ok", [("a", 0), ("b", 10), ("c", 30)]),
                   SessionRecord("short", [("a", 0)])]
        cases, skipped = ev.rank_test_sessions(params, records, NORM)
        ((rank, target),) = cases
        assert type(rank) is int and 1 <= rank <= 3 and target == "c" and skipped == 1

    def test_empty_split_rejected(self):
        params = spread_params(6, ["a", "b"])
        with pytest.raises(ValueError):
            ev.evaluate(params, [], k=2, norm=NORM)

    def test_metric_ordering_invariant(self):
        synth = data.generate_synthetic(30, 40, seed=7)
        params = spread_params(7, synth.items)
        report = ev.evaluate(params, synth.records, k=10, norm=NORM)
        assert 0.0 <= report.mrr_at_k <= report.p_at_k <= 1.0

    def test_nonfinite_prediction_names_session(self):
        params = spread_params(8, ["a", "b", "c"])
        params.item_future_proj = np.full_like(params.item_future_proj, np.nan)
        records = [SessionRecord("short", [("a", 0)]),
                   SessionRecord("s-bad", [("a", 0), ("b", 10), ("c", 30)])]
        with pytest.raises(ValueError, match="'s-bad'.*non-finite"):
            ev.evaluate(params, records, k=2, norm=NORM)

    def test_one_table_projection_per_call(self, monkeypatch):
        synth = data.generate_synthetic(20, 30, seed=3)
        params = spread_params(2, synth.items)
        calls = []
        project = model.project_item_table

        def counted(p):
            calls.append(p)
            return project(p)

        monkeypatch.setattr(model, "project_item_table", counted)
        report = ev.evaluate(params, synth.records, k=5, norm=NORM)
        assert report.n_test >= 3
        assert len(calls) == 1


def per_session_ranks(params, records):
    """rank_test_sessions written as one forward_session and one rank per
    session, with its skip rules."""
    table = model.ItemTable(params)
    cases, skipped = [], 0
    for rec in records:
        examples = train.examples_from_records([rec], NORM)
        if not examples or any(item not in params.item_index for item, _ in rec.events):
            skipped += 1
            continue
        (ex,) = examples
        fw = model.forward_session(ex.graph, ex.target_interval, params)
        cases.append((int(table.ranks(fw.item_future[None], [ex.target_item])[0]), ex.target_item))
    return cases, skipped


@pytest.fixture
def forward_batches(monkeypatch):
    """The number of sessions of each forward_batch call."""
    sizes = []
    forward = model.forward_batch

    def counted(batch, *args):
        sizes.append(batch.n_sessions)
        return forward(batch, *args)

    monkeypatch.setattr(model, "forward_batch", counted)
    return sizes


class TestBlocks:
    @pytest.mark.parametrize("block", [2, 3])
    def test_blocks_rank_as_single_sessions(self, monkeypatch, forward_batches, block):
        synth = data.generate_synthetic(20, 40, seed=5)
        params = spread_params(4, synth.items)
        records = ([SessionRecord("short", [(synth.items[0], 0)])] + synth.records[:15]
                   + [SessionRecord("alien", [(synth.items[0], 0), ("zz", 10)])] + synth.records[15:])
        expected, expected_skipped = per_session_ranks(params, records)
        forward_batches.clear()
        monkeypatch.setattr(ev, "BLOCK_BYTES", 8 * len(synth.items) * block)
        cases, skipped = ev.rank_test_sessions(params, records, NORM)
        assert (cases, skipped) == (expected, expected_skipped)
        assert len(cases) > 3 * block
        full, last = divmod(len(cases), block)
        assert forward_batches == [block] * full + ([last] if last else [])

    def test_failing_block_names_its_first_session(self, monkeypatch):
        params = spread_params(8, ["a", "b", "c"])
        params.item_future_proj = np.full_like(params.item_future_proj, np.nan)
        records = [SessionRecord("short", [("a", 0)])] + [
            SessionRecord(f"s{i}", [("a", 0), ("b", 10 * i), ("c", 30 * i)]) for i in range(1, 6)]
        monkeypatch.setattr(ev, "BLOCK_BYTES", 8 * 3 * 4)
        with pytest.raises(ValueError, match="^test session 's1': .*non-finite"):
            ev.rank_test_sessions(params, records, NORM)

    def test_failing_session_named_inside_its_block(self, monkeypatch):
        params = spread_params(8, ["a", "b", "c"])
        # session s<i> asks about 20 i seconds ahead; s3's prediction is spoilt
        records = [SessionRecord(f"s{i}", [("a", 0), ("b", 10), ("c", 10 + 20 * i)])
                   for i in range(1, 5)]
        forward = model.forward_batch

        def spoilt(batch, t_norm, initial, p):
            fw = forward(batch, t_norm, initial, p)
            fw.item_future[t_norm == NORM(60)] = np.nan
            return fw

        monkeypatch.setattr(model, "forward_batch", spoilt)
        monkeypatch.setattr(ev, "BLOCK_BYTES", 8 * 3 * 4)
        with pytest.raises(ValueError, match="^test session 's3': non-finite point"):
            ev.rank_test_sessions(params, records, NORM)


class TestPopularityBaseline:
    def test_repeated_item_ranks_first(self):
        train_recs = [SessionRecord("t", [("a", 0), ("b", 5), ("a", 9), ("c", 20)])]
        test_recs = [SessionRecord("s", [("a", 0), ("a", 4), ("b", 9), ("a", 12)])]
        mrr, p = ev.popularity_baseline(train_recs, test_recs, 5, ["a", "b", "c"])
        # prefix (a, a, b): 'a' dominates by count -> target 'a' at rank 1
        assert mrr == 1.0 and p == 1.0

    def test_global_popularity_backfill(self):
        train_recs = [SessionRecord("t", [("c", 0), ("c", 5), ("b", 9), ("c", 12)])]
        test_recs = [SessionRecord("s", [("a", 0), ("c", 30)])]
        # prefix has only 'a'; remaining catalog ordered by train counts: c, b
        mrr, p = ev.popularity_baseline(train_recs, test_recs, 2, ["a", "b", "c"])
        assert mrr == 0.5 and p == 1.0

    def test_k_below_one_rejected(self):
        records = [SessionRecord("s", [("a", 0), ("b", 9)])]
        with pytest.raises(ValueError, match="k must be positive"):
            ev.popularity_baseline(records, records, 0, ["a", "b"])

    def test_matches_list_ranking(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            vocab = [f"v{i}" for i in rng.permutation(int(rng.integers(1, 15)))]
            pool = vocab + ["out1", "out2"]   # test items outside the vocabulary

            def sessions(n, shortest):
                return [SessionRecord(f"s{j}", [(pool[int(rng.integers(len(pool)))], t)
                                                for t in range(int(rng.integers(shortest, 8)))])
                        for j in range(n)]

            train_recs, test_recs = sessions(10, 1), sessions(20, 2)
            k = int(rng.integers(1, 12))
            assert ev.popularity_baseline(train_recs, test_recs, k, vocab) == \
                list_ranking_baseline(train_recs, test_recs, k, vocab)


def list_ranking_baseline(train_records, test_records, k, vocabulary):
    """The popularity baseline written as one whole ranking list per test
    session, searched with ``list.index``."""
    global_counts = {it: 0 for it in vocabulary}
    for rec in train_records:
        for item, _ in rec.events:
            if item in global_counts:
                global_counts[item] += 1
    catalog_by_pop = sorted(vocabulary, key=lambda it: (-global_counts[it], it))
    total_rr, hits, n = 0.0, 0, 0
    for rec in test_records:
        if len(rec.events) < 2:
            continue
        prefix = [item for item, _ in rec.events[:-1]]
        target = rec.events[-1][0]
        counts, last_pos = {}, {}
        for pos, item in enumerate(prefix):
            counts[item] = counts.get(item, 0) + 1
            last_pos[item] = pos
        in_session = sorted(counts, key=lambda it: (-counts[it], -last_pos[it], it))
        ranking = in_session + [it for it in catalog_by_pop if it not in counts]
        n += 1
        if target in ranking[:k]:
            hits += 1
            total_rr += 1.0 / (ranking.index(target) + 1)
    return total_rr / n, hits / n
