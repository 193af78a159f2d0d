"""Model layers against hand values and straight-line oracles."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    o_item_future,
    o_layer,
    o_session_future,
    o_soft_attention,
    rand_ball,
)

from hypersess import manifold as M, model
from hypersess.graph import IntervalNormalizer, SessionRecord, batch_graphs, build_session_graph
from hypersess.manifold import EPS_BALL

NORM = IntervalNormalizer()


def make_params(rng, items=("a", "b", "c", "d", "e"), d=5, **kw):
    p = model.init_params(list(items), d, rng, **kw)
    for name in ("feat_proj", "att_last_proj", "att_item_proj",
                 "sess_future_proj", "item_future_proj"):
        setattr(p, name, rng.uniform(-0.7, 0.7, (d, d)) + 0.3 * np.eye(d))
    p.att_vec = rng.uniform(-0.8, 0.8, d)
    p.att_bias = rand_ball(rng, d, 0.3)
    p.time_proj = rng.uniform(-0.8, 0.8, d)
    p.item_features = np.stack([rand_ball(rng, d, 0.6) for _ in items])
    return p


def chain_graph(items_times):
    return build_session_graph(SessionRecord("s", items_times), NORM, min_events=1)


def batch_of(g, params):
    """One session graph as a batch, the layers' input form."""
    return batch_graphs([g], params.neighborhood)


def coefficients(state, g, i, params):
    """(source node, weight) of each of node i's attention entries."""
    batch = batch_of(g, params)
    weights = model._attention_weights(np.stack(state), batch, params)[:, 0]
    return [(int(batch.src[e]), weights[e]) for e in np.flatnonzero(batch.dst == i)]


class TestBoundParams:
    """Params with some fields bound by ``dataclasses.replace``, as ``fit``
    binds a minibatch's tape leaves."""

    def test_overrides_fields_and_rows_only(self):
        p = make_params(np.random.default_rng(0), num_layers=2, neighborhood="both")
        before = p.item_features.copy()
        vec, rows = np.full(5, 0.25), p.item_features.copy()
        rows[2] = 0.1
        b = replace(p, att_vec=vec, item_features=rows)
        assert isinstance(b, model.ModelParams)
        assert b.att_vec is vec
        np.testing.assert_array_equal(b.item_vec("c"), np.full(5, 0.1))
        assert b.feat_proj is p.feat_proj
        np.testing.assert_array_equal(b.item_vec("a"), p.item_vec("a"))
        assert (b.num_layers, b.neighborhood, b.dim) == (2, "both", 5)
        assert p.att_vec is not vec
        np.testing.assert_array_equal(p.item_features, before)

    def test_sub_catalog_indexes_its_own_items(self):
        # a copy made with a sub-catalog and its rows looks items up in it
        p = make_params(np.random.default_rng(2))
        b = replace(p, items=["b", "d"], item_features=p.item_features[[1, 3]])
        assert b.item_index == {"b": 0, "d": 1}
        np.testing.assert_array_equal(b.item_features[b.item_positions(["d", "b"])],
                                      p.item_features[[3, 1]])
        assert p.item_index == {it: i for i, it in enumerate("abcde")}


class TestItemLookup:
    @pytest.mark.parametrize("read", [
        lambda p: p.item_vec("zz"),
        lambda p: p.item_positions(["a", "zz", "yy"]),
        lambda p: model.ItemTable(p).ranks(np.zeros((1, 5)), ["zz"]),
        lambda p: model.forward_session(chain_graph([("a", 0), ("zz", 10)]), 0.3, p),
    ], ids=["item_vec", "item_positions", "ranks", "forward_session"])
    def test_unknown_item_named(self, read):
        p = make_params(np.random.default_rng(3))
        with pytest.raises(ValueError, match="^item 'zz' is not in the model's vocabulary$"):
            read(p)


class TestHyperbolicProjection:
    def test_zero_feature_maps_to_origin(self):
        params = make_params(np.random.default_rng(0))
        out = model.hyperbolic_projection(np.zeros(5), params)
        np.testing.assert_array_equal(out, np.zeros(5))

    def test_one_hot_identity_transform(self):
        params = make_params(np.random.default_rng(0))
        params.feat_proj = np.eye(5)
        out = model.hyperbolic_projection(np.eye(5)[2], params)
        expected = np.zeros(5)
        expected[2] = math.tanh(1.0)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_output_inside_shell(self):
        rng = np.random.default_rng(1)
        params = make_params(rng)
        for _ in range(50):
            out = model.hyperbolic_projection(rng.normal(size=5) * 10, params)
            assert np.linalg.norm(out) <= 1 - EPS_BALL + 1e-15

    def test_table_projection_matches_per_item(self):
        params = make_params(np.random.default_rng(2))
        table = model.project_item_table(params)
        for i, item in enumerate(params.items):
            per_item = model.hyperbolic_projection(params.item_vec(item), params)
            np.testing.assert_allclose(table[i], per_item, atol=1e-12)


class TestTimeEmbedding:
    def test_zero_interval_is_origin(self):
        params = make_params(np.random.default_rng(0))
        np.testing.assert_array_equal(model.time_embedding(0.0, params), np.zeros(5))

    def test_unit_column_preserves_norm(self):
        params = make_params(np.random.default_rng(0))
        params.time_proj = np.eye(5)[0]
        out = model.time_embedding(0.5, params)
        np.testing.assert_allclose(out, 0.5 * np.eye(5)[0], atol=1e-12)

    def test_double_column(self):
        params = make_params(np.random.default_rng(0))
        params.time_proj = 2.0 * np.eye(5)[0]
        out = model.time_embedding(0.5, params)
        np.testing.assert_allclose(out, 0.8 * np.eye(5)[0], atol=1e-12)

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5])
    def test_domain_enforced(self, bad):
        params = make_params(np.random.default_rng(0))
        with pytest.raises(ValueError):
            model.time_embedding(bad, params)


class TestAttentionCoefficients:
    def test_singleton_neighborhood(self):
        params = make_params(np.random.default_rng(0))
        g = chain_graph([("a", 0)])
        state = [rand_ball(np.random.default_rng(1), 5, 0.5)]
        weights = coefficients(state, g, 0, params)
        assert len(weights) == 1
        assert float(weights[0][1]) == pytest.approx(1.0, abs=1e-12)

    def test_equidistant_uniform(self):
        params = make_params(np.random.default_rng(0))
        g = chain_graph([("a", 0), ("b", 10), ("c", 20), ("a", 30)])
        # place all nodes identically: every pair distance zero
        point = rand_ball(np.random.default_rng(2), 5, 0.4)
        state = [point.copy() for _ in g.nodes]
        i = g.nodes.index("a")
        weights = coefficients(state, g, i, params)
        for _, w in weights:
            assert float(w) == pytest.approx(1.0 / len(weights), abs=1e-12)

    def test_softmax_of_zero_and_ln3(self):
        # distances {0, ln 3} at sign +1 -> weights (1/4, 3/4)
        params = make_params(np.random.default_rng(0), items=("a", "b"), d=2)
        g = chain_graph([("b", 0), ("a", 10)])
        state = [np.zeros(2), np.zeros(2)]
        state[g.nodes.index("b")] = np.array([0.5, 0.0])
        i = g.nodes.index("a")
        weights = dict(coefficients(state, g, i, params))
        assert float(weights[g.nodes.index("a")]) == pytest.approx(0.25, abs=1e-10)
        assert float(weights[g.nodes.index("b")]) == pytest.approx(0.75, abs=1e-10)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(3)
        params = make_params(rng)
        g = chain_graph([("a", 0), ("b", 7), ("c", 30), ("a", 41), ("d", 60)])
        state = [rand_ball(rng, 5, 0.7) for _ in g.nodes]
        for i in range(g.n_nodes):
            weights = coefficients(state, g, i, params)
            total = sum(float(w) for _, w in weights)
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_sign_flag_flips_preference(self):
        rng = np.random.default_rng(4)
        params = make_params(rng, items=("a", "b"), d=2)
        g = chain_graph([("b", 0), ("a", 10)])
        state = [np.array([0.05, 0.0]), np.array([0.6, 0.0])]
        i = g.nodes.index("a")
        w_plus = dict(coefficients(state, g, i, params))
        params.attention_sign = -1.0
        w_minus = dict(coefficients(state, g, i, params))
        j = g.nodes.index("b")
        assert float(w_plus[j]) > 0.5 > float(w_minus[j])


class TestSelfAttentionLayer:
    def test_single_node_no_loop(self):
        params = make_params(np.random.default_rng(0))
        g = chain_graph([("a", 0)])
        h = rand_ball(np.random.default_rng(1), 5, 0.5)
        out = model.self_attention_layer(np.stack([h]), batch_of(g, params), params)
        expected = M.exp_map0(np.where(M.log_map0(h) > 0, M.log_map0(h), 0.2 * M.log_map0(h)))
        np.testing.assert_allclose(out[0], expected, atol=1e-12)

    def test_identical_nodes_symmetric(self):
        params = make_params(np.random.default_rng(0))
        g = chain_graph([("a", 0), ("b", 10), ("a", 20), ("b", 30)])
        point = rand_ball(np.random.default_rng(2), 5, 0.4)
        out = model.self_attention_layer(np.stack([point, point]), batch_of(g, params), params)
        np.testing.assert_allclose(out[0], out[1], atol=1e-12)

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(5)
        for trial in range(5):
            params = make_params(np.random.default_rng(50 + trial))
            g = chain_graph([("a", 0), ("b", 40), ("c", 100), ("a", 160)])
            state = [rand_ball(rng, 5, 0.7) for _ in g.nodes]
            ours = model.self_attention_layer(np.stack(state), batch_of(g, params), params)
            ref = o_layer(state, g, params.time_proj)
            for o, r in zip(ours, ref):
                np.testing.assert_allclose(o, r, atol=1e-10)

    def test_zero_intervals_equal_no_time_layer(self):
        # all-zero intervals make the time term the origin: identical output
        rng = np.random.default_rng(6)
        params = make_params(np.random.default_rng(60))
        g = chain_graph([("a", 0), ("b", 0), ("c", 0)])
        assert g.intervals == [0.0, 0.0]
        state = [rand_ball(rng, 5, 0.7) for _ in g.nodes]
        with_time = model.self_attention_layer(np.stack(state), batch_of(g, params), params)
        params.time_proj = np.zeros(5)  # removes the time pathway entirely
        without = model.self_attention_layer(np.stack(state), batch_of(g, params), params)
        for a, b in zip(with_time, without):
            np.testing.assert_allclose(a, b, atol=1e-15)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        params = make_params(np.random.default_rng(70))
        events = [("a", 0), ("b", 40), ("c", 100), ("a", 160), ("d", 220)]
        g = chain_graph(events)
        state = [rand_ball(rng, 5, 0.7) for _ in g.nodes]
        out = model.self_attention_layer(np.stack(state), batch_of(g, params), params)
        h_s = model.soft_attention_session(out, batch_of(g, params), params)[0]

        # relabel items; graph nodes appear in a different order
        mapping = {"a": "z", "b": "y", "c": "x", "d": "w"}
        g2 = chain_graph([(mapping[i], t) for i, t in events])
        state2 = [state[g.nodes.index({v: k for k, v in mapping.items()}[item])]
                  for item in g2.nodes]
        out2 = model.self_attention_layer(np.stack(state2), batch_of(g2, params), params)
        h_s2 = model.soft_attention_session(out2, batch_of(g2, params), params)[0]
        for item, new in mapping.items():
            np.testing.assert_allclose(
                out[g.nodes.index(item)], out2[g2.nodes.index(new)], atol=1e-12
            )
        np.testing.assert_allclose(h_s, h_s2, atol=1e-12)


class TestSoftAttention:
    def test_single_item_session(self):
        params = make_params(np.random.default_rng(0))
        g = chain_graph([("a", 0)])
        h = rand_ball(np.random.default_rng(1), 5, 0.5)
        ours = model.soft_attention_session(np.stack([h]), batch_of(g, params), params)[0]
        ref = o_soft_attention([h], g, params.att_last_proj, params.att_item_proj,
                               params.att_vec, params.att_bias)
        np.testing.assert_allclose(ours, ref, atol=1e-10)

    def test_zero_attention_vector_gives_origin(self):
        params = make_params(np.random.default_rng(0))
        params.att_vec = np.zeros(5)
        g = chain_graph([("a", 0), ("b", 10)])
        state = [rand_ball(np.random.default_rng(2), 5, 0.5) for _ in g.nodes]
        out = model.soft_attention_session(np.stack(state), batch_of(g, params), params)[0]
        np.testing.assert_array_equal(out, np.zeros(5))

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(8)
        for trial in range(5):
            params = make_params(np.random.default_rng(80 + trial))
            g = chain_graph([("a", 0), ("b", 25)])
            state = [rand_ball(rng, 5, 0.7) for _ in g.nodes]
            ours = model.soft_attention_session(np.stack(state), batch_of(g, params), params)[0]
            ref = o_soft_attention(state, g, params.att_last_proj,
                                   params.att_item_proj, params.att_vec,
                                   params.att_bias)
            np.testing.assert_allclose(ours, ref, atol=1e-10)


class TestProjectionHeads:
    def test_session_future_zero_interval(self):
        params = make_params(np.random.default_rng(0))
        h_s = rand_ball(np.random.default_rng(1), 5, 0.6)
        out = model.project_session_future(h_s, 0.0, params)
        tan = M.log_map0(h_s)
        np.testing.assert_allclose(
            out, M.exp_map0(np.where(tan > 0, tan, 0.2 * tan)), atol=1e-12
        )

    def test_session_future_origin_input(self):
        params = make_params(np.random.default_rng(0))
        out = model.project_session_future(np.zeros(5), 0.55, params)
        np.testing.assert_array_equal(out, np.zeros(5))

    def test_session_future_oracle(self):
        rng = np.random.default_rng(9)
        for trial in range(5):
            params = make_params(np.random.default_rng(90 + trial))
            h_s = rand_ball(rng, 5, 0.7)
            ours = model.project_session_future(h_s, 0.5, params)
            np.testing.assert_allclose(
                ours, o_session_future(h_s, params.time_proj, 0.5), atol=1e-10
            )

    def test_item_future_all_components_vanish(self):
        params = make_params(np.random.default_rng(0))
        params.sess_future_proj = np.zeros((5, 5))
        params.item_future_proj = np.zeros((5, 5))
        out = model.project_item_future(
            rand_ball(np.random.default_rng(1), 5, 0.5),
            rand_ball(np.random.default_rng(2), 5, 0.5), 0.0, params)
        np.testing.assert_array_equal(out, np.zeros(5))

    def test_item_future_single_component(self):
        params = make_params(np.random.default_rng(0))
        params.sess_future_proj = np.zeros((5, 5))
        params.item_future_proj = np.eye(5)
        h_last = rand_ball(np.random.default_rng(3), 5, 0.5)
        out = model.project_item_future(np.zeros(5), h_last, 0.0, params)
        np.testing.assert_allclose(
            out, M.exp_map0(np.tanh(M.log_map0(h_last))), atol=1e-12
        )

    def test_item_future_oracle(self):
        rng = np.random.default_rng(10)
        for trial in range(5):
            params = make_params(np.random.default_rng(100 + trial))
            h_sf = rand_ball(rng, 5, 0.7)
            h_last = rand_ball(rng, 5, 0.7)
            ours = model.project_item_future(h_sf, h_last, 0.3, params)
            ref = o_item_future(h_sf, h_last, params.time_proj, 0.3,
                                params.sess_future_proj, params.item_future_proj)
            np.testing.assert_allclose(ours, ref, atol=1e-10)


class TestScoreItems:
    def test_exact_match_ranks_first(self):
        params = make_params(np.random.default_rng(0))
        table = model.project_item_table(params)
        ranked = model.score_items(table[2], params, k=3)
        assert ranked.entries[0][0] == params.items[2]
        assert ranked.entries[0][1] == 0.0

    def test_tie_break_by_item_id(self):
        params = make_params(np.random.default_rng(0), items=("b", "a"), d=3)
        params.item_features = np.stack([np.array([0.1, 0.0, 0.0])] * 2)
        query = np.array([0.0, 0.2, 0.0])
        ranked = model.score_items(query, params, k=2)
        assert [e[0] for e in ranked.entries] == ["a", "b"]

    def test_matches_exhaustive_sort(self):
        rng = np.random.default_rng(11)
        params = make_params(rng)
        from oracles import o_dist
        query = rand_ball(rng, 5, 0.6)
        table = model.project_item_table(params)
        ref = sorted(
            ((o_dist(query, table[i]), params.items[i]) for i in range(5)),
        )
        ranked = model.score_items(query, params, k=3)
        for (item, dist), (rd, ritem) in zip(ranked.entries, ref):
            assert item == ritem
            assert dist == pytest.approx(rd, abs=1e-10)

    def test_k_bounds(self):
        params = make_params(np.random.default_rng(0))
        with pytest.raises(ValueError):
            model.score_items(np.zeros(5), params, k=0)
        with pytest.raises(ValueError):
            model.score_items(np.zeros(5), params, k=6)

    def test_thousand_item_oracle(self):
        rng = np.random.default_rng(12)
        items = [f"i{n:04d}" for n in range(1000)]
        params = model.init_params(items, 8, rng)
        params.item_features = rng.uniform(-0.3, 0.3, (1000, 8))
        from oracles import o_dist
        query = rand_ball(rng, 8, 0.5)
        table = model.project_item_table(params)
        ref = sorted(((o_dist(query, table[i]), items[i]) for i in range(1000)))
        ranked = model.score_items(query, params, k=20)
        assert [e[0] for e in ranked.entries] == [r[1] for r in ref[:20]]

    def test_tie_across_the_cut(self):
        # four items share one row and the query sits on it: k = 2 cuts the
        # zero-distance tie, which the ids decide
        params = make_params(np.random.default_rng(0), items=("d", "b", "c", "a", "e"), d=3)
        params.item_features = np.array([[0.1, 0.0, 0.0]] * 4 + [[0.3, 0.1, 0.0]])
        query = model.project_item_table(params)[0]
        assert [e[0] for e in model.score_items(query, params, k=2).entries] == ["a", "b"]
        assert [e[0] for e in model.score_items(query, params, k=4).entries] == \
            ["a", "b", "c", "d"]
        table = model.ItemTable(params)
        assert table.ranks(np.array([query] * 5), list("abcde")).tolist() == [1, 2, 3, 4, 5]

    def test_nonfinite_query_rejected(self):
        params = make_params(np.random.default_rng(0))
        with pytest.raises(ValueError, match="non-finite"):
            model.score_items(np.full(5, np.nan), params, k=3)

    def test_nonfinite_item_row_rejected(self):
        # a NaN feature row projects to the origin unless it is caught
        params = make_params(np.random.default_rng(0))
        params.item_features[3, 1] = np.nan
        with pytest.raises(ValueError, match="'d'.*non-finite"):
            model.score_items(np.zeros(5), params, k=3)

    def test_nonfinite_item_row_named(self):
        features = np.zeros((3, 2))
        features[1, 0] = np.inf
        with pytest.raises(ValueError, match="^item 'b' has a non-finite feature row$"):
            model.check_item_rows(["a", "b", "c"], features)
        model.check_item_rows(["a", "b", "c"], np.zeros((3, 2)))


@st.composite
def tied_catalogs(draw):
    """Small catalogs whose feature rows repeat, with a query that is either
    a free ball point or exactly one of the projected rows."""
    ids = draw(st.lists(st.text("abc", min_size=1, max_size=3),
                        min_size=1, max_size=12, unique=True))
    n = len(ids)
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = model.init_params(ids, d, rng)
    pool = rng.uniform(-0.4, 0.4, (draw(st.integers(1, n)), d))
    params.item_features = pool[rng.integers(0, len(pool), n)]
    on_row = draw(st.none() | st.integers(0, n - 1))
    if on_row is None:
        query = rand_ball(rng, d, 0.6)
    else:
        query = model.project_item_table(params)[on_row]
    return params, query


def sorted_by_brute_force(params, query):
    """(distance, item id) pairs of the whole catalog, fully sorted."""
    dists = M.distances_to_rows(query, model.project_item_table(params))
    return sorted(zip(dists.tolist(), params.items))


class TestScoringProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(tied_catalogs(), st.integers(1, 12))
    def test_top_k_is_the_sorted_prefix(self, catalog, k):
        params, query = catalog
        k = min(k, len(params.items))
        expected = [(it, d) for d, it in sorted_by_brute_force(params, query)[:k]]
        assert model.score_items(query, params, k).entries == expected

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(tied_catalogs())
    def test_counted_rank_is_the_sorted_position(self, catalog):
        params, query = catalog
        table = model.ItemTable(params)
        for pos, (_, item) in enumerate(sorted_by_brute_force(params, query), start=1):
            assert table.ranks(np.asarray(query)[None], [item]).tolist() == [pos]


@st.composite
def ranked_blocks(draw):
    """A catalog whose feature rows repeat, some of them projecting onto the
    ``1 - 1e-5`` shell, and a block of 1-8 points: free ball points, exact
    rows, points just inside the shell near a row or anywhere, the origin
    and points on the shell."""
    ids = draw(st.lists(st.text("abcd", min_size=1, max_size=3),
                        min_size=1, max_size=16, unique=True))
    n = len(ids)
    d = draw(st.sampled_from([1, 2, 3, 5, 8, 60]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = model.init_params(ids, d, rng)
    # doubling in the tangent space takes a row of norm tanh(30) to the shell
    params.feat_proj = 2.0 * np.eye(d)
    pool = rng.uniform(-0.4, 0.4, (draw(st.integers(1, n)), d))
    shell = rng.random(len(pool)) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    pool[shell] *= 30.0 / np.linalg.norm(pool[shell], axis=1, keepdims=True)
    params.item_features = pool[rng.integers(0, len(pool), n)]
    table = model.ItemTable(params)
    points = []
    for kind in draw(st.lists(st.sampled_from(["free", "row", "near_row", "near_shell",
                                               "origin", "shell"]),
                              min_size=1, max_size=8)):
        row = table.rows[rng.integers(n)]
        if kind == "free":
            points.append(rand_ball(rng, d, 0.9))
        elif kind == "row":
            points.append(row)
        elif kind == "near_row":
            points.append(row * (1.0 - 10.0 ** -rng.uniform(6, 15)))
        elif kind == "origin":
            points.append(np.zeros(d))
        else:
            v = rng.normal(size=d)
            inside = 1.0 - 10.0 ** -rng.uniform(6, 15) if kind == "near_shell" else 1.0
            points.append(v * (M.MAX_NORM * inside / np.linalg.norm(v)))
    return table, np.array(points)


def sorted_position(table, point, target):
    """1-based place of the target in the catalog sorted by (distance, id)."""
    dists = M.distances_to_rows(point, table.rows, table.gaps)
    return sorted(zip(dists.tolist(), table.items)).index((dists[table.index[target]], target)) + 1


class TestBlockRanks:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(ranked_blocks(), st.data())
    def test_ranks_are_the_sorted_positions(self, block, data):
        table, points = block
        targets = [data.draw(st.sampled_from(table.items)) for _ in points]
        assert table.ranks(points, targets).tolist() == \
            [sorted_position(table, p, t) for p, t in zip(points, targets)]
        # every item as the target of every point, in one block
        every = np.repeat(points, len(table.items), axis=0)
        targets = table.items * len(points)
        assert table.ranks(every, targets).tolist() == \
            [sorted_position(table, p, t) for p, t in zip(every, targets)]

    def test_target_tied_on_both_sides(self):
        params = make_params(np.random.default_rng(3), items=("c", "a", "e", "b", "d"), d=3)
        params.item_features = np.array([[0.2, 0.1, 0.0]] * 3 + [[0.1, -0.3, 0.2]] * 2)
        table = model.ItemTable(params)
        points = np.array([table.rows[0], 0.9 * table.rows[0], table.rows[3]])
        # c, a and e share a row; so do b and d
        assert table.ranks(points, ["c"] * 3).tolist() == [2, 2, 4]
        assert table.ranks(points, ["b"] * 3).tolist() == [4, 4, 1]
        assert table.ranks(points, ["e"] * 3).tolist() == [3, 3, 5]

    def test_point_outside_the_ball_rejected(self):
        table = model.ItemTable(make_params(np.random.default_rng(0)))
        with pytest.raises(ValueError, match="outside the ball"):
            table.ranks(np.array([[0.6, 0.8, 0.0, 0.0, 0.0]]), ["a"])

    @pytest.mark.parametrize("point", [[0.6, 0.8, 0.0, 0.0, 0.0], [0.0, 0.0, 1.5, 0.0, 0.0]])
    def test_point_outside_the_ball_rejected_by_top_k(self, point):
        params = make_params(np.random.default_rng(0))
        with pytest.raises(ValueError, match="outside the ball"):
            model.score_items(np.array(point), params, k=3)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(1, 70), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_paired_rows_match_distances_to_rows(self, d, n, seed):
        rng = np.random.default_rng(seed)
        rows = np.array([rand_ball(rng, d, 0.99) for _ in range(n)])
        points = np.array([rand_ball(rng, d, 0.99) for _ in range(3)])
        gaps = 1.0 - np.sum(rows * rows, axis=1)
        pick = rng.integers(0, n, 7)
        which = rng.integers(0, 3, 7)
        got = M.paired_distances(points[which], rows[pick],
                                 1.0 - np.array([np.dot(p, p) for p in points])[which], gaps[pick])
        full = [M.distances_to_rows(p, rows, gaps) for p in points]
        assert got.tolist() == [full[w][r] for w, r in zip(which, pick)]


def exact_top_k(table, point, k):
    """``ItemTable.top_k`` before the screen, kept as its oracle: one exact
    pass over the catalog, then a sort of the rows at or within the k-th
    distance by (distance, item id)."""
    dists = M.distances_to_rows(point, table.rows, table.gaps)
    kth = np.partition(dists, k - 1)[k - 1]
    near = np.flatnonzero(dists <= kth).tolist()
    order = sorted(near, key=lambda r: (dists[r], table.items[r]))[:k]
    return [(table.items[r], float(dists[r])) for r in order]


class TestScreenedTopK:
    """``top_k`` ranks through the screen; its entries must be those of the
    exact pass: the same items with the same float bits."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(ranked_blocks(), st.data())
    def test_small_catalogs(self, block, data):
        table, points = block
        n = len(table.items)
        for k in (1, n, data.draw(st.integers(1, n))):
            for p in points:
                assert table.top_k(p, k).entries == exact_top_k(table, p, k)

    @pytest.mark.parametrize("d", [2, 16, 60])
    def test_catalog_with_repeated_and_shell_rows(self, d):
        rng = np.random.default_rng(d)
        n = 3000
        params = model.init_params([f"i{j:04d}" for j in rng.permutation(n)], d, rng)
        # doubling in the tangent space takes a row of norm tanh(30) to the shell
        params.feat_proj = 2.0 * np.eye(d)
        pool = rng.uniform(-0.4, 0.4, (n // 3, d))
        shell = rng.random(len(pool)) < 0.1
        pool[shell] *= 30.0 / np.linalg.norm(pool[shell], axis=1, keepdims=True)
        params.item_features = pool[rng.integers(0, len(pool), n)]
        params.item_features[rng.choice(n, 5, replace=False)] = pool[0]
        table = model.ItemTable(params)
        tied = table.rows[np.flatnonzero((params.item_features == pool[0]).all(axis=1))[0]]
        on_shell = rng.normal(size=d)
        on_shell *= M.MAX_NORM / np.linalg.norm(on_shell)
        points = [np.zeros(d), on_shell, tied, 0.9 * tied,
                  *(table.rows[j] * (1.0 - 1e-9) for j in rng.integers(0, n, 3)),
                  *(rand_ball(rng, d, 0.95) for _ in range(3))]
        for p in points:
            for k in (1, 2, 3, 20, n):
                assert table.top_k(p, k).entries == exact_top_k(table, p, k)
        # at least five items share the row at ``tied``: k = 2 cuts their tie
        dists = np.sort(M.distances_to_rows(tied, table.rows, table.gaps))
        assert dists[1] == dists[2] == 0.0


U = np.finfo(np.float64).eps / 2


class InlineFormulaTable(model.ItemTable):
    """``ItemTable`` with the screen, its slack and the band bounds written
    out inline, as they stood in ``ItemTable`` before ``manifold`` held them."""

    @classmethod
    def of(cls, table):
        inline = cls.__new__(cls)
        vars(inline).update(vars(table))
        inline.slack = 4 * (table.rows.shape[1] + 8) * U / table.gaps
        return inline

    def _screen(self, points):
        q = np.asarray(points, dtype=np.float64)
        q_norms2 = np.array([np.dot(p, p) for p in q])
        screen = np.matmul(q * -2.0, self.rows.T)
        screen += q_norms2[:, None]
        screen += self.norms2
        screen /= self.gaps
        return q, 1.0 - q_norms2, screen

    @staticmethod
    def bounds(q_gaps, dists, d):
        eta = (d + 24) * U
        return (q_gaps * np.sinh(dists / (2.0 * (1.0 + eta))) ** 2 * (1.0 - 64 * U),
                q_gaps * np.sinh(dists / (2.0 * (1.0 - eta))) ** 2 * (1.0 + 64 * U))


class TestSharedScreen:
    """The screen moved from ``ItemTable`` to ``manifold``, where the collapse
    monitor calls it too: scoring keeps every bit of the inline formula."""

    @staticmethod
    def assert_keeps_inline_formula(table, points, targets, ks):
        inline = InlineFormulaTable.of(table)
        for got, want in zip(table._screen(points), inline._screen(points)):
            assert np.array_equal(got, want)
        assert np.array_equal(table.slack, inline.slack)
        q_gaps = inline._screen(points)[1]
        t = [table.index[it] for it in targets]
        d_t = M.paired_distances(points, table.rows[t], q_gaps, table.gaps[t])
        for got, want in zip(M.screen_bounds(q_gaps, d_t, points.shape[1]),
                             inline.bounds(q_gaps, d_t, points.shape[1])):
            assert np.array_equal(got, want)
        assert table.ranks(points, targets).tolist() == inline.ranks(points, targets).tolist()
        for k in ks:
            for p in points:
                assert table.top_k(p, k).entries == inline.top_k(p, k).entries

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(ranked_blocks(), st.data())
    def test_small_catalogs(self, block, data):
        table, points = block
        n = len(table.items)
        targets = [data.draw(st.sampled_from(table.items)) for _ in points]
        self.assert_keeps_inline_formula(table, points, targets,
                                         (1, n, data.draw(st.integers(1, n))))

    @pytest.mark.parametrize("d", [2, 16, 60])
    def test_catalog_with_shell_rows(self, d):
        rng = np.random.default_rng(100 + d)
        n = 2000
        params = model.init_params([f"i{j:04d}" for j in rng.permutation(n)], d, rng)
        # doubling in the tangent space takes a row of norm tanh(30) to the shell
        params.feat_proj = 2.0 * np.eye(d)
        params.item_features = rng.uniform(-0.4, 0.4, (n, d))
        shell = rng.random(n) < 0.2
        params.item_features[shell] *= 30.0 / np.linalg.norm(params.item_features[shell],
                                                             axis=1, keepdims=True)
        table = model.ItemTable(params)
        points = np.array([np.zeros(d), *(table.rows[j] * (1.0 - 1e-9) for j in range(3)),
                           *(rand_ball(rng, d, 0.95) for _ in range(4))])
        targets = [table.items[j] for j in rng.integers(0, n, len(points))]
        self.assert_keeps_inline_formula(table, points, targets, (1, 20, n))


class TestForwardInvariants:
    def test_every_embedding_inside_shell(self):
        rng = np.random.default_rng(13)
        params = make_params(rng)
        g = chain_graph([("a", 0), ("b", 40), ("c", 100), ("a", 160)])
        fw = model.forward_session(g, 0.8, params)
        for vec in [*fw.initial, *fw.final, fw.session, fw.session_future, fw.item_future]:
            assert np.linalg.norm(np.asarray(vec)) <= 1 - EPS_BALL + 1e-15

    def test_layer_count_config(self):
        rng = np.random.default_rng(14)
        params = make_params(rng)
        g = chain_graph([("a", 0), ("b", 40)])
        params.num_layers = 1
        one = model.forward_session(g, 0.2, params)
        params.num_layers = 2
        two = model.forward_session(g, 0.2, params)
        assert not np.allclose(one.final[0], two.final[0])
