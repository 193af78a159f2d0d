"""Loss composition, optimizer behavior, fit loop, checkpoints."""

import copy
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import rand_ball

from hypersess import data, grad as G, manifold as M, model, train
from hypersess.graph import IntervalNormalizer, SessionRecord, build_session_graph
from hypersess.train import TrainConfig, TrainingExample

NORM = IntervalNormalizer()


def example_of(events, target, interval_s):
    g = build_session_graph(SessionRecord("s", events), NORM, min_events=1)
    return TrainingExample(graph=g, target_item=target,
                           target_interval=NORM(interval_s))


def spread_params(seed, items=("a", "b", "c", "d"), d=6):
    rng = np.random.default_rng(seed)
    p = model.init_params(list(items), d, rng)
    p.item_features = np.stack([rand_ball(rng, d, 0.5) for _ in items])
    return p


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(dim=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(lambda_s=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(layers=4)
        with pytest.raises(ValueError):
            TrainConfig(attention_sign=0.5)
        with pytest.raises(ValueError):
            TrainConfig(neighborhood="diagonal")

    @pytest.mark.parametrize("bad", [{"tau": 0}, {"cap": -1}])
    def test_bad_tau_or_cap_fails_in_the_normalizer(self, bad):
        with pytest.raises(ValueError, match="^tau and cap must be positive$"):
            TrainConfig(**bad)

    @pytest.mark.parametrize("name", ["learning_rate", "tau", "cap", "lambda_s", "lambda_v",
                                      "margin"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_nan_or_infinite_option_fails_naming_it(self, name, value):
        with pytest.raises(ValueError, match=name) as info:
            TrainConfig(**{name: value})
        assert "\n" not in str(info.value)

    def test_defaults_are_the_model_and_normalizer_defaults(self):
        config = TrainConfig()
        params = model.init_params(["a"], config.dim, np.random.default_rng(0))
        assert config.model_hyperparameters() == \
            {name: getattr(params, name) for name in model.HYPER_FIELDS}
        assert config.normalizer() == IntervalNormalizer()

    def test_attention_sign_string_coerced(self):
        assert TrainConfig(attention_sign="+1") == TrainConfig()
        assert TrainConfig(attention_sign="-1").attention_sign == -1.0


class TestExamples:
    def test_one_example_per_session(self):
        recs = [SessionRecord("s1", [("a", 0), ("b", 10), ("c", 30)]),
                SessionRecord("s2", [("a", 0)])]
        exs = train.examples_from_records(recs, NORM)
        assert len(exs) == 1
        assert exs[0].target_item == "c"
        assert exs[0].graph.nodes == ["a", "b"]
        assert exs[0].target_interval == NORM(20)

    def test_prefix_augmentation(self):
        recs = [SessionRecord("s1", [("a", 0), ("b", 10), ("c", 30), ("d", 35)])]
        exs = train.examples_from_records(recs, NORM, augment_prefixes=True)
        assert [e.target_item for e in exs] == ["b", "c", "d"]
        assert [len(e.graph.nodes) for e in exs] == [1, 2, 3]


class TestComputeLoss:
    def test_coincident_target_zero_loss(self):
        params = spread_params(0)
        params.lambda_s = params.lambda_v = 0.0
        ex = example_of([("a", 0), ("b", 30)], "d", 60)
        fw = model.forward_session(ex.graph, ex.target_interval, params)
        # choose the target's feature so its projected embedding equals the
        # prediction: with feat_proj = I, h1 = exp0(feat) so feat = log0(goal)
        params.feat_proj = np.eye(6)
        fw = model.forward_session(ex.graph, ex.target_interval, params)
        params.item_features[params.item_index["d"]] = M.log_map0(fw.item_future)
        assert float(train.compute_loss(ex, params)) == pytest.approx(0.0, abs=1e-12)

    def test_reduces_to_plain_distance(self):
        params = spread_params(1)
        params.lambda_s = params.lambda_v = 0.0
        ex = example_of([("a", 0), ("b", 30)], "c", 45)
        fw = model.forward_session(ex.graph, ex.target_interval, params)
        h_target = model.hyperbolic_projection(params.item_vec("c"), params)
        expected = M.distance(fw.item_future, h_target)
        assert float(train.compute_loss(ex, params)) == pytest.approx(expected, abs=1e-14)

    def test_three_terms_sum(self):
        params = spread_params(2)
        params.lambda_s = params.lambda_v = 0.1
        ex = example_of([("a", 0), ("b", 30), ("c", 70)], "d", 55)
        fw = model.forward_session(ex.graph, ex.target_interval, params)
        h_target = model.hyperbolic_projection(params.item_vec("d"), params)
        expected = (
            M.distance(fw.item_future, h_target)
            + 0.1 * M.distance(fw.session_future, fw.session)
            + 0.1 * M.distance(h_target, fw.final[ex.graph.nodes.index("c")])
        )
        assert float(train.compute_loss(ex, params)) == pytest.approx(expected, abs=1e-14)

    def test_unknown_target_rejected(self):
        params = spread_params(3)
        ex = example_of([("a", 0), ("b", 30)], "zzz", 60)
        with pytest.raises(ValueError, match="^item 'zzz' is not in the model's vocabulary$"):
            train.compute_loss(ex, params)

    def test_unknown_graph_item_rejected(self):
        params = spread_params(3)
        ex = example_of([("a", 0), ("zz", 30)], "b", 60)
        with pytest.raises(ValueError, match="^item 'zz' is not in the model's vocabulary$"):
            train.compute_loss(ex, params)

    def test_single_node_graph_supported(self):
        params = spread_params(4)
        ex = example_of([("a", 0)], "b", 15)
        assert float(train.compute_loss(ex, params)) >= 0.0

    def test_nonnegative_at_random_params(self):
        for seed in range(5):
            params = spread_params(100 + seed)
            ex = example_of([("a", 0), ("b", 9), ("c", 44)], "d", 120)
            assert float(train.compute_loss(ex, params)) >= 0.0

    def test_margin_term_increases_loss(self):
        params = spread_params(5)
        ex = example_of([("a", 0), ("b", 30)], "c", 60)
        plain = float(train.compute_loss(ex, params))
        with_neg = float(train.compute_loss(ex, params, negative_item="d", margin=5.0))
        assert with_neg > plain


ITEMS = ("a", "b", "c", "d", "e", "f")


@st.composite
def minibatches(draw, gaps=(0, 0, 3, 40, 900, 100000)):
    """1-12 sessions of 1-12 events over six items, so items repeat and
    consecutive repeats make self-loops; gaps of 0 give equal timestamps,
    and 100000 s lies beyond the normalizer's cap."""
    examples = []
    for _ in range(draw(st.integers(1, 12))):
        n = draw(st.integers(1, 12))
        items = draw(st.lists(st.sampled_from(ITEMS), min_size=n, max_size=n))
        gaps = draw(st.lists(st.sampled_from(gaps), min_size=n, max_size=n))
        events = list(zip(items, np.cumsum(gaps).tolist()))
        examples.append(example_of(events, draw(st.sampled_from(ITEMS)),
                                   draw(st.sampled_from([0, 7, 300, 5000]))))
    negatives = draw(st.none() | st.lists(st.none() | st.sampled_from(ITEMS),
                                          min_size=len(examples), max_size=len(examples)))
    params = spread_params(draw(st.integers(0, 2**16)), items=ITEMS, d=4)
    params.neighborhood = draw(st.sampled_from(["in", "out", "both"]))
    params.num_layers = draw(st.integers(1, 3))
    params.attention_sign = draw(st.sampled_from([1.0, -1.0]))
    return examples, negatives, params


def store_of(examples, negatives, params):
    """The examples' session store and their negatives as item rows, an
    example's own target standing for None (no negative)."""
    sessions = train.session_store(examples, params.item_index)
    if negatives is None:
        return sessions, None
    return sessions, np.array([t if neg is None else params.item_index[neg]
                               for neg, t in zip(negatives, sessions.targets.tolist())])


def taped(params):
    """Every learnable array as a tape leaf, the whole item table as one."""
    return {n: G.Node(getattr(params, n)) for n in ("item_features",) + model.MATRIX_FIELDS}


class TestBatchLosses:
    """A minibatch forwarded as one disjoint-union graph is the sum of its
    examples forwarded one by one."""

    MARGIN = 1.5

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(minibatches())
    def test_losses_are_the_per_example_losses(self, batch):
        examples, negatives, params = batch
        negs = negatives or [None] * len(examples)
        sessions, rows = store_of(examples, negatives, params)
        losses = train.batch_losses(sessions, params, rows, self.MARGIN)
        assert losses.shape == (len(examples),)
        single = [float(train.compute_loss(ex, params, neg, self.MARGIN))
                  for ex, neg in zip(examples, negs)]
        np.testing.assert_allclose(losses, single, rtol=1e-12, atol=1e-15)

    # Gaps stay below the cap here.  A saturated interval puts rows on the
    # shell, where the clip makes the loss non-differentiable: which one-sided
    # gradient the tape takes there follows the last bit of a row norm, and
    # BLAS may round a row differently in batches of different sizes.
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(minibatches(gaps=(0, 0, 3, 40, 900, 20000)))
    def test_gradient_is_the_sum_of_per_example_gradients(self, batch):
        examples, negatives, params = batch
        negs = negatives or [None] * len(examples)
        theta = taped(params)
        sessions, rows = store_of(examples, negatives, params)
        losses = train.batch_losses(sessions, replace(params, **theta), rows, self.MARGIN)
        G.backward(G.dot(np.ones(len(examples)), losses))
        summed = {k: np.zeros_like(v.value) for k, v in theta.items()}
        for ex, neg in zip(examples, negs):
            one = taped(params)
            G.backward(train.compute_loss(ex, replace(params, **one), neg, self.MARGIN))
            for k, v in one.items():
                summed[k] += v.adjoint
        for k, v in theta.items():
            np.testing.assert_allclose(v.adjoint, summed[k], rtol=1e-10, atol=1e-10, err_msg=k)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(minibatches(), st.randoms(use_true_random=False))
    def test_permuting_the_batch_permutes_the_losses(self, batch, rnd):
        examples, negatives, params = batch
        negs = negatives or [None] * len(examples)
        perm = list(range(len(examples)))
        rnd.shuffle(perm)
        sessions, rows = store_of(examples, negs, params)
        losses = train.batch_losses(sessions, params, rows, self.MARGIN)
        taken = sessions.take(perm)
        alone = train.session_store([examples[i] for i in perm], params.item_index)
        for name in ("code", "lengths", "gaps", "targets"):
            np.testing.assert_array_equal(getattr(taken, name), getattr(alone, name))
        permuted = train.batch_losses(taken, params, rows[perm], self.MARGIN)
        np.testing.assert_allclose(permuted, losses[perm], rtol=1e-12, atol=1e-15)


class TestOptimizerStep:
    @staticmethod
    def zero_grads(params, items=("a", "b", "c", "d")):
        """Zero gradients for the matrices and the block of ``items``' rows,
        with the rows that block stands for."""
        g = {n: np.zeros_like(getattr(params, n)) for n in model.MATRIX_FIELDS}
        g["item_features"] = np.zeros((len(items), params.feat_dim))
        return g, [params.item_index[it] for it in items]

    def test_zero_gradients_fixed_point(self):
        params = spread_params(6)
        before = copy.deepcopy(params)
        g, rows = self.zero_grads(params)
        assert train.optimizer_step(params, g, 0.1, train.GRAD_CLIP, rows)
        for n in model.MATRIX_FIELDS + ("item_features",):
            np.testing.assert_array_equal(getattr(params, n), getattr(before, n))

    def test_scalar_update_rule(self):
        params = spread_params(7)
        w0 = params.att_vec[2]
        g, rows = self.zero_grads(params)
        g["att_vec"][2] = 2.0
        train.optimizer_step(params, g, 0.1, train.GRAD_CLIP, rows)
        assert params.att_vec[2] == pytest.approx(w0 - 0.2)

    def test_ball_reprojection(self):
        params = spread_params(8)
        row = params.item_index["a"]
        g, rows = self.zero_grads(params, ["a"])
        # push the embedding far outside the ball
        g["item_features"][0] = -(params.item_features[row] / np.linalg.norm(params.item_features[row])) * 1.2
        train.optimizer_step(params, g, 1.0, 1e9, rows)
        assert np.linalg.norm(params.item_features[row]) <= 1 - 1e-5 + 1e-15

    def test_nonfinite_aborts_step(self):
        params = spread_params(9)
        before = copy.deepcopy(params)
        g, rows = self.zero_grads(params)
        g["att_vec"] = np.full(6, np.nan)
        g["item_features"][:] = 0.01
        assert not train.optimizer_step(params, g, 0.1, train.GRAD_CLIP, rows)
        np.testing.assert_array_equal(params.att_vec, before.att_vec)
        np.testing.assert_array_equal(params.item_features, before.item_features)

    def test_global_clip(self):
        params = spread_params(10)
        w0 = params.att_vec.copy()
        g, rows = self.zero_grads(params)
        g["att_vec"] = np.full(6, 100.0)
        train.optimizer_step(params, g, 1.0, 5.0, rows)
        moved = np.linalg.norm(params.att_vec - w0)
        assert moved == pytest.approx(5.0, abs=1e-9)

    def test_clip_scales_the_item_block_with_the_matrices(self):
        # the global norm spans the block: both move by lr * clip / ||g||
        params = spread_params(13)
        before = copy.deepcopy(params)
        g = {"att_vec": np.full(6, 3.0), "item_features": np.full((2, 6), -1.0)}
        rows = [params.item_index["b"], params.item_index["d"]]
        assert train.optimizer_step(params, g, 0.1, 1.0, rows)
        step = 0.1 * 1.0 / np.sqrt(6 * 9.0 + 12 * 1.0)
        np.testing.assert_allclose(before.att_vec - params.att_vec, step * g["att_vec"], rtol=1e-12)
        np.testing.assert_allclose(before.item_features[rows] - params.item_features[rows],
                                   step * g["item_features"], rtol=1e-12)

    def test_row_without_gradient_untouched(self):
        params = spread_params(11)
        before = params.item_features.copy()
        g = {"item_features": np.stack([np.full(6, 0.01), np.full(6, -0.02)])}
        rows = [params.item_index["a"], params.item_index["c"]]
        train.optimizer_step(params, g, 1.0, 1e9, rows)
        for it in ("b", "d"):
            np.testing.assert_array_equal(params.item_vec(it), before[params.item_index[it]])
        np.testing.assert_array_equal(params.item_vec("a"), before[params.item_index["a"]] - 0.01)

    def test_rows_and_bias_projected_in_one_step(self):
        params = spread_params(12)
        g = {"item_features": np.stack([np.full(6, 3.0), np.full(6, -3.0)]),
             "att_bias": np.full(6, 3.0)}
        rows = [params.item_index["a"], params.item_index["d"]]
        train.optimizer_step(params, g, 1.0, 1e9, rows)
        for v in (params.item_vec("a"), params.item_vec("d"), params.att_bias):
            # on the shell: each was pushed past it, and clipped
            assert 1 - 1e-5 - 1e-12 <= np.linalg.norm(v) <= 1 - 1e-5 + 1e-15


def tiny_dataset(n_sessions=6, n_items=8, seed=0):
    synth = data.generate_synthetic(n_items, n_sessions, seed=seed)
    return train.examples_from_records(synth.records, NORM), synth.items


class TestFit:
    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train.fit([], TrainConfig())

    def test_single_example_overfits(self):
        exs, items = tiny_dataset(1)
        config = TrainConfig(dim=8, learning_rate=0.01, epochs=50, batch_size=4, seed=1)
        res = train.fit(exs, config, vocab=items)
        assert res.epoch_losses[-1] < res.epoch_losses[0]

    def test_same_seed_bitwise_identical(self):
        exs, items = tiny_dataset()
        config = TrainConfig(dim=8, learning_rate=0.02, epochs=5, batch_size=3, seed=9)
        r1 = train.fit(exs, config, vocab=items)
        r2 = train.fit(exs, config, vocab=items)
        assert r1.epoch_losses == r2.epoch_losses
        assert r1.collapse_trace == r2.collapse_trace
        for n in model.MATRIX_FIELDS:
            np.testing.assert_array_equal(getattr(r1.params, n), getattr(r2.params, n))
        np.testing.assert_array_equal(r1.params.item_features, r2.params.item_features)

    def test_collapse_monitor_samples_the_projected_table(self):
        # 150 items, so the monitor samples 100 of the projected rows
        exs, items = tiny_dataset(n_items=150)
        config = TrainConfig(dim=6, learning_rate=0.05, epochs=2, batch_size=3, seed=5)
        res = train.fit(exs, config, vocab=items)
        idx = np.random.default_rng(config.seed + 1).choice(150, size=100, replace=False)
        table = model.project_item_table(res.params)
        assert res.collapse_trace[-1] == M.pairwise_mean_distance(table[idx])

    def test_zero_learning_rate_constant_trace(self):
        exs, items = tiny_dataset()
        config = TrainConfig(dim=8, learning_rate=0.0, epochs=4, batch_size=3, seed=2)
        res = train.fit(exs, config, vocab=items)
        assert len(set(res.epoch_losses)) == 1

    def test_ball_invariant_after_training(self):
        exs, items = tiny_dataset()
        config = TrainConfig(dim=8, learning_rate=0.05, epochs=5, batch_size=3, seed=3)
        res = train.fit(exs, config, vocab=items)
        norms = np.linalg.norm(res.params.item_features, axis=1)
        assert np.all(norms <= 1 - 1e-5 + 1e-15)
        assert np.linalg.norm(res.params.att_bias) <= 1 - 1e-5 + 1e-15

    def test_margin_negatives_path_runs(self):
        exs, items = tiny_dataset()
        config = TrainConfig(dim=8, learning_rate=0.02, epochs=2, batch_size=3,
                             seed=4, margin_negatives=True)
        res = train.fit(exs, config, vocab=items)
        assert len(res.epoch_losses) == 2

    @pytest.mark.parametrize("kw", [
        {"neighborhood": "out"}, {"neighborhood": "both"},
        {"lambda_s": 0.0, "lambda_v": 0.0}, {"attention_sign": -1.0}, {"layers": 2},
        {"augment_prefixes": True},
    ])
    def test_config_variants_train(self, kw):
        exs, items = tiny_dataset()
        config = TrainConfig(dim=8, learning_rate=0.02, epochs=2, batch_size=4,
                             seed=8, **kw)
        if kw.get("augment_prefixes"):
            synth = data.generate_synthetic(8, 6, seed=0)
            exs = train.examples_from_records(synth.records, NORM,
                                              augment_prefixes=True)
        res = train.fit(exs, config, vocab=items)
        assert np.isfinite(res.epoch_losses).all()

    @pytest.mark.parametrize("kw,field", [({"layers": 2}, "num_layers"), ({"dim": 6}, "dim")])
    def test_params_must_match_the_config(self, kw, field):
        exs, items = tiny_dataset()
        params = model.init_params(items, 8, np.random.default_rng(0))
        config = TrainConfig(**{"dim": 8, "epochs": 1, "batch_size": 3, **kw})
        with pytest.raises(ValueError, match=field):
            train.fit(exs, config, params=params)

    @pytest.mark.parametrize("kw", [{"vocab": ["zz"]}, {"categories": {"zz": 0}}])
    def test_vocab_and_categories_need_a_new_model(self, kw):
        exs, items = tiny_dataset()
        params = model.init_params(items, 8, np.random.default_rng(0))
        with pytest.raises(ValueError, match="only to a new model"):
            train.fit(exs, TrainConfig(dim=8, epochs=1), params=params, **kw)

    def test_default_vocab_is_every_item_the_dataset_reads(self):
        records = [SessionRecord("s1", [("c", 0), ("a", 10), ("b", 20)]),
                   SessionRecord("s2", [("d", 0), ("c", 10)])]
        exs = train.examples_from_records(records, NORM)
        res = train.fit(exs, TrainConfig(dim=4, epochs=1))
        assert res.params.items == ["a", "b", "c", "d"]

    @pytest.mark.parametrize("given", ["vocab", "params"])
    def test_item_outside_the_vocabulary_named(self, given):
        exs = train.examples_from_records(
            [SessionRecord("s", [("a", 0), ("zz", 10), ("b", 20)])], NORM)
        kw = ({"vocab": ["a", "b"]} if given == "vocab"
              else {"params": model.init_params(["a", "b"], 4, np.random.default_rng(0))})
        with pytest.raises(ValueError, match="'zz'"):
            train.fit(exs, TrainConfig(dim=4, epochs=1), **kw)

    def test_matching_params_train(self):
        exs, items = tiny_dataset()
        config = TrainConfig(dim=8, learning_rate=0.02, epochs=2, batch_size=3, seed=9,
                             layers=2, neighborhood="both")
        params = model.init_params(items, 8, np.random.default_rng(0),
                                   **config.model_hyperparameters())
        initial = copy.deepcopy(params)
        given = train.fit(exs, config, params=params)
        assert given.params is params
        assert np.isfinite(given.epoch_losses).all()
        assert not np.array_equal(params.item_features, initial.item_features)
        again = train.fit(exs, config, params=initial)
        assert again.epoch_losses == given.epoch_losses

    def test_one_backward_per_minibatch(self, monkeypatch):
        exs, items = tiny_dataset(n_sessions=7)
        roots = []
        backward = G.backward

        def counted(root):
            roots.append(root)
            backward(root)

        monkeypatch.setattr(G, "backward", counted)
        config = TrainConfig(dim=6, learning_rate=0.02, epochs=3, batch_size=3, seed=1)
        train.fit(exs, config, vocab=items)
        assert len(roots) == 3 * -(-len(exs) // 3)
        assert all(r.value.shape == () for r in roots)

    def test_nonfinite_batch_loss_skips_the_step(self, monkeypatch, caplog):
        exs, items = tiny_dataset()
        n_batches = -(-len(exs) // 2)
        assert n_batches >= 2
        batch_losses, optimizer_step = train.batch_losses, train.optimizer_step
        calls, stepped = [], []

        def poisoned(*args, **kwargs):
            losses = batch_losses(*args, **kwargs)
            calls.append(None)
            return G.mul(losses, np.nan) if len(calls) == n_batches else losses

        def recorded(params, *args, **kwargs):
            result = optimizer_step(params, *args, **kwargs)
            stepped.append(copy.deepcopy(params))
            return result

        monkeypatch.setattr(train, "batch_losses", poisoned)
        monkeypatch.setattr(train, "optimizer_step", recorded)
        config = TrainConfig(dim=6, learning_rate=0.05, epochs=1, batch_size=2, seed=1)
        res = train.fit(exs, config, vocab=items)
        assert res.skipped_steps == 1
        assert "non-finite batch loss" in caplog.text
        # the last batch was poisoned: the result is the model before it
        assert len(stepped) == n_batches - 1
        np.testing.assert_array_equal(res.params.item_features, stepped[-1].item_features)
        for n in model.MATRIX_FIELDS:
            np.testing.assert_array_equal(getattr(res.params, n), getattr(stepped[-1], n))

    def test_item_gradient_is_one_block_of_the_batch_items(self, monkeypatch):
        exs, items = tiny_dataset()
        batch_losses, optimizer_step = train.batch_losses, train.optimizer_step
        batches, steps = [], []

        def seen(sessions, *args, **kwargs):
            batches.append(sessions)
            return batch_losses(sessions, *args, **kwargs)

        def recorded(params, grads, lr, clip, rows):
            # the same batch's item gradients, from the whole item table as
            # one leaf; an example is named by its place in the dataset
            batch = batches[-1]
            examples = [exs[i] for i in batch.names]
            used = sorted({it for ex in examples for it in ex.graph.nodes}
                          | {ex.target_item for ex in examples})
            table = G.Node(params.item_features)
            losses = batch_losses(train.session_store(examples, params.item_index),
                                  replace(params, item_features=table))
            G.backward(G.div(G.dot(np.ones(len(examples)), losses), float(len(examples))))
            per_row = table.adjoint[params.item_positions(used)]
            steps.append((grads, list(rows), used, per_row, batch, examples))
            return optimizer_step(params, grads, lr, clip, rows)

        monkeypatch.setattr(train, "batch_losses", seen)
        monkeypatch.setattr(train, "optimizer_step", recorded)
        config = TrainConfig(dim=6, learning_rate=0.05, epochs=1, batch_size=3, seed=1)
        params = train.fit(exs, config, vocab=items).params
        assert len(steps) == len(batches) == -(-len(exs) // 3)
        for grads, rows, used, per_row, batch, examples in steps:
            assert set(grads) == set(model.MATRIX_FIELDS) | {"item_features"}
            assert rows == [params.item_index[it] for it in used]
            # the batch is coded by position in the block
            assert [params.items[rows[c]] for c in batch.code] == \
                [it for ex in examples for it in ex.graph.items]
            assert [params.items[rows[t]] for t in batch.targets] == \
                [ex.target_item for ex in examples]
            assert grads["item_features"].shape == (len(used), params.feat_dim)
            np.testing.assert_allclose(grads["item_features"], per_row, rtol=1e-12, atol=0)

    def test_a_negative_equal_to_its_target_is_not_hinged(self, monkeypatch):
        # every negative's row is in the block, one drawn equal to its
        # target too, but only a negative other than the target is hinged
        exs, items = tiny_dataset(n_sessions=20, n_items=5)
        batch_losses, optimizer_step = train.batch_losses, train.optimizer_step
        seen, blocks = [], []

        def recorded_losses(sessions, params, negatives, margin):
            losses = batch_losses(sessions, params, negatives, margin)
            plain = batch_losses(sessions, params, None, margin)
            seen.append((sessions, negatives, losses.value, plain.value))
            return losses

        def recorded_step(params, grads, lr, clip, rows):
            blocks.append(list(rows))
            return optimizer_step(params, grads, lr, clip, rows)

        monkeypatch.setattr(train, "batch_losses", recorded_losses)
        monkeypatch.setattr(train, "optimizer_step", recorded_step)
        config = TrainConfig(dim=6, learning_rate=0.05, epochs=2, batch_size=4, seed=1,
                             margin_negatives=True, margin=5.0)
        params = train.fit(exs, config, vocab=items).params
        own = np.concatenate([negatives == sessions.targets for sessions, negatives, _, _ in seen])
        assert own.any() and not own.all()
        assert len(blocks) == len(seen)
        for (sessions, negatives, losses, plain), rows in zip(seen, blocks):
            examples = [exs[i] for i in sessions.names]
            read = {it for ex in examples for it in ex.graph.items} | {ex.target_item for ex in examples}
            drawn = {params.items[rows[k]] for k in negatives.tolist()}
            assert rows == [params.item_index[it] for it in sorted(read | drawn)]
            same = negatives == sessions.targets
            np.testing.assert_array_equal(losses[same], plain[same])
            assert (losses[~same] > plain[~same]).all()

    def test_nonfinite_gradient_counts_as_skipped(self, monkeypatch):
        exs, items = tiny_dataset()
        batch_losses = train.batch_losses

        def poisoned(*args, **kwargs):
            # finite losses whose backward pass yields NaN
            losses = batch_losses(*args, **kwargs)
            return G.fused(losses.value, (losses,), lambda g: (g * np.nan,))

        monkeypatch.setattr(train, "batch_losses", poisoned)
        config = TrainConfig(dim=6, learning_rate=0.05, epochs=2, batch_size=4, seed=1)
        res = train.fit(exs, config, vocab=items)
        assert res.skipped_steps == 2 * -(-len(exs) // 4)

    def test_all_zero_layer_inputs_train(self):
        # zero item rows and time column: whole node matrices are zero, and
        # their zero-row limits must stay on the tape
        synth = data.generate_synthetic(10, 20, 1)
        config = TrainConfig(dim=4, epochs=1, batch_size=8)
        exs = train.examples_from_records(synth.records, config.normalizer())
        params = model.init_params(synth.items, 4, np.random.default_rng(0))
        params.item_features[:] = 0.0
        params.time_proj[:] = 0.0
        res = train.fit(exs, config, params=params)
        assert res.skipped_steps == 0 and np.isfinite(res.epoch_losses).all()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_steps_keep_item_rows_off_the_origin(self):
        # lr = 1e200 moves rows whose squared norm overflows; the projection
        # puts them on the shell, and the non-finite steps that follow are skipped
        synth = data.generate_synthetic(30, 200, 1)
        config = TrainConfig(dim=4, epochs=3, learning_rate=1e200, batch_size=16)
        exs = train.examples_from_records(synth.records, config.normalizer())
        res = train.fit(exs, config, vocab=synth.items)
        assert res.skipped_steps > 0
        assert res.params.item_features.any(axis=1).all()

    def test_hundred_epoch_monotone_trend(self):
        # fixed 10-session set, lr = 0.01: >= 90% of consecutive epoch pairs
        # decrease, and the collapse monitor stays above 1e-3 throughout
        synth = data.generate_synthetic(20, 10, seed=76)
        config = TrainConfig(dim=16, learning_rate=0.01, epochs=100,
                             batch_size=10, seed=11)
        exs = train.examples_from_records(synth.records, config.normalizer())
        res = train.fit(exs, config, vocab=synth.items)
        dec = sum(b < a for a, b in zip(res.epoch_losses, res.epoch_losses[1:]))
        assert dec / (len(res.epoch_losses) - 1) >= 0.9
        assert min(res.collapse_trace) > 1e-3
        assert all(l >= 0.0 for l in res.epoch_losses)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        exs, items = tiny_dataset()
        config = TrainConfig(dim=8, learning_rate=0.02, epochs=3, batch_size=3, seed=5)
        res = train.fit(exs, config, vocab=items)
        path = tmp_path / "model.npz"
        train.save_checkpoint(path, res.params, config)
        params2, config2 = train.load_checkpoint(path)
        assert config2 == config
        assert params2.items == res.params.items
        np.testing.assert_array_equal(params2.item_features, res.params.item_features)
        for n in model.MATRIX_FIELDS:
            np.testing.assert_array_equal(getattr(params2, n), getattr(res.params, n))

    @staticmethod
    def saved_with_meta(tmp_path, edit):
        """A trained checkpoint whose meta record ``edit`` has changed in place."""
        exs, items = tiny_dataset()
        config = TrainConfig(dim=8, epochs=1, batch_size=3, seed=5)
        res = train.fit(exs, config, vocab=items)
        path = tmp_path / "model.npz"
        train.save_checkpoint(path, res.params, config)
        blob = dict(np.load(path, allow_pickle=False))
        meta = json.loads(str(blob["meta"]))
        edit(meta)
        blob["meta"] = np.str_(json.dumps(meta))
        np.savez(path, **blob)
        return path, res.params, config

    def test_version_gate(self, tmp_path):
        path, _, _ = self.saved_with_meta(tmp_path, lambda meta: meta.update(version=99))
        with pytest.raises(ValueError):
            train.load_checkpoint(path)

    def test_saved_retraction_option_ignored(self, tmp_path):
        # checkpoints written while --retraction existed store it in the config
        path, params, config = self.saved_with_meta(
            tmp_path, lambda meta: meta["config"].update(retraction="exp"))
        loaded, loaded_config = train.load_checkpoint(path)
        assert loaded_config == config
        np.testing.assert_array_equal(loaded.item_features, params.item_features)

    def test_clip_and_slope_of_earlier_versions_load(self, tmp_path):
        # checkpoints written while both were settings store them
        def earlier(meta):
            meta["config"]["grad_clip"] = 5.0
            meta["leaky_slope"] = 0.2

        path, params, config = self.saved_with_meta(tmp_path, earlier)
        loaded, loaded_config = train.load_checkpoint(path)
        assert loaded_config == config
        np.testing.assert_array_equal(loaded.item_features, params.item_features)

    def test_other_leaky_slope_rejected(self, tmp_path):
        path, _, _ = self.saved_with_meta(tmp_path, lambda meta: meta.update(leaky_slope=0.3))
        with pytest.raises(ValueError, match="leaky_slope 0.3"):
            train.load_checkpoint(path)

    @pytest.mark.parametrize("name", ["att_vec", "feat_proj", "time_proj"])
    def test_nonfinite_array_rejected(self, tmp_path, name):
        exs, items = tiny_dataset()
        config = TrainConfig(dim=8, epochs=1, batch_size=3, seed=5)
        params = train.fit(exs, config, vocab=items).params
        setattr(params, name, getattr(params, name).copy())    # fit's arrays are read-only
        getattr(params, name).flat[1] = np.nan
        path = tmp_path / "model.npz"
        train.save_checkpoint(path, params, config)
        with pytest.raises(ValueError, match=name):
            train.load_checkpoint(path)

    def test_nonfinite_feature_row_names_the_item(self, tmp_path):
        exs, items = tiny_dataset()
        config = TrainConfig(dim=8, epochs=1, batch_size=3, seed=5)
        params = train.fit(exs, config, vocab=items).params
        params.item_features = params.item_features.copy()    # fit's arrays are read-only
        params.item_features[2, 0] = np.inf
        path = tmp_path / "model.npz"
        train.save_checkpoint(path, params, config)
        with pytest.raises(ValueError, match=f"item {params.items[2]!r} has a non-finite feature row"):
            train.load_checkpoint(path)

    def test_object_array_rejected(self, tmp_path):
        path, _, _ = self.saved_with_meta(tmp_path, lambda meta: None)
        blob = dict(np.load(path, allow_pickle=False))
        blob["att_vec"] = np.array([1.0, "x"], dtype=object)
        np.savez(path, **blob)
        with pytest.raises(ValueError, match="'att_vec' holds Python objects"):
            train.load_checkpoint(path)

    def test_fortran_order_array_loads(self, tmp_path):
        exs, items = tiny_dataset()
        config = TrainConfig(dim=8, epochs=1, batch_size=3, seed=5)
        params = train.fit(exs, config, vocab=items).params
        params.feat_proj = np.asfortranarray(params.feat_proj + np.arange(8.0)[:, None])
        path = tmp_path / "model.npz"
        train.save_checkpoint(path, params, config)
        loaded = train.load_checkpoint(path)[0]
        assert loaded.feat_proj.flags.f_contiguous
        np.testing.assert_array_equal(loaded.feat_proj, params.feat_proj)

    def test_not_an_npz_rejected(self, tmp_path):
        path = tmp_path / "model.npz"
        path.write_bytes(b"not a zip archive")
        with pytest.raises(ValueError, match="not a checkpoint"):
            train.load_checkpoint(path)

    def test_bad_meta_hyperparameter_rejected(self, tmp_path):
        path, _, _ = self.saved_with_meta(tmp_path, lambda meta: meta.update(neighborhood="diagonal"))
        with pytest.raises(ValueError, match="neighborhood"):
            train.load_checkpoint(path)
