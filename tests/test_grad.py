"""Tape mechanics and finite-difference verification.

The central-difference check is the ground truth here: every composite that
training touches must agree with it.  Scalarizations of vector-valued
functions use a small fixed probe vector so the comparison stays inside the
range where an h = 1e-6 quotient is resolvable in float64.
"""

from dataclasses import replace

import numpy as np
import pytest

from hypersess import grad as G, manifold as M, model, train
from hypersess.graph import IntervalNormalizer, SessionRecord, batch_graphs, build_session_graph


def rand_ball(rng, d, max_norm):
    v = rng.normal(size=d)
    v /= np.linalg.norm(v)
    return v * rng.uniform(0.0, max_norm)


class TestBackward:
    def test_sum_of_leaf_is_ones(self):
        x = G.Node(np.array([1.0, 2.0, 3.0]))
        G.backward(G.dot(np.ones(3), x))
        np.testing.assert_array_equal(x.adjoint, np.ones(3))

    def test_tanh_zero_local_gradient(self):
        x = G.Node(np.asarray(0.0))
        G.backward(G.tanh(x))
        assert float(x.adjoint) == 1.0

    def test_distance_gradient_near_coincidence(self):
        # p = q + delta e1: gradient wrt p approaches the conformal-factor
        # scaled unit direction; verified against central differences
        q = np.array([0.2, 0.1, -0.3])
        p = q + 1e-3 * np.eye(3)[0]
        rep = G.check_gradients(lambda th: M.distance(th["p"], q), {"p": p})
        assert rep.max_rel_error < 1e-4 and not rep.failures

    def test_non_scalar_root_rejected(self):
        x = G.Node(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            G.backward(G.mul(x, 2.0))

    def test_zero_adjoint_for_nonparticipating_leaf(self):
        x = G.Node(np.array([1.0, 2.0]))
        unused = G.Node(np.array([5.0]))
        G.backward(G.dot(x, x))
        np.testing.assert_array_equal(unused.adjoint, np.zeros(1))

    def test_reused_node_accumulates(self):
        x = G.Node(np.asarray(3.0))
        G.backward(G.mul(x, x))
        assert float(x.adjoint) == pytest.approx(6.0)

    def test_repeated_backward_not_double_counted(self):
        x = G.Node(np.asarray(2.0))
        root = G.mul(x, x)
        G.backward(root)
        G.backward(root)
        assert float(x.adjoint) == pytest.approx(4.0)


class TestCheckGradients:
    def test_square_polynomial(self):
        rep = G.check_gradients(
            lambda th: G.mul(th["x"], th["x"]), {"x": np.asarray(3.0)}, h=1e-6
        )
        assert rep.max_rel_error < 1e-7

    def test_mobius_distance_composite(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            params = {
                "p": rand_ball(rng, 4, 0.8),
                "q": rand_ball(rng, 4, 0.8),
                "r": rand_ball(rng, 4, 0.8),
            }
            rep = G.check_gradients(
                lambda th: M.distance(M.mobius_add(th["p"], th["q"]), th["r"]), params
            )
            assert rep.max_rel_error < 1e-4 and not rep.failures

    def test_nonfinite_reported_not_raised(self):
        # x + h leaves the artanh domain, so the perturbed evaluation is NaN
        with np.errstate(invalid="ignore"):
            rep = G.check_gradients(
                lambda th: G.artanh(th["x"]), {"x": np.asarray(1.0 - 1e-7)}, h=1e-6
            )
        assert "x" in rep.failures
        assert all(np.isfinite(v) for v in rep.errors.values())

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            G.check_gradients(lambda th: th["x"], {"x": np.asarray(1.0)}, h=0.0)


class TestRowPrimitives:
    def test_row_reductions_match_vectors(self):
        rng = np.random.default_rng(1)
        a, b, m = rng.normal(size=(5, 4)), rng.normal(size=(5, 4)), rng.normal(size=(3, 4))
        a[2] = 0.0
        assert G.dot(a, b).shape == (5, 1) and G.norm(a).shape == (5, 1)
        np.testing.assert_allclose(G.dot(a, b)[:, 0], [G.dot(x, y) for x, y in zip(a, b)], rtol=1e-14)
        np.testing.assert_allclose(G.norm(a)[:, 0], [G.norm(x) for x in a], rtol=1e-14)
        np.testing.assert_allclose(G.matvec(m, a), [G.matvec(m, x) for x in a], rtol=1e-14)

    def test_row_primitive_gradients(self):
        rng = np.random.default_rng(2)
        idx = np.array([3, 0, 3, 1, 3])
        seg = np.array([0, 0, 1, 2, 2])
        w = 0.1 * rng.normal(size=(4, 3))

        def f(th):
            a, m = th["a"], th["m"]
            gathered = G.take(G.matvec(m, a), idx)
            summed = G.segment_sum(G.mul(G.norm(gathered), gathered), seg, 3)
            return G.dot(np.ones(3), G.reshape(G.dot(summed, w[:3]), (3,)))

        rep = G.check_gradients(f, {"a": rng.normal(size=(4, 3)), "m": rng.normal(size=(3, 3))})
        assert rep.max_rel_error < 1e-6 and not rep.failures

    def test_segment_sum_adds_in_row_order(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(9, 4)) * np.exp(rng.normal(size=(9, 1)) * 8)
        seg = np.array([0, 0, 0, 0, 1, 2, 2, 2, 2])
        expected = np.zeros((3, 4))
        for k, s in enumerate(seg):
            expected[s] = np.add(expected[s], a[k])
        np.testing.assert_array_equal(G.segment_sum(a, seg, 3), expected)


def scalarize(vec_fn, probe):
    """Reduce a vector output with a small fixed probe; keeps |f| ~ 1e-2 so
    the 1e-8 relative-error floor sits above float64 quotient noise."""
    def f(th):
        return G.dot(probe, vec_fn(th))
    return f


class TestManifoldPrimitiveGradients:
    """Every ball primitive at 10 random interior points, h = 1e-6."""

    def run(self, fn, make_params, seed):
        rng = np.random.default_rng(seed)
        probe = 0.01 * rng.normal(size=4)
        worst = 0.0
        for _ in range(10):
            params = make_params(rng)
            rep = G.check_gradients(scalarize(fn, probe), params, h=1e-6)
            assert not rep.failures
            worst = max(worst, rep.max_rel_error)
        assert worst < 1e-4

    def test_mobius_add(self):
        self.run(
            lambda th: M.mobius_add(th["a"], th["b"]),
            lambda rng: {"a": rand_ball(rng, 4, 0.8), "b": rand_ball(rng, 4, 0.8)},
            21,
        )

    def test_mobius_scalar_mul(self):
        self.run(
            lambda th: M.mobius_scalar_mul(G.reshape(th["alpha"], ()), th["b"]),
            lambda rng: {
                "alpha": rng.uniform(-2, 2, size=()),
                "b": rand_ball(rng, 4, 0.8),
            },
            22,
        )

    def test_mobius_matvec(self):
        self.run(
            lambda th: M.mobius_matvec(th["m"], th["a"]),
            lambda rng: {
                "m": rng.uniform(-1, 1, (4, 4)),
                "a": rand_ball(rng, 4, 0.8),
            },
            23,
        )

    def test_exp_map(self):
        self.run(
            lambda th: M.exp_map(th["x"], th["v"]),
            lambda rng: {"x": rand_ball(rng, 4, 0.7), "v": rand_ball(rng, 4, 1.0)},
            24,
        )

    def test_log_map(self):
        self.run(
            lambda th: M.log_map(th["x"], th["a"]),
            lambda rng: {"x": rand_ball(rng, 4, 0.7), "a": rand_ball(rng, 4, 0.7)},
            25,
        )

    def test_distance(self):
        rng = np.random.default_rng(26)
        worst = 0.0
        for _ in range(10):
            params = {"p": rand_ball(rng, 4, 0.8), "q": rand_ball(rng, 4, 0.8)}
            rep = G.check_gradients(lambda th: M.distance(th["p"], th["q"]), params, h=1e-6)
            assert not rep.failures
            worst = max(worst, rep.max_rel_error)
        assert worst < 1e-4

    def test_project_to_ball_active_clip(self):
        rng = np.random.default_rng(27)
        probe = 0.01 * rng.normal(size=4)
        v = rng.normal(size=4)
        v *= 1.4 / np.linalg.norm(v)
        rep = G.check_gradients(
            scalarize(lambda th: M.project_to_ball(th["v"]), probe), {"v": v}, h=1e-6
        )
        assert rep.max_rel_error < 1e-4


def small_session():
    rec = SessionRecord("s", [("a", 0), ("b", 30), ("a", 95), ("c", 140)])
    return build_session_graph(rec, IntervalNormalizer())


def interior_params(rng, items=("a", "b", "c", "d"), d=6):
    """Random parameter draw with ball points spread through the interior."""
    p = model.init_params(list(items), d, rng)
    for name in ("feat_proj", "att_last_proj", "att_item_proj",
                 "sess_future_proj", "item_future_proj"):
        setattr(p, name, rng.uniform(-0.8, 0.8, (d, d)) + 0.3 * np.eye(d))
    p.att_vec = rng.uniform(-0.8, 0.8, d)
    p.att_bias = rand_ball(rng, d, 0.25)
    p.time_proj = rng.uniform(-0.8, 0.8, d)
    p.item_features = np.stack([rand_ball(rng, d, 0.6) for _ in items])
    return p


def theta_of(params):
    """Every learnable array, the whole item table as one leaf."""
    return {n: getattr(params, n) for n in ("item_features",) + model.MATRIX_FIELDS}


def probed_rows(probe, rows):
    """The sum over the (N, d) rows of each row's dot with the probe."""
    return G.dot(G.reshape(rows, (-1,)), np.tile(probe, rows.shape[0]))


class TestModelLayerGradients:
    """Every model layer at 10 random interior points, h = 1e-6."""

    def layer_check(self, build, seed):
        g = small_session()
        worst = 0.0
        for trial in range(10):
            rng = np.random.default_rng(seed * 1000 + trial)
            params = interior_params(rng)
            probe = 0.01 * rng.normal(size=params.dim)
            fn = build(params, g, probe)
            rep = G.check_gradients(fn, theta_of(params), h=1e-6)
            assert not rep.failures
            worst = max(worst, rep.max_rel_error)
        assert worst < 1e-4

    def test_projection_layer(self):
        def build(params, g, probe):
            def f(th):
                b = replace(params, **th)
                return G.dot(probe, model.hyperbolic_projection(b.item_vec("a"), b))
            return f
        self.layer_check(build, 31)

    def test_time_embedding(self):
        def build(params, g, probe):
            def f(th):
                b = replace(params, **th)
                return G.dot(probe, model.time_embedding(0.37, b))
            return f
        self.layer_check(build, 32)

    def test_self_attention_layer(self):
        def build(params, g, probe):
            def f(th):
                b = replace(params, **th)
                batch = batch_graphs([g], b.neighborhood)
                state = model.hyperbolic_projection(b.item_rows(g.nodes), b)
                return probed_rows(probe, model.self_attention_layer(state, batch, b))
            return f
        self.layer_check(build, 33)

    def test_soft_attention_session(self):
        def build(params, g, probe):
            def f(th):
                b = replace(params, **th)
                batch = batch_graphs([g], b.neighborhood)
                state = model.hyperbolic_projection(b.item_rows(g.nodes), b)
                state = model.self_attention_layer(state, batch, b)
                return probed_rows(probe, model.soft_attention_session(state, batch, b))
            return f
        self.layer_check(build, 34)

    def test_projection_heads(self):
        def build(params, g, probe):
            def f(th):
                fw = model.forward_session(g, 0.41, replace(params, **th))
                return G.dot(probe, fw.item_future)
            return f
        self.layer_check(build, 35)


class TestFullLossGradient:
    def test_three_item_session_loss(self):
        # |loss| ~ O(1) over a ~1500-op tape: at h = 1e-6 the float64 quotient
        # noise floor (ulp(f)/2h ~ 3e-11) exceeds 1e-4 relative for chance
        # gradient entries of ~1e-8, so the loss check runs at h = 1e-4 where
        # noise (~3e-13) and truncation are both provably below tolerance.
        g = small_session()
        norm = IntervalNormalizer()
        worst = 0.0
        for trial in range(10):
            rng = np.random.default_rng(41000 + trial)
            params = interior_params(rng)
            ex = train.TrainingExample(graph=g, target_item="d",
                                       target_interval=norm(120))
            def f(th):
                return train.compute_loss(ex, replace(params, **th))
            rep = G.check_gradients(f, theta_of(params), h=1e-4)
            assert not rep.failures
            worst = max(worst, rep.max_rel_error)
        assert worst < 1e-4

    def test_three_session_batch_loss(self):
        # the mean of one minibatch's losses, forwarded as one disjoint-union
        # graph; h = 1e-4 for the reason given above
        norm = IntervalNormalizer()
        graphs = [
            small_session(),
            build_session_graph(SessionRecord("t", [("c", 0), ("c", 20), ("d", 80)]), norm),
            build_session_graph(SessionRecord("u", [("b", 0)]), norm, min_events=1),
        ]
        examples = [train.TrainingExample(graph=g, target_item=t, target_interval=norm(s))
                    for g, t, s in zip(graphs, "dab", (120, 0, 45))]
        worst = 0.0
        for trial in range(3):
            params = interior_params(np.random.default_rng(41000 + trial))
            params.neighborhood = ("in", "out", "both")[trial]

            def f(th):
                losses = train.batch_losses(examples, replace(params, **th), ["c", None, "b"])
                return G.div(G.dot(np.ones(3), losses), 3.0)
            rep = G.check_gradients(f, theta_of(params), h=1e-4)
            assert not rep.failures
            worst = max(worst, rep.max_rel_error)
        assert worst < 1e-4
