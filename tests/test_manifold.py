"""Ball-operation unit values and randomized property checks.

Expected values are hand-evaluated from the closed forms (see the inline
derivations); the randomized properties mirror the algebraic identities the
operations must satisfy.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypersess import grad as G, manifold as M

RNG = lambda s: np.random.default_rng(s)


def rand_ball(rng, d, max_norm):
    """Uniform direction, norm uniform in (0, max_norm]."""
    v = rng.normal(size=d)
    v /= np.linalg.norm(v)
    return v * rng.uniform(0.0, max_norm)


class TestBallPoint:
    """project_to_ball on one point and on the rows of a matrix."""

    def test_inside_unchanged(self):
        v = np.array([0.3, 0.0])
        assert M.project_to_ball(v) is v
        np.testing.assert_array_equal(M.project_to_ball(np.array([[0.3, 0.0], [0.0, 0.2]])),
                                      [[0.3, 0.0], [0.0, 0.2]])

    def test_rescaled_to_shell(self):
        # norm 5 -> scale by (1 - 1e-5)/5
        v = M.project_to_ball(np.array([3.0, 4.0]))
        np.testing.assert_allclose(v, [0.599994, 0.799992], atol=1e-12)
        assert np.linalg.norm(v) == pytest.approx(1 - 1e-5, abs=1e-12)
        # a row inside is untouched beside one that is rescaled
        rows = M.project_to_ball(np.array([[3.0, 4.0], [0.3, 0.0]]))
        np.testing.assert_array_equal(rows[0], v)
        np.testing.assert_array_equal(rows[1], [0.3, 0.0])

    def test_squared_norm_bound_is_the_largest_below_the_shell(self):
        # the clip test compares squared norms with _MAX_NORM2: the largest
        # double whose square root is at most MAX_NORM
        bound = M._MAX_NORM2
        assert np.sqrt(bound) <= M.MAX_NORM
        assert np.sqrt(np.nextafter(bound, 2.0)) > M.MAX_NORM
        x = M.MAX_NORM * M.MAX_NORM  # a search from the rounded square
        while np.sqrt(np.nextafter(x, 2.0)) <= M.MAX_NORM:
            x = np.nextafter(x, 2.0)
        while np.sqrt(x) > M.MAX_NORM:
            x = np.nextafter(x, 0.0)
        assert x == bound

    def test_clip_decision_at_the_squared_norm_bound(self):
        inside = np.array([[np.sqrt(M._MAX_NORM2), 0.0]])
        assert M.project_to_ball(inside) is inside
        beyond = np.array([[np.sqrt(np.nextafter(M._MAX_NORM2, 2.0)), 0.0]])
        assert beyond[0, 0] ** 2 > M._MAX_NORM2
        assert M.project_to_ball(beyond)[0, 0] == M.MAX_NORM

    def test_origin_fixed(self):
        np.testing.assert_array_equal(M.project_to_ball(np.zeros(2)), [0.0, 0.0])
        np.testing.assert_array_equal(M.project_to_ball(np.zeros((2, 2))), np.zeros((2, 2)))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_row_too_long_to_square_keeps_its_direction(self):
        # ||v||^2 overflows to inf for these finite rows, and MAX_NORM / inf = 0
        np.testing.assert_array_equal(M.project_to_ball(np.array([[1e200, 0.0]])),
                                      [[M.MAX_NORM, 0.0]])
        rows = np.array([[-3e200, 4e200], [0.3, 0.0], [3.0, 4.0]])
        out = M.project_to_ball(rows)
        np.testing.assert_allclose(out[0], [-0.6 * M.MAX_NORM, 0.8 * M.MAX_NORM], rtol=1e-15)
        np.testing.assert_array_equal(out[1:], M.project_to_ball(rows[1:]))
        x = G.Node(rows)
        taped = M.project_to_ball(x)
        np.testing.assert_array_equal(taped.value, out)
        G.backward(G.dot(np.ones(3), G.reshape(G.dot(taped, np.array([1.0, 2.0])), (3,))))
        assert np.isfinite(x.adjoint).all() and x.adjoint[1].tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("bad", [[np.nan, 0.0], [np.inf, 1.0], [1.0, -np.inf]])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError):
            M.project_to_ball(np.array(bad))
        with pytest.raises(ValueError):
            M.project_to_ball(np.array([[0.1, 0.0], bad]))


class TestMobiusAdd:
    def test_right_identity(self):
        np.testing.assert_allclose(
            M.mobius_add(np.array([0.3, 0.0]), np.zeros(2)), [0.3, 0.0], atol=1e-15
        )

    def test_closed_form(self):
        # numerator (1+0.24+0.16)*0.3 + (1-0.09)*0.4 = 0.784
        # denominator 1+0.24+0.0144 = 1.2544 -> 0.625
        out = M.mobius_add(np.array([0.3, 0.0]), np.array([0.4, 0.0]))
        np.testing.assert_allclose(out, [0.625, 0.0], atol=1e-12)

    def test_inverse(self):
        a = np.array([0.3, 0.2])
        np.testing.assert_allclose(M.mobius_add(a, G.neg(a)), 0.0, atol=1e-15)


class TestScalarMul:
    def test_identity_scalar(self):
        np.testing.assert_allclose(
            M.mobius_scalar_mul(1.0, np.array([0.5, 0.0])), [0.5, 0.0], atol=1e-15
        )

    def test_zero_scalar(self):
        np.testing.assert_allclose(
            M.mobius_scalar_mul(0.0, np.array([0.5, 0.1])), 0.0, atol=1e-15
        )

    def test_zero_vector(self):
        np.testing.assert_array_equal(M.mobius_scalar_mul(2.0, np.zeros(3)), np.zeros(3))

    def test_tanh_double_angle(self):
        # tanh(2 artanh 0.5) = 2*0.5/(1+0.25) = 0.8
        out = M.mobius_scalar_mul(2.0, np.array([0.5, 0.0]))
        np.testing.assert_allclose(out, [0.8, 0.0], atol=1e-12)


class TestMatvec:
    def test_identity_matrix(self):
        a = np.array([0.3, 0.4])
        np.testing.assert_allclose(M.mobius_matvec(np.eye(2), a), a, atol=1e-12)

    def test_reduces_to_scalar_mul(self):
        a = np.array([0.5, 0.0])
        out = M.mobius_matvec(2.0 * np.eye(2), a)
        np.testing.assert_allclose(out, M.mobius_scalar_mul(2.0, a), atol=1e-12)

    def test_permutation(self):
        perm = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = M.mobius_matvec(perm, np.array([0.3, 0.4]))
        np.testing.assert_allclose(out, [0.4, 0.3], atol=1e-12)

    def test_zero_vector_and_kernel(self):
        np.testing.assert_array_equal(M.mobius_matvec(np.eye(3), np.zeros(3)), np.zeros(3))
        # a in the kernel of M
        m = np.array([[1.0, -1.0], [2.0, -2.0]])
        np.testing.assert_array_equal(M.mobius_matvec(m, np.array([0.2, 0.2])), np.zeros(2))

    def test_rectangular_output_dim(self):
        m = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert M.mobius_matvec(m, np.array([0.1, 0.2, 0.3])).shape == (2,)


class TestExpLog:
    def test_zero_tangent(self):
        np.testing.assert_array_equal(M.exp_map(np.zeros(2), np.zeros(2)), np.zeros(2))
        x = np.array([0.2, 0.1])
        np.testing.assert_array_equal(M.exp_map(x, np.zeros(2)), x)

    def test_exp_at_origin(self):
        v = np.array([math.atanh(0.5), 0.0])
        np.testing.assert_allclose(M.exp_map(np.zeros(2), v), [0.5, 0.0], atol=1e-12)

    def test_log_same_point(self):
        x = np.array([0.3, 0.1])
        np.testing.assert_array_equal(M.log_map(x, x), np.zeros(2))

    def test_log_at_origin(self):
        out = M.log_map(np.zeros(2), np.array([0.5, 0.0]))
        np.testing.assert_allclose(out, [math.atanh(0.5), 0.0], atol=1e-12)
        # recover through exp_map to 1e-9
        np.testing.assert_allclose(M.exp_map(np.zeros(2), out), [0.5, 0.0], atol=1e-9)

    def test_origin_helpers_match_generic(self):
        rng = RNG(3)
        for _ in range(50):
            v = rand_ball(rng, 5, 2.0)
            a = rand_ball(rng, 5, 0.9)
            np.testing.assert_allclose(M.exp_map0(v), M.exp_map(np.zeros(5), v), atol=1e-15)
            np.testing.assert_allclose(M.log_map0(a), M.log_map(np.zeros(5), a), atol=1e-15)


class TestDistance:
    def test_coincident(self):
        p = np.array([0.3, 0.1])
        assert M.distance(p, p) == 0.0

    def test_ln3(self):
        # arcosh(1 + 0.5/0.75) = arcosh(5/3) = ln 3
        out = M.distance(np.zeros(2), np.array([0.5, 0.0]))
        assert out == pytest.approx(math.log(3.0), abs=1e-12)

    def test_symmetric(self):
        rng = RNG(4)
        for _ in range(100):
            p, q = rand_ball(rng, 4, 0.95), rand_ball(rng, 4, 0.95)
            assert M.distance(p, q) == pytest.approx(M.distance(q, p), abs=1e-12)


class TestProperties:
    """Randomized identities, 1000 seeded draws each."""

    N = 1000

    def test_identity_and_inverse(self):
        rng = RNG(10)
        for _ in range(self.N):
            a = rand_ball(rng, 6, 0.9)
            np.testing.assert_allclose(M.mobius_add(a, np.zeros(6)), a, atol=1e-9)
            np.testing.assert_allclose(
                M.mobius_add(G.neg(a), a), np.zeros(6), atol=1e-9
            )

    def test_left_cancellation(self):
        rng = RNG(11)
        for _ in range(self.N):
            a, b = rand_ball(rng, 6, 0.9), rand_ball(rng, 6, 0.9)
            out = M.mobius_add(G.neg(a), M.mobius_add(a, b))
            np.testing.assert_allclose(out, b, atol=1e-8)

    def test_exp_log_roundtrip(self):
        rng = RNG(12)
        done = 0
        while done < self.N:
            x = rand_ball(rng, 6, 0.8)
            v = rand_ball(rng, 6, 2.0)
            y = M.exp_map(x, v)
            if np.linalg.norm(y) >= M.MAX_NORM - 1e-12:
                # shell clip destroyed information; draw again
                continue
            np.testing.assert_allclose(M.log_map(x, y), v, atol=1e-7)
            done += 1

    def test_distance_artanh_equivalence(self):
        rng = RNG(13)
        for _ in range(self.N):
            p, q = rand_ball(rng, 6, 0.9), rand_ball(rng, 6, 0.9)
            lhs = M.distance(p, q)
            rhs = 2.0 * math.atanh(np.linalg.norm(M.mobius_add(G.neg(p), q)))
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_triangle_inequality(self):
        rng = RNG(14)
        for _ in range(self.N):
            p, q, r = (rand_ball(rng, 6, 0.9) for _ in range(3))
            assert M.distance(p, r) <= M.distance(p, q) + M.distance(q, r) + 1e-8

    def test_scalar_mul_iterated_add(self):
        rng = RNG(15)
        for _ in range(self.N):
            b = rand_ball(rng, 6, 0.9)
            acc = b
            for n in (1, 2, 3):
                np.testing.assert_allclose(M.mobius_scalar_mul(float(n), b), acc, atol=1e-8)
                acc = M.mobius_add(acc, b)

    def test_boundary_hardening(self):
        rng = RNG(16)
        for _ in range(200):
            u = rng.normal(size=6)
            u *= (1 - 1e-5) / np.linalg.norm(u)
            w = rand_ball(rng, 6, 0.9)
            for out in (
                M.mobius_add(u, w),
                M.mobius_scalar_mul(1.7, u),
                M.mobius_matvec(rng.normal(size=(6, 6)), u),
                M.exp_map(w, u),
                M.log_map(w, u),
                M.distance(u, w),
                M.distance(u, -u),
            ):
                assert np.all(np.isfinite(out))


class TestGradSymmetry:
    def test_swap_symmetry(self):
        # grad wrt slot 1 at (p, q) equals grad wrt slot 2 at (q, p)
        from hypersess import grad as G

        rng = RNG(17)
        for _ in range(20):
            p, q = rand_ball(rng, 4, 0.8), rand_ball(rng, 4, 0.8)
            n1, n2 = G.Node(p), G.Node(q)
            G.backward(M.distance(n1, n2))
            m1, m2 = G.Node(q), G.Node(p)
            G.backward(M.distance(m1, m2))
            np.testing.assert_allclose(n1.adjoint, m2.adjoint, atol=1e-12)
            np.testing.assert_allclose(n2.adjoint, m1.adjoint, atol=1e-12)


class TestRowWise:
    """Every operation on an (N, d) matrix equals the operation on each row."""

    def rows(self, rng, n=6, d=4, zero_rows=(2,)):
        m = np.stack([rand_ball(rng, d, 0.8) for _ in range(n)])
        m[list(zero_rows)] = 0.0
        return m

    def test_matches_per_row(self):
        rng = RNG(31)
        x, y = self.rows(rng), self.rows(rng, zero_rows=(4,))
        alpha = rng.uniform(-2, 2, (6, 1))
        mat = rng.uniform(-1, 1, (3, 4))
        cases = [
            (M.mobius_add(x, y), [M.mobius_add(a, b) for a, b in zip(x, y)]),
            (M.mobius_scalar_mul(alpha, x), [M.mobius_scalar_mul(float(s), a) for s, a in zip(alpha[:, 0], x)]),
            (M.mobius_matvec(mat, x), [M.mobius_matvec(mat, a) for a in x]),
            (M.exp_map0(x), [M.exp_map0(a) for a in x]),
            (M.log_map0(x), [M.log_map0(a) for a in x]),
            (M.exp_map(y, x), [M.exp_map(b, a) for a, b in zip(x, y)]),
            (M.log_map(y, x), [M.log_map(b, a) for a, b in zip(x, y)]),
            (M.distance(x, y), [[M.distance(a, b)] for a, b in zip(x, y)]),
        ]
        for rowwise, per_row in cases:
            np.testing.assert_allclose(rowwise, np.array(per_row), rtol=1e-13, atol=1e-15)

    def test_zero_rows_give_exact_zeros(self):
        x = self.rows(RNG(32), zero_rows=(0, 3))
        for out in (M.exp_map0(x), M.log_map0(x), M.mobius_scalar_mul(0.7, x),
                    M.mobius_matvec(np.eye(4), x)):
            assert not np.asarray(out)[[0, 3]].any()
            assert np.asarray(out)[[1, 2, 4, 5]].all(axis=1).all()

    def test_zero_rows_pass_no_gradient(self):
        rng = RNG(33)
        probe = rng.normal(size=4)
        for op in (M.exp_map0, M.log_map0, lambda v: M.mobius_scalar_mul(0.7, v),
                   lambda v: M.mobius_matvec(rng.uniform(-1, 1, (4, 4)), v)):
            x = G.Node(self.rows(rng, zero_rows=(1,)))
            G.backward(G.dot(np.ones(6), G.reshape(G.dot(op(x), probe), (6,))))
            assert not x.adjoint[1].any()
            assert x.adjoint[[0, 2]].any(axis=1).all()
            # every row zero: the same rule, and the result stays on the tape
            x = G.Node(np.zeros((6, 4)))
            out = op(x)
            assert type(out) is G.Node and (out.value == 0.0).all()
            G.backward(G.dot(np.ones(6), G.reshape(G.dot(out, probe), (6,))))
            assert not x.adjoint.any()

    def test_projection_per_row(self):
        rng = RNG(34)
        x = self.rows(rng)
        assert M.project_to_ball(x) is x
        x[1] *= 3.0 / np.linalg.norm(x[1])
        out = M.project_to_ball(x)
        np.testing.assert_array_equal(np.delete(out, 1, axis=0), np.delete(x, 1, axis=0))
        assert np.linalg.norm(out[1]) == pytest.approx(M.MAX_NORM, abs=1e-15)
        x[4, 2] = np.nan
        with pytest.raises(ValueError):
            M.project_to_ball(x)

    def test_projection_gradient_only_through_clipped_rows(self):
        rng = RNG(35)
        x = self.rows(rng, zero_rows=())
        x[2] *= 1.5 / np.linalg.norm(x[2])
        probe = 0.01 * rng.normal(size=4)
        rep = G.check_gradients(
            lambda th: G.dot(np.ones(6), G.reshape(G.dot(M.project_to_ball(th["x"]), probe), (6,))),
            {"x": x}, h=1e-6)
        assert rep.max_rel_error < 1e-4 and not rep.failures

    def test_cached_gaps_give_the_same_distances(self):
        rng = RNG(36)
        rows = self.rows(rng, n=50, d=5, zero_rows=())
        p = rand_ball(rng, 5, 0.7)
        gaps = 1.0 - G.rowdot(rows, rows)[:, 0]
        np.testing.assert_array_equal(M.distances_to_rows(p, rows, gaps), M.distances_to_rows(p, rows))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 70), st.integers(1, 30), st.integers(0, 2**32 - 1))
    def test_paired_distances_row_independent(self, d, n, seed):
        """Each row's distance has the same bits whichever other rows are
        passed with it: alone, gathered in another order, against one (d,)
        point, one point per row, or (n, 1, d) points against (1, m, d) rows."""
        rng = np.random.default_rng(seed)
        rows = np.array([rand_ball(rng, d, 0.99) for _ in range(n)])
        points = np.array([rand_ball(rng, d, 0.99) for _ in range(n)])
        gaps = 1.0 - G.rowdot(rows, rows)[:, 0]
        p_gaps = 1.0 - G.rowdot(points, points)[:, 0]
        pick = rng.permutation(n)[:int(rng.integers(1, n + 1))]
        full = M.paired_distances(points, rows, p_gaps, gaps)
        assert M.paired_distances(points[pick], rows[pick], p_gaps[pick], gaps[pick]).tolist() \
            == full[pick].tolist()
        assert [M.paired_distances(points[r:r + 1], rows[r:r + 1], p_gaps[r:r + 1],
                                   gaps[r:r + 1])[0] for r in range(n)] == full.tolist()
        one = M.paired_distances(points[0], rows, p_gaps[0], gaps)
        assert M.paired_distances(points[0], rows[pick], p_gaps[0], gaps[pick]).tolist() \
            == one[pick].tolist()
        table = M.paired_distances(points[:, None], rows[None], p_gaps[:, None], gaps[None])
        assert table[0].tolist() == one.tolist()
        assert np.diagonal(table).tolist() == full.tolist()


class TestPairwiseMeanDistance:
    """The collapse monitor against a per-pair loop of the distance formula,
    summed as ``distances_to_rows`` rows are: each row i over j > i with
    ``np.sum``, the row sums in row order.  The monitor screens the pairs
    with one GEMM, so it equals the loop within the bound that its docstring
    derives, not bit for bit."""

    @staticmethod
    def per_pair(rows):
        n = len(rows)
        total = 0.0
        for i in range(n - 1):
            row = []
            for j in range(i + 1, n):
                gap_i = 1.0 - np.dot(rows[i], rows[i])
                gap_j = 1.0 - np.sum(rows[j] * rows[j])
                x = max(2.0 * np.sum((rows[j] - rows[i]) ** 2) / (gap_i * gap_j), 0.0)
                row.append(np.log1p(x + np.sqrt(x * (x + 2.0))))
            total += float(np.sum(row))
        return total / (n * (n - 1) / 2)

    @staticmethod
    def bound(rows):
        """Relative: 1 / (K - 1) + (d + n^2 + 48) u (pairwise_mean_distance)."""
        n, d = rows.shape
        return 1.0 / (M.SCREEN_PLACES - 1.0) + (d + n * n + 48) * (np.finfo(float).eps / 2)

    def assert_within_bound(self, rows):
        want = self.per_pair(rows)
        assert abs(M.pairwise_mean_distance(rows) - want) <= self.bound(rows) * want
        return want

    @staticmethod
    def exact_pairs(monkeypatch):
        """Spy on the exact path: the number of pairs it recomputes, per call."""
        counts = []
        paired = M.paired_distances

        def spy(p, rows, p_gaps, gaps):
            counts.append(len(rows))
            return paired(p, rows, p_gaps, gaps)

        monkeypatch.setattr(M, "paired_distances", spy)
        return counts

    @staticmethod
    def collapsed(rng, n, d, centre_norm, spread):
        """n rows within ``spread`` of one point of norm ``centre_norm``."""
        centre = rng.normal(size=d)
        centre *= centre_norm / np.linalg.norm(centre)
        return M.project_to_ball(centre + rng.uniform(-spread, spread, (n, d)) / np.sqrt(d))

    @pytest.mark.parametrize("n,d,scale", [(2, 1, 0.3), (9, 5, 0.1), (40, 16, 0.05),
                                           (100, 60, 0.1), (33, 61, 3.0)])
    def test_equals_per_pair_loop(self, n, d, scale):
        rng = RNG(40 + n)
        rows = M.project_to_ball(rng.normal(0.0, scale, size=(n, d)))
        self.assert_within_bound(rows)

    def test_shell_and_repeated_rows(self):
        rng = RNG(41)
        rows = rng.normal(size=(30, 8))
        rows *= (1.0 - 1e-5) / np.linalg.norm(rows, axis=1, keepdims=True)
        rows[[3, 7, 8]] = rows[0]
        self.assert_within_bound(rows)

    @pytest.mark.parametrize("centre_norm,spread", [(M.MAX_NORM, 1e-9), (0.5, 1e-7)])
    def test_collapsed_table_reads_its_true_distances(self, monkeypatch, centre_norm, spread):
        rows = self.collapsed(RNG(42), 100, 16, centre_norm, spread)
        counts = self.exact_pairs(monkeypatch)
        want = self.assert_within_bound(rows)
        # every pair is near-coincident, so every pair takes the exact path
        assert counts == [100 * 99 // 2]
        assert want > 0.0

    @pytest.mark.parametrize("centre_norm,spread", [(M.MAX_NORM, 1e-9), (0.5, 1e-7)])
    def test_screen_alone_misses_a_collapse(self, centre_norm, spread):
        rows = self.collapsed(RNG(42), 100, 16, centre_norm, spread)
        norms2 = np.sum(rows * rows, axis=1)
        p_gaps, screen = M.distance_screen(rows, rows, norms2, 1.0 - norms2)
        i, j = np.triu_indices(len(rows), 1)
        gemm_only = float(np.mean(M._arcosh1p(2.0 * screen[i, j] / p_gaps[i])))
        want = self.per_pair(rows)
        assert abs(gemm_only - want) > 1e3 * self.bound(rows) * want
        assert abs(M.pairwise_mean_distance(rows) - want) <= self.bound(rows) * want

    @pytest.mark.parametrize("norm", [0.0, 0.3, M.MAX_NORM])
    def test_repeated_rows_give_exact_zeros(self, norm):
        row = RNG(43).normal(size=12)
        row *= norm / np.linalg.norm(row)
        assert M.pairwise_mean_distance(np.tile(row, (50, 1))) == 0.0

    def test_spread_table_takes_no_exact_pair(self, monkeypatch):
        rows = M.project_to_ball(RNG(44).normal(0.0, 0.1, size=(100, 60)))
        counts = self.exact_pairs(monkeypatch)
        self.assert_within_bound(rows)
        assert counts == []

    def test_fewer_than_two_rows(self):
        assert M.pairwise_mean_distance(np.zeros((0, 3))) == 0.0
        assert M.pairwise_mean_distance(np.full((1, 3), 0.1)) == 0.0


def _rows_with_norms(rng, norms, d=4):
    """One row per norm, in uniformly drawn directions."""
    m = rng.normal(size=(len(norms), d))
    return m * (np.asarray(norms, dtype=float) / np.linalg.norm(m, axis=1))[:, None]


def _fused_cases():
    """(id, op over the tape leaves th, leaves, whether some row is projected
    back from beyond the shell).  Operands outside ``th`` stay plain."""
    rng = RNG(50)
    x = _rows_with_norms(rng, [0.5, 0.05, 0.7, 0.3, 0.6])
    y = _rows_with_norms(rng, [0.2, 0.6, 0.4, 0.75, 0.1])
    v, w, bias = rand_ball(rng, 4, 0.7), rand_ball(rng, 4, 0.7), 0.4 * rand_ball(rng, 4, 1.0)
    alpha = rng.uniform(-2.0, 2.0, (5, 1))
    mat = rng.uniform(-1.0, 1.0, (3, 4))
    t = np.array([[0.9], [0.05], [0.5], [0.3], [0.7]])
    edge = _rows_with_norms(rng, [0.999, 0.5, 0.999])
    return [
        ("add-rows", lambda th: M.mobius_add(th["a"], th["b"]), {"a": x, "b": y}, False),
        ("add-vectors", lambda th: M.mobius_add(th["a"], th["b"]), {"a": v, "b": w}, False),
        ("add-node-beside-plain", lambda th: M.mobius_add(th["a"], y), {"a": x}, False),
        ("add-plain-beside-node", lambda th: M.mobius_add(x, th["b"]), {"b": y}, False),
        ("add-broadcast-bias", lambda th: M.mobius_add(th["a"], th["b"]), {"a": x, "b": bias}, False),
        # x (+) x for |x| = 0.999 has norm 0.9999995, beyond the shell
        ("add-beyond-shell", lambda th: M.mobius_add(th["a"], th["b"]),
         {"a": edge, "b": edge.copy()}, True),
        ("scalar-rows", lambda th: M.mobius_scalar_mul(th["r"], th["b"]), {"r": alpha, "b": x}, False),
        ("scalar-vector", lambda th: M.mobius_scalar_mul(th["r"], th["b"]),
         {"r": np.asarray(1.3), "b": v}, False),
        ("scalar-broadcast-alpha", lambda th: M.mobius_scalar_mul(th["r"], th["b"]),
         {"r": np.asarray(0.7), "b": x}, False),
        ("scalar-plain-alpha", lambda th: M.mobius_scalar_mul(alpha, th["b"]), {"b": x}, False),
        ("scalar-plain-rows", lambda th: M.mobius_scalar_mul(th["r"], x), {"r": alpha}, False),
        ("scalar-beyond-shell", lambda th: M.mobius_scalar_mul(th["r"], th["b"]),
         {"r": np.full((5, 1), 40.0), "b": x}, True),
        ("matvec-rows", lambda th: M.mobius_matvec(th["m"], th["a"]), {"m": mat, "a": x}, False),
        ("matvec-vector", lambda th: M.mobius_matvec(th["m"], th["a"]), {"m": mat, "a": v}, False),
        ("matvec-plain-matrix", lambda th: M.mobius_matvec(mat, th["a"]), {"a": x}, False),
        ("matvec-column-plain-rows", lambda th: M.mobius_matvec(th["m"], t),
         {"m": 0.5 * mat[:1].T}, False),
        ("matvec-column", lambda th: M.mobius_matvec(th["m"], th["a"]),
         {"m": 0.5 * mat[:1].T, "a": t}, False),
        ("matvec-row", lambda th: M.mobius_matvec(th["m"], th["a"]), {"m": mat[1:2], "a": x}, False),
        ("matvec-beyond-shell", lambda th: M.mobius_matvec(th["m"], th["a"]),
         {"m": 10.0 * mat, "a": x}, True),
        ("exp0-rows", lambda th: M.exp_map0(th["v"]), {"v": 3.0 * x}, False),
        ("exp0-vector", lambda th: M.exp_map0(th["v"]), {"v": 2.0 * v}, False),
        ("exp0-beyond-shell", lambda th: M.exp_map0(th["v"]), {"v": 16.0 * x}, True),
        ("log0-rows", lambda th: M.log_map0(th["a"]), {"a": x}, False),
        ("log0-vector", lambda th: M.log_map0(th["a"]), {"a": v}, False),
        ("distance-rows", lambda th: M.distance(th["p"], th["q"]), {"p": x, "q": y}, False),
        ("distance-vectors", lambda th: M.distance(th["p"], th["q"]), {"p": v, "q": w}, False),
        ("distance-node-beside-plain", lambda th: M.distance(x, th["q"]), {"q": y}, False),
        ("distance-broadcast", lambda th: M.distance(th["p"], th["q"]), {"p": x, "q": bias}, False),
        ("project-beyond-shell", lambda th: M.project_to_ball(th["v"]), {"v": 2.0 * x}, True),
        # row 0 is too long to square: its squared norm overflows to inf
        ("project-too-long-to-square", lambda th: M.project_to_ball(
            G.mul(th["v"], np.array([[1e200], [1.0], [1.0], [1.0], [1.0]]))), {"v": 2.0 * x}, True),
        ("exp-map", lambda th: M.exp_map(th["x"], th["v"]), {"x": y, "v": x}, False),
        ("log-map", lambda th: M.log_map(th["x"], th["a"]), {"x": y, "a": x}, False),
    ]


FUSED_CASES = _fused_cases()


class TestFusedAdjoints:
    """Each fused operation's hand-derived adjoint against central
    differences (h = 1e-6) at interior points, a hundredth of the suite's
    1e-4: the worst case here, a gradient entry near 1e-5 beyond the shell,
    is off by 3e-7 relative, at the quotient's noise."""

    TOL = 1e-6

    @staticmethod
    def probed(out, probe):
        """sum(probe * out), on the tape."""
        return G.dot(np.ones(probe.size), G.reshape(G.mul(out, probe), (probe.size,)))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("name,op,leaves,beyond", FUSED_CASES, ids=[c[0] for c in FUSED_CASES])
    def test_matches_central_differences(self, name, op, leaves, beyond):
        out = np.asarray(op(leaves))
        if beyond:  # the case reaches the shell's radial Jacobian
            assert np.isclose(np.linalg.norm(out, axis=-1), M.MAX_NORM, rtol=0, atol=1e-15).any()
        probe = 0.01 * RNG(51).normal(size=out.shape)
        nodes = {k: G.Node(v) for k, v in leaves.items()}
        taped = op(nodes)
        if name not in ("project-too-long-to-square", "exp-map", "log-map"):
            # one tape node, whose parents are the Node operands
            assert [p for p, _ in taped.parents] == list(nodes.values())
        rep = G.check_gradients(lambda th: self.probed(op(th), probe), leaves, h=1e-6)
        assert not rep.failures and rep.max_rel_error < self.TOL, rep.errors

    ZERO_RULE_OPS = [
        ("scalar", lambda th: M.mobius_scalar_mul(th["r"], th["x"]),
         lambda rng: {"r": rng.uniform(-2.0, 2.0, (8, 1))}),
        ("matvec", lambda th: M.mobius_matvec(th["m"], th["x"]),
         lambda rng: {"m": rng.uniform(-1.0, 1.0, (3, 4))}),
        ("exp0", lambda th: M.exp_map0(th["x"]), lambda rng: {}),
        ("log0", lambda th: M.log_map0(th["x"]), lambda rng: {}),
    ]

    def taped(self, op, leaves, probe):
        """(value, adjoint per leaf) of sum(probe * op) over Node leaves."""
        nodes = {k: G.Node(v) for k, v in leaves.items()}
        out = op(nodes)
        assert type(out) is G.Node
        G.backward(self.probed(out, probe))
        return out.value, {k: n.adjoint for k, n in nodes.items()}

    @pytest.mark.parametrize("name,op,others", ZERO_RULE_OPS, ids=[c[0] for c in ZERO_RULE_OPS])
    def test_zero_rows(self, name, op, others):
        # rows 1 and 3 are zero.  Rows 6 and 7 are not, but their squared
        # norms underflow to 0, so the rule reads them as zero rows.  Row 6's
        # entries lie just below 1.5e-162, whose squares round to 0 while
        # their products with a moderate adjoint are still subnormals: a
        # finite stand-in divisor would pass those on as gradients of about
        # 1e-323.  (Under matvec, M a of row 6 keeps a nonzero squared norm:
        # see test_matvec_row_of_norm_zero_with_nonzero_image.)
        rng = RNG(52)
        x = _rows_with_norms(rng, [0.5, 0.0, 0.3, 0.0, 0.6, 0.2, 1.0, 2e-300])
        x[6] = [1.4e-162, 1.2e-162, 1.3e-162, 1.1e-162]
        zero, keep = [1, 3, 6, 7], [0, 2, 4, 5]
        assert x[[6, 7]].all() and not G.rowdot(x, x)[zero].any()
        leaves = {"x": x, **others(rng)}
        probe = rng.normal(size=np.shape(op(leaves)))
        probe[6] = 1.0  # so that such a leak would not cancel in <g, x>
        out, adj = self.taped(op, leaves, probe)
        assert not out[zero].any() and out[keep].all(axis=1).all()
        assert not adj["x"][zero].any() and adj["x"][keep].all(axis=1).all()
        # the other rows alone: their values and every adjoint unchanged
        sub = {k: v[keep] if k in ("x", "r") else v for k, v in leaves.items()}
        sub_out, sub_adj = self.taped(op, sub, probe[keep])
        np.testing.assert_array_equal(out[keep], sub_out)
        np.testing.assert_allclose(adj["x"][keep], sub_adj["x"], rtol=1e-13, atol=0)
        if "r" in adj:
            assert not adj["r"][zero].any()
            np.testing.assert_array_equal(adj["r"][keep], sub_adj["r"])
        if "m" in adj:
            np.testing.assert_allclose(adj["m"], sub_adj["m"], rtol=1e-13, atol=0)
        # every row zero: the same rule, on the tape, and no adjoint of x, r or m
        out, adj = self.taped(op, {**leaves, "x": np.zeros_like(x)}, probe)
        assert not out.any() and not any(a.any() for a in adj.values())
        sub = {k: v[zero] if k in ("x", "r") else v for k, v in leaves.items()}
        out, adj = self.taped(op, sub, probe[zero])
        assert not out.any() and not any(a.any() for a in adj.values())

    def test_matvec_row_of_norm_zero_with_nonzero_image(self):
        # ||a||^2 underflows to 0 while ||M a||^2 does not: the row reads as
        # a = 0, gives zeros and passes no gradient, as in the other operations
        rng = RNG(55)
        m = 1e8 * rng.uniform(-1.0, 1.0, (3, 4))
        x = _rows_with_norms(rng, [0.5, 2e-165])
        assert not G.rowdot(x, x)[1].any() and G.rowdot(x @ m.T, x @ m.T)[1].all()
        op = lambda th: M.mobius_matvec(th["m"], th["x"])
        probe = rng.normal(size=(2, 3))
        out, adj = self.taped(op, {"m": m, "x": x}, probe)
        assert not out[1].any() and not adj["x"][1].any()
        _, sub_adj = self.taped(op, {"m": m, "x": x[:1]}, probe[:1])
        np.testing.assert_allclose(adj["m"], sub_adj["m"], rtol=1e-13, atol=0)

    def test_matvec_kernel_row(self):
        # M a = 0 exactly for a != 0: the row gives zeros and passes no gradient
        rng = RNG(53)
        m = rng.uniform(-1.0, 1.0, (3, 4))
        # dyadic entries: every product is exact, so the sums cancel to 0
        m[:, 0], m[:, 1] = [0.5, -0.25, 0.75], [-0.5, 0.25, -0.75]
        x = _rows_with_norms(rng, [0.5, 0.3, 0.6])
        x[1] = [0.5, 0.5, 0.0, 0.0]
        op = lambda th: M.mobius_matvec(th["m"], th["x"])
        probe = rng.normal(size=(3, 3))
        out, adj = self.taped(op, {"m": m, "x": x}, probe)
        assert not out[1].any() and not adj["x"][1].any()
        _, sub_adj = self.taped(op, {"m": m, "x": x[[0, 2]]}, probe[[0, 2]])
        np.testing.assert_allclose(adj["m"], sub_adj["m"], rtol=1e-13, atol=0)
