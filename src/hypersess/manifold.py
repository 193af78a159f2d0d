"""Poincare ball (curvature 1) gyrovector operations (Ganea et al.,
arXiv:1805.09112).

All functions accept plain float64 ndarrays or tape Nodes (see ``grad``) and
return the same kind, whatever the rows, for one (d,) point or for the rows
of an (N, d) matrix alike.  The Mobius operations, the exp and log maps at
the origin, the geodesic distance and the shell projection each compute
their value once with numpy and hand it to ``grad.fused`` with the
operation's hand-derived adjoint, checked against finite differences in the
tests: given a Node operand, each is one tape Node.  ``exp_map``,
``log_map`` and ``conformal_factor`` are compositions of these.

Ball-valued results are re-clipped into the ``1 - EPS_BALL`` shell, and
their adjoints carry the clip's radial Jacobian.  Removable singularities
(zero vectors) take their continuity limits by one row-wise rule, however
many rows are zero: a zero row gives exact zeros and passes no gradient.
The rule lives in :func:`_norm` alone: its divisor reads infinity on a row
of norm 0, where the tanh and artanh factors taken from the true norm are 0,
so every term of the row is exactly 0.  A row whose squared norm underflows
to 0 passes exactly no gradient too, which a finite stand-in would not give.
The matrix-vector product carries the unit-direction factor M a / ||M a||,
without which the transform would collapse to a scalar.
"""

from __future__ import annotations

import numpy as np

from . import grad
from .grad import Arrayish, Node, rowdot, value_of

EPS_BALL = 1e-5
MAX_NORM = 1.0 - EPS_BALL
# the largest double whose square root is at most MAX_NORM: sqrt is correctly
# rounded and monotone, so n2 <= _MAX_NORM2 exactly when sqrt(n2) <= MAX_NORM
_MAX_NORM2 = 0.9999800001000001
# arcosh'(1 + x) = 1/sqrt(x (x + 2)) diverges at x = 0 (coincident points);
# the distance's adjoint evaluates it at max(x, ARCOSH_CLAMP).
ARCOSH_CLAMP = 1e-12
# the unit roundoff of float64, for the screen's rounding bounds
_U = np.finfo(np.float64).eps / 2
# pairwise_mean_distance takes a pair's screen when S >= SCREEN_PLACES * h:
# within about 1 / SCREEN_PLACES relative of the exact distance
SCREEN_PLACES = 2.0 ** 30


def _shell(val: np.ndarray):
    """Radial projection of each row into the shell: (out, back), where
    ``back`` maps the adjoint of ``out`` to that of ``val``.  ``(val, None)``
    when no row lies beyond."""
    n2 = rowdot(val, val)
    # a NaN norm fails the comparison, so it reaches the non-finite check
    if np.count_nonzero(n2 <= _MAX_NORM2) == np.size(n2):
        return val, None
    if not np.isfinite(val).all():
        raise ValueError("cannot project non-finite vector")
    n = np.sqrt(n2)
    shrink = 1.0
    huge = np.isinf(n)
    if huge.any():
        # a finite row too long to square: shrink it by its largest |entry|
        shrink = np.where(huge, np.abs(val).max(axis=-1, keepdims=True), 1.0)
        val = val / shrink
        n = np.sqrt(rowdot(val, val))
    beyond = n > MAX_NORM
    n = np.where(beyond, n, MAX_NORM)
    k = MAX_NORM / n  # exactly 1 on the rows inside

    def back(g):
        # k (g - <g, v> v / n^2) on the rows beyond, g on the rows inside
        radial = np.where(beyond, rowdot(g, val) * k / (n * n), 0.0)
        return (g * k - radial * val) / shrink

    return val * k, back


def project_to_ball(v: Arrayish) -> Arrayish:
    """Radial projection of each row into the shell: identity for the rows
    already inside, and the input itself when no row lies beyond."""
    out, back = _shell(value_of(v))
    if back is None:
        return v
    return grad.fused(out, (v,), lambda g: (back(g),))


# the benchmark's catalog workload calls it by this name
project_rows_to_ball = project_to_ball


def _through(shell, adjoint):
    """``adjoint`` fed the adjoint of the value before the shell projection
    whose adjoint is ``shell`` (None: no row was clipped)."""
    return adjoint if shell is None else lambda g: adjoint(shell(g))


def _norm(v: np.ndarray):
    """(n, div): the norm of each row and the divisor the zero-row rule
    divides by, the same array when no row is 0.  ``div`` is infinity on
    the rows of norm 0, where every factor taken from ``n`` is 0, so each
    term of such a row divides to, or is multiplied by, an exact 0."""
    n = np.sqrt(rowdot(v, v))
    if np.count_nonzero(n) == np.size(n):  # a NaN norm counts as nonzero
        return n, n
    return n, np.where(n == 0.0, np.inf, n)


def conformal_factor(x: Arrayish) -> Arrayish:
    """lambda_x = 2 / (1 - ||x||^2)."""
    return grad.div(2.0, grad.sub(1.0, grad.dot(x, x)))


def mobius_add(a: Arrayish, b: Arrayish) -> Arrayish:
    """Gyrovector sum of two ball points.

    a (+) b = ((1 + 2<a,b> + ||b||^2) a + (1 - ||a||^2) b)
              / (1 + 2<a,b> + ||a||^2 ||b||^2)
    """
    av, bv = value_of(a), value_of(b)
    ab, a2, b2 = rowdot(av, bv), rowdot(av, av), rowdot(bv, bv)
    two_ab = 2.0 * ab
    ca = 1.0 + two_ab + b2
    cb = 1.0 - a2
    den = 1.0 + two_ab + a2 * b2
    raw = (ca * av + cb * bv) / den
    out, shell = _shell(raw)

    def adjoint(g):
        g = g / den  # the numerator's adjoint
        g_den = -rowdot(g, raw)
        g_ca, g_cb = rowdot(g, av), rowdot(g, bv)
        g_ab = 2.0 * (g_ca + g_den)
        ga = ca * g + g_ab * bv + (2.0 * (g_den * b2 - g_cb)) * av if type(a) is Node else None
        gb = cb * g + g_ab * av + (2.0 * (g_ca + g_den * a2)) * bv if type(b) is Node else None
        return ga, gb

    return grad.fused(out, (a, b), _through(shell, adjoint))


def mobius_scalar_mul(alpha: Arrayish, b: Arrayish) -> Arrayish:
    """alpha (x) b = tanh(alpha * artanh(||b||)) * b/||b||; 0 at b = 0.

    ``alpha`` is a scalar or one (N, 1) entry per row of b."""
    rv, bv = value_of(alpha), value_of(b)
    n, div = _norm(bv)
    u = np.arctanh(n)
    t = np.tanh(rv * u)
    s = t / div
    out, shell = _shell(s * bv)

    def adjoint(g):
        g_s = rowdot(g, bv)
        g_w = g_s / div * (1.0 - t * t)  # adjoint of alpha * artanh(n)
        gb = None
        if type(b) is Node:
            g_n = g_w * rv / (1.0 - n * n) - g_s * t / (div * div)
            gb = s * g + (g_n / div) * bv
        return (g_w * u if type(alpha) is Node else None), gb

    return grad.fused(out, (alpha, b), _through(shell, adjoint))


def mobius_matvec(m: Arrayish, a: Arrayish) -> Arrayish:
    """M (x) a = tanh((||Ma||/||a||) artanh(||a||)) * Ma/||Ma||.

    Rows where ||a|| or ||M a|| reads 0 give the r-dimensional zero vector
    (continuity limits) and pass no gradient.  A row whose ||a||^2
    underflows to 0 counts as a = 0 even when M a is not 0: its image, about
    M a in the limit, is dropped.
    """
    mv, av = value_of(m), value_of(a)
    a_n, a_div = _norm(av)
    ma = np.dot(mv, av) if av.ndim < 2 else av @ mv.T
    man, m_div = _norm(ma)
    ratio = man / a_div
    u = np.arctanh(a_n)
    t = np.tanh(ratio * u)
    s = t / m_div
    out, shell = _shell(s * ma)

    def adjoint(g):
        g_s = rowdot(g, ma)
        g_w = g_s / m_div * (1.0 - t * t)  # adjoint of ratio * artanh(||a||)
        g_man = g_w * u / a_div - g_s * t / (m_div * m_div)
        g_ma = s * g + (g_man / m_div) * ma
        gm = ga = None
        if type(m) is Node:
            gm = np.outer(g_ma, av) if av.ndim < 2 else g_ma.T @ av
        if type(a) is Node:
            g_an = g_w * ratio * (1.0 / (1.0 - a_n * a_n) - u / a_div)
            ga = (np.dot(mv.T, g_ma) if av.ndim < 2 else g_ma @ mv) + (g_an / a_div) * av
        return gm, ga

    return grad.fused(out, (m, a), _through(shell, adjoint))


def exp_map(x: Arrayish, v: Arrayish) -> Arrayish:
    """exp_x(v) = x (+) exp_0(lambda_x v / 2); x at v = 0."""
    return mobius_add(x, exp_map0(grad.mul(grad.div(conformal_factor(x), 2.0), v)))


def log_map(x: Arrayish, a: Arrayish) -> Arrayish:
    """log_x(a) = (2/lambda_x) log_0((-x) (+) a); 0 at a = x."""
    return grad.mul(grad.div(2.0, conformal_factor(x)), log_map0(mobius_add(grad.neg(x), a)))


def exp_map0(v: Arrayish) -> Arrayish:
    """exp at the origin: tanh(||v||) v/||v||; 0 at v = 0."""
    vv = value_of(v)
    n, div = _norm(vv)
    t = np.tanh(n)
    s = t / div
    out, shell = _shell(s * vv)

    def adjoint(g):
        g_s = rowdot(g, vv)
        return (s * g + (g_s * (1.0 - t * t - s) / (div * div)) * vv,)

    return grad.fused(out, (v,), _through(shell, adjoint))


def log_map0(a: Arrayish) -> Arrayish:
    """log at the origin: artanh(||a||) a/||a||; 0 at a = 0."""
    av = value_of(a)
    n, div = _norm(av)
    s = np.arctanh(n) / div

    def adjoint(g):
        g_s = rowdot(g, av)
        return (s * g + (g_s * (1.0 / (1.0 - n * n) - s) / (div * div)) * av,)

    return grad.fused(s * av, (a,), adjoint)


def _arcosh1p(x):
    """arcosh(1 + x) for x >= 0 without forming 1 + x.

    log1p(x + sqrt(x (x + 2))) keeps full relative precision in x, which
    matters for distances between near-coincident points (x ~ ||p-q||^2
    would otherwise be quantized away at the 1e-16 level)."""
    x = np.maximum(x, 0.0)
    return np.log1p(x + np.sqrt(x * (x + 2.0)))


def distance(p: Arrayish, q: Arrayish) -> Arrayish:
    """Geodesic distance arcosh(1 + 2||p-q||^2 / ((1-||p||^2)(1-||q||^2))).

    The gradient is finite at coincident points (see ARCOSH_CLAMP)."""
    pv, qv = value_of(p), value_of(q)
    diff = pv - qv
    p_gap, q_gap = 1.0 - rowdot(pv, pv), 1.0 - rowdot(qv, qv)
    denom = p_gap * q_gap
    x = 2.0 * rowdot(diff, diff) / denom

    def adjoint(g):
        xc = np.maximum(x, ARCOSH_CLAMP)
        g_x = g / np.sqrt(xc * (xc + 2.0))
        g_diff = (4.0 * g_x / denom) * diff
        gp = g_diff + (2.0 * g_x * x / p_gap) * pv if type(p) is Node else None
        gq = (2.0 * g_x * x / q_gap) * qv - g_diff if type(q) is Node else None
        return gp, gq

    return grad.fused(_arcosh1p(x), (p, q), adjoint)


def distances_to_rows(p: np.ndarray, rows: np.ndarray, gaps=None) -> np.ndarray:
    """Vectorized distance from one point to every row of a matrix (numeric).

    ``gaps`` is 1 - ||row||^2 per row, for a caller that scores many points
    against the same rows; it is computed here when not given."""
    p = np.asarray(p, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.float64)
    if gaps is None:
        gaps = 1.0 - rowdot(rows, rows)[:, 0]
    return paired_distances(p, rows, 1.0 - rowdot(p, p), gaps)


def paired_distances(p: np.ndarray, rows: np.ndarray, p_gaps, gaps) -> np.ndarray:
    """Distance from each row of ``rows`` to its point (numeric): ``p`` is
    one (d,) point for every row, an (M, d) point per row or (n, 1, d) against
    (1, m, d) rows, and ``p_gaps`` its 1 - ||p||^2, shaped alike.  Each row's
    result has the same bits whichever other rows are passed with it."""
    diff = rows - p
    return _arcosh1p(2.0 * rowdot(diff, diff)[..., 0] / (p_gaps * gaps))


def screen_slack(gaps: np.ndarray, d: int) -> np.ndarray:
    """The screen's error bound h = 4 (d + 8) u / G per row of gaps G (see
    :func:`distance_screen`)."""
    return 4 * (d + 8) * _U / gaps


def distance_screen(points: np.ndarray, rows: np.ndarray, norms2: np.ndarray,
                    gaps: np.ndarray):
    """(g, S): the gaps g = 1 - q.q of the (B, d) ``points`` (``rowdot``,
    the bits :func:`distances_to_rows` starts from) and the (B, N)
    screen S of the (N, d) ``rows``, whose r.r and G = 1 - r.r are
    ``norms2`` and ``gaps`` (numeric; points and rows inside the ball).

    One GEMM screens every pair.  For a point q and a row r the exact path
    (:func:`paired_distances`) computes arcosh(1 + x) for
    x = 2 ||q - r||^2 / (g G) = 2 Y / g.  The screen estimates Y as
    S = (q.q - 2 q.r + r.r) / G.  With u = 2^-53 and all norms at most 1,
    each dot product errs by at most gamma_d ||q|| ||r||,
    gamma_n = n u / (1 - n u), in any summation order and with or without
    fused multiply-adds (``rowdot``'s BLAS dot, the GEMM), so the numerator,
    cancellation included, errs by at most
    gamma_{d+3} (||q|| + ||r||)^2 <= 4 gamma_{d+3}, and
    |S - Y| <= h + u Y with h = 4 (d + 8) u / G (:func:`screen_slack`).
    The exact path has x within gamma_{d+4} of its exact value (d
    nonnegative squares summed, a product, a quotient), and
    log1p(x + sqrt(x (x + 2))) adds at most 3 u from the sqrt chain and
    4 ulp (8 u) from log1p.  F(x) = arcosh(1 + x) is concave with F(0) = 0,
    so a relative error in x is at most the same relative error in F: a
    computed distance is F(X) (1 +- eta), eta = (d + 24) u, for the exact X.
    This holds up to the ``1 - 1e-5`` shell and beyond it, for any point and
    row inside the ball.  Near-coincident pairs, S within a few h of 0, are
    the ones the screen cannot tell apart; its callers recompute them
    exactly.
    """
    q_norms2 = rowdot(points, points)[:, 0]
    # scaling by -2 is exact: S = (-2 q.r + q.q + r.r) / G, in place
    screen = np.matmul(points * -2.0, rows.T)
    screen += q_norms2[:, None]
    screen += norms2
    screen /= gaps
    return 1.0 - q_norms2, screen


def screen_bounds(q_gaps, dists, d: int):
    """(Lo (1 - 64 u), Hi (1 + 64 u)) for points with gaps ``q_gaps`` in
    dimension d and computed distances ``dists`` d_t: a pair is certainly
    closer than d_t when S + h is below the first, certainly farther when
    S - h is above the second.

    By :func:`distance_screen`, a pair is certainly closer than d_t when
    F(X) < d_t / (1 + eta), that is when Y < Lo = g sinh^2(d_t / (2 (1 + eta))),
    and certainly farther when Y > Hi = g sinh^2(d_t / (2 (1 - eta))) (as
    cosh F - 1 = 2 sinh^2(F/2)).  The 64 u covers the rounding of S, of S +- h
    and of Lo and Hi (sinh within 4 ulp)."""
    eta = (d + 24) * _U
    return (q_gaps * np.sinh(dists / (2.0 * (1.0 + eta))) ** 2 * (1.0 - 64 * _U),
            q_gaps * np.sinh(dists / (2.0 * (1.0 - eta))) ** 2 * (1.0 + 64 * _U))


def pairwise_mean_distance(rows: np.ndarray) -> float:
    """Mean geodesic distance over all unordered row pairs (numeric).

    One :func:`distance_screen` of the rows against themselves gives every
    pair i < j its S.  A pair with S >= K h (K = ``SCREEN_PLACES``) takes
    arcosh(1 + 2 S / g_i); a pair with S < K h, which takes in every
    near-coincident one, is recomputed exactly by :func:`paired_distances`,
    so a collapsed table reads its true distances and repeated rows give
    exact zeros.
    For a screened pair |S - Y| <= h + u Y <= S / K + u Y, so S is within
    (1 + u) / (K - 1) + u of Y; with the rounding of 2 S / g and of the
    arcosh chain its distance is F(X) (1 +- (1 / (K - 1) + 16 u)), and it
    lies within 1 / (K - 1) + (d + 41) u of the exact path's, which is
    F(X) (1 +- eta).  All terms are nonnegative, so summing N = n (n - 1) / 2
    of them in any order errs by at most gamma_{N-1} of the sum: the result
    is within (1 / (K - 1) + (d + n^2 + 48) u) of the mean of
    :func:`paired_distances` over the pairs (g_i and G_j both
    1 - r.r by ``rowdot``), in whatever order that mean is summed.
    """
    rows = np.asarray(rows, dtype=np.float64)
    n = rows.shape[0]
    if n < 2:
        return 0.0
    norms2 = rowdot(rows, rows)[:, 0]
    gaps = 1.0 - norms2
    p_gaps, screen = distance_screen(rows, rows, norms2, gaps)
    i, j = np.triu_indices(n, 1)
    screen = screen[i, j]
    dists = _arcosh1p(2.0 * screen / p_gaps[i])
    near = np.flatnonzero(screen < SCREEN_PLACES * screen_slack(gaps, rows.shape[1])[j])
    if near.size:
        i, j = i[near], j[near]
        dists[near] = paired_distances(rows[i], rows[j], p_gaps[i], gaps[j])
    return float(np.sum(dists)) / (n * (n - 1) / 2)
