"""Poincare ball (curvature 1) gyrovector operations (Ganea et al.,
arXiv:1805.09112).

All functions accept plain float64 ndarrays or tape Nodes (see ``grad``) and
return the same kind, whatever the rows, for one (d,) point or for the rows
of an (N, d) matrix alike.  The Mobius operations, the exp and log maps at
the origin, the geodesic distance and the shell projection each compute
their value once with numpy; given a Node operand they return one tape Node
whose backward is the operation's hand-derived adjoint, checked against
finite differences in the tests.  ``exp_map``, ``log_map`` and
``conformal_factor`` are compositions of these.

Ball-valued results are re-clipped into the ``1 - EPS_BALL`` shell, and
their adjoints carry the clip's radial Jacobian.  Removable singularities
(zero vectors) take their continuity limits by one row-wise rule, however
many rows are zero: a zero row gives exact zeros and passes no gradient.
The matrix-vector product carries the unit-direction factor M a / ||M a||,
without which the transform would collapse to a scalar.
"""

from __future__ import annotations

import numpy as np

from . import grad
from .grad import Arrayish, Node, rowdot, value_of

EPS_BALL = 1e-5
MAX_NORM = 1.0 - EPS_BALL
# arcosh'(1 + x) = 1/sqrt(x (x + 2)) diverges at x = 0 (coincident points);
# the distance's adjoint evaluates it at max(x, ARCOSH_CLAMP).
ARCOSH_CLAMP = 1e-12


def _shell(val: np.ndarray):
    """Radial projection of each row into the shell: (out, back), where
    ``back`` maps the adjoint of ``out`` to that of ``val``.  ``(val, None)``
    when no row lies beyond."""
    n = np.sqrt(rowdot(val, val))
    if n.max() <= MAX_NORM:  # False for a NaN norm as well
        return val, None
    if not np.isfinite(val).all():
        raise ValueError("cannot project non-finite vector")
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
    return Node(out, ((v, back),)) if type(v) is Node else out


# the benchmark's catalog workload calls it by this name
project_rows_to_ball = project_to_ball


def _fused(out, operands, adjoint, shell=None) -> Arrayish:
    """``out`` when no operand is a Node, else one Node over the Node
    operands.  ``adjoint(g)`` maps the adjoint of the value before the shell
    projection ``shell`` (None: none applied) to one gradient per operand,
    None for a plain one; it runs once per backward, however many operands
    share it."""
    taped = [i for i, x in enumerate(operands) if type(x) is Node]
    if not taped:
        return out
    grads = adjoint if shell is None else (lambda g: adjoint(shell(g)))
    if len(taped) > 1:
        memo, once = [None, None], grads

        def grads(g):
            if memo[0] is not g:  # backward hands every parent the same g
                memo[:] = g, once(g)
            return memo[1]

    return Node(out, tuple((operands[i], lambda g, i=i: grads(g)[i]) for i in taped))


def _norm(v: np.ndarray):
    """(norm, mask) for the zero-row rule.

    The norm is that of each row, with zero rows read as 1/2 so that every
    ratio stays finite; the mask is the 0/1 column that zeroes those rows'
    results and gradients, None when no row is 0."""
    n = np.sqrt(rowdot(v, v))
    if n.all():
        return n, None
    zero = n == 0.0
    return n + np.where(zero, 0.5, 0.0), np.where(zero, 0.0, 1.0)


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

    return _fused(out, (a, b), adjoint, shell)


def mobius_scalar_mul(alpha: Arrayish, b: Arrayish) -> Arrayish:
    """alpha (x) b = tanh(alpha * artanh(||b||)) * b/||b||; 0 at b = 0.

    ``alpha`` is a scalar or one (N, 1) entry per row of b."""
    rv, bv = value_of(alpha), value_of(b)
    n, mask = _norm(bv)
    u = np.arctanh(n)
    t = np.tanh(rv * u)
    s = t / n
    if mask is not None:
        s = s * mask
    out, shell = _shell(s * bv)

    def adjoint(g):
        g_s = rowdot(g, bv)
        if mask is not None:
            g_s = g_s * mask
        g_w = g_s / n * (1.0 - t * t)  # adjoint of alpha * artanh(n)
        gb = None
        if type(b) is Node:
            g_n = g_w * rv / (1.0 - n * n) - g_s * t / (n * n)
            gb = s * g + (g_n / n) * bv
        return (g_w * u if type(alpha) is Node else None), gb

    return _fused(out, (alpha, b), adjoint, shell)


def mobius_matvec(m: Arrayish, a: Arrayish) -> Arrayish:
    """M (x) a = tanh((||Ma||/||a||) artanh(||a||)) * Ma/||Ma||.

    Rows with a = 0 or M a = 0 give the r-dimensional zero vector
    (continuity limits).
    """
    mv, av = value_of(m), value_of(a)
    a_n, _ = _norm(av)
    ma = np.dot(mv, av) if av.ndim < 2 else av @ mv.T
    # a = 0 implies M a = 0, so the mask of M a covers both limits
    man, mask = _norm(ma)
    ratio = man / a_n
    u = np.arctanh(a_n)
    t = np.tanh(ratio * u)
    s = t / man
    if mask is not None:
        s = s * mask
    out, shell = _shell(s * ma)

    def adjoint(g):
        g_s = rowdot(g, ma)
        if mask is not None:
            g_s = g_s * mask
        g_w = g_s / man * (1.0 - t * t)  # adjoint of ratio * artanh(||a||)
        g_man = g_w * u / a_n - g_s * t / (man * man)
        g_ma = s * g + (g_man / man) * ma
        gm = ga = None
        if type(m) is Node:
            gm = np.outer(g_ma, av) if av.ndim < 2 else g_ma.T @ av
        if type(a) is Node:
            g_an = g_w * ratio * (1.0 / (1.0 - a_n * a_n) - u / a_n)
            ga = (np.dot(mv.T, g_ma) if av.ndim < 2 else g_ma @ mv) + (g_an / a_n) * av
        return gm, ga

    return _fused(out, (m, a), adjoint, shell)


def exp_map(x: Arrayish, v: Arrayish) -> Arrayish:
    """exp_x(v) = x (+) exp_0(lambda_x v / 2); x at v = 0."""
    return mobius_add(x, exp_map0(grad.mul(grad.div(conformal_factor(x), 2.0), v)))


def log_map(x: Arrayish, a: Arrayish) -> Arrayish:
    """log_x(a) = (2/lambda_x) log_0((-x) (+) a); 0 at a = x."""
    return grad.mul(grad.div(2.0, conformal_factor(x)), log_map0(mobius_add(grad.neg(x), a)))


def exp_map0(v: Arrayish) -> Arrayish:
    """exp at the origin: tanh(||v||) v/||v||; 0 at v = 0."""
    vv = value_of(v)
    n, mask = _norm(vv)
    t = np.tanh(n)
    s = t / n
    if mask is not None:
        s = s * mask
    out, shell = _shell(s * vv)

    def adjoint(g):
        g_s = rowdot(g, vv)
        if mask is not None:
            g_s = g_s * mask
        return (s * g + (g_s * (1.0 - t * t - s) / (n * n)) * vv,)

    return _fused(out, (v,), adjoint, shell)


def log_map0(a: Arrayish) -> Arrayish:
    """log at the origin: artanh(||a||) a/||a||; 0 at a = 0."""
    av = value_of(a)
    n, mask = _norm(av)
    s = np.arctanh(n) / n
    if mask is not None:
        s = s * mask

    def adjoint(g):
        g_s = rowdot(g, av)
        if mask is not None:
            g_s = g_s * mask
        return (s * g + (g_s * (1.0 / (1.0 - n * n) - s) / (n * n)) * av,)

    return _fused(s * av, (a,), adjoint)


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

    return _fused(_arcosh1p(x), (p, q), adjoint)


def distances_to_rows(p: np.ndarray, rows: np.ndarray, gaps=None) -> np.ndarray:
    """Vectorized distance from one point to every row of a matrix (numeric).

    ``gaps`` is 1 - ||row||^2 per row, for a caller that scores many points
    against the same rows; it is computed here when not given."""
    p = np.asarray(p, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.float64)
    if gaps is None:
        gaps = 1.0 - np.sum(rows * rows, axis=1)
    return paired_distances(p, rows, 1.0 - np.dot(p, p), gaps)


def paired_distances(p: np.ndarray, rows: np.ndarray, p_gaps, gaps) -> np.ndarray:
    """Distance from each row of ``rows`` to its point (numeric): ``p`` is
    one (d,) point for every row, an (M, d) point per row or (n, 1, d) against
    (1, m, d) rows, and ``p_gaps`` its 1 - ||p||^2, shaped alike.  Each row's
    result has the same bits whichever other rows are passed with it."""
    diff2 = np.sum((rows - p) ** 2, axis=-1)
    return _arcosh1p(2.0 * diff2 / (p_gaps * gaps))


def pairwise_mean_distance(rows: np.ndarray) -> float:
    """Mean geodesic distance over all unordered row pairs (numeric), from one
    (n, n) table with the bits of one ``distances_to_rows`` call per row."""
    rows = np.asarray(rows, dtype=np.float64)
    n = rows.shape[0]
    if n < 2:
        return 0.0
    p_gaps = 1.0 - np.array([np.dot(p, p) for p in rows])
    dist = paired_distances(rows[:, None, :], rows[None, :, :], p_gaps[:, None],
                            1.0 - np.sum(rows * rows, axis=1))
    total = 0.0
    for i in range(n - 1):
        total += float(np.sum(dist[i, i + 1:]))
    return total / (n * (n - 1) / 2)
