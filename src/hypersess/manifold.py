"""Poincare ball (curvature 1) gyrovector operations.

All functions accept plain float64 ndarrays or tape Nodes (see ``grad``) and
return the same kind, for one (d,) point or for the rows of an (N, d) matrix
alike.  Ball-valued results are re-clipped into the ``1 - EPS_BALL`` shell;
removable singularities (zero vectors) take their continuity limits row by
row: a zero row gives exact zeros and passes no gradient.  The
matrix-vector product carries the unit-direction factor M a / ||M a||,
without which the transform would collapse to a scalar.
"""

from __future__ import annotations

import numpy as np

from . import grad
from .grad import Arrayish, value_of

EPS_BALL = 1e-5
MAX_NORM = 1.0 - EPS_BALL


def project_to_ball(v: Arrayish) -> Arrayish:
    """Radial projection of each row into the shell: identity for the rows
    already inside, and the input itself when no row lies beyond."""
    val = value_of(v)
    n = np.sqrt(grad.dot(val, val))
    if n.max() <= MAX_NORM:  # False for a NaN norm as well
        return v
    if not np.isfinite(val).all():
        raise ValueError("cannot project non-finite vector")
    beyond = n > MAX_NORM
    if not isinstance(v, grad.Node):
        return val * (MAX_NORM / (n if beyond.all() else np.where(beyond, n, MAX_NORM)))
    vn = grad.norm(v)
    if not beyond.all():
        # rows inside divide by the constant MAX_NORM: factor 1, no gradient
        vn = grad.add(grad.mul(vn, beyond), np.where(beyond, 0.0, MAX_NORM))
    return grad.mul(v, grad.div(MAX_NORM, vn))


# the benchmark's catalog workload calls it by this name
project_rows_to_ball = project_to_ball


def _safe_norm(x: Arrayish):
    """(norm, mask) for the zero-row rule, or None when every row of x is 0.

    The norm is that of each row, with zero rows read as 1/2 so that every
    ratio stays finite; the mask is the 0/1 column that zeroes those rows'
    results and gradients, None when no row is 0."""
    n = grad.norm(x)
    nv = value_of(n)
    if nv.all():
        return n, None
    if not nv.any():
        return None
    zero = nv == 0.0
    return grad.add(n, np.where(zero, 0.5, 0.0)), np.where(zero, 0.0, 1.0)


def _masked(scale: Arrayish, mask) -> Arrayish:
    return scale if mask is None else grad.mul(scale, mask)


def conformal_factor(x: Arrayish) -> Arrayish:
    """lambda_x = 2 / (1 - ||x||^2)."""
    return grad.div(2.0, grad.sub(1.0, grad.dot(x, x)))


def mobius_add(a: Arrayish, b: Arrayish) -> Arrayish:
    """Gyrovector sum of two ball points.

    a (+) b = ((1 + 2<a,b> + ||b||^2) a + (1 - ||a||^2) b)
              / (1 + 2<a,b> + ||a||^2 ||b||^2)
    """
    ab = grad.dot(a, b)
    a2 = grad.dot(a, a)
    b2 = grad.dot(b, b)
    two_ab = grad.mul(2.0, ab)
    num = grad.add(
        grad.mul(grad.add(grad.add(1.0, two_ab), b2), a),
        grad.mul(grad.sub(1.0, a2), b),
    )
    den = grad.add(grad.add(1.0, two_ab), grad.mul(a2, b2))
    return project_to_ball(grad.div(num, den))


def mobius_scalar_mul(alpha: Arrayish, b: Arrayish) -> Arrayish:
    """alpha (x) b = tanh(alpha * artanh(||b||)) * b/||b||; 0 at b = 0.

    ``alpha`` is a scalar or one (N, 1) entry per row of b."""
    safe = _safe_norm(b)
    if safe is None:
        return np.zeros_like(value_of(b))
    n, mask = safe
    scale = grad.div(grad.tanh(grad.mul(alpha, grad.artanh(n))), n)
    return project_to_ball(grad.mul(_masked(scale, mask), b))


def mobius_matvec(m: Arrayish, a: Arrayish) -> Arrayish:
    """M (x) a = tanh((||Ma||/||a||) artanh(||a||)) * Ma/||Ma||.

    Rows with a = 0 or M a = 0 give the r-dimensional zero vector
    (continuity limits).
    """
    safe_a = _safe_norm(a)
    if safe_a is None:
        return np.zeros(value_of(a).shape[:-1] + (value_of(m).shape[0],))
    ma = grad.matvec(m, a)
    safe_ma = _safe_norm(ma)
    if safe_ma is None:
        return np.zeros_like(value_of(ma))
    # a = 0 implies M a = 0, so the mask of M a covers both limits
    a_n, man, mask = safe_a[0], safe_ma[0], safe_ma[1]
    scale = grad.div(grad.tanh(grad.mul(grad.div(man, a_n), grad.artanh(a_n))), man)
    return project_to_ball(grad.mul(_masked(scale, mask), ma))


def exp_map(x: Arrayish, v: Arrayish) -> Arrayish:
    """exp_x(v) = x (+) (tanh(lambda_x ||v|| / 2) v/||v||); x at v = 0."""
    safe = _safe_norm(v)
    if safe is None:
        return x
    n, mask = safe
    lam = conformal_factor(x)
    scale = grad.div(grad.tanh(grad.div(grad.mul(lam, n), 2.0)), n)
    return mobius_add(x, grad.mul(_masked(scale, mask), v))


def log_map(x: Arrayish, a: Arrayish) -> Arrayish:
    """log_x(a) = (2/lambda_x) artanh(||w||) w/||w||, w = (-x) (+) a; 0 at a = x."""
    if not isinstance(x, grad.Node) and not value_of(x).any():
        w = a
    else:
        w = mobius_add(grad.neg(x), a)
    safe = _safe_norm(w)
    if safe is None:
        return np.zeros_like(value_of(w))
    n, mask = safe
    lam = conformal_factor(x)
    scale = grad.mul(grad.div(2.0, lam), grad.div(grad.artanh(n), n))
    return grad.mul(_masked(scale, mask), w)


def exp_map0(v: Arrayish) -> Arrayish:
    """exp at the origin: tanh(||v||) v/||v||; 0 at v = 0."""
    safe = _safe_norm(v)
    if safe is None:
        return np.zeros_like(value_of(v))
    n, mask = safe
    return project_to_ball(grad.mul(_masked(grad.div(grad.tanh(n), n), mask), v))


def log_map0(a: Arrayish) -> Arrayish:
    """log at the origin: artanh(||a||) a/||a||; 0 at a = 0."""
    safe = _safe_norm(a)
    if safe is None:
        return np.zeros_like(value_of(a))
    n, mask = safe
    return grad.mul(_masked(grad.div(grad.artanh(n), n), mask), a)


def distance(p: Arrayish, q: Arrayish) -> Arrayish:
    """Geodesic distance arcosh(1 + 2||p-q||^2 / ((1-||p||^2)(1-||q||^2)))."""
    diff = grad.sub(p, q)
    d2 = grad.dot(diff, diff)
    denom = grad.mul(
        grad.sub(1.0, grad.dot(p, p)),
        grad.sub(1.0, grad.dot(q, q)),
    )
    return grad.arcosh1p(grad.div(grad.mul(2.0, d2), denom))


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
    x = np.maximum(2.0 * diff2 / (p_gaps * gaps), 0.0)
    return np.log1p(x + np.sqrt(x * (x + 2.0)))


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
