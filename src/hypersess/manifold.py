"""Poincare ball (curvature 1) gyrovector operations.

All functions accept plain float64 ndarrays or tape Nodes (see ``grad``) and
return the same kind.  Ball-valued results are re-clipped into the
``1 - EPS_BALL`` shell; removable singularities (zero vectors) take their
continuity limits.  The matrix-vector product carries the unit-direction
factor M a / ||M a||, without which the transform would collapse to a scalar.
"""

from __future__ import annotations

import numpy as np

from . import grad
from .grad import Arrayish, value_of

EPS_BALL = 1e-5
MAX_NORM = 1.0 - EPS_BALL


def ball_point(coords, *, copy: bool = True) -> np.ndarray:
    """Validate and admit a raw vector as a point of the open unit ball.

    Rejects non-finite input; radially rescales anything outside the
    ``1 - EPS_BALL`` shell onto it.
    """
    v = np.array(coords, dtype=np.float64, copy=copy)
    if v.ndim != 1:
        raise ValueError(f"ball point must be a 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("ball point has non-finite coordinates")
    n = float(np.sqrt(np.dot(v, v)))
    if n > MAX_NORM:
        v *= MAX_NORM / n
    return v


def project_to_ball(v: Arrayish) -> Arrayish:
    """Radial projection into the shell: identity when already inside."""
    val = value_of(v)
    if not np.all(np.isfinite(val)):
        raise ValueError("cannot project non-finite vector")
    n = float(np.sqrt(np.dot(val, val)))
    if n <= MAX_NORM:
        return v
    if isinstance(v, grad.Node):
        return grad.mul(v, grad.div(MAX_NORM, grad.norm(v)))
    return val * (MAX_NORM / n)


def project_rows_to_ball(m: np.ndarray) -> np.ndarray:
    """Row-wise shell projection for a (n, d) matrix (numeric only)."""
    m = np.asarray(m, dtype=np.float64)
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    scale = np.where(norms > MAX_NORM, MAX_NORM / np.maximum(norms, 1e-300), 1.0)
    return m * scale


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
    """alpha (x) b = tanh(alpha * artanh(||b||)) * b/||b||; 0 at b = 0."""
    bval = value_of(b)
    if not bval.any():
        return np.zeros_like(bval)
    n = grad.norm(b)
    scale = grad.div(grad.tanh(grad.mul(alpha, grad.artanh(n))), n)
    return project_to_ball(grad.mul(scale, b))


def mobius_matvec(m: Arrayish, a: Arrayish) -> Arrayish:
    """M (x) a = tanh((||Ma||/||a||) artanh(||a||)) * Ma/||Ma||.

    Returns the r-dimensional zero vector when a = 0 or M a = 0
    (continuity limits).
    """
    aval = value_of(a)
    r = value_of(m).shape[0]
    if not aval.any():
        return np.zeros(r)
    ma = grad.matvec(m, a)
    if not value_of(ma).any():
        return np.zeros(r)
    a_n = grad.norm(a)
    man = grad.norm(ma)
    scale = grad.div(grad.tanh(grad.mul(grad.div(man, a_n), grad.artanh(a_n))), man)
    return project_to_ball(grad.mul(scale, ma))


def exp_map(x: Arrayish, v: Arrayish) -> Arrayish:
    """exp_x(v) = x (+) (tanh(lambda_x ||v|| / 2) v/||v||); x at v = 0."""
    vval = value_of(v)
    if not vval.any():
        return x
    n = grad.norm(v)
    lam = conformal_factor(x)
    scale = grad.div(grad.tanh(grad.div(grad.mul(lam, n), 2.0)), n)
    u = grad.mul(scale, v)
    if not isinstance(x, grad.Node) and not value_of(x).any():
        return project_to_ball(u)
    return mobius_add(x, u)


def log_map(x: Arrayish, a: Arrayish) -> Arrayish:
    """log_x(a) = (2/lambda_x) artanh(||w||) w/||w||, w = (-x) (+) a; 0 at a = x."""
    if not isinstance(x, grad.Node) and not value_of(x).any():
        w = a
    else:
        w = mobius_add(grad.neg(x), a)
    wval = value_of(w)
    if not wval.any():
        return np.zeros_like(wval)
    n = grad.norm(w)
    lam = conformal_factor(x)
    scale = grad.mul(grad.div(2.0, lam), grad.div(grad.artanh(n), n))
    return grad.mul(scale, w)


def exp_map0(v: Arrayish) -> Arrayish:
    """exp at the origin: tanh(||v||) v/||v||."""
    vval = value_of(v)
    if not vval.any():
        return np.zeros_like(vval)
    n = grad.norm(v)
    return project_to_ball(grad.mul(grad.div(grad.tanh(n), n), v))


def log_map0(a: Arrayish) -> Arrayish:
    """log at the origin: artanh(||a||) a/||a||."""
    aval = value_of(a)
    if not aval.any():
        return np.zeros_like(aval)
    n = grad.norm(a)
    return grad.mul(grad.div(grad.artanh(n), n), a)


def distance(p: Arrayish, q: Arrayish) -> Arrayish:
    """Geodesic distance arcosh(1 + 2||p-q||^2 / ((1-||p||^2)(1-||q||^2)))."""
    diff = grad.sub(p, q)
    d2 = grad.dot(diff, diff)
    denom = grad.mul(
        grad.sub(1.0, grad.dot(p, p)),
        grad.sub(1.0, grad.dot(q, q)),
    )
    return grad.arcosh1p(grad.div(grad.mul(2.0, d2), denom))


def distances_to_rows(p: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Vectorized distance from one point to every row of a matrix (numeric)."""
    p = np.asarray(p, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.float64)
    diff2 = np.sum((rows - p) ** 2, axis=1)
    denom = (1.0 - np.dot(p, p)) * (1.0 - np.sum(rows * rows, axis=1))
    x = np.maximum(2.0 * diff2 / denom, 0.0)
    return np.log1p(x + np.sqrt(x * (x + 2.0)))


def pairwise_mean_distance(rows: np.ndarray) -> float:
    """Mean geodesic distance over all unordered row pairs (numeric)."""
    rows = np.asarray(rows, dtype=np.float64)
    n = rows.shape[0]
    if n < 2:
        return 0.0
    total = 0.0
    for i in range(n - 1):
        total += float(np.sum(distances_to_rows(rows[i], rows[i + 1:])))
    return total / (n * (n - 1) / 2)
