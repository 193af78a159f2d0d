"""Reverse-mode differentiation on a per-expression tape.

Every primitive here is generic: called on plain floats/ndarrays it computes
with numpy and returns an ndarray, called on at least one :class:`Node` it
records the operation on the tape and returns a new Node.  Model and manifold
code is written once against these primitives and runs in either mode.

Values are vectors or matrices of row vectors: reductions (``dot``,
``norm``) act on the last axis and keep it for rows, so one tape node
carries a whole (N, d) matrix.  ``take``, ``segment_sum`` and ``stack``
move rows between matrices.

Gradients are validated against central finite differences via
:func:`check_gradients`; that check is the ground truth for every composite
in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple, Union

import numpy as np

# arcosh'(z) = 1/sqrt(z^2-1) diverges at z = 1 (coincident points in the
# distance function); the derivative is evaluated at max(z, 1 + ARCOSH_CLAMP).
ARCOSH_CLAMP = 1e-12


class Node:
    """One value on the differentiation tape.

    ``value`` and ``adjoint`` are float64 ndarrays of identical shape
    (0-d for scalars).  ``parents`` holds ``(node, vjp)`` pairs, where
    ``vjp`` maps the adjoint of this node to the contribution it makes
    to the parent's adjoint.
    """

    __slots__ = ("value", "_adjoint", "parents", "_visit")

    def __init__(self, value, parents: Tuple = ()):
        if type(value) is np.ndarray and value.dtype == np.float64:
            self.value = value
        else:
            self.value = np.asarray(value, dtype=np.float64)
        self._adjoint = None
        self.parents = parents
        self._visit = 0

    @property
    def adjoint(self) -> np.ndarray:
        if self._adjoint is None:
            return np.zeros_like(self.value)
        return self._adjoint

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node(value={self.value!r})"


Arrayish = Union[Node, np.ndarray, float, int]


_FLOAT64 = np.dtype(np.float64)


def value_of(x: Arrayish) -> np.ndarray:
    """Numeric value of a Node or plain input, as an ndarray."""
    if type(x) is Node:
        return x.value
    if type(x) is np.ndarray and x.dtype is _FLOAT64:
        return x
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(g: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _identity(g):
    return g


def _binary(a, b, out_val, vjp_a, vjp_b) -> Node:
    """Node for a binary op with the Node operand(s) as parents; ``backward``
    reduces a broadcast contribution back to the operand shape."""
    if type(a) is Node:
        if type(b) is Node:
            parents = ((a, vjp_a), (b, vjp_b))
        else:
            parents = ((a, vjp_a),)
    else:
        parents = ((b, vjp_b),)
    return Node(out_val, parents)


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------

def add(a: Arrayish, b: Arrayish):
    if not (isinstance(a, Node) or isinstance(b, Node)):
        return np.add(a, b)
    av, bv = value_of(a), value_of(b)
    return _binary(a, b, av + bv, _identity, _identity)


def sub(a: Arrayish, b: Arrayish):
    if not (isinstance(a, Node) or isinstance(b, Node)):
        return np.subtract(a, b)
    av, bv = value_of(a), value_of(b)
    return _binary(a, b, av - bv, _identity, lambda g: -g)


def mul(a: Arrayish, b: Arrayish):
    if not (isinstance(a, Node) or isinstance(b, Node)):
        return np.multiply(a, b)
    av, bv = value_of(a), value_of(b)
    return _binary(
        a, b, av * bv,
        lambda g, o=bv: g * o,
        lambda g, o=av: g * o,
    )


def div(a: Arrayish, b: Arrayish):
    if not (isinstance(a, Node) or isinstance(b, Node)):
        return np.divide(a, b)
    av, bv = value_of(a), value_of(b)
    out = av / bv
    return _binary(
        a, b, out,
        lambda g, o=bv: g / o,
        lambda g, o=bv, q=out: -g * q / o,
    )


def neg(a: Arrayish):
    if not isinstance(a, Node):
        return -value_of(a)
    return Node(-a.value, ((a, lambda g: -g),))


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

def tanh(a: Arrayish):
    if not isinstance(a, Node):
        return np.tanh(value_of(a))
    out = np.tanh(a.value)
    return Node(out, ((a, lambda g, t=out: g * (1.0 - t * t)),))


def exp(a: Arrayish):
    if not isinstance(a, Node):
        return np.exp(value_of(a))
    out = np.exp(a.value)
    return Node(out, ((a, lambda g, e=out: g * e),))


def artanh(a: Arrayish):
    """Inverse hyperbolic tangent; derivative 1/(1-x^2)."""
    if not isinstance(a, Node):
        return np.arctanh(value_of(a))
    out = np.arctanh(a.value)
    return Node(out, ((a, lambda g, x=a.value: g / (1.0 - x * x)),))


def arcosh1p(a: Arrayish):
    """arcosh(1 + x) for x >= 0 without forming 1 + x.

    log1p(x + sqrt(x (x + 2))) keeps full relative precision in x, which
    matters for distances between near-coincident points (x ~ ||p-q||^2
    would otherwise be quantized away at the 1e-16 level).  The derivative
    is taken at x >= ARCOSH_CLAMP, so coincident points get a finite gradient.
    """
    def forward(x):
        x = np.maximum(x, 0.0)
        return np.log1p(x + np.sqrt(x * (x + 2.0)))

    if not isinstance(a, Node):
        return forward(value_of(a))
    out = forward(a.value)

    def vjp(g, x=a.value):
        xc = np.maximum(x, ARCOSH_CLAMP)
        return g / np.sqrt(xc * (xc + 2.0))

    return Node(out, ((a, vjp),))


def leaky_relu(a: Arrayish, slope: float):
    if not isinstance(a, Node):
        x = value_of(a)
        return np.where(x > 0, x, slope * x)
    x = a.value
    out = np.where(x > 0, x, slope * x)
    return Node(out, ((a, lambda g, x=x: g * np.where(x > 0, 1.0, slope)),))


def relu(a: Arrayish):
    return leaky_relu(a, 0.0)


# ---------------------------------------------------------------------------
# reductions and linear maps
# ---------------------------------------------------------------------------

def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner product over the last axis: a scalar for two vectors, an (N, 1)
    column when either operand is a matrix of rows."""
    if a.ndim < 2 and b.ndim < 2:
        return np.dot(a, b)
    return np.add.reduce(a * b, axis=-1, keepdims=True)


def dot(a: Arrayish, b: Arrayish):
    """Inner product over the last axis (row-wise for matrices, see _rowdot)."""
    if not (isinstance(a, Node) or isinstance(b, Node)):
        return _rowdot(value_of(a), value_of(b))
    av, bv = value_of(a), value_of(b)
    return _binary(
        a, b, _rowdot(av, bv),
        lambda g, o=bv: g * o,
        lambda g, o=av: g * o,
    )


def norm(a: Arrayish):
    """Euclidean norm over the last axis (an (N, 1) column for rows);
    gradient g * a/||a||, zeros where a = 0."""
    if not isinstance(a, Node):
        v = value_of(a)
        return np.sqrt(_rowdot(v, v))
    v = a.value
    n = np.sqrt(_rowdot(v, v))

    def vjp(g, v=v, n=n):
        return g * np.divide(v, n, out=np.zeros_like(v), where=n != 0.0)

    return Node(n, ((a, vjp),))


def matvec(m: Arrayish, v: Arrayish):
    """M @ v for a (r, d) matrix and a (d,) vector; v @ M.T for (N, d) rows."""
    if not (isinstance(m, Node) or isinstance(v, Node)):
        mv, vv = value_of(m), value_of(v)
        return np.dot(mv, vv) if vv.ndim < 2 else vv @ mv.T
    mv, vv = value_of(m), value_of(v)
    if vv.ndim < 2:
        return _binary(
            m, v, np.dot(mv, vv),
            lambda g, o=vv: np.outer(g, o),
            lambda g, o=mv: np.dot(o.T, g),
        )
    return _binary(
        m, v, vv @ mv.T,
        lambda g, o=vv: g.T @ o,
        lambda g, o=mv: g @ o,
    )


def reshape(a: Arrayish, shape):
    if not isinstance(a, Node):
        return np.reshape(value_of(a), shape)
    orig = a.value.shape
    return Node(a.value.reshape(shape), ((a, lambda g, sh=orig: g.reshape(sh)),))


def nsum(items: Sequence[Arrayish]):
    """Sum a nonempty sequence of same-shaped values/nodes."""
    total = items[0]
    for it in items[1:]:
        total = add(total, it)
    return total


def _scatter_add(values: np.ndarray, index: np.ndarray, n: int) -> np.ndarray:
    """out[index[k]] += values[k] for every k, in order of k (np.add.at's
    summation order), as one bincount over the flattened rows."""
    width = math.prod(values.shape[1:])
    flat = (index[:, None] * width + np.arange(width)).ravel()
    out = np.bincount(flat, values.reshape(-1), minlength=n * width)
    return out.reshape((n,) + values.shape[1:])


def take(a: Arrayish, index):
    """Rows a[index] of a matrix (or entries of a vector); the backward pass
    adds each gathered row's adjoint back into its source row."""
    if not isinstance(a, Node):
        return value_of(a)[index]
    n = a.value.shape[0]
    if np.ndim(index) == 0:
        def vjp(g, i=int(index), shape=a.value.shape):
            out = np.zeros(shape)
            out[i] = g
            return out
    else:
        index = np.asarray(index, dtype=np.intp)

        def vjp(g, i=index, n=n):
            return _scatter_add(g, i, n)

    return Node(a.value[index], ((a, vjp),))


def segment_sum(a: Arrayish, segments: np.ndarray, n: int):
    """Sum the rows of a into n segments: out[s] = sum of a[k] over
    segments[k] == s, added in row order (as nsum adds its terms)."""
    segments = np.asarray(segments, dtype=np.intp)
    if not isinstance(a, Node):
        return _scatter_add(value_of(a), segments, n)
    return Node(_scatter_add(a.value, segments, n),
                ((a, lambda g, s=segments: g[s]),))


def stack(rows: Sequence[Arrayish]):
    """Stack same-shaped rows (Nodes or values) into one matrix."""
    out = np.stack([value_of(r) for r in rows])
    parents = tuple((r, lambda g, i=i: g[i]) for i, r in enumerate(rows) if type(r) is Node)
    if not parents:
        return out
    return Node(out, parents)


# ---------------------------------------------------------------------------
# tape traversal
# ---------------------------------------------------------------------------

_visit_counter = iter(range(1, 2**62)).__next__  # fresh token per traversal


def _topo_order(root: Node) -> List[Node]:
    """Post-order DFS: inputs before outputs, iterative to spare the stack."""
    token = _visit_counter()
    order: List[Node] = []
    stack: List[Tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node._visit == token:
            continue
        node._visit = token
        stack.append((node, True))
        for parent, _ in node.parents:
            if parent._visit != token:
                stack.append((parent, False))
    return order


def backward(root: Node) -> None:
    """Accumulate d(root)/d(node) into ``adjoint`` of every reachable node.

    ``root`` must be scalar-valued and finite.  Leaves not reachable from
    the root keep a zero adjoint.
    """
    if not isinstance(root, Node):
        raise TypeError("backward expects a Node")
    if root.value.shape != ():
        raise ValueError(f"backward root must be scalar, got shape {root.value.shape}")
    if not np.isfinite(root.value):
        raise ValueError("backward root is not finite")

    order = _topo_order(root)
    for node in order:
        node._adjoint = None
    root._adjoint = np.ones_like(root.value)
    for node in reversed(order):
        g = node._adjoint
        if g is None:  # pruned: nothing downstream contributed
            continue
        for parent, vjp in node.parents:
            contrib = vjp(g)
            if contrib.shape != parent.value.shape:  # operand was broadcast
                contrib = _unbroadcast(contrib, parent.value.shape)
            if parent._adjoint is None:
                # may alias g (identity vjp): never mutate adjoints in place
                parent._adjoint = contrib
            else:
                parent._adjoint = parent._adjoint + contrib


@dataclass
class GradReport:
    """Analytic-vs-finite-difference comparison per parameter.

    ``errors`` maps parameter name to the max relative error over its scalar
    entries; ``failures`` lists parameters whose perturbed evaluations were
    not finite.
    """

    errors: Dict[str, float] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)

    @property
    def max_rel_error(self) -> float:
        if not self.errors:
            return 0.0
        return max(self.errors.values())

    @property
    def ok(self) -> bool:
        return not self.failures


def check_gradients(
    f: Callable[[Dict[str, Arrayish]], Arrayish],
    params: Dict[str, np.ndarray],
    h: float = 1e-6,
) -> GradReport:
    """Compare the tape gradient of ``f`` against central finite differences.

    ``f`` takes a dict of parameters (Nodes or ndarrays, it must accept both)
    and returns a scalar.  Each scalar entry of each parameter is perturbed
    by +-h; the relative error denominator is max(|analytic|, |numeric|, 1e-8).
    Non-finite evaluations are recorded in ``failures`` rather than raised.
    """
    if h <= 0:
        raise ValueError("step h must be positive")

    nodes = {k: Node(np.asarray(v, dtype=np.float64)) for k, v in params.items()}
    out = f(nodes)
    if not isinstance(out, Node):
        raise TypeError("f must route through the tape (returned a plain value)")
    backward(out)
    analytic = {k: np.array(n.adjoint, dtype=np.float64) for k, n in nodes.items()}

    report = GradReport()
    base = {k: np.asarray(v, dtype=np.float64).copy() for k, v in params.items()}

    def eval_at(values: Dict[str, np.ndarray]) -> float:
        res = f(values)
        return float(value_of(res))

    for name, arr in base.items():
        worst = 0.0
        failed = False
        flat = arr.reshape(-1)
        ana_flat = analytic[name].reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            f_plus = eval_at(base)
            flat[idx] = orig - h
            f_minus = eval_at(base)
            flat[idx] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                failed = True
                continue
            numeric = (f_plus - f_minus) / (2.0 * h)
            ana = ana_flat[idx]
            rel = abs(ana - numeric) / max(abs(ana), abs(numeric), 1e-8)
            worst = max(worst, rel)
        report.errors[name] = worst
        if failed:
            report.failures.append(name)
    return report
