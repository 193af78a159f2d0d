"""Reverse-mode differentiation on a per-expression tape.

Every operation, the primitives here and the ball operations of
``manifold`` alike, computes its value once with numpy from the values of
its operands and hands it to :func:`fused`, the one constructor of a Node
with parents: called with plain floats/ndarrays it returns the plain value,
called with at least one :class:`Node` it returns one new Node holding the
operation's adjoint, which maps the output's adjoint to a gradient per
operand.  Model code is written once against these operations and runs in
either mode.

Values are vectors or matrices of row vectors: ``dot`` acts on the last
axis and keeps it for rows, so one tape node carries a whole (N, d) matrix.
``take`` and ``segment_sum`` move rows between matrices.

Gradients are validated against central finite differences via
:func:`check_gradients`; that check is the ground truth for every primitive
and every fused ball operation in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple, Union

import numpy as np

class Node:
    """One value on the differentiation tape.

    ``value`` and ``adjoint`` are float64 ndarrays of identical shape
    (0-d for scalars).  ``vjp`` is the operation's adjoint: it maps the
    adjoint of this node to one gradient per operand.  ``parents`` holds
    ``(node, i)`` pairs, where ``node`` is operand ``i`` of ``vjp``.  A leaf
    has neither.
    """

    __slots__ = ("value", "_adjoint", "parents", "vjp", "_visit")

    def __init__(self, value, parents: Tuple = (), vjp=None):
        if type(value) is np.ndarray and value.dtype == np.float64:
            self.value = value
        else:
            self.value = np.asarray(value, dtype=np.float64)
        self._adjoint = None
        self.parents = parents
        self.vjp = vjp
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


def fused(out, operands, adjoint) -> Arrayish:
    """``out`` when no operand is a Node, else one Node over the Node
    operands, in their order, holding ``adjoint``: the one way onto the
    tape.  ``adjoint(g)`` maps the adjoint of ``out`` to one gradient per
    operand (a plain operand's is ignored; None saves computing it);
    backward calls it once."""
    for x in operands:
        if type(x) is Node:
            break
    else:  # no tape: the common case when serving, kept to one cheap loop
        return out
    return Node(out, tuple([(x, i) for i, x in enumerate(operands) if type(x) is Node]), adjoint)


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------

def add(a: Arrayish, b: Arrayish):
    return fused(value_of(a) + value_of(b), (a, b), lambda g: (g, g))


def sub(a: Arrayish, b: Arrayish):
    return fused(value_of(a) - value_of(b), (a, b),
                 lambda g: (g, -g if type(b) is Node else None))


def mul(a: Arrayish, b: Arrayish):
    av, bv = value_of(a), value_of(b)
    return fused(av * bv, (a, b), lambda g: (g * bv if type(a) is Node else None,
                                             g * av if type(b) is Node else None))


def div(a: Arrayish, b: Arrayish):
    av, bv = value_of(a), value_of(b)
    out = av / bv
    return fused(out, (a, b), lambda g: (g / bv if type(a) is Node else None,
                                         -g * out / bv if type(b) is Node else None))


def neg(a: Arrayish):
    return fused(-value_of(a), (a,), lambda g: (-g,))


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

def tanh(a: Arrayish):
    out = np.tanh(value_of(a))
    return fused(out, (a,), lambda g: (g * (1.0 - out * out),))


def exp(a: Arrayish):
    out = np.exp(value_of(a))
    return fused(out, (a,), lambda g: (g * out,))


def leaky_relu(a: Arrayish, slope: float):
    x = value_of(a)
    return fused(np.where(x > 0, x, slope * x), (a,),
                 lambda g: (g * np.where(x > 0, 1.0, slope),))


def relu(a: Arrayish):
    return leaky_relu(a, 0.0)


# ---------------------------------------------------------------------------
# reductions and row moves
# ---------------------------------------------------------------------------

def rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner product over the last axis, the package's one row-product
    kernel: ``np.vecdot``, one BLAS dot per row.  A scalar for two vectors,
    an (N, 1) column when either operand is a matrix of rows.  Each row gets
    ``np.dot``'s bits for that row, whichever other rows come with it."""
    out = np.vecdot(a, b)
    return out if out.ndim == 0 else out[..., None]


def dot(a: Arrayish, b: Arrayish):
    """Inner product over the last axis (row-wise for matrices, see rowdot)."""
    av, bv = value_of(a), value_of(b)
    return fused(rowdot(av, bv), (a, b), lambda g: (g * bv if type(a) is Node else None,
                                                    g * av if type(b) is Node else None))


def reshape(a: Arrayish, shape):
    av = value_of(a)
    return fused(av.reshape(shape), (a,), lambda g: (g.reshape(av.shape),))


def _scatter_add(values: np.ndarray, index: np.ndarray, n: int) -> np.ndarray:
    """out[index[k]] += values[k] for every k, in order of k (np.add.at's
    summation order), as one bincount over the flattened rows."""
    width = math.prod(values.shape[1:])
    flat = (index[:, None] * width + np.arange(width)).ravel()
    out = np.bincount(flat, values.reshape(-1), minlength=n * width)
    return out.reshape((n,) + values.shape[1:])


def take(a: Arrayish, index):
    """Rows a[index] of a matrix (or entries of a vector); the backward pass
    adds each gathered row's adjoint back into its source row.

    ``index`` is an integer or an array of integers of any shape, a negative
    one counting from the end; a bool or float index raises IndexError."""
    index = np.asarray(index)
    if index.dtype.kind not in "iu":
        raise IndexError(f"take needs integer row indices, got {index.dtype}")
    av = value_of(a)

    def adjoint(g):
        n = av.shape[0]  # a negative row counts from the end
        rows = index.reshape(-1).astype(np.intp, copy=False) % n
        return (_scatter_add(g.reshape(rows.shape + av.shape[1:]), rows, n),)

    return fused(av[index], (a,), adjoint)


def segment_sum(a: Arrayish, segments: np.ndarray, n: int):
    """Sum the rows of a into n segments: out[s] = sum of a[k] over
    segments[k] == s, added in row order."""
    segments = np.asarray(segments, dtype=np.intp)
    return fused(_scatter_add(value_of(a), segments, n), (a,), lambda g: (g[segments],))


# ---------------------------------------------------------------------------
# tape traversal
# ---------------------------------------------------------------------------

_visit_counter = iter(range(1, 2**62)).__next__  # fresh token per traversal


def _topo_order(root: Node) -> List[Node]:
    """Post-order DFS: inputs before outputs, iterative to spare the stack.
    Clears the adjoint of every node it reaches."""
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
        node._adjoint = None
        stack.append((node, True))
        for parent, _ in node.parents:
            if parent._visit != token:
                stack.append((parent, False))
    return order


def backward(root: Node) -> None:
    """Set ``adjoint`` of every node reachable from ``root`` to d(root)/d(node).

    ``root`` must be scalar-valued and finite.  A node this call does not
    reach keeps its adjoint: zero, or what the last backward that reached
    it left there.
    """
    if not isinstance(root, Node):
        raise TypeError("backward expects a Node")
    if root.value.shape != ():
        raise ValueError(f"backward root must be scalar, got shape {root.value.shape}")
    if not np.isfinite(root.value):
        raise ValueError("backward root is not finite")

    order = _topo_order(root)
    root._adjoint = np.ones_like(root.value)
    for node in reversed(order):
        g = node._adjoint
        if g is None or node.vjp is None:  # pruned (nothing downstream), or a leaf
            continue
        grads = node.vjp(g)
        for parent, i in node.parents:
            contrib = grads[i]
            if contrib.shape != parent.value.shape:  # operand was broadcast
                contrib = _unbroadcast(contrib, parent.value.shape)
            if parent._adjoint is None:
                # may alias g (an identity adjoint): never mutate adjoints in place
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
    if not 0 < h < math.inf:  # NaN fails too
        raise ValueError("step h must be finite and positive")

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
