"""Hyperbolic session model: projection, time-aware attention, future heads.

Layer math follows the tangent-space convention: sums and nonlinearities are
applied after a log map at the origin and the result is mapped back with the
exp map.  Every function here is generic over plain ndarrays (inference) and
tape Nodes (training); see ``grad``.  Layers act on matrices of node rows
over a :class:`~hypersess.graph.GraphBatch`, so one tape node carries a
whole minibatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import grad, manifold
from .grad import Arrayish
from .graph import GraphBatch, SessionGraph, batch_graphs

Item = str

# learnable arrays besides the item table, in checkpoint order
MATRIX_FIELDS = (
    "feat_proj", "att_last_proj", "att_item_proj",
    "sess_future_proj", "item_future_proj",
    "att_vec", "att_bias", "time_proj",
)
# hyperparameters a checkpoint stores beside the arrays, in meta order
HYPER_FIELDS = (
    "lambda_s", "lambda_v", "num_layers", "attention_sign", "neighborhood",
)
# negative-side slope of every leaky ReLU in the model
LEAKY_SLOPE = 0.2


def check_hyperparameters(lambda_s, lambda_v, layers, attention_sign, direction) -> None:
    """The rules every model configuration obeys; raises ValueError."""
    if lambda_s < 0 or lambda_v < 0:
        raise ValueError("lambda_s and lambda_v must be nonnegative")
    if not 1 <= layers <= 3:
        raise ValueError("layers must be in 1..3")
    if attention_sign not in (1.0, -1.0):
        raise ValueError("attention_sign must be +1 or -1")
    if direction not in ("in", "out", "both"):
        raise ValueError("neighborhood must be in/out/both")


@dataclass
class ModelParams:
    """Learnable state.

    ``item_features`` rows are the per-item input vectors (ball-constrained);
    the attention layers themselves are parameter-free, so depth is just the
    iteration count ``num_layers``.
    """

    items: List[Item]
    item_features: np.ndarray        # (n_items, feat_dim)
    feat_proj: np.ndarray            # (dim, feat_dim) input transform
    att_last_proj: np.ndarray        # (dim, dim) readout: last-item side
    att_item_proj: np.ndarray        # (dim, dim) readout: candidate side
    sess_future_proj: np.ndarray     # (dim, dim) session head
    item_future_proj: np.ndarray     # (dim, dim) item head
    att_vec: np.ndarray              # (dim,) readout scoring vector
    att_bias: np.ndarray             # (dim,) readout bias, ball point
    time_proj: np.ndarray            # (dim,) interval embedding column
    lambda_s: float = 0.1
    lambda_v: float = 0.1
    num_layers: int = 1
    attention_sign: float = 1.0
    neighborhood: str = "in"
    item_index: Dict[Item, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.item_index:
            self.item_index = {it: i for i, it in enumerate(self.items)}
        check_hyperparameters(self.lambda_s, self.lambda_v, self.num_layers,
                              self.attention_sign, self.neighborhood)

    @property
    def dim(self) -> int:
        return self.feat_proj.shape[0]

    @property
    def feat_dim(self) -> int:
        return self.feat_proj.shape[1]

    def item_vec(self, item_id: Item) -> Arrayish:
        return grad.take(self.item_features, self.item_index[item_id])

    def item_rows(self, items: Sequence[Item]) -> Arrayish:
        """The (K, f) feature rows of the given items, in their order."""
        return grad.take(self.item_features, [self.item_index[it] for it in items])

    def matrix_fields(self) -> Tuple[str, ...]:
        return MATRIX_FIELDS


class BoundParams(ModelParams):
    """ModelParams with selected arrays overridden (typically by Nodes).

    Override keys are field names or ``"item:<id>"`` for single table rows,
    which are stacked with the other rows into one ``item_features``; every
    other field is the base's, and ``item_index`` follows ``items``.
    """

    def __init__(self, base: ModelParams, overrides: Dict[str, Arrayish]):
        super().__init__(**{f.name: overrides.get(f.name, getattr(base, f.name))
                            for f in fields(ModelParams) if f.name != "item_index"})
        rows = {key[5:]: v for key, v in overrides.items() if key.startswith("item:")}
        if rows:
            self.item_features = grad.stack([rows.get(it, self.item_features[i])
                                             for i, it in enumerate(self.items)])


def init_params(
    items: Sequence[Item],
    dim: int,
    rng: np.random.Generator,
    *,
    categories: Optional[Dict[Item, int]] = None,
    **hyperparameters,
) -> ModelParams:
    """Seeded initialization; ``hyperparameters`` are ModelParams fields
    (``lambda_s`` ... ``neighborhood``) and default to its defaults.

    With a category map the item features are (shell-clipped) one-hot
    category indicators; otherwise free vectors from U(-0.01, 0.01)^dim.
    Square transforms start at identity plus U(-0.05, 0.05) noise so initial
    embeddings stay distinguishable.
    """
    items = list(items)
    n = len(items)
    if n == 0:
        raise ValueError("empty item vocabulary")

    if categories is not None:
        n_cat = max(categories.values()) + 1
        feats = np.zeros((n, n_cat))
        for i, it in enumerate(items):
            feats[i, categories[it]] = 1.0
        feats = manifold.project_to_ball(feats)
        feat_dim = n_cat
    else:
        feat_dim = dim
        feats = rng.uniform(-0.01, 0.01, size=(n, feat_dim))

    def square(d):
        return np.eye(d) + rng.uniform(-0.05, 0.05, size=(d, d))

    if feat_dim == dim:
        w_in = square(dim)
    else:
        w_in = rng.uniform(-0.05, 0.05, size=(dim, feat_dim))
        for i in range(min(dim, feat_dim)):
            w_in[i, i] += 1.0

    return ModelParams(
        items=items,
        item_features=feats,
        feat_proj=w_in,
        att_last_proj=square(dim),
        att_item_proj=square(dim),
        sess_future_proj=square(dim),
        item_future_proj=square(dim),
        att_vec=rng.uniform(-0.5, 0.5, size=dim),
        att_bias=np.zeros(dim),
        time_proj=rng.uniform(-0.5, 0.5, size=dim),
        **hyperparameters,
    )


# ---------------------------------------------------------------------------
# forward components
# ---------------------------------------------------------------------------
# Every layer works on an (N, d) matrix of node rows over a GraphBatch, the
# disjoint union of session graphs; one session is a batch of one.  The
# per-session entry points (a SessionGraph and a list of rows, or one (d,)
# vector) keep their shapes by converting at the boundary.

def _as_batch(g, params) -> GraphBatch:
    if isinstance(g, GraphBatch):
        return g
    return batch_graphs([g], params.neighborhood)


def _unstack(m: Arrayish) -> List[Arrayish]:
    """The rows of a matrix as a list, taped when the matrix is a Node."""
    if isinstance(m, grad.Node):
        return [grad.take(m, i) for i in range(m.value.shape[0])]
    return list(m)


def _first(m: Arrayish) -> Arrayish:
    return grad.take(m, 0) if isinstance(m, grad.Node) else m[0]


def hyperbolic_projection(raw_feature: Arrayish, params) -> Arrayish:
    """Map raw feature vectors (a (f,) vector or (N, f) rows) into the ball
    and transform them."""
    return manifold.mobius_matvec(params.feat_proj, manifold.exp_map0(raw_feature))


def time_embedding(t_norm, params) -> Arrayish:
    """Embed normalized intervals via the time column: origin at t = 0.

    A float gives one (d,) point, an (E,) array one row per interval."""
    t = np.asarray(t_norm, dtype=np.float64)
    if not np.all((t >= 0.0) & (t < 1.0)):
        raise ValueError(f"normalized interval {t_norm} outside [0, 1)")
    col = grad.reshape(params.time_proj, (params.dim, 1))
    return manifold.mobius_matvec(col, t[..., None])


def _attention_weights(state: Arrayish, batch: GraphBatch, params) -> Arrayish:
    """(E, 1) softmax, over each destination's entries, of the signed
    distance between the two nodes; a node's distance to itself is the
    exact constant 0, in value and in gradient."""
    dist = manifold.distance(grad.take(state, batch.dst), grad.take(state, batch.src))
    sign = np.where(batch.dst == batch.src, 0.0, params.attention_sign)[:, None]
    scores = grad.mul(sign, dist)
    # the pivot is a constant: softmax does not depend on it
    pivot = np.full(batch.n_nodes, -np.inf)
    np.maximum.at(pivot, batch.dst, grad.value_of(scores)[:, 0])
    exps = grad.exp(grad.sub(scores, pivot[batch.dst, None]))
    total = grad.segment_sum(exps, batch.dst, batch.n_nodes)
    return grad.div(exps, grad.take(total, batch.dst))


def attention_coefficients(
    state: Sequence[Arrayish], g: SessionGraph, i: int, params,
) -> List[Tuple[int, Arrayish]]:
    """Softmax over signed neighbor distances; returns (node index, weight)."""
    batch = _as_batch(g, params)
    weights = grad.reshape(_attention_weights(grad.stack(state), batch, params), (-1,))
    return [(int(batch.src[e]), grad.take(weights, e))
            for e in np.flatnonzero(batch.dst == i)]


def self_attention_layer(state, g, params):
    """One aggregation step: weighted, time-shifted neighbors in tangent space.

    ``state`` is an (N, d) matrix over the batch ``g``, or the list of one
    session graph's node rows, which gives a list back.
    """
    rows = isinstance(state, (list, tuple))
    h = grad.stack(state) if rows else state
    batch = _as_batch(g, params)
    weights = _attention_weights(h, batch, params)
    # interval 0 embeds to a zero row, and x (+) 0 = x
    joint = manifold.mobius_add(grad.take(h, batch.src), time_embedding(batch.interval, params))
    terms = manifold.log_map0(manifold.mobius_scalar_mul(weights, joint))
    agg = grad.leaky_relu(grad.segment_sum(terms, batch.dst, batch.n_nodes), LEAKY_SLOPE)
    out = manifold.exp_map0(agg)
    return _unstack(out) if rows else out


def soft_attention_session(state, g, params) -> Arrayish:
    """Session readout keyed on the last item.

    Each item's coefficient is the signed scalar produced by a 1-row Mobius
    matrix-vector product against the activated joint embedding; the
    coefficients are not normalized.  Gives one (d,) vector for a session
    graph and (B, d) rows for a batch.
    """
    batch = _as_batch(g, params)
    h = grad.stack(state) if isinstance(state, (list, tuple)) else state
    last_part = manifold.mobius_matvec(params.att_last_proj, grad.take(h, batch.last))
    inner = manifold.mobius_add(
        manifold.mobius_add(
            grad.take(last_part, batch.node_session),
            manifold.mobius_matvec(params.att_item_proj, h),
        ),
        params.att_bias,
    )
    activated = manifold.exp_map0(grad.leaky_relu(manifold.log_map0(inner), LEAKY_SLOPE))
    row = grad.reshape(params.att_vec, (1, params.dim))
    beta = manifold.mobius_matvec(row, activated)
    terms = manifold.log_map0(manifold.mobius_scalar_mul(beta, h))
    agg = grad.leaky_relu(grad.segment_sum(terms, batch.node_session, batch.n_sessions), LEAKY_SLOPE)
    out = manifold.exp_map0(agg)
    return out if isinstance(g, GraphBatch) else _first(out)


def project_session_future(h_s: Arrayish, t_norm, params) -> Arrayish:
    """Evolve the session embedding to a future instant.

    Computed in the tangent space at the origin as log(h_s) * (1 + log(h_t)),
    so a zero interval leaves the tangent vector untouched (all-ones factor).
    """
    h_t = time_embedding(t_norm, params)
    scaled = grad.mul(manifold.log_map0(h_s), grad.add(1.0, manifold.log_map0(h_t)))
    return manifold.exp_map0(grad.leaky_relu(scaled, LEAKY_SLOPE))


def project_item_future(h_s_future: Arrayish, h_last: Arrayish, t_norm, params) -> Arrayish:
    """Predict the future item embedding from session, last item and interval."""
    h_t = time_embedding(t_norm, params)
    inner = manifold.mobius_add(
        manifold.mobius_add(
            manifold.mobius_matvec(params.sess_future_proj, h_s_future),
            manifold.mobius_matvec(params.item_future_proj, h_last),
        ),
        h_t,
    )
    return manifold.exp_map0(grad.tanh(manifold.log_map0(inner)))


@dataclass
class ForwardResult:
    """One session's pass (lists of node rows and (d,) vectors), or a
    batch's from :func:`forward_batch` (matrices of rows)."""

    initial: List[Arrayish]     # per-node embeddings after input projection
    final: List[Arrayish]       # per-node embeddings after the last layer
    session: Arrayish           # readout before future projection
    session_future: Arrayish
    item_future: Arrayish


def forward_batch(batch: GraphBatch, t_norm: np.ndarray, initial: Arrayish, params) -> ForwardResult:
    """Full pass over a batch from its (N, d) projected node rows, with one
    query interval per session; every field is a matrix of rows."""
    state = initial
    for _ in range(params.num_layers):
        state = self_attention_layer(state, batch, params)
    h_s = soft_attention_session(state, batch, params)
    h_s_fut = project_session_future(h_s, t_norm, params)
    h_v_fut = project_item_future(h_s_fut, grad.take(state, batch.last), t_norm, params)
    return ForwardResult(
        initial=initial,
        final=state,
        session=h_s,
        session_future=h_s_fut,
        item_future=h_v_fut,
    )


def forward_session(g: SessionGraph, t_norm: float, params) -> ForwardResult:
    """Full pass for one session graph and query interval: a batch of one."""
    fw = forward_batch(_as_batch(g, params), np.array([t_norm]),
                       hyperbolic_projection(params.item_rows(g.nodes), params), params)
    return ForwardResult(
        initial=_unstack(fw.initial),
        final=_unstack(fw.final),
        session=_first(fw.session),
        session_future=_first(fw.session_future),
        item_future=_first(fw.item_future),
    )


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

@dataclass
class RankedList:
    """Top-k items by ascending distance, ties broken by ascending item id."""

    entries: List[Tuple[Item, float]]
    k: int

    def rank(self, target: Item) -> Optional[int]:
        """1-based position of the target, or None if absent from the list."""
        for pos, (item, _) in enumerate(self.entries, start=1):
            if item == target:
                return pos
        return None


def project_item_table(params: ModelParams) -> np.ndarray:
    """Projected embeddings of the whole catalog, one row per item (numeric)."""
    return hyperbolic_projection(params.item_features, params)


def check_item_rows(items: Sequence[Item], features: np.ndarray) -> None:
    """Raise ValueError naming the first item whose feature row is not finite."""
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        raise ValueError(f"item {items[int(np.argmin(finite))]!r} has a non-finite feature row")


class ItemTable:
    """The catalog projected once, to score one or many points against.

    Build one per call that scores: ``optimizer_step`` writes item rows in
    place, so a table kept across calls would silently go stale.  Items are
    ordered by ascending distance, ties by ascending item id.
    """

    def __init__(self, params: ModelParams):
        if not params.items:
            raise ValueError("empty item table")
        self.items = params.items
        self.index = params.item_index
        # checked before projecting, to name the item
        check_item_rows(self.items, params.item_features)
        self.rows = project_item_table(params)
        self.gaps = 1.0 - np.sum(self.rows * self.rows, axis=1)

    def distances(self, point: Arrayish) -> np.ndarray:
        """Geodesic distance from the point to every item, in table order."""
        point = np.asarray(grad.value_of(point), dtype=np.float64)
        if not np.isfinite(point).all():
            raise ValueError("non-finite point to score the catalog against")
        return manifold.distances_to_rows(point, self.rows, self.gaps)

    def top_k(self, point: Arrayish, k: int) -> RankedList:
        n = len(self.items)
        if not 1 <= k <= n:
            raise ValueError(f"k={k} outside 1..{n}")
        dists = self.distances(point)
        # every item tied with the k-th distance is a candidate for the cut
        kth = np.partition(dists, k - 1)[k - 1]
        near = np.flatnonzero(dists <= kth).tolist()
        order = sorted(near, key=lambda r: (dists[r], self.items[r]))[:k]
        return RankedList(entries=[(self.items[r], float(dists[r])) for r in order], k=k)

    def rank(self, point: Arrayish, target: Item) -> int:
        """1-based full-catalog position of the target: 1 + the items closer
        than it + the items at its distance with a smaller id."""
        dists = self.distances(point)
        d_t = dists[self.index[target]]
        tied = np.flatnonzero(dists == d_t)
        return (1 + int(np.count_nonzero(dists < d_t))
                + sum(self.items[r] < target for r in tied.tolist()))


def score_items(h_v_future: Arrayish, params: ModelParams, k: int) -> RankedList:
    """Rank the catalog by distance to the predicted item embedding."""
    return ItemTable(params).top_k(h_v_future, k)
