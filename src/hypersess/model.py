"""Hyperbolic session model: projection, time-aware attention, future heads.

Layer math follows the tangent-space convention: sums and nonlinearities are
applied after a log map at the origin and the result is mapped back with the
exp map.  Every function here is generic over plain ndarrays (inference) and
tape Nodes (training); see ``grad``.  Every layer takes an (N, d) matrix of
node rows over a :class:`~hypersess.graph.GraphBatch`, so one tape node
carries a whole minibatch.  Training binds a minibatch's tape leaves, the
matrices and the (K, f) block of its item rows, on a shallow copy of params.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import grad, manifold
from .grad import Arrayish
from .graph import DIRECTIONS, GraphBatch, SessionGraph, graph_sessions

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


def item_positions(index: Dict[Item, int], items: Iterable[Item]) -> List[int]:
    """Each item's row under ``index``; ValueError naming the first unknown
    item.  The one item lookup of the model and of scoring."""
    try:
        return [index[it] for it in items]
    except KeyError as exc:
        raise ValueError(f"item {exc.args[0]!r} is not in the model's vocabulary") from None


def id_order(items: Sequence[Item], *codes: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
    """The distinct rows of ``codes`` in item-id order, and each code's
    position in it: a GEMM may round a row differently at another place."""
    rows, at = np.unique(np.concatenate(codes), return_inverse=True)
    by_id = sorted(range(len(rows)), key=[items[r] for r in rows.tolist()].__getitem__)
    position = np.empty(len(rows), dtype=np.intp)
    position[by_id] = np.arange(len(rows))
    at, ends = position[at], np.cumsum([len(c) for c in codes])
    return rows[by_id], [at[end - len(c):end] for c, end in zip(codes, ends)]


def check_hyperparameters(lambda_s, lambda_v, layers, attention_sign, direction) -> None:
    """The rules every model configuration obeys; raises ValueError."""
    for name, value in (("lambda_s", lambda_s), ("lambda_v", lambda_v)):
        if not 0 <= value < np.inf:  # NaN fails too
            raise ValueError(f"{name} must be finite and nonnegative, not {value!r}")
    if not 1 <= layers <= 3:
        raise ValueError("layers must be in 1..3")
    if attention_sign not in (1.0, -1.0):
        raise ValueError("attention_sign must be +1 or -1")
    if direction not in DIRECTIONS:
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
    neighborhood: str = DIRECTIONS[0]
    # each item's table row, always built from ``items``
    item_index: Dict[Item, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.item_index = {it: i for i, it in enumerate(self.items)}
        check_hyperparameters(self.lambda_s, self.lambda_v, self.num_layers,
                              self.attention_sign, self.neighborhood)

    @property
    def dim(self) -> int:
        return self.feat_proj.shape[0]

    @property
    def feat_dim(self) -> int:
        return self.feat_proj.shape[1]

    def item_positions(self, items: Iterable[Item]) -> List[int]:
        """Each item's table row; ValueError naming the first unknown item."""
        return item_positions(self.item_index, items)

    def item_vec(self, item_id: Item) -> Arrayish:
        return grad.take(self.item_features, self.item_positions([item_id])[0])

    def __getstate__(self):
        # a copy's arrays are writable: it must neither carry nor serve the kept table
        state = dict(vars(self))
        state.pop("_item_table", None)
        return state


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
# disjoint union of session graphs; one session is a batch of one
# (:func:`forward_session`).

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


def self_attention_layer(state: Arrayish, batch: GraphBatch, params) -> Arrayish:
    """One aggregation step over the (N, d) node rows ``state``: weighted,
    time-shifted neighbors in tangent space."""
    weights = _attention_weights(state, batch, params)
    # interval 0 embeds to a zero row, and x (+) 0 = x
    joint = manifold.mobius_add(grad.take(state, batch.src), time_embedding(batch.interval, params))
    terms = manifold.log_map0(manifold.mobius_scalar_mul(weights, joint))
    agg = grad.leaky_relu(grad.segment_sum(terms, batch.dst, batch.n_nodes), LEAKY_SLOPE)
    return manifold.exp_map0(agg)


def soft_attention_session(h: Arrayish, batch: GraphBatch, params) -> Arrayish:
    """Session readout keyed on the last item.

    Each item's coefficient is the signed scalar produced by a 1-row Mobius
    matrix-vector product against the activated joint embedding; the
    coefficients are not normalized.  Gives one (d,) row per session of the
    batch: (B, d).
    """
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
    return manifold.exp_map0(agg)


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
    """A batch's pass from :func:`forward_batch`, every field a matrix of
    rows; :func:`forward_session` gives one session's, whose last three
    fields are (d,) vectors."""

    initial: Arrayish           # (N, d) node embeddings after input projection
    final: Arrayish             # (N, d) node embeddings after the last layer
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


def forward_items(batch: GraphBatch, t_norm, params, features: Arrayish, node_at):
    """One :func:`forward_batch` over a ready batch, session b asked about
    ``t_norm[b]``: the (K, f) item ``features`` are projected once, and
    node n starts from projected row ``node_at[n]``.  Returns the pass and
    the (K, d) projected rows."""
    table = hyperbolic_projection(features, params)
    initial = grad.take(table, node_at)
    return forward_batch(batch, np.array(t_norm, dtype=np.float64), initial, params), table


def forward_session(g: SessionGraph, t_norm: float, params) -> ForwardResult:
    """Full pass for one session graph and query interval: a batch of one,
    its nodes projected in node order, with the (n, d) node rows and (d,)
    vectors for the session."""
    sessions = graph_sessions([g], [t_norm])
    batch, node_at = sessions.graph_batch(params.neighborhood)
    features = grad.take(params.item_features, params.item_positions(g.nodes))
    fw = forward_items(batch, sessions.intervals, params, features, node_at)[0]
    return replace(fw, session=grad.take(fw.session, 0),
                   session_future=grad.take(fw.session_future, 0),
                   item_future=grad.take(fw.item_future, 0))


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

@dataclass
class RankedList:
    """Top-k items by ascending distance, ties broken by ascending item id."""

    entries: List[Tuple[Item, float]]
    k: int


def project_item_table(params: ModelParams) -> np.ndarray:
    """Projected embeddings of the whole catalog, one row per item (numeric)."""
    return hyperbolic_projection(params.item_features, params)


def check_item_rows(items: Sequence[Item], features: np.ndarray) -> None:
    """Raise ValueError naming the first item whose feature row is not finite."""
    if not np.isfinite(features).all():
        finite = np.isfinite(features).all(axis=1)
        raise ValueError(f"item {items[int(np.argmin(finite))]!r} has a non-finite feature row")


class ItemTable:
    """The catalog projected once, to score one or many points against.

    Get one through :func:`item_table`, which keeps it on read-only params
    (what ``fit`` and ``load_checkpoint`` return) and builds a fresh one per
    call for writable params, whose item rows ``optimizer_step`` writes in
    place.  Items are ordered by ascending distance, ties by ascending item
    id, the distances being those of
    :func:`~hypersess.manifold.distances_to_rows`.  :meth:`top_k` and
    :meth:`ranks` both go through one screen (:meth:`_screen`) and recompute
    exactly only the rows its rounding bound cannot place.
    """

    def __init__(self, params: ModelParams):
        if not params.items:
            raise ValueError("empty item table")
        self.items = params.items
        self.index = params.item_index
        # checked before projecting, to name the item
        check_item_rows(self.items, params.item_features)
        self.rows = project_item_table(params)
        self.norms2 = grad.rowdot(self.rows, self.rows)[:, 0]
        self.gaps = 1.0 - self.norms2
        # the screen's error bound h per row
        self.slack = manifold.screen_slack(self.gaps, self.rows.shape[1])

    def _screen(self, points: np.ndarray):
        """The (B, d) ``points`` checked, their gaps 1 - q.q and the (B, N)
        screen S of the catalog, whose (N,) error bound h is ``slack``, from
        :func:`~hypersess.manifold.distance_screen` (its docstring gives the
        bound).  A row that neither test of
        :func:`~hypersess.manifold.screen_bounds` places is in the band, and
        is recomputed exactly with distances_to_rows's formula
        (:func:`~hypersess.manifold.paired_distances`, same bits).
        """
        q = np.asarray(points, dtype=np.float64)
        if not np.isfinite(q).all():
            raise ValueError("non-finite point to score the catalog against")
        q_gaps, screen = manifold.distance_screen(q, self.rows, self.norms2, self.gaps)
        if not (q_gaps > 0.0).all():
            raise ValueError("point to score the catalog against lies outside the ball")
        return q, q_gaps, screen

    def top_k(self, point: Arrayish, k: int) -> RankedList:
        """The k items nearest the point, with their distances.

        The k rows of smallest screen are recomputed exactly, and d_k, the
        largest of their distances, has at least k rows at or within it.
        Every row certainly farther than d_k (:meth:`_screen`) is dropped;
        the rest of the band is recomputed too, and the band is sorted by
        (distance, item id).
        """
        n = len(self.items)
        if not 1 <= k <= n:
            raise ValueError(f"k={k} outside 1..{n}")
        q, q_gaps, screen = self._screen(np.asarray(grad.value_of(point))[None])
        q, g, screen = q[0], q_gaps[0], screen[0]
        near = np.argpartition(screen, k - 1)[:k]
        dists = manifold.paired_distances(q, self.rows[near], g, self.gaps[near]).tolist()
        screen -= self.slack
        band = screen <= manifold.screen_bounds(g, max(dists), q.size)[1]
        # the k rows lie within d_k, so they are in the band, already recomputed
        band[near] = False
        rest = np.flatnonzero(band)
        if rest.size:
            dists += manifold.paired_distances(q, self.rows[rest], g, self.gaps[rest]).tolist()
        ids = [self.items[r] for r in near.tolist() + rest.tolist()]
        return RankedList(entries=[(it, d) for d, it in sorted(zip(dists, ids))[:k]], k=k)

    def ranks(self, points: np.ndarray, targets: Sequence[Item]) -> np.ndarray:
        """1-based full-catalog position of each target for its point (row
        b of the (B, d) ``points`` for ``targets[b]``): 1 + the items closer
        than the target + the items at its distance with a smaller id.

        With d_t the target's computed distance, the rows the screen puts
        certainly closer (:meth:`_screen`) are counted from it, and the band
        is recomputed: a band row counts when its distance is below d_t, or
        equal with a smaller id.  The counts are vectorised over the B x N
        block, and the screen is computed in place: at most two B x N
        float64 arrays.
        """
        q, q_gaps, screen = self._screen(points)
        t = np.array(item_positions(self.index, targets), dtype=np.intp)
        d_t = manifold.paired_distances(q, self.rows[t], q_gaps, self.gaps[t])
        lo, hi = manifold.screen_bounds(q_gaps, d_t, q.shape[1])

        bound = np.add(screen, self.slack)
        band = bound >= lo[:, None]
        closer = len(self.items) - np.count_nonzero(band, axis=1)
        np.subtract(screen, self.slack, out=bound)
        band &= bound <= hi[:, None]

        b, r = np.nonzero(band)
        dists = manifold.paired_distances(q[b], self.rows[r], q_gaps[b], self.gaps[r])
        counted = dists < d_t[b]
        # a tie counts when its id is smaller; ties are rare, so compared one by one
        tied = np.flatnonzero((dists == d_t[b]) & (r != t[b]))
        counted[tied] = [self.items[r[i]] < targets[b[i]] for i in tied.tolist()]
        return 1 + closer + np.bincount(b[counted], minlength=len(t))


def _read_only(a) -> bool:
    return isinstance(a, np.ndarray) and not a.flags.writeable


def item_table(params: ModelParams) -> ItemTable:
    """The projected catalog of ``params``, the one way scoring gets it.

    The projection reads ``items``, ``item_features`` and ``feat_proj``.
    When both arrays are read-only (as :func:`~hypersess.train.fit` and
    :func:`~hypersess.train.load_checkpoint` return them) the table is kept
    on ``params`` and served again while those three are the same objects
    and both arrays still read-only; anything else is projected afresh, once
    per call.  A fit array's flag can be set back to writable: the first
    call that finds it so drops the kept table, but rows written and frozen
    again between two calls are not seen.
    """
    kept = vars(params).pop("_item_table", None)
    if not (_read_only(params.item_features) and _read_only(params.feat_proj)):
        return ItemTable(params)
    source = (params.items, params.item_features, params.feat_proj)
    if kept is None or any(a is not b for a, b in zip(kept[0], source)):
        # the kept rows are allocated before the projection's temporaries: placed
        # after them, they held on to the memory those free (at 20k x 60, about
        # 9 MB more peak RSS); a table built per call is left as it is
        rows = np.empty((len(params.items), params.dim))
        table = ItemTable(params)
        rows[...] = table.rows
        table.rows = rows
        kept = (source, table)
    params._item_table = kept
    return kept[1]


def score_items(h_v_future: Arrayish, params: ModelParams, k: int) -> RankedList:
    """Rank the catalog by distance to the predicted item embedding."""
    return item_table(params).top_k(h_v_future, k)
