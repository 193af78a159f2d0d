"""Training: evolutionary distance loss, projected gradient descent, fit loop.

The loss combines three geodesic distances with plain real-number weights
(lambda_s, lambda_v); Mobius arithmetic on scalar distances is not defined,
and the objective must be an ordinary real.  Ball-constrained parameters
(item feature rows, readout bias) are re-projected after every update.
"""

from __future__ import annotations

import contextlib
import json
import logging
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import grad, manifold, model
from .graph import IntervalNormalizer, SessionGraph, SessionRecord, build_session_graph
from .model import BoundParams, ModelParams

log = logging.getLogger(__name__)

BALL_FIELDS = ("att_bias",)  # plus every item feature row


@dataclass
class TrainConfig:
    dim: int = 60
    learning_rate: float = 0.01
    epochs: int = 30
    batch_size: int = 64
    lambda_s: float = 0.1
    lambda_v: float = 0.1
    seed: int = 0
    attention_sign: float = 1.0
    layers: int = 1
    tau: float = 60.0
    cap: float = 86400.0
    neighborhood: str = "in"
    retraction: str = "project"     # "project" or "exp"
    grad_clip: float = 5.0
    augment_prefixes: bool = False
    margin_negatives: bool = False  # optional repulsion term, off by default
    margin: float = 1.0

    def __post_init__(self):
        # a config file may spell the sign as "+1" / "-1"; anything else fails the check
        with contextlib.suppress(TypeError, ValueError):
            self.attention_sign = float(self.attention_sign)
        if self.dim < 1 or self.epochs < 1 or self.batch_size < 1:
            raise ValueError("dim, epochs and batch_size must be positive")
        # lr = 0 is admitted so a no-update run can be constructed
        if self.learning_rate < 0 or self.tau <= 0 or self.cap <= 0:
            raise ValueError("learning_rate, tau and cap must be nonnegative/positive")
        model.check_hyperparameters(self.lambda_s, self.lambda_v, self.layers,
                                    self.attention_sign, self.neighborhood)
        if self.retraction not in ("project", "exp"):
            raise ValueError("retraction must be 'project' or 'exp'")

    def normalizer(self) -> IntervalNormalizer:
        return IntervalNormalizer(tau=self.tau, cap=self.cap)


@dataclass
class TrainingExample:
    """Graph over all but a session's final event, plus that event as target."""

    graph: SessionGraph
    target_item: str
    target_interval: float


def examples_from_records(
    records: Sequence[SessionRecord],
    norm: IntervalNormalizer,
    augment_prefixes: bool = False,
) -> List[TrainingExample]:
    """One example per session (prefix of n-1 events, target v_n).

    With ``augment_prefixes`` every prefix of length >= 2 additionally yields
    an example.  Sessions shorter than 2 events are skipped.
    """
    out: List[TrainingExample] = []
    for rec in records:
        n = len(rec.events)
        if n < 2:
            continue
        cuts = range(2, n + 1) if augment_prefixes else [n]
        for c in cuts:
            prefix = SessionRecord(rec.session_id, list(rec.events[:c - 1]))
            g = build_session_graph(prefix, norm, min_events=1)
            target_item, target_t = rec.events[c - 1]
            out.append(TrainingExample(
                graph=g,
                target_item=target_item,
                target_interval=norm(target_t - rec.events[c - 2][1]),
            ))
    return out


def compute_loss(
    example: TrainingExample,
    params,
    negative_item: Optional[str] = None,
    margin: float = 1.0,
):
    """d(item_future, target) + lambda_s d(session_future, session)
    + lambda_v d(target, last item), all geodesic.

    ``params`` may be a ModelParams or a BoundParams with tape Nodes, in
    which case the result is a scalar Node.  ``negative_item`` adds the
    optional hinge max(0, margin - d(item_future, negative)).
    """
    if example.target_item not in params.item_index:
        raise KeyError(f"target item {example.target_item!r} not in vocabulary")

    fw = model.forward_session(example.graph, example.target_interval, params)

    if example.target_item in example.graph.node_index:
        h_target = fw.initial[example.graph.node_index[example.target_item]]
    else:
        h_target = model.hyperbolic_projection(params.item_vec(example.target_item), params)

    loss = manifold.distance(fw.item_future, h_target)
    if params.lambda_s > 0:
        loss = grad.add(loss, grad.mul(params.lambda_s, manifold.distance(fw.session_future, fw.session)))
    if params.lambda_v > 0:
        loss = grad.add(loss, grad.mul(params.lambda_v, manifold.distance(h_target, fw.final[example.graph.last_index])))
    if negative_item is not None and negative_item != example.target_item:
        h_neg = model.hyperbolic_projection(params.item_vec(negative_item), params)
        loss = grad.add(loss, grad.relu(grad.sub(margin, manifold.distance(fw.item_future, h_neg))))
    return loss


def _global_norm(grads: Dict[str, np.ndarray]) -> float:
    return float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))


def optimizer_step(
    params: ModelParams,
    grads: Dict[str, np.ndarray],
    lr: float,
    clip: float = 5.0,
    retraction: str = "project",
) -> ModelParams:
    """In-place descent step with global-norm clipping and ball projection.

    A non-finite gradient aborts the whole step (params untouched) and logs
    the offending parameter.
    """
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            log.warning("non-finite gradient for %s; skipping step", name)
            return params

    gnorm = _global_norm(grads)
    scale = 1.0 if gnorm <= clip or gnorm == 0.0 else clip / gnorm

    def ball_update(vec: np.ndarray, g: np.ndarray) -> np.ndarray:
        step = -lr * scale * g
        if retraction == "exp":
            moved = manifold.exp_map(manifold.ball_point(vec), step)
        else:
            moved = vec + step
        return manifold.ball_point(moved, copy=False)

    for name, g in grads.items():
        if name.startswith("item:"):
            row = params.item_index[name[5:]]
            params.item_features[row] = ball_update(params.item_features[row], g)
        elif name in BALL_FIELDS:
            setattr(params, name, ball_update(getattr(params, name), g))
        else:
            setattr(params, name, getattr(params, name) - lr * scale * g)
    return params


@dataclass
class FitResult:
    params: ModelParams
    epoch_losses: List[float]
    collapse_trace: List[float] = field(default_factory=list)


def fit(
    dataset: Sequence[TrainingExample],
    config: TrainConfig,
    vocab: Optional[Sequence[str]] = None,
    categories: Optional[Dict[str, int]] = None,
    params: Optional[ModelParams] = None,
) -> FitResult:
    """Seeded epoch/batch loop; identical seeds give identical traces.

    ``vocab`` fixes the catalog (defaults to the items present in the
    dataset).  The collapse trace records the mean pairwise distance among
    up to 100 sampled projected item embeddings after each epoch.
    """
    if not dataset:
        raise ValueError("empty training dataset")

    rng = np.random.default_rng(config.seed)
    monitor_rng = np.random.default_rng(config.seed + 1)

    if params is None:
        if vocab is None:
            seen = set()
            for ex in dataset:
                seen.update(ex.graph.nodes)
                seen.add(ex.target_item)
            vocab = sorted(seen)
        params = model.init_params(
            list(vocab), config.dim, rng,
            categories=categories,
            lambda_s=config.lambda_s, lambda_v=config.lambda_v,
            num_layers=config.layers, attention_sign=config.attention_sign,
            neighborhood=config.neighborhood,
        )

    n = len(dataset)
    n_items = len(params.items)
    monitor_idx = monitor_rng.choice(n_items, size=min(100, n_items), replace=False)

    # one negative per example, drawn once so the objective is stationary
    negatives: Dict[int, str] = {}
    if config.margin_negatives:
        for i in range(n):
            negatives[i] = params.items[int(rng.integers(n_items))]

    epoch_losses: List[float] = []
    collapse: List[float] = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        example_losses = np.zeros(n)
        for start in range(0, n, config.batch_size):
            # membership is shuffled; in-batch order is canonical so the
            # float summation (and full-batch gradients) are order-stable
            batch_idx = np.sort(order[start:start + config.batch_size])
            batch = [dataset[i] for i in batch_idx]

            overrides: Dict[str, grad.Node] = {
                name: grad.Node(getattr(params, name)) for name in params.matrix_fields()
            }
            used = {it for ex in batch for it in ex.graph.nodes} | \
                   {ex.target_item for ex in batch} | \
                   {negatives[i] for i in batch_idx if i in negatives}
            for it in sorted(used):
                overrides["item:" + it] = grad.Node(params.item_vec(it))

            bound = BoundParams(params, overrides)
            losses = [
                compute_loss(ex, bound, negatives.get(i), config.margin)
                for i, ex in zip(batch_idx, batch)
            ]
            batch_loss = grad.div(grad.nsum(losses), float(len(batch)))
            grad.backward(batch_loss)
            grads = {k: np.asarray(v.adjoint) for k, v in overrides.items()}
            optimizer_step(params, grads, config.learning_rate,
                           clip=config.grad_clip, retraction=config.retraction)
            for i, ls in zip(batch_idx, losses):
                example_losses[i] = float(grad.value_of(ls))
        # canonical (dataset-order) summation: the trace is shuffle-invariant
        epoch_losses.append(float(np.sum(example_losses)) / n)
        monitored = model.project_item_rows(params.item_features[monitor_idx], params.feat_proj)
        collapse.append(manifold.pairwise_mean_distance(monitored))
    return FitResult(params=params, epoch_losses=epoch_losses, collapse_trace=collapse)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 1
ARRAY_FIELDS = ("item_features",) + model.MATRIX_FIELDS  # npz entry order


def save_checkpoint(path, params: ModelParams, config: TrainConfig) -> None:
    """Single-file dump; float64 arrays round-trip bit-exact."""
    meta = {
        "version": CHECKPOINT_VERSION,
        "items": params.items,
        **{name: getattr(params, name) for name in model.HYPER_FIELDS},
        "config": asdict(config),
    }
    arrays = {name: getattr(params, name) for name in ARRAY_FIELDS}
    np.savez(path, meta=np.str_(json.dumps(meta)), **arrays)


def load_checkpoint(path) -> Tuple[ModelParams, TrainConfig]:
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version: {meta.get('version')}")
        params = ModelParams(
            items=list(meta["items"]),
            **{name: data[name] for name in ARRAY_FIELDS},
            **{name: meta[name] for name in model.HYPER_FIELDS},
        )
    return params, TrainConfig(**meta["config"])
