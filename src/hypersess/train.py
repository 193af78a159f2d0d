"""Training: evolutionary distance loss, projected gradient descent, fit loop.

The loss combines three geodesic distances with plain real-number weights
(lambda_s, lambda_v); Mobius arithmetic on scalar distances is not defined,
and the objective must be an ordinary real.  Ball-constrained parameters
(item feature rows, readout bias) are re-projected after every update.
Minibatches are taken from one ``graph.SessionBatch`` of the examples; the
examples are ``graph``'s, and their names are importable from here.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import logging
import math
import zipfile
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import grad, manifold, model
from .graph import IntervalNormalizer, SessionBatch, TrainingExample, examples_from_records, graph_sessions
from .model import ModelParams

log = logging.getLogger(__name__)

# the global gradient norm a step is scaled down to
GRAD_CLIP = 5.0


@dataclass
class TrainConfig:
    dim: int = 60
    learning_rate: float = 0.01
    epochs: int = 30
    batch_size: int = 64
    lambda_s: float = ModelParams.lambda_s
    lambda_v: float = ModelParams.lambda_v
    seed: int = 0
    attention_sign: float = ModelParams.attention_sign
    layers: int = ModelParams.num_layers
    tau: float = IntervalNormalizer.tau
    cap: float = IntervalNormalizer.cap
    neighborhood: str = ModelParams.neighborhood
    augment_prefixes: bool = False
    margin_negatives: bool = False  # optional repulsion term, off by default
    margin: float = 1.0

    def __post_init__(self):
        # a config file may spell the sign as "+1" / "-1"; anything else fails the check
        with contextlib.suppress(TypeError, ValueError):
            self.attention_sign = float(self.attention_sign)
        if self.dim < 1 or self.epochs < 1 or self.batch_size < 1:
            raise ValueError("dim, epochs and batch_size must be positive")
        # lr = 0 is admitted so a no-update run can be constructed; NaN fails every test
        if not 0 <= self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and nonnegative, "
                             f"not {self.learning_rate!r}")
        if not math.isfinite(self.margin):
            raise ValueError(f"margin must be finite, not {self.margin!r}")
        self.normalizer()  # checks tau and cap
        model.check_hyperparameters(self.lambda_s, self.lambda_v, self.layers,
                                    self.attention_sign, self.neighborhood)

    def model_hyperparameters(self) -> Dict[str, object]:
        """The ModelParams hyperparameters this config sets."""
        return {name: getattr(self, "layers" if name == "num_layers" else name)
                for name in model.HYPER_FIELDS}

    def normalizer(self) -> IntervalNormalizer:
        return IntervalNormalizer(tau=self.tau, cap=self.cap)


def session_store(examples: Sequence[TrainingExample], item_index: Dict[str, int]) -> SessionBatch:
    """``examples`` as one :class:`~hypersess.graph.SessionBatch` of rows
    ``item_index[item]``, example i named i, its target interval its last
    gap; an item outside ``item_index`` is a ValueError naming it."""
    sessions = graph_sessions([ex.graph for ex in examples], [ex.target_interval for ex in examples])
    seen = dict.fromkeys(it for ex in examples for it in ex.graph.items)
    rows = np.array(model.item_positions(item_index, seen), dtype=np.intp)
    targets = model.item_positions(item_index, [ex.target_item for ex in examples])
    return replace(sessions, code=rows[sessions.code], targets=np.array(targets, dtype=np.intp))


def batch_losses(
    sessions: SessionBatch,
    params,
    negatives: Optional[np.ndarray] = None,
    margin: float = TrainConfig.margin,
):
    """The (B,) per-example losses of a minibatch, forwarded as one graph.

    Each loss is d(item_future, target) + lambda_s d(session_future, session)
    + lambda_v d(target, last item), all geodesic, plus the hinge
    max(0, margin - d(item_future, negative)) where the example's negative
    is not its target (None: no negatives).  Codes, targets and negatives
    are rows of ``params.item_features``, each projected once; ``params``
    may hold tape Nodes, in which case the result is a Node.
    """
    batch, node_at = sessions.graph_batch(params.neighborhood)
    fw, table = model.forward_items(batch, sessions.intervals, params, params.item_features, node_at)
    h_target = grad.take(table, sessions.targets)
    loss = manifold.distance(fw.item_future, h_target)
    if params.lambda_s > 0:
        loss = grad.add(loss, grad.mul(params.lambda_s, manifold.distance(fw.session_future, fw.session)))
    if params.lambda_v > 0:
        loss = grad.add(loss, grad.mul(params.lambda_v, manifold.distance(h_target, grad.take(fw.final, batch.last))))
    negatives = sessions.targets if negatives is None else negatives
    hinged = negatives != sessions.targets
    if hinged.any():
        # an example whose negative is its target scores it, weighted 0
        h_neg = grad.take(table, negatives)
        hinge = grad.relu(grad.sub(margin, manifold.distance(fw.item_future, h_neg)))
        loss = grad.add(loss, grad.mul(hinged.astype(np.float64)[:, None], hinge))
    return grad.reshape(loss, (batch.n_sessions,))


def compute_loss(
    example: TrainingExample,
    params,
    negative_item: Optional[str] = None,
    margin: float = TrainConfig.margin,
):
    """The loss of one example (see :func:`batch_losses`): a batch of one,
    over the whole item table.  ``params`` may hold tape Nodes, in which
    case the result is a scalar Node."""
    negatives = None if negative_item is None else np.array(params.item_positions([negative_item]))
    sessions = session_store([example], params.item_index)
    return grad.reshape(batch_losses(sessions, params, negatives, margin), ())


def _nonfinite_gradient(grads: Dict[str, np.ndarray]) -> Optional[str]:
    """The first parameter whose gradient holds a non-finite entry, if any."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            return name
    return None


def _global_norm(grads: Dict[str, np.ndarray]) -> float:
    return float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))


def optimizer_step(
    params: ModelParams,
    grads: Dict[str, np.ndarray],
    lr: float,
    clip: float,
    rows: Sequence[int],
) -> bool:
    """In-place step x <- x - lr * s * g for every parameter, s clipping the
    global gradient norm to ``clip``; ``att_bias`` and the moved item rows
    are then projected back into the ball.  ``grads["item_features"]`` is
    the gradient of the (K, f) block ``params.item_features[rows]``.

    A non-finite gradient aborts the whole step (params untouched), logs the
    offending parameter and returns False; a step taken returns True.
    """
    bad = _nonfinite_gradient(grads)
    if bad is not None:
        log.warning("non-finite gradient for %s; skipping step", bad)
        return False

    gnorm = _global_norm(grads)
    step = lr * (1.0 if gnorm <= clip or gnorm == 0.0 else clip / gnorm)

    for name, g in grads.items():
        if name != "item_features":
            setattr(params, name, getattr(params, name) - step * g)
    params.att_bias = manifold.project_to_ball(params.att_bias)
    moved = params.item_features[rows] - step * grads["item_features"]
    params.item_features[rows] = manifold.project_to_ball(moved)
    return True


@dataclass
class FitResult:
    params: ModelParams
    epoch_losses: List[float]
    collapse_trace: List[float] = field(default_factory=list)
    # minibatches whose loss or gradient was non-finite, left without an update
    skipped_steps: int = 0


def fit(
    dataset: Sequence[TrainingExample],
    config: TrainConfig,
    vocab: Optional[Sequence[str]] = None,
    categories: Optional[Dict[str, int]] = None,
    params: Optional[ModelParams] = None,
) -> FitResult:
    """Seeded epoch/batch loop; identical seeds give identical traces.

    Each minibatch is a ``take`` of the examples' :func:`session_store` and
    one tape: :func:`batch_losses` over it, one ``backward`` of the mean.  A
    minibatch whose loss or gradient is not finite updates nothing and is
    counted in ``skipped_steps``; its losses still enter the epoch loss.
    ``vocab`` fixes a new model's catalog (defaults to the items present in
    the dataset); an item the dataset reads outside the catalog is a
    ValueError naming it, before any step.  Given ``params`` are trained in
    place, must be writable (what fit or load_checkpoint returns is not: train a copy),
    must agree with the config's ``dim`` and model hyperparameters, and take
    no ``vocab`` or ``categories``.  The collapse trace records the mean
    pairwise distance among up to 100 sampled projected item embeddings
    after each epoch, from one GEMM screen with its near pairs recomputed
    exactly (:func:`~hypersess.manifold.pairwise_mean_distance`, which
    states its bound); training reads nothing from it.  The returned params are read-only, so that
    :func:`~hypersess.model.item_table` keeps their projection; the freeze
    is each array's ``writeable`` flag, cleared without a copy, which a
    caller can set back (a loaded array's cannot be).
    """
    if not dataset:
        raise ValueError("empty training dataset")

    rng = np.random.default_rng(config.seed)
    monitor_rng = np.random.default_rng(config.seed + 1)

    if params is None:
        if vocab is None:
            vocab = sorted({it for ex in dataset for it in ex.graph.items + [ex.target_item]})
        params = model.init_params(list(vocab), config.dim, rng,
                                   categories=categories, **config.model_hyperparameters())
    elif vocab is not None or categories is not None:
        raise ValueError("vocab and categories apply only to a new model, not to given params")
    elif not all(getattr(params, name).flags.writeable for name in ARRAY_FIELDS):
        raise ValueError("params are read-only, as fit and load_checkpoint return them; "
                         "train a copy (copy.deepcopy(params))")
    else:
        for name, value in {"dim": config.dim, **config.model_hyperparameters()}.items():
            if getattr(params, name) != value:
                raise ValueError(f"params have {name}={getattr(params, name)!r} "
                                 f"but the config sets {value!r}")
    store = session_store(dataset, params.item_index)  # an unknown item fails here, before any step

    n = len(dataset)
    n_items = len(params.items)
    monitor_idx = monitor_rng.choice(n_items, size=min(100, n_items), replace=False)

    # one negative row per example, drawn once so the objective is stationary;
    # an example's own target is no negative
    negatives = (np.array([rng.integers(n_items) for _ in range(n)], dtype=np.intp)
                 if config.margin_negatives else store.targets)

    epoch_losses: List[float] = []
    collapse: List[float] = []
    skipped = 0
    for _ in range(config.epochs):
        order = rng.permutation(n)
        example_losses = np.zeros(n)
        for start in range(0, n, config.batch_size):
            # membership is shuffled; in-batch order is canonical so the
            # float summation (and full-batch gradients) are order-stable
            batch_idx = np.sort(order[start:start + config.batch_size])
            batch = store.take(batch_idx)

            # a (K, f) leaf of the rows, on a copy: a new ModelParams re-indexes the catalog
            rows, (code, targets, batch_negatives) = model.id_order(
                params.items, batch.code, batch.targets, negatives[batch_idx])
            leaves = {name: grad.Node(getattr(params, name)) for name in model.MATRIX_FIELDS}
            leaves["item_features"] = grad.Node(params.item_features[rows])
            bound = copy.copy(params)
            vars(bound).update(leaves)

            losses = batch_losses(replace(batch, code=code, targets=targets), bound,
                                  batch_negatives, config.margin)
            example_losses[batch_idx] = losses.value
            batch_loss = grad.div(grad.dot(np.ones(len(batch_idx)), losses), float(len(batch_idx)))
            if not np.isfinite(batch_loss.value):
                log.warning("non-finite batch loss; skipping step")
                skipped += 1
                continue
            grad.backward(batch_loss)
            grads = {k: np.asarray(v.adjoint) for k, v in leaves.items()}
            if not optimizer_step(params, grads, config.learning_rate, GRAD_CLIP, rows):
                skipped += 1
        # canonical (dataset-order) summation: the trace is shuffle-invariant
        epoch_losses.append(float(np.sum(example_losses)) / n)
        monitored = model.hyperbolic_projection(params.item_features[monitor_idx], params)
        collapse.append(manifold.pairwise_mean_distance(monitored))
    for name in ARRAY_FIELDS:
        getattr(params, name).flags.writeable = False
    return FitResult(params=params, epoch_losses=epoch_losses, collapse_trace=collapse,
                     skipped_steps=skipped)


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


def _read_npz(path, names: Sequence[str]) -> Dict[str, np.ndarray]:
    """The named members of an ``np.savez`` file, each a read-only view of
    the member's bytes: no copy is made, and
    neither the view's flag nor its base can be made writable.  Object
    arrays are refused, as ``np.load`` refuses them without pickles."""
    try:
        with zipfile.ZipFile(path) as archive:
            members = {name: archive.read(f"{name}.npy") for name in names}
    except zipfile.BadZipFile as exc:
        raise ValueError(f"not a checkpoint (.npz) file: {exc}") from exc
    out = {}
    for name, raw in members.items():
        header = io.BytesIO(raw)
        if np.lib.format.read_magic(header) == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(header)
        else:
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(header)
        if dtype.hasobject:
            raise ValueError(f"checkpoint array {name!r} holds Python objects")
        flat = np.frombuffer(raw, dtype, count=math.prod(shape), offset=header.tell())
        out[name] = flat.reshape(shape, order="F" if fortran else "C")
    return out


def load_checkpoint(path) -> Tuple[ModelParams, TrainConfig]:
    """The saved model and its config.  Every array is read-only for good,
    so that :func:`~hypersess.model.item_table` may keep its projection."""
    arrays = _read_npz(path, ("meta",) + ARRAY_FIELDS)
    meta = json.loads(str(arrays.pop("meta")[()]))
    if meta.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version: {meta.get('version')}")
    items = list(meta["items"])
    model.check_item_rows(items, arrays["item_features"])
    for name in model.MATRIX_FIELDS:
        if not np.isfinite(arrays[name]).all():
            raise ValueError(f"checkpoint array {name!r} has non-finite entries")
    # earlier versions saved the slope, fixed since; another value changes the outputs
    if meta.get("leaky_slope", model.LEAKY_SLOPE) != model.LEAKY_SLOPE:
        raise ValueError(f"checkpoint leaky_slope {meta['leaky_slope']!r} is not "
                         f"the model's {model.LEAKY_SLOPE}")
    params = ModelParams(
        items=items,
        **arrays,
        **{name: meta[name] for name in model.HYPER_FIELDS},
    )
    for option in ("retraction", "grad_clip"):  # options that earlier versions saved
        meta["config"].pop(option, None)
    return params, TrainConfig(**meta["config"])
