"""Directed session graphs with per-edge time intervals.

A session's unique items become nodes (first-appearance order) and each
consecutive click pair contributes a directed edge carrying the elapsed
seconds between the two clicks, log-compressed into [0, 1 - EPS_BALL) so it
can later be embedded.  A graph keeps every transition, repeats included;
:func:`batch_graphs` merges them, a pair clicked more than once keeping its
smallest interval.
A :class:`TrainingExample` pairs the graph of a session's prefix with the
next event; training and evaluation both read sessions that way.

The model reads graphs as a :class:`GraphBatch`: the disjoint union of one
or more session graphs, as edge arrays over one numbering of their nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .manifold import EPS_BALL

Item = str

# edge directions of an aggregation neighborhood; the first is the default
DIRECTIONS = ("in", "out", "both")

# the fewest events a session needs to yield an example: a prefix and a target
MIN_EVENTS = 2


@dataclass(frozen=True)
class IntervalNormalizer:
    """Monotone map from raw seconds to [0, 1 - EPS_BALL).

    norm(delta) = min(log(1 + delta/tau) / log(1 + cap/tau), 1 - EPS_BALL)
    """

    tau: float = 60.0
    cap: float = 86400.0
    _scale: float = field(init=False, compare=False, repr=False)  # log(1 + cap/tau)

    def __post_init__(self):
        if not (self.tau > 0 and self.cap > 0):  # NaN fails too
            raise ValueError("tau and cap must be positive")
        if math.isinf(self.tau) or math.isinf(self.cap):
            raise ValueError("tau and cap must be finite")
        object.__setattr__(self, "_scale", math.log1p(self.cap / self.tau))

    def __call__(self, delta_seconds: float) -> float:
        if not delta_seconds >= 0:  # NaN fails too
            raise ValueError(f"negative or NaN time interval: {delta_seconds}")
        if delta_seconds >= self.cap:  # before dividing: the gap may not fit a float
            return 1.0 - EPS_BALL
        x = math.log1p(delta_seconds / self.tau) / self._scale
        return min(x, 1.0 - EPS_BALL)


@dataclass
class SessionRecord:
    """One session: ordered (item, timestamp) events, timestamps nondecreasing."""

    session_id: str
    events: List[Tuple[Item, int]]

    def __post_init__(self):
        if len(self.events) < 1:
            raise ValueError(f"session {self.session_id}: no events")
        times = [t for _, t in self.events]
        if any(not a <= b for a, b in zip(times, times[1:])):  # NaN fails too
            raise ValueError(f"session {self.session_id}: timestamps decrease or are NaN")


@dataclass
class SessionGraph:
    """Item-transition graph of one session.

    ``edges`` holds one (src index, dst index, normalized interval) per
    consecutive click pair, in click order, repeated pairs included;
    ``last_index`` is the node of the final event.
    """

    nodes: List[Item]
    edges: List[Tuple[int, int, float]]
    last_index: int
    node_index: Dict[Item, int]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


def build_session_graph(
    record: SessionRecord,
    norm: IntervalNormalizer,
    min_events: int = MIN_EVENTS,
) -> SessionGraph:
    """Build the transition graph of one session.

    Every consecutive click pair yields an edge; a pair clicked more than
    once is merged later, by :func:`batch_graphs`.  Consecutive identical
    items yield a self-loop.
    ``min_events`` is 2 for whole sessions; training/evaluation prefixes of
    2-event sessions relax it to 1 (single node, no edges).
    """
    events = record.events
    if len(events) < min_events:
        raise ValueError(
            f"session {record.session_id}: {len(events)} events, need >= {min_events}"
        )
    return _graph(events, norm)


def _graph(events: Sequence[Tuple[Item, int]], norm: IntervalNormalizer) -> SessionGraph:
    """The transition graph of one or more events in time order."""
    index: Dict[Item, int] = {}
    for item, _ in events:
        index.setdefault(item, len(index))
    edges = [(index[prev], index[item], norm(t - prev_t))
             for (prev, prev_t), (item, t) in zip(events, events[1:])]
    return SessionGraph(
        nodes=list(index),
        edges=edges,
        last_index=index[events[-1][0]],
        node_index=index,
    )


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
    an example.  Sessions shorter than ``MIN_EVENTS`` events are skipped.  A
    prefix of a record is in time order, so its graph is built without a new
    record.
    """
    out: List[TrainingExample] = []
    for rec in records:
        n = len(rec.events)
        if n < MIN_EVENTS:
            continue
        cuts = range(2, n + 1) if augment_prefixes else [n]
        for c in cuts:
            g = _graph(rec.events[:c - 1], norm)
            target_item, target_t = rec.events[c - 1]
            out.append(TrainingExample(
                graph=g,
                target_item=target_item,
                target_interval=norm(target_t - rec.events[c - 2][1]),
            ))
    return out


def neighborhood(g: SessionGraph, i: int, direction: str = DIRECTIONS[0]) -> List[Tuple[int, float]]:
    """Aggregation neighborhood of node i under the configured edge direction
    ("in": predecessors, "out": successors), the node itself included:
    (node, interval) pairs ordered by node index.  The implicit self entry
    carries interval 0, an explicit self-loop edge replaces it with the
    loop's smallest interval, and "both" keeps the smaller interval of a
    node met in both directions."""
    batch = batch_graphs([g], direction)
    if not 0 <= i < g.n_nodes:
        raise IndexError(f"node index {i} out of range for {g.n_nodes} nodes")
    at = batch.dst == i
    return list(zip(batch.src[at].tolist(), batch.interval[at].tolist()))


@dataclass
class GraphBatch:
    """The disjoint union of session graphs, as arrays.

    The nodes of the first graph come first, then those of the second, and
    so on.  Aggregation entries are sorted by (dst, src): one per node of
    each node's neighborhood, the node itself included, with its normalized
    interval.  ``node_session`` is each node's graph and ``last`` each
    graph's last node.
    """

    dst: np.ndarray
    src: np.ndarray
    interval: np.ndarray
    node_session: np.ndarray
    last: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.node_session)

    @property
    def n_sessions(self) -> int:
        return len(self.last)


def batch_graphs(graphs: Sequence[SessionGraph], direction: str = DIRECTIONS[0]) -> GraphBatch:
    """Edge arrays of the union of ``graphs`` under an edge direction.

    Entry (dst, src) holds the interval of the edge src -> dst ("in"),
    dst -> src ("out"), or the smaller of the two ("both").  A pair clicked
    more than once keeps its smallest interval; the normalizer is monotone,
    so that is the normalized smallest gap.  Each node's entry for itself
    carries 0 unless the node has a self-loop, whose smallest interval
    replaces it.  This is the one place repeated transitions are merged.

    The edges of all graphs, their nodes numbered across the batch, are
    oriented for the direction and followed by one self entry per node.
    One lexsort by (dst, src, interval), in which a self entry sorts after
    a self-loop, puts the entry to keep first in each (dst, src) group.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown neighborhood direction: {direction!r}")
    sizes = [g.n_nodes for g in graphs]
    bases = list(accumulate(sizes, initial=0))
    n = bases[-1]
    rows = [(b + s, b + d, iv) for g, b in zip(graphs, bases) for s, d, iv in g.edges]
    src, dst, interval = zip(*rows) if rows else ((), (), ())
    src, dst = np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp)
    interval = np.array(interval, dtype=np.float64)
    if direction == "out":
        src, dst = dst, src
    elif direction == "both":
        src, dst = np.concatenate((src, dst)), np.concatenate((dst, src))
        interval = np.concatenate((interval, interval))
    nodes = np.arange(n, dtype=np.intp)
    dst, src = np.concatenate((dst, nodes)), np.concatenate((src, nodes))
    order = np.lexsort((np.concatenate((interval, np.full(n, np.inf))), src, dst))
    dst, src = dst[order], src[order]
    first = np.empty(len(order), dtype=bool)
    first[:1] = True
    np.logical_or(dst[1:] != dst[:-1], src[1:] != src[:-1], out=first[1:])
    return GraphBatch(
        dst=dst[first],
        src=src[first],
        interval=np.concatenate((interval, np.zeros(n)))[order[first]],
        node_session=np.arange(len(graphs), dtype=np.intp).repeat(sizes),
        last=np.array([b + g.last_index for g, b in zip(graphs, bases)], dtype=np.intp),
    )
