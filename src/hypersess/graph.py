"""Directed session graphs with per-edge time intervals.

A session's unique items become nodes (first-appearance order) and each
consecutive click pair contributes a directed edge carrying the elapsed
seconds between the two clicks, log-compressed into [0, 1 - EPS_BALL) so it
can later be embedded.  Repeated ordered pairs keep the smallest interval.
A :class:`TrainingExample` pairs the graph of a session's prefix with the
next event; training and evaluation both read sessions that way.

The model reads graphs as a :class:`GraphBatch`: the disjoint union of one
or more session graphs, as edge arrays over one numbering of their nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .manifold import EPS_BALL

Item = str

# edge directions of an aggregation neighborhood; the first is the default
DIRECTIONS = ("in", "out", "both")


@dataclass(frozen=True)
class IntervalNormalizer:
    """Monotone map from raw seconds to [0, 1 - EPS_BALL).

    norm(delta) = min(log(1 + delta/tau) / log(1 + cap/tau), 1 - EPS_BALL)
    """

    tau: float = 60.0
    cap: float = 86400.0

    def __post_init__(self):
        if not (self.tau > 0 and self.cap > 0):  # NaN fails too
            raise ValueError("tau and cap must be positive")
        if math.isinf(self.tau) or math.isinf(self.cap):
            raise ValueError("tau and cap must be finite")

    def __call__(self, delta_seconds: float) -> float:
        if delta_seconds < 0:
            raise ValueError(f"negative time interval: {delta_seconds}")
        x = math.log1p(delta_seconds / self.tau) / math.log1p(self.cap / self.tau)
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
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError(f"session {self.session_id}: timestamps decrease")


@dataclass
class SessionGraph:
    """Item-transition graph of one session.

    ``edges`` holds (src index, dst index, normalized interval); ``last_index``
    is the node of the final event, whose timestamp is ``last_timestamp``.
    """

    nodes: List[Item]
    edges: List[Tuple[int, int, float]]
    last_index: int
    last_timestamp: int
    node_index: Dict[Item, int]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


def build_session_graph(
    record: SessionRecord,
    norm: IntervalNormalizer,
    min_events: int = 2,
) -> SessionGraph:
    """Build the transition graph of one session.

    Duplicate ordered pairs are merged keeping the minimum raw interval
    (the normalizer is monotone, so merging before or after normalizing is
    equivalent).  Consecutive identical items yield a self-loop.
    ``min_events`` is 2 for whole sessions; training/evaluation prefixes of
    2-event sessions relax it to 1 (single node, no edges).
    """
    events = record.events
    if len(events) < min_events:
        raise ValueError(
            f"session {record.session_id}: {len(events)} events, need >= {min_events}"
        )

    nodes: List[Item] = []
    index: Dict[Item, int] = {}
    for item, _ in events:
        if item not in index:
            index[item] = len(nodes)
            nodes.append(item)

    raw: Dict[Tuple[int, int], int] = {}
    for (prev_item, prev_t), (item, t) in zip(events, events[1:]):
        delta = t - prev_t
        key = (index[prev_item], index[item])
        if key not in raw or delta < raw[key]:
            raw[key] = delta

    edges = [(s, d, norm(delta)) for (s, d), delta in sorted(raw.items())]
    return SessionGraph(
        nodes=nodes,
        edges=edges,
        last_index=index[events[-1][0]],
        last_timestamp=events[-1][1],
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


def neighborhood(g: SessionGraph, i: int, direction: str = DIRECTIONS[0]) -> List[Tuple[int, float]]:
    """Aggregation neighborhood of node i under the configured edge direction
    ("in": predecessors, "out": successors), the node itself included:
    (node, interval) pairs ordered by node index.  The implicit self entry
    carries interval 0, an explicit self-loop edge replaces it with the
    loop's interval, and "both" keeps the smaller interval of a node met in
    both directions."""
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
    dst -> src ("out"), or the smaller of the two ("both").  Each node's
    entry for itself carries 0 unless the node has a self-loop, whose
    interval replaces it.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown neighborhood direction: {direction!r}")
    entries: List[Tuple[int, int, float]] = []
    node_session: List[int] = []
    last: List[int] = []
    base = 0
    for b, g in enumerate(graphs):
        found: Dict[Tuple[int, int], float] = {(i, i): 0.0 for i in range(g.n_nodes)}
        for src, dst, interval in g.edges:
            if src == dst:
                found[(src, src)] = interval
                continue
            if direction != "out":
                _merge(found, (dst, src), interval)
            if direction != "in":
                _merge(found, (src, dst), interval)
        entries.extend((base + d, base + s, iv) for (d, s), iv in sorted(found.items()))
        node_session.extend([b] * g.n_nodes)
        last.append(base + g.last_index)
        base += g.n_nodes
    dst, src, interval = zip(*entries) if entries else ((), (), ())
    return GraphBatch(
        dst=np.array(dst, dtype=np.intp),
        src=np.array(src, dtype=np.intp),
        interval=np.array(interval, dtype=np.float64),
        node_session=np.array(node_session, dtype=np.intp),
        last=np.array(last, dtype=np.intp),
    )


def _merge(found: Dict[Tuple[int, int], float], key: Tuple[int, int], interval: float) -> None:
    if key not in found or interval < found[key]:
        found[key] = interval
