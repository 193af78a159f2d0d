"""Directed session graphs with per-edge time intervals.

A session's unique items become nodes (first-appearance order) and each
consecutive click pair contributes a directed edge carrying the elapsed
seconds between the two clicks, log-compressed into [0, 1 - EPS_BALL) so it
can later be embedded.  Repeated ordered pairs keep the smallest interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .manifold import EPS_BALL

Item = str


@dataclass(frozen=True)
class IntervalNormalizer:
    """Monotone map from raw seconds to [0, 1 - EPS_BALL).

    norm(delta) = min(log(1 + delta/tau) / log(1 + cap/tau), 1 - EPS_BALL)
    """

    tau: float = 60.0
    cap: float = 86400.0

    def __post_init__(self):
        if self.tau <= 0 or self.cap <= 0:
            raise ValueError("tau and cap must be positive")

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
    node_index: Dict[Item, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.node_index:
            self.node_index = {item: i for i, item in enumerate(self.nodes)}

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
        if delta < 0:
            raise ValueError(f"session {record.session_id}: timestamps decrease")
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


def in_neighbors(g: SessionGraph, i: int) -> List[Tuple[int, float]]:
    """Predecessors of node i plus the node itself, ordered by node index.

    The implicit self entry carries interval 0; an explicit self-loop edge
    replaces it with the loop's interval.
    """
    if not 0 <= i < g.n_nodes:
        raise IndexError(f"node index {i} out of range for {g.n_nodes} nodes")
    found: Dict[int, float] = {i: 0.0}
    for src, dst, interval in g.edges:
        if dst == i:
            found[src] = interval
    return sorted(found.items())


def out_neighbors(g: SessionGraph, i: int) -> List[Tuple[int, float]]:
    """Successors of node i plus the node itself, ordered by node index."""
    if not 0 <= i < g.n_nodes:
        raise IndexError(f"node index {i} out of range for {g.n_nodes} nodes")
    found: Dict[int, float] = {i: 0.0}
    for src, dst, interval in g.edges:
        if src == i:
            found[dst] = interval
    return sorted(found.items())


def neighborhood(g: SessionGraph, i: int, direction: str = "in") -> List[Tuple[int, float]]:
    """Aggregation neighborhood under the configured edge direction."""
    if direction == "in":
        return in_neighbors(g, i)
    if direction == "out":
        return out_neighbors(g, i)
    if direction == "both":
        merged = dict(out_neighbors(g, i))
        for j, interval in in_neighbors(g, i):
            if j not in merged or interval < merged[j]:
                merged[j] = interval
        return sorted(merged.items())
    raise ValueError(f"unknown neighborhood direction: {direction!r}")
