"""Directed session graphs with per-edge time intervals.

A session graph is its events: the items in click order and the elapsed
seconds after each click but the last, log-compressed into
[0, 1 - EPS_BALL) so they can later be embedded (:class:`IntervalNormalizer`,
whose ``normalize`` is the same map over an array of gaps).  Its nodes are
the distinct items (first-appearance order), and each consecutive click pair
is a directed transition carrying its interval; a pair clicked more than
once keeps its smallest interval.
A :class:`TrainingExample` pairs the graph of a session's prefix with the
next event; training reads sessions that way.

The model reads sessions from one store, a :class:`SessionBatch` of
per-event columns, whose ``take`` gathers any sessions and whose
``graph_batch`` makes their :class:`GraphBatch`, the disjoint union of their
graphs as edge arrays, by :func:`batch_events`: the one function that
numbers nodes, handing the transitions to :func:`_merge`.  Evaluation fills
a store from records' events (:func:`batch_sessions`), ``recommend`` and
:func:`batch_graphs` from session graphs (:func:`graph_sessions`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from typing import Dict, Iterable, List, Sequence, Tuple

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

    def normalize(self, gaps) -> np.ndarray:
        """``__call__`` on each of a sequence of gaps, as a float64 array of
        the same bits.  The logarithm is ``math.log1p``: ``np.log1p`` differs
        from it in the last bit on some gaps."""
        gaps = np.asarray(gaps)
        bad = ~(gaps >= 0)  # NaN fails too
        if bad.any():
            raise ValueError(f"negative or NaN time interval: {gaps[bad][0]}")
        # a gap at or past cap reads as cap, and log1p(cap / tau) / _scale is 1
        scaled = (np.minimum(gaps, self.cap) / self.tau).tolist()
        x = np.fromiter(map(math.log1p, scaled), np.float64, len(scaled))
        return np.minimum(x / self._scale, 1.0 - EPS_BALL)


@dataclass
class SessionRecord:
    """One session: ordered (item, timestamp) events, timestamps nondecreasing."""

    session_id: str
    events: List[Tuple[Item, int]]

    def __post_init__(self):
        if len(self.events) < 1:
            raise ValueError(f"session {self.session_id}: no events")
        times = [t for _, t in self.events]
        if not all(map(operator.le, times, times[1:])):  # NaN fails too
            raise ValueError(f"session {self.session_id}: timestamps decrease or are NaN")


@dataclass
class SessionGraph:
    """The graph of one session, as its events: ``items`` in click order and
    ``intervals``, the normalized gap after each event but the last.  Its
    nodes are the distinct items, first appearance first."""

    items: List[Item]
    intervals: List[float]

    @property
    def nodes(self) -> List[Item]:
        return list(dict.fromkeys(self.items))

    @property
    def n_nodes(self) -> int:
        return len(set(self.items))


def build_session_graph(
    record: SessionRecord,
    norm: IntervalNormalizer,
    min_events: int = MIN_EVENTS,
) -> SessionGraph:
    """The graph of one session: its items and normalized gaps.

    ``min_events`` is 2 for whole sessions; a prefix or a ``recommend``
    query may relax it to 1 (single node, no transitions).
    """
    events = record.events
    if len(events) < min_events:
        raise ValueError(
            f"session {record.session_id}: {len(events)} events, need >= {min_events}"
        )
    return SessionGraph(items=[item for item, _ in events],
                        intervals=[norm(t - prev_t) for (_, prev_t), (_, t) in zip(events, events[1:])])


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
    prefix's graph is the first events of its record.  Every gap of the
    records is normalized once, in one call.
    """
    kept = [rec for rec in records if len(rec.events) >= MIN_EVENTS]
    gaps: List[float] = []
    for rec in kept:
        times = [t for _, t in rec.events]
        gaps += map(operator.sub, times[1:], times)
    intervals = norm.normalize(gaps).tolist()
    out: List[TrainingExample] = []
    start = 0
    for rec in kept:
        n = len(rec.events)
        items = [item for item, _ in rec.events]
        own = intervals[start:start + n - 1]
        start += n - 1
        cuts = range(2, n + 1) if augment_prefixes else [n]
        for c in cuts:
            out.append(TrainingExample(
                graph=SessionGraph(items=items[:c - 1], intervals=own[:c - 2]),
                target_item=items[c - 1],
                target_interval=own[c - 2],
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
    """The :class:`GraphBatch` of ``graphs`` under a direction (:func:`graph_sessions`)."""
    return graph_sessions(graphs, repeat(0.0)).graph_batch(direction)[0]


def batch_events(code: np.ndarray, lengths: np.ndarray, gaps: np.ndarray,
                 direction: str = DIRECTIONS[0]) -> Tuple[GraphBatch, np.ndarray]:
    """The :class:`GraphBatch` of sessions given as per-event columns, and
    each node's item code.  Session b is the next ``lengths[b]`` (>= 1)
    events in click order; ``code`` is each event's item code (>= 0) and
    ``gaps[j]`` the normalized gap after event j (unread at a session's
    last event).  A session's nodes are its distinct codes, first appearance
    first, found by one stable argsort by (session, code); each consecutive
    pair of its events is a transition, merged by :func:`_merge`.
    """
    session = np.arange(len(lengths), dtype=np.intp).repeat(lengths)
    order = np.argsort(session * (int(code.max(initial=0)) + 1) + code, kind="stable")
    starts = _group_starts(session[order], code[order])
    heads = order[starts]  # each node's first event
    first = np.zeros(len(code), dtype=bool)
    first[heads] = True
    node = np.empty(len(code), dtype=np.intp)
    node[order] = (np.cumsum(first) - 1)[heads][np.cumsum(starts) - 1]
    # transitions join consecutive events of one session
    step = np.flatnonzero(session[1:] == session[:-1])
    dst, src, interval = _merge(node[step], node[step + 1], gaps[step], len(heads), direction)
    batch = GraphBatch(dst=dst, src=src, interval=interval, node_session=session[first],
                       last=node[np.cumsum(lengths) - 1])
    return batch, code[first]


def _merge(src: np.ndarray, dst: np.ndarray, interval: np.ndarray, n: int, direction: str):
    """The aggregation entries (dst, src, interval) of ``n`` nodes, sorted by
    (dst, src), from their transitions src -> dst under an edge direction.

    Entry (dst, src) holds the interval of the edge src -> dst ("in"),
    dst -> src ("out"), or the smaller of the two ("both").  A pair clicked
    more than once keeps its smallest interval; the normalizer is monotone,
    so that is the normalized smallest gap.  Each node's entry for itself
    carries 0 unless the node has a self-loop, whose smallest interval
    replaces it.  This is the one place repeated transitions are merged.

    The edges, oriented for the direction, are followed by one self entry
    per node.  One lexsort by (dst, src, interval), in which a self entry
    sorts after a self-loop, puts the entry to keep first in each (dst, src)
    group.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown neighborhood direction: {direction!r}")
    if direction == "out":
        src, dst = dst, src
    elif direction == "both":
        src, dst = np.concatenate((src, dst)), np.concatenate((dst, src))
        interval = np.concatenate((interval, interval))
    nodes = np.arange(n, dtype=np.intp)
    dst, src = np.concatenate((dst, nodes)), np.concatenate((src, nodes))
    order = np.lexsort((np.concatenate((interval, np.full(n, np.inf))), src, dst))
    dst, src = dst[order], src[order]
    first = _group_starts(dst, src)
    return dst[first], src[first], np.concatenate((interval, np.zeros(n)))[order[first]]


def _group_starts(major: np.ndarray, minor: np.ndarray) -> np.ndarray:
    """Where a run of equal (major, minor) pairs starts, in sorted arrays."""
    starts = np.empty(len(major), dtype=bool)
    starts[:1] = True
    np.logical_or(major[1:] != major[:-1], minor[1:] != minor[:-1], out=starts[1:])
    return starts


@dataclass
class SessionBatch:
    """Sessions as per-event columns, the one form in which the model reads
    them.  Session b is the next ``lengths[b]`` (>= 1) events of ``code``
    (item codes, in click order) and ``gaps`` (the normalized gap after each
    event); its last gap leads to its target, coded ``targets[b]`` (-1 for
    none).  ``names`` label the sessions."""

    code: np.ndarray
    lengths: np.ndarray
    gaps: np.ndarray
    targets: np.ndarray
    names: np.ndarray

    @property
    def intervals(self) -> np.ndarray:
        """Each session's last gap: the interval to its target."""
        return self.gaps[np.cumsum(self.lengths) - 1]

    @cached_property
    def _starts(self) -> np.ndarray:
        return np.cumsum(self.lengths) - self.lengths

    def take(self, index) -> "SessionBatch":
        """Sessions ``index[0]``, ``index[1]``, ... as a batch of their own."""
        lengths = self.lengths[index]
        # event j of session k comes from j - (k's start here) + (k's own start)
        at = np.arange(lengths.sum()) + np.repeat(self._starts[index] - np.cumsum(lengths) + lengths,
                                                  lengths)
        return SessionBatch(code=self.code[at], lengths=lengths, gaps=self.gaps[at],
                            targets=self.targets[index], names=self.names[index])

    def graph_batch(self, direction: str = DIRECTIONS[0]) -> Tuple[GraphBatch, np.ndarray]:
        """The sessions' :class:`GraphBatch` and node codes (:func:`batch_events`)."""
        return batch_events(self.code, self.lengths, self.gaps, direction)


def graph_sessions(graphs: Sequence[SessionGraph], t_norm: Iterable[float]) -> SessionBatch:
    """``graphs`` as a :class:`SessionBatch`, graph b named b, with last gap
    ``t_norm[b]`` and no target, items coded by first appearance (so one
    graph's codes are its node positions)."""
    items = list(chain.from_iterable(g.items for g in graphs))
    code = {it: k for k, it in enumerate(dict.fromkeys(items))}
    gaps = [gap for g, t in zip(graphs, t_norm) for gap in (*g.intervals, t)]
    return SessionBatch(code=np.fromiter(map(code.__getitem__, items), np.intp, len(items)),
                        lengths=np.array([len(g.items) for g in graphs], dtype=np.intp),
                        gaps=np.array(gaps, dtype=np.float64),
                        targets=np.full(len(graphs), -1, dtype=np.intp),
                        names=np.arange(len(graphs)))


def batch_sessions(
    records: Sequence[SessionRecord],
    item_index: Dict[Item, int],
    norm: IntervalNormalizer,
) -> SessionBatch:
    """The usable ``records`` as one :class:`SessionBatch` of item rows,
    named by session id, built from their events with no per-session
    object.  A session is usable with at least ``MIN_EVENTS`` events, every
    item a key of ``item_index`` (its row); its last event is its target.

    One pass over all the events maps items to rows (-1 when unknown) and
    takes the gaps; the rest is numpy, with one normalizer call.
    """
    events = list(chain.from_iterable(rec.events for rec in records))
    items = [item for item, _ in events]
    times = [t for _, t in events]
    row = np.fromiter(map(item_index.get, items, repeat(-1)), np.intp, len(items))
    gaps = np.array(list(map(operator.sub, times[1:], times)))
    lengths = np.array([len(rec.events) for rec in records], dtype=np.intp)
    owner = np.arange(len(records), dtype=np.intp).repeat(lengths)
    usable = (lengths >= MIN_EVENTS) & (np.bincount(owner[row < 0], minlength=len(records)) == 0)
    prefix = usable[owner]
    prefix[np.cumsum(lengths) - 1] = False
    at = np.flatnonzero(prefix)
    sizes = lengths[usable] - 1
    return SessionBatch(
        code=row[at], lengths=sizes, gaps=norm.normalize(gaps[at]),
        targets=row[at[np.cumsum(sizes) - 1] + 1],
        names=np.array([rec.session_id for rec in records], dtype=object)[usable],
    )
