"""Directed session graphs with per-edge time intervals.

A session's unique items become nodes (first-appearance order) and each
consecutive click pair contributes a directed edge carrying the elapsed
seconds between the two clicks, log-compressed into [0, 1 - EPS_BALL) so it
can later be embedded (:class:`IntervalNormalizer`, whose ``normalize`` is the
same map over an array of gaps).  A graph keeps every transition, repeats
included; :func:`_merge` merges them, a pair clicked more than once keeping
its smallest interval.
A :class:`TrainingExample` pairs the graph of a session's prefix with the
next event; training reads sessions that way.

The model reads graphs as a :class:`GraphBatch`: the disjoint union of one
or more session graphs, as edge arrays over one numbering of their nodes.
:func:`batch_graphs` builds one from session graphs; :func:`batch_sessions`
builds one straight from records' events, with no per-session object, for
evaluation.  Both merge repeated pairs in :func:`_merge`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, repeat
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
    ``min_events`` is 2 for whole sessions; a prefix or a ``recommend``
    query may relax it to 1 (single node, no edges).
    """
    events = record.events
    if len(events) < min_events:
        raise ValueError(
            f"session {record.session_id}: {len(events)} events, need >= {min_events}"
        )
    return _graph(events, [norm(t - prev_t) for (_, prev_t), (_, t) in zip(events, events[1:])])


def _graph(events: Sequence[Tuple[Item, int]], intervals: Sequence[float]) -> SessionGraph:
    """The transition graph of one or more events in time order;
    ``intervals[j]`` is the normalized gap after event j (entries past the
    last event are not read)."""
    index: Dict[Item, int] = {}
    for item, _ in events:
        index.setdefault(item, len(index))
    edges = [(index[prev], index[item], interval)
             for (prev, _), (item, _), interval in zip(events, events[1:], intervals)]
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
    record.  Every gap of the records is normalized once, in one call.
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
        own = intervals[start:start + n - 1]
        start += n - 1
        cuts = range(2, n + 1) if augment_prefixes else [n]
        for c in cuts:
            out.append(TrainingExample(
                graph=_graph(rec.events[:c - 1], own),
                target_item=rec.events[c - 1][0],
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
    """Edge arrays of the union of ``graphs`` under an edge direction, their
    nodes numbered across the batch; repeated pairs are merged by
    :func:`_merge`."""
    sizes = [g.n_nodes for g in graphs]
    bases = list(accumulate(sizes, initial=0))
    rows = [(b + s, b + d, iv) for g, b in zip(graphs, bases) for s, d, iv in g.edges]
    src, dst, interval = zip(*rows) if rows else ((), (), ())
    dst, src, interval = _merge(np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp),
                                np.array(interval, dtype=np.float64), bases[-1], direction)
    return GraphBatch(
        dst=dst,
        src=src,
        interval=interval,
        node_session=np.arange(len(graphs), dtype=np.intp).repeat(sizes),
        last=np.array([b + g.last_index for g, b in zip(graphs, bases)], dtype=np.intp),
    )


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
    """Sessions as evaluation reads them: the :class:`GraphBatch` of each
    session's graph over all but its final event, ``node_rows`` each node's
    item row, and each session's final item (``targets``) with its
    normalized gap from the event before (``intervals``)."""

    records: List[SessionRecord]
    batch: GraphBatch
    node_rows: np.ndarray
    targets: List[Item]
    intervals: np.ndarray

    def select(self, start: int, stop: int) -> "SessionBatch":
        """Sessions start..stop-1 alone, their nodes numbered from 0."""
        b = self.batch
        lo, hi = np.searchsorted(b.node_session, (start, stop)).tolist()
        first, end = np.searchsorted(b.dst, (lo, hi)).tolist()
        return SessionBatch(
            records=self.records[start:stop],
            batch=GraphBatch(dst=b.dst[first:end] - lo, src=b.src[first:end] - lo,
                             interval=b.interval[first:end],
                             node_session=b.node_session[lo:hi] - start,
                             last=b.last[start:stop] - lo),
            node_rows=self.node_rows[lo:hi],
            targets=self.targets[start:stop],
            intervals=self.intervals[start:stop],
        )


def batch_sessions(
    records: Sequence[SessionRecord],
    item_index: Dict[Item, int],
    norm: IntervalNormalizer,
    direction: str = DIRECTIONS[0],
) -> SessionBatch:
    """The usable ``records`` as one :class:`SessionBatch`, built from their
    events with no per-session object.  A session is usable with at least
    ``MIN_EVENTS`` events, every item a key of ``item_index`` (its row).
    The arrays are those of :func:`batch_graphs` over the graphs of
    :func:`examples_from_records`, bit for bit.

    One pass over all the events maps items to rows (-1 when unknown) and
    takes the gaps; the rest is numpy.  The prefix events (all but each
    usable session's last) line up with their gaps: gap j follows prefix
    event j, and a session's last gap is its target's.  One stable argsort
    by (session, item row) finds each item's first appearance in its
    session; nodes are numbered in the order of those.
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
    code = row[at]
    session = (np.cumsum(usable) - 1)[owner[at]]
    intervals = norm.normalize(gaps[at])
    ends = np.cumsum(lengths[usable] - 1)
    order = np.argsort(session * (int(code.max(initial=0)) + 1) + code, kind="stable")
    starts = _group_starts(session[order], code[order])
    first = np.zeros(len(code), dtype=bool)
    first[order[starts]] = True
    node = np.empty(len(code), dtype=np.intp)
    node[order] = (np.cumsum(first) - 1)[order[starts]][np.cumsum(starts) - 1]
    # edges join consecutive prefix events of one session
    step = np.flatnonzero(np.diff(session) == 0)
    dst, src, interval = _merge(node[step], node[step + 1], intervals[step],
                                int(first.sum()), direction)
    return SessionBatch(
        records=list(compress(records, usable.tolist())),
        batch=GraphBatch(dst=dst, src=src, interval=interval,
                         node_session=session[first], last=node[ends - 1]),
        node_rows=code[first],
        targets=[items[i] for i in (at[ends - 1] + 1).tolist()],
        intervals=intervals[ends - 1],
    )
