"""Time-aware test protocol and report.

Each test session is scored by rebuilding the graph from all but its final
event, normalizing the gap between the penultimate and final timestamps as
the query interval, and ranking the full catalog against the predicted item
embedding, under the normalizer the model was trained with, which every
call takes.  Nothing here comes from ``train``.

The test sessions are read once, by ``graph.batch_sessions``, into one
``GraphBatch`` built straight from their events, and scored in blocks of at
most ``BLOCK_BYTES // (8 * n_items)``: one ``forward_items`` over the
block's slice of that batch, each distinct item projected once in item-id
order, and one (sessions x items) distance screen from a single GEMM (see
:func:`~hypersess.manifold.distance_screen` for its rounding bound).  Items the
screen places certainly nearer than the target are counted; the few within
the bound of the target are recomputed exactly, with the formula of
``manifold.distances_to_rows``, so every rank is the exact counted position.
A block's predictions can differ from a batch-of-one ``forward_session`` in
the last bit (a GEMM over many rows rounds differently from one over a
single row), which can move a rank only where two items' distances lie
within that rounding.  A block whose ranking raises a ValueError is ranked
again one session at a time, so that the error names its session.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import model
from .graph import MIN_EVENTS, IntervalNormalizer, SessionBatch, SessionRecord, batch_sessions
from .metrics import mrr_at_k, p_at_k
from .model import ModelParams

# the bytes of one block's (sessions x items) float64 distance screen
BLOCK_BYTES = 8 * 2**20


@dataclass
class EvalReport:
    mrr_at_k: float
    p_at_k: float
    k: int
    n_test: int
    wall_time: float
    skipped: int = 0

    def csv_rows(self) -> List[Tuple[str, str]]:
        """Deterministic machine-readable fields (wall time excluded)."""
        return [
            ("k", str(self.k)),
            ("n_test", str(self.n_test)),
            ("mrr_at_k", repr(self.mrr_at_k)),
            ("p_at_k", repr(self.p_at_k)),
            ("skipped", str(self.skipped)),
        ]


def rank_test_sessions(
    params: ModelParams,
    records: Sequence[SessionRecord],
    norm: IntervalNormalizer,
) -> Tuple[List[Tuple[int, str]], int]:
    """The 1-based full-catalog rank of every usable test session's target,
    as (rank, target) pairs.

    The catalog is projected at most once for the whole call, and not at
    all when read-only params, as ``fit`` and ``load_checkpoint`` return
    them, keep their table (see :func:`~hypersess.model.item_table`).
    Sessions that yield no example (fewer than 2 events), or touching items
    outside the vocabulary, are skipped and counted.  The others are ranked
    in blocks of at most ``BLOCK_BYTES // (8 * n_items)`` sessions; a block
    whose ranking raises a ValueError is ranked again one session at a time,
    so that the error names the first session that fails.
    """
    table = model.item_table(params)
    size = max(1, BLOCK_BYTES // (8 * len(table.items)))
    sessions = batch_sessions(records, params.item_index, norm, params.neighborhood)
    n = len(sessions.records)
    cases: List[Tuple[int, str]] = []
    for start in range(0, n, size):
        cases += _rank_block(sessions.select(start, min(start + size, n)), params, table)
    return cases, len(records) - n


def _rank_block(block: SessionBatch, params: ModelParams,
                table: model.ItemTable) -> List[Tuple[int, str]]:
    """(rank, target) of each session in the block, from one forward pass
    and one screened distance matrix.  On a ValueError the block is ranked
    again one session at a time, so that the error names its session."""
    # each distinct item projected once, in item-id order, the order training
    # gives: a GEMM may round a row differently at another position
    rows, node_at = np.unique(block.node_rows, return_inverse=True)
    ids = [params.items[r] for r in rows.tolist()]
    by_id = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)
    at = np.empty_like(by_id)
    at[by_id] = np.arange(len(by_id))
    try:
        fw = model.forward_items(block.batch, block.intervals, params,
                                 params.item_features[rows[by_id]], at[node_at])[0]
        return list(zip(table.ranks(fw.item_future, block.targets).tolist(), block.targets))
    except ValueError as exc:
        if len(block.records) == 1:
            raise ValueError(f"test session {block.records[0].session_id!r}: {exc}") from exc
        return [case for b in range(len(block.records))
                for case in _rank_block(block.select(b, b + 1), params, table)]


def evaluate(
    params: ModelParams,
    records: Sequence[SessionRecord],
    k: int,
    norm: IntervalNormalizer,
) -> EvalReport:
    if not records:
        raise ValueError("empty test split")
    start = time.perf_counter()
    cases, skipped = rank_test_sessions(params, records, norm)
    if not cases:
        raise ValueError("no scorable test sessions (all skipped)")
    return EvalReport(
        mrr_at_k=mrr_at_k(cases, k),
        p_at_k=p_at_k(cases, k),
        k=k,
        n_test=len(cases),
        wall_time=time.perf_counter() - start,
        skipped=skipped,
    )


def popularity_baseline(
    train_records: Sequence[SessionRecord],
    test_records: Sequence[SessionRecord],
    k: int,
    vocabulary: Sequence[str],
) -> Tuple[float, float]:
    """Session-popularity ranking: in-session frequency first (recency as the
    tie break), then global training popularity.  Returns (MRR@k, P@k)."""
    global_counts: Dict[str, int] = {it: 0 for it in vocabulary}
    for rec in train_records:
        for item, _ in rec.events:
            if item in global_counts:
                global_counts[item] += 1
    catalog_by_pop = sorted(global_counts, key=lambda it: (-global_counts[it], it))
    pop_pos = {it: pos for pos, it in enumerate(catalog_by_pop)}

    cases: List[Tuple[Optional[int], str]] = []
    for rec in test_records:
        if len(rec.events) < MIN_EVENTS:
            continue
        prefix = [item for item, _ in rec.events[:-1]]
        target = rec.events[-1][0]
        counts: Dict[str, int] = {}
        last_pos: Dict[str, int] = {}
        for pos, item in enumerate(prefix):
            counts[item] = counts.get(item, 0) + 1
            last_pos[item] = pos
        in_session = sorted(counts, key=lambda it: (-counts[it], -last_pos[it], it))
        # ranking: in_session, then catalog_by_pop without the in-session items
        rank = None  # a target outside the vocabulary is a miss
        if target in counts:
            rank = in_session.index(target) + 1
        elif target in pop_pos:
            t_pos = pop_pos[target]
            skipped = sum(pop_pos.get(it, t_pos) < t_pos for it in in_session)
            rank = len(in_session) + t_pos - skipped + 1
        cases.append((rank, target))
    if not cases:
        raise ValueError("no scorable test sessions for the baseline")
    return mrr_at_k(cases, k), p_at_k(cases, k)
