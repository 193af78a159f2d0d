"""Time-aware test protocol and report.

Each test session is scored by rebuilding the graph from all but its final
event, normalizing the gap between the penultimate and final timestamps as
the query interval, and ranking the full catalog against the predicted item
embedding.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import model
from .graph import IntervalNormalizer, SessionRecord
from .metrics import mrr_at_k, p_at_k
from .model import ModelParams
from .train import examples_from_records


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

    The catalog is projected once for the whole call.  Sessions that yield
    no example (fewer than 2 events), or touching items outside the
    vocabulary, are skipped and counted.
    """
    table = model.ItemTable(params)
    cases: List[Tuple[int, str]] = []
    skipped = 0
    for rec in records:
        examples = examples_from_records([rec], norm)
        if not examples or any(item not in params.item_index for item, _ in rec.events):
            skipped += 1
            continue
        (ex,) = examples
        try:
            fw = model.forward_session(ex.graph, ex.target_interval, params)
            cases.append((table.rank(fw.item_future, ex.target_item), ex.target_item))
        except ValueError as exc:
            raise ValueError(f"test session {rec.session_id!r}: {exc}") from exc
    return cases, skipped


def evaluate(
    params: ModelParams,
    records: Sequence[SessionRecord],
    k: int,
    norm: Optional[IntervalNormalizer] = None,
) -> EvalReport:
    if not records:
        raise ValueError("empty test split")
    norm = norm or IntervalNormalizer()
    start = time.perf_counter()
    cases, skipped = rank_test_sessions(params, records, norm)
    if not cases:
        raise ValueError("no scorable test sessions (all skipped)")
    report = EvalReport(
        mrr_at_k=mrr_at_k(cases, k),
        p_at_k=p_at_k(cases, k),
        k=k,
        n_test=len(cases),
        wall_time=time.perf_counter() - start,
        skipped=skipped,
    )
    return report


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

    total_rr = 0.0
    hits = 0
    n = 0
    for rec in test_records:
        if len(rec.events) < 2:
            continue
        prefix = [item for item, _ in rec.events[:-1]]
        target = rec.events[-1][0]
        counts: Dict[str, int] = {}
        last_pos: Dict[str, int] = {}
        for pos, item in enumerate(prefix):
            counts[item] = counts.get(item, 0) + 1
            last_pos[item] = pos
        in_session = sorted(counts, key=lambda it: (-counts[it], -last_pos[it], it))
        n += 1
        # ranking: in_session, then catalog_by_pop without the in-session items
        if target in counts:
            rank = in_session.index(target) + 1
        elif target in pop_pos:
            t_pos = pop_pos[target]
            skipped = sum(pop_pos.get(it, t_pos) < t_pos for it in in_session)
            rank = len(in_session) + t_pos - skipped + 1
        else:
            continue
        if rank <= k:
            hits += 1
            total_rr += 1.0 / rank
    if n == 0:
        raise ValueError("no scorable test sessions for the baseline")
    return total_rr / n, hits / n
