"""Ranking metrics over (ranking, target) pairs.

A ranking is a :class:`~hypersess.model.RankedList` or a
:class:`~hypersess.model.TargetRank`; either answers ``rank(target)``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

from .model import RankedList, TargetRank

Ranking = Union[RankedList, TargetRank]


def rank_of(ranking: Ranking, target: str) -> Optional[int]:
    """1-based position of the target, or None if absent from the ranking."""
    return ranking.rank(target)


def mrr_at_k(rankings: Sequence[Tuple[Ranking, str]], k: int) -> float:
    """Mean of 1/rank(target) over cases, 0 when the target misses the top-k."""
    if not rankings:
        raise ValueError("no rankings to score")
    if k < 1:
        raise ValueError("k must be positive")
    total = 0.0
    for ranking, target in rankings:
        r = rank_of(ranking, target)
        if r is not None and r <= k:
            total += 1.0 / r
    return total / len(rankings)


def p_at_k(rankings: Sequence[Tuple[Ranking, str]], k: int) -> float:
    """Fraction of cases whose target appears in the top-k."""
    if not rankings:
        raise ValueError("no rankings to score")
    if k < 1:
        raise ValueError("k must be positive")
    hits = 0
    for ranking, target in rankings:
        r = rank_of(ranking, target)
        if r is not None and r <= k:
            hits += 1
    return hits / len(rankings)
