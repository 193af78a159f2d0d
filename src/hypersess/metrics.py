"""Ranking metrics over (ranking, target) pairs.

A ranking is the target's 1-based full-catalog rank as an int, which is
what evaluation produces, or None for a case whose target could not be
ranked, which counts as a miss.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple


def rank_of(ranking: Optional[int], target: str) -> Optional[int]:
    """The rank of the case ``(ranking, target)``: the int itself, or None
    for a miss."""
    return ranking


def _ranks_within(rankings: Sequence[Tuple[Optional[int], str]], k: int) -> List[int]:
    """The targets' ranks that are at most k, in case order."""
    if not rankings:
        raise ValueError("no rankings to score")
    if k < 1:
        raise ValueError("k must be positive")
    return [r for r, _ in rankings if r is not None and r <= k]


def mrr_at_k(rankings: Sequence[Tuple[Optional[int], str]], k: int) -> float:
    """Mean of 1/rank(target) over cases, 0 when the target misses the top-k."""
    total = 0.0
    for r in _ranks_within(rankings, k):
        total += 1.0 / r
    return total / len(rankings)


def p_at_k(rankings: Sequence[Tuple[Optional[int], str]], k: int) -> float:
    """Fraction of cases whose target appears in the top-k."""
    return len(_ranks_within(rankings, k)) / len(rankings)
