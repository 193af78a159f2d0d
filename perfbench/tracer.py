"""Span tracing of the hypersess package from outside it.

A :class:`Tracer` replaces public functions with wrappers, as module
attributes.  Every module of the package that holds a reference to a traced
function gets the wrapper, so calls made through an imported name
(``from .graph import neighborhood``) are seen as well.  Each call becomes a
span: its name, start, end, parent span and the benchmark phase that was
running.  Self time is a span's duration minus the part of it that child
spans cover.

Work the tracer does for its own counts (walking the autodiff tape, checking
gradients for non-finite values) runs on a clock that is paused: its time is
left out of every span.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

import numpy as np

# module -> public functions wrapped; names are "<module>.<function>"
TRACED = {
    "grad": ("backward",),
    "model": ("forward_session", "hyperbolic_projection", "self_attention_layer",
              "soft_attention_session", "project_session_future",
              "project_item_future", "project_item_table", "score_items"),
    "manifold": ("distances_to_rows", "pairwise_mean_distance"),
    "graph": ("build_session_graph", "neighborhood"),
    "train": ("fit", "compute_loss", "optimizer_step", "examples_from_records",
              "save_checkpoint", "load_checkpoint"),
    "data": ("generate_synthetic", "parse_clicklog", "preprocess"),
    "evaluate": ("evaluate", "rank_test_sessions"),
    "metrics": ("mrr_at_k", "p_at_k"),
    "cli": ("main",),
}


def count_tape_nodes(root) -> int:
    """Distinct nodes reachable from ``root`` through ``Node.parents``."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent, _ in stack.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    """In-memory spans and counters, keyed by benchmark phase."""

    def __init__(self, package):
        self.package = package
        self.phase = "setup"
        self.names: List[str] = []
        # (name id, start ns, end ns, parent span index or -1, phase)
        self.spans: List[Tuple[int, int, int, int, str]] = []
        self.counts: Dict[Tuple[str, str], float] = defaultdict(float)
        self._paused_ns = 0
        self._open: List[int] = []
        self._undo: List[Tuple[object, str, Callable]] = []
        self._before = {
            "grad.backward": self._count_tape,
            "train.optimizer_step": self._check_step,
        }
        self._after = {
            "model.score_items": lambda r: self._count("ranked_entries", len(r.entries)),
            "data.parse_clicklog": lambda r: self._count("events_parsed", len(r)),
            "evaluate.rank_test_sessions": lambda r: self._count("sessions_skipped", r[1]),
        }

    # -- clock -----------------------------------------------------------

    def _now(self) -> int:
        return time.perf_counter_ns() - self._paused_ns

    def _paused(self, fn, *args, **kwargs):
        t0 = time.perf_counter_ns()
        try:
            fn(*args, **kwargs)
        finally:
            self._paused_ns += time.perf_counter_ns() - t0

    # -- counters --------------------------------------------------------

    def _count(self, key: str, amount: float = 1) -> None:
        self.counts[(key, self.phase)] += amount

    def _count_tape(self, root, *args, **kwargs) -> None:
        self._count("tape_nodes", count_tape_nodes(root))

    def _check_step(self, params, grads, *args, **kwargs) -> None:
        # the same rule optimizer_step applies: any non-finite entry skips it
        self._count("steps")
        if not all(np.all(np.isfinite(g)) for g in grads.values()):
            self._count("steps_skipped")

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        name_id = len(self.names)
        self.names.append(name)
        before = self._before.get(name)
        after = self._after.get(name)
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                self._paused(before, *args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            phase = self.phase
            start = self._now()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name_id, start, self._now(), parent, phase)
                stack.pop()
            if after is not None:
                self._paused(after, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every function in TRACED wherever the package refers to it."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == self.package.__name__
                                         or key.startswith(self.package.__name__ + "."))]
        for mod_name, functions in TRACED.items():
            home = getattr(self.package, mod_name)
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    # -- results ---------------------------------------------------------

    def per_phase(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """name -> phase -> {calls, total_s, self_s}."""
        child_ns = [0] * len(self.spans)
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: Dict[str, Dict[str, Dict[str, float]]] = {}
        for (name_id, start, end, _, phase), child in zip(self.spans, child_ns):
            stats = out.setdefault(self.names[name_id], {}).setdefault(
                phase, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            stats["calls"] += 1
            stats["total_s"] += (end - start) / 1e9
            stats["self_s"] += (end - start - child) / 1e9
        return out
