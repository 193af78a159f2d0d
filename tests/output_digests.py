"""One sha256 per output of the package on perfbench's seeded workloads.

    python3 tests/output_digests.py                      # seeds 0-4, every workload
    python3 tests/output_digests.py --workloads desk --seeds 0 --queries 2

Each line is ``<workload> <seed> <output> <sha256>``.  Run it in two
checkouts and compare the lines: equal lines mean equal bits.  A refactor
that claims to change no output shows it this way.  The outputs are:

- ``graph_batches``: the arrays of every ``GraphBatch`` that
  ``graph.batch_events`` returns during the workload's fit, seen through a
  wrapper put in every package module that holds the function, as
  ``perfbench/tracer.py`` wraps functions;
- ``fit``: epoch losses, collapse trace, skipped steps and the trained
  parameters' bytes; ``fit_prefixes`` the same for a desk fit over every
  prefix of 40 sessions, and ``fit_margin`` for a desk fit with
  ``margin_negatives``;
- ``evaluate``: the report's CSV rows; ``ranks``: the (rank, target) cases
  and skipped count of ``rank_test_sessions``;
- ``queries``: ``item_future`` bytes and rankings of the first
  ``--queries`` queries of the workload's stream.

Evaluation and queries use the model perfbench scores: catalog's loaded
checkpoint, the fit's model otherwise.  The workloads come from
``perfbench/workloads.py``, read and not changed.  pytest does not collect
this file.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys
import tempfile
from pathlib import Path

# one BLAS thread, as perfbench runs: a GEMM's rounding may follow the split
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import hypersess  # noqa: E402
import workloads as wl  # noqa: E402
from hypersess import evaluate, graph, train  # noqa: E402

WORKLOADS = ("desk", "catalog", "longtail")
BATCH_ARRAYS = ("dst", "src", "interval", "node_session", "last")


def _update(h, *values) -> None:
    """Feed arrays (dtype, shape and bytes) and other values (repr) to ``h``."""
    for v in values:
        if isinstance(v, np.ndarray):
            h.update(f"{v.dtype.str}{v.shape}".encode())
            h.update(np.ascontiguousarray(v).tobytes())
        else:
            h.update(repr(v).encode())


def _fit_digest(result: train.FitResult) -> str:
    h = hashlib.sha256()
    _update(h, result.epoch_losses, result.collapse_trace, result.skipped_steps,
            result.params.items)
    _update(h, *(getattr(result.params, name) for name in train.ARRAY_FIELDS))
    return h.hexdigest()


class BatchDigest:
    """Wraps ``graph.batch_events`` in every package module that holds it
    and hashes each returned batch's arrays while ``on``."""

    def __init__(self):
        self.hash = hashlib.sha256()
        self.on = False
        self._undo = []

    def __enter__(self):
        original = graph.batch_events

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            if self.on:
                _update(self.hash, *(getattr(result[0], name) for name in BATCH_ARRAYS))
            return result

        for name, module in list(sys.modules.items()):
            if module is not None and name.startswith(hypersess.__name__):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, attr, value))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)


def digests(name: str, seed: int, n_queries: int):
    """(output, sha256) pairs of one workload and seed."""
    with tempfile.TemporaryDirectory() as workdir, BatchDigest() as batches:
        inputs = wl.INPUTS[name](seed, Path(workdir))
        prep = wl.SETUPS[name](inputs)
        batches.on = True
        fit, _ = wl.train_repeat(prep)
        batches.on = False
        yield "graph_batches", batches.hash.hexdigest()
        yield "fit", _fit_digest(fit)
        if name == "desk":
            records = sorted(prep.split.train, key=lambda rec: rec.session_id)[:40]
            prefixes = train.examples_from_records(records, prep.norm, augment_prefixes=True)
            config = dataclasses.replace(prep.config, augment_prefixes=True)
            yield "fit_prefixes", _fit_digest(train.fit(prefixes, config, vocab=prep.vocab))
            config = dataclasses.replace(prep.config, margin_negatives=True)
            yield "fit_margin", _fit_digest(train.fit(prep.train_set, config, vocab=prep.vocab))

        params = prep.base_params if prep.base_params is not None else fit.params
        report, _ = wl.eval_repeat(prep, params)
        h = hashlib.sha256()
        _update(h, report.csv_rows())
        yield "evaluate", h.hexdigest()
        h = hashlib.sha256()
        _update(h, evaluate.rank_test_sessions(params, prep.eval_block, prep.norm))
        yield "ranks", h.hexdigest()

        h = hashlib.sha256()
        for _ in range(n_queries):
            record, at_time = next(inputs.queries)
            fw, ranked = wl.recommend(params, prep.norm, record, at_time)
            _update(h, np.asarray(fw.item_future), ranked.entries)
        yield "queries", h.hexdigest()


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated names (default: all)")
    parser.add_argument("--seeds", default="0-4", help="a seed or a range lo-hi (default 0-4)")
    parser.add_argument("--queries", type=int, default=30, help="queries per run (default 30)")
    args = parser.parse_args(argv)
    for name in args.workloads.split(","):
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r}")
        for seed in _seeds(args.seeds):
            for output, digest in digests(name, seed, args.queries):
                print(name, seed, output, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
