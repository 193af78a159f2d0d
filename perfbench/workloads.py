"""The benchmark's seeded workloads: inputs, set-up, timed operations, checks.

Every workload has the same shape.  Its inputs (a click log, for catalog
also a saved model) are made from the seed once per run, untimed, as an
:class:`Inputs`.  ``setup`` reads them through the program, and only that
is timed; it returns a :class:`Prepared`.  A train repeat fits a fresh model on a
fixed set of examples; an eval repeat runs ``evaluate`` on a fixed block of
test sessions; a query is one ``recommend`` call (graph, forward pass,
``score_items``).  Repeats of the same kind do the same work, so their
timings can be compared and their outputs must agree exactly.
"""

from __future__ import annotations

import copy
import csv
import io
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from hypersess import cli, data, evaluate, graph, manifold, metrics, model, train
from hypersess.graph import IntervalNormalizer, SessionRecord

RECOMMEND_K = 20
MIN_ITEM_FREQ = 5         # preprocess's default; every generated item meets it
SLOT_SPACING_S = 3600     # session slots start an hour apart ...
MAX_GAP_S = 60            # ... and the longest (50 events) lasts < 3000 s,
                          # so end-time order is slot order for every seed
LONG_LENGTHS = (20, 26, 32, 38, 44, 50)
T0 = 1_600_000_000


# ---------------------------------------------------------------------------
# session generator
# ---------------------------------------------------------------------------

Schedule = Callable[[int], Tuple[int, int]]   # slot -> (events, distinct items)


def short_schedule(slot: int) -> Tuple[int, int]:
    n = 3 + slot % 8
    return n, n


def longtail_schedule(slot: int) -> Tuple[int, int]:
    """Nine short sessions of 2-5 events, then one of 20-50 events that
    visits half as many distinct items (revisits, self-loops, back edges)."""
    if slot % 10 == 9:
        n = LONG_LENGTHS[(slot // 10) % len(LONG_LENGTHS)]
        return n, n // 2
    n = 2 + slot % 4
    return n, n


def query_schedule(lengths: Tuple[int, ...]) -> Schedule:
    """Queries cycling through ``lengths``; long ones revisit like sessions."""
    def schedule(slot: int) -> Tuple[int, int]:
        n = lengths[slot % len(lengths)]
        return n, (n // 2 if n >= 20 else n)
    return schedule


# Query lengths, in cycles of 20, chosen so that the 50th and 90th percentiles
# fall inside a run of equal lengths and not on a step between two lengths.
SHORT_QUERIES = query_schedule((2, 3, 4, 5, 6, 7, 8, 9, 3, 4, 5, 6, 9, 5, 6, 7, 8, 9, 6, 9))
# one query in five is long, so p90 falls among the long ones
LONGTAIL_QUERIES = query_schedule((2, 3, 4, 5, 20, 2, 3, 4, 5, 35,
                                   3, 4, 4, 5, 35, 4, 4, 5, 5, 50))


def visit_pattern(n_events: int, n_distinct: int) -> List[int]:
    """Order in which a session visits its distinct items.

    It depends only on the two sizes, never on the workload seed, so the
    graph shapes (and the cost of a session) are the same for every seed;
    the seed picks which items fill them and when.
    """
    if n_events == n_distinct:
        return list(range(n_events))
    rng = np.random.default_rng((n_events, n_distinct))
    order = [0]
    fresh = 1
    for step in range(1, n_events):
        if n_distinct - fresh >= n_events - step:
            r = 1.0                       # every item must still be visited
        else:
            r = rng.random()
        if r < 0.15:
            order.append(order[-1])       # self-loop
        elif r < 0.55 or fresh == n_distinct:
            order.append(int(rng.integers(fresh)))
        else:
            order.append(fresh)
            fresh += 1
    return order


def _make_distinct(pool: List[int], start: int, stop: int) -> None:
    """Swap later pool entries in so that pool[start:stop] has no repeats."""
    seen = set()
    for i in range(start, stop):
        if pool[i] in seen:
            for j in range(stop, len(pool)):
                if pool[j] not in seen:
                    pool[i], pool[j] = pool[j], pool[i]
                    break
        seen.add(pool[i])


def _timed_events(rng, items: List[str], order: List[int], slot: int):
    gaps = rng.integers(5, MAX_GAP_S + 1, size=len(order) - 1)
    times = T0 + slot * SLOT_SPACING_S + np.concatenate([[0], np.cumsum(gaps)])
    return [(items[i], int(t)) for i, t in zip(order, times)]


@dataclass
class ClickLog:
    train: List[SessionRecord]
    test: List[SessionRecord]
    popular: np.ndarray        # active item indices, most popular first
    popularity: np.ndarray     # Zipf weights aligned with ``popular``


def click_sessions(rng, items: List[str], n_active: int, n_extra: int,
                   schedule: Schedule, n_test: int) -> ClickLog:
    """Seeded sessions over ``n_active`` Zipf-popular items of ``items``.

    Training sessions draw from a shuffled pool that holds every active item
    MIN_ITEM_FREQ times plus ``n_extra`` Zipf draws, so preprocessing with its
    default frequency filter removes nothing.  Test sessions draw their
    distinct items by popularity.  Unlike ``data.generate_synthetic``, which
    allocates a dense (n_items x n_items) float64 transition matrix (3.2 GB
    at 20,000 items) and O(n^2) Python lists, the cost here is linear in the
    number of events.
    """
    popular = rng.choice(len(items), size=n_active, replace=False)
    popularity = 1.0 / np.arange(1, n_active + 1)
    popularity /= popularity.sum()
    pool = np.concatenate([
        np.repeat(popular, MIN_ITEM_FREQ),
        popular[rng.choice(n_active, size=n_extra, p=popularity)],
    ])
    rng.shuffle(pool)
    pool = pool.tolist()

    train_recs: List[SessionRecord] = []
    pos = 0
    slot = 0
    while pos < len(pool):
        n_events, n_distinct = schedule(slot)
        take = min(n_distinct, len(pool) - pos)
        if len(pool) - pos - take < 2:
            take = len(pool) - pos        # a 1-event remainder would be dropped
        _make_distinct(pool, pos, pos + take)
        chunk = pool[pos:pos + take]
        pos += take
        order = visit_pattern(n_events, n_distinct) if take == n_distinct else range(take)
        train_recs.append(SessionRecord(
            f"s{slot:06d}", _timed_events(rng, items, [chunk[k] for k in order], slot)))
        slot += 1

    test_recs: List[SessionRecord] = []
    for _ in range(n_test):
        n_events, n_distinct = schedule(slot)
        chunk = popular[rng.choice(n_active, size=n_distinct, replace=False, p=popularity)]
        order = [int(chunk[k]) for k in visit_pattern(n_events, n_distinct)]
        test_recs.append(SessionRecord(f"s{slot:06d}", _timed_events(rng, items, order, slot)))
        slot += 1
    return ClickLog(train_recs, test_recs, popular, popularity)


def write_clicks(records: List[SessionRecord], workdir: Path) -> Path:
    """Write sessions as a ``generic`` click CSV, the format real logs come in."""
    path = workdir / "clicks.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["session_id", "item_id", "timestamp"])
        for rec in records:
            for item, ts in rec.events:
                w.writerow([rec.session_id, item, ts])
    return path


def query_stream(rng, items: List[str], popular, popularity, schedule: Schedule):
    """Endless seeded ``recommend`` queries: (session, at-time)."""
    slot = 0
    while True:
        n_events, n_distinct = schedule(slot)
        chunk = popular[rng.choice(len(popular), size=n_distinct, replace=False, p=popularity)]
        events = _timed_events(rng, items, [int(chunk[k]) for k in
                                            visit_pattern(n_events, n_distinct)], slot)
        yield SessionRecord(f"q{slot:06d}", events), events[-1][1] + int(rng.integers(5, 3600))
        slot += 1


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class Inputs:
    """A workload's generated inputs, made once per run before any timer
    starts.  Set-up reads them the way a user's inputs are read."""

    clicks: Path                        # generic click CSV
    sessions: Dict[str, list]           # session id -> events, as generated
    test_window_s: int
    n_test: Optional[int]               # sessions the test window must hold
    queries: Iterator                   # from query_stream
    items: Optional[List[str]] = None   # desk: the recipe's item list
    checkpoint: Optional[Path] = None   # catalog: the saved model


@dataclass
class Prepared:
    """Everything a workload's timed operations need, built by set-up."""

    norm: IntervalNormalizer
    config: train.TrainConfig
    train_set: List[train.TrainingExample]   # trained on by every repeat
    vocab: Optional[List[str]]
    base_params: Optional[model.ModelParams]  # when set, fit trains a copy
    eval_block: List[SessionRecord]
    eval_k: int
    split: data.DatasetSplit                  # as preprocess returned it

    @property
    def examples_per_repeat(self) -> int:
        return len(self.train_set) * self.config.epochs

    @property
    def steps_per_repeat(self) -> int:
        return -(-len(self.train_set) // self.config.batch_size) * self.config.epochs


def log_inputs(log: ClickLog, workdir: Path, schedule: Schedule, seed: int,
               items: List[str], checkpoint: Optional[Path] = None) -> Inputs:
    """Inputs for a :class:`ClickLog`, with a test window that holds exactly
    ``log.test``."""
    t_max = max(ts for rec in log.test for _, ts in rec.events)
    records = log.train + log.test
    return Inputs(
        clicks=write_clicks(records, workdir),
        sessions={rec.session_id: rec.events for rec in records},
        test_window_s=t_max - log.test[0].events[0][1] + 300, n_test=len(log.test),
        queries=query_stream(np.random.default_rng((seed, 1)), items,
                             log.popular, log.popularity, schedule),
        checkpoint=checkpoint,
    )


def read_clicks(inp: Inputs) -> data.DatasetSplit:
    return data.preprocess(data.parse_clicklog(inp.clicks, "generic"),
                           test_window_seconds=inp.test_window_s)


def check_split(inp: Inputs, split: data.DatasetSplit) -> Optional[str]:
    """The generated logs are ones preprocessing keeps whole; anything else
    is an error of ``parse_clicklog`` or ``preprocess``."""
    kept = {rec.session_id: rec.events for rec in split.train + split.test}
    if kept != inp.sessions:
        return "parse_clicklog and preprocess changed the generated sessions"
    if inp.n_test is not None and len(split.test) != inp.n_test:
        return f"preprocess put {len(split.test)} sessions in the test window, not {inp.n_test}"
    return None


def _by_graph_size(examples, sizes, per_size):
    """The first ``per_size`` examples of each graph size, in dataset order."""
    picked = []
    for size in sizes:
        found = [ex for ex in examples if ex.graph.n_nodes == size][:per_size]
        if len(found) < per_size:
            raise RuntimeError(f"only {len(found)} training graphs with {size} nodes")
        picked.extend(found)
    return picked


def desk_inputs(seed: int, workdir: Path) -> Inputs:
    synth = data.generate_synthetic(100, 2000, seed, interval_signal=True)
    uniform = np.full(len(synth.items), 1.0 / len(synth.items))
    return Inputs(
        clicks=write_clicks(synth.records, workdir),
        sessions={rec.session_id: rec.events for rec in synth.records},
        # the recipe splits 80/20 in generation order, not by time window
        test_window_s=1, n_test=None,
        queries=query_stream(np.random.default_rng((seed, 1)), synth.items,
                             np.arange(len(synth.items)), uniform, SHORT_QUERIES),
        items=synth.items,
    )


def setup_desk(inp: Inputs) -> Prepared:
    split = read_clicks(inp)
    # session ids are numbered in generation order, which the recipe's
    # 80/20 split follows
    records = sorted(split.train + split.test, key=lambda rec: rec.session_id)
    n_train = int(len(records) * 0.8)
    config = train.TrainConfig(dim=16, learning_rate=0.02, epochs=2,
                               batch_size=64, seed=3)
    norm = config.normalizer()
    examples = train.examples_from_records(records[:n_train], norm)
    return Prepared(
        norm=norm, config=config,
        # 8 graphs of each size 2..9: the same work for every seed
        train_set=_by_graph_size(examples, range(2, 10), 8),
        vocab=inp.items, base_params=None,
        eval_block=records[n_train:], eval_k=5, split=split,
    )


CATALOG_ITEMS = 20_000
CATALOG_DIM = 60


def catalog_inputs(seed: int, workdir: Path) -> Inputs:
    rng = np.random.default_rng(seed)
    items = [f"c{i:05d}" for i in range(CATALOG_ITEMS)]
    params = model.init_params(items, CATALOG_DIM, rng)
    # spread the rows through the ball, as in a trained model
    params.item_features = manifold.project_rows_to_ball(
        rng.normal(0.0, 0.1, size=params.item_features.shape))
    config = train.TrainConfig(dim=CATALOG_DIM, learning_rate=0.02, epochs=2,
                               batch_size=32, seed=seed)
    checkpoint = workdir / "catalog.npz"
    train.save_checkpoint(checkpoint, params, config)
    log = click_sessions(rng, items, n_active=1000, n_extra=1000,
                         schedule=short_schedule, n_test=10)
    return log_inputs(log, workdir, SHORT_QUERIES, seed, items, checkpoint)


def setup_catalog(inp: Inputs) -> Prepared:
    params, config = train.load_checkpoint(inp.checkpoint)
    norm = config.normalizer()
    split = read_clicks(inp)
    examples = train.examples_from_records(split.train, norm)
    return Prepared(
        norm=norm, config=config, train_set=examples[:32], vocab=None,
        base_params=params, eval_block=split.test, eval_k=RECOMMEND_K, split=split,
    )


def longtail_inputs(seed: int, workdir: Path) -> Inputs:
    rng = np.random.default_rng(seed)
    items = [f"t{i:04d}" for i in range(2000)]
    log = click_sessions(rng, items, n_active=len(items), n_extra=2000,
                         schedule=longtail_schedule, n_test=40)
    return log_inputs(log, workdir, LONGTAIL_QUERIES, seed, items)


def setup_longtail(inp: Inputs) -> Prepared:
    split = read_clicks(inp)
    config = train.TrainConfig(dim=32, learning_rate=0.02, epochs=2, batch_size=20,
                               seed=3, layers=2, neighborhood="both")
    norm = config.normalizer()
    examples = train.examples_from_records(split.train, norm)
    return Prepared(
        # four long sessions (20, 26, 32 and 38 events) among 40
        norm=norm, config=config, train_set=examples[:40],
        vocab=sorted(split.item_vocabulary, key=split.item_vocabulary.get),
        base_params=None, eval_block=split.test, eval_k=RECOMMEND_K, split=split,
    )


INPUTS = {"desk": desk_inputs, "catalog": catalog_inputs, "longtail": longtail_inputs}
SETUPS = {"desk": setup_desk, "catalog": setup_catalog, "longtail": setup_longtail}


# ---------------------------------------------------------------------------
# timed operations
# ---------------------------------------------------------------------------

def train_repeat(prep: Prepared) -> Tuple[train.FitResult, float]:
    params = copy.deepcopy(prep.base_params) if prep.base_params is not None else None
    t0 = time.perf_counter()
    result = train.fit(prep.train_set, prep.config, vocab=prep.vocab, params=params)
    return result, time.perf_counter() - t0


def eval_repeat(prep: Prepared, params) -> Tuple[evaluate.EvalReport, float]:
    t0 = time.perf_counter()
    report = evaluate.evaluate(params, prep.eval_block, prep.eval_k, prep.norm)
    return report, time.perf_counter() - t0


def recommend(params, norm, record: SessionRecord, at_time: int, k: int = RECOMMEND_K):
    g = graph.build_session_graph(record, norm, min_events=1)
    fw = model.forward_session(g, norm(at_time - record.events[-1][1]), params)
    return fw, model.score_items(fw.item_future, params, k=k)


def cli_recommend(checkpoint: Path, record: SessionRecord, at_time: int):
    """One in-process ``hypersess recommend``; returns (exit code, item ids, s)."""
    argv = ["recommend", "--checkpoint", str(checkpoint),
            "--session", ",".join(f"{it}:{ts}" for it, ts in record.events),
            "--at-time", str(at_time), "--k", str(RECOMMEND_K)]
    out = io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out):
        code = cli.main(argv)
    elapsed = time.perf_counter() - t0
    ids = [line.split()[1] for line in out.getvalue().splitlines()[2:] if line.strip()]
    return code, ids, elapsed


# ---------------------------------------------------------------------------
# independent checks
# ---------------------------------------------------------------------------

class BruteForceRanker:
    """Catalog ranking written from the definitions, sharing no code with
    ``model.score_items``: the item table is projected row by row from the
    exp map and Mobius matrix-vector formulas, distances use arcosh, and
    items are ordered by (distance, item id)."""

    def __init__(self, params: model.ModelParams):
        self.ids = np.array(params.items)
        self.id_rank = np.empty(len(self.ids), dtype=np.int64)
        self.id_rank[np.argsort(self.ids, kind="stable")] = np.arange(len(self.ids))
        self.index = {it: i for i, it in enumerate(params.items)}
        f = np.array(params.item_features, dtype=np.float64)
        fn = np.linalg.norm(f, axis=1, keepdims=True)
        u = self._clip(np.divide(np.tanh(fn) * f, fn, out=np.zeros_like(f), where=fn > 0))
        mu = u @ np.array(params.feat_proj, dtype=np.float64).T
        un = np.linalg.norm(u, axis=1, keepdims=True)
        mun = np.linalg.norm(mu, axis=1, keepdims=True)
        ok = (un > 0) & (mun > 0)
        gain = np.tanh(np.divide(mun, un, out=np.zeros_like(un), where=ok)
                       * np.arctanh(np.where(ok, un, 0.0)))
        self.table = self._clip(np.divide(gain * mu, mun, out=np.zeros_like(mu), where=ok))
        self.sq = np.sum(self.table ** 2, axis=1)

    @staticmethod
    def _clip(rows: np.ndarray) -> np.ndarray:
        n = np.linalg.norm(rows, axis=1, keepdims=True)
        return np.where(n > manifold.MAX_NORM, rows * (manifold.MAX_NORM / np.maximum(n, 1e-300)), rows)

    def distances(self, point) -> np.ndarray:
        p = np.asarray(point, dtype=np.float64)
        d2 = np.sum((self.table - p) ** 2, axis=1)
        return np.arccosh(1.0 + 2.0 * d2 / ((1.0 - p @ p) * (1.0 - self.sq)))

    def top_k(self, point, k: int) -> List[str]:
        order = np.lexsort((self.id_rank, self.distances(point)))[:k]
        return self.ids[order].tolist()

    def rank(self, point, target: str) -> int:
        d = self.distances(point)
        t = self.index[target]
        tied_before = (d == d[t]) & (self.id_rank < self.id_rank[t])
        return 1 + int(np.sum(d < d[t])) + int(np.sum(tied_before))


def brute_force_ranks(params, prep: Prepared) -> List[int]:
    """Rank of each eval-block target under the evaluation protocol (graph
    of all but the final event, that event's gap as the query interval),
    ranked by :class:`BruteForceRanker`."""
    ranker = BruteForceRanker(params)
    ranks = []
    for rec in prep.eval_block:
        prefix = SessionRecord(rec.session_id, list(rec.events[:-1]))
        g = graph.build_session_graph(prefix, prep.norm, min_events=1)
        target, t = rec.events[-1]
        fw = model.forward_session(g, prep.norm(t - rec.events[-2][1]), params)
        ranks.append(ranker.rank(np.asarray(fw.item_future), target))
    return ranks


def mrr_and_p(ranks: List[int], k: int) -> Tuple[float, float]:
    """MRR@k and P@k of 1-based ranks, summed in order like ``metrics``."""
    rr = 0.0
    for r in ranks:
        if r <= k:
            rr += 1.0 / r
    return rr / len(ranks), sum(r <= k for r in ranks) / len(ranks)


def program_ranks(params, prep: Prepared) -> List[int]:
    """The same ranks as ``evaluate`` finds them."""
    cases, _ = evaluate.rank_test_sessions(params, prep.eval_block, prep.norm)
    return [metrics.rank_of(ranking, target) for ranking, target in cases]


def same_floats(a, b, rel: float = 1e-9) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.all(np.isfinite(a))) and \
        bool(np.all(np.abs(a - b) <= rel * np.maximum(np.abs(b), 1e-12)))
