"""Click-log ingestion, preprocessing/splitting, synthetic data.

Three input formats are supported: ``yoochoose`` (headerless
session,iso-time,item[,category]), ``diginetica`` (semicolon CSV with
sessionId/itemId/timeframe/eventdate columns) and ``generic`` (header-named
session_id,item_id,timestamp[,category], epoch seconds).  All identifiers are
handled as strings; they and the time fields are stripped of surrounding
whitespace.  One row loop reads all three under one rule: a row that lacks
its session, item or time field, or whose id is empty or whose time does not
parse, is not finite or is not positive, is malformed, skipped and counted.
The category is optional.  Blank lines are not rows.  Header columns are
found by name, the last of duplicates winning.

A log is read into columns: per kept row a session, an item and a category
code (each id interned by one dict) and int64 epoch seconds, so a time of
2**63 or more is malformed too.  Yoochoose's fixed-width
``YYYY-MM-DDTHH:MM:SS[.fff]Z`` is sliced, with one ``calendar.timegm`` per
distinct hour, and any other string goes to ``strptime``; diginetica parses
each distinct date once.  ``preprocess`` groups (one stable ``np.lexsort``,
so equal times keep file order), filters (``np.bincount`` on row masks) and
splits the codes as arrays, and builds a :class:`SessionRecord` of plain
``str`` and ``int`` only for each session it keeps.
"""

from __future__ import annotations

import calendar
import csv
import logging
from array import array
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from datetime import date, datetime, timezone
from operator import itemgetter
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .graph import SessionRecord

log = logging.getLogger(__name__)


@dataclass
class ClickEvent:
    session_id: str
    item_id: str
    timestamp: int
    category: Optional[str] = None

    def __post_init__(self):
        if not self.session_id or not self.item_id:
            raise ValueError("empty identifier")
        if self.timestamp <= 0:
            raise ValueError(f"non-positive timestamp: {self.timestamp}")


def _parse_iso_utc(text: str) -> int:
    for fmt in ("%Y-%m-%dT%H:%M:%S.%fZ", "%Y-%m-%dT%H:%M:%SZ"):
        try:
            dt = datetime.strptime(text, fmt).replace(tzinfo=timezone.utc)
            return int(dt.timestamp())
        except ValueError:
            continue
    raise ValueError(f"unparseable timestamp: {text!r}")


# The fixed-width ISO time cut as "YYYY-MM-DDTHH" | ":MM:SS" | tail: every
# valid clock in ASCII digits, and the tails that _parse_iso_utc's int() drops.
_ISO_CLOCK = {f":{m:02d}:{s:02d}": 60 * m + s for m in range(60) for s in range(60)}
_ISO_TAILS = frozenset(["Z"] + [f".{ms:03d}Z" for ms in range(1000)])


def _iso_hour(text: str) -> Optional[int]:
    """Epoch seconds at the start of ``YYYY-MM-DDTHH`` in ASCII digits, or
    None.  Days before 1970 are None too: ``int()`` rounds a negative
    fractional timestamp up, so only from 1970 on is dropping the fraction
    what :func:`_parse_iso_utc` does."""
    if not (len(text) == 13 and text.isascii() and text[4] == text[7] == "-"
            and text[10] == "T" and (text[:4] + text[5:7] + text[8:10] + text[11:]).isdigit()):
        return None
    try:
        day = date(int(text[:4]), int(text[5:7]), int(text[8:10]))
    except ValueError:  # not a date: month 13, February 30, year 0
        return None
    start = calendar.timegm(day.timetuple())
    hour = int(text[11:])
    return start + 3600 * hour if start >= 0 and hour < 24 else None


def _yoochoose_times() -> Callable[[str], int]:
    """A reader of yoochoose times: ``YYYY-MM-DDTHH:MM:SS[.fff]Z`` by
    slicing, with one ``calendar.timegm`` per distinct hour, and any other
    string through :func:`_parse_iso_utc`."""
    hours: Dict[str, int] = {}

    def seconds(text: str) -> int:
        text = text.strip()
        hour = hours.get(text[:13])
        if hour is None:
            hour = _iso_hour(text[:13])
            if hour is None:
                return _parse_iso_utc(text)
            hours[text[:13]] = hour
        clock = _ISO_CLOCK.get(text[13:19])
        if clock is None or text[19:] not in _ISO_TAILS:
            return _parse_iso_utc(text)
        return hour + clock

    return seconds


def _diginetica_times() -> Callable[[Tuple[str, str]], int]:
    """A reader of diginetica's (timeframe in ms, eventdate) fields, with one
    ``strptime`` per distinct date."""
    days: Dict[str, int] = {}

    def seconds(fields: Tuple[str, str]) -> int:
        frame_ms, day = fields
        base = days.get(day)
        if base is None:
            when = datetime.strptime(day.strip(), "%Y-%m-%d").replace(tzinfo=timezone.utc)
            base = days[day] = int(when.timestamp())
        return base + int(frame_ms) // 1000

    return seconds


# format -> (delimiter, columns, times).  The columns are the session, item,
# category and time fields: positions in the headerless yoochoose, header names
# otherwise.  ``times()`` makes a file's reader from its time field (a tuple of
# fields for diginetica) to epoch seconds; a reader caches what it has parsed.
_LAYOUTS = {
    "yoochoose": (",", (0, 2, 3, 1), _yoochoose_times),
    "diginetica": (";", ("sessionId", "itemId", "categoryId", "timeframe", "eventdate"),
                   _diginetica_times),
    "generic": (",", ("session_id", "item_id", "category", "timestamp"),
                lambda: lambda ts: int(float(ts))),
}
FORMATS = tuple(_LAYOUTS)


@dataclass(frozen=True, eq=False)
class ClickLog(SequenceABC):
    """A click log in columns, one entry per kept row, in file order.

    ``sessions``, ``items`` and ``categories`` are intp codes into
    ``session_ids``, ``item_ids`` and ``category_ids`` (-1: no category), and
    ``times`` holds int64 epoch seconds.  Indexed, it reads back as
    :class:`ClickEvent` objects.
    """

    session_ids: List[str]
    item_ids: List[str]
    category_ids: List[str]
    sessions: np.ndarray
    items: np.ndarray
    categories: np.ndarray
    times: np.ndarray

    @classmethod
    def from_events(cls, events: Iterable[ClickEvent]) -> "ClickLog":
        columns = _Columns()
        for ev in events:
            columns.add(ev.session_id, ev.item_id, ev.timestamp, ev.category)
        return columns.log()

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, i: int) -> ClickEvent:
        cat = self.categories[i]
        return ClickEvent(self.session_ids[self.sessions[i]], self.item_ids[self.items[i]],
                          int(self.times[i]), None if cat < 0 else self.category_ids[cat])


class _Columns:
    """Rows of a :class:`ClickLog` as they are read: ids interned, codes appended."""

    def __init__(self):
        self.sessions: Dict[str, int] = {}
        self.items: Dict[str, int] = {}
        self.categories: Dict[str, int] = {}
        self.rows = array("q")  # time, session, item and category code of each row

    def add(self, session: str, item: str, timestamp: int, category: Optional[str]) -> None:
        """Append one click; an empty id or a time outside (0, 2**63) raises ``ValueError``."""
        if not (session and item and 0 < timestamp < 2**63):
            raise ValueError(f"malformed click: {session!r}, {item!r}, {timestamp!r}")
        sessions, items, categories = self.sessions, self.items, self.categories
        s = sessions.get(session)
        if s is None:
            s = sessions[session] = len(sessions)
        i = items.get(item)
        if i is None:
            i = items[item] = len(items)
        c = -1 if category is None else categories.get(category)
        if c is None:
            c = categories[category] = len(categories)
        self.rows.extend((timestamp, s, i, c))

    def log(self) -> ClickLog:
        times, sessions, items, categories = np.frombuffer(self.rows, np.int64).reshape(-1, 4).T
        return ClickLog(list(self.sessions), list(self.items), list(self.categories),
                        sessions.astype(np.intp), items.astype(np.intp),
                        categories.astype(np.intp), times.copy())


def parse_clicklog(path, format: str) -> ClickLog:
    """Read one click log; malformed rows are counted and skipped.

    More than 50% malformed rows is a hard error, as is an unknown format.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}, expected one of {FORMATS}")
    delimiter, columns, times = _LAYOUTS[format]
    timestamp = times()

    clicks = _Columns()
    add = clicks.add
    skipped = 0
    total = 0
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh, delimiter=delimiter)
        if format != "yoochoose":
            # the last of duplicate names wins, as in csv.DictReader; a missing
            # column's position is None, so every row fails on it (TypeError)
            header = {name: i for i, name in enumerate(next(rows, []))}
            columns = [header.get(name) for name in columns]
        sid, item, cat, *when = columns
        time_fields = itemgetter(*when)
        for row in rows:
            if not row:
                continue
            total += 1
            try:
                category = row[cat] if cat is not None and cat < len(row) else None
                add(row[sid].strip(), row[item].strip(), timestamp(time_fields(row)),
                    (category or "").strip() or None)
            # OverflowError: a generic time of inf, -inf or 1e309
            except (IndexError, OverflowError, TypeError, ValueError):
                skipped += 1

    if total == 0:
        log.warning("%s: empty click log", path)
    elif skipped:
        log.warning("%s: skipped %d of %d malformed rows", path, skipped, total)
        if skipped > 0.5 * total:
            raise ValueError(f"{path}: {skipped}/{total} rows malformed")
    return clicks.log()


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------

@dataclass
class DatasetSplit:
    train: List[SessionRecord]
    test: List[SessionRecord]
    item_vocabulary: Dict[str, int]
    category_map: Optional[Dict[str, int]] = None


@dataclass
class _Grouped:
    """A click log's code columns with each session's rows together, in time
    order and, among equal times, in file order."""

    session: np.ndarray
    item: np.ndarray
    time: np.ndarray
    n_sessions: int
    n_items: int

    def rows_of(self, chosen: np.ndarray, alive: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The ``alive`` rows of the ``chosen`` sessions, session by session
        in that order, and how many each has."""
        rows = np.flatnonzero(alive)
        counts = np.bincount(self.session[rows], minlength=self.n_sessions)
        starts = np.cumsum(counts) - counts  # where each session's rows begin in ``rows``
        n = counts[chosen]
        to = np.cumsum(n) - n  # and where they go
        return rows[np.arange(n.sum()) + np.repeat(starts[chosen] - to, n)], n

    def filter_fixed_point(self, alive: np.ndarray, min_session_len: int,
                           min_item_freq: int) -> np.ndarray:
        """Drop short sessions and rare items until neither rule drops a row."""
        while True:
            short = np.bincount(self.session[alive], minlength=self.n_sessions) < min_session_len
            alive = alive & ~short[self.session]
            rare = np.bincount(self.item[alive], minlength=self.n_items) < min_item_freq
            dropped = alive & rare[self.item]
            if not dropped.any():
                return alive
            alive = alive & ~dropped

    def vocab_and_test(self, train: np.ndarray, test: np.ndarray,
                       alive: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``train``'s items in first-seen order, and the ``test`` sessions they cover."""
        rows, _ = self.rows_of(train, alive)
        first = _first_rows(self.item[rows], self.n_items)
        seen = np.flatnonzero(first < len(rows))
        vocab = seen[np.argsort(first[seen])]
        known = np.zeros(self.n_items, bool)
        known[vocab] = True
        uncovered = np.zeros(self.n_sessions, bool)
        uncovered[self.session[alive & ~known[self.item]]] = True
        return vocab, test[~uncovered[test]]


def preprocess(
    events: Sequence[ClickEvent],
    min_session_len: int = 2,
    min_item_freq: int = 5,
    *,
    test_window_seconds: int,
    fraction: Optional[float] = None,
) -> DatasetSplit:
    """Group, filter, and split by the trailing time window, whose length
    ``test_window_seconds`` every caller sets.

    ``events`` is a :class:`ClickLog` or a sequence of :class:`ClickEvent`;
    ``min_session_len`` is at least 1.  The filter/split/vocabulary stage is
    iterated to a global fixed point, so reapplying preprocess to its own
    output is a no-op.  ``fraction`` (e.g. 1/64) then keeps only the most
    recent share of training sessions and rebuilds the vocabulary.
    """
    if min_session_len < 1:
        raise ValueError(f"min_session_len must be at least 1, got {min_session_len}")
    clicks = events if isinstance(events, ClickLog) else ClickLog.from_events(events)
    if not len(clicks):
        raise ValueError("no events to preprocess")

    # by session, then time; lexsort is stable, so equal times keep file order
    order = np.lexsort((clicks.times, clicks.sessions))
    g = _Grouped(clicks.sessions[order], clicks.items[order], clicks.times[order],
                 len(clicks.session_ids), len(clicks.item_ids))
    by_id = sorted(range(g.n_sessions), key=clicks.session_ids.__getitem__)
    id_rank = np.empty(g.n_sessions, np.intp)
    id_rank[by_id] = np.arange(g.n_sessions)

    # A round only removes events (and the sessions it empties): one that keeps
    # the event count is the fixed point.  (end time, id) is a total order, so
    # the train sessions are a prefix and the input order does not matter.
    alive = np.ones(len(order), bool)
    n_events = len(order)
    while True:
        alive = g.filter_fixed_point(alive, min_session_len, min_item_freq)
        rows = np.flatnonzero(alive)
        if not rows.size:
            raise ValueError(
                f"preprocessing removed everything (min_len={min_session_len}, "
                f"min_freq={min_item_freq})"
            )
        # a session's last row holds its end time
        last = rows[np.append(g.session[rows[1:]] != g.session[rows[:-1]], True)]
        present, end = g.session[last], g.time[last]
        by_end = np.lexsort((id_rank[present], end))
        sessions, end = present[by_end], end[by_end]
        # the boundary as a Python number, which no window can overflow
        n_train = int(np.count_nonzero(end <= int(end[-1]) - test_window_seconds))
        if not n_train:
            raise ValueError(
                f"empty training split: all {len(sessions)} sessions end within the "
                f"final {test_window_seconds}s window"
            )
        train = sessions[:n_train]
        vocab, test = g.vocab_and_test(train, sessions[n_train:], alive)
        kept = np.zeros(g.n_sessions, bool)
        kept[train] = kept[test] = True
        alive &= kept[g.session]
        n_kept = np.count_nonzero(alive)
        if n_kept == n_events:
            break
        n_events = n_kept

    if fraction is not None:
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction {fraction} outside (0, 1]")
        keep = max(1, int(round(len(train) * fraction)))
        train = train[-keep:]
        vocab, test = g.vocab_and_test(train, test, alive)

    if not len(test):
        raise ValueError("empty test split after vocabulary filtering")

    item_ids = clicks.item_ids
    vocab_ids = [item_ids[i] for i in vocab.tolist()]
    cat_map = None
    if (clicks.categories >= 0).any():
        categories = _first_categories(clicks, vocab)
        cats_present = sorted(set(categories.values()))
        cat_index = {c: i for i, c in enumerate(cats_present)}
        cat_map = {it: cat_index[c] for it, c in categories.items()}
        if len(cat_map) < len(vocab_ids):
            # items without a known category get a shared bucket
            bucket = len(cat_index)
            for it in vocab_ids:
                cat_map.setdefault(it, bucket)

    def records(chosen: np.ndarray) -> List[SessionRecord]:
        rows, counts = g.rows_of(chosen, alive)
        pairs = list(zip([item_ids[i] for i in g.item[rows].tolist()], g.time[rows].tolist()))
        ends = np.cumsum(counts).tolist()
        return [SessionRecord(clicks.session_ids[s], pairs[a:b])
                for s, a, b in zip(chosen.tolist(), [0] + ends[:-1], ends)]

    return DatasetSplit(
        train=records(train),
        test=records(test),
        item_vocabulary={it: i for i, it in enumerate(vocab_ids)},
        category_map=cat_map,
    )


def _first_rows(codes: np.ndarray, n_codes: int) -> np.ndarray:
    """Where each code first occurs in ``codes``; ``len(codes)`` if nowhere."""
    first = np.full(n_codes, len(codes))
    np.minimum.at(first, codes, np.arange(len(codes)))
    return first


def _first_categories(clicks: ClickLog, vocab: np.ndarray) -> Dict[str, str]:
    """Each ``vocab`` item's category on its first row that has one, in
    vocabulary order; items never seen with a category are left out."""
    labelled = np.flatnonzero(clicks.categories >= 0)
    first = _first_rows(clicks.items[labelled], len(clicks.item_ids))[vocab]
    found = first < len(labelled)
    categories = clicks.categories[labelled[first[found]]]
    return {clicks.item_ids[i]: clicks.category_ids[c]
            for i, c in zip(vocab[found].tolist(), categories.tolist())}


def split_to_events(split: DatasetSplit) -> List[ClickEvent]:
    """Flatten a split back into click events (for idempotence checks)."""
    out = []
    for rec in split.train + split.test:
        for item, ts in rec.events:
            out.append(ClickEvent(rec.session_id, item, ts))
    return out


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

@dataclass
class SyntheticDataset:
    records: List[SessionRecord]
    items: List[str]
    transition: np.ndarray  # (n_items, n_items) planted next-item probabilities
    preferred: Dict[int, List[int]]


def generate_synthetic(
    n_items: int,
    n_sessions: int,
    seed: int,
    interval_signal: bool = False,
) -> SyntheticDataset:
    """Seeded first-order Markov sessions with a sparse planted structure.

    Every item has 3 preferred successors sharing probability mass 0.8; the
    remaining 0.2 is uniform over the other items.  Session lengths are
    uniform in [3, 10].  With ``interval_signal`` preferred transitions take
    10-60s and the rest 600-3600s, planting a timing cue; otherwise all
    transitions take 10-3600s.
    """
    if n_items < 5:
        raise ValueError("need at least 5 items")
    if n_sessions < 1:
        raise ValueError("need at least 1 session")

    rng = np.random.default_rng(seed)
    items = [f"item{i:04d}" for i in range(n_items)]

    transition = np.zeros((n_items, n_items))
    preferred: Dict[int, List[int]] = {}
    for i in range(n_items):
        others = [j for j in range(n_items) if j != i]
        favs = sorted(rng.choice(others, size=3, replace=False).tolist())
        preferred[i] = favs
        rest = [j for j in range(n_items) if j not in favs]
        transition[i, rest] = 0.2 / len(rest)
        transition[i, favs] = 0.8 / 3

    base_time = 1_000_000
    records: List[SessionRecord] = []
    for s in range(n_sessions):
        length = int(rng.integers(3, 11))
        cur = int(rng.integers(n_items))
        t = base_time + s * 3600
        events = [(items[cur], t)]
        for _ in range(length - 1):
            nxt = int(rng.choice(n_items, p=transition[cur]))
            if interval_signal:
                lo, hi = (10, 60) if nxt in preferred[cur] else (600, 3600)
            else:
                lo, hi = 10, 3600
            t += int(rng.integers(lo, hi + 1))
            events.append((items[nxt], t))
            cur = nxt
        records.append(SessionRecord(f"s{s:06d}", events))
    return SyntheticDataset(records=records, items=items,
                            transition=transition, preferred=preferred)


# ---------------------------------------------------------------------------
# on-disk split format
# ---------------------------------------------------------------------------

def write_sessions(path, records: Sequence[SessionRecord]) -> None:
    """Write one ``session_id,item_id,timestamp`` row per event."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["session_id", "item_id", "timestamp"])
        for rec in records:
            for item, ts in rec.events:
                w.writerow([rec.session_id, item, ts])


def save_split(split: DatasetSplit, outdir) -> None:
    """Write train/test session CSVs plus the vocabulary file."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_sessions(outdir / "train_sessions.csv", split.train)
    write_sessions(outdir / "test_sessions.csv", split.test)
    with open(outdir / "vocabulary.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        header = ["item_id", "index"]
        if split.category_map is not None:
            header.append("category_index")
        w.writerow(header)
        for item, idx in sorted(split.item_vocabulary.items(), key=lambda kv: kv[1]):
            row = [item, idx]
            if split.category_map is not None:
                row.append(split.category_map[item])
            w.writerow(row)


def _read_sessions(path) -> List[SessionRecord]:
    by_session: Dict[str, List[Tuple[str, int]]] = {}
    order: List[str] = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            sid = row["session_id"]
            if sid not in by_session:
                by_session[sid] = []
                order.append(sid)
            by_session[sid].append((row["item_id"], int(row["timestamp"])))
    return [SessionRecord(sid, by_session[sid]) for sid in order]


def load_split(outdir) -> DatasetSplit:
    outdir = Path(outdir)
    vocab: Dict[str, int] = {}
    cat_map: Optional[Dict[str, int]] = None
    with open(outdir / "vocabulary.csv", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        has_cat = "category_index" in (reader.fieldnames or [])
        if has_cat:
            cat_map = {}
        for row in reader:
            vocab[row["item_id"]] = int(row["index"])
            if has_cat:
                cat_map[row["item_id"]] = int(row["category_index"])
    return DatasetSplit(
        train=_read_sessions(outdir / "train_sessions.csv"),
        test=_read_sessions(outdir / "test_sessions.csv"),
        item_vocabulary=vocab,
        category_map=cat_map,
    )
