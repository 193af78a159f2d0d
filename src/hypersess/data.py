"""Click-log ingestion, preprocessing/splitting, synthetic data.

Three input formats are supported: ``yoochoose`` (headerless
session,iso-time,item[,category]), ``diginetica`` (semicolon CSV with
sessionId/itemId/timeframe/eventdate columns) and ``generic`` (header-named
session_id,item_id,timestamp[,category], epoch seconds).  All identifiers are
handled as strings.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .graph import SessionRecord

log = logging.getLogger(__name__)

FORMATS = ("yoochoose", "diginetica", "generic")


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


def parse_clicklog(path, format: str) -> List[ClickEvent]:
    """Read one click log; malformed rows are counted and skipped.

    More than 50% malformed rows is a hard error, as is an unknown format.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}, expected one of {FORMATS}")

    events: List[ClickEvent] = []
    skipped = 0
    total = 0
    with open(path, newline="", encoding="utf-8") as fh:
        if format == "generic":
            reader = csv.DictReader(fh)
            for row in reader:
                total += 1
                try:
                    events.append(ClickEvent(
                        session_id=row["session_id"].strip(),
                        item_id=row["item_id"].strip(),
                        timestamp=int(float(row["timestamp"])),
                        category=(row.get("category") or "").strip() or None,
                    ))
                except (KeyError, TypeError, ValueError):
                    skipped += 1
        elif format == "yoochoose":
            for row in csv.reader(fh):
                total += 1
                try:
                    sid, ts, item = row[0], row[1], row[2]
                    cat = row[3].strip() if len(row) > 3 and row[3].strip() else None
                    events.append(ClickEvent(
                        session_id=sid.strip(),
                        item_id=item.strip(),
                        timestamp=_parse_iso_utc(ts.strip()),
                        category=cat,
                    ))
                except (IndexError, ValueError):
                    skipped += 1
        else:  # diginetica
            reader = csv.DictReader(fh, delimiter=";")
            for row in reader:
                total += 1
                try:
                    day = datetime.strptime(row["eventdate"], "%Y-%m-%d")
                    base = int(day.replace(tzinfo=timezone.utc).timestamp())
                    frame_ms = int(row["timeframe"])
                    events.append(ClickEvent(
                        session_id=row["sessionId"].strip(),
                        item_id=row["itemId"].strip(),
                        timestamp=base + frame_ms // 1000,
                        category=(row.get("categoryId") or "").strip() or None,
                    ))
                except (KeyError, TypeError, ValueError):
                    skipped += 1

    if total == 0:
        log.warning("%s: empty click log", path)
    elif skipped:
        log.warning("%s: skipped %d of %d malformed rows", path, skipped, total)
        if skipped > 0.5 * total:
            raise ValueError(f"{path}: {skipped}/{total} rows malformed")
    return events


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------

@dataclass
class DatasetSplit:
    train: List[SessionRecord]
    test: List[SessionRecord]
    item_vocabulary: Dict[str, int]
    category_map: Optional[Dict[str, int]] = None


Session = Tuple[str, List[Tuple[str, int]]]  # (session_id, [(item, ts), ...])


def _filter_fixed_point(
    sessions: List[Session], min_session_len: int, min_item_freq: int
) -> List[Session]:
    while True:
        sessions = [s for s in sessions if len(s[1]) >= min_session_len]
        counts: Dict[str, int] = {}
        for _, ev in sessions:
            for item, _ in ev:
                counts[item] = counts.get(item, 0) + 1
        rare = {it for it, c in counts.items() if c < min_item_freq}
        if not rare:
            return sessions
        sessions = [
            (sid, [(it, ts) for it, ts in ev if it not in rare])
            for sid, ev in sessions
        ]


def preprocess(
    events: Sequence[ClickEvent],
    min_session_len: int = 2,
    min_item_freq: int = 5,
    test_window_seconds: int = 86400,
    fraction: Optional[float] = None,
) -> DatasetSplit:
    """Group, filter, and split by the trailing time window.

    The filter/split/vocabulary stage is iterated to a global fixed point,
    so reapplying preprocess to its own output is a no-op.  ``fraction``
    (e.g. 1/64) then keeps only the most recent share of training sessions
    and rebuilds the vocabulary.
    """
    if not events:
        raise ValueError("no events to preprocess")

    by_session: Dict[str, List[Tuple[str, int]]] = {}
    categories: Dict[str, str] = {}
    for ev in events:
        by_session.setdefault(ev.session_id, []).append((ev.item_id, ev.timestamp))
        if ev.category is not None and ev.item_id not in categories:
            categories[ev.item_id] = ev.category
    sessions: List[Session] = [
        (sid, sorted(ev, key=lambda e: e[1])) for sid, ev in sorted(by_session.items())
    ]

    def split_once(sess: List[Session]):
        sess = _filter_fixed_point(sess, min_session_len, min_item_freq)
        if not sess:
            raise ValueError(
                f"preprocessing removed everything (min_len={min_session_len}, "
                f"min_freq={min_item_freq})"
            )
        t_max = max(ev[-1][1] for _, ev in sess)
        boundary = t_max - test_window_seconds
        train = [s for s in sess if s[1][-1][1] <= boundary]
        test = [s for s in sess if s[1][-1][1] > boundary]
        if not train:
            raise ValueError(
                f"empty training split: all {len(sess)} sessions end within the "
                f"final {test_window_seconds}s window"
            )
        train.sort(key=lambda s: (s[1][-1][1], s[0]))
        test.sort(key=lambda s: (s[1][-1][1], s[0]))
        vocab = _vocab_of(train)
        test = [s for s in test if all(it in vocab for it, _ in s[1])]
        return train, test, vocab

    prev_state = None
    while True:
        train, test, vocab = split_once(sessions)
        state = tuple((sid, tuple(ev)) for sid, ev in train + test)
        if state == prev_state:
            break
        prev_state = state
        sessions = train + test

    if fraction is not None:
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction {fraction} outside (0, 1]")
        keep = max(1, int(round(len(train) * fraction)))
        train = train[-keep:]
        vocab = _vocab_of(train)
        test = [s for s in test if all(it in vocab for it, _ in s[1])]

    if not test:
        raise ValueError("empty test split after vocabulary filtering")

    cat_map = None
    if categories:
        cats_present = sorted({categories[it] for it in vocab if it in categories})
        cat_index = {c: i for i, c in enumerate(cats_present)}
        cat_map = {it: cat_index[categories[it]] for it in vocab if it in categories}
        if len(cat_map) < len(vocab):
            # items without a known category get a shared bucket
            bucket = len(cat_index)
            for it in vocab:
                cat_map.setdefault(it, bucket)

    return DatasetSplit(
        train=[SessionRecord(sid, ev) for sid, ev in train],
        test=[SessionRecord(sid, ev) for sid, ev in test],
        item_vocabulary=vocab,
        category_map=cat_map,
    )


def _vocab_of(train: List[Session]) -> Dict[str, int]:
    vocab: Dict[str, int] = {}
    for _, ev in train:
        for item, _ in ev:
            if item not in vocab:
                vocab[item] = len(vocab)
    return vocab


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
