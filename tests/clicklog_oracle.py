"""The click-log parser and preprocessing as they were before the one row
loop, kept verbatim as an oracle for the property tests in
``test_clicklog.py``.

Three edits, each an intended difference from the old code that the row
loop shares:

- ``AttributeError`` joins the ``generic`` format's ``except`` tuple.
  Without it a short ``generic`` row (``s2`` under a three-column header)
  crashed with ``'NoneType' object has no attribute 'strip'``, where the
  other formats skip and count it.
- ``OverflowError`` joins it too.  Without it a ``generic`` time of ``inf``,
  ``-inf`` or ``1e309`` aborted the whole parse.
- The diginetica ``eventdate`` is stripped, as the other time fields are.

Blank lines are the one difference left: this ``yoochoose`` loop counts them
as malformed rows.
"""

from __future__ import annotations

import csv
import logging
from datetime import datetime, timezone
from typing import Dict, List, Optional, Sequence, Tuple

from hypersess.data import FORMATS, ClickEvent, DatasetSplit
from hypersess.graph import SessionRecord

log = logging.getLogger(__name__)

Session = Tuple[str, List[Tuple[str, int]]]  # (session_id, [(item, ts), ...])


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
                # intended difference: AttributeError and OverflowError were not caught
                except (AttributeError, KeyError, OverflowError, TypeError, ValueError):
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
                    # intended difference: the date was not stripped (a short
                    # row's None date fails in strptime, as it did unstripped)
                    day = datetime.strptime((row["eventdate"] or "").strip(), "%Y-%m-%d")
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
