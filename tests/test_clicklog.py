"""The one row loop of ``parse_clicklog`` and the fixed point of
``preprocess``: malformed-row rules in each format, and properties that
compare both with the code they replaced (``clicklog_oracle.py``)."""

import csv
import io
import logging

import pytest
from hypothesis import example, given, settings, strategies as st

import clicklog_oracle as oracle
from hypersess import data
from hypersess.data import ClickEvent, parse_clicklog, preprocess


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


# ---------------------------------------------------------------------------
# malformed rows: a short row and a whitespace-only row are skipped and
# counted in every format; a blank line is not a row
# ---------------------------------------------------------------------------

MALFORMED = {
    "generic": ("g.csv",
                "session_id,item_id,timestamp\n"
                "1,a,100\n"
                "1,b,200\n"
                "2\n"
                "   \n"
                "\n"
                "2,c,300\n"
                "2,d,400\n"),
    "yoochoose": ("y.dat",
                  "1,2014-04-07T10:51:09.277Z,a\n"
                  "1,2014-04-07T10:52:09Z,b\n"
                  "2\n"
                  "   \n"
                  "\n"
                  "2,2014-04-07T10:53:09Z,c\n"
                  "2,2014-04-07T10:54:09Z,d\n"),
    "diginetica": ("d.csv",
                   "sessionId;userId;itemId;timeframe;eventdate\n"
                   "1;NA;a;1000;2016-05-09\n"
                   "1;NA;b;2000;2016-05-09\n"
                   "2\n"
                   "   \n"
                   "\n"
                   "2;NA;c;3000;2016-05-09\n"
                   "2;NA;d;4000;2016-05-09\n"),
}


@pytest.mark.parametrize("fmt", sorted(MALFORMED))
def test_short_and_blank_rows(tmp_path, caplog, fmt):
    p = write(tmp_path, *MALFORMED[fmt])
    events = parse_clicklog(p, fmt)
    assert [(e.session_id, e.item_id) for e in events] == [
        ("1", "a"), ("1", "b"), ("2", "c"), ("2", "d")]
    assert f"{p}: skipped 2 of 6 malformed rows" in caplog.text


@pytest.mark.parametrize("fmt", sorted(MALFORMED))
def test_len_is_the_number_of_rows_kept(tmp_path, fmt):
    clicks = parse_clicklog(write(tmp_path, *MALFORMED[fmt]), fmt)
    assert len(clicks) == len(list(clicks)) == 4


def test_category_is_optional(tmp_path):
    p = write(tmp_path, "g.csv", "session_id,item_id,timestamp,category\ns1,a,100\ns1,b,200,c7\n")
    assert list(parse_clicklog(p, "generic")) == [ClickEvent("s1", "a", 100), ClickEvent("s1", "b", 200, "c7")]


def test_missing_required_column_makes_every_row_malformed(tmp_path):
    p = write(tmp_path, "d.csv", "sessionId;userId;itemId;timeframe\n1;NA;a;1000\n1;NA;b;2000\n")
    with pytest.raises(ValueError, match="2/2 rows malformed"):
        parse_clicklog(p, "diginetica")


def test_duplicate_header_name_last_wins(tmp_path):
    p = write(tmp_path, "g.csv", "session_id,item_id,timestamp,item_id\ns1,a,100,b\ns1,a,200\n")
    assert [e.item_id for e in parse_clicklog(p, "generic")] == ["b"]


@pytest.mark.parametrize("when", ["inf", "-inf", "1e309"])
def test_non_finite_generic_time_is_malformed(tmp_path, caplog, when):
    p = write(tmp_path, "g.csv", f"session_id,item_id,timestamp\ns1,a,100\ns1,b,{when}\n")
    assert list(parse_clicklog(p, "generic")) == [ClickEvent("s1", "a", 100)]
    assert f"{p}: skipped 1 of 2 malformed rows" in caplog.text


@pytest.mark.parametrize("when", ["1e19", "9223372036854775808"])
def test_generic_time_beyond_64_bits_is_malformed(tmp_path, caplog, when):
    p = write(tmp_path, "g.csv", f"session_id,item_id,timestamp\ns1,a,100\ns1,b,{when}\n")
    assert list(parse_clicklog(p, "generic")) == [ClickEvent("s1", "a", 100)]
    assert f"{p}: skipped 1 of 2 malformed rows" in caplog.text


def test_diginetica_date_is_stripped(tmp_path):
    p = write(tmp_path, "d.csv", "sessionId;userId;itemId;timeframe;eventdate\n"
                                 "1;NA;a;1000; 2016-05-09\n"
                                 "1;NA;b;2000;2016-05-09 \n")
    day = 1462752000  # 2016-05-09T00:00:00Z
    assert list(parse_clicklog(p, "diginetica")) == [ClickEvent("1", "a", day + 1),
                                                     ClickEvent("1", "b", day + 2)]


# ---------------------------------------------------------------------------
# parse_clicklog against the oracle
# ---------------------------------------------------------------------------

DELIMITER = {"yoochoose": ",", "diginetica": ";", "generic": ","}
HEADERS = {
    "generic": [
        ["session_id", "item_id", "timestamp"],
        ["session_id", "item_id", "timestamp", "category"],
        ["timestamp", "category", "item_id", "session_id"],
        ["session_id", "item_id", "timestamp", "item_id"],
        ["session_id", "item_id", "time"],
    ],
    # the oracle's diginetica loop still crashes on a short row whose
    # sessionId or itemId is missing, so that format keeps its column order
    "diginetica": [
        ["sessionId", "userId", "itemId", "timeframe", "eventdate"],
        ["sessionId", "userId", "itemId", "timeframe", "eventdate", "categoryId"],
        ["sessionId", "userId", "itemId", "timeframe"],
    ],
}

# Most rows are well formed, so that most logs parse; a messy row draws its
# values from the malformed ones too, and may lose or gain fields.
good_ids = st.sampled_from(["s1", "s2", "42", "é", "日本", " s1 ", "\u3000x\xa0", "a,b", "a;b",
                            'q"t', "two\nlines"])
ids = st.one_of(good_ids, st.sampled_from(["", "  "]), st.text(alphabet="ab1 ,;\"é\t", max_size=4))
categories = st.sampled_from(["c1", " c2 ", "", "  ", "0", "ü"])
# The time values a row draws, module-level so that
# test_each_listed_time_matches_oracle writes every one of them.  A
# diginetica time is a (timeframe, eventdate) pair, drawn from two lists.
GOOD_TIMES = {
    "generic": ["100", "1e3", " 250 ", "100.9"],  # and the integers 1-5
    "yoochoose": ["2014-04-07T10:51:09.277Z", "2014-04-07T10:51:09Z", "2014-04-07T10:52:00.999Z",
                  " 2014-04-07T10:52:00Z ", "2014-4-7T10:51:09.277Z", "２０１４-04-07T10:51:09Z"],
    "diginetica": ([" 1000 "], ["2016-05-09", "2016-05-10"]),  # and the timeframes 0-5000
}
BAD_TIMES = {
    "generic": ["0", "-3", "0.5", "abc", "", "nan", "inf", "\u0661\u0660\u0660", "1_000"],
    "yoochoose": ["1970-01-01T00:00:00Z", "0001-01-01T00:00:00Z", "2014-04-07 10:51:09",
                  "yesterday", "", "2014-04-07T10:51:09.2771234Z", "2014-04-07T10:51:60Z",
                  "2014-02-30T10:51:09Z", "2014-04-07T10:51:09.Z", "+2014-04-07T10:51:09Z"],
    "diginetica": (["-2000000", "soon", "", "1.5", "1000"],
                   ["2016-05-09", " 2016-05-09", "1970-01-01", "2016-02-30", "09/05/2016", ""]),
}
good_times = {
    "generic": st.one_of(st.integers(1, 5).map(str), st.sampled_from(GOOD_TIMES["generic"])),
    "yoochoose": st.sampled_from(GOOD_TIMES["yoochoose"]),
    "diginetica": st.tuples(st.one_of(st.integers(0, 5000).map(str),
                                      st.sampled_from(GOOD_TIMES["diginetica"][0])),
                            st.sampled_from(GOOD_TIMES["diginetica"][1])),
}
bad_times = {
    "generic": st.sampled_from(BAD_TIMES["generic"]),
    "yoochoose": st.sampled_from(BAD_TIMES["yoochoose"]),
    "diginetica": st.tuples(*map(st.sampled_from, BAD_TIMES["diginetica"])),
}


@st.composite
def fields(draw, fmt, header, messy):
    """One row's fields in column order."""
    sid, item = (draw(ids), draw(ids)) if messy else (draw(good_ids), draw(good_ids))
    cat = draw(categories)
    when = draw(st.one_of(good_times[fmt], bad_times[fmt]) if messy else good_times[fmt])
    if fmt == "yoochoose":
        return [sid, when, item] + ([cat] if draw(st.booleans()) else [])
    if fmt == "generic":
        values = {"session_id": sid, "item_id": item, "timestamp": when, "time": when,
                  "category": cat}
    else:
        values = {"sessionId": sid, "userId": "NA", "itemId": item, "timeframe": when[0],
                  "eventdate": when[1], "categoryId": cat}
    return [values[name] for name in header]


@st.composite
def clicklogs(draw, fmt):
    header = draw(st.sampled_from(HEADERS[fmt])) if fmt in HEADERS else None
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        messy = draw(st.sampled_from([False, False, False, True]))
        row = draw(fields(fmt, header, messy))
        if messy:
            row = row[:draw(st.sampled_from([None, 0, 1, 2, -1]))]
            row += draw(st.lists(st.sampled_from(["x", "", " 9 "]), max_size=2))
        # a row of no fields is a blank line, which only the oracle's
        # yoochoose loop counts; that is the one intended difference
        if fmt == "yoochoose" and not row:
            row = [""]
        rows.append(row)
    out = io.StringIO(newline="")
    w = csv.writer(out, delimiter=DELIMITER[fmt])
    if header is not None:
        w.writerow(header)
    w.writerows(rows)
    return out.getvalue()


class Warnings(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def outcome(fn, *args, **kwargs):
    """``fn``'s result, or the type and text of what it raised, with the
    warnings it logged."""
    handler = Warnings()
    loggers = [logging.getLogger("hypersess.data"), logging.getLogger(oracle.__name__)]
    for lg in loggers:
        lg.addHandler(handler)
    try:
        result = fn(*args, **kwargs)
    except Exception as e:  # compared, not swallowed
        result = (type(e), str(e))
    finally:
        for lg in loggers:
            lg.removeHandler(handler)
    return result, handler.messages


def around(edges, lo, hi):
    """Integers in [lo, hi], or one of the ``edges`` just in or out of range."""
    return st.one_of(st.sampled_from(edges), st.integers(lo, hi))


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(year=around([0, 1, 1969, 1970, 2014, 9999], 0, 9999), month=around([0, 2, 12, 13], 1, 12),
       day=around([0, 28, 29, 30, 31, 32], 1, 28), hour=around([0, 23, 24], 0, 23),
       minute=around([0, 59, 60], 0, 59), second=around([0, 59, 60, 61], 0, 59),
       tail=st.sampled_from(["Z", ".000Z", ".277Z", ".999Z", ".5Z", ".27Z", ".999999Z",
                             ".2771234Z", ".Z", "", "z", ".277z", ".27a", ".٢٧٧Z", ".277ZZ"]))
@example(year=2014, month=4, day=7, hour=10, minute=51, second=60, tail="Z")
@example(year=2014, month=2, day=30, hour=10, minute=51, second=9, tail=".277Z")
@example(year=1969, month=12, day=31, hour=23, minute=59, second=59, tail=".500Z")
def test_yoochoose_time_matches_strptime(year, month, day, hour, minute, second, tail):
    """The sliced reader gives _parse_iso_utc's seconds, or its error, on
    fixed-width times with any field in or out of range."""
    text = f"{year:04d}-{month:02d}-{day:02d}T{hour:02d}:{minute:02d}:{second:02d}{tail}"
    assert outcome(data._yoochoose_times(), text) == outcome(data._parse_iso_utc, text)


@pytest.fixture(scope="module")
def log_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "clicks.csv"


@pytest.mark.parametrize("fmt", ["yoochoose", "diginetica", "generic"])
@settings(max_examples=250, deadline=None, derandomize=True)
@given(data=st.data())
def test_parse_matches_oracle(log_path, fmt, data):
    log_path.write_bytes(data.draw(clicklogs(fmt)).encode("utf-8"))
    assert outcome(lambda *a: list(parse_clicklog(*a)), log_path, fmt) == \
        outcome(oracle.parse_clicklog, log_path, fmt)


# ---------------------------------------------------------------------------
# preprocess against the oracle
# ---------------------------------------------------------------------------

click_events = st.lists(
    st.builds(ClickEvent,
              session_id=st.sampled_from([f"s{i}" for i in range(10)]),
              item_id=st.sampled_from([f"i{i}" for i in range(5)]),
              timestamp=st.integers(1, 200),
              category=st.sampled_from([None, None, "c0", "c1"])),
    min_size=20, max_size=80)


def split_view(result):
    """A split as plain lists, so that the vocabulary and category orders
    count in the comparison."""
    if isinstance(result, tuple):
        return result
    return (result.train, result.test, list(result.item_vocabulary.items()),
            None if result.category_map is None else list(result.category_map.items()))


@settings(max_examples=250, deadline=None, derandomize=True)
@given(events=click_events, min_len=st.integers(1, 3), min_freq=st.integers(1, 5),
       window=st.integers(0, 80), fraction=st.sampled_from([None, 0.5, 1 / 64]))
def test_preprocess_matches_oracle(events, min_len, min_freq, window, fraction):
    kw = dict(min_session_len=min_len, min_item_freq=min_freq,
              test_window_seconds=window, fraction=fraction)
    (new, _), (old, _) = outcome(preprocess, events, **kw), outcome(oracle.preprocess, events, **kw)
    assert split_view(new) == split_view(old)


def assert_plain(split):
    """Only built-in ``str`` and ``int`` in a split: ``==`` would not tell
    an ``np.int64`` or ``np.str_`` from them."""
    for rec in split.train + split.test:
        assert type(rec.session_id) is str
        assert all(type(item) is str and type(ts) is int for item, ts in rec.events)
    for mapping in (split.item_vocabulary, split.category_map or {}):
        assert all(type(k) is str and type(v) is int for k, v in mapping.items())


@pytest.mark.parametrize("fmt", ["yoochoose", "diginetica", "generic"])
def test_parsed_split_holds_plain_values(tmp_path, fmt):
    starts = [1_000 + 600 * s for s in range(6)] + [90_000]
    rows = [(f"s{s}", "abc"[(s + k) % 3], start + k) for s, start in enumerate(starts)
            for k in range(3)]
    text = {
        "generic": "session_id,item_id,timestamp,category\n"
                   + "".join(f"{s},{it},{t},c{it}\n" for s, it, t in rows),
        "yoochoose": "".join(f"{s},2014-04-{7 + t // 86400:02d}T{t % 86400 // 3600:02d}:"
                             f"{t % 3600 // 60:02d}:{t % 60:02d}.277Z,{it},0\n"
                             for s, it, t in rows),
        "diginetica": "sessionId;userId;itemId;timeframe;eventdate;categoryId\n"
                      + "".join(f"{s};NA;{it};{t * 1000};2014-04-07;{it}\n" for s, it, t in rows),
    }[fmt]
    split = preprocess(parse_clicklog(write(tmp_path, "log.txt", text), fmt), min_item_freq=1,
                       test_window_seconds=3600)
    assert [r.session_id for r in split.test] == ["s6"]
    assert_plain(split)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(events=click_events, window=st.integers(0, 80))
def test_preprocessed_events_hold_plain_values(events, window):
    try:
        split = preprocess(events, min_session_len=1, min_item_freq=1,
                           test_window_seconds=window)
    except ValueError:
        return
    assert_plain(split)


def test_equal_times_keep_file_order(tmp_path):
    p = write(tmp_path, "g.csv", "session_id,item_id,timestamp\n"
                                 "s1,c,100\ns2,a,10000\ns1,a,100\ns1,b,100\ns1,a,90\n"
                                 "s2,b,10000\n")
    split = preprocess(parse_clicklog(p, "generic"), min_item_freq=1, test_window_seconds=3600)
    assert split.train[0].events == [("a", 90), ("c", 100), ("a", 100), ("b", 100)]
    assert split.test[0].events == [("a", 10000), ("b", 10000)]
    assert list(split.item_vocabulary) == ["a", "c", "b"]


def _listed_times():
    """(format, time) for every listed value; a diginetica timeframe comes
    with a valid eventdate and an eventdate with a valid timeframe."""
    out = []
    for times in (GOOD_TIMES, BAD_TIMES):
        out += [("generic", t) for t in times["generic"]]
        out += [("yoochoose", t) for t in times["yoochoose"]]
        frames, dates = times["diginetica"]
        out += [("diginetica", (f, "2016-05-09")) for f in frames]
        out += [("diginetica", ("1000", d)) for d in dates]
    return out


@pytest.mark.parametrize("fmt,when", _listed_times())
def test_each_listed_time_matches_oracle(log_path, fmt, when):
    """Each listed value as the time of the middle row of a fixed 3-row log."""
    if fmt == "yoochoose":
        header, rows = None, [["1", t, item] for t, item in
                              (("2014-04-07T10:50:00Z", "a"), (when, "b"), ("2014-04-07T10:53:00Z", "c"))]
    elif fmt == "generic":
        header = ["session_id", "item_id", "timestamp"]
        rows = [["s1", "a", "50"], ["s1", "b", when], ["s1", "c", "300"]]
    else:
        header = ["sessionId", "userId", "itemId", "timeframe", "eventdate"]
        rows = [["1", "NA", "a", "500", "2016-05-09"], ["1", "NA", "b", *when],
                ["1", "NA", "c", "3000", "2016-05-09"]]
    out = io.StringIO(newline="")
    w = csv.writer(out, delimiter=DELIMITER[fmt])
    w.writerows(([header] if header else []) + rows)
    log_path.write_bytes(out.getvalue().encode("utf-8"))
    assert outcome(lambda *a: list(parse_clicklog(*a)), log_path, fmt) == \
        outcome(oracle.parse_clicklog, log_path, fmt)
