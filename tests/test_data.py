"""Click-log parsing, preprocessing, synthetic generation, serialization."""

import numpy as np
import pytest

from hypersess import data
from hypersess.data import ClickEvent, generate_synthetic, parse_clicklog, preprocess


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestParseGeneric:
    def test_three_rows(self, tmp_path):
        p = write(tmp_path, "g.csv",
                  "session_id,item_id,timestamp\ns1,a,100\ns1,b,160\ns2,a,200\n")
        events = parse_clicklog(p, "generic")
        assert len(events) == 3
        assert events[0] == ClickEvent("s1", "a", 100)

    def test_category_column(self, tmp_path):
        p = write(tmp_path, "g.csv",
                  "session_id,item_id,timestamp,category\ns1,a,100,c9\n")
        (ev,) = parse_clicklog(p, "generic")
        assert ev.category == "c9"

    def test_malformed_row_skipped(self, tmp_path):
        p = write(tmp_path, "g.csv",
                  "session_id,item_id,timestamp\ns1,a,100\ns1,b,notatime\ns1,c,200\n")
        events = parse_clicklog(p, "generic")
        assert [e.item_id for e in events] == ["a", "c"]

    def test_mostly_malformed_is_error(self, tmp_path):
        p = write(tmp_path, "g.csv",
                  "session_id,item_id,timestamp\ns1,a,x\ns1,b,y\ns1,c,300\n")
        with pytest.raises(ValueError):
            parse_clicklog(p, "generic")

    def test_empty_file(self, tmp_path):
        p = write(tmp_path, "g.csv", "session_id,item_id,timestamp\n")
        assert parse_clicklog(p, "generic") == []

    def test_unknown_format(self, tmp_path):
        p = write(tmp_path, "g.csv", "x\n")
        with pytest.raises(ValueError):
            parse_clicklog(p, "cobol")

    def test_unreadable(self, tmp_path):
        with pytest.raises(OSError):
            parse_clicklog(tmp_path / "missing.csv", "generic")


class TestParseOtherFormats:
    def test_yoochoose_iso_times(self, tmp_path):
        p = write(tmp_path, "y.dat",
                  "1,2014-04-07T10:51:09.277Z,214536502,0\n"
                  "1,2014-04-07T10:54:09.868Z,214536500,0\n")
        events = parse_clicklog(p, "yoochoose")
        assert [e.item_id for e in events] == ["214536502", "214536500"]
        assert events[1].timestamp - events[0].timestamp == 180

    def test_diginetica_semicolons(self, tmp_path):
        p = write(tmp_path, "d.csv",
                  "sessionId;userId;itemId;timeframe;eventdate\n"
                  "1;NA;81766;526309;2016-05-09\n"
                  "1;NA;31331;1031018;2016-05-09\n")
        events = parse_clicklog(p, "diginetica")
        assert [e.item_id for e in events] == ["81766", "31331"]
        assert events[1].timestamp - events[0].timestamp == 1031018 // 1000 - 526309 // 1000

    def test_yoochoose_malformed_rows_skipped_and_counted(self, tmp_path, caplog):
        p = write(tmp_path, "y.dat",
                  "1,2014-04-07T10:51:09.277Z,214536502,0\n"
                  "1,2014-04-07T10:52:09Z\n"
                  "1,yesterday,214536501\n"
                  "1,2014-04-07T10:54:09.868Z,214536500,0\n"
                  "2,2014-04-07T10:55:00Z,214536500\n")
        events = parse_clicklog(p, "yoochoose")
        assert [e.item_id for e in events] == ["214536502", "214536500", "214536500"]
        assert "skipped 2 of 5 malformed rows" in caplog.text

    def test_diginetica_malformed_rows_skipped_and_counted(self, tmp_path, caplog):
        p = write(tmp_path, "d.csv",
                  "sessionId;userId;itemId;timeframe;eventdate\n"
                  "1;NA;81766;526309;2016-05-09\n"
                  "1;NA;31331;soon;2016-05-09\n"
                  "1;NA;31332;1031018\n"
                  "2;NA;31331;1031018;2016-05-10\n")
        events = parse_clicklog(p, "diginetica")
        assert [e.item_id for e in events] == ["81766", "31331"]
        assert "skipped 2 of 4 malformed rows" in caplog.text


def ev(sid, item, ts, cat=None):
    return ClickEvent(sid, item, ts, cat)


class TestPreprocess:
    def test_short_sessions_dropped(self):
        # lengths 1, 2, 5 with min length 2 -> two survive
        events = (
            [ev("s1", "a", 100)]
            + [ev("s2", it, 200 + i) for i, it in enumerate("ab")]
            + [ev("s3", it, 100000 + i) for i, it in enumerate("ababa")]
        )
        split = preprocess(events, min_session_len=2, min_item_freq=1,
                           test_window_seconds=3600)
        ids = {r.session_id for r in split.train} | {r.session_id for r in split.test}
        assert ids == {"s2", "s3"}

    def test_rare_item_removed_everywhere(self):
        events = (
            [ev("s1", it, 100 + i) for i, it in enumerate("abab")]
            + [ev("s2", it, 90000 + i) for i, it in enumerate("abz")]
        )
        split = preprocess(events, min_session_len=2, min_item_freq=3,
                           test_window_seconds=3600)
        items = {it for r in split.train + split.test for it, _ in r.events}
        assert "z" not in items
        assert split.item_vocabulary.keys() == {"a", "b"}

    def test_toy_log_exact_split(self):
        # 5 sessions x 4 events; the last two sessions end within the final
        # window (boundary = 1,000,000 - 100,000 = 900,000; test iff later)
        base = [100, 200_000, 400_000, 899_999, 1_000_000 - 3]
        events = []
        for s, start in enumerate(base):
            for i in range(4):
                events.append(ev(f"s{s}", "abcd"[(s + i) % 4], start + i))
        split = preprocess(events, min_session_len=2, min_item_freq=1,
                           test_window_seconds=100_000)
        assert [r.session_id for r in split.train] == ["s0", "s1", "s2"]
        assert [r.session_id for r in split.test] == ["s3", "s4"]
        assert split.item_vocabulary.keys() == {"a", "b", "c", "d"}

    def test_unknown_test_items_drop_session(self):
        events = (
            [ev("s1", it, 100 + i) for i, it in enumerate("abab")]
            + [ev("s2", it, 50_000 + i) for i, it in enumerate("ab")]
            + [ev("s3", it, 50_100 + i) for i, it in enumerate("qq")]
        )
        split = preprocess(events, min_session_len=2, min_item_freq=2,
                           test_window_seconds=10_000)
        assert [r.session_id for r in split.test] == ["s2"]
        assert "q" not in split.item_vocabulary

    def test_items_without_category_share_a_bucket(self):
        cats = [("a", "x"), ("b", None), ("c", "w"), ("d", None)]
        events = ([ev("s1", it, 100 + i, cat) for i, (it, cat) in enumerate(cats)]
                  + [ev("s2", it, 90_000 + i) for i, it in enumerate("ab")])
        split = preprocess(events, min_session_len=2, min_item_freq=1,
                           test_window_seconds=3600)
        assert split.category_map == {"a": 1, "b": 2, "c": 0, "d": 2}

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        events = []
        for s in range(40):
            start = int(rng.integers(1000, 500_000))
            n = int(rng.integers(1, 8))
            t = start
            for _ in range(n):
                t += int(rng.integers(1, 400))
                events.append(ev(f"s{s:02d}", f"i{rng.integers(0, 12)}", t))
        split = preprocess(events, min_session_len=2, min_item_freq=3,
                           test_window_seconds=100_000)
        again = preprocess(data.split_to_events(split), min_session_len=2,
                           min_item_freq=3, test_window_seconds=100_000)
        assert [(r.session_id, r.events) for r in split.train] == \
               [(r.session_id, r.events) for r in again.train]
        assert [(r.session_id, r.events) for r in split.test] == \
               [(r.session_id, r.events) for r in again.test]
        assert split.item_vocabulary == again.item_vocabulary

    def test_vocabulary_bijection_and_order(self):
        events = [ev("s1", it, 100 + i) for i, it in enumerate("cabcab")] + \
                 [ev("s2", it, 90_000 + i) for i, it in enumerate("ba")]
        split = preprocess(events, min_session_len=2, min_item_freq=1,
                           test_window_seconds=3600)
        idx = sorted(split.item_vocabulary.values())
        assert idx == list(range(len(split.item_vocabulary)))

    def test_session_timestamps_nondecreasing(self):
        events = [ev("s1", "a", 300), ev("s1", "b", 100), ev("s1", "a", 200),
                  ev("s2", "b", 90_000), ev("s2", "a", 90_001)]
        split = preprocess(events, min_session_len=2, min_item_freq=1,
                           test_window_seconds=3600)
        for rec in split.train + split.test:
            times = [t for _, t in rec.events]
            assert times == sorted(times)

    def test_fraction_keeps_recent(self):
        events = []
        for s in range(64):
            events.append(ev(f"s{s:03d}", "a", 1000 + 100 * s))
            events.append(ev(f"s{s:03d}", "b", 1001 + 100 * s))
        events += [ev("t1", "a", 100_000), ev("t1", "b", 100_001)]
        split = preprocess(events, min_session_len=2, min_item_freq=1,
                           test_window_seconds=10_000, fraction=1 / 4)
        assert len(split.train) == 16  # round(64 * 0.25)
        # most recent training sessions kept
        assert split.train[0].session_id == "s048"

    def test_empty_events_rejected(self):
        with pytest.raises(ValueError):
            preprocess([])

    def test_all_filtered_is_hard_error(self):
        events = [ev("s1", "a", 100)]
        with pytest.raises(ValueError):
            preprocess(events, min_session_len=2, min_item_freq=1,
                       test_window_seconds=50)


class TestSynthetic:
    def test_deterministic(self):
        a = generate_synthetic(10, 20, seed=3, interval_signal=True)
        b = generate_synthetic(10, 20, seed=3, interval_signal=True)
        assert [(r.session_id, r.events) for r in a.records] == \
               [(r.session_id, r.events) for r in b.records]
        np.testing.assert_array_equal(a.transition, b.transition)

    def test_single_session_bounds(self):
        out = generate_synthetic(5, 1, seed=0)
        assert len(out.records) == 1
        assert 3 <= len(out.records[0].events) <= 10

    def test_transition_rows_are_distributions(self):
        out = generate_synthetic(12, 1, seed=1)
        np.testing.assert_allclose(out.transition.sum(axis=1), 1.0, atol=1e-12)
        for i, favs in out.preferred.items():
            assert len(favs) == 3 and i not in favs
            np.testing.assert_allclose(out.transition[i, favs], 0.8 / 3)

    def test_interval_signal_separates_means(self):
        out = generate_synthetic(20, 1000, seed=2, interval_signal=True)
        fast, slow = [], []
        idx = {it: i for i, it in enumerate(out.items)}
        for rec in out.records:
            for (a, ta), (b, tb) in zip(rec.events, rec.events[1:]):
                (fast if idx[b] in out.preferred[idx[a]] else slow).append(tb - ta)
        assert np.mean(fast) < np.mean(slow)
        assert max(fast) <= 60 and min(slow) >= 600

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            generate_synthetic(4, 10, seed=0)
        with pytest.raises(ValueError):
            generate_synthetic(10, 0, seed=0)


class TestSplitIO:
    def test_roundtrip(self, tmp_path):
        synth = generate_synthetic(8, 12, seed=4)
        split = data.DatasetSplit(
            train=synth.records[:9],
            test=synth.records[9:],
            item_vocabulary={it: i for i, it in enumerate(synth.items)},
        )
        data.save_split(split, tmp_path)
        loaded = data.load_split(tmp_path)
        assert [(r.session_id, r.events) for r in loaded.train] == \
               [(r.session_id, r.events) for r in split.train]
        assert loaded.item_vocabulary == split.item_vocabulary
        assert loaded.category_map is None

    def test_category_roundtrip(self, tmp_path):
        split = data.DatasetSplit(
            train=[data.SessionRecord("s1", [("a", 1), ("b", 2)])],
            test=[data.SessionRecord("s2", [("a", 5), ("b", 6)])],
            item_vocabulary={"a": 0, "b": 1},
            category_map={"a": 1, "b": 0},
        )
        data.save_split(split, tmp_path)
        loaded = data.load_split(tmp_path)
        assert loaded.category_map == {"a": 1, "b": 0}

    def test_byte_deterministic(self, tmp_path):
        synth = generate_synthetic(8, 12, seed=4)
        split = data.DatasetSplit(
            train=synth.records[:9], test=synth.records[9:],
            item_vocabulary={it: i for i, it in enumerate(synth.items)},
        )
        d1, d2 = tmp_path / "one", tmp_path / "two"
        data.save_split(split, d1)
        data.save_split(split, d2)
        for name in ("train_sessions.csv", "test_sessions.csv", "vocabulary.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
