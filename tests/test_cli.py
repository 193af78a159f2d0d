"""End-to-end command-line workflows."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hypersess
from hypersess.cli import build_parser, main, train_config


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("synthdata")
    assert run_cli("synth", "--items", "12", "--sessions", "40", "--seed", "5",
                   "--interval-signal", "--outdir", str(d)) == 0
    return d


@pytest.fixture(scope="module")
def checkpoint(synth_dir, tmp_path_factory):
    ck = tmp_path_factory.mktemp("ck") / "model.npz"
    assert run_cli("train", "--data", str(synth_dir), "--dim", "8", "--lr", "0.02",
                   "--epochs", "2", "--batch", "16", "--seed", "1",
                   "--checkpoint", str(ck)) == 0
    return ck


class TestSynth:
    def test_outputs_exist(self, synth_dir):
        for name in ("clicks.csv", "transitions.csv", "train_sessions.csv",
                      "test_sessions.csv", "vocabulary.csv"):
            assert (synth_dir / name).exists()

    def test_clicks_parse_as_generic(self, synth_dir):
        from hypersess.data import parse_clicklog
        events = parse_clicklog(synth_dir / "clicks.csv", "generic")
        assert len(events) >= 40 * 3


class TestPreprocessCommand:
    def test_generic_roundtrip(self, synth_dir, tmp_path):
        out = tmp_path / "prep"
        code = run_cli("preprocess", "--format", "generic",
                       "--input", str(synth_dir / "clicks.csv"),
                       "--outdir", str(out),
                       "--min-item-freq", "1", "--test-window-days", "0.5")
        assert code == 0
        assert (out / "vocabulary.csv").exists()

    def test_bad_input_nonzero_exit(self, tmp_path, capsys):
        code = run_cli("preprocess", "--format", "generic",
                       "--input", str(tmp_path / "nope.csv"),
                       "--outdir", str(tmp_path / "x"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


    def test_min_session_len_below_one_rejected(self, tmp_path, capsys):
        # s3 holds only rare items, so the item filter empties it
        clicks = tmp_path / "clicks.csv"
        clicks.write_text("session_id,item_id,timestamp\n"
                          "s1,a,100\ns1,b,200\ns2,a,300\ns2,b,400\ns3,x,500\ns3,y,600\n"
                          "s4,a,90000\ns4,b,90100\n")
        code = run_cli("preprocess", "--format", "generic", "--input", str(clicks),
                       "--outdir", str(tmp_path / "x"),
                       "--min-session-len", "0", "--min-item-freq", "2")
        assert code == 1
        assert capsys.readouterr().err == "error: min_session_len must be at least 1, got 0\n"

    @pytest.mark.parametrize("days", ["nan", "inf", "-1"])
    def test_test_window_days_finite_and_positive(self, synth_dir, tmp_path, capsys, days):
        code = run_cli("preprocess", "--format", "generic",
                       "--input", str(synth_dir / "clicks.csv"),
                       "--outdir", str(tmp_path / "x"), "--test-window-days", days)
        assert code == 1
        assert capsys.readouterr().err == \
            f"error: test_window_days must be finite and positive, got {float(days)}\n"


class TestTrainEvaluate:
    def test_evaluate_writes_report(self, synth_dir, checkpoint, tmp_path):
        report = tmp_path / "report.csv"
        code = run_cli("evaluate", "--checkpoint", str(checkpoint),
                       "--data", str(synth_dir), "--k", "5",
                       "--report", str(report))
        assert code == 0
        text = report.read_text()
        assert text.splitlines()[0] == "field,value"
        assert "mrr_at_k" in text and "wall" not in text

    def test_determinism_byte_identical_reports(self, synth_dir, tmp_path):
        reports = []
        for run in ("one", "two"):
            ck = tmp_path / f"{run}.npz"
            rp = tmp_path / f"{run}.csv"
            assert run_cli("train", "--data", str(synth_dir), "--dim", "8",
                           "--lr", "0.02", "--epochs", "2", "--batch", "16",
                           "--seed", "7", "--checkpoint", str(ck)) == 0
            assert run_cli("evaluate", "--checkpoint", str(ck),
                           "--data", str(synth_dir), "--k", "5",
                           "--report", str(rp)) == 0
            reports.append(rp.read_bytes())
        assert reports[0] == reports[1]

    def test_config_file_and_flag_precedence(self, synth_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dim": 8, "epochs": 1, "lr": 0.02, "batch": 16}))
        ck1, ck2 = tmp_path / "c1.npz", tmp_path / "c2.npz"
        assert run_cli("train", "--data", str(synth_dir), "--config", str(cfg),
                       "--seed", "3", "--checkpoint", str(ck1)) == 0
        # explicit flag overrides the file
        assert run_cli("train", "--data", str(synth_dir), "--config", str(cfg),
                       "--dim", "4", "--seed", "3", "--checkpoint", str(ck2)) == 0
        from hypersess.train import load_checkpoint
        p1, c1 = load_checkpoint(ck1)
        p2, c2 = load_checkpoint(ck2)
        assert c1.dim == 8 and p1.dim == 8
        assert c2.dim == 4 and p2.dim == 4

    def test_unknown_config_key_rejected(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dims": 8}))
        code = run_cli("train", "--data", str(synth_dir), "--config", str(cfg),
                       "--checkpoint", str(tmp_path / "x.npz"))
        assert code == 1
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("content,kind", [("[8]", "an array"), ('"dim"', "a string"),
                                              ("8", "a number"), ("null", "null")])
    def test_config_not_an_object_rejected(self, synth_dir, tmp_path, capsys, content, kind):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content)
        code = run_cli("train", "--data", str(synth_dir), "--config", str(cfg),
                       "--checkpoint", str(tmp_path / "x.npz"))
        assert code == 1
        assert capsys.readouterr().err == \
            f"error: config file {cfg} must hold a JSON object, not {kind}\n"

    @pytest.mark.parametrize("flag,name", [("--lr", "learning_rate"), ("--tau", "tau")])
    def test_nan_option_one_line_error(self, synth_dir, tmp_path, capsys, flag, name):
        code = run_cli("train", "--data", str(synth_dir), flag, "nan",
                       "--checkpoint", str(tmp_path / "x.npz"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and name in err
        assert not (tmp_path / "x.npz").exists()

    @pytest.mark.parametrize("flag,value", [("--neighborhood", "diagonal"),
                                            ("--attention-sign", "2"),
                                            ("--attention-sign", "foo")])
    def test_bad_option_value_one_line_error(self, synth_dir, tmp_path, capsys,
                                             flag, value):
        code = run_cli("train", "--data", str(synth_dir), flag, value,
                       "--checkpoint", str(tmp_path / "x.npz"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert flag[2:].replace("-", "_") in err
        assert not (tmp_path / "x.npz").exists()

    @pytest.mark.parametrize("command,key,value", [
        ("train", "margin_negatives", "false"),
        ("train", "augment_prefixes", "no"),
        ("train", "layers", 1.5),
        ("train", "attention_sign", True),
        ("evaluate", "k", 5.5),
        ("recommend", "k", True),
        ("preprocess", "test_window_days", "1"),
    ])
    def test_config_value_of_the_wrong_type_rejected(self, synth_dir, checkpoint, tmp_path,
                                                     capsys, command, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "out"
        from hypersess.data import load_split
        item = min(load_split(synth_dir).item_vocabulary)
        argv = {
            "train": ["--data", str(synth_dir), "--checkpoint", str(out)],
            "evaluate": ["--checkpoint", str(checkpoint), "--data", str(synth_dir),
                         "--report", str(out)],
            "recommend": ["--checkpoint", str(checkpoint), "--session", f"{item}:1000",
                          "--at-time", "1300", "--csv", str(out)],
            "preprocess": ["--format", "generic", "--input", str(synth_dir / "clicks.csv"),
                           "--outdir", str(out)],
        }[command]
        assert run_cli(command, *argv, "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and repr(key) in err
        assert not out.exists()

    def test_config_attention_sign_string(self, synth_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dim": 4, "epochs": 1, "batch": 16,
                                   "attention_sign": "-1"}))
        ck = tmp_path / "neg.npz"
        assert run_cli("train", "--data", str(synth_dir), "--config", str(cfg),
                       "--checkpoint", str(ck)) == 0
        from hypersess.train import load_checkpoint
        params, config = load_checkpoint(ck)
        assert params.attention_sign == -1.0 and config.attention_sign == -1.0

    def test_every_config_field_is_a_flag(self, tmp_path, capsys):
        from dataclasses import fields
        from hypersess.train import TrainConfig
        values = {"--dim": ("dim", 7), "--lr": ("learning_rate", 0.5),
                  "--epochs": ("epochs", 3), "--batch": ("batch_size", 5),
                  "--lambda-s": ("lambda_s", 0.25), "--lambda-v": ("lambda_v", 0.75),
                  "--seed": ("seed", 11), "--attention-sign": ("attention_sign", -1.0),
                  "--layers": ("layers", 2), "--tau": ("tau", 30.0), "--cap": ("cap", 1000.0),
                  "--neighborhood": ("neighborhood", "both"),
                  "--augment-prefixes": ("augment_prefixes", True),
                  "--margin-negatives": ("margin_negatives", True),
                  "--margin": ("margin", 0.5)}
        assert {name for name, _ in values.values()} == {f.name for f in fields(TrainConfig)}
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--help"])
        flags = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert flags == {"--help", "--data", "--checkpoint", "--config",
                         "--no-augment-prefixes", "--no-margin-negatives", *values}
        argv = ["train", "--data", "d", "--checkpoint", "c"]
        for flag, (_, value) in values.items():
            argv += [flag] if value is True else [flag, str(value)]
        config = train_config(build_parser().parse_args(argv))
        for name, value in values.values():
            assert getattr(config, name) == value and type(getattr(config, name)) is type(value)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"augment_prefixes": True}))
        negated = build_parser().parse_args(["train", "--data", "d", "--checkpoint", "c",
                                             "--config", str(cfg), "--no-augment-prefixes"])
        assert train_config(negated).augment_prefixes is False

    def test_no_optional_flags_gives_default_config(self):
        from hypersess.train import TrainConfig
        args = build_parser().parse_args(["train", "--data", "d", "--checkpoint", "c"])
        assert train_config(args) == TrainConfig()


class TestRecommend:
    def test_ranked_output(self, synth_dir, checkpoint, tmp_path, capsys):
        from hypersess.data import load_split
        split = load_split(synth_dir)
        items = [it for it, _ in sorted(split.item_vocabulary.items(),
                                        key=lambda kv: kv[1])][:2]
        session = f"{items[0]}:1000,{items[1]}:1060"
        csv_out = tmp_path / "recs.csv"
        code = run_cli("recommend", "--checkpoint", str(checkpoint),
                       "--session", session, "--at-time", "1300", "--k", "3",
                       "--csv", str(csv_out))
        assert code == 0
        out = capsys.readouterr().out
        assert "rank" in out
        lines = csv_out.read_text().splitlines()
        assert lines[0] == "rank,item_id,distance"
        assert len(lines) == 4

    def test_unknown_item_fails(self, checkpoint, capsys):
        code = run_cli("recommend", "--checkpoint", str(checkpoint),
                       "--session", "unseen:1000,ghost:1050", "--at-time", "1300")
        assert code == 1
        assert "unknown items" in capsys.readouterr().err

    def test_time_before_session_fails(self, synth_dir, checkpoint, capsys):
        from hypersess.data import load_split
        split = load_split(synth_dir)
        item = next(iter(split.item_vocabulary))
        code = run_cli("recommend", "--checkpoint", str(checkpoint),
                       "--session", f"{item}:1000", "--at-time", "900")
        assert code == 1

    def test_nonfinite_item_row_fails(self, checkpoint, tmp_path, capsys):
        from hypersess.train import load_checkpoint, save_checkpoint
        params, config = load_checkpoint(checkpoint)
        params.item_features = params.item_features.copy()    # loaded arrays are read-only
        params.item_features[-1] = np.nan    # an item outside the session
        bad = tmp_path / "nan.npz"
        save_checkpoint(bad, params, config)
        session = f"{params.items[0]}:1000,{params.items[1]}:1060"
        code = run_cli("recommend", "--checkpoint", str(bad),
                       "--session", session, "--at-time", "1300")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert repr(params.items[-1]) in err and "non-finite" in err


class TestCategoryPipeline:
    def test_one_hot_feature_path(self, tmp_path):
        # categories drive the feature dimension; the whole pipeline must
        # run preprocess -> train -> evaluate on such data
        rows = ["session_id,item_id,timestamp,category"]
        rng_items = [("a", "c0"), ("b", "c1"), ("c", "c0"), ("d", "c2")]
        t = 1000
        for s in range(12):
            for k in range(3):
                item, cat = rng_items[(s + k) % 4]
                rows.append(f"s{s:02d},{item},{t},{cat}")
                t += 30
            t += 3000
        src = tmp_path / "clicks.csv"
        src.write_text("\n".join(rows) + "\n")
        prep = tmp_path / "prep"
        assert run_cli("preprocess", "--format", "generic", "--input", str(src),
                       "--outdir", str(prep), "--min-item-freq", "1",
                       "--test-window-days", "0.1") == 0
        ck = tmp_path / "cat.npz"
        assert run_cli("train", "--data", str(prep), "--dim", "6", "--lr", "0.02",
                       "--epochs", "2", "--batch", "8", "--seed", "2",
                       "--checkpoint", str(ck)) == 0
        from hypersess.train import load_checkpoint
        params, _ = load_checkpoint(ck)
        assert params.feat_dim == 3  # one column per category
        assert run_cli("evaluate", "--checkpoint", str(ck), "--data", str(prep),
                       "--k", "3") == 0


class TestConsoleEntry:
    def test_installed_script(self):
        # the child sees the package this test imported, installed or not
        src = str(Path(hypersess.__file__).parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "hypersess.cli", "--help"],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0
        for cmd in ("preprocess", "synth", "train", "evaluate", "recommend"):
            assert cmd in proc.stdout
