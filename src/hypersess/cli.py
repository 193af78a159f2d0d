"""Command-line entry points: preprocess, synth, train, evaluate, recommend.

Flag precedence: explicit CLI flags > values from a JSON --config file >
built-in defaults.  Every command exits 0 on success and 1 with a one-line
diagnostic otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path
from typing import Dict, get_type_hints

import numpy as np

from . import data, evaluate as eval_mod, train as train_mod
from .graph import SessionRecord, build_session_graph
from .model import forward_session, score_items

log = logging.getLogger(__name__)

TEST_WINDOW_DAYS = {"yoochoose": 1.0, "diginetica": 7.0, "generic": 1.0}
# the cutoff of evaluate's MRR@k/P@k and recommend's list when --k is unset
DEFAULT_K = 20
# flag and config-file key -> the flag's type (train's: TRAIN_FLAGS)
PREPROCESS_FLAGS = {"min_session_len": int, "min_item_freq": int, "test_window_days": float}
K_FLAGS = {"k": int}
# the JSON types of a config value, by its flag's type (None: the sign, which TrainConfig parses)
_JSON_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,), None: (int, float, str)}
# the JSON name of each type json.load returns
_JSON_NAMES = {list: "an array", str: "a string", int: "a number", float: "a number",
               bool: "a boolean", type(None): "null"}


def _options(args: argparse.Namespace, flags: Dict[str, type]) -> Dict:
    """Values set for the keys of ``flags`` (key -> flag type): config file
    <- explicitly passed flags (None means unset).  Whatever stays unset
    takes the callee's default."""
    opts = {}
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        with open(cfg_path, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {cfg_path} must hold a JSON object, "
                             f"not {_JSON_NAMES[type(loaded)]}")
        unknown = set(loaded) - set(flags)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, val in loaded.items():
            allowed = _JSON_TYPES[flags[key]]
            if type(val) not in allowed:
                raise ValueError(f"config key {key!r} takes JSON "
                                 f"{' or '.join(t.__name__ for t in allowed)}, not {val!r}")
        opts.update(loaded)
    for key in flags:
        val = getattr(args, key, None)
        if val is not None:
            opts[key] = val
    return opts


def cmd_preprocess(args) -> int:
    opts = _options(args, PREPROCESS_FLAGS)
    window_days = opts.pop("test_window_days", TEST_WINDOW_DAYS[args.format])
    if not (math.isfinite(window_days) and window_days > 0):
        raise ValueError(f"test_window_days must be finite and positive, got {window_days}")
    events = data.parse_clicklog(args.input, args.format)
    fraction = float(Fraction(args.fraction)) if args.fraction else None
    split = data.preprocess(
        events,
        test_window_seconds=int(window_days * 86400),
        fraction=fraction,
        **opts,
    )
    data.save_split(split, args.outdir)
    print(f"items={len(split.item_vocabulary)} "
          f"train_sessions={len(split.train)} test_sessions={len(split.test)} "
          f"-> {args.outdir}")
    return 0


def cmd_synth(args) -> int:
    synth = data.generate_synthetic(
        args.items, args.sessions, args.seed, interval_signal=args.interval_signal
    )
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    data.write_sessions(outdir / "clicks.csv", synth.records)
    np.savetxt(outdir / "transitions.csv", synth.transition, delimiter=",")

    # ready-to-train split: most recent 20% of sessions held out
    ordered = sorted(synth.records, key=lambda r: (r.events[-1][1], r.session_id))
    n_test = max(1, len(ordered) // 5)
    split = data.DatasetSplit(
        train=ordered[:-n_test],
        test=ordered[-n_test:],
        item_vocabulary={it: i for i, it in enumerate(synth.items)},
    )
    data.save_split(split, outdir)
    print(f"items={args.items} sessions={args.sessions} "
          f"(train={len(split.train)} test={len(split.test)}) -> {outdir}")
    return 0


# TrainConfig field -> its flag and config-file key
TRAIN_KEYS = {
    f.name: {"learning_rate": "lr", "batch_size": "batch"}.get(f.name, f.name)
    for f in fields(train_mod.TrainConfig)
}
# key -> flag type; TrainConfig parses the sign, so a bad one fails there in one line
TRAIN_FLAGS = {TRAIN_KEYS[name]: None if name == "attention_sign" else kind
               for name, kind in get_type_hints(train_mod.TrainConfig).items()}


def train_config(args: argparse.Namespace) -> train_mod.TrainConfig:
    """TrainConfig from the set flags and config-file keys; the rest keep
    TrainConfig's defaults."""
    opts = _options(args, TRAIN_FLAGS)
    return train_mod.TrainConfig(**{name: opts[key] for name, key in TRAIN_KEYS.items()
                                    if key in opts})


def cmd_train(args) -> int:
    config = train_config(args)
    split = data.load_split(args.data)
    examples = train_mod.examples_from_records(
        split.train, config.normalizer(), augment_prefixes=config.augment_prefixes
    )
    if not examples:
        raise ValueError(f"no trainable sessions in {args.data}")
    vocab = sorted(split.item_vocabulary, key=split.item_vocabulary.get)
    result = train_mod.fit(examples, config, vocab=vocab,
                           categories=split.category_map)
    train_mod.save_checkpoint(args.checkpoint, result.params, config)
    print(f"examples={len(examples)} epochs={config.epochs} "
          f"first_loss={result.epoch_losses[0]:.6f} "
          f"final_loss={result.epoch_losses[-1]:.6f} -> {args.checkpoint}")
    return 0


def cmd_evaluate(args) -> int:
    k = _options(args, K_FLAGS).get("k", DEFAULT_K)
    params, config = train_mod.load_checkpoint(args.checkpoint)
    split = data.load_split(args.data)
    report = eval_mod.evaluate(params, split.test, k, config.normalizer())

    print(f"{'metric':<12}{'value':>12}")
    print(f"{'-' * 24}")
    print(f"{'MRR@' + str(report.k):<12}{report.mrr_at_k:>12.4f}")
    print(f"{'P@' + str(report.k):<12}{report.p_at_k:>12.4f}")
    print(f"{'n_test':<12}{report.n_test:>12d}")
    print(f"{'skipped':<12}{report.skipped:>12d}")
    print(f"{'wall_time_s':<12}{report.wall_time:>12.2f}")

    if args.report:
        with open(args.report, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["field", "value"])
            w.writerows(report.csv_rows())
        print(f"report -> {args.report}")
    return 0


def _parse_session(text: str) -> SessionRecord:
    events = []
    for part in text.split(","):
        item, _, ts = part.strip().rpartition(":")
        if not item:
            raise ValueError(f"bad session event {part!r}, expected item:timestamp")
        events.append((item, int(ts)))
    return SessionRecord("query", events)


def cmd_recommend(args) -> int:
    k = _options(args, K_FLAGS).get("k", DEFAULT_K)
    params, config = train_mod.load_checkpoint(args.checkpoint)
    record = _parse_session(args.session)
    unknown = [it for it, _ in record.events if it not in params.item_index]
    if unknown:
        raise ValueError(f"unknown items: {unknown}")
    if args.at_time < record.events[-1][1]:
        raise ValueError("--at-time precedes the session's last event")

    norm = config.normalizer()
    g = build_session_graph(record, norm, min_events=1)
    t_norm = norm(args.at_time - record.events[-1][1])
    fw = forward_session(g, t_norm, params)
    ranking = score_items(fw.item_future, params, k=k)

    print(f"{'rank':<6}{'item':<16}{'distance':>12}")
    print("-" * 34)
    for pos, (item, dist) in enumerate(ranking.entries, start=1):
        print(f"{pos:<6}{item:<16}{dist:>12.6f}")
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["rank", "item_id", "distance"])
            for pos, (item, dist) in enumerate(ranking.entries, start=1):
                w.writerow([pos, item, repr(dist)])
    return 0


def _add_flags(p: argparse.ArgumentParser, flags: Dict[str, type]) -> None:
    """One --flag per key of ``flags``, of its type; bools take --no-<flag>."""
    for key, kind in flags.items():
        flag = "--" + key.replace("_", "-")
        if kind is bool:
            p.add_argument(flag, dest=key, action=argparse.BooleanOptionalAction)
        else:
            p.add_argument(flag, dest=key, type=kind)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypersess",
        description="Time-aware hyperbolic session recommendation pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="filter and split a click log")
    p.add_argument("--format", required=True, choices=data.FORMATS)
    p.add_argument("--input", required=True)
    p.add_argument("--outdir", required=True)
    p.add_argument("--fraction", choices=["1/64", "1/4"], default=None)
    _add_flags(p, PREPROCESS_FLAGS)
    p.add_argument("--config")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("synth", help="generate a planted synthetic dataset")
    p.add_argument("--items", type=int, required=True)
    p.add_argument("--sessions", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--interval-signal", dest="interval_signal", action="store_true")
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="fit a model on a preprocessed split")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    _add_flags(p, TRAIN_FLAGS)
    p.add_argument("--config")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on the test split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    _add_flags(p, K_FLAGS)
    p.add_argument("--report")
    p.add_argument("--config")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("recommend", help="rank items for a live session query")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--session", required=True,
                   help='comma-separated "item:timestamp" events')
    p.add_argument("--at-time", dest="at_time", type=int, required=True)
    _add_flags(p, K_FLAGS)
    p.add_argument("--csv")
    p.add_argument("--config")
    p.set_defaults(func=cmd_recommend)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
