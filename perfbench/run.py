"""Benchmark of the hypersess package: one seeded workload per process.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

A run spends ``--seconds`` on closed-loop operations, one client, each
starting after the previous one returned: train repeats, eval repeats and
``recommend`` queries, interleaved in shares fixed per workload.  It sets up
its workload several times over the run (``setup_s`` is the median).
Between operations it times fixed reference work (``speed.py``), and it
gives every end-to-end timing at the speed of the machine the bounds were
set on, so that a drift of the host's speed during a set of runs does not
read as a change of the program; the wall-clock values go to the result
file.  Outputs are checked (see ``workloads.py``); an operation whose
output is wrong counts as failed.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``).

``--workload all`` runs every workload untraced and traced, in child
processes, and reports the gap between the two as the tracing overhead.
Full results, with the environment, go to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
WORKLOADS = ("desk", "catalog", "longtail")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

SETUPS_PER_RUN = 15
PROBE_EVERY_S = 0.4      # between speed probes (see speed.py), at the next gap
MIN_REPEATS = 2          # train and eval repeats; outputs of repeats must agree
MIN_QUERIES = 100        # so that at least 10 latency samples lie beyond p90
CHECK_EVERY = 25         # after the first MIN_QUERIES, check every 25th query
# share of --seconds spent in each phase
SHARES = {
    "desk": {"train": 0.5, "eval": 0.35, "recommend": 0.15},
    "catalog": {"train": 0.15, "eval": 0.25, "recommend": 0.6},
    "longtail": {"train": 0.55, "eval": 0.3, "recommend": 0.15},
}
# Per-layer times are given for one standard pass: one set-up, one train
# repeat, one eval repeat, 100 queries and one cold CLI call.  Runs on a
# faster or slower program make more or fewer repeats; this keeps their
# per-layer numbers comparable.
STANDARD_PASS = {"setup": 1, "train": 1, "eval": 1, "recommend": MIN_QUERIES, "cli": 1}
SCORING = ("eval", "recommend")

# per-layer metric -> what it measures, and the end-to-end metric and
# workload it should move
LAYER_MAP = {
    "grad.backward_s": ("self time of backward per standard pass",
                        "train_examples_per_s on desk, a little less on longtail; "
                        "nothing on catalog scoring"),
    "grad.tape_nodes_per_example": ("tape nodes reachable from each backward root, "
                                    "per trained example (exact)",
                                    "train_examples_per_s on desk and longtail"),
    "model.hyperbolic_projection_s": ("self time per standard pass",
                                      "train_examples_per_s, eval_sessions_per_s"),
    "model.self_attention_layer_s": ("self time per standard pass",
                                     "train_examples_per_s and eval_sessions_per_s; "
                                     "dominant on longtail"),
    "model.soft_attention_session_s": ("self time per standard pass",
                                       "train_examples_per_s, eval_sessions_per_s"),
    "model.future_heads_s": ("self time of project_session_future plus "
                             "project_item_future per standard pass",
                             "train_examples_per_s, eval_sessions_per_s"),
    "model.project_item_table_ms": ("self time per scoring request (query or "
                                    "evaluated session)",
                                    "recommend_p50_ms, recommend_p90_ms and "
                                    "eval_sessions_per_s on catalog; nothing on desk"),
    "model.project_item_table_calls_per_query": ("calls per scoring request (exact)",
                                                 "recommend latency and eval_sessions_per_s "
                                                 "on catalog; nothing on desk"),
    "model.score_items_ms": ("self time per scoring request",
                             "recommend latency and eval_sessions_per_s on catalog; "
                             "nothing on desk"),
    "model.ranked_entries_per_query": ("ranked entries built per entry requested "
                                       "(k per query, the report's k per evaluated "
                                       "session): a waste ratio",
                                       "recommend latency and eval_sessions_per_s "
                                       "on catalog; nothing on desk"),
    "manifold.distances_to_rows_ms": ("self time per scoring request",
                                      "recommend_p50_ms, recommend_p90_ms on catalog"),
    "manifold.pairwise_mean_distance_s": ("whole time of the per-epoch collapse "
                                          "monitor per standard pass",
                                          "train_examples_per_s"),
    "graph.build_session_graph_s": ("self time per standard pass",
                                    "train_examples_per_s on longtail (via set-up "
                                    "and scoring)"),
    "graph.neighborhood_calls_per_example": ("calls during training per trained "
                                             "example (exact)",
                                             "train_examples_per_s on longtail"),
    "train.compute_loss_s": ("self time per standard pass: the taped loss around "
                             "the model layers", "train_examples_per_s"),
    "train.optimizer_step_s": ("self time per standard pass", "train_examples_per_s"),
    "train.steps": ("optimizer steps per train repeat", "train_examples_per_s"),
    "train.steps_skipped": ("steps with a non-finite gradient per train repeat, "
                            "detected from outside", "train_examples_per_s"),
    "train.examples_from_records_s": ("self time per set-up", "setup_s"),
    "train.load_checkpoint_s": ("self time per standard pass (set-up and CLI)",
                                "setup_s; the CLI's cold latency"),
    "data.parse_clicklog_s": ("self time per set-up", "setup_s, most on longtail"),
    "data.preprocess_s": ("self time per set-up", "setup_s, most on longtail"),
    "data.events_parsed": ("click events parsed per set-up",
                           "setup_s, most on longtail"),
    "evaluate.rank_test_sessions_s": ("self time per standard pass",
                                      "eval_sessions_per_s on catalog"),
    "evaluate.sessions_skipped": ("sessions evaluate skipped per eval repeat",
                                  "eval_sessions_per_s"),
    "metrics.mrr_at_k_s": ("self time per standard pass (linear rank_of scans)",
                           "eval_sessions_per_s on catalog"),
    "metrics.p_at_k_s": ("self time per standard pass (linear rank_of scans)",
                         "eval_sessions_per_s on catalog"),
    "cli.recommend_cold_ms": ("whole time of one in-process `hypersess recommend`, "
                              "checkpoint load included", "(none: user-visible on "
                              "its own)"),
}


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_package():
    """Import hypersess from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "hypersess" / "__init__.py").is_file():
        raise SystemExit(f"no hypersess package under {SRC}")
    sys.path.insert(0, str(SRC))
    import hypersess
    if not Path(hypersess.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"hypersess imported from {hypersess.__file__}, not {SRC}")
    return hypersess


def git_commit():
    # a checkout without .git may still lie inside another repository
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, traced: bool, workdir: Path):
    import hypersess
    import numpy as np
    import workloads as wl
    from speed import SpeedProbe
    from tracer import Tracer

    tracer = Tracer(hypersess) if traced else None
    reference = {}
    if REFERENCE.is_file():
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh).get(name, {}).get(str(seed), {})
    shares = SHARES[name]
    problems = []

    def phase(label):
        if tracer is not None:
            tracer.phase = label

    def problem(message):
        problems.append(message)
        print(f"check failed: {message}", file=sys.stderr)

    def setup_op():
        phase("setup")
        t0 = time.perf_counter()
        prepared = wl.SETUPS[name](inputs)
        setup_times.append(time.perf_counter() - t0)
        error = wl.check_split(inputs, prepared.split)
        setup_ok.append(error is None)
        if error is not None:
            problem(f"set-up {len(setup_times)}: {error}")
        return prepared

    def train_op():
        result, elapsed = wl.train_repeat(prep)
        losses.append(result.epoch_losses)
        train_rates.append(prep.examples_per_repeat / elapsed)
        return result

    def eval_op():
        report, elapsed = wl.eval_repeat(prep, params)
        reports.append(report)
        eval_rates.append(report.n_test / elapsed)

    def query_op():
        record, at_time = next(inputs.queries)
        t0 = time.perf_counter()
        fw, ranked = wl.recommend(params, prep.norm, record, at_time)
        latencies.append(time.perf_counter() - t0)
        i = len(latencies) - 1
        if i < MIN_QUERIES or i % CHECK_EVERY == 0:
            # checked after the loop, so the brute force does not evict the
            # caches the next query would find warm
            to_check.append((i, np.asarray(fw.item_future), ranked.entries))

    setup_times, losses, train_rates, reports, eval_rates, latencies = [], [], [], [], [], []
    setup_ok, to_check = [], []
    probe = SpeedProbe()
    last_probe = 0.0
    if tracer is not None:
        tracer.install()
    try:
        phase("prep")
        inputs = wl.INPUTS[name](seed, workdir)
        prep = setup_op()

        # The first train repeat gives the model that eval and recommend use
        # (catalog scores its loaded checkpoint).  After it, the phases are
        # interleaved, each getting its share of the time, so that every
        # metric samples the whole run and not one stretch of it.  The other
        # set-ups are spread evenly over the run for the same reason; their
        # time is not part of --seconds.
        ops = {"train": train_op, "eval": eval_op, "recommend": query_op}
        minimum = {"train": lambda: len(losses) >= MIN_REPEATS,
                   "eval": lambda: len(reports) >= MIN_REPEATS,
                   "recommend": lambda: len(latencies) >= MIN_QUERIES}
        phase("train")
        t0 = time.perf_counter()
        fit = train_op()
        spent = {"train": time.perf_counter() - t0, "eval": 0.0, "recommend": 0.0}
        params = prep.base_params if prep.base_params is not None else fit.params
        del fit
        while True:
            if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                probe.sample()
                last_probe = time.perf_counter()
            elapsed = sum(spent.values())
            if len(setup_times) < SETUPS_PER_RUN and \
                    elapsed >= seconds * len(setup_times) / SETUPS_PER_RUN:
                setup_op()
                continue
            pending = [p for p in ops if not minimum[p]()]
            if elapsed < seconds:
                pending = list(ops)
            if not pending:
                break
            current = min(pending, key=lambda p: spent[p] / shares[p])
            phase(current)
            t0 = time.perf_counter()
            ops[current]()
            spent[current] += time.perf_counter() - t0

        # one cold `hypersess recommend`, checkpoint load included
        phase("prep")
        checkpoint = inputs.checkpoint
        if checkpoint is None:
            checkpoint = workdir / "model.npz"
            hypersess.train.save_checkpoint(checkpoint, params, prep.config)
        record, at_time = next(inputs.queries)
        phase("cli")
        code, cli_items, cli_s = wl.cli_recommend(checkpoint, record, at_time)

        # the checks call the program too, but are not part of the trace
        if tracer is not None:
            tracer.uninstall()
        ranker = wl.BruteForceRanker(params)
        query_failures = 0
        for i, point, entries in to_check:
            dist = ranker.distances(point)
            got = [item for item, _ in entries]
            if got != ranker.top_k(point, wl.RECOMMEND_K) or not wl.same_floats(
                    [d for _, d in entries], [dist[ranker.index[it]] for it in got]):
                query_failures += 1
                problem(f"query {i}: top-{wl.RECOMMEND_K} differs from brute force")
        train_ok = [run_losses == losses[0] for run_losses in losses]
        if not all(train_ok):
            problem("train repeats gave different epoch losses")
        if not wl.same_floats(losses[0], reference.get("losses", losses[0])):
            problem(f"epoch losses {losses[0]} are not finite or differ from "
                    f"the reference {reference.get('losses')}")
            train_ok = [False] * len(losses)
        first = reports[0]
        eval_ok = [(r.mrr_at_k, r.p_at_k) == (first.mrr_at_k, first.p_at_k) for r in reports]
        if not all(eval_ok):
            problem("eval repeats gave different MRR/P")
        brute_ranks = wl.brute_force_ranks(params, prep)
        rank_errors = sum(a != b for a, b in zip(wl.program_ranks(params, prep), brute_ranks))
        if rank_errors:
            problem(f"{rank_errors} eval targets ranked differently from brute force")
        brute = wl.mrr_and_p(brute_ranks, prep.eval_k)
        if rank_errors or not wl.same_floats([first.mrr_at_k, first.p_at_k], brute, rel=1e-12):
            problem(f"evaluate gave MRR/P {first.mrr_at_k}/{first.p_at_k}, "
                    f"brute-force ranking {brute[0]}/{brute[1]}")
            eval_ok = [False] * len(reports)
        ref_eval = [reference.get("mrr", first.mrr_at_k), reference.get("p", first.p_at_k)]
        if not wl.same_floats([first.mrr_at_k, first.p_at_k], ref_eval):
            problem(f"MRR/P {first.mrr_at_k}/{first.p_at_k} differ from the reference {ref_eval}")
            eval_ok = [False] * len(reports)

        fw, _ = wl.recommend(params, prep.norm, record, at_time)
        cli_ok = code == 0 and cli_items == ranker.top_k(np.asarray(fw.item_future),
                                                        wl.RECOMMEND_K)
        if not cli_ok:
            problem(f"hypersess recommend exited {code} with top items {cli_items[:3]}")
    finally:
        if tracer is not None:
            tracer.uninstall()

    steps = prep.steps_per_repeat
    attempted = (len(setup_times) + steps * len(losses) + len(prep.eval_block) * len(reports)
                 + len(latencies) + 1)
    failed = (setup_ok.count(False) + steps * train_ok.count(False)
              + sum(r.n_test for r, ok in zip(reports, eval_ok) if not ok)
              + sum(r.skipped for r in reports)
              + query_failures + (0 if cli_ok else 1))
    lat_ms = np.array(latencies) * 1e3
    wall_clock = {
        "setup_s": statistics.median(setup_times),
        "train_examples_per_s": statistics.median(train_rates),
        "eval_sessions_per_s": statistics.median(eval_rates),
        "recommend_p50_ms": float(np.percentile(lat_ms, 50)),
        "recommend_p90_ms": float(np.percentile(lat_ms, 90)),
    }
    # timings at the reference machine's speed: a rate divided by the run's
    # speed, a time multiplied by it (see speed.py)
    machine_speed = probe.speed()
    end_to_end = {k: v / machine_speed if k.endswith("_per_s") else v * machine_speed
                  for k, v in wall_clock.items()}
    # the probe's arrays stay in memory all run and are not the program's
    end_to_end["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
                                 - probe.nbytes) / 2**20
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "reference_checked": bool(reference),
        "end_to_end": end_to_end,
        "wall_clock": wall_clock,
        "machine_speed": machine_speed,
        "quality": {
            "eval_mrr_at_k": first.mrr_at_k,
            "eval_p_at_k": first.p_at_k,
            "eval_k": prep.eval_k,
            "failure_rate": failed / attempted,
        },
        "samples": {
            "setups": len(setup_times),
            "train_repeats": len(losses),
            "examples_per_train_repeat": prep.examples_per_repeat,
            "eval_repeats": len(reports),
            "sessions_per_eval_repeat": len(prep.eval_block),
            "recommend_queries": len(latencies),
            "cli_calls": 1,
        },
        "phase_seconds": spent,
        "repeat_rates": {"train_examples_per_s": train_rates, "eval_sessions_per_s": eval_rates},
        "recommend_latencies_ms": lat_ms.tolist(),
        "fingerprint": {"losses": losses[0], "mrr": first.mrr_at_k, "p": first.p_at_k},
        "cli_recommend_ms": cli_s * 1e3,
        "probe_s": {"python": probe.python_s, "numpy": probe.numpy_s},
    }
    if tracer is not None:
        stats = tracer.per_phase()
        units = {"setup": len(setup_times), "train": len(losses), "eval": len(reports),
                 "recommend": len(latencies), "cli": 1}
        result["per_layer"] = layer_metrics(stats, tracer.counts, units, prep, first)
        result["spans"] = stats
        result["counters"] = {f"{k}@{ph}": v for (k, ph), v in sorted(tracer.counts.items())}
        result["spans_recorded"] = len(tracer.spans)
    return result


def layer_metrics(stats, counts, units, prep, report):
    """Per-layer numbers from spans and counters (see LAYER_MAP)."""

    def per_pass(name, kind="self_s", phases=tuple(STANDARD_PASS)):
        return sum(v[kind] * STANDARD_PASS[ph] / units[ph]
                   for ph, v in stats.get(name, {}).items() if ph in phases)

    def calls_per_pass(name, phases):
        return sum(v["calls"] * STANDARD_PASS[ph] / units[ph]
                   for ph, v in stats.get(name, {}).items() if ph in phases)

    def count_per_pass(key, phases):
        return sum(counts.get((key, ph), 0) * STANDARD_PASS[ph] / units[ph] for ph in phases)

    requests = report.n_test + STANDARD_PASS["recommend"]
    requested_entries = report.n_test * prep.eval_k + STANDARD_PASS["recommend"] * 20
    examples = units["train"] * prep.examples_per_repeat
    return {
        "grad.backward_s": per_pass("grad.backward"),
        "grad.tape_nodes_per_example": counts.get(("tape_nodes", "train"), 0) / examples,
        "model.hyperbolic_projection_s": per_pass("model.hyperbolic_projection"),
        "model.self_attention_layer_s": per_pass("model.self_attention_layer"),
        "model.soft_attention_session_s": per_pass("model.soft_attention_session"),
        "model.future_heads_s": per_pass("model.project_session_future")
        + per_pass("model.project_item_future"),
        "model.project_item_table_ms":
            1e3 * per_pass("model.project_item_table", phases=SCORING) / requests,
        "model.project_item_table_calls_per_query":
            calls_per_pass("model.project_item_table", SCORING) / requests,
        "model.score_items_ms": 1e3 * per_pass("model.score_items", phases=SCORING) / requests,
        "model.ranked_entries_per_query":
            count_per_pass("ranked_entries", SCORING) / requested_entries,
        "manifold.distances_to_rows_ms":
            1e3 * per_pass("manifold.distances_to_rows", phases=SCORING) / requests,
        "manifold.pairwise_mean_distance_s":
            per_pass("manifold.pairwise_mean_distance", kind="total_s"),
        "graph.build_session_graph_s": per_pass("graph.build_session_graph"),
        "graph.neighborhood_calls_per_example":
            calls_per_pass("graph.neighborhood", ("train",)) / prep.examples_per_repeat,
        "train.compute_loss_s": per_pass("train.compute_loss"),
        "train.optimizer_step_s": per_pass("train.optimizer_step"),
        "train.steps": count_per_pass("steps", ("train",)),
        "train.steps_skipped": count_per_pass("steps_skipped", ("train",)),
        "train.examples_from_records_s": per_pass("train.examples_from_records"),
        "train.load_checkpoint_s": per_pass("train.load_checkpoint"),
        "data.parse_clicklog_s": per_pass("data.parse_clicklog"),
        "data.preprocess_s": per_pass("data.preprocess"),
        "data.events_parsed": count_per_pass("events_parsed", ("setup",)),
        "evaluate.rank_test_sessions_s": per_pass("evaluate.rank_test_sessions"),
        "evaluate.sessions_skipped": count_per_pass("sessions_skipped", ("eval",)),
        "metrics.mrr_at_k_s": per_pass("metrics.mrr_at_k"),
        "metrics.p_at_k_s": per_pass("metrics.p_at_k"),
        "cli.recommend_cold_ms": 1e3 * per_pass("cli.main", kind="total_s", phases=("cli",)),
    }


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def result_line(result, bench):
    """The result line: the metrics BENCHMARK.json names, with their units."""
    declared = bench["per_layer"] if result["trace"] else bench["end_to_end"]
    values = result["per_layer"] if result["trace"] else result["end_to_end"]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }


def print_metrics(result, bench):
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    name = result["workload"]
    for key, value in result["end_to_end"].items():
        print(f"{name:<9} {key:<40} {value:>14.6g} {units[key]}")
    for key, value in result["wall_clock"].items():
        print(f"{name:<9} {'wall clock ' + key:<40} {value:>14.6g} {units[key]}")
    print(f"{name:<9} {'machine_speed':<40} {result['machine_speed']:>14.6g}")
    q = result["quality"]
    print(f"{name:<9} {'eval_mrr_at_k (k=%d)' % q['eval_k']:<40} {q['eval_mrr_at_k']:>14.6g}")
    print(f"{name:<9} {'eval_p_at_k (k=%d)' % q['eval_k']:<40} {q['eval_p_at_k']:>14.6g}")
    print(f"{name:<9} {'failure_rate':<40} {q['failure_rate']:>14.6g} "
          f"({result['failed']}/{result['attempted']} operations)")
    print(f"{name:<9} {'recommend_samples':<40} {result['samples']['recommend_queries']:>14d}")
    print(f"{name:<9} {'reference_checked':<40} {str(result['reference_checked']):>14}")
    for key, value in result.get("per_layer", {}).items():
        print(f"{name:<9} {key:<40} {value:>14.6g} {units[key]}")


def save_result(result, bench):
    workload = next(w for w in bench["workloads"] if w["name"] == result["workload"])
    result["why"] = workload["why"]
    result["environment"] = environment()
    result["layer_map"] = {k: {"measures": v[0], "moves": v[1]} for k, v in LAYER_MAP.items()}
    out = OUT / "results"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    path.write_text(json.dumps(result, indent=1, default=float))
    return path


def run_all(seed: int, seconds: float, bench):
    """Every workload untraced then traced, each in its own process."""
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
            if done.returncode != 0:
                raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}")
            path = OUT / "results" / f"{name}-seed{seed}-trace{trace}.json"
            results[name, trace] = json.loads(path.read_text())

    summary = {"seed": seed, "seconds": seconds, "environment": environment(),
               "workloads": {}}
    for name in WORKLOADS:
        plain, traced = results[name, 0], results[name, 1]
        print_metrics(plain, bench)
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        for key, value in traced["per_layer"].items():
            print(f"{name:<9} {key:<40} {value:>14.6g} {units[key]}")
        overhead = {}
        for m in bench["end_to_end"]:
            a, b = plain["end_to_end"][m["name"]], traced["end_to_end"][m["name"]]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            overhead[m["name"]] = worse
            print(f"{name:<9} {'tracing overhead ' + m['name']:<40} {100 * worse:>13.1f}%")
        summary["workloads"][name] = {
            "why": plain["why"], "end_to_end": plain["end_to_end"],
            "quality": plain["quality"], "per_layer": traced["per_layer"],
            "traced_end_to_end": traced["end_to_end"], "tracing_overhead": overhead,
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
        }
    (OUT / "results" / f"summary-seed{seed}.json").write_text(
        json.dumps(summary, indent=1, default=float))
    attempted = sum(w["attempted"] for w in summary["workloads"].values())
    failed = sum(w["failed"] for w in summary["workloads"].values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {f"{n}.{k}": v for n, w in summary["workloads"].items()
                                  for k, v in w["end_to_end"].items()}}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_threads()
    import_package()
    bench = spec()
    if args.workload == "all":
        run_all(args.seed, args.seconds, bench)
        return 0

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    save_result(result, bench)
    print_metrics(result, bench)
    print(json.dumps(result_line(result, bench)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
