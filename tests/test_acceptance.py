"""Acceptance gate: one test per shipping criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from oracles import (
    o_dist,
    o_item_future,
    o_layer,
    o_session_future,
    o_soft_attention,
    rand_ball,
)

from hypersess import data, evaluate as ev, grad as G, manifold as M, model, train
from hypersess.cli import main as cli_main
from hypersess.graph import IntervalNormalizer, SessionRecord, batch_graphs, build_session_graph
from hypersess.metrics import mrr_at_k, p_at_k

NORM = IntervalNormalizer()


def announce(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: manifold property suite (1000 draws per property, < 10 s)
# ---------------------------------------------------------------------------

def test_manifold_property_suite():
    start = time.perf_counter()
    n = 1000
    rng = np.random.default_rng(2024)
    for _ in range(n):
        a, b = rand_ball(rng, 6, 0.9), rand_ball(rng, 6, 0.9)
        assert np.allclose(M.mobius_add(a, np.zeros(6)), a, atol=1e-9)
        assert np.allclose(M.mobius_add(-a, a), 0.0, atol=1e-9)
        assert np.allclose(M.mobius_add(-a, M.mobius_add(a, b)), b, atol=1e-8)

    done = 0
    while done < n:
        x, v = rand_ball(rng, 6, 0.8), rand_ball(rng, 6, 2.0)
        y = M.exp_map(x, v)
        if np.linalg.norm(y) >= M.MAX_NORM - 1e-12:
            continue  # shell-clipped draw carries no round-trip information
        assert np.allclose(M.log_map(x, y), v, atol=1e-7)
        done += 1

    for _ in range(n):
        p, q, r = (rand_ball(rng, 6, 0.9) for _ in range(3))
        d = M.distance(p, q)
        assert abs(d - M.distance(q, p)) < 1e-12
        assert abs(d - 2 * math.atanh(np.linalg.norm(M.mobius_add(-p, q)))) < 1e-8
        assert M.distance(p, r) <= d + M.distance(q, r) + 1e-8

    for _ in range(n):
        b = rand_ball(rng, 6, 0.9)
        acc = b
        for k in (1, 2, 3):
            assert np.allclose(M.mobius_scalar_mul(float(k), b), acc, atol=1e-8)
            acc = M.mobius_add(acc, b)

    elapsed = time.perf_counter() - start
    announce("manifold-properties",
             elapsed < 10.0,
             f"{n} draws per property, all tolerances met, {elapsed:.1f}s (< 10s)")


# ---------------------------------------------------------------------------
# criterion 2: gradient suite (< 1e-4 everywhere, < 60 s)
# ---------------------------------------------------------------------------

def interior_params(rng, items=("a", "b", "c", "d"), d=6):
    p = model.init_params(list(items), d, rng)
    for name in ("feat_proj", "att_last_proj", "att_item_proj",
                 "sess_future_proj", "item_future_proj"):
        setattr(p, name, rng.uniform(-0.8, 0.8, (d, d)) + 0.3 * np.eye(d))
    p.att_vec = rng.uniform(-0.8, 0.8, d)
    p.att_bias = rand_ball(rng, d, 0.25)
    p.time_proj = rng.uniform(-0.8, 0.8, d)
    p.item_features = np.stack([rand_ball(rng, d, 0.6) for _ in items])
    return p


def theta_of(params):
    """Every learnable array, the whole item table as one leaf."""
    return {n: getattr(params, n) for n in ("item_features",) + model.MATRIX_FIELDS}


def test_gradient_suite():
    start = time.perf_counter()
    worst = 0.0

    def probe_check(fn, params_fn, seed, h=1e-6, points=10):
        nonlocal worst
        for trial in range(points):
            rng = np.random.default_rng(seed * 1000 + trial)
            probe = 0.01 * rng.normal(size=4)
            th = params_fn(rng)
            scalar_out = np.asarray(G.value_of(fn(th))).shape == ()

            def f(t, scalar=scalar_out):
                out = fn(t)
                return out if scalar else G.dot(probe, out)

            rep = G.check_gradients(f, th, h=h)
            assert not rep.failures
            worst = max(worst, rep.max_rel_error)

    # manifold primitives at h = 1e-6
    probe_check(lambda t: M.mobius_add(t["a"], t["b"]),
                lambda r: {"a": rand_ball(r, 4, 0.8), "b": rand_ball(r, 4, 0.8)}, 1)
    probe_check(lambda t: M.mobius_scalar_mul(G.reshape(t["al"], ()), t["b"]),
                lambda r: {"al": r.uniform(-2, 2, ()), "b": rand_ball(r, 4, 0.8)}, 2)
    probe_check(lambda t: M.mobius_matvec(t["m"], t["a"]),
                lambda r: {"m": r.uniform(-1, 1, (4, 4)), "a": rand_ball(r, 4, 0.8)}, 3)
    probe_check(lambda t: M.exp_map(t["x"], t["v"]),
                lambda r: {"x": rand_ball(r, 4, 0.7), "v": rand_ball(r, 4, 1.0)}, 4)
    probe_check(lambda t: M.log_map(t["x"], t["a"]),
                lambda r: {"x": rand_ball(r, 4, 0.7), "a": rand_ball(r, 4, 0.7)}, 5)
    probe_check(lambda t: M.distance(t["p"], t["q"]),
                lambda r: {"p": rand_ball(r, 4, 0.8), "q": rand_ball(r, 4, 0.8)}, 6)

    # model layers at h = 1e-6 over a 4-node session graph
    g = build_session_graph(
        SessionRecord("s", [("a", 0), ("b", 30), ("a", 95), ("c", 140)]), NORM)

    batch = batch_graphs([g], model.ModelParams.neighborhood)

    def layer_check(build, seed):
        """``build(b, probe)`` runs a layer on params b, the leaves bound."""
        nonlocal worst
        for trial in range(10):
            rng = np.random.default_rng(seed * 977 + trial)
            params = interior_params(rng)
            probe = 0.01 * rng.normal(size=params.dim)
            rep = G.check_gradients(lambda t: build(replace(params, **t), probe),
                                    theta_of(params), h=1e-6)
            assert not rep.failures
            worst = max(worst, rep.max_rel_error)

    def state_of(b):
        return model.hyperbolic_projection(b.item_rows(g.nodes), b)

    def probed(w, rows):
        """The sum over the (N, d) rows of each row's dot with w."""
        return G.dot(G.reshape(rows, (-1,)), np.tile(w, rows.shape[0]))

    layer_check(lambda b, w: G.dot(w, model.hyperbolic_projection(b.item_vec("a"), b)), 11)
    layer_check(lambda b, w: G.dot(w, model.time_embedding(0.37, b)), 12)
    layer_check(lambda b, w: probed(w, model.self_attention_layer(state_of(b), batch, b)), 13)
    layer_check(lambda b, w: probed(w, model.soft_attention_session(
        model.self_attention_layer(state_of(b), batch, b), batch, b)), 14)
    layer_check(lambda b, w: G.dot(w, model.forward_session(g, 0.41, b).item_future), 15)

    # full loss: |f| ~ O(1) over a ~1500-op tape; at h = 1e-6 the float64
    # quotient noise floor (ulp(f)/2h ~ 3e-11 absolute) is unresolvable for
    # chance ~1e-8 gradient entries, so the loss runs at h = 1e-4 where both
    # noise and truncation sit well below the 1e-4 relative tolerance.
    for trial in range(10):
        rng = np.random.default_rng(16000 + trial)
        params = interior_params(rng)
        ex = train.TrainingExample(graph=g, target_item="d", target_interval=NORM(120))
        rep = G.check_gradients(
            lambda t: train.compute_loss(ex, replace(params, **t)),
            theta_of(params), h=1e-4)
        assert not rep.failures
        worst = max(worst, rep.max_rel_error)

    elapsed = time.perf_counter() - start
    announce("gradient-suite",
             worst < 1e-4 and elapsed < 60.0,
             f"max rel err {worst:.2e} (< 1e-4) over primitives+layers+loss, "
             f"{elapsed:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# criterion 3: oracle equivalence at 1e-10
# ---------------------------------------------------------------------------

def test_oracle_equivalence():
    worst = 0.0
    rng = np.random.default_rng(300)
    for trial in range(5):
        params = interior_params(np.random.default_rng(301 + trial),
                                 items=("a", "b", "c", "d", "e"), d=5)
        g = build_session_graph(
            SessionRecord("s", [("a", 0), ("b", 35), ("c", 90), ("a", 170), ("d", 230)]),
            NORM)
        state = [rand_ball(rng, 5, 0.7) for _ in g.nodes]
        batch = batch_graphs([g], params.neighborhood)

        ours = model.self_attention_layer(np.stack(state), batch, params)
        ref = o_layer(state, g, params.time_proj)
        for o, r in zip(ours, ref):
            worst = max(worst, float(np.max(np.abs(np.asarray(o) - r))))

        h_ours = model.soft_attention_session(np.stack(state), batch, params)[0]
        h_ref = o_soft_attention(state, g, params.att_last_proj,
                                 params.att_item_proj, params.att_vec,
                                 params.att_bias)
        worst = max(worst, float(np.max(np.abs(np.asarray(h_ours) - h_ref))))

        sf_ours = model.project_session_future(h_ours, 0.5, params)
        sf_ref = o_session_future(h_ref, params.time_proj, 0.5)
        worst = max(worst, float(np.max(np.abs(np.asarray(sf_ours) - sf_ref))))

        if_ours = model.project_item_future(sf_ours, state[g.last_index], 0.3, params)
        if_ref = o_item_future(sf_ref, state[g.last_index], params.time_proj, 0.3,
                               params.sess_future_proj, params.item_future_proj)
        worst = max(worst, float(np.max(np.abs(np.asarray(if_ours) - if_ref))))

        # brute-force ranking over the 5-item table
        table = model.project_item_table(params)
        query = rand_ball(rng, 5, 0.6)
        ref_rank = sorted(((o_dist(query, table[i]), params.items[i])
                           for i in range(5)))
        got = model.score_items(query, params, k=5)
        assert [e[0] for e in got.entries] == [r[1] for r in ref_rank]
        for (item, dv), (rd, _) in zip(got.entries, ref_rank):
            worst = max(worst, abs(dv - rd))

    announce("oracle-equivalence", worst < 1e-10,
             f"max |impl - straight-line oracle| = {worst:.2e} (< 1e-10)")


# ---------------------------------------------------------------------------
# criterion 4: metric fixtures (exact)
# ---------------------------------------------------------------------------

def test_metric_fixtures():
    # each case is the target's 1-based rank, or None for a miss
    cases = [(1, "T"), (4, "T"), (None, "T"), (2, "T"), (None, "T")]
    mrr, prec = mrr_at_k(cases, 20), p_at_k(cases, 20)
    announce("metric-fixtures",
             mrr == 0.35 and prec == 0.6,
             f"ranks (1,4,miss,2,miss)@20 -> MRR={mrr} (=0.35 exactly), P={prec} (=0.6 exactly)")


# ---------------------------------------------------------------------------
# criterion 5: overfit check (< 2 min)
# ---------------------------------------------------------------------------

def test_overfit_check():
    start = time.perf_counter()
    # dataset chosen (seed-scanned) so the 10 sessions end on pairwise
    # distinct items: a memorization check needs separable contexts.  The
    # learning rate sits below the onset of full-batch oscillation.
    synth = data.generate_synthetic(20, 10, seed=76)
    config = train.TrainConfig(dim=16, learning_rate=0.006, epochs=200,
                               batch_size=10, seed=11, lambda_s=0.0, lambda_v=0.0)
    norm = config.normalizer()
    examples = train.examples_from_records(synth.records, norm)
    assert len(examples) == 10
    lasts = [ex.graph.nodes[ex.graph.last_index] for ex in examples]
    assert len(set(lasts)) == 10

    res = train.fit(examples, config, vocab=synth.items)
    hits = 0
    for ex in examples:
        fw = model.forward_session(ex.graph, ex.target_interval, res.params)
        ranked = model.score_items(fw.item_future, res.params, k=1)
        hits += ranked.entries[0][0] == ex.target_item
    dec = sum(b < a for a, b in zip(res.epoch_losses, res.epoch_losses[1:]))
    frac = dec / (len(res.epoch_losses) - 1)
    elapsed = time.perf_counter() - start

    assert min(res.collapse_trace) > 1e-3  # collapse monitor
    announce("overfit-check",
             hits >= 9 and frac >= 0.9 and elapsed < 120.0,
             f"rank-1 hits {hits}/10 (>= 9), decreasing pairs {frac:.2f} (>= 0.9), "
             f"{elapsed:.0f}s (< 120s)")


# ---------------------------------------------------------------------------
# criterion 6: signal recovery at desk scale (< 5 min)
# ---------------------------------------------------------------------------

def chance_mrr_at_k(k, n_items):
    """Expected reciprocal rank of a uniformly ranked target, counted only
    inside the top k: brute-force enumeration over all ranks."""
    return sum(1.0 / r for r in range(1, k + 1)) / n_items


@pytest.fixture(scope="module")
def signal_run():
    start = time.perf_counter()
    synth = data.generate_synthetic(100, 2000, seed=7, interval_signal=True)
    n_train = int(len(synth.records) * 0.8)
    train_recs, test_recs = synth.records[:n_train], synth.records[n_train:]

    config = train.TrainConfig(dim=16, learning_rate=0.02, epochs=6,
                               batch_size=64, seed=3)
    norm = config.normalizer()
    examples = train.examples_from_records(train_recs, norm)
    res = train.fit(examples, config, vocab=synth.items)
    report = ev.evaluate(res.params, test_recs, k=5, norm=norm)
    spop_mrr, spop_p = ev.popularity_baseline(train_recs, test_recs, 5, synth.items)
    return {
        "mrr": report.mrr_at_k,
        "p": report.p_at_k,
        "spop_mrr": spop_mrr,
        "chance": chance_mrr_at_k(5, 100),
        "collapse": min(res.collapse_trace),
        "elapsed": time.perf_counter() - start,
    }


def test_signal_recovery(signal_run):
    s = signal_run
    bar = 1.2 * max(s["chance"], s["spop_mrr"])
    announce("signal-recovery",
             s["mrr"] >= bar and s["elapsed"] < 300.0 and s["collapse"] > 1e-3,
             f"MRR@5={s['mrr']:.4f} >= 1.2*max(chance {s['chance']:.4f}, "
             f"S-POP {s['spop_mrr']:.4f}) = {bar:.4f}; "
             f"{s['elapsed']:.0f}s (< 300s)")


# ---------------------------------------------------------------------------
# criterion 7: determinism and checkpoint round-trip
# ---------------------------------------------------------------------------

def test_determinism(tmp_path):
    synth_dir = tmp_path / "dataset"
    assert cli_main(["synth", "--items", "15", "--sessions", "60", "--seed", "9",
                     "--interval-signal", "--outdir", str(synth_dir)]) == 0
    reports = []
    checkpoints = []
    for tag in ("run1", "run2"):
        ck = tmp_path / f"{tag}.npz"
        rp = tmp_path / f"{tag}.csv"
        assert cli_main(["train", "--data", str(synth_dir), "--dim", "8",
                         "--lr", "0.02", "--epochs", "3", "--batch", "16",
                         "--seed", "4", "--checkpoint", str(ck)]) == 0
        assert cli_main(["evaluate", "--checkpoint", str(ck), "--data",
                         str(synth_dir), "--k", "5", "--report", str(rp)]) == 0
        reports.append(rp.read_bytes())
        checkpoints.append(ck)

    identical = reports[0] == reports[1]

    params, config = train.load_checkpoint(checkpoints[0])
    split = data.load_split(synth_dir)
    r_mem = ev.evaluate(params, split.test, 5, config.normalizer())
    params2, config2 = train.load_checkpoint(checkpoints[0])
    r_reload = ev.evaluate(params2, split.test, 5, config2.normalizer())
    roundtrip = (r_mem.mrr_at_k == r_reload.mrr_at_k
                 and r_mem.p_at_k == r_reload.p_at_k)

    announce("determinism",
             identical and roundtrip,
             f"reports byte-identical={identical}, checkpoint round-trip "
             f"metrics exact={roundtrip}")


# ---------------------------------------------------------------------------
# criterion 8: paper-scale results documented, not gated
# ---------------------------------------------------------------------------

REFERENCE_FULL_SCALE = {
    "Diginetica": (19.73, 56.28),
    "Yoochoose 1/64": (32.90, 72.75),
    "Yoochoose 1/4": (32.94, 73.56),
}
REFERENCE_PREPROCESS = {
    "Diginetica": (43_097, 719_470, 60_858),
    "Yoochoose 1/64": (16_766, 369_859, 55_898),
    "Yoochoose 1/4": (29_618, 5_917_746, 55_898),
}


def test_full_scale_documented_not_gated(signal_run):
    readme = open("README.md", encoding="utf-8").read()
    documented = all(
        f"{mrr:.2f}" in readme and f"{p:.2f}" in readme
        for mrr, p in REFERENCE_FULL_SCALE.values()
    )
    invocation = "preprocess --format yoochoose" in readme and \
        "preprocess --format diginetica" in readme and "train --data" in readme
    counts = all(f"{items:,}" in readme for items, _, _ in REFERENCE_PREPROCESS.values())

    print("\n    desk-scale (100 items, synthetic) vs reference full-scale numbers:")
    print(f"    ours: MRR@5={signal_run['mrr']:.4f} P@5={signal_run['p']:.4f} "
          f"(synthetic, NOT comparable)")
    for name, (mrr, p) in REFERENCE_FULL_SCALE.items():
        print(f"    reference {name}: MRR@20={mrr} P@20={p} (full data, no gate)")
    announce("full-scale-documentation",
             documented and invocation and counts,
             "README documents the full-data invocations, reference metrics "
             "and preprocessing statistics; desk-scale numbers reported "
             "alongside without a pass/fail gate")
