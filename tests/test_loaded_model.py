"""What ``fit`` and ``load_checkpoint`` return is read-only and keeps one
projected catalog.  A loaded array's flag cannot be set back, a fit array's
can.  Writable arrays, copies and overrides are projected afresh, so no table
goes stale."""

import copy
from dataclasses import replace

import numpy as np
import pytest
from oracles import rand_ball

from hypersess import data, evaluate as ev, model, train
from hypersess.model import ItemTable

CONFIG = train.TrainConfig(dim=8, learning_rate=0.05, epochs=1, batch_size=8, seed=6)
K = 5


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    synth = data.generate_synthetic(20, 30, seed=3)
    examples = train.examples_from_records(synth.records[:24], CONFIG.normalizer())
    params = train.fit(examples, CONFIG, vocab=synth.items).params
    path = tmp_path_factory.mktemp("ck") / "model.npz"
    train.save_checkpoint(path, params, CONFIG)
    return path, examples, synth.records[24:]


@pytest.fixture
def loaded(saved):
    return train.load_checkpoint(saved[0])[0]


@pytest.fixture
def fitted(saved, loaded):
    return train.fit(saved[1], CONFIG, vocab=loaded.items).params


@pytest.fixture
def projections(monkeypatch):
    calls = []
    project = model.project_item_table

    def counted(p):
        calls.append(p)
        return project(p)

    monkeypatch.setattr(model, "project_item_table", counted)
    return calls


def query(seed=0):
    return rand_ball(np.random.default_rng(seed), CONFIG.dim, 0.5)


@pytest.mark.parametrize("name", train.ARRAY_FIELDS)
def test_loaded_arrays_are_read_only(loaded, name):
    with pytest.raises(ValueError, match="read-only"):
        getattr(loaded, name).flat[0] = 0.0


@pytest.mark.parametrize("name", train.ARRAY_FIELDS)
def test_loaded_arrays_stay_read_only(loaded, name):
    array = getattr(loaded, name)
    with pytest.raises(ValueError, match="WRITEABLE"):
        array.flags.writeable = True
    # every base down to the file's bytes refuses a write as well
    base = array.base
    while isinstance(base, np.ndarray):
        with pytest.raises(ValueError, match="read-only"):
            base[...] = 0.0
        with pytest.raises(ValueError, match="WRITEABLE"):
            base.flags.writeable = True
        base = base.base
    assert isinstance(base, bytes)
    with pytest.raises(TypeError):
        memoryview(base)[0] = 0


def test_fit_refuses_loaded_params(saved, loaded):
    before = {name: getattr(loaded, name).copy() for name in train.ARRAY_FIELDS}
    with pytest.raises(ValueError, match="read-only.*train a copy"):
        train.fit(saved[1], CONFIG, params=loaded)
    for name, array in before.items():
        assert getattr(loaded, name).tobytes() == array.tobytes()


def test_trained_copy_scores_its_own_rows(saved, loaded):
    point = query()
    ranked = model.score_items(point, loaded, K)
    trained = copy.deepcopy(loaded)
    assert "_item_table" not in vars(trained)
    assert all(getattr(trained, name).flags.writeable for name in train.ARRAY_FIELDS)
    train.fit(saved[1], CONFIG, params=trained)
    assert not np.array_equal(trained.item_features, loaded.item_features)
    assert model.score_items(point, trained, K) == ItemTable(trained).top_k(point, K)
    assert model.score_items(point, loaded, K) == ranked == ItemTable(loaded).top_k(point, K)


def test_loaded_model_projects_once(saved, loaded, projections):
    ev.evaluate(loaded, saved[2], K, CONFIG.normalizer())
    for seed in range(5):
        model.score_items(query(seed), loaded, K)
    assert len(projections) == 1


def test_table_not_served_once_writable(loaded, projections):
    # a loaded array's flag cannot be set back, so the rows are a read-only copy
    loaded.item_features = loaded.item_features.copy()
    loaded.item_features.flags.writeable = False
    point = query()
    first = model.score_items(point, loaded, K)
    loaded.item_features.flags.writeable = True
    loaded.item_features[:] = loaded.item_features[::-1].copy()
    again = [model.score_items(point, loaded, K) for _ in range(2)]
    assert len(projections) == 3
    assert again[0] == again[1] == ItemTable(loaded).top_k(point, K) != first


@pytest.mark.parametrize("name", ["item_features", "feat_proj"])
@pytest.mark.parametrize("writable", [True, False])
def test_new_array_projects_afresh(loaded, projections, name, writable):
    point = query()
    before = model.score_items(point, loaded, K)
    replaced = np.random.default_rng(1).permutation(getattr(loaded, name))
    replaced.flags.writeable = writable
    setattr(loaded, name, replaced)
    after = model.score_items(point, loaded, K)
    assert len(projections) == 2
    assert after == ItemTable(loaded).top_k(point, K) != before


def test_bound_params_score_their_override(loaded):
    point = query()
    kept = model.score_items(point, loaded, K)
    override = np.random.default_rng(2).permutation(loaded.feat_proj)
    override.flags.writeable = False
    bound = replace(loaded, feat_proj=override)
    got = model.score_items(point, bound, K)
    assert got == ItemTable(bound).top_k(point, K) != kept
    assert model.score_items(point, loaded, K) == kept


@pytest.mark.parametrize("name", train.ARRAY_FIELDS)
def test_fit_arrays_are_read_only(fitted, name):
    assert not getattr(fitted, name).flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        getattr(fitted, name).flat[0] = 0.0


def test_fit_result_projects_once(saved, fitted, projections):
    ev.evaluate(fitted, saved[2], K, CONFIG.normalizer())
    ranked = [model.score_items(query(seed), fitted, K) for seed in range(5)]
    assert len(projections) == 1
    assert ranked == [ItemTable(fitted).top_k(query(seed), K) for seed in range(5)]


def test_fit_refuses_its_own_result(saved, fitted):
    with pytest.raises(ValueError, match="read-only, as fit and load_checkpoint .*train a copy"):
        train.fit(saved[1], CONFIG, params=fitted)


def test_copy_of_fit_result_trains(saved, fitted):
    trained = copy.deepcopy(fitted)
    assert all(getattr(trained, name).flags.writeable for name in train.ARRAY_FIELDS)
    train.fit(saved[1], CONFIG, params=trained)
    assert not np.array_equal(trained.item_features, fitted.item_features)
    # trained in place, and read-only again
    assert not any(getattr(trained, name).flags.writeable for name in train.ARRAY_FIELDS)


def test_fit_table_dropped_once_writable(fitted, projections):
    point = query()
    first = [model.score_items(point, fitted, K) for _ in range(2)]
    assert len(projections) == 1
    fitted.item_features.flags.writeable = True
    fitted.item_features[:] = fitted.item_features[::-1].copy()
    again = [model.score_items(point, fitted, K) for _ in range(2)]
    assert len(projections) == 3
    assert again[0] == again[1] == ItemTable(fitted).top_k(point, K) != first[0]
    # frozen again, the new rows are kept
    fitted.item_features.flags.writeable = False
    kept = [model.score_items(point, fitted, K) for _ in range(2)]
    assert len(projections) == 5
    assert kept == again
