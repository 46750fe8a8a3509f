"""Tests for embedding snapshots (save/load trained embeddings) and for
training-state checkpoints (parameters plus optimizer state)."""

import numpy as np
import pytest

from repro.approaches import get_approach
from repro.pipeline import EmbeddingSnapshot, load_snapshot, save_snapshot


@pytest.fixture(scope="module")
def snapshot_setup():
    from repro.approaches import ApproachConfig
    from repro.datagen import benchmark_pair

    pair = benchmark_pair("EN-FR", size=150, method="direct", seed=0)
    split = pair.split(seed=0)
    approach = get_approach("BootEA", ApproachConfig(dim=16, epochs=10,
                                                     valid_every=5))
    approach.fit(pair, split)
    snapshot = EmbeddingSnapshot.from_approach(approach, split.test)
    return approach, split, snapshot


def test_snapshot_matches_approach_metrics(snapshot_setup):
    approach, split, snapshot = snapshot_setup
    original = approach.evaluate(split.test, hits_at=(1, 5))
    frozen = snapshot.evaluate(split.test, hits_at=(1, 5))
    assert frozen.hits_at(1) == pytest.approx(original.hits_at(1))
    assert frozen.mrr == pytest.approx(original.mrr)


def test_snapshot_predict_matches(snapshot_setup):
    approach, split, snapshot = snapshot_setup
    assert snapshot.predict(split.test) == approach.predict(split.test)


def test_snapshot_roundtrip(snapshot_setup, tmp_path):
    _, split, snapshot = snapshot_setup
    path = tmp_path / "emb.npz"
    save_snapshot(snapshot, path)
    loaded = load_snapshot(path)
    assert loaded.name == snapshot.name
    assert loaded.metric == snapshot.metric
    np.testing.assert_allclose(loaded.source_matrix, snapshot.source_matrix)
    before = snapshot.evaluate(split.test, hits_at=(1,)).hits_at(1)
    after = loaded.evaluate(split.test, hits_at=(1,)).hits_at(1)
    assert before == pytest.approx(after)


def test_snapshot_csls_and_strategies(snapshot_setup):
    _, split, snapshot = snapshot_setup
    plain = snapshot.evaluate(split.test, hits_at=(1,))
    scaled = snapshot.evaluate(split.test, hits_at=(1,), csls_k=5)
    assert np.isfinite(scaled.mr)
    sm = snapshot.predict(split.test, strategy="stable_marriage")
    rights = [b for _, b in sm]
    assert len(rights) == len(set(rights))
    del plain


def test_snapshot_validates_shapes():
    with pytest.raises(ValueError):
        EmbeddingSnapshot(["a"], np.zeros((2, 3)), ["b"], np.zeros((1, 3)))
    with pytest.raises(ValueError):
        EmbeddingSnapshot(["a"], np.zeros((1, 3)), ["b", "c"], np.zeros((1, 3)))


def test_training_state_validates_parameter_count_and_shape(tmp_path):
    from repro.approaches import CheckpointCorruption, TrainingCheckpointer
    from repro.autodiff import Parameter

    checkpointer = TrainingCheckpointer(tmp_path)
    checkpointer.save(epoch=1, parameters=[Parameter(np.ones((3, 2)))])
    with pytest.raises(CheckpointCorruption, match="holds 1 parameters"):
        checkpointer.restore([])
    with pytest.raises(CheckpointCorruption, match="shape mismatch"):
        checkpointer.restore([Parameter(np.ones((2, 2)))])


def test_training_state_without_optimizer(tmp_path):
    from repro.approaches import TrainingCheckpointer
    from repro.autodiff import Parameter

    params = [Parameter(np.arange(6.0).reshape(3, 2))]
    TrainingCheckpointer(tmp_path).save(epoch=1, parameters=params)
    fresh = [Parameter(np.zeros((3, 2)))]
    TrainingCheckpointer(tmp_path).restore(fresh)
    np.testing.assert_array_equal(fresh[0].data, params[0].data)
