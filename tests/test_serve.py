"""Tests for the serving layer: store, indexes, engine, metrics, CLI."""

import json

import numpy as np
import pytest

from repro.pipeline.checkpoint import EmbeddingSnapshot
from repro.serve import (
    EmbeddingStore,
    ExactIndex,
    IVFIndex,
    LSHIndex,
    QueryEngine,
    ServingMetrics,
    StoredEmbeddings,
    make_index,
    recall_vs_exact,
)


# ---------------------------------------------------------------------------
# fixtures: a clustered world shaped like trained alignment embeddings
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def clustered_world():
    rng = np.random.default_rng(7)
    n, dim = 600, 32
    centers = rng.normal(size=(12, dim))
    target = centers[rng.integers(0, 12, size=n)] \
        + 0.3 * rng.normal(size=(n, dim))
    source = target + 0.1 * rng.normal(size=(n, dim))
    return source, target


@pytest.fixture(scope="module")
def stored(clustered_world):
    source, target = clustered_world
    return StoredEmbeddings(
        version="v001",
        sources=[f"s{i}" for i in range(len(source))],
        targets=[f"t{i}" for i in range(len(target))],
        source_matrix=source,
        target_matrix=target,
    )


def _snapshot(source, target):
    return EmbeddingSnapshot(
        [f"s{i}" for i in range(len(source))], source,
        [f"t{i}" for i in range(len(target))], target,
    )


# ---------------------------------------------------------------------------
# store
# ---------------------------------------------------------------------------
def test_store_round_trip_identical_vectors(tmp_path, clustered_world):
    source, target = clustered_world
    store = EmbeddingStore(tmp_path / "store")
    version = store.save(_snapshot(source, target), metadata={"note": "x"})
    assert version == "v001"
    loaded = store.load(mmap=True)
    assert isinstance(loaded.source_matrix, np.memmap)
    np.testing.assert_array_equal(np.asarray(loaded.source_matrix), source)
    np.testing.assert_array_equal(np.asarray(loaded.target_matrix), target)
    assert loaded.sources[3] == "s3" and loaded.targets[5] == "t5"
    assert loaded.source_row("s3") == 3
    assert loaded.metadata == {"note": "x"}
    # non-mmap load gives a plain array
    assert not isinstance(store.load(mmap=False).source_matrix, np.memmap)


def test_store_versioning_and_manifest(tmp_path, clustered_world):
    source, target = clustered_world
    store = EmbeddingStore(tmp_path / "store")
    store.save(_snapshot(source, target))
    v2 = store.save(_snapshot(source * 2.0, target))
    assert store.versions() == ["v001", "v002"]
    assert store.latest() == "v002"
    # default load is the latest; explicit version works too
    np.testing.assert_array_equal(
        np.asarray(store.load().source_matrix), source * 2.0)
    np.testing.assert_array_equal(
        np.asarray(store.load("v001").source_matrix), source)
    assert store.load(v2).version == "v002"
    manifest = json.loads(
        (tmp_path / "store" / "manifest.json").read_text())
    assert [e["id"] for e in manifest["versions"]] == ["v001", "v002"]
    assert manifest["versions"][0]["checksums"]["source_matrix.npy"]


def test_store_errors(tmp_path, clustered_world):
    source, target = clustered_world
    store = EmbeddingStore(tmp_path / "store")
    with pytest.raises(FileNotFoundError):
        store.load()
    store.save(_snapshot(source, target))
    with pytest.raises(KeyError):
        store.load("v999")


def test_store_save_cv_result(tmp_path, enfr_pair, fast_config):
    from repro.approaches import get_approach
    from repro.pipeline import cross_validate

    result = cross_validate(
        lambda: get_approach("MTransE", fast_config), enfr_pair,
        n_folds=2,
    )
    store = EmbeddingStore(tmp_path / "store")
    version = store.save_cv_result(result, enfr_pair.alignment)
    loaded = store.load(version)
    assert loaded.name == "MTransE"
    assert len(loaded.sources) == len(enfr_pair.alignment)
    assert "hits@1" in loaded.metadata and "fold" in loaded.metadata


# ---------------------------------------------------------------------------
# indexes
# ---------------------------------------------------------------------------
def test_exact_index_matches_brute_force(clustered_world):
    source, target = clustered_world
    index = ExactIndex()
    index.build(target)
    ids, scores = index.search(source[:50], k=5)
    sn = source[:50] / np.linalg.norm(source[:50], axis=1, keepdims=True)
    tn = target / np.linalg.norm(target, axis=1, keepdims=True)
    sim = sn @ tn.T
    np.testing.assert_array_equal(ids[:, 0], sim.argmax(axis=1))
    assert (np.diff(scores, axis=1) <= 1e-12).all()  # sorted descending


@pytest.mark.parametrize("kind,params", [
    ("lsh", {"n_bits": 5, "n_tables": 6, "probes": 1}),
    ("ivf", {"n_probe": 4}),
])
def test_approximate_recall_at_10(clustered_world, kind, params):
    source, target = clustered_world
    index = make_index(kind, **params)
    index.build(target)
    recall = recall_vs_exact(index, source, target, k=10, sample=200, seed=0)
    assert recall >= 0.9, f"{kind} recall@10 {recall:.3f} < 0.9"


def test_lsh_empty_bucket_fallback_in_search():
    rng = np.random.default_rng(1)
    target = rng.normal(size=(20, 16))
    index = LSHIndex(n_bits=10, n_tables=1, probes=0)
    index.build(target)
    # orthogonal-ish queries: with 2^10 buckets and 20 vectors, most
    # queries hash into empty buckets — the fallback must still answer
    queries = rng.normal(size=(40, 16))
    ids, scores = index.search(queries, k=3)
    assert (ids >= 0).all()
    assert np.isfinite(scores).all()


def test_index_pads_when_k_exceeds_entities():
    rng = np.random.default_rng(2)
    target = rng.normal(size=(4, 8))
    for kind in ("exact", "lsh", "ivf"):
        index = make_index(kind)
        index.build(target)
        ids, scores = index.search(rng.normal(size=(3, 8)), k=6)
        assert ids.shape == (3, 6) and scores.shape == (3, 6)
        assert (ids[:, 4:] == -1).all()
        assert set(ids[0, :4].tolist()) == {0, 1, 2, 3}


def test_index_validation_errors():
    index = ExactIndex()
    with pytest.raises(RuntimeError):
        index.search(np.zeros((1, 4)))
    index.build(np.eye(4))
    with pytest.raises(ValueError):
        index.search(np.zeros((1, 4)), k=0)
    with pytest.raises(KeyError):
        make_index("hnsw")
    with pytest.raises(ValueError):
        IVFIndex(n_probe=0)
    with pytest.raises(ValueError):
        LSHIndex(probes=-1)


def test_ivf_handles_fewer_points_than_clusters():
    rng = np.random.default_rng(3)
    target = rng.normal(size=(5, 8))
    index = IVFIndex(n_clusters=32, n_probe=8)
    index.build(target)
    ids, _ = index.search(rng.normal(size=(2, 8)), k=5)
    assert set(ids[0].tolist()) == {0, 1, 2, 3, 4}


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------
def test_engine_query_and_confidence(stored):
    engine = QueryEngine(stored, index="exact", k=5)
    result = engine.query("s0")
    assert result.query == "s0"
    assert len(result.neighbors) == 5
    assert result.best == result.neighbors[0][0]
    scores = [score for _, score in result.neighbors]
    assert scores == sorted(scores, reverse=True)
    assert result.confidence == pytest.approx(scores[0] - scores[1])


def test_engine_cache_accounting(stored):
    engine = QueryEngine(stored, index="exact", k=3, cache_size=10)
    engine.query("s1")
    assert engine.metrics.cache_misses == 1
    assert engine.metrics.cache_hits == 0
    repeat = engine.query("s1")
    assert engine.metrics.cache_hits == 1
    assert engine.metrics.cache_misses == 1
    assert repeat.best == engine.query("s1").best
    # a different k is a different cache entry
    engine.query("s1", k=2)
    assert engine.metrics.cache_misses == 2
    assert engine.metrics.cache_hit_rate == pytest.approx(2 / 4)


def test_engine_cache_eviction(stored):
    engine = QueryEngine(stored, index="exact", k=3, cache_size=2)
    engine.query_batch(["s0", "s1", "s2"])  # s0 evicted (LRU)
    assert engine.cache_len == 2
    engine.query("s0")
    assert engine.metrics.cache_hits == 0
    engine.query("s2")
    assert engine.metrics.cache_hits == 1


def test_engine_micro_batching_and_latency(stored):
    metrics = ServingMetrics()
    engine = QueryEngine(stored, index="exact", k=3, batch_size=16,
                         metrics=metrics)
    names = [f"s{i}" for i in range(40)]
    results = engine.query_batch(names)
    assert [r.query for r in results] == names
    assert metrics.batches == 3  # ceil(40 / 16)
    assert metrics.queries == 40
    summary = metrics.summary()
    assert summary["p99_ms"] >= summary["p50_ms"] > 0
    assert metrics.qps > 0


def test_engine_agrees_with_snapshot_similarity(stored):
    # exact serving must reproduce the offline similarity ranking
    engine = QueryEngine(stored, index="exact", k=1)
    similarity = stored.similarity_between(
        stored.sources[:100], stored.targets)
    offline_best = similarity.argmax(axis=1)
    for result, j in zip(engine.query_batch(stored.sources[:100]),
                         offline_best):
        assert result.best == stored.targets[int(j)]


def test_engine_query_vectors(stored):
    engine = QueryEngine(stored, index="ivf", k=4)
    ids, scores = engine.query_vectors(
        np.asarray(stored.source_matrix[:8]))
    assert ids.shape == (8, 4)
    assert engine.metrics.queries == 8


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
def test_latency_histogram_percentiles():
    metrics = ServingMetrics()
    for ms in range(1, 101):
        metrics.record_batch(1, ms / 1e3)
    summary = metrics.latency.summary()
    assert summary["p50_ms"] == pytest.approx(50.5)
    assert summary["p99_ms"] == pytest.approx(99.01)
    assert metrics.queries == 100


def test_recall_vs_exact_is_one_for_exact(clustered_world):
    source, target = clustered_world
    index = ExactIndex()
    index.build(target)
    assert recall_vs_exact(index, source, target, k=10, sample=50) == 1.0


# ---------------------------------------------------------------------------
# CLI smoke
# ---------------------------------------------------------------------------
def test_cli_serve_build_and_query(tmp_path, capsys):
    from repro.cli import main

    store_dir = tmp_path / "store"
    code = main([
        "serve-build", "--store", str(store_dir), "--family", "EN-FR",
        "--size", "120", "--method", "direct", "--dim", "16",
        "--epochs", "3", "--note", "smoke",
    ])
    assert code == 0
    assert "v001" in capsys.readouterr().out
    code = main([
        "serve-query", "--store", str(store_dir), "--index", "ivf",
        "--k", "3", "--sample", "4", "--recall-sample", "20",
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "confidence" in stdout
    assert "recall@3" in stdout
    assert "p95" in stdout


def test_cli_serve_query_errors(tmp_path, capsys):
    from repro.cli import main

    assert main(["serve-query", "--store", str(tmp_path / "nope")]) == 2
    capsys.readouterr()
