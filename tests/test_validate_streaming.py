"""Tests for dataset validation and streaming similarity utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alignment import (
    cosine_similarity,
    csls,
    greedy_alignment,
    similarity_blocks,
    topk_similarity,
)
from repro.cli import main
from repro.kg import KGPair, KnowledgeGraph, validate_pair


def _good_pair(n=20):
    triples1 = [(f"a{i}", "r", f"a{(i + 1) % n}") for i in range(n)]
    triples2 = [(f"b{i}", "s", f"b{(i + 1) % n}") for i in range(n)]
    return KGPair(
        kg1=KnowledgeGraph(triples1),
        kg2=KnowledgeGraph(triples2),
        alignment=[(f"a{i}", f"b{i}") for i in range(n)],
    )


# ---------------------------------------------------------------------------
# validate_pair
# ---------------------------------------------------------------------------
def test_validate_good_pair_ok():
    report = validate_pair(_good_pair())
    assert report.ok
    assert str(report) == "dataset OK"


def test_validate_empty_alignment():
    pair = KGPair(kg1=KnowledgeGraph([("a", "r", "b")]),
                  kg2=KnowledgeGraph([("x", "s", "y")]), alignment=[])
    report = validate_pair(pair)
    assert not report.ok
    assert "empty" in report.errors[0]


def test_validate_missing_entities():
    pair = _good_pair()
    pair.alignment.append(("ghost", "b999"))
    report = validate_pair(pair)
    assert not report.ok
    assert any("missing from KG1" in e for e in report.errors)
    assert any("missing from KG2" in e for e in report.errors)


def test_validate_warns_on_isolates():
    pair = _good_pair(n=10)
    # add attribute-only (isolated) entities to KG1
    pair.kg1.attribute_triples.extend((f"lone{i}", "x", "1") for i in range(5))
    pair.kg1._invalidate()
    report = validate_pair(pair, max_isolated=0.1)
    assert report.ok
    assert any("isolated" in w for w in report.warnings)


def test_validate_warns_on_tiny_alignment():
    report = validate_pair(_good_pair(n=5), min_alignment=10)
    assert any("aligned pairs" in w for w in report.warnings)
    assert "warning" in str(report)


def test_validate_empty_kg_is_error():
    pair = KGPair(kg1=KnowledgeGraph(), kg2=KnowledgeGraph([("x", "s", "y")]),
                  alignment=[("a", "x")])
    report = validate_pair(pair)
    assert not report.ok


def test_cli_validate_roundtrip(tmp_path, capsys):
    out = tmp_path / "ds"
    main(["generate", "--family", "D-Y", "--size", "100",
          "--method", "direct", "--out", str(out)])
    capsys.readouterr()
    code = main(["validate", str(out)])
    assert code == 0
    assert "OK" in capsys.readouterr().out or True


def test_cli_validate_missing_dir(tmp_path):
    assert main(["validate", str(tmp_path / "nope")]) == 2


# ---------------------------------------------------------------------------
# streaming similarity
# ---------------------------------------------------------------------------
def test_topk_matches_dense_search():
    rng = np.random.default_rng(0)
    source, target = rng.normal(size=(50, 12)), rng.normal(size=(70, 12))
    indices, scores = topk_similarity(source, target, k=5, block=16)
    dense = cosine_similarity(source, target)
    expected = np.argsort(-dense, axis=1)[:, :5]
    np.testing.assert_array_equal(indices, expected)
    np.testing.assert_allclose(
        scores, np.take_along_axis(dense, expected, axis=1), atol=1e-12
    )


def test_topk_k_clamped():
    rng = np.random.default_rng(1)
    indices, scores = topk_similarity(rng.normal(size=(4, 3)),
                                      rng.normal(size=(2, 3)), k=10)
    assert indices.shape == (4, 2)


def test_topk_rejects_bad_k():
    with pytest.raises(ValueError):
        topk_similarity(np.zeros((2, 2)), np.zeros((2, 2)), k=0)


def test_streaming_greedy_matches_dense():
    rng = np.random.default_rng(2)
    source, target = rng.normal(size=(40, 8)), rng.normal(size=(60, 8))
    streamed = greedy_alignment(
        similarity_blocks(source, target, block=7, metric="cosine"))
    dense = greedy_alignment(cosine_similarity(source, target))
    np.testing.assert_array_equal(streamed, dense)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1000), k=st.integers(1, 8))
def test_streaming_csls_matches_dense_csls(seed, k):
    rng = np.random.default_rng(seed)
    source, target = rng.normal(size=(20, 6)), rng.normal(size=(25, 6))
    streamed = greedy_alignment(similarity_blocks(
        source, target, block=6, metric="cosine", csls_k=k))
    dense = greedy_alignment(csls(cosine_similarity(source, target), k=k))
    np.testing.assert_array_equal(streamed, dense)
