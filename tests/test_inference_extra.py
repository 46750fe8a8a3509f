"""Tests for cos/sin ops, heuristic matching and TuckER additions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alignment import (
    INFERENCE_STRATEGIES,
    greedy_alignment,
    heuristic_matching,
    infer_alignment,
    mutual_nearest,
    stable_marriage,
)
from repro.autodiff import Tensor, check_gradients
from repro.embedding import RELATION_MODELS, TuckER


# ---------------------------------------------------------------------------
# cos/sin tensor ops
# ---------------------------------------------------------------------------
def test_cos_sin_values():
    x = Tensor(np.array([0.0, np.pi / 2, np.pi]), requires_grad=True)
    np.testing.assert_allclose(x.cos().data, [1.0, 0.0, -1.0], atol=1e-12)
    np.testing.assert_allclose(x.sin().data, [0.0, 1.0, 0.0], atol=1e-12)


def test_cos_sin_gradients():
    rng = np.random.default_rng(0)
    check_gradients(lambda t: t.cos(), [rng.normal(size=(3, 4))])
    check_gradients(lambda t: t.sin(), [rng.normal(size=(3, 4))])


def test_pythagorean_identity_gradient_free():
    x = Tensor(np.random.default_rng(1).normal(size=7), requires_grad=True)
    out = x.cos().square() + x.sin().square()
    np.testing.assert_allclose(out.data, np.ones(7), atol=1e-12)
    out.sum().backward()
    np.testing.assert_allclose(x.grad, np.zeros(7), atol=1e-10)


# ---------------------------------------------------------------------------
# heuristic matching
# ---------------------------------------------------------------------------
def test_heuristic_matching_registered():
    assert "heuristic" in INFERENCE_STRATEGIES
    sim = np.eye(4)
    assert infer_alignment(sim, "heuristic").tolist() == [0, 1, 2, 3]


def test_heuristic_matching_one_to_one():
    sim = np.random.default_rng(0).normal(size=(15, 15))
    match = heuristic_matching(sim)
    matched = match[match >= 0]
    assert len(set(matched.tolist())) == len(matched)
    assert len(matched) == 15


def test_heuristic_resolves_conflicts_by_similarity():
    sim = np.array([
        [0.9, 0.1],
        [0.8, 0.7],
    ])
    # both rows prefer column 0; row 0 wins (higher), row 1 takes column 1
    assert heuristic_matching(sim).tolist() == [0, 1]


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 10), seed=st.integers(0, 1000))
def test_heuristic_between_greedy_and_stable_total(n, seed):
    """Heuristic matching achieves at least stable marriage's quality on
    its committed mutual pairs (weak sanity: all matched, no dupes)."""
    sim = np.random.default_rng(seed).normal(size=(n, n))
    heuristic = heuristic_matching(sim)
    sm = stable_marriage(sim)
    assert sorted(heuristic.tolist()) == sorted(sm.tolist()) == list(range(n))
    # mutual nearest neighbors are always kept by the heuristic
    row_best = greedy_alignment(sim)
    col_best = sim.argmax(axis=0)
    for i in range(n):
        j = row_best[i]
        if col_best[j] == i:
            assert heuristic[i] == j


def test_mutual_nearest_threshold_and_mutuality():
    sim = np.array([[0.9, 0.1, 0.0],
                    [0.8, 0.2, 0.1],   # row 1's best column prefers row 0
                    [0.0, 0.3, 0.4]])
    # eye(3) @ sim.T.T rebuilds the matrix exactly
    source, target = np.eye(3), sim.T
    assert mutual_nearest(source, target) == [(0, 0), (2, 2)]
    assert mutual_nearest(source, target, threshold=0.5) == [(0, 0)]
    assert mutual_nearest(source, target, mutual=False) == [
        (0, 0), (1, 0), (2, 2)]
    assert mutual_nearest(source, target, threshold=0.5, mutual=False) == [
        (0, 0), (1, 0)]
    assert mutual_nearest(np.zeros((0, 3)), np.zeros((3, 3))) == []
    assert mutual_nearest(np.zeros((2, 3)), np.zeros((0, 3))) == []


def test_heuristic_rectangular_more_sources():
    sim = np.random.default_rng(3).normal(size=(7, 4))
    match = heuristic_matching(sim)
    matched = match[match >= 0]
    assert len(matched) == 4
    assert len(set(matched.tolist())) == 4


# ---------------------------------------------------------------------------
# TuckER
# ---------------------------------------------------------------------------
def test_tucker_registered_and_trains():
    assert "tucker" in RELATION_MODELS
    rng = np.random.default_rng(0)
    model = TuckER(12, 3, 8, rng)
    from repro.autodiff import Adam
    from repro.embedding import margin_ranking_loss, uniform_corrupt

    positives = np.array([(i, i % 3, (i + 1) % 12) for i in range(12)])
    optimizer = Adam(model.parameters(), lr=0.05)
    for _ in range(40):
        negatives = uniform_corrupt(positives, 12, 1, rng)
        optimizer.zero_grad()
        pos = model.score(positives[:, 0], positives[:, 1], positives[:, 2])
        neg = model.score(negatives[:, 0], negatives[:, 1], negatives[:, 2])
        margin_ranking_loss(pos, neg, margin=1.0).backward()
        optimizer.step()
    negatives = uniform_corrupt(positives, 12, 5, rng)
    pos = model.score(positives[:, 0], positives[:, 1], positives[:, 2]).data.mean()
    neg = model.score(negatives[:, 0], negatives[:, 1], negatives[:, 2]).data.mean()
    assert pos > neg


def test_tucker_core_identity_reduces_to_distmult_like():
    rng = np.random.default_rng(1)
    model = TuckER(6, 2, 4, rng)
    model.core.data[...] = np.stack([np.eye(4)] * 4)
    # with identity slices, M_r = sum_k r_k I = (sum r) I
    h = model.entities.all_embeddings()[0]
    r = model.relations.all_embeddings()[1]
    t = model.entities.all_embeddings()[3]
    expected = float(r.sum() * (h @ t))
    score = float(model.score([0], [1], [3]).data[0])
    assert score == pytest.approx(expected, rel=1e-9)
