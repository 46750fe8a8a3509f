"""Tests for distance metrics, CSLS, inference strategies and evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alignment import (
    INFERENCE_STRATEGIES,
    PRF,
    cosine_similarity,
    csls,
    euclidean_similarity,
    greedy_alignment,
    hungarian_alignment,
    infer_alignment,
    manhattan_similarity,
    prf_metrics,
    rank_metrics,
    similarity_matrix,
    stable_marriage,
)

RNG = np.random.default_rng(11)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
def test_cosine_similarity_values():
    x = np.array([[1.0, 0.0], [0.0, 2.0]])
    y = np.array([[2.0, 0.0], [1.0, 1.0]])
    sim = cosine_similarity(x, y)
    np.testing.assert_allclose(sim[0, 0], 1.0)
    np.testing.assert_allclose(sim[0, 1], 1 / np.sqrt(2))
    np.testing.assert_allclose(sim[1, 0], 0.0)


def test_euclidean_similarity_is_negative_distance():
    x = np.array([[0.0, 0.0]])
    y = np.array([[3.0, 4.0], [0.0, 0.0]])
    sim = euclidean_similarity(x, y)
    np.testing.assert_allclose(sim, [[-5.0, 0.0]], atol=1e-9)


def test_manhattan_similarity_values():
    x = np.array([[0.0, 0.0]])
    y = np.array([[1.0, -2.0]])
    np.testing.assert_allclose(manhattan_similarity(x, y), [[-3.0]])


def test_manhattan_blocking_matches_direct():
    x, y = RNG.normal(size=(37, 5)), RNG.normal(size=(23, 5))
    blocked = manhattan_similarity(x, y)
    direct = -np.abs(x[:, None, :] - y[None, :, :]).sum(axis=2)
    np.testing.assert_allclose(blocked, direct)


def test_similarity_matrix_dispatch_and_error():
    x = RNG.normal(size=(3, 4))
    np.testing.assert_allclose(
        similarity_matrix(x, x, "cosine"), cosine_similarity(x, x)
    )
    with pytest.raises(KeyError):
        similarity_matrix(x, x, "chebyshev")


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1000))
def test_euclidean_self_similarity_is_max(seed):
    x = np.random.default_rng(seed).normal(size=(6, 4))
    sim = euclidean_similarity(x, x)
    assert np.all(np.diag(sim) >= sim.max(axis=1) - 1e-9)


# ---------------------------------------------------------------------------
# CSLS
# ---------------------------------------------------------------------------
def test_csls_penalizes_hubs():
    # target 0 is a hub: similar to every source; target 1 matches source 2 only.
    sim = np.array([
        [0.90, 0.10],
        [0.90, 0.20],
        [0.85, 0.80],
    ])
    adjusted = csls(sim, k=2)
    # greedy on raw sim maps every source to hub 0
    assert greedy_alignment(sim).tolist() == [0, 0, 0]
    # CSLS discounts the hub enough for source 2 to pick target 1
    assert greedy_alignment(adjusted).tolist() == [0, 0, 1]


def test_csls_formula_matches_definition():
    sim = RNG.normal(size=(4, 5))
    k = 2
    adjusted = csls(sim, k=k)
    psi_s = np.sort(sim, axis=1)[:, -k:].mean(axis=1)
    psi_t = np.sort(sim, axis=0)[-k:, :].mean(axis=0)
    expected = 2 * sim - psi_s[:, None] - psi_t[None, :]
    np.testing.assert_allclose(adjusted, expected)


def test_csls_k_clamped_to_matrix_size():
    sim = RNG.normal(size=(2, 3))
    adjusted = csls(sim, k=10)  # larger than both dims
    assert adjusted.shape == sim.shape


def test_csls_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        csls(np.ones((2, 2)), k=0)


# ---------------------------------------------------------------------------
# inference strategies
# ---------------------------------------------------------------------------
def test_greedy_alignment_argmax():
    sim = np.array([[0.1, 0.9], [0.8, 0.2]])
    assert greedy_alignment(sim).tolist() == [1, 0]


def test_stable_marriage_is_stable():
    sim = RNG.normal(size=(8, 8))
    match = stable_marriage(sim)
    # no blocking pair: (s, t) both preferring each other over their matches
    for s in range(8):
        for t in range(8):
            if match[s] == t:
                continue
            holder = np.where(match == t)[0]
            s_prefers = sim[s, t] > sim[s, match[s]]
            t_prefers = len(holder) == 0 or sim[s, t] > sim[holder[0], t]
            assert not (s_prefers and t_prefers)


def test_stable_marriage_one_to_one():
    sim = RNG.normal(size=(10, 10))
    match = stable_marriage(sim)
    assert sorted(match.tolist()) == list(range(10))


def test_stable_marriage_more_sources_than_targets():
    sim = RNG.normal(size=(5, 3))
    match = stable_marriage(sim)
    matched = match[match >= 0]
    assert len(matched) == 3
    assert len(set(matched.tolist())) == 3


def test_hungarian_maximizes_total_similarity():
    sim = np.array([[0.9, 0.8], [0.85, 0.1]])
    # greedy would send both to column 0; hungarian must split
    match = hungarian_alignment(sim)
    assert match.tolist() == [1, 0]


def test_hungarian_rectangle():
    sim = RNG.normal(size=(6, 4))
    match = hungarian_alignment(sim)
    assert (match >= 0).sum() == 4


def test_infer_alignment_dispatch():
    sim = np.eye(3)
    assert infer_alignment(sim, "greedy").tolist() == [0, 1, 2]
    with pytest.raises(KeyError):
        infer_alignment(sim, "psychic")


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
@pytest.mark.parametrize("strategy", sorted(INFERENCE_STRATEGIES))
def test_every_strategy_takes_an_empty_similarity(strategy, shape):
    result = infer_alignment(np.zeros(shape), strategy)
    assert result.dtype == np.int64
    assert result.tolist() == [-1] * shape[0]


def test_stable_marriage_prefers_the_lower_column_on_ties():
    # both sources rank targets 0 and 1 alike; target 0 holds source 1
    # (the higher score), and source 0 takes target 1 after it
    sim = np.array([[0.5, 0.5, 0.1],
                    [0.9, 0.9, 0.1]])
    assert stable_marriage(sim).tolist() == [1, 0]


def test_hungarian_beats_or_ties_greedy_on_total():
    for seed in range(5):
        sim = np.random.default_rng(seed).normal(size=(12, 12))
        greedy_total = sim[np.arange(12), greedy_alignment(sim)].sum()
        hungarian_total = sim[np.arange(12), hungarian_alignment(sim)].sum()
        # Greedy double-counts targets, so compare only valid assignments:
        assert hungarian_total >= sim[np.arange(12), stable_marriage(sim)].sum() - 1e-9
        del greedy_total


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------
def test_rank_metrics_perfect():
    sim = np.eye(4)
    metrics = rank_metrics(sim, np.arange(4))
    assert metrics.hits_at(1) == 1.0
    assert metrics.mr == 1.0
    assert metrics.mrr == 1.0


def test_rank_metrics_known_ranks():
    sim = np.array([
        [0.9, 0.5, 0.1],  # gold 0 -> rank 1
        [0.9, 0.5, 0.1],  # gold 2 -> rank 3
    ])
    metrics = rank_metrics(sim, np.array([0, 2]), hits_at=(1, 2))
    assert metrics.hits_at(1) == 0.5
    assert metrics.hits_at(2) == 0.5
    assert metrics.mr == pytest.approx(2.0)
    assert metrics.mrr == pytest.approx((1.0 + 1 / 3) / 2)


def test_rank_metrics_empty():
    metrics = rank_metrics(np.zeros((0, 3)), np.zeros(0, dtype=int))
    assert metrics.n == 0
    assert metrics.mr == 0.0
    assert metrics.mrr == 0.0
    # the default cutoffs are present (all zero) so downstream code can
    # read hits_at(1) off an empty evaluation without special-casing
    assert metrics.hits == {1: 0.0, 5: 0.0, 10: 0.0}
    str(metrics)  # renders without dividing by n


def test_rank_metrics_cutoff_beyond_candidate_count():
    """hits_at m larger than the candidate pool saturates at 1.0: every
    rank is <= the number of candidates, so the cutoff catches all."""
    sim = np.array([[0.9, 0.1], [0.9, 0.1]])
    metrics = rank_metrics(sim, np.array([0, 1]), hits_at=(1, 10))
    assert metrics.hits_at(1) == 0.5
    assert metrics.hits_at(10) == 1.0


def test_rank_metrics_shape_mismatch():
    with pytest.raises(ValueError):
        rank_metrics(np.zeros((2, 3)), np.zeros(3, dtype=int))


def test_rank_metrics_str():
    text = str(rank_metrics(np.eye(2), np.arange(2)))
    assert "H@1=1.000" in text
    assert "MR=1.0" in text
    assert "MRR=1.000" in text
    assert "(n=2)" in text


def test_prf_metrics_values():
    predicted = {("a", "x"), ("b", "y"), ("c", "wrong")}
    gold = {("a", "x"), ("b", "y"), ("d", "z"), ("e", "w")}
    prf = prf_metrics(predicted, gold)
    assert prf.precision == pytest.approx(2 / 3)
    assert prf.recall == pytest.approx(0.5)
    assert prf.f1 == pytest.approx(2 * (2 / 3) * 0.5 / (2 / 3 + 0.5))


def test_prf_metrics_empty_cases():
    assert prf_metrics(set(), {("a", "b")}).precision == 0.0
    assert prf_metrics({("a", "b")}, set()).recall == 0.0
    assert prf_metrics(set(), set()).f1 == 0.0


def test_prf_is_dataclass_with_str():
    prf = PRF(precision=1.0, recall=1.0, f1=1.0, n_predicted=2, n_gold=2)
    assert "F1=1.000" in str(prf)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 500), n=st.integers(2, 20))
def test_hits1_equals_precision_protocol(seed, n):
    """Hits@1 == precision of the greedy prediction set (paper §2.1.3)."""
    sim = np.random.default_rng(seed).normal(size=(n, n))
    gold = np.arange(n)
    hits1 = rank_metrics(sim, gold, hits_at=(1,)).hits_at(1)
    predictions = {(i, int(j)) for i, j in enumerate(greedy_alignment(sim))}
    gold_set = {(i, i) for i in range(n)}
    assert hits1 == pytest.approx(prf_metrics(predictions, gold_set).precision)
