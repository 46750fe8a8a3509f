"""Tests for the §7.2 future-direction extensions: unsupervised alignment
and LSH blocking."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alignment import HyperplaneLSH, blocked_greedy_alignment, greedy_alignment
from repro.approaches import (
    ApproachConfig,
    TrainingCheckpointer,
    UnsupervisedProcrustes,
    orthogonal_procrustes,
)
from repro.datagen import benchmark_pair
from repro.pipeline import cross_validate


# ---------------------------------------------------------------------------
# orthogonal Procrustes
# ---------------------------------------------------------------------------
def test_procrustes_recovers_rotation():
    rng = np.random.default_rng(0)
    source = rng.normal(size=(50, 8))
    # random orthogonal matrix
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    target = source @ q
    recovered = orthogonal_procrustes(source, target)
    np.testing.assert_allclose(recovered, q, atol=1e-8)


def test_procrustes_result_is_orthogonal():
    rng = np.random.default_rng(1)
    rotation = orthogonal_procrustes(rng.normal(size=(30, 6)), rng.normal(size=(30, 6)))
    np.testing.assert_allclose(rotation @ rotation.T, np.eye(6), atol=1e-8)


def test_procrustes_shape_mismatch():
    with pytest.raises(ValueError):
        orthogonal_procrustes(np.zeros((3, 4)), np.zeros((4, 4)))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 500))
def test_procrustes_never_increases_error(seed):
    """||S R - T|| <= ||S - T|| for the optimal R."""
    rng = np.random.default_rng(seed)
    source = rng.normal(size=(20, 5))
    target = rng.normal(size=(20, 5))
    rotation = orthogonal_procrustes(source, target)
    before = np.linalg.norm(source - target)
    after = np.linalg.norm(source @ rotation - target)
    assert after <= before + 1e-9


# ---------------------------------------------------------------------------
# unsupervised approach
# ---------------------------------------------------------------------------
def test_unsupervised_ignores_training_seeds(enfr_pair, enfr_split):
    config = ApproachConfig(dim=16, epochs=10, lr=0.05, valid_every=0)
    approach = UnsupervisedProcrustes(config, refinement_rounds=1)
    # hand it an EMPTY training set: a supervised approach would collapse
    empty_split = type(enfr_split)(train=[], valid=[], test=enfr_split.test)
    approach.fit(enfr_pair, empty_split)
    hits1 = approach.evaluate(enfr_split.test, hits_at=(1,)).hits_at(1)
    assert hits1 > 5.0 / len(enfr_split.test), "should beat random by far"
    assert approach.pseudo_seeds, "distant supervision must find pseudo-seeds"


def test_unsupervised_validation_keeps_trained_parameters():
    """Validation scores the rotated space: the rotation is solved at the
    end of set-up and of every epoch, so trained epochs can beat the
    epoch-0 snapshot instead of losing to an unrotated space."""
    pair = benchmark_pair("EN-FR", size=300, method="direct", seed=0)
    split = pair.split(train_ratio=0.3, valid_ratio=0.1, seed=0)
    config = ApproachConfig(dim=16, epochs=10, batch_size=256,
                            n_negatives=3, valid_every=5, early_stop=False)
    approach = UnsupervisedProcrustes(config)
    log = approach.fit(pair, split)
    initial = UnsupervisedProcrustes(replace(config, epochs=0))
    initial.fit(pair, split)
    assert log.best_epoch > 0
    assert not all(np.array_equal(trained.data, start.data) for trained, start
                   in zip(approach._parameters(), initial._parameters()))


def test_unsupervised_pseudo_seeds_are_one_to_one(enfr_pair, enfr_split):
    config = ApproachConfig(dim=16, epochs=2, valid_every=0)
    approach = UnsupervisedProcrustes(config, refinement_rounds=0)
    approach.fit(enfr_pair, enfr_split)
    lefts = [a for a, _ in approach.pseudo_seeds]
    rights = [b for _, b in approach.pseudo_seeds]
    assert len(lefts) == len(set(lefts))
    assert len(rights) == len(set(rights))


def test_unsupervised_rotation_is_orthogonal(enfr_pair, enfr_split):
    config = ApproachConfig(dim=16, epochs=5, valid_every=0)
    approach = UnsupervisedProcrustes(config, refinement_rounds=1)
    approach.fit(enfr_pair, enfr_split)
    rotation = approach.rotation
    np.testing.assert_allclose(rotation @ rotation.T, np.eye(16), atol=1e-8)


def test_unsupervised_cross_validates_with_checkpoints(enfr_pair, tmp_path):
    """fit's keyword arguments (checkpointing, resume) reach the base
    trainer, and both KG spaces step through the one optimizer."""
    config = ApproachConfig(dim=16, epochs=2, valid_every=0)
    result = cross_validate(
        lambda: UnsupervisedProcrustes(config, refinement_rounds=0),
        enfr_pair, n_folds=1, checkpoint_dir=tmp_path,
    )
    assert result.status == "completed"
    log = result.folds[0].log
    assert log.epochs_run == 2 and log.steps_run > 0
    assert TrainingCheckpointer(tmp_path / "fold_1").latest_epoch() == 2


# ---------------------------------------------------------------------------
# LSH blocking
# ---------------------------------------------------------------------------
def test_lsh_self_query_contains_self():
    rng = np.random.default_rng(0)
    vectors = rng.normal(size=(40, 16))
    lsh = HyperplaneLSH(16, n_bits=6, n_tables=3, seed=0)
    lsh.index(vectors)
    candidates = lsh.candidates(vectors)
    for row, cand in enumerate(candidates):
        assert row in cand  # identical vector hashes identically


def test_lsh_requires_index_before_query():
    lsh = HyperplaneLSH(8)
    with pytest.raises(RuntimeError):
        lsh.candidates(np.zeros((2, 8)))


def test_lsh_validates_params():
    with pytest.raises(ValueError):
        HyperplaneLSH(8, n_bits=0)
    with pytest.raises(ValueError):
        HyperplaneLSH(8, n_tables=0)


def test_blocked_alignment_prunes_and_mostly_agrees():
    rng = np.random.default_rng(3)
    target = rng.normal(size=(300, 24))
    noise = 0.05 * rng.normal(size=(300, 24))
    source = target + noise  # near-duplicates: gold is the identity
    assignment, fraction = blocked_greedy_alignment(
        source, target, n_bits=8, n_tables=6, seed=0
    )
    full = greedy_alignment(
        (source / np.linalg.norm(source, axis=1, keepdims=True))
        @ (target / np.linalg.norm(target, axis=1, keepdims=True)).T
    )
    agreement = (assignment == full).mean()
    assert fraction < 0.5, "blocking must prune most of the candidate space"
    assert agreement > 0.8, "blocking should keep most greedy decisions"


def test_blocked_alignment_reports_no_candidates_as_minus_one():
    rng = np.random.default_rng(4)
    # orthogonal clusters: some queries may land in empty buckets with one
    # aggressive table (legacy behaviour, kept reachable via fallback="none")
    source = rng.normal(size=(50, 8))
    target = rng.normal(size=(5, 8))
    assignment, _ = blocked_greedy_alignment(source, target, n_bits=10,
                                             n_tables=1, seed=1,
                                             fallback="none")
    assert ((assignment >= -1) & (assignment < 5)).all()


def test_lsh_empty_bucket_fallback_rescues_queries():
    # regression: queries hashing into empty buckets used to silently get
    # zero candidates; with 2^10 buckets and 5 indexed vectors almost every
    # query bucket is empty
    rng = np.random.default_rng(4)
    queries = rng.normal(size=(50, 8))
    target = rng.normal(size=(5, 8))
    lsh = HyperplaneLSH(8, n_bits=10, n_tables=1, seed=1)
    lsh.index(target)
    starved = [c.size for c in lsh.candidates(queries, fallback="none")]
    assert 0 in starved, "scenario must actually produce empty buckets"
    for fallback in ("nearest", "exact"):
        rescued = lsh.candidates(queries, fallback=fallback)
        assert all(c.size > 0 for c in rescued)
    # exact fallback hands starved queries the whole index
    exact = lsh.candidates(queries, fallback="exact")
    for count, candidates in zip(starved, exact):
        if count == 0:
            assert candidates.size == 5
    with pytest.raises(ValueError):
        lsh.candidates(queries, fallback="best-effort")


def test_blocked_alignment_fallback_leaves_no_query_unanswered():
    rng = np.random.default_rng(4)
    source = rng.normal(size=(50, 8))
    target = rng.normal(size=(5, 8))
    assignment, _ = blocked_greedy_alignment(source, target, n_bits=10,
                                             n_tables=1, seed=1)
    assert (assignment >= 0).all()  # default fallback answers every query


def test_lsh_multi_probe_expands_candidates():
    rng = np.random.default_rng(5)
    target = rng.normal(size=(200, 16))
    queries = rng.normal(size=(50, 16))
    lsh = HyperplaneLSH(16, n_bits=8, n_tables=2, seed=0)
    lsh.index(target)
    plain = sum(c.size for c in lsh.candidates(queries, fallback="none"))
    probed = sum(c.size
                 for c in lsh.candidates(queries, probes=2, fallback="none"))
    assert probed > plain  # flipped low-margin bits visit extra buckets
