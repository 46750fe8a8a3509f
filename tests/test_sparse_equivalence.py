"""Fixed-seed dense-vs-sparse loss-curve equivalence (acceptance check).

Trains a small TransE model for 50 steps twice — once with the sparse
gradient path, once densely — with identical seeds, batches and
negatives, and requires the loss curves to agree within 1e-6 for SGD,
Adagrad and Adam.

Adam and momentum-SGD use *lazy* sparse semantics (per-row step
counters), which are bit-identical to dense only when every row is
touched every step; the batches here are built to cover every entity
and relation each step.  SGD (no momentum) and Adagrad are exactly
dense-equivalent at any coverage, which a second test exercises with
partial batches.
"""

import numpy as np
import pytest

from repro.autodiff import SGD, Adagrad, Adam, set_sparse_gradients
from repro.embedding import TransE, margin_ranking_loss, uniform_corrupt

N_ENTITIES = 40
N_RELATIONS = 5
DIM = 8
STEPS = 50


def _full_coverage_batches(steps: int, seed: int = 11):
    """One batch per step in which every entity and relation appears.

    Heads and tails are permutations of all entities; relations cycle
    through all ids plus random fill — so lazy per-row step counters
    advance in lockstep with the dense global step counter.
    """
    rng = np.random.default_rng(seed)
    batches = []
    for _ in range(steps):
        heads = rng.permutation(N_ENTITIES)
        tails = rng.permutation(N_ENTITIES)
        relations = np.concatenate(
            [np.arange(N_RELATIONS), rng.integers(0, N_RELATIONS, N_ENTITIES - N_RELATIONS)]
        )
        rng.shuffle(relations)
        batches.append(np.stack([heads, relations, tails], axis=1))
    return batches


def _run_curve(make_optimizer, batches, sparse: bool, seed: int = 3):
    previous = set_sparse_gradients(sparse)
    try:
        model = TransE(N_ENTITIES, N_RELATIONS, DIM, np.random.default_rng(seed))
        optimizer = make_optimizer(model.parameters())
        negative_rng = np.random.default_rng(seed + 1)
        losses = []
        for batch in batches:
            negatives = uniform_corrupt(batch, N_ENTITIES, 1, negative_rng)
            optimizer.zero_grad()
            positive = model.score(batch[:, 0], batch[:, 1], batch[:, 2])
            negative = model.score(negatives[:, 0], negatives[:, 1], negatives[:, 2])
            loss = margin_ranking_loss(positive, negative)
            loss.backward()
            optimizer.step()
            losses.append(float(loss.data))
        return np.array(losses), {p.name: p.data.copy() for p in model.parameters()}
    finally:
        set_sparse_gradients(previous)


@pytest.mark.parametrize("name,factory", [
    ("sgd", lambda params: SGD(params, lr=0.05)),
    ("sgd_momentum", lambda params: SGD(params, lr=0.05, momentum=0.9)),
    ("adagrad", lambda params: Adagrad(params, lr=0.05)),
    ("adam", lambda params: Adam(params, lr=0.01)),
])
def test_loss_curves_match_dense_within_1e6(name, factory):
    batches = _full_coverage_batches(STEPS)
    sparse_losses, sparse_params = _run_curve(factory, batches, sparse=True)
    dense_losses, dense_params = _run_curve(factory, batches, sparse=False)
    np.testing.assert_allclose(sparse_losses, dense_losses, atol=1e-6)
    for key in dense_params:
        np.testing.assert_allclose(sparse_params[key], dense_params[key], atol=1e-6)


@pytest.mark.parametrize("factory", [
    lambda params: SGD(params, lr=0.05),
    lambda params: Adagrad(params, lr=0.05),
])
def test_sgd_and_adagrad_exact_at_partial_coverage(factory):
    """Without momentum state there is no lazy approximation at all."""
    rng = np.random.default_rng(23)
    batches = [
        np.stack([
            rng.integers(0, N_ENTITIES, 16),
            rng.integers(0, N_RELATIONS, 16),
            rng.integers(0, N_ENTITIES, 16),
        ], axis=1)
        for _ in range(30)
    ]
    sparse_losses, sparse_params = _run_curve(factory, batches, sparse=True)
    dense_losses, dense_params = _run_curve(factory, batches, sparse=False)
    np.testing.assert_allclose(sparse_losses, dense_losses, atol=1e-12)
    for key in dense_params:
        np.testing.assert_allclose(sparse_params[key], dense_params[key], atol=1e-12)
