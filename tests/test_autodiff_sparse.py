"""Tests for the row-sparse gradient path.

Covers the SparseGrad container (coalescing, densification, merging),
gather's sparse backward and index validation, mixed sparse+dense
accumulation, the optimizers' sparse fast paths, and optimizer
state_dict round-trips.
"""

import numpy as np
import pytest

from repro.autodiff import (
    SGD,
    Adagrad,
    Adam,
    Parameter,
    SparseGrad,
    Tensor,
    scatter_rows,
    set_sparse_gradients,
    sparse_gradients_enabled,
)

RNG = np.random.default_rng(7)


@pytest.fixture
def dense_mode():
    """Temporarily disable the sparse path."""
    previous = set_sparse_gradients(False)
    yield
    set_sparse_gradients(previous)


# ---------------------------------------------------------------------------
# SparseGrad container
# ---------------------------------------------------------------------------
def test_coalesce_sums_duplicate_rows():
    grad = SparseGrad([2, 0, 2, 2], np.array([[1.0, 2], [3, 4], [5, 6], [7, 8]]), (4, 2))
    coalesced = grad.coalesce()
    np.testing.assert_array_equal(coalesced.indices, [0, 2])
    np.testing.assert_allclose(coalesced.values, [[3, 4], [13, 16]])
    assert coalesced.coalesce() is coalesced  # idempotent


def test_to_dense_matches_scatter_add_reference():
    indices = RNG.integers(0, 10, size=40)
    values = RNG.normal(size=(40, 3))
    expected = np.zeros((10, 3))
    np.add.at(expected, indices, values)
    grad = SparseGrad(indices, values, (10, 3))
    np.testing.assert_allclose(grad.to_dense(), expected, atol=1e-12)
    # __array__ interop
    np.testing.assert_allclose(np.asarray(grad), expected, atol=1e-12)
    # add_to scatters into an existing dense array
    dense = np.ones((10, 3))
    grad.add_to(dense)
    np.testing.assert_allclose(dense, expected + 1.0, atol=1e-12)


def test_merged_concatenates_and_checks_shape():
    a = SparseGrad([0], np.ones((1, 2)), (3, 2))
    b = SparseGrad([0, 1], np.ones((2, 2)), (3, 2))
    merged = a.merged(b)
    np.testing.assert_allclose(merged.to_dense()[0], [2.0, 2.0])
    with pytest.raises(ValueError):
        a.merged(SparseGrad([0], np.ones((1, 4)), (3, 4)))


def test_sparse_grad_1d_values():
    """Row-sparse grads over 1-D parameters (e.g. ConvE's entity bias)."""
    grad = SparseGrad([1, 1, 3], np.array([1.0, 2.0, 3.0]), (5,))
    np.testing.assert_allclose(grad.to_dense(), [0, 3.0, 0, 3.0, 0])


def test_scatter_rows_matches_add_at():
    out = np.zeros((6, 2))
    indices = np.array([5, 0, 5, 5])
    values = RNG.normal(size=(4, 2))
    scatter_rows(out, indices, values)
    expected = np.zeros((6, 2))
    np.add.at(expected, indices, values)
    np.testing.assert_allclose(out, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# gather: sparse backward + validation
# ---------------------------------------------------------------------------
def test_gather_on_leaf_emits_sparse_grad():
    assert sparse_gradients_enabled()
    table = Parameter(RNG.normal(size=(6, 3)))
    table.gather([0, 4, 4]).sum().backward()
    assert isinstance(table.grad, SparseGrad)
    dense = table.dense_grad()
    assert dense[4].sum() == pytest.approx(6.0)  # two lookups of row 4


def test_gather_on_intermediate_stays_dense():
    table = Parameter(RNG.normal(size=(6, 3)))
    hidden = table * 2.0  # op output: its grad must flow through the op
    hidden.gather([1, 1, 2]).sum().backward()
    assert isinstance(table.grad, np.ndarray)
    assert table.grad[1].sum() == pytest.approx(12.0)  # 2 lookups * dim 3 * factor 2


def test_gather_dense_mode_matches_sparse_mode():
    indices = RNG.integers(0, 8, size=30)
    data = RNG.normal(size=(8, 4))

    def run():
        table = Parameter(data.copy())
        (table.gather(indices) * table.gather(indices[::-1])).sum().backward()
        return table.dense_grad()

    sparse_grad = run()
    previous = set_sparse_gradients(False)
    try:
        dense_grad = run()
    finally:
        set_sparse_gradients(previous)
    np.testing.assert_allclose(sparse_grad, dense_grad, atol=1e-12)


def test_gather_accepts_lists_tuples_and_negative_indices():
    table = Parameter(np.arange(12.0).reshape(4, 3))
    np.testing.assert_allclose(table.gather([1, 2]).data, table.data[[1, 2]])
    np.testing.assert_allclose(table.gather((0,)).data, table.data[[0]])
    np.testing.assert_allclose(table.gather([-1]).data, table.data[[3]])
    # negative indices normalize so the sparse backward scatters correctly
    table.gather([-1, 3]).sum().backward()
    assert table.dense_grad()[3].sum() == pytest.approx(6.0)


def test_gather_out_of_range_raises_index_error():
    table = Tensor(np.zeros((4, 2)))
    with pytest.raises(IndexError, match="out of range"):
        table.gather([0, 4])
    with pytest.raises(IndexError, match="out of range"):
        table.gather([-5])


def test_gather_non_integer_raises_type_error():
    table = Tensor(np.zeros((4, 2)))
    with pytest.raises(TypeError, match="integers"):
        table.gather([0.5, 1.0])
    with pytest.raises(TypeError, match="integers"):
        table.gather(np.array([True, False]))


def test_gather_empty_indices():
    table = Parameter(np.ones((4, 2)))
    out = table.gather([])
    assert out.shape == (0, 2)


def test_gather_scalar_tensor_raises():
    with pytest.raises(IndexError):
        Tensor(3.0).gather([0])


# ---------------------------------------------------------------------------
# mixed accumulation
# ---------------------------------------------------------------------------
def test_accumulate_sparse_then_dense_densifies():
    p = Parameter(RNG.normal(size=(5, 2)))
    p._accumulate(SparseGrad([1, 1], np.ones((2, 2)), (5, 2)))
    p._accumulate(np.full((5, 2), 0.5))
    assert isinstance(p.grad, np.ndarray)
    np.testing.assert_allclose(p.grad[1], [2.5, 2.5])
    np.testing.assert_allclose(p.grad[0], [0.5, 0.5])


def test_accumulate_dense_then_sparse_scatters():
    p = Parameter(RNG.normal(size=(5, 2)))
    p._accumulate(np.full((5, 2), 0.5))
    p._accumulate(SparseGrad([1, 1], np.ones((2, 2)), (5, 2)))
    assert isinstance(p.grad, np.ndarray)
    np.testing.assert_allclose(p.grad[1], [2.5, 2.5])


def test_accumulate_sparse_then_sparse_merges_lazily():
    p = Parameter(RNG.normal(size=(5, 2)))
    p._accumulate(SparseGrad([0], np.ones((1, 2)), (5, 2)))
    p._accumulate(SparseGrad([0, 2], np.ones((2, 2)), (5, 2)))
    assert isinstance(p.grad, SparseGrad)
    np.testing.assert_allclose(p.dense_grad()[0], [2.0, 2.0])


def test_graph_mixed_sparse_dense_gradient_is_correct():
    """gather (sparse) + full-matrix regularizer (dense) on one parameter."""
    data = RNG.normal(size=(6, 3))
    indices = np.array([2, 2, 5])

    def run(enabled):
        previous = set_sparse_gradients(enabled)
        try:
            p = Parameter(data.copy())
            loss = p.gather(indices).square().sum() + 0.1 * p.square().sum()
            loss.backward()
            return p.dense_grad()
        finally:
            set_sparse_gradients(previous)

    np.testing.assert_allclose(run(True), run(False), atol=1e-12)


# ---------------------------------------------------------------------------
# optimizer sparse fast paths
# ---------------------------------------------------------------------------
def _sparse_vs_dense_step(make_optimizer, steps=20, rows=50, dim=4, coverage=8):
    """Run identical gather-based training sparsely and densely."""
    data = RNG.normal(size=(rows, dim))
    batches = [RNG.integers(0, rows, size=coverage) for _ in range(steps)]
    results = {}
    for enabled in (True, False):
        previous = set_sparse_gradients(enabled)
        try:
            p = Parameter(data.copy())
            optimizer = make_optimizer(p)
            for batch in batches:
                optimizer.zero_grad()
                (p.gather(batch).square().sum() * 0.5).backward()
                optimizer.step()
            results[enabled] = p.data.copy()
        finally:
            set_sparse_gradients(previous)
    return results[True], results[False]


def test_sgd_sparse_exactly_matches_dense():
    sparse, dense = _sparse_vs_dense_step(lambda p: SGD([p], lr=0.05))
    np.testing.assert_allclose(sparse, dense, atol=1e-12)


def test_adagrad_sparse_exactly_matches_dense():
    sparse, dense = _sparse_vs_dense_step(lambda p: Adagrad([p], lr=0.05))
    np.testing.assert_allclose(sparse, dense, atol=1e-12)


def test_adam_sparse_matches_dense_under_full_coverage():
    """When every row appears in every batch, lazy Adam == dense Adam."""
    rows = 12
    batches = [
        np.concatenate([np.arange(rows), RNG.integers(0, rows, size=6)])
        for _ in range(15)
    ]
    data = RNG.normal(size=(rows, 3))
    results = {}
    for enabled in (True, False):
        previous = set_sparse_gradients(enabled)
        try:
            p = Parameter(data.copy())
            optimizer = Adam([p], lr=0.01)
            for batch in batches:
                optimizer.zero_grad()
                p.gather(batch).square().sum().backward()
                optimizer.step()
            results[enabled] = p.data.copy()
        finally:
            set_sparse_gradients(previous)
    np.testing.assert_allclose(results[True], results[False], atol=1e-9)


def test_momentum_sparse_matches_dense_under_full_coverage():
    rows = 10
    batches = [np.arange(rows) for _ in range(12)]
    data = RNG.normal(size=(rows, 3))
    results = {}
    for enabled in (True, False):
        previous = set_sparse_gradients(enabled)
        try:
            p = Parameter(data.copy())
            optimizer = SGD([p], lr=0.01, momentum=0.9)
            for batch in batches:
                optimizer.zero_grad()
                p.gather(batch).square().sum().backward()
                optimizer.step()
            results[enabled] = p.data.copy()
        finally:
            set_sparse_gradients(previous)
    np.testing.assert_allclose(results[True], results[False], atol=1e-10)


def test_momentum_sparse_applies_geometric_catchup():
    """A row skipped for k steps receives the k decayed ghost updates."""
    mu, lr = 0.5, 0.1
    p_dense = Parameter(np.array([[1.0], [1.0]]))
    p_sparse = Parameter(np.array([[1.0], [1.0]]))
    opt_dense = SGD([p_dense], lr=lr, momentum=mu)
    opt_sparse = SGD([p_sparse], lr=lr, momentum=mu)
    grads = [  # row 1 only gets a gradient on steps 0 and 3
        ([0, 1], [[1.0], [2.0]]),
        ([0], [[1.0]]),
        ([0], [[1.0]]),
        ([0, 1], [[1.0], [2.0]]),
    ]
    for indices, values in grads:
        opt_sparse.zero_grad()
        p_sparse.grad = SparseGrad(indices, np.array(values), (2, 1))
        opt_sparse.step()
        opt_dense.zero_grad()
        dense = np.zeros((2, 1))
        dense[indices] = values
        p_dense.grad = dense
        opt_dense.step()
    np.testing.assert_allclose(p_sparse.data, p_dense.data, atol=1e-12)


def test_sparse_update_leaves_untouched_rows_alone():
    p = Parameter(np.ones((100, 4)))
    optimizer = Adam([p], lr=0.5)
    p.grad = SparseGrad([3, 7], RNG.normal(size=(2, 4)), (100, 4))
    optimizer.step()
    untouched = np.delete(np.arange(100), [3, 7])
    np.testing.assert_array_equal(p.data[untouched], 1.0)
    assert not np.allclose(p.data[[3, 7]], 1.0)


# ---------------------------------------------------------------------------
# state keying + checkpointing
# ---------------------------------------------------------------------------
def _step(optimizer, p, value=1.0):
    optimizer.zero_grad()
    p.grad = np.full(p.shape, value)
    optimizer.step()


@pytest.mark.parametrize("factory", [
    lambda p: SGD([p], lr=0.1, momentum=0.9),
    lambda p: Adagrad([p], lr=0.1),
    lambda p: Adam([p], lr=0.1),
])
def test_state_dict_roundtrip_resumes_exactly(factory):
    p1 = Parameter(np.ones((4, 2)))
    opt1 = factory(p1)
    for _ in range(3):
        _step(opt1, p1)
    snapshot = opt1.state_dict()
    data_at_save = p1.data.copy()

    # continue the original
    for _ in range(2):
        _step(opt1, p1)

    # fresh parameter + optimizer restored from the snapshot
    p2 = Parameter(data_at_save)
    opt2 = factory(p2)
    opt2.load_state_dict(snapshot)
    for _ in range(2):
        _step(opt2, p2)

    np.testing.assert_allclose(p2.data, p1.data, atol=1e-12)


def test_state_keyed_by_index_not_identity():
    """State must be keyed by parameter position, not id() (which can be
    reused after garbage collection and breaks checkpoint/restore)."""
    p = Parameter(np.ones((3, 2)))
    optimizer = Adam([p], lr=0.1)
    _step(optimizer, p)
    assert set(optimizer.state_dict()["state"].keys()) == {0}


# ---------------------------------------------------------------------------
# checkpoint round-trip under the sparse path
# ---------------------------------------------------------------------------
def _sparse_step(optimizer, p, seed):
    """One update touching a seed-dependent subset of rows."""
    rng = np.random.default_rng(seed)
    rows = rng.choice(p.shape[0], size=3, replace=False)
    optimizer.zero_grad()
    p.grad = SparseGrad(rows, rng.normal(size=(3,) + p.shape[1:]), p.shape)
    optimizer.step()


@pytest.mark.parametrize("factory,lazy_keys", [
    (lambda p: SGD([p], lr=0.1, momentum=0.9), ("last_step",)),
    (lambda p: Adam([p], lr=0.1), ("t",)),
    (lambda p: Adagrad([p], lr=0.1), ()),
])
def test_sparse_state_dict_roundtrip_is_bit_identical(factory, lazy_keys):
    """Save mid-training under row-sparse grads, restore into a fresh
    optimizer, continue: parameters and per-row lazy state (momentum
    ``last_step``, lazy-Adam per-row ``t``) must match bit for bit."""
    p1 = Parameter(RNG.normal(size=(12, 3)))
    opt1 = factory(p1)
    for seed in range(4):
        _sparse_step(opt1, p1, seed)
    snapshot = opt1.state_dict()
    data_at_save = p1.data.copy()
    for seed in range(4, 7):
        _sparse_step(opt1, p1, seed)

    p2 = Parameter(data_at_save)
    opt2 = factory(p2)
    opt2.load_state_dict(snapshot)
    # the lazy per-row counters restore exactly, not just the tensors
    for key in lazy_keys:
        np.testing.assert_array_equal(
            opt2.state_dict()["state"][0][key], snapshot["state"][0][key]
        )
    for seed in range(4, 7):
        _sparse_step(opt2, p2, seed)

    np.testing.assert_array_equal(p2.data, p1.data)
    state1, state2 = opt1.state_dict()["state"][0], opt2.state_dict()["state"][0]
    assert state1.keys() == state2.keys()
    for key in state1:
        np.testing.assert_array_equal(state1[key], state2[key])


def test_sparse_roundtrip_preserves_pending_catchup():
    """Rows with *stale* momentum at save time (touched early, then not
    again) must catch up identically after a restore — the ghost-update
    arithmetic depends on last_step surviving the round-trip."""
    p1 = Parameter(np.zeros((6, 2)))
    opt1 = SGD([p1], lr=0.1, momentum=0.9)
    # touch row 0 once, then hammer row 5 so row 0 goes stale
    p1.grad = SparseGrad([0], np.ones((1, 2)), p1.shape)
    opt1.step()
    for _ in range(3):
        p1.grad = SparseGrad([5], np.ones((1, 2)), p1.shape)
        opt1.step()
    snapshot = opt1.state_dict()
    saved = p1.data.copy()
    assert snapshot["state"][0]["last_step"][0] == 1  # row 0 is stale

    p1.grad = SparseGrad([0], np.ones((1, 2)), p1.shape)  # catch-up fires
    opt1.step()

    p2 = Parameter(saved)
    opt2 = SGD([p2], lr=0.1, momentum=0.9)
    opt2.load_state_dict(snapshot)
    p2.grad = SparseGrad([0], np.ones((1, 2)), p2.shape)
    opt2.step()
    np.testing.assert_array_equal(p2.data, p1.data)
