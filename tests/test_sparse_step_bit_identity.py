"""The sparse training step is bit-identical to its written-out formulas.

The float64 default promises the same bits as the straightforward
implementation: ``np.add.reduceat`` over the stably sorted rows for
coalescing, and each optimizer's update as a plain expression.  Every
digest and pinned quality value was recorded under those formulas, so
this file writes them out as references and compares through ``uint64``
views, not with a tolerance.  It also checks that merging sparse
gradients copies their rows once, and that copy-free gradient
accumulation never writes through an array another node still holds.
"""

import numpy as np
import pytest

import repro.autodiff.sparse as sparse_module
from repro.approaches import ApproachConfig, get_approach
from repro.autodiff import (
    SGD,
    Adagrad,
    Adam,
    Parameter,
    SparseGrad,
    Tensor,
    concat,
    numerical_gradient,
)
from repro.autodiff.optim import _per_row
from repro.autodiff.sparse import _coalesce_rows
from repro.datagen import benchmark_pair


def reference_coalesce(indices, values):
    """The written-out contract: reduceat over the stably sorted rows."""
    if indices.size == 0:
        return indices, values
    order = np.argsort(indices, kind="stable")
    sorted_indices = indices[order]
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_indices[1:] != sorted_indices[:-1]))
    )
    return sorted_indices[starts], np.add.reduceat(values[order], starts, axis=0)


def assert_same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


def assert_same_coalesce(indices, values):
    rows, summed = _coalesce_rows(indices, values)
    want_rows, want_summed = reference_coalesce(indices, values)
    np.testing.assert_array_equal(rows, want_rows)
    assert_same_bits(summed, want_summed)


def spread_values(rng, shape):
    """Normal draws scaled over 1e-8..1e8, with some +0.0 and -0.0."""
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    zeros = rng.random(shape) < 0.1
    values[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, 0.0, -0.0)
    return values


# ---------------------------------------------------------------------------
# coalescing
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("tail", [(), (5,)])
def test_coalesce_matches_reduceat_for_every_segment_length(tail):
    """One segment of each length 1..300, interleaved, the longest on
    the table's last row."""
    rng = np.random.default_rng(0)
    lengths = np.arange(1, 301)
    indices = rng.permutation(np.repeat(np.arange(300), lengths))
    values = spread_values(rng, (len(indices),) + tail)
    assert_same_coalesce(indices, values)


@pytest.mark.parametrize("seed", range(200))
def test_coalesce_matches_reduceat_on_random_gradients(seed):
    rng = np.random.default_rng(seed)
    n_rows = int(rng.integers(1, 300))
    indices = rng.integers(0, n_rows, size=int(rng.integers(1, 500)))
    if seed % 3 == 0:  # a hub row, as negative sampling makes
        indices[: len(indices) // 2] = n_rows - 1
    tail = () if seed % 2 else (int(rng.integers(1, 6)),)
    assert_same_coalesce(indices, spread_values(rng, (len(indices),) + tail))


def test_coalesce_keeps_signed_zeros_and_empty_input():
    # reduceat sums -0.0 + -0.0 to -0.0, and a lone +0.0 into +0.0
    indices = np.array([3, 3, 3, 1, 1, 0])
    values = np.array([-0.0, -0.0, -0.0, -0.0, 0.0, -0.0])
    assert_same_coalesce(indices, values)
    empty = np.zeros(0, dtype=np.int64)
    rows, summed = _coalesce_rows(empty, np.zeros((0, 4)))
    assert rows.shape == (0,) and summed.shape == (0, 4)


# ---------------------------------------------------------------------------
# merging
# ---------------------------------------------------------------------------
def test_merging_copies_rows_once_on_first_read():
    rng = np.random.default_rng(1)
    parts = [SparseGrad(rng.integers(0, 40, size=n), rng.normal(size=(n, 3)), (40, 3))
             for n in (6, 1, 9, 4, 2)]
    merged = parts[0]
    for part in parts[1:]:
        merged = merged.merged(part)
    # until it is read, the merged gradient holds the parts' own arrays
    held = [values for _, values in merged._parts]
    assert len(held) == len(parts)
    assert all(mine is theirs.values for mine, theirs in zip(held, parts))
    values = merged.values
    assert values is merged.values  # joined once, then kept
    assert not any(np.shares_memory(values, p.values) for p in parts)
    assert_same_bits(values, np.concatenate([p.values for p in parts]))
    np.testing.assert_array_equal(
        merged.indices, np.concatenate([p.indices for p in parts]))
    assert_same_bits(merged.coalesce().values,
                     reference_coalesce(merged.indices, values)[1])


# ---------------------------------------------------------------------------
# optimizer steps, against the written-out formulas
# ---------------------------------------------------------------------------
class ReferenceSteps:
    """Each optimizer's sparse update as a plain expression, on its own
    copies of the parameter and state."""

    def __init__(self, kind, data, lr):
        self.kind, self.lr = kind, lr
        self.data = data.copy()
        rows = data.shape[0]
        self.state = {
            "sgd": {},
            "momentum": {"velocity": np.zeros_like(data),
                         "last_step": np.zeros(rows, dtype=np.int64), "step": 0},
            "adagrad": {"accum": np.zeros_like(data)},
            "adam": {"m": np.zeros_like(data), "v": np.zeros_like(data),
                     "t": np.zeros(rows, dtype=np.int64)},
        }[kind]

    def step(self, indices, values):
        rows, values = reference_coalesce(indices, values)
        lr, data, state, ndim = self.lr, self.data, self.state, self.data.ndim
        if self.kind == "sgd":
            data[rows] -= lr * values
        elif self.kind == "momentum":
            mu = 0.9
            state["step"] += 1
            gap = state["step"] - state["last_step"][rows]
            v_rows = state["velocity"][rows]
            catchup = mu * (1.0 - mu ** np.maximum(gap - 1, 0)) / (1.0 - mu)
            data[rows] -= lr * _per_row(catchup, ndim) * v_rows
            v_rows = _per_row(mu**gap, ndim) * v_rows + values
            state["velocity"][rows] = v_rows
            data[rows] -= lr * v_rows
            state["last_step"][rows] = state["step"]
        elif self.kind == "adagrad":
            accum = state["accum"]
            accum[rows] += values**2
            data[rows] -= lr * values / (np.sqrt(accum[rows]) + 1e-8)
        else:
            reference_adam_rows(state, data, rows, values, lr, 0.9, 0.999, 1e-8)


def reference_adam_rows(state, data, rows, values, lr, beta1, beta2, eps):
    m, v, t = state["m"], state["v"], state["t"]
    ndim = max(data.ndim, 1)
    t[rows] += 1
    t_rows = t[rows]
    m_rows = beta1 * m[rows] + (1.0 - beta1) * values
    v_rows = beta2 * v[rows] + (1.0 - beta2) * values**2
    m[rows] = m_rows
    v[rows] = v_rows
    m_hat = m_rows / _per_row(1.0 - beta1**t_rows, ndim)
    v_hat = v_rows / _per_row(1.0 - beta2**t_rows, ndim)
    data[rows] -= lr * m_hat / (np.sqrt(v_hat) + eps)


FACTORIES = {
    "sgd": lambda p: SGD([p], lr=0.05),
    "momentum": lambda p: SGD([p], lr=0.05, momentum=0.9),
    "adagrad": lambda p: Adagrad([p], lr=0.05),
    "adam": lambda p: Adam([p], lr=0.05),
}


@pytest.mark.parametrize("tail", [(), (4,)])
@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_sparse_step_equals_written_out_formula(kind, tail):
    """20 steps with repeated rows, restored from a state_dict midway."""
    rng = np.random.default_rng(3)
    shape = (25,) + tail
    reference = ReferenceSteps(kind, spread_values(rng, shape), lr=0.05)
    parameter = Parameter(reference.data.copy())
    optimizer = FACTORIES[kind](parameter)
    for step in range(20):
        if step == 10:
            snapshot = optimizer.state_dict()
            parameter = Parameter(parameter.data.copy())
            optimizer = FACTORIES[kind](parameter)
            optimizer.load_state_dict(snapshot)
        # a hub row, rows repeated up to 12 times, and rows left out
        indices = np.concatenate([np.full(int(rng.integers(1, 13)), 24),
                                  rng.integers(0, 20, size=30)])
        values = spread_values(rng, (len(indices),) + tail)
        optimizer.zero_grad()
        parameter.grad = SparseGrad(indices, values, shape)
        optimizer.step()
        reference.step(indices, values)
        assert_same_bits(parameter.data, reference.data)
    # the same keys: Adam's bias-correction table is not checkpointed
    state = optimizer.state_dict()["state"][0]
    assert set(state) == set(reference.state)
    for key, value in state.items():
        assert_same_bits(np.asarray(value), np.asarray(reference.state[key]))


def test_step_leaves_the_coalesced_gradient_for_later_readers():
    parameter = Parameter(np.zeros((8, 2)))
    optimizer = Adam([parameter], lr=0.1)
    parameter.grad = SparseGrad([7, 1, 7, 7], np.ones((4, 2)), (8, 2))
    optimizer.step()
    grad = parameter.grad
    assert grad.coalesce() is grad
    np.testing.assert_array_equal(grad.indices, [1, 7])
    np.testing.assert_array_equal(grad.values, [[1.0, 1.0], [3.0, 3.0]])


# ---------------------------------------------------------------------------
# copy-free dense accumulation
# ---------------------------------------------------------------------------
GRAPHS = {
    # one output gradient handed to both operands of an add
    "a + a": (lambda a: (a + a) * a, [(3, 4)]),
    "a * a": (lambda a: a * a + a, [(3, 4)]),
    "shared add, then reshaped": (
        lambda a, b: ((a + b).reshape(4, 3) * 2.0).reshape(3, 4) + a * b, [(3, 4), (3, 4)]),
    "concat of one tensor twice": (lambda a: concat([a, a]) * concat([a, -a]), [(2, 3)]),
    # w and c receive the same array from (w + c); w then also gathers
    "dense then sparse on one leaf": (
        lambda w, c: ((w + c) * 3.0).sum() + w.gather([1, 4, 1, 0]).square().sum(),
        [(5, 2), (5, 2)]),
    "sparse then dense on one leaf": (
        lambda w, c: w.gather([1, 4, 1, 0]).square().sum() + ((w + c) * 3.0).sum(),
        [(5, 2), (5, 2)]),
    "dense, sparse, dense": (
        lambda w, c: (w + c).sum() + w.gather([2, 2]).sum() + (w * c).sum(),
        [(5, 2), (5, 2)]),
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_shared_dense_gradients_match_numerical_gradient(name):
    func, shapes = GRAPHS[name]
    rng = np.random.default_rng(4)
    inputs = [rng.normal(size=shape) for shape in shapes]
    tensors = [Tensor(x.copy(), requires_grad=True) for x in inputs]
    func(*tensors).sum().backward()
    for index, tensor in enumerate(tensors):
        np.testing.assert_allclose(
            np.asarray(tensor.grad), numerical_gradient(func, inputs, index),
            atol=1e-5, rtol=1e-4, err_msg=f"{name}: input {index}")


# ---------------------------------------------------------------------------
# a whole fit
# ---------------------------------------------------------------------------
ADAM_UPDATE = Adam._update


def reference_adam_update(self, parameter, state):
    grad = parameter.grad
    if not isinstance(grad, SparseGrad):
        return ADAM_UPDATE(self, parameter, state)
    self._init_state(parameter, state)
    grad = grad.coalesce()
    reference_adam_rows(state, parameter.data, grad.indices, grad.values,
                        self.lr, self.beta1, self.beta2, self.eps)


def test_bootea_fit_is_bit_identical_to_the_written_out_step(monkeypatch):
    """BootEA on EN-FR 300 for 10 epochs (Adam, two bootstrapping rounds)
    ends on the same parameters as with the reference step."""
    pair = benchmark_pair("EN-FR", size=300, seed=0, method="direct")
    split = pair.split(train_ratio=0.3, valid_ratio=0.1, seed=0)

    def fit():
        config = ApproachConfig(dim=16, epochs=10, batch_size=256, n_negatives=3,
                                lr=0.02, seed=0, early_stop=False)
        approach = get_approach("BootEA", config)
        approach.fit(pair, split)
        return [p.data.copy() for p in approach._parameters()]

    fitted = fit()
    monkeypatch.setattr(sparse_module, "_coalesce_rows", reference_coalesce)
    monkeypatch.setattr(Adam, "_update", reference_adam_update)
    reference = fit()
    assert len(fitted) == len(reference)
    for got, want in zip(fitted, reference):
        assert_same_bits(got, want)
