"""Row-sparse gradients for embedding tables.

Every embedding model in the paper trains by gathering a few hundred
entity/relation rows per minibatch, yet a dense backward pays
full-vocabulary cost per step: ``gather``'s backward would allocate a
``zeros_like`` of the whole table and the optimizer would then update
every row.  A :class:`SparseGrad` carries only ``(indices, values)``
pairs instead, so the cost of one training step is proportional to the
batch size rather than the table size.

Duplicate indices (the same entity appearing many times in one batch, as
negative sampling produces) are *coalesced* with one sort and a segment
sum that adds the same numbers in the same order as ``np.add.reduceat``
(see :func:`_coalesce_rows`) — ``np.add.at`` is an order of magnitude
slower for this.

The sparse path is enabled by default and can be toggled globally (for
benchmarking the dense baseline) via :func:`set_sparse_gradients`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SparseGrad",
    "set_sparse_gradients",
    "sparse_gradients_enabled",
    "scatter_rows",
]

_SPARSE_ENABLED = True


def set_sparse_gradients(enabled: bool) -> bool:
    """Globally enable/disable the sparse gradient path.

    Returns the previous setting so callers can restore it::

        previous = set_sparse_gradients(False)
        try:
            ...  # dense baseline
        finally:
            set_sparse_gradients(previous)
    """
    global _SPARSE_ENABLED
    previous = _SPARSE_ENABLED
    _SPARSE_ENABLED = bool(enabled)
    return previous


def sparse_gradients_enabled() -> bool:
    """Whether ``gather`` on a leaf tensor emits :class:`SparseGrad`."""
    return _SPARSE_ENABLED


def _coalesce_rows(indices: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum ``values`` over duplicate ``indices``; rows come out sorted.

    Bit for bit the result of ``np.add.reduceat`` over the rows stably
    sorted by index, which is the contract every digest and pinned
    quality value of this library was recorded under.  ``reduceat``
    returns a segment's first row plus numpy's pairwise sum of the rest,
    and that sum is a plain left-to-right one below 8 elements.  But it
    runs its inner loop once per (segment, column), so here only the
    segments of more than 8 rows go through it; every shorter segment is
    summed one position at a time across all segments at once, in the
    same order.

    The 8-row block, "first row plus the sum of the rest", and a short sum
    that keeps ``-0.0`` (here it starts from the second row, not from
    ``+0.0``) are numpy internals.  They were checked on numpy 2.4.6, and
    ``pyproject.toml`` bounds numpy to 2.4.x;
    ``tests/test_sparse_step_bit_identity.py`` fails on a numpy whose
    pairwise sum differs.
    """
    n = indices.shape[0]
    if n == 0:
        return indices, values
    # The keys ``index * n + position`` are unique and sort as the stable
    # order by index; int64 holds them while rows * n < 2**63 (a table of
    # 10**9 rows gathered 9 * 10**9 times per step).
    keys = indices * n + np.arange(n)
    keys.sort()
    sorted_indices, order = np.divmod(keys, n)
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_indices[1:] != sorted_indices[:-1]))
    )
    rows = sorted_indices[starts]
    # np.take: a row gather, faster than fancy indexing
    summed = np.take(values, order[starts], axis=0)
    if len(starts) == n:
        return rows, summed
    lengths = np.diff(starts, append=n)
    short = np.flatnonzero((lengths > 1) & (lengths <= 8))
    if short.size:
        # longest first, so the segments still summing are a prefix
        short = short[np.argsort(-lengths[short], kind="stable")]
        first, live = starts[short], lengths[short]
        rest = np.take(values, order[first + 1], axis=0)
        for position in range(2, int(live[0])):
            count = np.count_nonzero(live > position)
            rest[:count] += np.take(values, order[first[:count] + position], axis=0)
        summed[short] += rest
    long = np.flatnonzero(lengths > 8)
    if long.size:
        spans = lengths[long]
        local = np.cumsum(spans) - spans
        positions = np.arange(int(spans.sum())) + np.repeat(starts[long] - local, spans)
        summed[long] = np.add.reduceat(
            np.take(values, order[positions], axis=0), local, axis=0
        )
    return rows, summed


def scatter_rows(out: np.ndarray, indices: np.ndarray, values: np.ndarray) -> None:
    """``out[indices] += values`` with duplicate indices summed.

    Coalesces first so the scatter is a plain (fast) fancy-index add
    instead of ``np.add.at``.
    """
    rows, summed = _coalesce_rows(
        np.asarray(indices, dtype=np.int64).reshape(-1),
        np.asarray(values, dtype=np.float64).reshape((-1,) + out.shape[1:]),
    )
    out[rows] += summed


class SparseGrad:
    """Gradient of a row-gather: ``values[i]`` flows into row ``indices[i]``.

    ``indices`` is 1-D (rows along axis 0 of the dense ``shape``);
    ``values`` has shape ``(len(indices),) + shape[1:]``.  The object is
    array-like enough for diagnostics (``shape``, ``__array__``) but the
    optimizers consume it directly via :meth:`coalesce` without ever
    materializing the dense matrix.

    A gradient built by :meth:`merged` keeps its parts and joins them,
    in order, the first time ``indices``, ``values`` or :meth:`coalesce`
    reads them, so a backward with k gathers on one table copies its
    rows once instead of k times.
    """

    __slots__ = ("_parts", "_indices", "_values", "shape", "_coalesced")

    def __init__(self, indices, values, shape: tuple[int, ...], coalesced: bool = False):
        indices = np.asarray(indices, dtype=np.int64).reshape(-1)
        values = np.asarray(values, dtype=np.float64).reshape(
            (indices.shape[0],) + tuple(shape[1:])
        )
        self._parts = ((indices, values),)
        self._indices = indices
        self._values = values
        self.shape = tuple(shape)
        self._coalesced = bool(coalesced)

    def __repr__(self) -> str:
        return f"SparseGrad(nnz_rows={len(self.indices)}, shape={self.shape})"

    def _join(self) -> None:
        if self._indices is None:
            self._indices = np.concatenate([indices for indices, _ in self._parts])
            self._values = np.concatenate([values for _, values in self._parts])
            self._parts = ((self._indices, self._values),)

    @property
    def indices(self) -> np.ndarray:
        self._join()
        return self._indices

    @property
    def values(self) -> np.ndarray:
        self._join()
        return self._values

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def dtype(self):
        return np.dtype(np.float64)

    def coalesce(self) -> "SparseGrad":
        """Return an equivalent gradient with unique, sorted indices."""
        if self._coalesced:
            return self
        rows, values = _coalesce_rows(self.indices, self.values)
        return SparseGrad(rows, values, self.shape, coalesced=True)

    def merged(self, other: "SparseGrad") -> "SparseGrad":
        """The gradient of both: ``other``'s rows after this one's.

        No rows are copied here; the parts are joined on first read.
        """
        if other.shape != self.shape:
            raise ValueError(
                f"cannot merge sparse grads of shapes {self.shape} and {other.shape}"
            )
        grad = SparseGrad.__new__(SparseGrad)
        grad._parts = self._parts + other._parts
        grad._indices = grad._values = None
        grad.shape = self.shape
        grad._coalesced = False
        return grad

    def to_dense(self) -> np.ndarray:
        """Materialize the full dense gradient (densification)."""
        dense = np.zeros(self.shape, dtype=np.float64)
        grad = self.coalesce()
        dense[grad.indices] = grad.values
        return dense

    def add_to(self, dense: np.ndarray) -> None:
        """Scatter-add this gradient into an existing dense array."""
        grad = self.coalesce()
        dense[grad.indices] += grad.values

    def copy(self) -> "SparseGrad":
        return SparseGrad(
            self.indices.copy(), self.values.copy(), self.shape, self._coalesced
        )

    def __array__(self, dtype=None, copy=None):
        dense = self.to_dense()
        return dense.astype(dtype) if dtype is not None else dense

    def __getitem__(self, key):
        # Diagnostics convenience (O(dense) — not for hot paths).
        return self.to_dense()[key]
