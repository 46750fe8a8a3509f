"""Reverse-mode automatic differentiation over numpy arrays.

This module is the training substrate of the library.  The paper's original
system (OpenEA) is built on TensorFlow 1.x; here we provide the minimal
engine that the embedding models need: a :class:`Tensor` wrapping a numpy
array, a set of differentiable operations with full broadcasting support,
and topologically-ordered backpropagation.

Only the features the library uses are implemented, but each op computes an
exact gradient (verified by numerical gradient checks in the test suite).
"""

from __future__ import annotations

import numpy as np

from .sparse import SparseGrad, scatter_rows, sparse_gradients_enabled

__all__ = [
    "Tensor",
    "as_tensor",
    "concat",
    "stack",
    "where",
    "maximum",
    "minimum",
    "circular_correlation",
    "sparse_matmul",
]


# Optional hook timing each backward closure, installed by the op
# profiler (repro.obs.opprof).  ``None`` keeps the hot loop branch-free
# apart from a single identity check per node.
_BACKWARD_OP_HOOK = None


def set_backward_op_hook(hook):
    """Install ``hook(node, closure)`` called instead of ``closure(node.grad)``
    for every node during backprop; returns the previous hook.  Pass
    ``None`` to restore the direct call."""
    global _BACKWARD_OP_HOOK
    previous = _BACKWARD_OP_HOOK
    _BACKWARD_OP_HOOK = hook
    return previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over the axes that numpy broadcasting introduced.

    When an operand of shape ``shape`` was broadcast up to ``grad.shape``,
    the gradient w.r.t. that operand is the sum of ``grad`` over every
    broadcast axis.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with an optional gradient and a backward graph edge."""

    # _op is the producing op's kind, set only while the op profiler
    # (repro.obs.opprof) is active; it lets backward closures be
    # attributed to the forward op that created them.
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_op")
    __array_priority__ = 100  # make numpy defer to our __radd__ etc.

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | SparseGrad | None = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()
        self._op: str | None = None

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a view of this tensor cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    # ------------------------------------------------------------------
    # graph construction / backprop
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
        requires = any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray | SparseGrad) -> None:
        """Add ``grad`` to this tensor's gradient.

        No dense gradient is mutated in place.  A backward closure may
        hand one array to several parents (``a + a``), or a view of its
        own gradient (``reshape``, ``concat``), so a sum always allocates
        and the first gradient is kept without a copy.
        """
        if isinstance(grad, SparseGrad):
            if self.grad is None:
                self.grad = grad
            elif isinstance(self.grad, SparseGrad):
                self.grad = self.grad.merged(grad)
            else:
                dense = self.grad.copy()
                grad.add_to(dense)
                self.grad = dense
            return
        if self.grad is None:
            self.grad = np.asarray(grad, dtype=np.float64)
        elif isinstance(self.grad, SparseGrad):
            # A dense gradient joined a sparse one (e.g. a norm regularizer
            # over the full matrix): densify once and keep accumulating.
            dense = self.grad.to_dense()
            dense += grad
            self.grad = dense
        else:
            self.grad = self.grad + grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("backward() without gradient requires a scalar tensor")
            grad = np.ones_like(self.data)
        self._accumulate(np.asarray(grad, dtype=np.float64))

        order: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))

        hook = _BACKWARD_OP_HOOK
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                if hook is None:
                    node._backward(node.grad)
                else:
                    hook(node, node._backward)
                # Free the closure so intermediate buffers can be collected.
                node._backward = None
                node._parents = ()

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data + other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad):
            self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data * other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data / other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data**2), other.shape)
                )

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(grad):
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data @ other.data

        def backward(grad):
            if self.requires_grad:
                if other.data.ndim == 1:
                    self._accumulate(np.outer(grad, other.data).reshape(self.shape))
                else:
                    self._accumulate(
                        _unbroadcast(grad @ np.swapaxes(other.data, -1, -2), self.shape)
                    )
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate(np.outer(self.data, grad).reshape(other.shape))
                else:
                    other._accumulate(
                        _unbroadcast(np.swapaxes(self.data, -1, -2) @ grad, other.shape)
                    )

        return Tensor._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def backward(grad):
            self._accumulate(grad.reshape(self.shape))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out_data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad):
            self._accumulate(grad.transpose(inverse))

        return Tensor._make(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, key) -> "Tensor":
        out_data = self.data[key]

        def backward(grad):
            full = np.zeros_like(self.data)
            np.add.at(full, key, grad)
            self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    def gather(self, indices) -> "Tensor":
        """Row lookup (embedding gather) with scatter-add backward.

        ``indices`` may be an array, list or tuple of integers (any
        shape); rows are gathered along axis 0.  When this tensor is a
        graph *leaf* (a parameter or input, not an op output) and sparse
        gradients are enabled, the backward pass emits a
        :class:`~repro.autodiff.sparse.SparseGrad` carrying only the
        gathered rows — O(batch) instead of O(rows) per step.
        """
        if self.ndim < 1:
            raise IndexError("gather requires a tensor with at least one axis")
        indices = np.asarray(indices)
        if indices.size == 0:
            indices = indices.astype(np.int64)
        if not np.issubdtype(indices.dtype, np.integer):
            raise TypeError(
                f"gather indices must be integers, got dtype {indices.dtype}"
            )
        n_rows = self.shape[0]
        if indices.size:
            low = int(indices.min())
            high = int(indices.max())
            if low < -n_rows or high >= n_rows:
                bad = high if high >= n_rows else low
                raise IndexError(
                    f"gather index {bad} out of range for axis 0 with "
                    f"{n_rows} rows"
                )
            if low < 0:
                indices = np.where(indices < 0, indices + n_rows, indices)
        out_data = self.data[indices]
        # Sparse grads are only valid for leaves: an op output's gradient
        # must stay dense so it can flow through the producing op.
        is_leaf = not self._parents

        def backward(grad):
            if is_leaf and sparse_gradients_enabled():
                self._accumulate(SparseGrad(indices, grad, self.shape))
            else:
                full = np.zeros_like(self.data)
                scatter_rows(full, indices, grad)
                self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad):
            g = np.asarray(grad)
            expanded = self.data.max(axis=axis, keepdims=True)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            mask = (self.data == expanded).astype(np.float64)
            mask /= mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(mask * g)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad):
            self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad):
            self._accumulate(grad / self.data)

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(grad):
            self._accumulate(grad * 0.5 / out_data)

        return Tensor._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)

        def backward(grad):
            self._accumulate(grad * np.sign(self.data))

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -500.0, 500.0)))

        def backward(grad):
            self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad):
            self._accumulate(grad * (1.0 - out_data**2))

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        out_data = np.maximum(self.data, 0.0)

        def backward(grad):
            self._accumulate(grad * (self.data > 0.0))

        return Tensor._make(out_data, (self,), backward)

    def softplus(self) -> "Tensor":
        # log(1 + exp(x)), computed stably.
        out_data = np.logaddexp(0.0, self.data)

        def backward(grad):
            self._accumulate(grad / (1.0 + np.exp(-self.data)))

        return Tensor._make(out_data, (self,), backward)

    def cos(self) -> "Tensor":
        out_data = np.cos(self.data)

        def backward(grad):
            self._accumulate(-grad * np.sin(self.data))

        return Tensor._make(out_data, (self,), backward)

    def sin(self) -> "Tensor":
        out_data = np.sin(self.data)

        def backward(grad):
            self._accumulate(grad * np.cos(self.data))

        return Tensor._make(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        out_data = np.clip(self.data, low, high)

        def backward(grad):
            inside = (self.data >= low) & (self.data <= high)
            self._accumulate(grad * inside)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # composite helpers
    # ------------------------------------------------------------------
    def square(self) -> "Tensor":
        return self * self

    def norm(self, axis=None, keepdims: bool = False, eps: float = 1e-12) -> "Tensor":
        """L2 norm along ``axis`` (smoothed so the gradient exists at 0)."""
        return (self.square().sum(axis=axis, keepdims=keepdims) + eps).sqrt()

    def l2_normalize(self, axis: int = -1, eps: float = 1e-12) -> "Tensor":
        return self / self.norm(axis=axis, keepdims=True, eps=eps)

    def dropout(self, rate: float, rng: np.random.Generator) -> "Tensor":
        """Inverted dropout; pass ``rate=0`` (or skip the call) at eval time."""
        if rate <= 0.0:
            return self
        keep = 1.0 - rate
        mask = (rng.random(self.shape) < keep).astype(np.float64) / keep
        return self * Tensor(mask)

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self - Tensor(self.data.max(axis=axis, keepdims=True))
        exp = shifted.exp()
        return exp / exp.sum(axis=axis, keepdims=True)


def as_tensor(value) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy when already one)."""
    return value if isinstance(value, Tensor) else Tensor(value)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(index)])

    return Tensor._make(out_data, tuple(tensors), backward)


def stack(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad):
        slices = np.moveaxis(grad, axis, 0)
        for tensor, piece in zip(tensors, slices):
            if tensor.requires_grad:
                tensor._accumulate(piece)

    return Tensor._make(out_data, tuple(tensors), backward)


def where(condition: np.ndarray, a, b) -> Tensor:
    """Differentiable select: gradient flows to the chosen branch."""
    a, b = as_tensor(a), as_tensor(b)
    condition = np.asarray(condition, dtype=bool)
    out_data = np.where(condition, a.data, b.data)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * condition, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * ~condition, b.shape))

    return Tensor._make(out_data, (a, b), backward)


def maximum(a, b) -> Tensor:
    """Elementwise maximum; gradient flows to the larger operand."""
    a, b = as_tensor(a), as_tensor(b)
    return where(a.data >= b.data, a, b)


def minimum(a, b) -> Tensor:
    """Elementwise minimum; gradient flows to the smaller operand."""
    a, b = as_tensor(a), as_tensor(b)
    return where(a.data <= b.data, a, b)


def circular_correlation(a: Tensor, b: Tensor) -> Tensor:
    """Circular correlation along the last axis (used by HolE).

    ``corr(a, b)[k] = sum_i a[i] * b[(i + k) mod n]``, computed via FFT.
    The gradients are themselves correlations/convolutions:
    ``d/da = corr(g, b)`` and ``d/db = cconv(g, a)``.
    """
    a, b = as_tensor(a), as_tensor(b)

    def _corr(x, y):
        return np.real(np.fft.ifft(np.conj(np.fft.fft(x)) * np.fft.fft(y)))

    def _cconv(x, y):
        return np.real(np.fft.ifft(np.fft.fft(x) * np.fft.fft(y)))

    out_data = _corr(a.data, b.data)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(_unbroadcast(_corr(grad, b.data), a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(_cconv(grad, a.data), b.shape))

    return Tensor._make(out_data, (a, b), backward)


def sparse_matmul(sparse_matrix, dense: Tensor) -> Tensor:
    """Multiply a constant ``scipy.sparse`` matrix with a dense tensor.

    The sparse operand (typically a normalized adjacency matrix) is treated
    as a constant; gradients flow only to ``dense``.
    """
    dense = as_tensor(dense)
    out_data = sparse_matrix @ dense.data

    def backward(grad):
        if dense.requires_grad:
            dense._accumulate(sparse_matrix.T @ grad)

    return Tensor._make(out_data, (dense,), backward)
