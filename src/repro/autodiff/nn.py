"""Neural building blocks on top of the autodiff engine.

Provides the layers the deep embedding models need: dense layers, embedding
tables, a 2-D convolution (ConvE), a GRU cell (the recurrent skipping
network of RSN4EA) and a highway gate (RDGCN).
"""

from __future__ import annotations

import numpy as np

from .init import xavier_init
from .module import Module, Parameter
from .tensor import Tensor, concat

__all__ = ["Linear", "EmbeddingTable", "GRUCell", "Highway", "conv2d"]


class Linear(Module):
    """Affine layer ``y = x W + b``."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 bias: bool = True, name: str = "linear"):
        self.weight = Parameter(xavier_init((in_dim, out_dim), rng), name=f"{name}.weight")
        self.bias = Parameter(np.zeros(out_dim), name=f"{name}.bias") if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class EmbeddingTable(Module):
    """A lookup table of row embeddings."""

    def __init__(self, count: int, dim: int, rng: np.random.Generator,
                 initializer=xavier_init, name: str = "embedding"):
        self.table = Parameter(initializer((count, dim), rng), name=name)

    def __call__(self, indices) -> Tensor:
        return self.table.gather(np.asarray(indices, dtype=np.int64))

    @property
    def count(self) -> int:
        return self.table.shape[0]

    @property
    def dim(self) -> int:
        return self.table.shape[1]

    def normalize_rows(self) -> None:
        """Project rows onto the unit sphere (in place, no gradient)."""
        norms = np.linalg.norm(self.table.data, axis=1, keepdims=True)
        self.table.data /= np.maximum(norms, 1e-12)

    def all_embeddings(self) -> np.ndarray:
        """Current embedding matrix as a plain array (no graph)."""
        return self.table.data


class GRUCell(Module):
    """Gated recurrent unit cell."""

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator,
                 name: str = "gru"):
        self.hidden_dim = hidden_dim
        self.w_z = Linear(input_dim + hidden_dim, hidden_dim, rng, name=f"{name}.z")
        self.w_r = Linear(input_dim + hidden_dim, hidden_dim, rng, name=f"{name}.r")
        self.w_h = Linear(input_dim + hidden_dim, hidden_dim, rng, name=f"{name}.h")

    def __call__(self, x: Tensor, h: Tensor) -> Tensor:
        xh = concat([x, h], axis=-1)
        z = self.w_z(xh).sigmoid()
        r = self.w_r(xh).sigmoid()
        candidate = self.w_h(concat([x, r * h], axis=-1)).tanh()
        return (1.0 - z) * h + z * candidate

    def initial_state(self, batch: int) -> Tensor:
        return Tensor(np.zeros((batch, self.hidden_dim)))


class Highway(Module):
    """Highway gate: ``y = t * transform(x) + (1 - t) * x``."""

    def __init__(self, dim: int, rng: np.random.Generator, name: str = "highway"):
        self.gate = Linear(dim, dim, rng, name=f"{name}.gate")
        # Bias the gate towards carrying the input through at start.
        self.gate.bias.data[...] = -1.0

    def __call__(self, x: Tensor, transformed: Tensor) -> Tensor:
        t = self.gate(x).sigmoid()
        return t * transformed + (1.0 - t) * x


def _im2col(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Extract sliding (kh, kw) patches; valid padding, stride 1.

    Input ``(N, C, H, W)`` -> output ``(N, H', W', C*kh*kw)``.
    """
    n, c, h, w = x.shape
    oh, ow = h - kh + 1, w - kw + 1
    shape = (n, c, oh, ow, kh, kw)
    strides = (
        x.strides[0], x.strides[1], x.strides[2], x.strides[3],
        x.strides[2], x.strides[3],
    )
    patches = np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)
    # (N, OH, OW, C, KH, KW) -> flatten trailing dims
    return patches.transpose(0, 2, 3, 1, 4, 5).reshape(n, oh, ow, c * kh * kw)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """2-D convolution, valid padding, stride 1 (what ConvE uses).

    ``x``: (N, C, H, W); ``weight``: (F, C, KH, KW); returns (N, F, H', W').
    """
    n, c, h, w = x.shape
    f, c2, kh, kw = weight.shape
    if c != c2:
        raise ValueError(f"channel mismatch: input has {c}, kernel expects {c2}")
    oh, ow = h - kh + 1, w - kw + 1

    cols = _im2col(x.data, kh, kw)  # (N, OH, OW, C*KH*KW)
    kernel = weight.data.reshape(f, -1)  # (F, C*KH*KW)
    out_data = cols @ kernel.T  # (N, OH, OW, F)
    out_data = out_data.transpose(0, 3, 1, 2)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, f, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad):
        # grad: (N, F, OH, OW)
        grad_cols = grad.transpose(0, 2, 3, 1)  # (N, OH, OW, F)
        if weight.requires_grad:
            grad_kernel = np.einsum("nijf,nijk->fk", grad_cols, cols)
            weight._accumulate(grad_kernel.reshape(weight.shape))
        if x.requires_grad:
            grad_patch = grad_cols @ kernel  # (N, OH, OW, C*KH*KW)
            grad_patch = grad_patch.reshape(n, oh, ow, c, kh, kw)
            grad_x = np.zeros_like(x.data)
            for i in range(kh):
                for j in range(kw):
                    grad_x[:, :, i:i + oh, j:j + ow] += grad_patch[
                        :, :, :, :, i, j
                    ].transpose(0, 3, 1, 2)
            x._accumulate(grad_x)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))

    return Tensor._make(out_data, parents, backward)
