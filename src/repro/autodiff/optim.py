"""Optimizers for :class:`~repro.autodiff.module.Parameter` collections.

All three optimizers understand both dense ``np.ndarray`` gradients and
row-sparse :class:`~repro.autodiff.sparse.SparseGrad` gradients (emitted
by ``Tensor.gather`` on embedding tables).  Sparse updates touch only the
gathered rows, so one training step costs O(batch) instead of O(rows).

Sparse semantics (documented in ``docs/performance.md``):

* **SGD** (no momentum) and **Adagrad** — exactly equivalent to a dense
  update of the scattered gradient: rows with zero gradient receive a
  zero update either way.
* **SGD with momentum** — per-row step counters apply the decay the
  skipped steps would have performed (``v ← μ^gap v + g``) plus the
  closed-form geometric-series catch-up of the skipped parameter
  updates, so the trajectory matches dense training whenever a row's
  forward value was not consumed while stale.
* **Adam** — lazy: first and second moments and the bias-correction
  step counter are kept *per row* and advance only when a row appears in
  a batch (TensorFlow's ``LazyAdam`` semantics).  When every row appears
  in every batch this is bit-for-bit identical to dense Adam.

Optimizer state is keyed by the parameter's *position* in the parameter
list — not ``id(parameter)``, which can be reused after garbage
collection — and round-trips through ``state_dict()`` /
``load_state_dict()`` for checkpointing.
"""

from __future__ import annotations

import numpy as np

from .module import Parameter
from .sparse import SparseGrad

__all__ = ["Optimizer", "SGD", "Adagrad", "Adam", "get_optimizer"]


def _per_row(values: np.ndarray, ndim: int) -> np.ndarray:
    """Reshape a per-row vector so it broadcasts over trailing axes."""
    values = np.asarray(values)
    return values.reshape(values.shape + (1,) * (ndim - 1))


class Optimizer:
    """Base class: holds parameters and applies gradient steps.

    State is stored in ``self._state``, a dict keyed by the parameter's
    index in ``self.parameters`` (stable across garbage collection,
    unlike ``id()``), with one sub-dict of numpy arrays per parameter.
    """

    def __init__(self, parameters: list[Parameter], lr: float):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.parameters = list(parameters)
        self.lr = lr
        self._state: dict[int, dict] = {}

    def zero_grad(self) -> None:
        for parameter in self.parameters:
            parameter.grad = None

    def step(self) -> None:
        for index, parameter in enumerate(self.parameters):
            if parameter.grad is None:
                continue
            if isinstance(parameter.grad, SparseGrad):
                # coalesced once; readers after the step (epoch gauges,
                # quality probe) find it done
                parameter.grad = parameter.grad.coalesce()
            self._update(parameter, self._state.setdefault(index, {}))

    def _update(self, parameter: Parameter, state: dict) -> None:
        raise NotImplementedError

    # -- checkpointing -------------------------------------------------
    def state_dict(self) -> dict:
        """Serializable snapshot: ``{"lr": float, "state": {index: {...}}}``."""
        return {
            "lr": float(self.lr),
            "state": {
                index: {key: np.array(value) for key, value in slot.items()}
                for index, slot in self._state.items()
            },
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        self.lr = float(state.get("lr", self.lr))
        self._state = {}
        for index, slot in state.get("state", {}).items():
            restored = {}
            for key, value in slot.items():
                value = np.asarray(value)
                restored[key] = value.item() if value.ndim == 0 else value.copy()
            self._state[int(index)] = restored


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, parameters: list[Parameter], lr: float = 0.01, momentum: float = 0.0):
        super().__init__(parameters, lr)
        self.momentum = momentum

    def _init_state(self, parameter: Parameter, state: dict) -> None:
        if "velocity" not in state:
            state["velocity"] = np.zeros_like(parameter.data)
            state["last_step"] = np.zeros(parameter.shape[0], dtype=np.int64)
            state["step"] = 0

    def _catchup(self, gap: np.ndarray) -> np.ndarray:
        """Sum of ``μ^k`` for ``k = 1 .. gap-1`` (skipped ghost updates)."""
        mu = self.momentum
        if mu >= 1.0:
            return np.maximum(gap - 1, 0).astype(np.float64)
        return mu * (1.0 - mu ** np.maximum(gap - 1, 0)) / (1.0 - mu)

    def _update(self, parameter: Parameter, state: dict) -> None:
        grad = parameter.grad
        if self.momentum <= 0.0:
            if isinstance(grad, SparseGrad):
                parameter.data[grad.indices] -= self.lr * grad.values
            else:
                parameter.data -= self.lr * grad
            return
        if parameter.ndim == 0:  # scalar parameter: no row structure
            velocity = state.get("velocity", np.zeros_like(parameter.data))
            velocity = self.momentum * velocity + np.asarray(grad)
            state["velocity"] = velocity
            parameter.data -= self.lr * velocity
            return
        self._init_state(parameter, state)
        state["step"] += 1
        step = state["step"]
        velocity, last = state["velocity"], state["last_step"]
        ndim = parameter.data.ndim
        if isinstance(grad, SparseGrad):
            rows, values = grad.indices, grad.values
            gap = step - last[rows]
            v_rows = velocity[rows]
            parameter.data[rows] -= self.lr * _per_row(self._catchup(gap), ndim) * v_rows
            v_rows = _per_row(self.momentum ** gap, ndim) * v_rows + values
            velocity[rows] = v_rows
            parameter.data[rows] -= self.lr * v_rows
            last[rows] = step
        else:
            gap = step - last
            stale = gap > 1
            if np.any(stale):
                parameter.data -= self.lr * _per_row(self._catchup(gap), ndim) * velocity
                velocity *= _per_row(self.momentum ** gap, ndim)
                velocity += grad
            else:
                velocity *= self.momentum
                velocity += grad
            parameter.data -= self.lr * velocity
            last[...] = step


class Adagrad(Optimizer):
    """Adagrad (per-coordinate adaptive learning rate)."""

    def __init__(self, parameters: list[Parameter], lr: float = 0.1, eps: float = 1e-8):
        super().__init__(parameters, lr)
        self.eps = eps

    def _update(self, parameter: Parameter, state: dict) -> None:
        accum = state.get("accum")
        if accum is None:
            accum = state["accum"] = np.zeros_like(parameter.data)
        grad = parameter.grad
        if isinstance(grad, SparseGrad):
            rows, values = grad.indices, grad.values
            accum[rows] += values**2
            parameter.data[rows] -= self.lr * values / (np.sqrt(accum[rows]) + self.eps)
        else:
            accum += grad**2
            parameter.data -= self.lr * grad / (np.sqrt(accum) + self.eps)


class Adam(Optimizer):
    """Adam with bias correction (lazy per-row steps for sparse grads)."""

    def __init__(
        self,
        parameters: list[Parameter],
        lr: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        super().__init__(parameters, lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps

    def _init_state(self, parameter: Parameter, state: dict) -> None:
        if "m" not in state:
            state["m"] = np.zeros_like(parameter.data)
            state["v"] = np.zeros_like(parameter.data)
            rows = parameter.shape[0] if parameter.ndim else 1
            state["t"] = np.zeros(rows, dtype=np.int64)

    def _update(self, parameter: Parameter, state: dict) -> None:
        self._init_state(parameter, state)
        m, v, t = state["m"], state["v"], state["t"]
        grad = parameter.grad
        ndim = max(parameter.data.ndim, 1)
        if isinstance(grad, SparseGrad):
            rows, values = grad.indices, grad.values
            t[rows] += 1
            t_rows = t[rows]
            m_rows = self.beta1 * m[rows] + (1.0 - self.beta1) * values
            v_rows = self.beta2 * v[rows] + (1.0 - self.beta2) * values**2
            m[rows] = m_rows
            v[rows] = v_rows
            m_hat = m_rows / _per_row(1.0 - self.beta1**t_rows, ndim)
            v_hat = v_rows / _per_row(1.0 - self.beta2**t_rows, ndim)
            parameter.data[rows] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        else:
            t += 1
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            correction1 = _per_row(1.0 - self.beta1**t, ndim)
            correction2 = _per_row(1.0 - self.beta2**t, ndim)
            if parameter.data.ndim == 0:
                correction1 = correction1.reshape(())
                correction2 = correction2.reshape(())
            m_hat = m / correction1
            v_hat = v / correction2
            parameter.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


_OPTIMIZERS = {"sgd": SGD, "adagrad": Adagrad, "adam": Adam}


def get_optimizer(name: str, parameters: list[Parameter], lr: float) -> Optimizer:
    """Construct an optimizer by name (``sgd``, ``adagrad`` or ``adam``)."""
    try:
        cls = _OPTIMIZERS[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown optimizer {name!r}; choose from {sorted(_OPTIMIZERS)}"
        ) from None
    return cls(parameters, lr=lr)
