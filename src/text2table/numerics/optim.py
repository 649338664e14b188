"""AdamW with decoupled weight decay, plus global-norm gradient clipping.

Update rule (per parameter, after t steps):

    p -= lr * wd * p                                  (decoupled decay)
    m  = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
    p -= lr * sqrt(1-b2^t)/(1-b1^t) * m / (sqrt(v) + eps)

The bias correction is folded into the step size (the "efficient" form), so
with zero gradient and fresh moments the adaptive term is exactly zero and
decay alone shrinks p by lr*wd*p.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import NumericsError, Tensor


class MissingGradError(NumericsError):
    def __init__(self, names: list[str]):
        self.names = names
        super().__init__(f"parameters missing gradients: {', '.join(names)}")


class ParameterStore:
    """Ordered named parameter tensors with grad bookkeeping."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, data: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter {name}")
        t = Tensor(data, requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def items(self):
        return self._params.items()

    def names(self) -> list[str]:
        return list(self._params)

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None


def clip_grad_norm(store: ParameterStore, max_norm: float) -> float:
    """Scale all grads so their global L2 norm is at most max_norm."""
    total = 0.0
    for _, t in store.items():
        if t.grad is not None:
            total += float((t.grad * t.grad).sum())
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        factor = max_norm / norm
        for _, t in store.items():
            if t.grad is not None:
                t.grad *= factor
    return norm


class AdamW:
    def __init__(
        self,
        store: ParameterStore,
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 1e-5,
    ):
        self.store = store
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m: dict[str, np.ndarray] = {
            name: np.zeros_like(t.data) for name, t in store.items()
        }
        self.v: dict[str, np.ndarray] = {
            name: np.zeros_like(t.data) for name, t in store.items()
        }

    def step(self) -> None:
        """One in-place update of every parameter and its moments; grads are
        left untouched."""
        missing = [name for name, t in self.store.items() if t.grad is None]
        if missing:
            raise MissingGradError(missing)
        self.step_count += 1
        t = self.step_count
        step_size = self.lr * math.sqrt(1.0 - self.beta2**t) / (1.0 - self.beta1**t)
        decay = self.lr * self.weight_decay
        b1, b2 = self.beta1, self.beta2
        for name, p in self.store.items():
            w, g, m, v = p.data, p.grad, self.m[name], self.v[name]  # updated in place
            if decay != 0.0:
                w -= decay * w
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            w -= step_size * (m / (np.sqrt(v) + self.eps))

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Flat view of optimizer state for checkpointing."""
        out: dict[str, np.ndarray] = {}
        for name in self.store.names():
            out[f"m::{name}"] = self.m[name]
            out[f"v::{name}"] = self.v[name]
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray], step_count: int) -> None:
        for name in self.store.names():
            self.m[name][...] = arrays[f"m::{name}"]
            self.v[name][...] = arrays[f"v::{name}"]
        self.step_count = step_count
