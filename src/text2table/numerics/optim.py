"""AdamW with decoupled weight decay, plus global-norm gradient clipping, over
flat buffers.

A :class:`ParameterStore` packs the parameters it is made with into one
contiguous buffer, ``data``: each parameter's ``data`` is a view of its slot,
in the order given. Gradients get a second buffer of the same layout,
``grad``. The first gradient a parameter receives is written into its slot
and its ``grad`` becomes that view, so a backward pass leaves every gradient
packed without a copy; ``zero_grad`` only sets each ``grad`` to None. AdamW
keeps its moments ``m`` and ``v`` in two more buffers of that layout
(``AdamW.m[name]`` is a view), and clipping scales the gradient buffer in one
call.

Update rule (elementwise, after t steps):

    p -= lr * wd * p                                  (decoupled decay)
    m  = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
    p -= lr * sqrt(1-b2^t)/(1-b1^t) * m / (sqrt(v) + eps)

Every operation is elementwise, so running it once over the flat buffers
gives each parameter the bits a loop over the parameters gives. The bias
correction is folded into the step size (the "efficient" form), so with zero
gradient and fresh moments the adaptive term is exactly zero and decay alone
shrinks p by lr*wd*p.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from .tensor import NumericsError, Tensor


class MissingGradError(NumericsError):
    def __init__(self, names: list[str]):
        self.names = names
        super().__init__(f"parameters missing gradients: {', '.join(names)}")


class Parameter(Tensor):
    """A tensor held by a :class:`ParameterStore`: its ``data`` and
    ``grad_slot`` are views of the store's flat parameter and gradient
    buffers."""

    __slots__ = ("grad_slot",)

    def __init__(self, data: np.ndarray, grad_slot: np.ndarray):
        super().__init__(data, requires_grad=True)
        self.grad_slot = grad_slot

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            # g + 0 into the slot: the bits of a zeroed buffer's first +=, where -0.0 becomes 0.0
            self.grad = np.add(g, 0, out=self.grad_slot)
        else:
            super().accumulate_grad(g)


class ParameterStore:
    """Named parameters, packed in the order given into the flat buffers
    ``data`` and ``grad`` when the store is made. The parameters share one
    dtype and each name is given once. The slot of ``grad`` of a parameter
    whose ``grad`` is None holds no gradient."""

    def __init__(self, arrays: Iterable[tuple[str, np.ndarray]]):
        arrays = list(arrays)
        dtypes = {a.dtype for _, a in arrays}
        if len(dtypes) > 1:
            raise ValueError(f"parameters of one store share a dtype, got {sorted(map(str, dtypes))}")
        offsets = np.cumsum([0] + [a.size for _, a in arrays]).tolist()
        self.data = np.empty(offsets[-1], dtype=dtypes.pop() if dtypes else np.float64)
        self.grad = np.zeros(self.data.shape, self.data.dtype)
        self._params: dict[str, Parameter] = {}
        for (name, a), o, end in zip(arrays, offsets, offsets[1:]):
            if name in self._params:
                raise ValueError(f"duplicate parameter {name}")
            self.data[o:end] = a.reshape(-1)
            self._params[name] = Parameter(self.data[o:end].reshape(a.shape), self.grad[o:end].reshape(a.shape))

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def items(self):
        return self._params.items()

    def names(self) -> list[str]:
        return list(self._params)

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each parameter's slot of a buffer laid out as :attr:`data`, in its shape."""
        offsets = np.cumsum([0] + [t.data.size for t in self._params.values()]).tolist()
        return {name: flat[o : o + t.data.size].reshape(t.shape) for (name, t), o in zip(self.items(), offsets)}

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None


def clip_grad_norm(store: ParameterStore, max_norm: float) -> float:
    """Scale all grads so their global L2 norm is at most max_norm.

    The squares are summed per parameter, in store order, as numpy sums one
    parameter's array; a parameter without a grad adds nothing."""
    flat = store.grad
    sq = store.views(flat * flat)
    norm = math.sqrt(sum(float(sq[name].sum()) for name, t in store.items() if t.grad is not None))
    if max_norm > 0 and norm > max_norm:
        flat *= max_norm / norm
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
        # np.zeros, not zeros_like, which writes its zeros: the pages stay untouched until a step
        self._m = np.zeros(store.data.shape, store.data.dtype)
        self._v = np.zeros(store.data.shape, store.data.dtype)
        self.m: dict[str, np.ndarray] = store.views(self._m)
        self.v: dict[str, np.ndarray] = store.views(self._v)

    def step(self) -> None:
        """One in-place update of every parameter and its moments; grads are
        left untouched."""
        missing = [name for name, t in self.store.items() if t.grad is None]
        if missing:
            raise MissingGradError(missing)
        g = self.store.grad
        self.step_count += 1
        t = self.step_count
        step_size = self.lr * math.sqrt(1.0 - self.beta2**t) / (1.0 - self.beta1**t)
        decay = self.lr * self.weight_decay
        b1, b2 = self.beta1, self.beta2
        w, m, v = self.store.data, self._m, self._v  # updated in place
        tmp = np.empty_like(w)  # made per step: a buffer kept between steps would add to the peak memory
        if decay != 0.0:
            w -= np.multiply(decay, w, out=tmp)
        m *= b1
        m += np.multiply(1.0 - b1, g, out=tmp)
        v *= b2
        v += np.multiply(1.0 - b2, np.multiply(g, g, out=tmp), out=tmp)
        np.sqrt(v, out=tmp)
        tmp += self.eps
        np.divide(m, tmp, out=tmp)
        w -= np.multiply(step_size, tmp, out=tmp)

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Per-parameter view of optimizer state for checkpointing."""
        out: dict[str, np.ndarray] = {}
        for name in self.store.names():
            out[f"m::{name}"] = self.m[name]
            out[f"v::{name}"] = self.v[name]
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray], step_count: int) -> None:
        """Load the arrays :meth:`state_arrays` names. A missing array is a
        KeyError of its name; one whose shape or dtype is not its parameter's
        is a ValueError that names it. Either leaves the state as it was."""
        for name, t in self.store.items():
            for key in (f"m::{name}", f"v::{name}"):
                arr = arrays[key]
                if arr.shape != t.shape or arr.dtype != t.dtype:
                    raise ValueError(
                        f"optimizer array {key} is {arr.dtype} {arr.shape}, its parameter {t.dtype} {t.shape}"
                    )
        for name in self.store.names():
            self.m[name][...] = arrays[f"m::{name}"]
            self.v[name][...] = arrays[f"v::{name}"]
        self.step_count = step_count
