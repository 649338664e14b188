"""Dense float tensors with tape-based reverse-mode differentiation.

A Tensor wraps one ndarray. Operations (in :mod:`.ops`) record parent links
and a vector-Jacobian callback when any operand requires gradients and
recording is enabled; :func:`backward` replays the tape from a scalar root and
accumulates into the ``grad`` buffers of leaf tensors. The tape is dropped
after the sweep, so graphs are single-use.

Tensors are treated as immutable after creation, except for gradient
accumulation. No higher-order derivatives.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np


class NumericsError(Exception):
    """Base class for tensor/op failures."""


class ShapeMismatchError(NumericsError):
    """Operand shapes do not conform for an op."""

    def __init__(self, op: str, left, right):
        self.op = op
        self.left = tuple(left)
        self.right = tuple(right)
        super().__init__(f"{op}: shapes {self.left} and {self.right} do not conform")


class NonScalarRootError(NumericsError):
    def __init__(self, shape):
        super().__init__(f"backward root must be scalar, got shape {tuple(shape)}")


_grad_enabled = True


@contextmanager
def no_grad():
    """Disable tape recording inside the block (inference / oracle evals)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None and arr.dtype != dtype:
            arr = arr.astype(dtype)
        elif arr.dtype not in (np.float64, np.float32):
            arr = arr.astype(np.float64)
        self.data: np.ndarray = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def make_result(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    """Wrap an op result, recording the tape node when gradients are live.

    ``vjp(grad_out)`` must return one gradient array (or None) per parent.
    ``data`` is the op's float result in its operands' dtype, so it is kept
    as it is, without :class:`Tensor`'s conversions; a numpy scalar (an op on
    a 0-d array gives one) becomes a 0-d array.
    """
    out = Tensor.__new__(Tensor)
    out.data = data if type(data) is np.ndarray else np.asarray(data)
    out.grad = None
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad, out._parents, out._vjp = True, parents, vjp
    else:
        out.requires_grad, out._parents, out._vjp = False, (), None
    return out


def backward(root: Tensor) -> None:
    """Populate ``grad`` on every reachable leaf that requires gradients.

    Repeated calls (on fresh graphs) accumulate; clear ``grad`` between
    steps. The traversed tape is freed afterwards.
    """
    if root.data.size != 1:
        raise NonScalarRootError(root.shape)
    if not root.requires_grad:
        raise NumericsError("backward root does not require gradients")

    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(root): np.ones_like(root.data)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            node.accumulate_grad(g)
            continue
        parent_grads = node._vjp(g)
        for parent, pg in zip(node._parents, parent_grads):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            if key in grads:
                # vjps may return views (e.g. reshape); add out of place
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg
        node._parents = ()
        node._vjp = None
