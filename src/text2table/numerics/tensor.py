"""Dense float tensors with tape-based reverse-mode differentiation.

A Tensor wraps one ndarray. When recording is enabled and an operand of an
op (in :mod:`.ops`) requires gradients, :func:`make_result` gives the op's
result a :class:`Node`, the result's entry on the tape. A node holds two
things:

- ``parents``: one entry per operand. It is the operand's own node when the
  operand is a recorded result, the operand Tensor itself when it is a leaf
  that accumulates a gradient (a parameter), and None when the operand needs
  no gradient.
- ``vjp``: the op's vector-Jacobian callback, which closes over only the
  arrays and shapes it reads (see :mod:`.ops`).

So the tape refers to a Tensor only for a leaf. An intermediate Tensor and
its array are freed as soon as the forward code drops them, unless some vjp
saved that array. :func:`backward` replays the nodes from a scalar root,
accumulates into the ``grad`` buffers of leaves, and frees each node's vjp,
and with it the arrays it saved, once it has run. Graphs are single-use.

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


class Node:
    """One recorded op on the tape: an entry per operand (its node, the leaf
    Tensor itself, or None when it needs no gradient) and the op's vjp."""

    __slots__ = ("parents", "vjp")

    def __init__(self, parents: tuple, vjp):
        self.parents = parents
        self.vjp = vjp


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None and arr.dtype != dtype:
            arr = arr.astype(dtype)
        elif arr.dtype not in (np.float64, np.float32):
            arr = arr.astype(np.float64)
        self.data: np.ndarray = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.node: Node | None = None  # set only on a recorded op result

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
    """Wrap an op result, giving it a tape :class:`Node` when gradients are live.

    ``vjp(grad_out)`` must return one gradient array (or None) per parent.
    ``data`` is the op's float result in its operands' dtype, so it is kept
    as it is, without :class:`Tensor`'s conversions; a numpy scalar (an op on
    a 0-d array gives one) becomes a 0-d array.
    """
    out = Tensor.__new__(Tensor)
    out.data = data if type(data) is np.ndarray else np.asarray(data)
    out.grad = None
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out.node = Node(tuple(p.node or (p if p.requires_grad else None) for p in parents), vjp)
    else:
        out.requires_grad, out.node = False, None
    return out


def backward(root: Tensor) -> None:
    """Populate ``grad`` on every reachable leaf that requires gradients.

    Repeated calls (on fresh graphs) accumulate; clear ``grad`` between
    steps. Each node's vjp and parent links are dropped once it has run.
    """
    if root.data.size != 1:
        raise NonScalarRootError(root.shape)
    if not root.requires_grad:
        raise NumericsError("backward root does not require gradients")

    start = root.node or root  # a leaf root is its own entry
    order: list = []  # nodes and leaf Tensors, each after every entry that feeds it
    seen: set[int] = set()
    stack: list = [(start, False)]
    while stack:
        entry, expanded = stack.pop()
        if expanded:
            order.append(entry)
            continue
        if id(entry) in seen:
            continue
        seen.add(id(entry))
        stack.append((entry, True))
        if type(entry) is Node:
            for p in entry.parents:
                if p is not None and id(p) not in seen:
                    stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(start): np.ones_like(root.data)}
    for entry in reversed(order):
        g = grads.pop(id(entry), None)
        if g is None:
            continue
        if type(entry) is not Node:
            entry.accumulate_grad(g)
            continue
        if entry.vjp is None:  # spent by an earlier backward
            continue
        for parent, pg in zip(entry.parents, entry.vjp(g)):
            if pg is None or parent is None:
                continue
            key = id(parent)
            if key in grads:
                # vjps may return views (e.g. reshape); add out of place
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg
        entry.parents = ()
        entry.vjp = None
