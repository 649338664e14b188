"""Differentiable operations over :class:`~text2table.numerics.tensor.Tensor`.

Shapes follow numpy broadcasting; every op validates operand shapes and
raises :class:`ShapeMismatchError` naming the op on violation. Reductions
and layer norm act over the last axis unless stated otherwise.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .tensor import ShapeMismatchError, Tensor, make_result


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad down to `shape` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _check_broadcast(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape == b.shape:
        return
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeMismatchError(op, a.shape, b.shape) from None


def constant(value, dtype=np.float64) -> Tensor:
    return Tensor(np.asarray(value, dtype=dtype))


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("add", a, b)

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return make_result(a.data + b.data, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("sub", a, b)

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return make_result(a.data - b.data, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("mul", a, b)

    def vjp(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return make_result(a.data * b.data, (a, b), vjp)


def scale(a: Tensor, k: float) -> Tensor:
    def vjp(g):
        return (g * k,)

    return make_result(a.data * k, (a,), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 1 or b.data.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeMismatchError("matmul", a.shape, b.shape)
    try:
        out = np.matmul(a.data, b.data)
    except ValueError:
        raise ShapeMismatchError("matmul", a.shape, b.shape) from None

    def vjp(g):
        bt = np.swapaxes(b.data, -1, -2)
        at = np.swapaxes(a.data, -1, -2)
        ga = _unbroadcast(np.matmul(g, bt), a.shape)
        gb = _unbroadcast(np.matmul(at, g), b.shape)
        return ga, gb

    return make_result(out, (a, b), vjp)


def relu(a: Tensor) -> Tensor:
    keep = a.data > 0

    def vjp(g):
        return (g * keep,)

    return make_result(np.where(keep, a.data, 0.0), (a,), vjp)


def dropout(a: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; caller only invokes this in training mode."""
    if p <= 0.0:
        return a
    keep = (rng.random(a.shape) >= p) / (1.0 - p)
    keep = keep.astype(a.dtype)

    def vjp(g):
        return (g * keep,)

    return make_result(a.data * keep, (a,), vjp)


def reshape(a: Tensor, shape) -> Tensor:
    def vjp(g):
        return (g.reshape(a.shape),)

    return make_result(a.data.reshape(shape), (a,), vjp)


def take_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Gather rows along axis 0: out[k] = a[idx[k]]."""
    idx = np.asarray(idx, dtype=np.int64)

    def vjp(g):
        out = np.zeros_like(a.data)
        kernels.scatter_add_rows(out.reshape(out.shape[0], -1), idx, g.reshape(g.shape[0], -1))
        return (out,)

    return make_result(a.data[idx], (a,), vjp)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Lookup rows of `table` (vocab, d) by an integer id array of any shape."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeMismatchError("embedding", table.shape, ids.shape)
    flat = ids.reshape(-1)

    def vjp(g):
        out = np.zeros_like(table.data)
        kernels.scatter_add_rows(out, flat, g.reshape(flat.shape[0], -1))
        return (out,)

    return make_result(table.data[ids], (table,), vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeMismatchError("layer_norm", x.shape, gain.shape)
    # add.reduce over the axis, then one division: what ndarray.mean computes, bit for bit
    mu = np.add.reduce(x.data, axis=-1, keepdims=True) / d
    xc = x.data - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = gain.data * xhat + bias.data

    def vjp(g):
        dxhat = g * gain.data
        gx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        flat = (-1, d)
        ggain = (g * xhat).reshape(flat).sum(axis=0)
        gbias = g.reshape(flat).sum(axis=0)
        return gx, ggain, gbias

    return make_result(out, (x, gain, bias), vjp)


def attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    q_at: np.ndarray | None,
    k_at: np.ndarray | None,
    n_heads: int,
    bias: Tensor | None,
    allow: np.ndarray,
    scale: float,
) -> Tensor:
    """Multi-head attention of projected query rows over key and value rows.

    ``allow`` is a bool [B, Lq, Lk] mask (a broadcast view will do) and fixes
    the padded layout the heads are computed in: query row n sits at position
    ``q_at[n]`` of the flattened [B*Lq] layout and key/value row n at
    ``k_at[n]`` of [B*Lk]; ``None`` means the rows fill their layout in order.
    q [Nq, d], k and v [Nk, d]; ``bias`` is [H, B*Lq, Lk], or [H, Lq, Lk]
    shared by the batch, or None. Per head, the result is
    softmax(scale * q k^T + bias, where allowed) v, with heads joined back to
    rows [Nq, d]. A query that may see no key gets zero output and zero
    gradient.
    """
    b, lq, lk = allow.shape
    nq, d = q.shape
    dh = d // n_heads
    if (
        d % n_heads
        or k.shape != v.shape
        or k.shape[-1] != d
        or nq != (b * lq if q_at is None else len(q_at))
        or k.shape[0] != (b * lk if k_at is None else len(k_at))
    ):
        raise ShapeMismatchError("attention", q.shape, k.shape)
    if bias is not None and (
        bias.data.ndim != 3 or bias.shape[0] != n_heads or bias.shape[2] != lk or bias.shape[1] not in (lq, b * lq)
    ):
        raise ShapeMismatchError("attention", (n_heads, b * lq, lk), bias.shape)

    def split(x, at, length):  # rows -> [H, B, L, dh]; unfilled positions are zero
        if at is not None:
            buf = np.zeros((b * length, d), dtype=x.dtype)
            buf[at] = x
            x = buf
        return x.reshape(b, length, n_heads, dh).transpose(2, 0, 1, 3)

    def join(x, at):  # [H, B, L, dh] -> rows
        rows = x.transpose(1, 2, 0, 3).reshape(-1, d)
        return rows if at is None else rows[at]

    qh, kh, vh = split(q.data, q_at, lq), split(k.data, k_at, lk), split(v.data, k_at, lk)
    s = np.matmul(qh, kh.swapaxes(-1, -2)) * scale
    if bias is not None:
        bias_shape = (n_heads, bias.shape[1] // lq, lq, lk)
        s = s + bias.data.reshape(bias_shape)
    s = np.where(allow, s, -np.inf)
    mx = np.maximum.reduce(s, axis=-1, keepdims=True)
    mx = np.where(np.isfinite(mx), mx, 0.0)  # a fully masked row: exp gives zeros, not NaN
    e = np.exp(s - mx)
    z = np.add.reduce(e, axis=-1, keepdims=True)
    p = e / np.where(z == 0.0, 1.0, z)

    def vjp(g):
        gctx = split(g, q_at, lq)
        gp = np.matmul(gctx, vh.swapaxes(-1, -2))
        gv = np.matmul(p.swapaxes(-1, -2), gctx)
        gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True))  # zero wherever p is
        gb = None if bias is None else _unbroadcast(gs, bias_shape).reshape(bias.shape)
        gs = gs * scale
        gq = join(np.matmul(gs, kh), q_at)
        gk = join(np.matmul(gs.swapaxes(-1, -2), qh), k_at)
        return gq, gk, join(gv, k_at), gb

    parents = (q, k, v) if bias is None else (q, k, v, bias)
    return make_result(join(np.matmul(p, vh), q_at), parents, vjp)


def sum_all(a: Tensor) -> Tensor:
    def vjp(g):
        return (np.full(a.shape, g, dtype=a.dtype),)

    return make_result(np.asarray(a.data.sum()), (a,), vjp)


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size

    def vjp(g):
        return (np.full(a.shape, g / n, dtype=a.dtype),)

    return make_result(np.asarray(a.data.mean()), (a,), vjp)


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    smoothing: float = 0.0,
    legal: np.ndarray | None = None,
    weights: np.ndarray | None = None,
) -> Tensor:
    """Weighted sum of per-row label-smoothed cross entropies.

    logits: (rows, vocab). targets: (rows,) int ids, each legal in its row.
    legal: optional (rows, vocab) bool; probability is renormalized over the
    legal set and the smoothing mass is spread over it (illegal entries get
    exactly zero probability and zero gradient). weights default to 1/rows.
    """
    x = logits.data
    if x.ndim != 2:
        raise ShapeMismatchError("cross_entropy", x.shape, ("rows", "vocab"))
    rows, vocab = x.shape
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (rows,):
        raise ShapeMismatchError("cross_entropy", x.shape, targets.shape)
    if legal is None:
        legal = np.ones((rows, vocab), dtype=bool)
    else:
        legal = np.asarray(legal, dtype=bool)
        if legal.shape != x.shape:
            raise ShapeMismatchError("cross_entropy", x.shape, legal.shape)
    if not legal[np.arange(rows), targets].all():
        raise ValueError("cross_entropy: some target token is masked illegal")
    if weights is None:
        weights = np.full(rows, 1.0 / max(rows, 1), dtype=x.dtype)
    else:
        weights = np.asarray(weights, dtype=x.dtype)

    neg = np.array(-np.inf, dtype=x.dtype)
    xm = np.where(legal, x, neg)
    mx = xm.max(axis=-1, keepdims=True)
    e = np.where(legal, np.exp(xm - mx), 0.0)
    z = e.sum(axis=-1, keepdims=True)
    logp = xm - mx - np.log(z)
    probs = e / z

    k = legal.sum(axis=-1)
    eps_k = smoothing / k
    r = np.arange(rows)
    target_lp = logp[r, targets]
    if smoothing > 0.0:
        legal_lp_sum = np.where(legal, logp, 0.0).sum(axis=-1)
        per_row = -((1.0 - smoothing) * target_lp + eps_k * legal_lp_sum)
    else:
        per_row = -target_lp
    loss = float((weights * per_row).sum())

    def vjp(g):
        if smoothing > 0.0:
            q = np.where(legal, eps_k[:, None], 0.0)
            q[r, targets] += 1.0 - smoothing
        else:
            q = np.zeros_like(probs)
            q[r, targets] = 1.0
        dx = (probs - q) * weights[:, None] * g
        return (dx,)

    return make_result(np.asarray(loss, dtype=x.dtype), (logits,), vjp)


def mse(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error against a constant target array."""
    target = np.asarray(target, dtype=pred.dtype)
    if target.shape != pred.shape:
        raise ShapeMismatchError("mse", pred.shape, target.shape)
    diff = pred.data - target
    n = max(diff.size, 1)

    def vjp(g):
        return (g * 2.0 * diff / n,)

    return make_result(np.asarray((diff * diff).mean() if diff.size else 0.0, dtype=pred.dtype), (pred,), vjp)


def bucket_bias(table: Tensor, idx: np.ndarray) -> Tensor:
    """Per-head relative bias gather: out[h, i, j] = table[h, idx[i, j]]."""
    idx = np.ascontiguousarray(idx, dtype=np.int64)

    def vjp(g):
        gt = np.zeros_like(table.data)
        kernels.scatter_bucket_bias_grad(gt, np.ascontiguousarray(g), idx)
        return (gt,)

    return make_result(kernels.gather_bucket_bias(table.data, idx), (table,), vjp)


def pair_bias(
    row_tab: Tensor,
    r0: Tensor,
    col_tab: Tensor,
    loc_tab: Tensor,
    row_idx: np.ndarray,
    col_idx: np.ndarray,
    loc_idx: np.ndarray,
) -> Tensor:
    """Tabular + local decoder bias, (heads, N, K), from (N, K) coordinate
    offset maps.

    row_idx[i,j] < 0 selects the dedicated header bucket r0 (key in header
    row); loc_idx[i,j] < 0 marks cross-cell pairs that get no local term.
    """
    row_idx = np.ascontiguousarray(row_idx, dtype=np.int64)
    col_idx = np.ascontiguousarray(col_idx, dtype=np.int64)
    loc_idx = np.ascontiguousarray(loc_idx, dtype=np.int64)
    out = kernels.gather_pair_bias(
        row_tab.data, r0.data, col_tab.data, loc_tab.data, row_idx, col_idx, loc_idx
    )

    def vjp(g):
        g_row = np.zeros_like(row_tab.data)
        g_r0 = np.zeros_like(r0.data)
        g_col = np.zeros_like(col_tab.data)
        g_loc = np.zeros_like(loc_tab.data)
        kernels.scatter_pair_bias_grad(
            g_row, g_r0, g_col, g_loc, np.ascontiguousarray(g), row_idx, col_idx, loc_idx
        )
        return g_row, g_r0, g_col, g_loc

    return make_result(out, (row_tab, r0, col_tab, loc_tab), vjp)
