"""Differentiable operations over :class:`~text2table.numerics.tensor.Tensor`.

Shapes follow numpy broadcasting; every op validates operand shapes and
raises :class:`ShapeMismatchError` naming the op on violation. Reductions
and layer norm act over the last axis unless stated otherwise.
"""

from __future__ import annotations

import numpy as np

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


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("add", a, b)

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return make_result(a.data + b.data, (a, b), vjp)


def scale(a: Tensor, k: float) -> Tensor:
    def vjp(g):
        return (g * k,)

    return make_result(a.data * k, (a,), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if ad.ndim < 1 or bd.ndim < 2 or ad.shape[-1] != bd.shape[-2]:
        raise ShapeMismatchError("matmul", a.shape, b.shape)
    try:
        out = np.matmul(ad, bd)
    except ValueError:
        raise ShapeMismatchError("matmul", a.shape, b.shape) from None

    def vjp(g):
        ga = _unbroadcast(np.matmul(g, bd.swapaxes(-1, -2)), ad.shape)
        gb = _unbroadcast(np.matmul(ad.swapaxes(-1, -2), g), bd.shape)
        return ga, gb

    return make_result(out, (a, b), vjp)


def relu(a: Tensor) -> Tensor:
    """max(a, 0); a -0.0 input gives +0.0 and a NaN input gives NaN."""

    def vjp(g):
        return (g * (a.data > 0),)

    return make_result(np.maximum(a.data, 0), (a,), vjp)


def dropout(a: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; caller only invokes this in training mode."""
    if p <= 0.0:
        return a
    keep = (rng.random(a.shape) >= p) * a.dtype.type(1.0 / (1.0 - p))

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
        np.add.at(out, idx, g)
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
        np.add.at(out, flat, g.reshape(flat.shape[0], table.shape[1]))
        return (out,)

    return make_result(table.data[ids], (table,), vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeMismatchError("layer_norm", x.shape, gain.shape)
    # add.reduce over the axis, then one division: what ndarray.mean computes, bit for bit
    mu = np.add.reduce(x.data, axis=-1, keepdims=True)
    mu /= d
    xhat = x.data - mu  # centred here, normalized below
    var = np.add.reduce(xhat * xhat, axis=-1, keepdims=True)
    var /= d
    var += eps
    inv = np.divide(1.0, np.sqrt(var, out=var), out=var)
    xhat *= inv
    out = xhat * gain.data
    out += bias.data

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
    q_len: np.ndarray,
    k_len: np.ndarray,
    n_heads: int,
    bias: Tensor | None,
    scale: float,
) -> Tensor:
    """Multi-head attention of projected query rows over key and value rows,
    scored example by example at each example's own length.

    q [Nq, d] holds example after example, ``q_len[b]`` rows each; k and v
    [Nk, d] hold ``k_len[b]`` rows each. Example b scores its n = q_len[b]
    queries against its m = k_len[b] keys in [H, n, m]. ``bias`` is a
    [H, sum n*m] float array, or None when every key of an example is visible
    to all its queries with no bias. It is packed in blocks: example b's
    [n, m] block, in row-major order, starts at the offset sum over c < b of
    q_len[c] * k_len[c]. The bias also carries visibility: -inf hides a key
    from a query. Per head, the result is softmax(scale * q k^T + bias) v,
    with heads joined back to rows [Nq, d]. A query that may see no key (a
    row of -inf bias) gets zero output and zero gradient.
    """
    nq, d = q.shape
    dh = d // n_heads
    q_len, k_len = np.asarray(q_len).tolist(), np.asarray(k_len).tolist()
    b = len(q_len)
    if (
        d % n_heads
        or k.shape != v.shape
        or k.shape[-1] != d
        or len(k_len) != b
        or sum(q_len) != nq
        or sum(k_len) != k.shape[0]
        or min(q_len + k_len, default=0) < 0
    ):
        raise ShapeMismatchError("attention", q.shape, k.shape)
    packed = sum(n * m for n, m in zip(q_len, k_len))
    if bias is not None and bias.shape != (n_heads, packed):
        raise ShapeMismatchError("attention", (n_heads, packed), bias.shape)
    limits = np.finfo(q.dtype)

    def heads(x, rows):  # rows [n, d] -> [H, n, dh]
        return x.reshape(rows, n_heads, dh).transpose(1, 0, 2)

    def join(x, rows):  # [H, n, dh] -> rows [n, d]
        return x.transpose(1, 0, 2).reshape(rows, d)

    # per example: (query slice, key slice, block slice, n, m, qh, kh, vh, probabilities)
    saved = []
    out = np.empty_like(q.data)
    qo = ko = po = 0
    for n, m in zip(q_len, k_len):
        qs, ks, ps = slice(qo, qo + n), slice(ko, ko + m), slice(po, po + n * m)
        qo, ko, po = qo + n, ko + m, po + n * m
        if not n or not m:
            out[qs] = 0.0
            continue
        qh, kh, vh = heads(q.data[qs], n), heads(k.data[ks], m), heads(v.data[ks], m)
        p = np.matmul(qh, kh.swapaxes(-1, -2))  # scores, turned into probabilities in place
        p *= scale
        if bias is not None:
            p += bias.data[:, ps].reshape(n_heads, n, m)
        # The clamps change nothing on a row that sees a key: its max is finite
        # and its sum at least exp(0) = 1. On a row of -inf they keep exp at
        # zeros and the division finite, so the row's output is zero, not NaN.
        mx = np.maximum.reduce(p, axis=-1, keepdims=True)
        p -= np.maximum(mx, limits.min, out=mx)
        np.exp(p, out=p)
        z = np.add.reduce(p, axis=-1, keepdims=True)
        p /= np.maximum(z, limits.tiny, out=z)
        np.matmul(p, vh, out=heads(out[qs], n))  # heads joined in place
        saved.append((qs, ks, ps, n, m, qh, kh, vh, p))

    def vjp(g):
        gq, gk, gv = np.zeros_like(q.data), np.zeros_like(k.data), np.zeros_like(v.data)
        gb = None if bias is None else np.zeros_like(bias.data)
        for qs, ks, ps, n, m, qh, kh, vh, p in saved:
            gctx = heads(g[qs], n)
            gp = np.matmul(gctx, vh.swapaxes(-1, -2))
            gv[ks] = join(np.matmul(p.swapaxes(-1, -2), gctx), m)
            gs = gp - (gp * p).sum(axis=-1, keepdims=True)
            gs *= p  # zero wherever p is
            if gb is not None:
                gb[:, ps] = gs.reshape(n_heads, n * m)
            gs *= scale
            gq[qs] = join(np.matmul(gs, kh), n)
            gk[ks] = join(np.matmul(gs.swapaxes(-1, -2), qh), m)
        return gq, gk, gv, gb

    parents = (q, k, v) if bias is None else (q, k, v, bias)
    return make_result(out, parents, vjp)


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

    eps_k = (smoothing / legal.sum(axis=-1)).astype(x.dtype, copy=False)  # smoothing mass per legal entry
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


def _gather(table: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Per-head table lookup, for an index map of any shape: out[h, ...] =
    table[h, idx[...]]; index -1 selects a table's last column."""
    return np.take(table, idx, axis=1)


def _scatter(g_table: np.ndarray, grad: np.ndarray, idx: np.ndarray) -> None:
    """Reverse of :func:`_gather`: add grad[h, ...] into g_table[h, idx[...]].

    One ``np.add.at`` per head over that head's own row, so index -1 selects
    its last column and no flattened index is built. Each table entry sums its
    contributions in the row-major order of the index map.
    """
    flat = idx.reshape(-1)
    for row, g in zip(g_table, grad.reshape(len(g_table), -1)):
        np.add.at(row, flat, g)


def bucket_bias(table: Tensor, idx: np.ndarray) -> Tensor:
    """Per-head relative bias gather: out[h, ...] = table[h, idx[...]]."""
    idx = np.asarray(idx, dtype=np.int64)

    def vjp(g):
        gt = np.zeros_like(table.data)
        _scatter(gt, g, idx)
        return (gt,)

    return make_result(_gather(table.data, idx), (table,), vjp)


def pair_bias(
    row_tab: Tensor,
    r0: Tensor,
    col_tab: Tensor,
    loc_tab: Tensor,
    row_idx: np.ndarray,
    col_idx: np.ndarray,
    loc_idx: np.ndarray,
) -> Tensor:
    """Tabular + local decoder bias [heads, ...] from coordinate offset maps
    of one shape, such as a template's [T, T] or a batch's packed per-example
    blocks: row offset, then column offset, then local offset.

    A row index < 0 selects the dedicated header bucket r0 (key in header
    row); a local index < 0 marks cross-cell pairs that get no local term.
    Both are sentinel columns appended to their tables, so each term is one
    :func:`_gather`.
    """
    row_idx = np.asarray(row_idx, dtype=np.int64)
    col_idx = np.asarray(col_idx, dtype=np.int64)
    loc_idx = np.asarray(loc_idx, dtype=np.int64)
    n_heads = row_tab.shape[0]
    row_ext = np.concatenate([row_tab.data, r0.data[:, None]], axis=1)  # [R | r0]
    loc_ext = np.concatenate([loc_tab.data, np.zeros((n_heads, 1), loc_tab.dtype)], axis=1)  # [L | 0]
    out = _gather(row_ext, row_idx)
    out += _gather(col_tab.data, col_idx)
    out += _gather(loc_ext, loc_idx)

    def vjp(g):
        g_row = np.zeros_like(row_ext)
        g_col = np.zeros_like(col_tab.data)
        g_loc = np.zeros_like(loc_ext)
        _scatter(g_row, g, row_idx)
        _scatter(g_col, g, col_idx)
        _scatter(g_loc, g, loc_idx)
        return g_row[:, :-1], g_row[:, -1], g_col, g_loc[:, :-1]

    return make_result(out, (row_tab, r0, col_tab, loc_tab), vjp)
