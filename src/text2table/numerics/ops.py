"""Differentiable operations over :class:`~text2table.numerics.tensor.Tensor`.

Shapes follow numpy broadcasting; every op validates operand shapes and
raises :class:`ShapeMismatchError` naming the op on violation. Reductions
and layer norm act over the last axis unless stated otherwise. Each vjp
closes over only what it reads (arrays, shapes, flags), never an operand
Tensor, so the tape keeps no array that backward does not read.
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


def _check_broadcast(op: str, a: Tensor, b: Tensor) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The shapes of a and b, which must broadcast together."""
    a, b = a.data.shape, b.data.shape
    if a == b:
        return a, b
    try:
        np.broadcast_shapes(a, b)
    except ValueError:
        raise ShapeMismatchError(op, a, b) from None
    return a, b


def add(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = _check_broadcast("add", a, b)

    def vjp(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return make_result(a.data + b.data, (a, b), vjp)


def scale(a: Tensor, k: float) -> Tensor:
    def vjp(g):
        return (g * k,)

    return make_result(a.data * k, (a,), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if bd.ndim < 2:  # numpy would take a 1-D b as a vector
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
    out = np.maximum(a.data, 0)

    def vjp(g):
        return (g * (out > 0),)  # out > 0 exactly where a > 0, NaN and -0.0 included

    return make_result(out, (a,), vjp)


def dropout(a: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; caller only invokes this in training mode."""
    if p <= 0.0:
        return a
    mask = rng.random(a.shape) >= p
    scale = a.dtype.type(1.0 / (1.0 - p))

    def vjp(g):
        return (g * (mask * scale),)  # the forward's multiplier, remade from the bool mask

    return make_result(a.data * (mask * scale), (a,), vjp)


def reshape(a: Tensor, shape) -> Tensor:
    ad = a.data
    sa = ad.shape

    def vjp(g):
        return (g.reshape(sa),)

    return make_result(ad.reshape(shape), (a,), vjp)


def take_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Gather distinct rows along axis 0: out[k] = a[idx[k]].

    The vjp writes each row's gradient once, so it raises ValueError on a
    repeated row; :func:`embedding` gathers with repeats and accumulates.
    """
    idx = np.asarray(idx, dtype=np.int64)
    ad = a.data
    sa, dtype = ad.shape, ad.dtype

    def vjp(g):
        seen = np.zeros(sa[0], dtype=bool)
        seen[idx] = True
        if np.count_nonzero(seen) != idx.size:
            raise ValueError("take_rows: a row is gathered more than once")
        out = np.zeros(sa, dtype)
        out[idx] = g  # distinct rows: no entry is written twice
        return (out,)

    return make_result(ad[idx], (a,), vjp)


def take_cols(a: Tensor, idx: np.ndarray) -> Tensor:
    """Gather distinct columns along axis 1: out[:, k] = a[:, idx[k]]."""
    idx = np.asarray(idx, dtype=np.int64)
    ad = a.data
    sa, dtype = ad.shape, ad.dtype

    def vjp(g):
        out = np.zeros(sa, dtype)
        out[:, idx] = g  # distinct columns: no entry is written twice
        return (out,)

    return make_result(ad[:, idx], (a,), vjp)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Lookup rows of `table` (vocab, d) by an integer id array of any shape."""
    ids = np.asarray(ids, dtype=np.int64)
    td = table.data
    st, dtype = td.shape, td.dtype
    if ids.size and (ids.min() < 0 or ids.max() >= st[0]):
        raise ShapeMismatchError("embedding", st, ids.shape)
    flat = ids.reshape(-1)

    def vjp(g):
        out = np.zeros(st, dtype)
        np.add.at(out, flat, g.reshape(flat.shape[0], st[1]))
        return (out,)

    return make_result(td[ids], (table,), vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    xd, gd = x.data, gain.data
    d = xd.shape[-1]
    if gd.shape != (d,) or bias.data.shape != (d,):
        raise ShapeMismatchError("layer_norm", xd.shape, gd.shape)
    # add.reduce over the axis, then one division: what ndarray.mean computes, bit for bit
    mu = np.add.reduce(xd, axis=-1, keepdims=True)
    mu /= d
    xhat = xd - mu  # centred here, normalized below
    var = np.add.reduce(xhat * xhat, axis=-1, keepdims=True)
    var /= d
    var += eps
    inv = np.divide(1.0, np.sqrt(var, out=var), out=var)
    xhat *= inv
    out = xhat * gd
    out += bias.data

    def vjp(g):
        # inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), in place,
        # each mean taken as the forward takes its own
        dxhat = g * gd
        m1 = np.add.reduce(dxhat, axis=-1, keepdims=True)
        m1 /= d
        scratch = np.multiply(dxhat, xhat)
        m2 = np.add.reduce(scratch, axis=-1, keepdims=True)
        m2 /= d
        dxhat -= m1
        dxhat -= np.multiply(xhat, m2, out=scratch)
        dxhat *= inv
        flat = (-1, d)
        ggain = np.multiply(g, xhat, out=scratch).reshape(flat).sum(axis=0)
        gbias = g.reshape(flat).sum(axis=0)
        return dxhat, ggain, gbias

    return make_result(out, (x, gain, bias), vjp)


class _LastAxis:
    """The query rows of one example's [H, n, m] scores: a row is the last
    axis. Its max or sum keeps that axis, so it broadcasts over the row."""

    @staticmethod
    def max(x, floor):
        mx = np.maximum.reduce(x, axis=-1, keepdims=True)
        return np.maximum(mx, floor, out=mx)

    @staticmethod
    def sum(x, floor):
        z = np.add.reduce(x, axis=-1, keepdims=True)
        return np.maximum(z, floor, out=z)


class _Segments:
    """The query rows of a packed [H, sum n*m] attention buffer: each row of
    an example with m keys is a segment of width m. A row's max or sum is
    repeated over its segment."""

    def __init__(self, n_heads: int, spans: list):
        self.n_heads = n_heads
        self.blocks = [b[2:5] for b in spans]  # (block columns, n, m)
        self.widths = np.repeat([b[4] for b in spans], [b[3] for b in spans])
        self.starts = np.add.accumulate(self.widths) - self.widths

    def max(self, x, floor):
        # max returns one of its inputs, so any order of reduction gives the
        # row's max, up to the sign of a zero, which the exp after it ignores
        mx = np.maximum.reduceat(x, self.starts, axis=1)
        return np.repeat(np.maximum(mx, floor, out=mx), self.widths, axis=1)

    def sum(self, x, floor=None):
        # One reduce per example: np.add.reduce sums a row pairwise, where
        # np.add.reduceat over the buffer would sum in sequence, to other bits.
        z = np.empty((self.n_heads, len(self.widths)), dtype=x.dtype)
        r = 0
        for bs, n, m in self.blocks:
            np.add.reduce(x[:, bs].reshape(self.n_heads, n, m), axis=-1, out=z[:, r : r + n])
            r += n
        if floor is not None:
            np.maximum(z, floor, out=z)
        return np.repeat(z, self.widths, axis=1)


# np.finfo takes about a µs a call, a share of a single-example attention call
_FLOAT_LIMITS = {np.dtype(t): np.finfo(t) for t in (np.float32, np.float64)}


def _softmax(p: np.ndarray, rows, scale: float, bias: np.ndarray | None) -> None:
    """Turn scores into probabilities in place: p = softmax(scale * p + bias)
    over each query row (``rows``: :class:`_LastAxis` or :class:`_Segments`),
    ``bias`` shaped as p or None."""
    limits = _FLOAT_LIMITS.get(p.dtype) or np.finfo(p.dtype)
    p *= scale
    if bias is not None:
        p += bias
    # The floors change nothing on a row that sees a key: its max is finite
    # and its sum at least exp(0) = 1. On a row of -inf they keep exp at
    # zeros and the division finite, so the row's output is zero, not NaN.
    p -= rows.max(p, limits.min)
    np.exp(p, out=p)
    p /= rows.sum(p, limits.tiny)


def _softmax_vjp(gs: np.ndarray, p: np.ndarray, rows: _Segments, scale: float, has_bias: bool):
    """The vjp of :func:`_softmax` over packed rows from gs, the gradient of
    its probabilities p, which it overwrites: the gradient of the bias (None
    without one) and that of the scores before scaling."""
    gs -= rows.sum(gs * p)
    gs *= p  # zero wherever p is
    if not has_bias:
        gs *= scale
        return None, gs
    return gs, np.multiply(gs, scale, out=np.empty_like(gs))  # as gs *= scale would


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
    each example scored at its own length, all scores in one packed buffer.

    q [Nq, d] holds example after example, ``q_len[b]`` rows each; k and v
    [Nk, d] hold ``k_len[b]`` rows each. Example b scores its n = q_len[b]
    queries against its m = k_len[b] keys. The scores of every example share
    one [H, sum n*m] buffer, packed in blocks: example b's [n, m] block, in
    row-major order, starts at the offset sum over c < b of
    q_len[c] * k_len[c]. ``bias`` has that packed shape, or is None when every
    key of an example is visible to all its queries with no bias. The bias
    also carries visibility: -inf hides a key from a query. Per head, the
    result is softmax(scale * q k^T + bias) v, with heads joined back to rows
    [Nq, d]. A query that may see no key (a row of -inf bias) gets zero output
    and zero gradient.

    The heads of q, k, v and the output (in the vjp, of the gradients too)
    are views of their row arrays, taken once per call. Two layouts of the
    work run the same ufuncs in the same order on the same values, so their
    results are equal bit for bit:

    - One example with queries and keys, none of whose four inputs needs a
      gradient (every decode pass, the decode-time encode), runs forward only
      and records no tape. Its span is the whole call: each product takes the
      whole head views, q k^T allocates the [H, n, m] scores, whose query rows
      are their last axis (:class:`_LastAxis`), and p v writes the output
      heads in place, with no span list or per-span slices.
    - Every other call (a training batch, a call with an input that needs a
      gradient, an example with no query or no key) is packed. Each example with queries
      and keys keeps only its span: its query rows, key rows and block
      columns. Only the products (q k^T and p v, and the four of the vjp) run
      example by example, on the span's rows of the head views and its
      [H, n, m] block of the buffer, and a query row is a segment of the
      buffer (:class:`_Segments`).

    The packed layout adds bookkeeping per example, a fixed cost that a decode
    pass, four calls on a few rows each, would pay in full and a 16-example
    training call spreads thin. Both layouts run scale, bias and the softmax
    once over all their scores (:func:`_softmax`); the packed one runs its vjp
    once (:func:`_softmax_vjp`), and the bias gradient is the score gradient
    itself.
    """
    qd, kd, vd = q.data, k.data, v.data
    (nq, d), nk = qd.shape, len(kd)
    dh = d // n_heads
    q_len = q_len.tolist() if isinstance(q_len, np.ndarray) else q_len
    k_len = k_len.tolist() if isinstance(k_len, np.ndarray) else k_len
    if (
        len(q_len) == len(k_len) == 1
        and q_len[0] > 0
        and k_len[0] > 0
        and not (q.requires_grad or k.requires_grad or v.requires_grad or bias is not None and bias.requires_grad)
    ):
        spans, qo, ko = None, q_len[0], k_len[0]  # one example, no tape: its span is the whole call
        po = qo * ko
    else:
        spans = []  # (query rows, key rows, block columns, n, m) of each example with queries and keys
        qo = ko = po = 0
        for n, m in zip(q_len, k_len):
            if n > 0 and m > 0:
                spans.append((slice(qo, qo + n), slice(ko, ko + m), slice(po, po + n * m), n, m))
            elif n < 0 or m < 0:
                raise ShapeMismatchError("attention", q.shape, k.shape)
            qo, ko, po = qo + n, ko + m, po + n * m
    if (
        d % n_heads
        or kd.shape != vd.shape
        or kd.shape[-1] != d
        or len(k_len) != len(q_len)
        or (qo, ko) != (nq, nk)
    ):
        raise ShapeMismatchError("attention", q.shape, k.shape)
    if bias is not None and bias.data.shape != (n_heads, po):
        raise ShapeMismatchError("attention", (n_heads, po), bias.shape)
    parents = (q, k, v) if bias is None else (q, k, v, bias)
    qh = qd.reshape(nq, n_heads, dh).transpose(1, 0, 2)  # [H, Nq, dh]
    kh = kd.reshape(nk, n_heads, dh).transpose(1, 0, 2)
    vh = vd.reshape(nk, n_heads, dh).transpose(1, 0, 2)

    if spans is None:
        p = np.matmul(qh, kh.swapaxes(-1, -2))  # [H, n, m] scores, turned into probabilities in place
        _softmax(p, _LastAxis, scale, None if bias is None else bias.data.reshape(p.shape))
        out = np.empty_like(qd)
        np.matmul(p, vh, out=out.reshape(nq, n_heads, dh).transpose(1, 0, 2))
        return make_result(out, parents, None)  # no parent needs a gradient, so no tape is recorded

    out = np.zeros_like(qd) if 0 in k_len else np.empty_like(qd)  # a query with no key gives zeros
    p = np.empty((n_heads, po), dtype=qd.dtype)  # scores, turned into probabilities in place
    for qs, ks, bs, n, m in spans:
        np.matmul(qh[:, qs], kh[:, ks].swapaxes(-1, -2), out=p[:, bs].reshape(n_heads, n, m))
    if spans:
        rows = _Segments(n_heads, spans)
        _softmax(p, rows, scale, None if bias is None else bias.data)
    oh = out.reshape(nq, n_heads, dh).transpose(1, 0, 2)  # heads joined in place
    for qs, ks, bs, n, m in spans:
        np.matmul(p[:, bs].reshape(n_heads, n, m), vh[:, ks], out=oh[:, qs])
    has_bias = bias is not None

    def vjp(g):
        gq, gk, gv = np.zeros_like(qd), np.zeros_like(kd), np.zeros_like(vd)
        if not spans:  # nothing was scored; the bias, like p, is [H, 0]
            return gq, gk, gv, np.zeros_like(p) if has_bias else None
        gh = g.reshape(nq, n_heads, dh).transpose(1, 0, 2)
        gqh = gq.reshape(nq, n_heads, dh).transpose(1, 0, 2)
        gkh = gk.reshape(nk, n_heads, dh).transpose(1, 0, 2)
        gvh = gv.reshape(nk, n_heads, dh).transpose(1, 0, 2)
        gs = np.empty_like(p)  # the gradient of p, then of the scores, in place
        for qs, ks, bs, n, m in spans:
            gctx = gh[:, qs]
            np.matmul(gctx, vh[:, ks].swapaxes(-1, -2), out=gs[:, bs].reshape(n_heads, n, m))
            np.matmul(p[:, bs].reshape(n_heads, n, m).swapaxes(-1, -2), gctx, out=gvh[:, ks])
        gb, gs = _softmax_vjp(gs, p, rows, scale, has_bias)
        for qs, ks, bs, n, m in spans:
            gsb = gs[:, bs].reshape(n_heads, n, m)
            np.matmul(gsb, kh[:, ks], out=gqh[:, qs])
            np.matmul(gsb.swapaxes(-1, -2), qh[:, qs], out=gkh[:, ks])
        return gq, gk, gv, gb

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
    legal_lp_sum = np.where(legal, logp, 0.0).sum(axis=-1)
    per_row = -((1.0 - smoothing) * logp[r, targets] + eps_k * legal_lp_sum)
    loss = float((weights * per_row).sum())

    def vjp(g):
        q = np.where(legal, eps_k[:, None], 0.0)  # the target distribution
        q[r, targets] += 1.0 - smoothing
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
    td = table.data
    st, dtype = td.shape, td.dtype

    def vjp(g):
        gt = np.zeros(st, dtype)
        _scatter(gt, g, idx)
        return (gt,)

    return make_result(_gather(td, idx), (table,), vjp)


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
    cd = col_tab.data
    out += _gather(cd, col_idx)
    out += _gather(loc_ext, loc_idx)
    sc, dc = cd.shape, cd.dtype

    def vjp(g):
        g_row = np.zeros_like(row_ext)
        g_col = np.zeros(sc, dc)
        g_loc = np.zeros_like(loc_ext)
        _scatter(g_row, g, row_idx)
        _scatter(g_col, g, col_idx)
        _scatter(g_loc, g, loc_idx)
        return g_row[:, :-1], g_row[:, -1], g_col, g_loc[:, :-1]

    return make_result(out, (row_tab, r0, col_tab, loc_tab), vjp)
