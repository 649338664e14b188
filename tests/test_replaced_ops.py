"""Ops made leaner against the formulas they replaced, bit for bit.

- ``layer_norm`` now works in place.
- ``relu`` is ``np.maximum`` and builds its mask only in the vjp.
- The ``dropout`` mask is scaled in the input dtype, with no float64 array.
- ``attention`` takes visibility folded into its bias, as -inf on every
  hidden pair, where it took a separate ``allow`` mask.

The replaced formulas are kept here as references. Each case runs in float32
and float64 and compares the forward result and the vjp, bit for bit.
"""

import numpy as np
import pytest

from text2table.numerics import Tensor, ops

DTYPES = [np.float32, np.float64]


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _forward_and_vjp(out: Tensor, grad: np.ndarray):
    """The op's result and the gradients its vjp sends back for ``grad``."""
    return out.data, out._vjp(grad)


# ---------------------------------------------------------------------------
# the replaced formulas
# ---------------------------------------------------------------------------


def old_layer_norm(x, gain, bias, eps=1e-6):
    d = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True) / d
    xc = x - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = gain * xhat + bias

    def vjp(g):
        dxhat = g * gain
        gx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        ggain = (g * xhat).reshape(-1, d).sum(axis=0)
        gbias = g.reshape(-1, d).sum(axis=0)
        return gx, ggain, gbias

    return out, vjp


def old_relu(x):
    keep = x > 0
    return np.where(keep, x, 0.0), lambda g: (g * keep,)


def old_dropout_mask(shape, p, dtype, rng):
    keep = (rng.random(shape) >= p) / (1.0 - p)
    return keep.astype(dtype)


def old_attention(q, k, v, q_len, k_len, n_heads, bias, allow, scale):
    """The attention op with its ``allow`` mask, on arrays: (out, vjp)."""
    nq, d = q.shape
    dh = d // n_heads
    q_len, k_len = list(q_len), list(k_len)

    def heads(x, rows):
        return x.reshape(rows, n_heads, dh).transpose(1, 0, 2)

    def join(x, rows):
        return x.transpose(1, 0, 2).reshape(rows, d)

    saved = []
    out = np.zeros_like(q)
    qo = ko = po = 0
    for n, m in zip(q_len, k_len):
        qs, ks, ps = slice(qo, qo + n), slice(ko, ko + m), slice(po, po + n * m)
        qo, ko, po = qo + n, ko + m, po + n * m
        if not n or not m:
            continue
        qh, kh, vh = heads(q[qs], n), heads(k[ks], m), heads(v[ks], m)
        p = np.matmul(qh, kh.swapaxes(-1, -2))
        p *= scale
        if bias is not None:
            p += bias[:, ps].reshape(n_heads, n, m)
        if allow is None:
            p -= np.maximum.reduce(p, axis=-1, keepdims=True)
            np.exp(p, out=p)
            p /= np.add.reduce(p, axis=-1, keepdims=True)
        else:
            p = np.where(allow[ps].reshape(n, m), p, -np.inf)
            mx = np.maximum.reduce(p, axis=-1, keepdims=True)
            p -= np.where(np.isfinite(mx), mx, 0.0)
            np.exp(p, out=p)
            z = np.add.reduce(p, axis=-1, keepdims=True)
            p /= np.where(z == 0.0, 1.0, z)
        out[qs] = join(np.matmul(p, vh), n)
        saved.append((qs, ks, ps, n, m, qh, kh, vh, p))

    def vjp(g):
        gq, gk, gv = np.zeros_like(q), np.zeros_like(k), np.zeros_like(v)
        gb = None if bias is None else np.zeros_like(bias)
        for qs, ks, ps, n, m, qh, kh, vh, p in saved:
            gctx = heads(g[qs], n)
            gp = np.matmul(gctx, vh.swapaxes(-1, -2))
            gv[ks] = join(np.matmul(p.swapaxes(-1, -2), gctx), m)
            gs = gp - (gp * p).sum(axis=-1, keepdims=True)
            gs *= p
            if gb is not None:
                gb[:, ps] = gs.reshape(n_heads, n * m)
            gs *= scale
            gq[qs] = join(np.matmul(gs, kh), n)
            gk[ks] = join(np.matmul(gs.swapaxes(-1, -2), qh), m)
        return gq, gk, gv, gb

    return out, vjp


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", [(1, 8), (14, 64), (3, 5, 16)])
def test_layer_norm_matches_replaced_formula(dtype, shape):
    rng = np.random.default_rng(sum(shape))
    x, grad = (rng.normal(size=shape).astype(dtype) * 3.0 + 1.0 for _ in range(2))
    gain, bias = (rng.normal(size=shape[-1]).astype(dtype) for _ in range(2))
    tensors = [Tensor(a, requires_grad=True) for a in (x, gain, bias)]
    out, grads = _forward_and_vjp(ops.layer_norm(*tensors), grad)
    want, want_vjp = old_layer_norm(x, gain, bias)
    assert _same_bits(out, want)
    for got, w in zip(grads, want_vjp(grad)):
        assert _same_bits(got, w)


@pytest.mark.parametrize("dtype", DTYPES)
def test_relu_matches_replaced_formula_on_signed_zeros(dtype):
    rng = np.random.default_rng(1)
    x = rng.normal(size=(20, 256)).astype(dtype)
    x.reshape(-1)[::3] = -0.0
    x.reshape(-1)[1::7] = 0.0
    x.reshape(-1)[2::11] = -np.inf
    x.reshape(-1)[4::13] = np.inf
    grad = rng.normal(size=x.shape).astype(dtype)
    out, (g,) = _forward_and_vjp(ops.relu(Tensor(x, requires_grad=True)), grad)
    want, want_vjp = old_relu(x)
    assert _same_bits(out, want)
    assert not np.signbit(out).any()  # -0.0 gives +0.0
    assert _same_bits(g, want_vjp(grad)[0])


def test_relu_propagates_nan():
    # the replaced formula zeroed a NaN input; np.maximum keeps it
    out = ops.relu(Tensor(np.array([np.nan, -1.0, 2.0]))).data
    assert np.isnan(out[0]) and list(out[1:]) == [0.0, 2.0]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("p", [0.1, 0.3, 0.5])
def test_dropout_mask_matches_replaced_formula(dtype, p):
    shape = (17, 64)
    mask = ops.dropout(Tensor(np.ones(shape, dtype=dtype)), p, np.random.default_rng(7)).data
    want = old_dropout_mask(shape, p, dtype, np.random.default_rng(7))
    assert _same_bits(mask, want)
    x = np.random.default_rng(8).normal(size=shape).astype(dtype)
    grad = np.random.default_rng(9).normal(size=shape).astype(dtype)
    out, (g,) = _forward_and_vjp(ops.dropout(Tensor(x, requires_grad=True), p, np.random.default_rng(7)), grad)
    assert _same_bits(out, x * want) and _same_bits(g, grad * want)


H, D = 4, 16
LENGTHS = {
    "one": ([14], [79]),
    "ragged": ([2, 1, 5], [3, 1, 6]),
    "empty": ([2, 0, 3], [3, 2, 0]),  # an example with no query and one with no key
}


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("lengths", list(LENGTHS))
@pytest.mark.parametrize("kind", ["no-bias", "bias", "masked", "fully-masked-row"])
def test_folded_bias_attention_matches_allow_path(dtype, lengths, kind):
    rng = np.random.default_rng(len(lengths) + 3 * len(kind))
    q_len, k_len = (np.array(x) for x in LENGTHS[lengths])
    packed = int((q_len * k_len).sum())
    q = rng.normal(size=(int(q_len.sum()), D)).astype(dtype)
    k, v = (rng.normal(size=(int(k_len.sum()), D)).astype(dtype) for _ in range(2))
    bias = allow = None
    if kind != "no-bias":
        bias = rng.normal(size=(H, packed)).astype(dtype)
    if kind in ("masked", "fully-masked-row"):
        allow = rng.random(packed) < 0.6
        if kind == "fully-masked-row":
            allow[: int(k_len[0])] = False  # the first query of example 0 sees no key
    folded = bias if allow is None else np.where(allow, bias, -np.inf).astype(dtype)
    scale = 1.0 / np.sqrt(D // H)
    grad = rng.normal(size=q.shape).astype(dtype)

    tensors = [Tensor(a, requires_grad=True) for a in (q, k, v)]
    b = None if folded is None else Tensor(folded, requires_grad=True)
    out, grads = _forward_and_vjp(ops.attention(*tensors, q_len, k_len, H, b, scale), grad)
    want, want_vjp = old_attention(q, k, v, q_len, k_len, H, bias, allow, scale)
    assert _same_bits(out, want)
    for got, w in zip(grads, want_vjp(grad)):
        assert (got is None and w is None) or _same_bits(got, w)
    if kind == "fully-masked-row":
        assert (out[0] == 0.0).all() and (grads[0][0] == 0.0).all()


def _every_op(dtype):
    """(name, result) of one call of every op of ``ops`` on ``dtype`` operands."""
    rng = np.random.default_rng(0)

    def t(*shape):
        return Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)

    x, w = t(3, 4), t(4, 4)
    tables = [t(2, 5), t(2), t(2, 3), t(2, 7)]
    idx = rng.integers(0, 3, size=(3, 3))
    loss = ops.cross_entropy(x, np.array([0, 1, 2]))
    return [
        ("add", ops.add(x, x)),
        ("scale", ops.scale(x, 0.5)),
        ("scale of a 0-d loss", ops.scale(loss, 0.5)),
        ("matmul", ops.matmul(x, w)),
        ("relu", ops.relu(x)),
        ("dropout", ops.dropout(x, 0.2, rng)),
        ("reshape", ops.reshape(x, (4, 3))),
        ("take_rows", ops.take_rows(x, np.array([2, 0]))),
        ("embedding", ops.embedding(w, np.array([[0, 3]]))),
        ("layer_norm", ops.layer_norm(x, t(4), t(4))),
        ("attention", ops.attention(x, w, w, [3], [4], 2, t(2, 12), 0.5)),
        ("cross_entropy", loss),
        ("mse", ops.mse(x, np.zeros((3, 4)))),
        ("bucket_bias", ops.bucket_bias(tables[0], idx)),
        ("pair_bias", ops.pair_bias(*tables, idx - 1, idx, idx - 1)),
    ]


@pytest.mark.parametrize("dtype", DTYPES)
def test_every_op_returns_an_ndarray_of_its_input_dtype(dtype):
    results = _every_op(dtype)
    public = {n for n in dir(ops) if not n.startswith("_") and callable(getattr(ops, n))}
    public -= {"Tensor", "ShapeMismatchError", "make_result"}
    assert public <= {name for name, _ in results}  # a new op joins this list
    for name, out in results:
        assert type(out.data) is np.ndarray and out.data.dtype == dtype, name
        assert out.requires_grad and out.grad is None, name
    assert results[2][1].data.shape == ()
