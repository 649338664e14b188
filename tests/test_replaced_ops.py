"""Ops made leaner against the formulas they replaced, bit for bit.

- ``layer_norm`` now works in place, in its forward and its vjp.
- ``relu`` is ``np.maximum`` and builds its mask only in the vjp, from the
  op's output, where it read the op's input.
- The ``dropout`` mask is scaled in the input dtype, with no float64 array.
- ``dropout`` keeps a bool mask and remakes its multiplier in the vjp, where
  it kept the float multiplier.
- No vjp closes over a Tensor; each keeps the arrays and shapes it reads.
- ``attention`` takes visibility folded into its bias, as -inf on every
  hidden pair, where it took a separate ``allow`` mask.
- ``attention`` runs scale, bias, softmax and the softmax vjp once over one
  packed score buffer, where it ran them example by example.
- A one-example ``attention`` call with queries and keys, none of whose
  inputs needs a gradient, scores on whole head views, where it went through
  the packed buffer's per-example bookkeeping; every other call is packed.
- ``cross_entropy`` runs its smoothed formula at every ``smoothing``, where it
  had a branch of its own for ``smoothing`` 0.

The replaced formulas are kept here as references. Each case runs in float32
and float64 and compares the forward result and the vjp, bit for bit.
"""

import numpy as np
import pytest

from conftest import random_bias_tables
from text2table.corpus import DatasetRecord
from text2table.model import ModelConfig, TextToTableModel
from text2table.numerics import Tensor, no_grad, ops
from text2table.table import Table
from text2table.training import Trainer, TrainingConfig, prepare_example
from util import closure_tensors

DTYPES = [np.float32, np.float64]


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _forward_and_vjp(out: Tensor, grad: np.ndarray):
    """The op's result and the gradients its vjp sends back for ``grad``."""
    return out.data, out.node.vjp(grad)


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


def float_multiplier_dropout(x, p, rng):
    """Dropout that keeps its float multiplier for the vjp: (out, vjp)."""
    keep = (rng.random(x.shape) >= p) * x.dtype.type(1.0 / (1.0 - p))
    return x * keep, lambda g: (g * keep,)


def _special_pairs(dtype, n=3):
    """(x, g): every pair of NaN, +-inf, +-0.0, the largest finite value and
    two plain numbers, each pair ``n`` times, in shuffled order."""
    special = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, np.finfo(dtype).max, 1.5, -2.0], dtype=dtype)
    x, g = (a.reshape(-1) for a in np.meshgrid(special, special))
    order = np.random.default_rng(3).permutation(np.tile(np.arange(x.size), n))
    return x[order], g[order]


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


def loop_attention(q, k, v, q_len, k_len, n_heads, bias, scale):
    """The attention op example by example, softmax and all, on arrays:
    (out, vjp)."""
    nq, d = q.shape
    dh = d // n_heads
    q_len, k_len = list(q_len), list(k_len)
    limits = np.finfo(q.dtype)

    def heads(x, rows):
        return x.reshape(rows, n_heads, dh).transpose(1, 0, 2)

    def join(x, rows):
        return x.transpose(1, 0, 2).reshape(rows, d)

    saved = []
    out = np.empty_like(q)
    qo = ko = po = 0
    for n, m in zip(q_len, k_len):
        qs, ks, ps = slice(qo, qo + n), slice(ko, ko + m), slice(po, po + n * m)
        qo, ko, po = qo + n, ko + m, po + n * m
        if not n or not m:
            out[qs] = 0.0
            continue
        qh, kh, vh = heads(q[qs], n), heads(k[ks], m), heads(v[ks], m)
        p = np.matmul(qh, kh.swapaxes(-1, -2))
        p *= scale
        if bias is not None:
            p += bias[:, ps].reshape(n_heads, n, m)
        mx = np.maximum.reduce(p, axis=-1, keepdims=True)
        p -= np.maximum(mx, limits.min, out=mx)
        np.exp(p, out=p)
        z = np.add.reduce(p, axis=-1, keepdims=True)
        p /= np.maximum(z, limits.tiny, out=z)
        np.matmul(p, vh, out=heads(out[qs], n))
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


def unsmoothed_cross_entropy(x, targets, legal, weights):
    """``cross_entropy``'s branch for ``smoothing`` 0, on arrays: (loss, vjp)."""
    rows, vocab = x.shape
    legal = np.ones((rows, vocab), dtype=bool) if legal is None else legal
    weights = np.full(rows, 1.0 / max(rows, 1), dtype=x.dtype) if weights is None else weights.astype(x.dtype)
    neg = np.array(-np.inf, dtype=x.dtype)
    xm = np.where(legal, x, neg)
    mx = xm.max(axis=-1, keepdims=True)
    e = np.where(legal, np.exp(xm - mx), 0.0)
    z = e.sum(axis=-1, keepdims=True)
    logp = xm - mx - np.log(z)
    probs = e / z
    r = np.arange(rows)
    loss = float((weights * -logp[r, targets]).sum())

    def vjp(g):
        q = np.zeros_like(probs)
        q[r, targets] = 1.0
        return ((probs - q) * weights[:, None] * g,)

    return np.asarray(loss, dtype=x.dtype), vjp


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", [(1, 8), (14, 64), (3, 5, 16), (450, 64)])
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


@pytest.mark.parametrize("dtype", DTYPES)
def test_relu_vjp_from_its_output_matches_the_input_formula_on_special_values(dtype):
    x, g = _special_pairs(dtype)
    with np.errstate(invalid="ignore"):
        _, (got,) = _forward_and_vjp(ops.relu(Tensor(x, requires_grad=True)), g)
        want = g * (x > 0)  # the replaced vjp, which read the op's input
    assert _same_bits(got, want)


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


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("p", [0.1, 0.5])
def test_bool_mask_dropout_matches_float_multiplier_on_special_values(dtype, p):
    x, g = _special_pairs(dtype)
    with np.errstate(invalid="ignore", over="ignore"):
        out, (got,) = _forward_and_vjp(ops.dropout(Tensor(x, requires_grad=True), p, np.random.default_rng(5)), g)
        want, want_vjp = float_multiplier_dropout(x, p, np.random.default_rng(5))
        assert _same_bits(out, want) and _same_bits(got, want_vjp(g)[0])


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


def _check_against_loop(q, k, v, q_len, k_len, n_heads, bias, scale, seed):
    """The op's forward and its four gradients against ``loop_attention``, bit for bit."""
    grad = np.random.default_rng(seed).normal(size=q.shape).astype(q.dtype)
    tensors = [Tensor(a, requires_grad=True) for a in (q, k, v)]
    b = None if bias is None else Tensor(bias, requires_grad=True)
    out, grads = _forward_and_vjp(ops.attention(*tensors, q_len, k_len, n_heads, b, scale), grad)
    want, want_vjp = loop_attention(q, k, v, q_len, k_len, n_heads, bias, scale)
    assert _same_bits(out, want)
    for got, w in zip(grads, want_vjp(grad)):
        assert (got is None and w is None) or _same_bits(got, w)
    return out, grads


LOOP_CASES = {
    # name: (q_len, k_len, bias)
    "zero rows and keys mid-batch": ([2, 0, 3, 4, 1, 2], [3, 2, 0, 6, 4, 5], True),
    "one key count": ([3, 1, 2, 4], [5, 5, 5, 5], True),
    "one key count, no bias": ([3, 0, 2], [5, 5, 5], False),
    "decode self R x T": ([12], [79], True),
    "decode cross R x S": ([12], [40], False),
    # the test hides the last row of the last example, here the call's only row: no query sees a key
    "decode self, one row that sees no key": ([1], [79], True),
    "a query-less example beside a decode pass": ([0, 4], [79, 79], True),
    # one-example calls as the decode workloads make them
    "single-table encode": ([28], [28], True),
    "first pass's read rows": ([28], [79], True),
    "later pass on the 5-row template": ([4], [129], True),
    "one example with no queries": ([0], [79], False),  # stays on the packed layout
}


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("case", list(LOOP_CASES))
def test_packed_attention_matches_per_example_loop(dtype, case):
    q_len, k_len, with_bias = LOOP_CASES[case]
    rng = np.random.default_rng(len(case))
    packed = sum(n * m for n, m in zip(q_len, k_len))
    q = rng.normal(size=(sum(q_len), D)).astype(dtype)
    k, v = (rng.normal(size=(sum(k_len), D)).astype(dtype) for _ in range(2))
    bias = rng.normal(size=(H, packed)).astype(dtype) if with_bias else None
    hidden = None
    if with_bias:
        bias[:, rng.random(packed) < 0.3] = -np.inf  # hidden pairs
        # one query row that sees no key, in the last example with rows and keys
        b = max(i for i, (n, m) in enumerate(zip(q_len, k_len)) if n and m)
        start = sum(n * m for n, m in zip(q_len[:b], k_len[:b])) + k_len[b] * (q_len[b] - 1)
        bias[:, start : start + k_len[b]] = -np.inf
        hidden = sum(q_len[:b]) + q_len[b] - 1
    out, grads = _check_against_loop(q, k, v, np.array(q_len), np.array(k_len), H, bias, 1.0 / np.sqrt(D // H), 9)
    if hidden is not None:
        assert (out[hidden] == 0.0).all() and (grads[0][hidden] == 0.0).all()
    # as a decode pass calls it: no input needs a gradient, so a one-example call takes its own layout
    b = None if bias is None else Tensor(bias)
    with no_grad():
        fwd = ops.attention(Tensor(q), Tensor(k), Tensor(v), q_len, k_len, H, b, 1.0 / np.sqrt(D // H))
    assert _same_bits(fwd.data, out)
    assert not fwd.requires_grad and fwd.node is None


@pytest.fixture(scope="module")
def batch_attention_calls(lineitems_records, tiny_vocab):
    """The arguments of every attention call of one training batch's loss, on
    collated ``lineitems`` tables: encoder, decoder self-attention and
    cross-attention in each of two decoder layers, the last on the read rows.
    The 3rd of 7 tables is empty, so it has no read row."""
    cfg = ModelConfig(
        vocab_size=len(tiny_vocab), d_model=16, n_heads=2, n_enc_layers=1, n_dec_layers=2, d_ff=32,
        max_cell_len=4, max_rows=4, max_cols=4, max_input_len=128, float_width=64,
    )
    model = TextToTableModel(cfg, tiny_vocab, seed=2)
    random_bias_tables(model, np.random.default_rng(2))
    records = lineitems_records[:6]
    empty = DatasetRecord("empty", "nothing was bought today .", Table(list(records[0].table.headers), []))
    batch = [prepare_example(r, tiny_vocab, cfg) for r in records[:2] + [empty] + records[2:]]
    calls, attention = [], ops.attention

    def recording(*args):
        calls.append(args)
        return attention(*args)

    ops.attention = recording
    try:
        Trainer(model, batch, TrainingConfig(seed=0))._batch_loss(batch, 1, train=True)
    finally:
        ops.attention = attention
    return calls


@pytest.mark.parametrize("dtype", DTYPES)
def test_packed_attention_matches_per_example_loop_on_a_training_batch(dtype, batch_attention_calls):
    kinds = set()
    for i, (q, k, v, q_len, k_len, n_heads, bias, scale) in enumerate(batch_attention_calls):
        q_len, k_len = np.asarray(q_len), np.asarray(k_len)
        arrays = [t.data.astype(dtype) for t in (q, k, v)]
        bias = None if bias is None else bias.data.astype(dtype)
        _check_against_loop(*arrays, q_len, k_len, n_heads, bias, scale, i)
        same = q.shape == k.shape and np.array_equal(q_len, k_len)
        kinds.add("cross" if bias is None else "self" if same else "read rows")
        assert len(set(k_len.tolist())) > 1  # mixed key counts: rows are segments
    assert kinds == {"self", "cross", "read rows"} and len(batch_attention_calls) == 5
    assert (np.asarray(batch_attention_calls[-1][3]) == 0).sum() == 1  # the empty table reads no row


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("with_legal", [False, True])
def test_cross_entropy_at_no_smoothing_matches_the_unsmoothed_formula(dtype, with_legal):
    rng = np.random.default_rng(int(with_legal) + np.dtype(dtype).itemsize)
    for case in range(150):
        rows, vocab = int(rng.integers(1, 9)), int(rng.integers(2, 13))
        x = (rng.normal(size=(rows, vocab)) * rng.choice([0.1, 1.0, 30.0])).astype(dtype)
        targets = rng.integers(0, vocab, size=rows)
        legal = None
        if with_legal:
            legal = rng.random((rows, vocab)) < 0.5
            legal[np.arange(rows), targets] = True
        weights = None if case % 2 else rng.random(rows)
        g = np.asarray(rng.choice([1.0, rng.normal()]), dtype=dtype)
        out, (dx,) = _forward_and_vjp(ops.cross_entropy(Tensor(x, requires_grad=True), targets, 0.0, legal, weights), g)
        want, want_vjp = unsmoothed_cross_entropy(x, targets, legal, weights)
        assert _same_bits(out, want) and _same_bits(dx, want_vjp(g)[0]), case


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
        ("take_cols", ops.take_cols(x, np.array([3, 0]))),
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


@pytest.mark.parametrize("dtype", DTYPES)
def test_no_vjp_closes_over_a_tensor(dtype):
    for name, out in _every_op(dtype):
        assert closure_tensors(out.node.vjp) == [], name
    # an attention call with nothing to score leaves some of its vjp's cells unbound
    q, kv = (Tensor(np.zeros((n, 4), dtype), requires_grad=True) for n in (0, 3))
    bias = Tensor(np.zeros((2, 0), dtype), requires_grad=True)
    out = ops.attention(q, kv, kv, [0], [3], 2, bias, 0.5)
    assert closure_tensors(out.node.vjp) == []
    assert [gb.shape for gb in out.node.vjp(np.zeros((0, 4), dtype))] == [(0, 4), (3, 4), (3, 4), (2, 0)]
