"""The ragged attention op: gradients by finite differences, masked rows, and
agreement with the padded op chain it replaced (``padded_model``).

The bias and the mask are packed: each example's [n, m] block, row-major,
after the blocks of the examples before it. The op takes visibility in its
bias, as -inf on every hidden pair, so a masked case folds its mask into the
bias (:func:`_fold`); the padded op chain takes the bias and the mask apart."""

import math

import numpy as np
import pytest

from padded_model import masked_fill, softmax, transpose
from text2table.numerics import ShapeMismatchError, Tensor, backward, ops
from util import finite_diff_grad, max_rel_err, mul, sum_all

H, D = 2, 4
SCALE = 1.0 / math.sqrt(D // H)
LENGTHS = {
    # per example: query rows and key rows; example 1 has a single row of each
    "ragged": ([2, 1, 3], [3, 1, 4]),
    "equal": ([3, 3, 3], [4, 4, 4]),
}
BIAS_KINDS = ["none", "per-example"]


def _block_index(q_len, k_len):
    """Packed entry of every position of the padded [B, Lq, Lk] layout, -1
    outside the examples' blocks."""
    idx = np.full((len(q_len), q_len.max(), k_len.max()), -1)
    offset = 0
    for i, (n, m) in enumerate(zip(q_len, k_len)):
        idx[i, :n, :m] = offset + np.arange(n * m).reshape(n, m)
        offset += n * m
    return idx


def _case(rng, lengths, bias_kind, masked, dtype=np.float64):
    """Operands of one attention call: rows, lengths, bias and mask.

    The mask, when there is one, holds each example's [n, m] block; every
    query sees its example's first key."""
    q_len, k_len = (np.array(x) for x in LENGTHS[lengths])
    packed = int((q_len * k_len).sum())
    tensors = [
        Tensor(rng.normal(size=(int(n), D)).astype(dtype), requires_grad=True)
        for n in (q_len.sum(), k_len.sum(), k_len.sum())
    ]
    bias = None
    if bias_kind != "none":
        bias = Tensor(rng.normal(size=(H, packed)).astype(dtype), requires_grad=True)
    allow = None
    if masked:
        allow = rng.random(packed) < 0.7
        idx = _block_index(q_len, k_len)
        allow[idx[:, :, 0][idx[:, :, 0] >= 0]] = True
    return tensors, q_len, k_len, bias, allow


def _fold(bias, allow):
    """The attention bias of a case: ``bias`` (zeros when None) with -inf
    added on every pair ``allow`` hides; ``bias`` itself when there is no mask.
    The gradient of a folded bias flows to ``bias``."""
    if allow is None:
        return bias
    dtype = np.float64 if bias is None else bias.dtype
    hide = Tensor(np.where(allow, 0.0, -np.inf)[None].repeat(H, axis=0).astype(dtype))
    return hide if bias is None else ops.add(bias, hide)


def _scalarize(t):
    w = np.cos(np.arange(t.data.size)).reshape(t.shape).astype(t.dtype)
    return sum_all(mul(t, Tensor(w)))


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("bias_kind", BIAS_KINDS)
@pytest.mark.parametrize("lengths", list(LENGTHS))
def test_attention_gradients_vs_finite_differences(lengths, bias_kind, masked):
    rng = np.random.default_rng(3 + len(lengths) + 2 * len(bias_kind) + 7 * masked)
    (q, k, v), q_len, k_len, bias, allow = _case(rng, lengths, bias_kind, masked)

    def build():
        return _scalarize(ops.attention(q, k, v, q_len, k_len, H, _fold(bias, allow), SCALE))

    backward(build())
    leaves = [q, k, v] + ([bias] if bias is not None else [])
    for t in leaves:
        fd = finite_diff_grad(lambda: build().item(), t.data, h=1e-6)
        assert max_rel_err(t.grad, fd) < 1e-4  # the bound test_autograd sets for every op


def _chain(q, k, v, q_len, k_len, bias, allow):
    """The same attention as the op chain of the padded model, from rows and
    packed blocks."""
    b, lq, lk, d = len(q_len), q_len.max(), k_len.max(), q.shape[1]
    q_at = np.flatnonzero(np.arange(lq) < q_len[:, None])  # positions in [B*Lq]
    k_at = np.flatnonzero(np.arange(lk) < k_len[:, None])
    block = _block_index(q_len, k_len)
    allow = block >= 0 if allow is None else (block >= 0) & allow[block]

    def lift(x, at, length):  # rows -> [B, L, ...] as a differentiable gather
        n = len(x.data)
        with_zero = ops.matmul(Tensor(np.eye(n + 1)[:, :n]), x)  # x plus a zero row last
        idx = np.full(b * length, n)  # empty positions read the zero row
        idx[at] = np.arange(n)
        return ops.reshape(ops.take_rows(with_zero, idx), (b, length) + x.shape[1:])

    def heads(x, at, length):  # rows -> [B, H, L, dh]
        return transpose(ops.reshape(lift(x, at, length), (b, length, H, d // H)), (0, 2, 1, 3))

    qh, kh, vh = heads(q, q_at, lq), heads(k, k_at, lk), heads(v, k_at, lk)
    scores = ops.scale(ops.matmul(qh, transpose(kh, (0, 1, 3, 2))), SCALE)
    if bias is not None:  # packed [H, P] -> [P, H] rows -> [B, Lq, Lk, H] -> [B, H, Lq, Lk]
        rows = lift(transpose(bias, (1, 0)), np.flatnonzero(block >= 0), lq * lk)
        scores = ops.add(scores, transpose(ops.reshape(rows, (b, lq, lk, H)), (0, 3, 1, 2)))
    probs = softmax(masked_fill(scores, ~allow[:, None], -np.inf))
    ctx = ops.reshape(transpose(ops.matmul(probs, vh), (0, 2, 1, 3)), (b * lq, d))
    return ops.take_rows(ctx, q_at)


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("bias_kind", BIAS_KINDS)
@pytest.mark.parametrize("lengths", list(LENGTHS))
def test_attention_matches_op_chain(lengths, bias_kind, masked):
    rng = np.random.default_rng(17)
    (q, k, v), q_len, k_len, bias, allow = _case(rng, lengths, bias_kind, masked)
    leaves = [q, k, v] + ([bias] if bias is not None else [])
    out = ops.attention(q, k, v, q_len, k_len, H, _fold(bias, allow), SCALE)
    backward(_scalarize(out))
    got = [t.grad.copy() for t in leaves]
    for t in leaves:
        t.zero_grad()
    want = _chain(q, k, v, q_len, k_len, bias, allow)
    backward(_scalarize(want))
    assert np.abs(out.data - want.data).max() <= 1e-12 * np.abs(want.data).max()
    for g, t in zip(got, leaves):
        assert np.abs(g - t.grad).max() <= 1e-12 * np.abs(t.grad).max()


@pytest.mark.parametrize("lengths", list(LENGTHS))
def test_no_mask_equals_an_all_visible_mask(lengths):
    rng = np.random.default_rng(8)
    (q, k, v), q_len, k_len, bias, _ = _case(rng, lengths, "per-example", masked=False)
    all_visible = np.ones(int((q_len * k_len).sum()), dtype=bool)
    outs, grads = [], []
    for allow in (None, all_visible):
        for t in (q, k, v, bias):
            t.zero_grad()
        out = ops.attention(q, k, v, q_len, k_len, H, _fold(bias, allow), SCALE)
        backward(_scalarize(out))
        outs.append(out.data)
        grads.append([t.grad.copy() for t in (q, k, v, bias)])
    assert np.array_equal(outs[0], outs[1])
    for g0, g1 in zip(*grads):
        assert np.array_equal(g0, g1)


@pytest.mark.parametrize("lengths", list(LENGTHS))
def test_fully_masked_query_gets_zero_output_and_gradient(lengths):
    rng = np.random.default_rng(5)
    (q, k, v), q_len, k_len, bias, allow = _case(rng, lengths, "per-example", masked=True)
    first = _block_index(q_len, k_len)[1, 0, : k_len[1]]  # the first query row of example 1
    allow[first] = False  # sees no key
    row = int(q_len[0])
    out = ops.attention(q, k, v, q_len, k_len, H, _fold(bias, allow), SCALE)
    assert np.isfinite(out.data).all()
    assert (out.data[row] == 0.0).all()
    backward(_scalarize(out))
    assert (q.grad[row] == 0.0).all()
    assert (bias.grad[:, first] == 0.0).all()  # the bias row of that query
    assert np.isfinite(k.grad).all() and np.isfinite(v.grad).all()


@pytest.mark.parametrize("lengths", list(LENGTHS))
def test_attention_float32_matches_float64(lengths):
    rng = np.random.default_rng(9)
    (q, k, v), q_len, k_len, bias, allow = _case(rng, lengths, "per-example", masked=True, dtype=np.float32)
    out32 = ops.attention(q, k, v, q_len, k_len, H, _fold(bias, allow), SCALE)
    assert out32.dtype == np.float32
    backward(_scalarize(out32))
    grads32 = [t.grad for t in (q, k, v, bias)]
    wide = [Tensor(t.data.astype(np.float64), requires_grad=True) for t in (q, k, v, bias)]
    out64 = ops.attention(*wide[:3], q_len, k_len, H, _fold(wide[3], allow), SCALE)
    backward(_scalarize(out64))
    assert max_rel_err(out32.data, out64.data) < 1e-5
    for g32, t in zip(grads32, wide):
        assert g32.dtype == np.float32
        assert max_rel_err(g32, t.grad) < 1e-4


def test_attention_rejects_lengths_and_bias_that_do_not_fit():
    rng = np.random.default_rng(1)
    (q, k, v), q_len, k_len, _, allow = _case(rng, "ragged", "none", masked=True)
    b, lq, lk, packed = len(q_len), q_len.max(), k_len.max(), allow.size

    def call(q_len=q_len, k_len=k_len, bias=None):
        return ops.attention(q, k, v, q_len, k_len, H, bias, SCALE)

    call()  # the case itself fits
    call(bias=Tensor(np.zeros((H, packed))))  # so does a packed bias
    call(bias=_fold(None, allow))  # and a packed mask, folded into the bias
    with pytest.raises(ShapeMismatchError):
        call(q_len=q_len + [1, 0, 0])  # one query row more than q holds
    with pytest.raises(ShapeMismatchError):
        call(k_len=k_len - [0, 0, 1])  # one key row fewer than k holds
    with pytest.raises(ShapeMismatchError):
        call(k_len=k_len[:2])  # lengths of a different batch size
    with pytest.raises(ShapeMismatchError):
        call(bias=Tensor(np.zeros((H, packed + 1))))  # the blocks of another batch
    with pytest.raises(ShapeMismatchError):
        call(bias=Tensor(np.zeros((H, b, lq, lk))))  # the padded per-example layout
    with pytest.raises(ShapeMismatchError):
        call(bias=Tensor(np.zeros((H, lq, lk))))  # one [Lq, Lk] bias shared by every example
    with pytest.raises(ShapeMismatchError):
        call(bias=Tensor(np.zeros((H + 1, packed))))  # bias of another head count
    with pytest.raises(ShapeMismatchError):
        call(bias=Tensor(_fold(None, allow).data[:, :-1]))  # a folded mask one entry short
