"""The fused attention op: gradients by finite differences, masked rows, and
agreement with the op chain it replaced (``padded_model``)."""

import math

import numpy as np
import pytest

from padded_model import masked_fill, softmax, transpose
from text2table.numerics import ShapeMismatchError, Tensor, backward, ops
from util import finite_diff_grad, max_rel_err

B, LQ, LK, H, D = 2, 3, 4, 2, 4
SCALE = 1.0 / math.sqrt(D // H)


def _case(rng, packed, with_bias, shared_bias=False, dtype=np.float64):
    """Operands of one attention call. Packed rows leave some positions of
    each example empty; the mask hides empty keys, as the model's masks do."""
    if packed:
        q_at = np.array([0, 1, 3])  # example 0 has 2 query rows, example 1 one
        k_at = np.array([0, 1, 2, 4, 5])  # example 0 has 3 keys, example 1 two
    else:
        q_at = k_at = None
    nq = B * LQ if q_at is None else len(q_at)
    nk = B * LK if k_at is None else len(k_at)
    key_live = np.zeros(B * LK, dtype=bool)
    key_live[np.arange(B * LK) if k_at is None else k_at] = True
    allow = (rng.random((B, LQ, LK)) < 0.7) & key_live.reshape(B, 1, LK)
    allow[:, :, 0] = True  # every query sees at least its example's first key
    tensors = [Tensor(rng.normal(size=(n, D)).astype(dtype), requires_grad=True) for n in (nq, nk, nk)]
    bias = None
    if with_bias:
        shape = (H, LQ, LK) if shared_bias else (H, B * LQ, LK)
        bias = Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
    return tensors, q_at, k_at, bias, allow


def _scalarize(t):
    w = np.cos(np.arange(t.data.size)).reshape(t.shape).astype(t.dtype)
    return ops.sum_all(ops.mul(t, Tensor(w)))


@pytest.mark.parametrize("packed", [False, True])
@pytest.mark.parametrize("bias_kind", ["none", "per-example", "shared"])
def test_attention_gradients_vs_finite_differences(packed, bias_kind):
    rng = np.random.default_rng(3 + packed + 2 * len(bias_kind))
    (q, k, v), q_at, k_at, bias, allow = _case(
        rng, packed, bias_kind != "none", shared_bias=bias_kind == "shared"
    )

    def build():
        return _scalarize(ops.attention(q, k, v, q_at, k_at, H, bias, allow, SCALE))

    backward(build())
    leaves = [q, k, v] + ([bias] if bias is not None else [])
    for t in leaves:
        fd = finite_diff_grad(lambda: build().item(), t.data, h=1e-6)
        assert max_rel_err(t.grad, fd) < 1e-4  # the bound test_autograd sets for every op


def _chain(q, k, v, q_at, k_at, bias, allow):
    """The same attention as the op chain of the padded model, from rows."""
    d = q.shape[1]

    def lift(x, at, length):  # rows -> [B, H, L, dh] as a differentiable gather
        n = len(x.data)
        with_zero = ops.matmul(Tensor(np.eye(n + 1)[:, :n]), x)  # x plus a zero row last
        idx = np.full(B * length, n)  # empty positions read the zero row
        idx[np.arange(B * length) if at is None else at] = np.arange(n)
        padded = ops.take_rows(with_zero, idx)
        return transpose(ops.reshape(padded, (B, length, H, d // H)), (0, 2, 1, 3))

    qh, kh, vh = lift(q, q_at, LQ), lift(k, k_at, LK), lift(v, k_at, LK)
    scores = ops.scale(ops.matmul(qh, transpose(kh, (0, 1, 3, 2))), SCALE)
    if bias is not None:
        b4 = ops.reshape(bias, (H, -1, LQ, LK))
        scores = ops.add(scores, transpose(b4, (1, 0, 2, 3)))
    probs = softmax(masked_fill(scores, ~allow[:, None], -np.inf))
    ctx = ops.reshape(transpose(ops.matmul(probs, vh), (0, 2, 1, 3)), (B * LQ, d))
    return ops.take_rows(ctx, np.arange(B * LQ) if q_at is None else q_at)


@pytest.mark.parametrize("packed", [False, True])
def test_attention_matches_op_chain(packed):
    rng = np.random.default_rng(17)
    (q, k, v), q_at, k_at, bias, allow = _case(rng, packed, with_bias=True)
    out = ops.attention(q, k, v, q_at, k_at, H, bias, allow, SCALE)
    backward(_scalarize(out))
    got = [t.grad.copy() for t in (q, k, v, bias)]
    for t in (q, k, v, bias):
        t.zero_grad()
    want = _chain(q, k, v, q_at, k_at, bias, allow)
    backward(_scalarize(want))
    assert np.abs(out.data - want.data).max() <= 1e-12 * np.abs(want.data).max()
    for g, t in zip(got, (q, k, v, bias)):
        assert np.abs(g - t.grad).max() <= 1e-12 * np.abs(t.grad).max()


@pytest.mark.parametrize("packed", [False, True])
def test_fully_masked_query_gets_zero_output_and_gradient(packed):
    rng = np.random.default_rng(5)
    (q, k, v), q_at, k_at, bias, allow = _case(rng, packed, with_bias=True)
    allow[1, 0] = False  # the first query of example 1 sees no key
    row = int(np.flatnonzero((np.arange(B * LQ) if q_at is None else q_at) == LQ)[0])
    out = ops.attention(q, k, v, q_at, k_at, H, bias, allow, SCALE)
    assert np.isfinite(out.data).all()
    assert (out.data[row] == 0.0).all()
    backward(_scalarize(out))
    assert (q.grad[row] == 0.0).all()
    assert (bias.grad[:, LQ] == 0.0).all()  # the bias row of that query
    assert np.isfinite(k.grad).all() and np.isfinite(v.grad).all()


@pytest.mark.parametrize("packed", [False, True])
def test_attention_float32_matches_float64(packed):
    rng = np.random.default_rng(9)
    (q, k, v), q_at, k_at, bias, allow = _case(rng, packed, with_bias=True, dtype=np.float32)
    out32 = ops.attention(q, k, v, q_at, k_at, H, bias, allow, SCALE)
    assert out32.dtype == np.float32
    backward(_scalarize(out32))
    grads32 = [t.grad for t in (q, k, v, bias)]
    wide = [Tensor(t.data.astype(np.float64), requires_grad=True) for t in (q, k, v, bias)]
    out64 = ops.attention(*wide[:3], q_at, k_at, H, wide[3], allow, SCALE)
    backward(_scalarize(out64))
    assert max_rel_err(out32.data, out64.data) < 1e-5
    for g32, t in zip(grads32, wide):
        assert g32.dtype == np.float32
        assert max_rel_err(g32, t.grad) < 1e-4


def test_attention_rejects_rows_that_do_not_fit_the_layout():
    rng = np.random.default_rng(1)
    (q, k, v), _, _, _, allow = _case(rng, packed=False, with_bias=False)
    with pytest.raises(ShapeMismatchError):
        ops.attention(q, k, v, np.array([0, 1]), None, H, None, allow, SCALE)
    with pytest.raises(ShapeMismatchError):
        ops.attention(q, k, v, None, None, H, Tensor(np.zeros((H, 5, LK))), allow, SCALE)
