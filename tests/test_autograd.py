import zlib

import numpy as np
import pytest

from padded_model import masked_fill, softmax, transpose
from text2table.numerics import NonScalarRootError, Tensor, backward, no_grad, ops
from util import finite_diff_grad, max_rel_err, mul, sum_all


def test_square_gradient():
    x = Tensor(np.array(3.0), requires_grad=True)
    y = mul(x, x)
    backward(y)
    assert x.grad == 6.0


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    y = mul(x, x)
    with pytest.raises(NonScalarRootError):
        backward(y)


def test_repeated_backward_accumulates():
    x = Tensor(np.array(2.0), requires_grad=True)
    backward(mul(x, x))
    backward(mul(x, x))
    assert x.grad == 8.0


def test_no_grad_suppresses_tape():
    x = Tensor(np.array(2.0), requires_grad=True)
    with no_grad():
        y = mul(x, x)
    assert not y.requires_grad
    assert y.node is None  # no parent links and no vjp


def test_softmax_cross_entropy_grad_vs_finite_differences():
    rng = np.random.default_rng(7)
    logits = Tensor(rng.normal(size=(1, 3)), requires_grad=True)

    def run():
        return ops.cross_entropy(logits, np.array([1])).item()

    loss = ops.cross_entropy(logits, np.array([1]))
    backward(loss)
    fd = finite_diff_grad(run, logits.data, h=1e-5)
    assert max_rel_err(logits.grad, fd) < 1e-6


def test_layer_norm_param_grads_vs_finite_differences():
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    g = Tensor(rng.normal(size=4), requires_grad=True)
    b = Tensor(rng.normal(size=4), requires_grad=True)

    def run():
        return sum_all(mul(ops.layer_norm(x, g, b), ops.layer_norm(x, g, b))).item()

    loss = sum_all(mul(ops.layer_norm(x, g, b), ops.layer_norm(x, g, b)))
    backward(loss)
    for t in (g, b, x):
        fd = finite_diff_grad(run, t.data, h=1e-5)
        assert max_rel_err(t.grad, fd) < 1e-5


def _rand(rng, *shape):
    return rng.normal(size=shape)


def _scalarize(t):
    # reduce via a fixed random-ish projection to exercise all entries
    w = np.cos(np.arange(t.data.size)).reshape(t.shape)
    return sum_all(mul(t, Tensor(w)))


OP_CASES = {
    "add": lambda rng: (lambda a, b: ops.add(a, b), [(2, 3), (2, 3)]),
    "add_broadcast": lambda rng: (lambda a, b: ops.add(a, b), [(2, 1, 3), (4, 3)]),
    "mul": lambda rng: (lambda a, b: mul(a, b), [(2, 3), (1, 3)]),
    "matmul": lambda rng: (lambda a, b: ops.matmul(a, b), [(2, 3, 4), (2, 4, 2)]),
    "relu": lambda rng: (lambda a: ops.relu(a), [(3, 5)]),
    "softmax": lambda rng: (lambda a: softmax(a), [(2, 6)]),
    "reshape": lambda rng: (lambda a: ops.reshape(a, (3, 4)), [(2, 6)]),
    "transpose": lambda rng: (lambda a: transpose(a, (1, 0, 2)), [(2, 3, 2)]),
    "take_rows": lambda rng: (lambda a: ops.take_rows(a, np.array([2, 0])), [(3, 4)]),
    "take_cols": lambda rng: (lambda a: ops.take_cols(a, np.array([3, 0, 2])), [(3, 4)]),
    "masked_fill": lambda rng: (
        (lambda m: lambda a: masked_fill(a, m, -7.0))(rng.random((2, 5)) < 0.3),
        [(2, 5)],
    ),
    "layer_norm": lambda rng: (lambda x, g, b: ops.layer_norm(x, g, b), [(3, 4), (4,), (4,)]),
    "embedding": lambda rng: (lambda t: ops.embedding(t, np.array([[0, 2], [1, 1]])), [(3, 4)]),
    "bucket_bias": lambda rng: (
        (lambda idx: lambda t: ops.bucket_bias(t, idx))(rng.integers(0, 5, size=(3, 3))),
        [(2, 5)],
    ),
}


# Inputs of an op with a kink at 0, where it has no derivative, are drawn at
# least this far from 0, beyond the reach of the finite-difference stencil.
KINK_GAP = {"relu": 1e-3}


def _check_op_gradients(name, seed):
    # spec-level property: analytic vs finite differences, rel err < 1e-4,
    # 100 randomized trials per op
    rng = np.random.default_rng(seed)
    for trial in range(100):
        build, shapes = OP_CASES[name](rng)
        tensors = [Tensor(_rand(rng, *s), requires_grad=True) for s in shapes]
        if name in KINK_GAP:
            for t in tensors:
                t.data += np.copysign(KINK_GAP[name], t.data)
        loss = _scalarize(build(*tensors))
        backward(loss)

        def run():
            return _scalarize(build(*tensors)).item()

        for t in tensors:
            fd = finite_diff_grad(run, t.data, h=1e-4, order=4)
            assert max_rel_err(t.grad, fd) < 1e-4, f"{name} trial {trial}"


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_op_gradients_randomized(name):
    # crc32, not hash(): Python salts str hashes per process, and a seed that
    # changes between runs makes a failure impossible to repeat
    _check_op_gradients(name, zlib.crc32(name.encode()))


@pytest.mark.parametrize("name, seed", [("layer_norm", 66), ("layer_norm", 269), ("relu", 271)])
def test_op_gradients_at_seeds_a_second_order_difference_failed(name, seed):
    # a central difference at h=1e-6 missed the bound here: layer_norm by
    # roundoff (rel err about 3e-4), relu by an input within h of its kink
    _check_op_gradients(name, seed)


def test_cross_entropy_grad_with_smoothing_and_mask():
    rng = np.random.default_rng(5)
    logits = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    legal = np.ones((4, 6), dtype=bool)
    legal[0, 3:] = False
    legal[2, :2] = False
    targets = np.array([0, 2, 4, 5])
    weights = rng.random(4)

    def run():
        return ops.cross_entropy(logits, targets, smoothing=0.1, legal=legal, weights=weights).item()

    loss = ops.cross_entropy(logits, targets, smoothing=0.1, legal=legal, weights=weights)
    backward(loss)
    fd = finite_diff_grad(run, logits.data, h=1e-6)
    assert max_rel_err(logits.grad, fd) < 1e-6


def test_pair_bias_grad_vs_finite_differences():
    rng = np.random.default_rng(13)
    heads, t = 2, 5
    row_tab = Tensor(rng.normal(size=(heads, 7)), requires_grad=True)
    r0 = Tensor(rng.normal(size=heads), requires_grad=True)
    col_tab = Tensor(rng.normal(size=(heads, 5)), requires_grad=True)
    loc_tab = Tensor(rng.normal(size=(heads, 9)), requires_grad=True)
    row_idx = rng.integers(-1, 7, size=(t, t))
    col_idx = rng.integers(0, 5, size=(t, t))
    loc_idx = rng.integers(-1, 9, size=(t, t))

    def build():
        return _scalarize(ops.pair_bias(row_tab, r0, col_tab, loc_tab, row_idx, col_idx, loc_idx))

    backward(build())
    for t_ in (row_tab, r0, col_tab, loc_tab):
        fd = finite_diff_grad(lambda: build().item(), t_.data, h=1e-6)
        assert max_rel_err(t_.grad, fd) < 1e-4
