import numpy as np
import pytest

from padded_model import masked_fill, softmax
from text2table.numerics import ShapeMismatchError, Tensor, ops

# Oracle constants recomputed with mpmath at 60 digits (see comments).


def test_softmax_symmetry():
    out = softmax(Tensor([0.0, 0.0]))
    assert np.allclose(out.data, [0.5, 0.5], atol=0)


def test_masked_fill_then_softmax_zeroes_forbidden():
    logits = Tensor([1.0, 2.0])
    masked = masked_fill(logits, np.array([False, True]), -np.inf)
    probs = softmax(masked)
    assert probs.data[0] == 1.0
    assert probs.data[1] == 0.0


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(7, 11)))
    s = softmax(x).data
    assert np.abs(s.sum(axis=-1) - 1.0).max() < 1e-12


def test_softmax_fully_masked_row_is_zero_not_nan():
    x = Tensor(np.full((2, 3), -np.inf))
    s = softmax(x).data
    assert np.all(s == 0.0)


def test_cross_entropy_plain_value():
    # -log softmax([ln 3, 0, 0])[0] = ln(5/3) = 0.51082562376599068321 (mpmath, 60 dps)
    logits = Tensor(np.array([[np.log(3.0), 0.0, 0.0]]))
    loss = ops.cross_entropy(logits, np.array([0]), smoothing=0.0)
    assert abs(loss.item() - 0.5108256237659907) < 1e-15


def test_cross_entropy_rejects_illegal_target():
    logits = Tensor(np.zeros((1, 3)))
    legal = np.array([[True, False, True]])
    with pytest.raises(ValueError):
        ops.cross_entropy(logits, np.array([1]), legal=legal)


def test_cross_entropy_legal_mask_renormalizes():
    # with token 1 masked out, softmax is over {0, 2} only
    logits = Tensor(np.array([[1.0, 50.0, 1.0]]))
    legal = np.array([[True, False, True]])
    loss = ops.cross_entropy(logits, np.array([0]), legal=legal)
    assert abs(loss.item() - np.log(2.0)) < 1e-12


def test_matmul_shape_error_names_op_and_shapes():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((4, 5)))
    with pytest.raises(ShapeMismatchError) as ei:
        ops.matmul(a, b)
    assert ei.value.op == "matmul"
    assert ei.value.left == (2, 3)
    assert ei.value.right == (4, 5)
    # a 1-D b, which numpy would take as a vector, and a 0-d a
    for a_shape, b_shape in (((2, 3), (3,)), ((), (3, 3))):
        with pytest.raises(ShapeMismatchError) as ei:
            ops.matmul(Tensor(np.zeros(a_shape)), Tensor(np.zeros(b_shape)))
        assert (ei.value.op, ei.value.left, ei.value.right) == ("matmul", a_shape, b_shape)


def test_add_shape_error():
    with pytest.raises(ShapeMismatchError):
        ops.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4,))))


def test_embedding_lookup_and_bounds():
    table = Tensor(np.arange(12.0).reshape(4, 3))
    out = ops.embedding(table, np.array([[1, 0], [3, 3]]))
    assert out.shape == (2, 2, 3)
    assert np.array_equal(out.data[0, 0], [3.0, 4.0, 5.0])
    with pytest.raises(ShapeMismatchError):
        ops.embedding(table, np.array([4]))


def test_mse_value():
    loss = ops.mse(Tensor([1.0, 3.0]), np.array([0.0, 0.0]))
    assert abs(loss.item() - 5.0) < 1e-15


def test_layer_norm_normalizes_rows():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(5, 8)) * 3 + 1)
    g = Tensor(np.ones(8))
    b = Tensor(np.zeros(8))
    y = ops.layer_norm(x, g, b).data
    assert np.abs(y.mean(axis=-1)).max() < 1e-12
    assert np.abs(y.std(axis=-1) - 1.0).max() < 1e-3
