"""The library's vectorised hot loops against the naive loops of
``loop_kernels``, bitwise.

Covered: ``ops.pair_bias`` and ``ops.bucket_bias`` forward and vjp, the
visibility mask over live positions (random and real layouts), the
``ops.embedding`` and ``ops.take_rows`` vjps and ``AdamW.step``. The bias
inputs are random [T, T] maps, as a decode cache passes a template's, and
packed per-example blocks, random and those of a real collated training
batch, as the decoder passes a batch's. They run in float64 and float32,
with more than one head and with -1 in both the row and the local map: a
sentinel index that wrapped into another head's part of a table would show
as a wrong gradient.
"""

import math

import numpy as np
import pytest

import loop_kernels as ref
from text2table.model import collate_instances, instance_for_decoding
from text2table.model.layout import row_major_order, visibility_mask
from text2table.numerics import AdamW, ParameterStore, Tensor, backward, ops
from text2table.training import (
    build_training_pass,
    causal_stages,
    prepare_example,
    sample_permutation,
)
from util import instance_for_pass, mul, sum_all

DTYPES = [np.float64, np.float32]


def _vjp(op, tensors, grad):
    """Gradients of every input of ``op(*tensors)`` for the upstream ``grad``."""
    for t in tensors:
        t.grad = None
    out = op(*tensors)
    backward(sum_all(mul(out, Tensor(grad))))
    return out.data, [t.grad for t in tensors]


def _tables(rng, dtype, heads=3, n_max=4, m_max=3, l=5):
    shapes = [(heads, 2 * n_max + 1), (heads,), (heads, 2 * m_max + 1), (heads, 2 * l + 1)]
    return [Tensor(rng.normal(size=s).astype(dtype), requires_grad=True) for s in shapes]


def _random_maps(rng, tables, shape):
    row, _, col, loc = (t.shape[-1] for t in tables)
    return (
        rng.integers(-1, row, size=shape),
        rng.integers(0, col, size=shape),
        rng.integers(-1, loc, size=shape),
    )


@pytest.fixture(scope="module")
def batch_maps(lineitems_records, tiny_vocab):
    """(row, col, loc, bucket) maps of a collated permuted-training batch,
    each the packed per-example blocks [sum n_b^2], and the model config that
    made them."""
    from text2table.model import ModelConfig, TextToTableModel

    cfg = ModelConfig(
        vocab_size=len(tiny_vocab), d_model=16, n_heads=2, n_enc_layers=1, n_dec_layers=1,
        d_ff=32, dropout=0.0, max_cell_len=4, max_rows=4, max_cols=4,
    )
    model = TextToTableModel(cfg, tiny_vocab, seed=1)
    rng = np.random.default_rng(8)
    insts = []
    for rec in lineitems_records[:4]:
        ex = prepare_example(rec, tiny_vocab, cfg)
        insts.append(build_training_pass(ex, sample_permutation(ex.n_rows, ex.n_cols, rng), model))
    maps = collate_instances(insts).bias_idx
    assert maps.shape == (4, sum(int((~inst.is_pad).sum()) ** 2 for inst in insts))
    assert (maps[0] < 0).any() and (maps[2] < 0).any()  # header bucket and cross-cell pairs
    return maps, cfg


def _check_pair_bias(tables, maps, rng):
    data = [t.data for t in tables]
    grad = rng.normal(size=(tables[0].shape[0],) + maps[0].shape).astype(tables[0].dtype)
    out, grads = _vjp(lambda *t: ops.pair_bias(*t, *maps), tables, grad)
    assert out.dtype == tables[0].dtype
    assert np.array_equal(out, ref.gather_pair_bias(*data, *maps))
    want = [np.zeros_like(x) for x in data]
    ref.scatter_pair_bias_grad(*want, grad, *maps)
    for got, w in zip(grads, want):
        assert got.dtype == w.dtype and np.array_equal(got, w)


@pytest.mark.parametrize("dtype", DTYPES)
def test_pair_bias_random_maps_bitwise(dtype):
    rng = np.random.default_rng(0)
    tables = _tables(rng, dtype)
    _check_pair_bias(tables, _random_maps(rng, tables, (17, 17)), rng)
    # packed [n_b, n_b] blocks of a batch of 3, as the decoder passes them
    _check_pair_bias(tables, _random_maps(rng, tables, (5 * 5 + 7 * 7 + 2 * 2,)), rng)
    # every key in the header row and every pair across cells: sentinels only
    _, col, _ = _random_maps(rng, tables, (4, 4))
    _check_pair_bias(tables, (np.full((4, 4), -1), col, np.full((4, 4), -1)), rng)


@pytest.mark.parametrize("dtype", DTYPES)
def test_pair_bias_collated_batch_bitwise(dtype, batch_maps):
    (row, col, loc, _), cfg = batch_maps
    rng = np.random.default_rng(1)
    tables = _tables(rng, dtype, heads=cfg.n_heads, n_max=cfg.max_rows, m_max=cfg.max_cols, l=cfg.max_cell_len)
    _check_pair_bias(tables, (row, col, loc), rng)


def _check_bucket_bias(table, idx, rng):
    grad = rng.normal(size=(table.shape[0],) + idx.shape).astype(table.dtype)
    out, (g,) = _vjp(lambda t: ops.bucket_bias(t, idx), [table], grad)
    assert np.array_equal(out, ref.gather_bucket_bias(table.data, idx))
    want = np.zeros_like(table.data)
    ref.scatter_bucket_bias_grad(want, grad, idx)
    assert g.dtype == want.dtype and np.array_equal(g, want)


@pytest.mark.parametrize("dtype", DTYPES)
def test_bucket_bias_bitwise(dtype, batch_maps):
    (_, _, _, buckets), cfg = batch_maps
    rng = np.random.default_rng(3)
    table = Tensor(rng.normal(size=(4, 32)).astype(dtype), requires_grad=True)
    _check_bucket_bias(table, rng.integers(0, 32, size=(23, 23)), rng)
    _check_bucket_bias(table, rng.integers(0, 32, size=(5 * 5 + 7 * 7 + 2 * 2,)), rng)
    table = Tensor(rng.normal(size=(cfg.n_heads, cfg.relative_buckets)).astype(dtype), requires_grad=True)
    _check_bucket_bias(table, buckets, rng)


def _random_layout(rng, scheme, l):
    """(stage, is_pad, cell_id, within, local) of a random layout: context
    blocks (a header or a row marker: stage 0, 1..l positions, all live)
    between cell slots of l positions. A slot's padding is a suffix after
    its 2..l live positions (BOS, content, end-of-cell), except an open slot
    of a decode layout, which is live throughout. Slot i gets stage i + 1
    under "fixed-causal", and 0 or 1 at random otherwise. ``local`` is built
    as the template's local index map: key minus query offset plus l inside
    one block, -1 across blocks."""
    stage, pad, cell_id, within = [], [], [], []
    n_slots = 0
    for block in range(int(rng.integers(4, 12))):
        if rng.random() < 0.3:
            s, n = 0, int(rng.integers(1, l + 1))
            live = n
        else:
            n_slots += 1
            s = n_slots if scheme == "fixed-causal" else int(rng.integers(0, 2))
            n = l
            live = l if scheme == "decode" and s else int(rng.integers(2, l + 1))
        stage += [s] * n
        pad += [t >= live for t in range(n)]
        cell_id += [block] * n
        within += list(range(n))
    serial, cell_id = np.arange(len(stage)), np.array(cell_id)
    local = np.where(cell_id[:, None] == cell_id[None, :], serial[:, None] - serial[None, :] + l, -1)
    return np.array(stage), np.array(pad), cell_id, np.array(within), local


@pytest.mark.parametrize("scheme", ["permuted", "fixed-causal", "decode"])
def test_visibility_mask_equals_the_naive_rule_on_live_positions(scheme):
    # the library rule takes live positions only; the naive rule sees the
    # whole layout and hides padding itself
    rng = np.random.default_rng(4)
    l, hidden, padded = 5, 0, 0
    for _ in range(30):
        stage, is_pad, cell_id, within, local = _random_layout(rng, scheme, l)
        live = np.flatnonzero(~is_pad)
        got = visibility_mask(stage[live], local[np.ix_(live, live)] >= l)
        want = ref.visibility_mask(is_pad, stage, cell_id, within)[np.ix_(live, live)]
        assert got.dtype == bool and np.array_equal(got, want)
        hidden, padded = hidden + int((~want).sum()), padded + int(is_pad.any())
    assert hidden > 0 and padded > 0


def test_visibility_mask_on_real_layouts_equals_the_naive_rule(lineitems_records, tiny_model):
    model, rng = tiny_model, np.random.default_rng(9)
    for rec in lineitems_records[:12]:
        ex = prepare_example(rec, model.vocab, model.cfg)
        tpl = model.template_for(ex.header_ids, ex.n_rows)
        stage = sample_permutation(ex.n_rows, ex.n_cols, rng)
        causal = causal_stages(row_major_order(ex.n_rows, ex.n_cols))
        for inst in (
            instance_for_pass(tpl, model.grammar, ex.cell_ids, stage),
            instance_for_pass(tpl, model.grammar, ex.cell_ids, causal),
            instance_for_decoding(tpl, {c: ex.cell_ids[c] for c, s in stage.items() if not s}),
        ):
            live = np.flatnonzero(~inst.is_pad)
            got = visibility_mask(inst.stage[live], tpl.bias_idx[2][np.ix_(live, live)] >= tpl.slot_len)
            want = ref.visibility_mask(inst.is_pad, inst.stage, tpl.cell, tpl.within)[np.ix_(live, live)]
            assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype", DTYPES)
def test_embedding_and_take_rows_vjp_bitwise(dtype):
    rng = np.random.default_rng(5)
    table = Tensor(rng.normal(size=(10, 7)).astype(dtype), requires_grad=True)
    ids = rng.integers(0, 10, size=(5, 10))  # repeated ids accumulate
    grad = rng.normal(size=(5, 10, 7)).astype(dtype)
    _, (g,) = _vjp(lambda t: ops.embedding(t, ids), [table], grad)
    want = np.zeros_like(table.data)
    ref.scatter_add_rows(want, ids.reshape(-1), grad.reshape(-1, 7))
    assert np.array_equal(g, want)

    x = Tensor(rng.normal(size=(6, 2, 3)).astype(dtype), requires_grad=True)
    idx = rng.permutation(6)[:4]  # take_rows gathers distinct rows
    grad = rng.normal(size=(4, 2, 3)).astype(dtype)
    _, (g,) = _vjp(lambda t: ops.take_rows(t, idx), [x], grad)
    want = np.zeros((6, 6), dtype=dtype)
    ref.scatter_add_rows(want, idx, grad.reshape(4, 6))
    assert np.array_equal(g, want.reshape(6, 2, 3))
    # a row gathered twice, also as a negative index, is refused by the vjp
    for repeated in ([1, 4, 1], [5, 0, -1]):
        with pytest.raises(ValueError, match="more than once"):
            _vjp(lambda t: ops.take_rows(t, np.array(repeated)), [x], grad[:3])

    # an empty index (a batch with no loss position or no decoder row)
    # selects nothing and sends back zeros
    _, (g,) = _vjp(lambda t: ops.take_rows(t, idx[:0]), [x], grad[:0])
    assert g.dtype == dtype and np.array_equal(g, np.zeros((6, 2, 3), dtype=dtype))
    _, (g,) = _vjp(lambda t: ops.embedding(t, ids[:0]), [table], np.zeros((0, 10, 7), dtype=dtype))
    assert g.dtype == dtype and np.array_equal(g, np.zeros((10, 7), dtype=dtype))


@pytest.mark.parametrize("dtype", DTYPES)
def test_adamw_step_bitwise(dtype):
    rng = np.random.default_rng(6)
    shapes = (("w", (7, 5)), ("b", (5,)))
    store = ParameterStore((name, rng.normal(size=shape).astype(dtype)) for name, shape in shapes)
    opt = AdamW(store, lr=3e-3, weight_decay=1e-2)
    want = {name: (t.data.copy(), np.zeros_like(t.data), np.zeros_like(t.data)) for name, t in store.items()}
    for step in range(1, 4):
        store.zero_grad()
        for name, t in store.items():
            t.accumulate_grad(rng.normal(size=t.shape).astype(dtype))
        opt.step()
        step_size = opt.lr * math.sqrt(1.0 - opt.beta2**step) / (1.0 - opt.beta1**step)
        for name, t in store.items():
            p, m, v = (a.reshape(-1) for a in want[name])
            ref.adamw_update(
                p, t.grad.reshape(-1), m, v, step_size, opt.lr * opt.weight_decay, opt.beta1, opt.beta2, opt.eps
            )
    for name, t in store.items():
        p, m, v = want[name]
        assert t.data.dtype == dtype
        assert np.array_equal(t.data, p) and np.array_equal(opt.m[name], m) and np.array_equal(opt.v[name], v)
