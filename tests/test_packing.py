"""The packed-row stacks against the padded forward they replace.

``padded_model`` is the reference: the encoder over PAD-padded source texts
and the decoder over every template position (slot padding included),
batch-padded to the longest template, each attention as a chain of tape ops,
as the model ran before packing. In float64 with dropout off the losses,
gradients and hidden states must agree to rounding, since packing only drops
positions the masks hide; in float32 to a tolerance set by the width.
"""

import numpy as np
import pytest

import padded_model
from conftest import random_bias_tables
from text2table.corpus import CorpusSpec, DatasetRecord, build_vocab, generate
from text2table.model import ModelConfig, TextToTableModel, collate_instances
from text2table.model.layout import row_major_order
from text2table.numerics import backward, ops
from text2table.table import Table
from text2table.training import (
    Trainer,
    TrainingConfig,
    build_source_batch,
    build_training_pass,
    causal_stages,
    prepare_example,
    sample_permutation,
)
from text2table.vocab import NULL, PAD
from util import cell_logits, cut_stages, encode_one, structure, visibility

REL = {64: 1e-12, 32: 1e-4}


@pytest.fixture(scope="module")
def corpus():
    spec = CorpusSpec(task="lineitems", n_examples=40, rows_min=1, rows_max=4, null_rate=0.3, seed=7)
    records = list(generate(spec))
    return records, build_vocab(records, n_max_rows=5)


def _model(vocab, seed=3, float_width=64):
    cfg = ModelConfig(
        vocab_size=len(vocab), d_model=16, n_heads=2, n_enc_layers=1, n_dec_layers=2, d_ff=32,
        dropout=0.0, max_cell_len=6, max_rows=5, max_cols=4, float_width=float_width,
    )
    model = TextToTableModel(cfg, vocab, seed=seed)
    random_bias_tables(model, np.random.default_rng(seed))
    return model


def _mixed(model, records):
    """Examples and instances of one batch: 1-4-row tables with NULL cells,
    permuted passes with and without filled cells, fixed-causal staircases and
    passes with an all-NULL sentinel row below the gold rows."""
    by_rows = {}
    for rec in records:
        by_rows.setdefault(rec.table.n_rows, rec)
    assert sorted(by_rows) == [1, 2, 3, 4]
    with_null = next(r for r in records if any(c is None for row in r.table.rows for c in row))
    rng = np.random.default_rng(11)

    def half_filled(ex, extra):  # the first half of the row-major order is context
        order = row_major_order(ex.n_rows + extra, ex.n_cols)
        return build_training_pass(ex, cut_stages(order, 1 + len(order) // 2), model)

    def sampled(ex, extra):
        return build_training_pass(ex, sample_permutation(ex.n_rows + extra, ex.n_cols, rng), model)

    def staircase(ex, extra):
        return build_training_pass(ex, causal_stages(row_major_order(ex.n_rows + extra, ex.n_cols)), model)

    plan = [(by_rows[n], half_filled, 0) for n in (1, 2, 3, 4)] + [
        (with_null, sampled, 0),
        (by_rows[3], staircase, 0),
        (with_null, staircase, 0),
        (by_rows[2], sampled, 1),  # the sentinel row below the gold rows
        (by_rows[4], staircase, 1),
    ]
    examples = [prepare_example(rec, model.vocab, model.cfg) for rec, _, _ in plan]
    insts = [build(ex, extra) for ex, (_, build, extra) in zip(examples, plan)]
    assert any(NULL in inst.input_ids for inst in insts)
    assert any((inst.stage > 1).any() for inst in insts)
    assert any((inst.stage[~structure(inst.template)] == 0).any() for inst in insts)
    assert len({len(ex.source_ids) for ex in examples}) > 1  # the source texts are ragged too
    return examples, insts


def _loss(logits, batch):
    pos, tgt, legal = batch.flat_loss_arrays()
    return ops.cross_entropy(logits(pos), tgt, smoothing=0.1, legal=legal)


def _packed(model, examples, insts):
    """Token loss, memory rows and hidden rows of the packed stacks."""
    ids, lens = build_source_batch(examples)
    memory = model.encode(ids, lens)
    batch = collate_instances(insts)
    hidden = model.decoder_hidden(model.memory_kv(memory), lens, batch)
    return _loss(lambda pos: model.logits_at(hidden, pos), batch), memory.data, hidden.data, batch


def _padded(model, examples, insts):
    """The same through the padded oracle; memory and hidden states padded."""
    ids, real = padded_model.padded_source_batch(examples)
    memory = padded_model.encode(model, ids, real)
    batch = padded_model.padded_batch(insts)
    hidden = padded_model.decoder_hidden(model, memory, real, batch)
    live = padded_model.live_rows(hidden, batch)
    return _loss(lambda pos: model.logits_at(live, pos), batch), memory.data, hidden.data, real


def _grads(model):
    return {name: None if t.grad is None else t.grad.copy() for name, t in model.params.items()}


def _assert_close_grads(got, want, rel):
    assert got.keys() == want.keys()
    for name in want:
        if want[name] is None:
            assert got[name] is None, name
            continue
        scale = max(np.abs(want[name]).max(), 1e-300)
        assert np.abs(got[name] - want[name]).max() <= rel * scale, name


@pytest.mark.parametrize("float_width", [64, 32])
def test_packed_loss_grads_and_hidden_match_padded_oracle(corpus, float_width):
    records, vocab = corpus
    model = _model(vocab, float_width=float_width)
    rel = REL[float_width]
    examples, insts = _mixed(model, records)
    out = {}
    for name, run in (("packed", _packed), ("padded", _padded)):
        model.params.zero_grad()
        loss, *rest = run(model, examples, insts)
        backward(loss)
        out[name] = (loss.item(), _grads(model), *rest)
    (lp, gp, mp, hp, packed), (lo, go, mo, ho, real) = out["packed"], out["padded"]
    assert lp == pytest.approx(lo, rel=rel, abs=0)
    _assert_close_grads(gp, go, rel)
    assert sum(g is not None and np.abs(g).max() > 0 for g in gp.values()) > 20
    # memory rows are the padded memory at the real source positions, in order
    assert np.abs(mp - mo[real]).max() <= rel * np.abs(mo).max()
    # the packed rows hold the hidden states of their template positions, example after example
    want = np.concatenate([ho[k, rows] for k, rows in enumerate(packed.rows)])
    assert hp.shape == want.shape
    assert np.abs(hp - want).max() <= rel * np.abs(ho).max()


def test_packed_batch_keeps_only_live_positions(corpus):
    records, vocab = corpus
    model = _model(vocab)
    _, insts = _mixed(model, records)
    batch = collate_instances(insts)
    live = [int((~inst.is_pad).sum()) for inst in insts]
    assert batch.length == max(live) < max(inst.length for inst in insts)
    assert batch.input_ids.shape == (len(insts), max(live))
    assert np.array_equal(np.flatnonzero(batch.real), np.concatenate([k * batch.length + np.arange(n) for k, n in enumerate(live)]))
    for k, (inst, rows) in enumerate(zip(insts, batch.rows)):
        assert np.array_equal(rows, np.flatnonzero(~inst.is_pad))  # no slot-PAD row, order kept
        assert np.array_equal(batch.input_ids[k, : len(rows)], inst.input_ids[rows])
        assert (batch.input_ids[k, len(rows) :] == PAD).all()


def test_packed_blocks_hold_each_example_at_its_live_rows(corpus):
    # the visibility and bias-index blocks carry no batch padding: example
    # after example, each its own [n_b, n_b] block, row-major
    records, vocab = corpus
    model = _model(vocab)
    _, insts = _mixed(model, records)
    batch = collate_instances(insts)
    sizes = [len(rows) ** 2 for rows in batch.rows]
    assert len(set(sizes)) > 1  # ragged, so padding to the longest would show in the sizes
    assert batch.allow.dtype == bool and batch.allow.size == batch.bias_idx.shape[1] == sum(sizes)
    assert batch.bias_idx.shape == (4, sum(sizes))
    offsets = np.cumsum([0] + sizes)
    for k, (inst, rows) in enumerate(zip(insts, batch.rows)):
        n, block = len(rows), slice(offsets[k], offsets[k + 1])
        assert np.array_equal(batch.allow[block].reshape(n, n), visibility(inst)[np.ix_(rows, rows)])
        want = inst.template.bias_idx[:, rows[:, None], rows]
        assert np.array_equal(batch.bias_idx[:, block].reshape(4, n, n), want)


def test_packed_loss_positions_carry_their_template_token_and_target(corpus):
    records, vocab = corpus
    model = _model(vocab)
    _, insts = _mixed(model, records)
    batch = collate_instances(insts)
    pos, tgt, _ = batch.flat_loss_arrays()
    n_loss = [len(inst.loss_pos) for inst in insts]
    assert len(pos) == sum(n_loss)
    offsets = np.cumsum([0] + [len(r) for r in batch.rows])
    b = np.searchsorted(offsets, pos, side="right") - 1
    assert np.array_equal(b, np.repeat(np.arange(len(insts)), n_loss))  # each in its own example's rows
    j = pos - offsets[b]
    start = 0
    for k, inst in enumerate(insts):
        n = len(inst.loss_pos)
        sel = slice(start, start + n)
        assert (j[sel] < len(batch.rows[k])).all()
        assert np.array_equal(batch.rows[k][j[sel]], inst.loss_pos)
        assert np.array_equal(batch.input_ids[k, j[sel]], inst.input_ids[inst.loss_pos])
        assert np.array_equal(tgt[sel], inst.loss_targets)
        start += n


def test_cell_logits_report_template_positions(corpus):
    records, vocab = corpus
    model = _model(vocab)
    examples, insts = _mixed(model, records)
    ex, inst = examples[2], insts[2]
    memory, lens = encode_one(model, ex.source_ids)
    pos, logits = cell_logits(model, memory, lens, inst)
    assert np.array_equal(pos, inst.loss_pos)
    ids, real = padded_model.padded_source_batch([ex])
    memory = padded_model.encode(model, ids, real)
    hidden = padded_model.decoder_hidden(model, memory, real, padded_model.padded_batch([inst]))
    want = np.where(inst.legal, model.logits_at(ops.reshape(hidden, hidden.shape[1:]), inst.loss_pos).data, -np.inf)
    finite = np.isfinite(want)
    assert np.array_equal(finite, np.isfinite(logits))
    assert np.abs(logits[finite] - want[finite]).max() <= REL[64] * np.abs(want[finite]).max()


@pytest.mark.parametrize("float_width", [64, 32])
@pytest.mark.parametrize("mode", ["permuted", "fixed-causal", "semi-templated"])
def test_training_step_loss_matches_padded_oracle(corpus, mode, float_width):
    records, vocab = corpus
    model = _model(vocab, float_width=float_width)
    rel = REL[float_width]
    examples = [prepare_example(r, vocab, model.cfg) for r in records[:12]]
    # an empty table runs the decoder as a header-only layout that carries no loss position,
    # or as its sentinel row alone
    empty = DatasetRecord("empty", "nothing was bought today .", Table(list(records[0].table.headers), []))
    batch = examples[:3] + [prepare_example(empty, vocab, model.cfg)] + examples[3:7]
    assert batch[3].n_rows == 0
    trainer = Trainer(model, examples, TrainingConfig(seed=4, batch_size=8, mode=mode))
    out = {}
    for name, loss in (("packed", trainer._batch_loss), ("padded", lambda *a: padded_model.batch_loss(trainer, *a))):
        model.params.zero_grad()
        total, nll, mse = loss(batch, 1, True)
        backward(total)
        out[name] = (total.item(), nll.item(), mse.item(), _grads(model))
    for got, want in zip(out["packed"][:3], out["padded"][:3]):
        assert got == pytest.approx(want, rel=rel, abs=0)
    _assert_close_grads(out["packed"][3], out["padded"][3], rel)
