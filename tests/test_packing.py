"""Packed training batches against the padded layout they replace.

``padded_batch`` is the reference: the batch over every template position
(slot padding included), padded to the longest template, as the decoder was
fed before packing. Both batches run through the same ``decoder_hidden``; in
float64 with dropout off the losses, gradients and hidden states must agree
to rounding, since packing only drops positions the visibility mask hides.
"""

import numpy as np
import pytest

from conftest import random_bias_tables
from text2table.corpus import CorpusSpec, build_vocab, generate
from text2table.model import (
    DecoderBatch,
    ModelConfig,
    TextToTableModel,
    collate_instances,
)
from text2table.model.layout import sequence_bucket_matrix
from text2table.numerics import backward, ops
from text2table.training import (
    PermutationPlan,
    Trainer,
    TrainingConfig,
    build_fixed_causal_pass,
    build_source_batch,
    build_training_pass,
    prepare_example,
    row_major_order,
    sample_permutation,
)
from text2table.training import loop
from text2table.vocab import NULL, PAD

REL = 1e-12


def padded_batch(instances, cfg) -> DecoderBatch:
    """Every template position of each instance, batch-padded to the longest."""
    b, t_max = len(instances), max(inst.length for inst in instances)
    ids = np.full((b, t_max), PAD, dtype=np.int64)
    allow = np.zeros((b, 1, t_max, t_max), dtype=bool)
    maps = (
        np.zeros((b, t_max, t_max), dtype=np.int64),
        np.zeros((b, t_max, t_max), dtype=np.int64),
        np.full((b, t_max, t_max), -1, dtype=np.int64),
        np.zeros((b, t_max, t_max), dtype=np.int64),
    )
    for k, inst in enumerate(instances):
        tpl, t = inst.template, inst.length
        ids[k, :t] = inst.input_ids
        allow[k, 0, :t, :t] = inst.visibility()
        full = (tpl.row_idx, tpl.col_idx, tpl.loc_idx, sequence_bucket_matrix(t, cfg))
        for m, src in zip(maps, full):
            m[k, :t, :t] = src
    rows = [np.arange(inst.length, dtype=np.int64) for inst in instances]
    return DecoderBatch(ids, allow, rows, list(instances), maps)


@pytest.fixture(scope="module")
def corpus():
    spec = CorpusSpec(task="lineitems", n_examples=40, rows_min=1, rows_max=4, null_rate=0.3, seed=7)
    records = list(generate(spec))
    return records, build_vocab(records, n_max_rows=5)


def _model(vocab, seed=3):
    cfg = ModelConfig(
        vocab_size=len(vocab), d_model=16, n_heads=2, n_enc_layers=1, n_dec_layers=2, d_ff=32,
        dropout=0.0, max_cell_len=6, max_rows=5, max_cols=4,
    )
    model = TextToTableModel(cfg, vocab, seed=seed)
    random_bias_tables(model, np.random.default_rng(seed))
    return model


def _mixed(model, records):
    """Examples and instances of one batch: 1-4-row tables with NULL cells,
    permuted passes with and without filled cells, fixed-causal staircases and
    semi-templated tables with their all-NULL sentinel row."""
    by_rows = {}
    for rec in records:
        by_rows.setdefault(rec.table.n_rows, rec)
    assert sorted(by_rows) == [1, 2, 3, 4]
    with_null = next(r for r in records if any(c is None for row in r.table.rows for c in row))
    rng = np.random.default_rng(11)

    def half_filled(ex):  # the first half of the row-major order is context
        order = row_major_order(ex.n_rows, ex.n_cols)
        return build_training_pass(ex, PermutationPlan(order, 1 + len(order) // 2), model)

    def sampled(ex):
        return build_training_pass(ex, sample_permutation(ex.n_rows, ex.n_cols, rng), model)

    def staircase(ex):
        return build_fixed_causal_pass(ex, model)

    plan = [(by_rows[n], "permuted", half_filled) for n in (1, 2, 3, 4)] + [
        (with_null, "permuted", sampled),
        (by_rows[3], "permuted", staircase),
        (with_null, "permuted", staircase),
        (by_rows[2], "semi-templated", sampled),
        (by_rows[4], "semi-templated", staircase),
    ]
    examples = [prepare_example(rec, model.vocab, model.cfg, mode) for rec, mode, _ in plan]
    insts = [build(ex) for ex, (_, _, build) in zip(examples, plan)]
    assert any(NULL in inst.input_ids for inst in insts)
    assert any(inst.rank.any() for inst in insts)
    assert any(inst.is_ctx[~inst.template.is_struct].any() for inst in insts)
    return examples, insts


def _loss(model, examples, batch):
    """Token loss of the training objective over one decoder batch."""
    ids, real = build_source_batch(examples)
    memory = model.encode(ids, real)
    hidden = model.decoder_hidden(memory, real, batch)
    pos, tgt, _, legal, _ = batch.flat_loss_arrays()
    return ops.cross_entropy(model.logits_at(hidden, pos), tgt, smoothing=0.1, legal=legal), hidden


def _grads(model):
    return {name: None if t.grad is None else t.grad.copy() for name, t in model.params.items()}


def _assert_close_grads(got, want):
    assert got.keys() == want.keys()
    for name in want:
        if want[name] is None:
            assert got[name] is None, name
            continue
        scale = max(np.abs(want[name]).max(), 1e-300)
        assert np.abs(got[name] - want[name]).max() <= REL * scale, name


def test_packed_loss_grads_and_hidden_match_padded_oracle(corpus):
    records, vocab = corpus
    model = _model(vocab)
    examples, insts = _mixed(model, records)
    results = {}
    for name, collate in (("packed", collate_instances), ("padded", padded_batch)):
        batch = collate(insts, model.cfg)
        model.params.zero_grad()
        loss, hidden = _loss(model, examples, batch)
        backward(loss)
        results[name] = (loss.item(), _grads(model), hidden.data, batch)
    (lp, gp, hp, packed), (lo, go, ho, _) = results["packed"], results["padded"]
    assert lp == pytest.approx(lo, rel=REL, abs=0)
    _assert_close_grads(gp, go)
    assert sum(g is not None and np.abs(g).max() > 0 for g in gp.values()) > 20
    # every packed row holds the hidden state of its template position
    for k, rows in enumerate(packed.rows):
        assert np.abs(hp[k, : len(rows)] - ho[k, rows]).max() <= REL * np.abs(ho).max()


def test_packed_batch_keeps_only_live_positions(corpus):
    records, vocab = corpus
    model = _model(vocab)
    _, insts = _mixed(model, records)
    batch = collate_instances(insts, model.cfg)
    live = [int((~inst.is_pad).sum()) for inst in insts]
    assert batch.length == max(live) < max(inst.length for inst in insts)
    assert batch.input_ids.shape == (len(insts), max(live))
    for k, (inst, rows) in enumerate(zip(insts, batch.rows)):
        assert np.array_equal(rows, np.flatnonzero(~inst.is_pad))  # no slot-PAD row, order kept
        assert np.array_equal(batch.input_ids[k, : len(rows)], inst.input_ids[rows])
        assert (batch.input_ids[k, len(rows) :] == PAD).all()
        assert not batch.allow[k, 0, len(rows) :].any() and not batch.allow[k, 0, :, len(rows) :].any()
        want = inst.visibility()[np.ix_(rows, rows)]
        assert np.array_equal(batch.allow[k, 0, : len(rows), : len(rows)], want)


def test_packed_loss_positions_carry_their_template_token_and_target(corpus):
    records, vocab = corpus
    model = _model(vocab)
    _, insts = _mixed(model, records)
    batch = collate_instances(insts, model.cfg)
    pos, tgt, cell, _, example = batch.flat_loss_arrays()
    assert len(pos) == sum(len(inst.loss_pos) for inst in insts)
    b, j = np.divmod(pos, batch.length)
    assert np.array_equal(b, example)
    start = 0
    for k, inst in enumerate(insts):
        n = len(inst.loss_pos)
        sel = slice(start, start + n)
        assert (j[sel] < len(batch.rows[k])).all()
        assert np.array_equal(batch.rows[k][j[sel]], inst.loss_pos)
        assert np.array_equal(batch.input_ids[k, j[sel]], inst.input_ids[inst.loss_pos])
        assert np.array_equal(tgt[sel], inst.loss_targets)
        assert np.array_equal(cell[sel], inst.loss_cell)
        start += n


def test_cell_logits_report_template_positions(corpus):
    records, vocab = corpus
    model = _model(vocab)
    examples, insts = _mixed(model, records)
    ex, inst = examples[2], insts[2]
    memory, real = model.encode_source(ex.source_ids)
    pos, logits = model.cell_logits(memory, real, inst)
    assert np.array_equal(pos, inst.loss_pos)
    hidden = model.decoder_hidden(memory, real, padded_batch([inst], model.cfg))
    want = np.where(inst.legal, model.logits_at(hidden, inst.loss_pos).data, -np.inf)
    finite = np.isfinite(want)
    assert np.array_equal(finite, np.isfinite(logits))
    assert np.abs(logits[finite] - want[finite]).max() <= REL * np.abs(want[finite]).max()


@pytest.mark.parametrize("mode", ["permuted", "fixed-causal", "semi-templated"])
def test_training_step_loss_matches_padded_oracle(corpus, monkeypatch, mode):
    records, vocab = corpus
    model = _model(vocab)
    examples = [prepare_example(r, vocab, model.cfg, mode) for r in records[:12]]
    trainer = Trainer(model, examples, TrainingConfig(seed=4, batch_size=8, mode=mode))
    batch = examples[:8]
    out = {}
    for name, collate in (("packed", collate_instances), ("padded", padded_batch)):
        monkeypatch.setattr(loop, "collate_instances", collate)
        model.params.zero_grad()
        total, nll, mse = trainer._batch_loss(batch, 1, train=True)
        backward(total)
        out[name] = (total.item(), nll.item(), _grads(model))
    assert out["packed"][0] == pytest.approx(out["padded"][0], rel=REL, abs=0)
    assert out["packed"][1] == pytest.approx(out["padded"][1], rel=REL, abs=0)
    _assert_close_grads(out["packed"][2], out["padded"][2])
