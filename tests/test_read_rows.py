"""The last decoder layer runs its queries on the read rows alone.

``decoder_hidden(..., read=rows)`` must give what the full stack gives at
those rows: ``take_rows`` of the hidden states of every row. Every row is
still a key and value, so the layers below the last and the last layer's key
and value projections see every row; from there on only the read rows run.
In float64 with dropout off the two paths differ by rounding alone (about
1e-15 here), in the hidden rows, the loss and every parameter gradient.
"""

import numpy as np
import pytest

from conftest import random_bias_tables
from text2table.corpus import CorpusSpec, DatasetRecord, build_vocab, generate
from text2table.decoding import ModelCellSource
from text2table.model import ModelConfig, TextToTableModel, collate_instances, instance_for_decoding
from text2table.numerics import backward, no_grad, ops
from text2table.table import Table
from text2table.training import Trainer, TrainingConfig, build_source_batch, prepare_example
from util import encode_one

REL = 1e-12


@pytest.fixture(scope="module")
def corpus():
    spec = CorpusSpec(task="lineitems", n_examples=40, rows_min=1, rows_max=4, null_rate=0.3, seed=7)
    records = list(generate(spec))
    return records, build_vocab(records, n_max_rows=5)


def _model(vocab, seed=3):
    cfg = ModelConfig(
        vocab_size=len(vocab), d_model=16, n_heads=2, n_enc_layers=1, n_dec_layers=2, d_ff=32,
        dropout=0.0, max_cell_len=6, max_rows=5, max_cols=4, float_width=64,
    )
    model = TextToTableModel(cfg, vocab, seed=seed)
    random_bias_tables(model, np.random.default_rng(seed))
    return model


def _trainer_batch(model, records, mode):
    """A trainer in ``mode`` and a batch of 7 examples, the 4th an empty table
    whose header-only layout carries no loss position, so no read row (but
    for its sentinel row in semi-templated mode)."""
    vocab, cfg = model.vocab, model.cfg
    examples = [prepare_example(r, vocab, cfg) for r in records[:6]]
    empty = DatasetRecord("empty", "nothing was bought today .", Table(list(records[0].table.headers), []))
    batch = examples[:3] + [prepare_example(empty, vocab, cfg)] + examples[3:]
    return Trainer(model, examples, TrainingConfig(seed=4, mode=mode)), batch


def _collated(trainer, batch):
    ids, lens = build_source_batch(batch)
    return ids, lens, collate_instances(trainer._instances_for(batch, 1))


def _loss_hidden_grads(model, ids, lens, dec, trimmed):
    """Token loss, hidden rows at the loss positions and every parameter
    gradient: the trimmed stack, or the full stack and ``take_rows``."""
    model.params.zero_grad()
    memory = model.encode(ids, lens)
    pos, tgt, legal = dec.flat_loss_arrays()
    if trimmed:
        hidden, at = model.decoder_hidden(model.memory_kv(memory), lens, dec, read=pos), np.arange(len(pos))
    else:
        hidden, at = model.decoder_hidden(model.memory_kv(memory), lens, dec), pos
    loss = ops.cross_entropy(model.logits_at(hidden, at), tgt, smoothing=0.1, legal=legal)
    backward(loss)
    grads = {name: None if t.grad is None else t.grad.copy() for name, t in model.params.items()}
    return loss.item(), ops.take_rows(hidden, at).data, grads


@pytest.mark.parametrize("mode", ["permuted", "fixed-causal"])
def test_trimmed_stack_matches_full_stack_at_the_read_rows(corpus, mode):
    records, vocab = corpus
    model = _model(vocab)
    ids, lens, dec = _collated(*_trainer_batch(model, records, mode))
    pos = dec.flat_loss_arrays()[0]
    assert 0 < len(pos) < len(dec.rows) * dec.length and sum(map(len, dec.rows)) > len(pos)
    lt, ht, gt = _loss_hidden_grads(model, ids, lens, dec, trimmed=True)
    lf, hf, gf = _loss_hidden_grads(model, ids, lens, dec, trimmed=False)
    assert ht.shape == hf.shape == (len(pos), model.cfg.d_model)
    assert np.abs(ht - hf).max() <= REL * np.abs(hf).max()
    assert lt == pytest.approx(lf, rel=REL, abs=0)
    assert gt.keys() == gf.keys()
    for name in gf:
        if gf[name] is None:
            assert gt[name] is None, name
            continue
        assert np.abs(gt[name] - gf[name]).max() <= REL * max(np.abs(gf[name]).max(), 1e-300), name
    assert sum(g is not None and np.abs(g).max() > 0 for g in gt.values()) > 20


def test_an_example_with_no_read_row_gives_no_output_row(corpus):
    records, vocab = corpus
    model = _model(vocab)
    ids, lens, dec = _collated(*_trainer_batch(model, records, "permuted"))
    starts = np.cumsum([0] + [len(r) for r in dec.rows])
    pos = dec.flat_loss_arrays()[0]
    assert not ((pos >= starts[3]) & (pos < starts[4])).any()  # the empty table reads nothing
    with no_grad():
        memory_kv = model.memory_kv(model.encode(ids, lens))
        full = model.decoder_hidden(memory_kv, lens, dec).data
        for read in (pos, np.r_[starts[0] : starts[1], starts[2] : starts[3]], pos[:0]):
            got = model.decoder_hidden(memory_kv, lens, dec, read=read).data
            assert got.shape == (len(read), model.cfg.d_model)
            assert np.abs(got - full[read]).max(initial=0) <= REL * np.abs(full).max()
        for bad in (pos[::-1], np.r_[pos, pos[-1]], np.r_[-1, pos], np.r_[pos, starts[-1]]):
            with pytest.raises(ValueError, match="read rows"):
                model.decoder_hidden(memory_kv, lens, dec, read=bad)


def _probe(monkeypatch, model):
    """Row counts of every matmul into the first and the last decoder layer's
    ``ffn.w1``, one entry per call."""
    first, last = model.params["dec0.ffn.w1"], model.params[f"dec{model.cfg.n_dec_layers - 1}.ffn.w1"]
    seen = {"first": [], "last": []}
    matmul = ops.matmul

    def probe(a, b):
        for key, w in (("first", first), ("last", last)):
            if b is w:
                seen[key].append(a.shape[0])
        return matmul(a, b)

    monkeypatch.setattr(ops, "matmul", probe)
    return seen


def test_training_runs_the_last_layer_ffn_on_the_loss_rows_alone(corpus, monkeypatch):
    records, vocab = corpus
    model = _model(vocab)
    trainer, batch = _trainer_batch(model, records, "permuted")
    dec = collate_instances(trainer._instances_for(batch, 1))
    seen = _probe(monkeypatch, model)
    trainer._batch_loss(batch, 1, train=True)
    assert seen == {"first": [sum(map(len, dec.rows))], "last": [len(dec.flat_loss_arrays()[0])]}


def _context_rows(tpl, committed):
    """Number of live stage-0 positions of a decode layout: the rows a first
    pass runs before the open ones."""
    inst = instance_for_decoding(tpl, committed)
    return int(((inst.stage == 0) & ~inst.is_pad).sum())


def test_a_first_decode_pass_runs_the_last_layer_ffn_on_the_open_rows_alone(corpus, monkeypatch):
    records, vocab = corpus
    model = _model(vocab)
    ex = prepare_example(records[5], vocab, model.cfg)
    tpl = model.template_for(ex.header_ids, ex.n_rows)
    committed = {(1, 1): vocab.encode("pens")}
    cells = [c for c in tpl.cells if c not in committed]
    with no_grad():
        memory, lens = encode_one(model, ex.source_ids)
        source = ModelCellSource(model, model.memory_kv(memory), lens, tpl)
    seen = _probe(monkeypatch, model)
    source.candidates(committed, cells)
    assert len(seen["first"]) == len(seen["last"]) == source.passes > 1
    # the first pass: the context, then one BOS row per open cell, the only rows read
    assert seen["first"][0] == _context_rows(tpl, committed) + len(cells) and seen["last"][0] == len(cells)
    assert seen["first"][1:] == seen["last"][1:]  # a later pass reads every row it runs
    # the next inner loop's first pass reads each open cell's BOS and draft rows, not the context
    committed[cells[0]] = vocab.encode("mugs")
    seen["first"].clear(), seen["last"].clear()
    source.candidates(committed, cells[1:])
    assert seen["first"][0] - seen["last"][0] == _context_rows(tpl, committed)
    assert seen["last"][0] > len(cells) - 1  # draft rows besides the BOS rows


def test_a_trimmed_first_pass_matches_the_untrimmed_one_and_stores_the_same_keys(corpus):
    records, vocab = corpus
    model = _model(vocab)
    ex = prepare_example(records[5], vocab, model.cfg)
    tpl = model.template_for(ex.header_ids, ex.n_rows)
    committed = {(1, 1): vocab.encode("pens"), (ex.n_rows, 2): vocab.encode("2")}
    inst = instance_for_decoding(tpl, committed)
    context = (inst.stage == 0) & ~inst.is_pad
    heads = np.array([tpl.slot_start[c] for c in tpl.cells if c not in committed])
    rows = np.concatenate([np.flatnonzero(context), heads])
    read = np.arange(len(rows) - len(heads), len(rows))
    with no_grad():
        memory, lens = encode_one(model, ex.source_ids)
        memory_kv = model.memory_kv(memory)
        out = []
        for r in (None, read):
            cache = model.decoder_cache(tpl).visible(context)
            hidden = model.decoder_hidden(memory_kv, lens, collate_instances([inst], rows), cache=cache, read=r)
            out.append((hidden.data, cache))
    (full, full_cache), (got, got_cache) = out
    assert got.shape == (len(heads), model.cfg.d_model)
    assert np.abs(got - full[read]).max() <= REL * np.abs(full).max()
    for a, b in zip(got_cache.keys + got_cache.values, full_cache.keys + full_cache.values):
        assert np.array_equal(a, b)


def test_logits_at_every_row_in_order_gathers_nothing(corpus, monkeypatch):
    # the training loss reads its hidden state as it is: the read rows already
    # are the loss rows, in order; any other selection still gathers
    records, vocab = corpus
    model = _model(vocab)
    trainer, batch = _trainer_batch(model, records, "permuted")
    ids, lens, dec = _collated(trainer, batch)
    pos = dec.flat_loss_arrays()[0]
    hidden = model.decoder_hidden(model.memory_kv(model.encode(ids, lens)), lens, dec, read=pos)
    gathered, take_rows = [], ops.take_rows
    monkeypatch.setattr(ops, "take_rows", lambda a, idx: gathered.append(len(idx)) or take_rows(a, idx))
    every = model.logits_at(hidden, np.arange(len(pos)))
    assert gathered == []
    assert np.array_equal(every.data, ops.matmul(hidden, model.params["lm_head"]).data)
    some = model.logits_at(hidden, np.arange(1, len(pos)))
    assert gathered == [len(pos) - 1] and np.array_equal(some.data, every.data[1:])
    swapped = np.r_[1, 0, 2 : len(pos)]
    assert np.array_equal(model.logits_at(hidden, swapped).data, every.data[swapped])
    assert gathered == [len(pos) - 1, len(pos)]
    calls, logits_at = [], model.logits_at

    def spy(h, positions):  # gathers made inside logits_at
        before = len(gathered)
        out = logits_at(h, positions)
        calls.append(gathered[before:])
        return out

    monkeypatch.setattr(model, "logits_at", spy)
    trainer._batch_loss(batch, 1, train=True)
    assert calls == [[]]
