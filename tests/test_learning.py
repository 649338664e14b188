"""A learning canary: a tiny model trained for 600 steps on 32 records must
fill their tables well. Every equivalence test compares the code with an
oracle written beside it, so a shift both share (in a target or a visibility
rule) passes them all; this test does not.

Each floor sits at least 0.1 below the lowest train-set cell F1 of run seeds
0-4 (permuted 0.967-0.989, fixed-causal 0.748-0.813, semi-templated
0.819-0.863; an untrained model scores 0). The test runs seed 0. A
semi-templated model is decoded as it was trained, growing the template row
by row until the all-NULL sentinel row."""

import dataclasses

import pytest

from text2table.corpus import CorpusSpec, build_vocab, generate
from text2table.decoding import DecodingConfig
from text2table.model import ModelConfig, TextToTableModel
from text2table.training import Trainer, TrainingConfig, prepare_example

STEPS = 600


@pytest.mark.parametrize("mode, floor", [("permuted", 0.85), ("fixed-causal", 0.55), ("semi-templated", 0.7)])
def test_tiny_model_learns_its_training_tables(mode, floor):
    records = list(generate(CorpusSpec(task="lineitems", n_examples=32, rows_min=1, rows_max=2, seed=3)))
    cfg = ModelConfig(vocab_size=0, d_model=32, n_enc_layers=1, n_dec_layers=1, d_ff=64)
    vocab = build_vocab(records, n_max_rows=cfg.max_rows)
    cfg = dataclasses.replace(cfg, vocab_size=len(vocab))
    model = TextToTableModel(cfg, vocab, seed=0)
    examples = [prepare_example(r, vocab, cfg) for r in records]
    tcfg = TrainingConfig(seed=0, steps=STEPS, batch_size=8, lr=3e-3, mode=mode, eval_decode_examples=len(records))
    stopping = "semi-templated" if mode == "semi-templated" else "predicted-count"
    trainer = Trainer(model, examples, tcfg, val_records=records, eval_decoding=DecodingConfig(stopping=stopping))
    trainer.run()
    result = trainer.evaluate(STEPS)
    assert result["cell_f1"] >= floor, result
