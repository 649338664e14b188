"""A learning canary: a tiny model trained for 600 steps on 32 records must
fill their tables well. Every equivalence test compares the code with an
oracle written beside it, so a shift both share (in a target or a visibility
rule) passes them all; this test does not.

Each floor sits at least 0.1 below the lowest train-set cell F1 of run seeds
0-4 (permuted 0.967-0.989, fixed-causal 0.748-0.813; an untrained model
scores 0). The test runs seed 0.

Semi-templated training is not covered, and the permuted run does not stand
for it. That mode lays out each table's gold rows plus the all-NULL sentinel
row, and every cell sees every row marker, so the model learns that the
template's last row is the sentinel. Its decoder grows the template one row
at a time, so the row it decodes is always the last: it comes out all-NULL
and ends every table at 0 rows, a cell F1 of 0 at every seed tried. No floor
holds for the mode until its training passes match the template its decoder
sees."""

import dataclasses

import pytest

from text2table.corpus import CorpusSpec, build_vocab, generate
from text2table.model import ModelConfig, TextToTableModel
from text2table.training import Trainer, TrainingConfig, prepare_example

STEPS = 600


@pytest.mark.parametrize("mode, floor", [("permuted", 0.85), ("fixed-causal", 0.55)])
def test_tiny_model_learns_its_training_tables(mode, floor):
    records = list(generate(CorpusSpec(task="lineitems", n_examples=32, rows_min=1, rows_max=2, seed=3)))
    cfg = ModelConfig(vocab_size=0, d_model=32, n_enc_layers=1, n_dec_layers=1, d_ff=64)
    vocab = build_vocab(records, n_max_rows=cfg.max_rows)
    cfg = dataclasses.replace(cfg, vocab_size=len(vocab))
    model = TextToTableModel(cfg, vocab, seed=0)
    examples = [prepare_example(r, vocab, cfg, mode) for r in records]
    tcfg = TrainingConfig(seed=0, steps=STEPS, batch_size=8, lr=3e-3, mode=mode, eval_decode_examples=len(records))
    trainer = Trainer(model, examples, tcfg, val_records=records)
    trainer.run()
    result = trainer.evaluate(STEPS)
    assert result["cell_f1"] >= floor, result
