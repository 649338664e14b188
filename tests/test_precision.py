"""float32, the library default, from end to end: no op of a training step or
a decode falls back to float64, and a float32 run follows the float64 loss
curve from the same seed."""

import numpy as np
import pytest

from conftest import random_bias_tables
from text2table.decoding import DecodingConfig, decode_table
from text2table.model import ModelConfig, TextToTableModel
from text2table.training import Trainer, TrainingConfig, prepare_example
from util import record_op_dtypes

# Largest relative gap per step between the float32 and float64 loss curves
# of the test below. Measured over seeds 0-9 (20 steps, lr 1e-3 and 1e-2):
# at most 1.3e-7 on the total loss and 2.5e-7 on the token NLL.
CURVE_REL_TOL = 2e-6


def test_float32_step_and_decode_create_no_float64_array(tiny_model, lineitems_records, monkeypatch):
    model = tiny_model
    assert model.cfg.float_width == 32  # the library default
    random_bias_tables(model, np.random.default_rng(2))
    examples = [prepare_example(r, model.vocab, model.cfg) for r in lineitems_records[:8]]
    trainer = Trainer(model, examples, TrainingConfig(seed=1, steps=1, batch_size=4, label_smoothing=0.1))
    seen = record_op_dtypes(monkeypatch)
    trainer.training_step(1)
    kinds = {kind for kind, _, _ in seen}
    assert kinds == {"forward", "vjp"} and {"cross_entropy", "attention", "pair_bias"} <= {op for _, op, _ in seen}
    assert [s for s in seen if s[2] != np.float32] == []
    for name, t in model.params.items():
        assert t.data.dtype == t.grad.dtype == trainer.opt.m[name].dtype == trainer.opt.v[name].dtype == np.float32

    seen.clear()
    model.params["count.b"].data[...] = [2.0]
    res = decode_table(lineitems_records[0].text, model, DecodingConfig(k=1), lineitems_records[0].table.headers)
    assert res.decoder_passes > 0 and seen
    assert [s for s in seen if s[2] != np.float32] == []


def _curve(vocab, records, float_width, seed):
    cfg = ModelConfig(
        vocab_size=len(vocab), d_model=16, n_heads=2, n_enc_layers=1, n_dec_layers=1, d_ff=32,
        max_cell_len=4, max_rows=4, max_cols=4, float_width=float_width,
    )
    model = TextToTableModel(cfg, vocab, seed=seed)
    trainer = Trainer(
        model, [prepare_example(r, vocab, cfg) for r in records], TrainingConfig(seed=seed, steps=20, batch_size=4)
    )
    stats = [trainer.training_step(s) for s in range(1, 21)]
    return np.array([s.total for s in stats]), np.array([s.nll for s in stats])


@pytest.mark.parametrize("seed", [0, 3])
def test_float32_loss_curve_follows_float64(tiny_vocab, lineitems_records, seed):
    # dropout on, same seed: same initial weights (float32 rounds float64's),
    # batches, cell orders and dropout masks
    (total32, nll32), (total64, nll64) = (_curve(tiny_vocab, lineitems_records[:16], w, seed) for w in (32, 64))
    assert not np.array_equal(total32, total64)  # the two widths really differ
    assert total32 == pytest.approx(total64, rel=CURVE_REL_TOL, abs=0)
    assert nll32 == pytest.approx(nll64, rel=CURVE_REL_TOL, abs=0)
