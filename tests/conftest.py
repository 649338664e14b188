import numpy as np
import pytest

from text2table.corpus import CorpusSpec, build_vocab, generate
from text2table.model import ModelConfig, TextToTableModel


@pytest.fixture(scope="session")
def lineitems_records():
    spec = CorpusSpec(task="lineitems", n_examples=60, rows_min=1, rows_max=3, seed=100)
    return list(generate(spec))


@pytest.fixture(scope="session")
def tiny_vocab(lineitems_records):
    return build_vocab(lineitems_records, n_max_rows=4)


def _tiny_model(vocab, **over):
    cfg = ModelConfig(
        vocab_size=len(vocab),
        d_model=16,
        n_heads=2,
        n_enc_layers=1,
        n_dec_layers=1,
        d_ff=32,
        dropout=0.0,
        max_cell_len=4,
        max_rows=4,
        max_cols=4,
        max_input_len=128,
        **over,
    )
    return TextToTableModel(cfg, vocab, seed=1)


@pytest.fixture()
def tiny_model(tiny_vocab):
    """A tiny model at the library's default precision."""
    return _tiny_model(tiny_vocab)


@pytest.fixture()
def tiny_model64(tiny_vocab):
    """The tiny model in float64, for tests that assert float64 exactness."""
    return _tiny_model(tiny_vocab, float_width=64)


def random_bias_tables(model, rng):
    """Fill the zero-initialized bias tables with random values (tests only)."""
    for name in ("tab_row", "tab_r0", "tab_col", "tab_loc", "enc_beta", "dec_beta"):
        t = model.params[name]
        t.data[...] = rng.normal(size=t.data.shape)


def encode_cells(vocab, table):
    """Gold table -> {(row, col): content token ids} in 1-based coordinates."""
    from text2table.model import content_token_ids

    out = {}
    for i, row in enumerate(table.rows, start=1):
        for j, cell in enumerate(row, start=1):
            out[(i, j)] = content_token_ids(vocab, cell)
    return out


def header_ids(vocab, table):
    return [vocab.encode(h) for h in table.headers]
