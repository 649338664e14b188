import numpy as np
import pytest

from conftest import encode_cells, header_ids, random_bias_tables
from text2table.model import (
    LayoutError,
    collate_instances,
    instance_for_pass,
    make_template,
)
from text2table.model.layout import sequence_bucket_matrix
from text2table.numerics import ops
from text2table.table import Table
from text2table.vocab import BOS, EOC, NULL
from util import cell_logits, encode_one, filled_stages, loss_cells, slot_cell_id


def _demo_table():
    return Table(["item", "qty"], [["pens", "3"], ["mugs", "7"]])


def _template(model, table=None, n_rows=None):
    table = table or _demo_table()
    return model.template_for(header_ids(model.vocab, table), n_rows or table.n_rows)


def _full_open_instance(model, table=None, filled=frozenset()):
    table = table or _demo_table()
    tpl = _template(model, table)
    cells = encode_cells(model.vocab, table)
    return tpl, instance_for_pass(tpl, model.vocab, model.grammar, cells, filled_stages(tpl, filled))


# ---------------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------------


def test_encode_single_bos_shape(tiny_model):
    memory = tiny_model.encode([BOS], [1])
    assert memory.shape == (1, tiny_model.cfg.d_model)


def test_encode_rejects_unknown_token_id(tiny_model):
    with pytest.raises(ValueError):
        tiny_model.encode(np.array([10**6]), [1])


def test_encode_rejects_lengths_that_do_not_fit_the_ids(tiny_model):
    too_long = tiny_model.cfg.max_input_len + 1
    for n_ids, lens, message in [
        (5, [2, 0, 3], "empty source text"),
        (too_long, [too_long], "exceeds max_input_len"),
        (5, [2, 2], "does not fit"),  # ids left over
        (5, [3, 3], "does not fit"),  # ids missing
    ]:
        with pytest.raises(ValueError, match=message):
            tiny_model.encode(np.full(n_ids, BOS), lens)


def test_beta_zero_offset_bucket_on_diagonal(tiny_model):
    idx = sequence_bucket_matrix(9, tiny_model.cfg)
    assert (np.diag(idx) == idx[0, 0]).all()
    rng = np.random.default_rng(0)
    random_bias_tables(tiny_model, rng)
    bias = ops.bucket_bias(tiny_model.params["enc_beta"], idx).data
    expect = tiny_model.params["enc_beta"].data[:, idx[0, 0]]
    for h in range(tiny_model.cfg.n_heads):
        assert (bias[h].diagonal() == expect[h]).all()


def test_encode_eval_deterministic(tiny_model, tiny_vocab):
    ids = tiny_vocab.encode("the customer bought 3 pens for 7 dollars .")
    a, _ = encode_one(tiny_model, ids)
    b, _ = encode_one(tiny_model, ids)
    assert np.array_equal(a.data, b.data)


# ---------------------------------------------------------------------------
# decoder bias terms
# ---------------------------------------------------------------------------


def _pair_bias_matrix(model, tpl):
    p = model.params
    return ops.pair_bias(
        p["tab_row"], p["tab_r0"], p["tab_col"], p["tab_loc"], *tpl.bias_idx[:3]
    ).data


def test_local_bias_same_cell_offset(tiny_model):
    rng = np.random.default_rng(1)
    random_bias_tables(tiny_model, rng)
    tpl = _template(tiny_model)
    bias = _pair_bias_matrix(tiny_model, tpl)
    p = tiny_model.params
    l = tpl.slot_len
    start = tpl.slot_start[(1, 1)]
    i, j = start + 2, start  # same cell, serial offset 2
    expect = (
        p["tab_row"].data[:, 0 + tiny_model.cfg.max_rows]
        + p["tab_col"].data[:, 0 + tiny_model.cfg.max_cols]
        + p["tab_loc"].data[:, 2 + l]
    )
    assert np.allclose(bias[:, i, j], expect, atol=0, rtol=0)
    # different cells: no local term
    k = tpl.slot_start[(1, 2)]
    expect_cross = (
        p["tab_row"].data[:, 0 + tiny_model.cfg.max_rows]
        + p["tab_col"].data[:, -1 + tiny_model.cfg.max_cols]
    )
    assert np.allclose(bias[:, i, k], expect_cross, atol=0, rtol=0)


def test_header_key_bias_independent_of_query_row(tiny_model):
    rng = np.random.default_rng(2)
    random_bias_tables(tiny_model, rng)
    tpl = _template(tiny_model)
    bias = _pair_bias_matrix(tiny_model, tpl)
    hdr_positions = np.where(tpl.rows == 0)[0]
    for j in hdr_positions:
        for c in range(1, tpl.n_cols + 1):
            rows_pos = [tpl.slot_start[(r, c)] for r in range(1, tpl.n_rows + 1)]
            vals = bias[:, rows_pos, j]
            assert (vals == vals[:, :1]).all()  # exact equality across query rows
            expect = tiny_model.params["tab_r0"].data + tiny_model.params["tab_col"].data[
                :, c - tpl.cols[j] + tiny_model.cfg.max_cols
            ]
            assert np.allclose(vals[:, 0], expect, atol=0, rtol=0)


def test_same_row_adjacent_column_bias(tiny_model):
    rng = np.random.default_rng(3)
    random_bias_tables(tiny_model, rng)
    tpl = _template(tiny_model)
    bias = _pair_bias_matrix(tiny_model, tpl)
    i = tpl.slot_start[(2, 2)]
    j = tpl.slot_start[(2, 1)]
    expect = (
        tiny_model.params["tab_row"].data[:, tiny_model.cfg.max_rows]
        + tiny_model.params["tab_col"].data[:, 1 + tiny_model.cfg.max_cols]
    )
    assert np.allclose(bias[:, i, j], expect, atol=0, rtol=0)


def test_lambda_zero_across_cells_randomized(tiny_model):
    # L populated, everything else zero: cross-cell bias must be exactly 0
    tiny_model.params["tab_loc"].data[...] = np.random.default_rng(4).normal(
        size=tiny_model.params["tab_loc"].data.shape
    )
    for n_rows in (1, 2, 3):
        tpl = _template(tiny_model, n_rows=n_rows)
        bias = _pair_bias_matrix(tiny_model, tpl)
        cross = tpl.cell_id[:, None] != tpl.cell_id[None, :]
        assert (bias[:, cross] == 0.0).all()


def test_template_rejects_out_of_range_rows(tiny_model):
    with pytest.raises(LayoutError):
        _template(tiny_model, n_rows=tiny_model.cfg.max_rows + 1)


# ---------------------------------------------------------------------------
# visibility mask
# ---------------------------------------------------------------------------


def test_visibility_contract(tiny_model):
    table = _demo_table()
    tpl, inst = _full_open_instance(tiny_model, table, filled={(1, 1), (2, 2)})
    allow = inst.visibility()
    live = ~inst.is_pad
    ctx = inst.stage == 0
    open_mask = live & ~ctx
    for i in np.where(live)[0]:
        for j in np.where(live)[0]:
            if ctx[j]:
                assert allow[i, j] or not live[i]  # context visible to everyone
            if ctx[i]:
                assert allow[i, j] == ctx[j]  # context sees only context
            if open_mask[i] and open_mask[j]:
                same = tpl.cell_id[i] == tpl.cell_id[j]
                causal = tpl.within[j] <= tpl.within[i]
                assert allow[i, j] == (same and causal)
    assert not allow[:, inst.is_pad].any()
    assert not allow[inst.is_pad, :].any()


def test_visibility_open_cells_mutually_blind(tiny_model):
    tpl, inst = _full_open_instance(tiny_model)
    allow = inst.visibility()
    s1 = tpl.slot_start[(1, 1)]
    s2 = tpl.slot_start[(1, 2)]
    block1 = slice(s1, s1 + tpl.slot_len)
    block2 = slice(s2, s2 + tpl.slot_len)
    assert not allow[block1, block2].any()
    assert not allow[block2, block1].any()


# ---------------------------------------------------------------------------
# grammar masking and cell logits
# ---------------------------------------------------------------------------


def test_eoc_logit_minus_inf_before_any_cell_content(tiny_model, tiny_vocab):
    table = _demo_table()
    tpl, inst = _full_open_instance(tiny_model, table)
    memory, lens = encode_one(tiny_model, tiny_vocab.encode("pens and mugs ."))
    pos, logits = cell_logits(tiny_model, memory, lens, inst)
    first = inst.template.within[pos % inst.template.length] == 0
    assert np.isneginf(logits[first][:, EOC]).all()
    # structural ids are never legal inside cells
    assert np.isneginf(logits[:, BOS]).all()
    assert np.isneginf(logits[:, tiny_vocab.row_marker_id(1)]).all()


def test_filled_cells_carry_no_loss_positions(tiny_model):
    table = _demo_table()
    tpl, inst = _full_open_instance(tiny_model, table, filled={(1, 1)})
    filled = slot_cell_id(tpl, (1, 1))
    assert filled not in set(loss_cells(inst).tolist())
    open_cells = {slot_cell_id(tpl, c) for c in tpl.cells()} - {filled}
    assert set(loss_cells(inst).tolist()) == open_cells


def test_open_cell_logits_independent_of_sibling_content(tiny_model, tiny_vocab):
    table = _demo_table()
    tpl = _template(tiny_model, table)
    cells = encode_cells(tiny_vocab, table)
    memory, lens = encode_one(tiny_model, tiny_vocab.encode("pens and mugs ."))

    target = (2, 2)
    stage = filled_stages(tpl, {(1, 1)})
    inst_a = instance_for_pass(tpl, tiny_vocab, tiny_model.grammar, cells, stage)
    mutated = dict(cells)
    mutated[(1, 2)] = [NULL]  # zero out a sibling open cell's gold content
    inst_b = instance_for_pass(tpl, tiny_vocab, tiny_model.grammar, mutated, stage)

    _, la = cell_logits(tiny_model, memory, lens, inst_a, cells=[target])
    _, lb = cell_logits(tiny_model, memory, lens, inst_b, cells=[target])
    assert np.array_equal(la, lb)


def test_null_cell_targets_null_then_eoc(tiny_model, tiny_vocab):
    table = Table(["item", "qty"], [["pens", None]])
    tpl = _template(tiny_model, table)
    cells = encode_cells(tiny_vocab, table)
    inst = instance_for_pass(tpl, tiny_vocab, tiny_model.grammar, cells, filled_stages(tpl, set()))
    rows = loss_cells(inst) == slot_cell_id(tpl, (1, 2))
    assert inst.loss_targets[rows].tolist() == [NULL, EOC]


# ---------------------------------------------------------------------------
# count head and eval determinism
# ---------------------------------------------------------------------------


def test_zero_initialized_count_head_predicts_zero(tiny_model, tiny_vocab):
    memory, lens = encode_one(tiny_model, tiny_vocab.encode("anything at all ."))
    assert tiny_model.count_pred(memory, lens).data.tolist() == [0.0]


def test_decoder_eval_deterministic(tiny_model, tiny_vocab):
    table = _demo_table()
    tpl, inst = _full_open_instance(tiny_model, table)
    memory, lens = encode_one(tiny_model, tiny_vocab.encode("pens and mugs ."))
    batch = collate_instances([inst])
    h1 = tiny_model.decoder_hidden(memory, lens, batch)
    h2 = tiny_model.decoder_hidden(memory, lens, batch)
    assert np.array_equal(h1.data, h2.data)


def test_checkpoint_roundtrip_bit_exact(tiny_model, tmp_path):
    from text2table.model import load_checkpoint, save_checkpoint

    rng = np.random.default_rng(9)
    random_bias_tables(tiny_model, rng)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(str(path), tiny_model, step=3)
    loaded, meta = load_checkpoint(str(path))
    assert meta["step"] == 3
    for name, t in tiny_model.params.items():
        assert np.array_equal(t.data, loaded.params[name].data), name
    assert loaded.vocab == tiny_model.vocab


def test_checkpoint_tamper_detected_by_hash(tiny_model, tmp_path):
    from text2table.model import CheckpointError, load_checkpoint, save_checkpoint

    path = tmp_path / "ckpt.npz"
    save_checkpoint(str(path), tiny_model, step=1)
    with np.load(str(path)) as data:
        arrays = {k: data[k].copy() for k in data.files}
    arrays["param::lm_head"] += 1.0  # tamper while keeping the stored manifest
    tampered = tmp_path / "tampered.npz"
    with open(tampered, "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(CheckpointError) as ei:
        load_checkpoint(str(tampered))
    assert "hash mismatch" in str(ei.value)


def test_checkpoint_truncation_detected(tiny_model, tmp_path):
    from text2table.model import CheckpointError, load_checkpoint, save_checkpoint

    path = tmp_path / "ckpt.npz"
    save_checkpoint(str(path), tiny_model, step=1)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))


def _rewrite_meta(path, edit):
    """Rewrite a checkpoint's metadata in place, leaving the arrays as they are."""
    import json

    with np.load(str(path)) as data:
        arrays = {k: data[k].copy() for k in data.files}
    meta = json.loads(arrays["__meta__"].tobytes().decode("utf-8"))
    edit(meta)
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def test_checkpoint_without_manifest_raises_named_error(tiny_model, tmp_path):
    from text2table.model import CheckpointError, load_checkpoint, save_checkpoint

    path = tmp_path / "ckpt.npz"
    save_checkpoint(str(path), tiny_model, step=1)
    _rewrite_meta(path, lambda meta: meta.pop("manifest"))
    with pytest.raises(CheckpointError) as ei:
        load_checkpoint(str(path))
    assert "manifest" in str(ei.value)


def test_checkpoint_with_invalid_model_config_raises_named_error(tiny_model, tmp_path):
    from text2table.model import CheckpointError, load_checkpoint, save_checkpoint

    path = tmp_path / "ckpt.npz"
    save_checkpoint(str(path), tiny_model, step=1)
    _rewrite_meta(path, lambda meta: meta["model_config"].update(d_model=63, n_heads=4))
    with pytest.raises(CheckpointError) as ei:
        load_checkpoint(str(path))
    assert "invalid model config" in str(ei.value) and "not divisible" in str(ei.value)
