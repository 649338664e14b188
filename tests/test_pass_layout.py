"""Training layouts from a per-example PassLayout against the per-step builders
they replace: every pass of a training batch, collated, must equal bitwise
what ``layout_oracle`` builds from whole layouts, cell by cell, at each step."""

from dataclasses import replace

import numpy as np
import pytest

import layout_oracle
from conftest import _tiny_model
from text2table.corpus import DatasetRecord
from text2table.model import LayoutError, PassLayout, TextToTableModel, collate_instances
from text2table.model.layout import row_major_order
from text2table.table import Table
from text2table.training import Trainer, TrainingConfig, build_training_pass, causal_stages, prepare_example
from text2table.training.loop import STREAM_PLAN, step_rng
from text2table.training.passes import sample_permutation
from text2table.vocab import NULL
from util import cut_stages


def _semi_templated_stages(ex, rng):
    """Rows 1..r - 1 in context, then row r's order and cut: the draws of r,
    the order and the cut, in that order."""
    r = int(rng.integers(1, ex.n_rows + 2))
    order = [(r, 1 + int(j)) for j in rng.permutation(ex.n_cols)]
    cut = int(rng.integers(1, ex.n_cols + 1))
    return {**dict.fromkeys(row_major_order(r - 1, ex.n_cols), 0), **cut_stages(order, cut)}


def _stages(mode, seed, step, batch):
    """The stage maps ``Trainer._instances_for`` draws for ``batch`` at ``step``."""
    if mode == "fixed-causal":
        return [causal_stages(row_major_order(ex.n_rows, ex.n_cols)) for ex in batch]
    rngs = [step_rng(seed, step, STREAM_PLAN, (slot,)) for slot in range(len(batch))]
    if mode == "semi-templated":
        return [_semi_templated_stages(ex, rng) for ex, rng in zip(batch, rngs)]
    return [sample_permutation(ex.n_rows, ex.n_cols, rng) for ex, rng in zip(batch, rngs)]


def _oracle_pass(model, ex, stage):
    """The oracle's pass over the rows of ``stage``'s cells, every cell past
    the gold rows NULL."""
    tpl = model.template_for(ex.header_ids, max((i for i, _ in stage), default=0))
    contents = {c: ex.cell_ids.get(c, [NULL]) for c in tpl.cells}
    return layout_oracle.instance_for_pass(tpl, model.grammar, contents, stage)


def _assert_batch_equals_oracle(model, batch, stages, insts):
    oracle = [_oracle_pass(model, ex, stage) for ex, stage in zip(batch, stages)]
    for got, want in zip(insts, oracle):
        for name in ("input_ids", "is_pad", "stage", "loss_pos", "loss_targets", "legal"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
    dec = collate_instances(insts)
    ids, rows, allow, bias_idx, pos, tgt, legal = layout_oracle.collate(oracle)
    assert np.array_equal(dec.input_ids, ids) and dec.input_ids.dtype == ids.dtype
    assert all(np.array_equal(a, b) for a, b in zip(dec.rows, rows, strict=True))
    assert np.array_equal(dec.allow, allow) and dec.allow.dtype == bool
    assert dec.bias_idx.shape == bias_idx.shape and np.array_equal(dec.bias_idx, bias_idx)
    assert dec.bias_idx.dtype == np.int8  # every map of these configs fits a byte
    got = dec.flat_loss_arrays()
    for a, b in zip(got, (pos, tgt, legal), strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _empty(model, rid="empty"):
    rec = DatasetRecord(rid, "nothing was bought today .", Table(["item", "qty"], []))
    return prepare_example(rec, model.vocab, model.cfg)


@pytest.mark.parametrize("mode", ["permuted", "fixed-causal", "semi-templated"])
def test_cached_passes_equal_the_per_step_builders_bitwise(tiny_vocab, lineitems_records, mode):
    model = _tiny_model(tiny_vocab)
    examples = [prepare_example(r, tiny_vocab, model.cfg) for r in lineitems_records[:12]]
    examples.insert(3, _empty(model))  # no rows: headers only, or the sentinel row alone
    tr = Trainer(model, examples, TrainingConfig(seed=4, batch_size=len(examples), mode=mode))
    assert all(ex.n_rows == len(r.table.rows) for ex, r in zip(examples[4:], lineitems_records[3:12]))
    for step in (1, 2, 3):  # the layouts built at step 1 serve steps 2 and 3
        insts = tr._instances_for(examples, step)
        _assert_batch_equals_oracle(model, examples, _stages(mode, 4, step, examples), insts)
    assert all(inst.live is ex.layouts[inst.template.n_rows].live for inst, ex in zip(insts, examples))
    assert (len(insts[3].loss_pos) == 0) == (mode != "semi-templated")


def test_an_example_shared_by_two_models_reads_only_its_own_templates_layout(tiny_vocab, lineitems_records):
    narrow = _tiny_model(tiny_vocab)
    wide = TextToTableModel(replace(narrow.cfg, max_cell_len=6), tiny_vocab, seed=1)
    ex = prepare_example(lineitems_records[0], tiny_vocab, narrow.cfg)  # its cells fit both slot widths
    rng = np.random.default_rng(3)
    for model in (narrow, wide, narrow, narrow, wide):
        stage = sample_permutation(ex.n_rows, ex.n_cols, rng)
        layout = ex.layouts.get(ex.n_rows)
        inst = build_training_pass(ex, stage, model)
        tpl = model.template_for(ex.header_ids, ex.n_rows)
        assert ex.layouts[ex.n_rows].template is tpl and inst.template is tpl
        assert (ex.layouts[ex.n_rows] is layout) == (layout is not None and layout.template is tpl)  # rebuilt only on a switch
        _assert_batch_equals_oracle(model, [ex], [stage], [inst])


def test_pass_layout_refuses_bad_stage_maps_and_keeps_its_arrays_read_only(tiny_model, lineitems_records):
    ex = prepare_example(lineitems_records[0], tiny_model.vocab, tiny_model.cfg)
    tpl = tiny_model.template_for(ex.header_ids, ex.n_rows)
    layout = PassLayout.build(tpl, tiny_model.grammar, ex.cell_ids)
    stage = causal_stages(tpl.cells)
    extra, short = {**stage, (9, 9): 1}, dict(list(stage.items())[1:])
    swapped = {**short, (9, 9): 1}  # as many keys as cells, one of them foreign
    for bad in (extra, short, swapped):
        with pytest.raises(LayoutError, match="stage keys"):
            layout.instance(bad)
    inst = layout.instance(stage)
    with pytest.raises(ValueError, match="read-only"):
        inst.input_ids[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        inst.live.bias_idx[0, 0] = 0
