import collections
import itertools
import math

import numpy as np
import pytest

from conftest import random_bias_tables
from estimator import (
    exact_expected_nll,
    exact_expected_nll_by_orderings,
    instance_cell_nll,
    mc_expected_nll,
    mean_pass_loss_over_all_pairs,
    pass_cell_nll,
)
from text2table.corpus import CorpusSpec, DatasetRecord, generate
from text2table.fields import from_fields
from text2table.model import LayoutError
from text2table.model.layout import row_major_order
from text2table.table import Table
from text2table.training import (
    Trainer,
    TrainingConfig,
    TrainingDiverged,
    build_training_pass,
    causal_stages,
    prepare_example,
    sample_permutation,
    step_rng,
)
from text2table.numerics import backward
from text2table.vocab import BOS, EOC, NULL, PAD
from util import cut_stages, loss_cells, slot_cell_id, structure, visibility


# ---------------------------------------------------------------------------
# stage maps
# ---------------------------------------------------------------------------


def test_one_by_one_map_is_one_open_cell():
    assert sample_permutation(1, 1, np.random.default_rng(0)) == {(1, 1): 1}


def test_sampled_stages_are_pinned():
    # the draws, and their order, decide every permuted training pass
    assert sample_permutation(2, 2, np.random.default_rng(0)) == {(2, 1): 0, (1, 1): 1, (1, 2): 1, (2, 2): 1}
    stage = sample_permutation(3, 4, np.random.default_rng(1))
    assert {c for c, s in stage.items() if not s} == {(3, 1), (3, 4), (2, 1)}
    assert sorted(stage) == row_major_order(3, 4) and set(stage.values()) == {0, 1}


def test_sampled_stages_cut_the_drawn_order():
    # an order over the row-major cells, then a cut in [1, C], from the same generator
    for seed in range(20):
        rng = np.random.default_rng(seed)
        cells = row_major_order(2, 3)
        order = [cells[i] for i in rng.permutation(6)]
        cut = int(rng.integers(1, 7))
        assert sample_permutation(2, 3, np.random.default_rng(seed)) == cut_stages(order, cut)


def test_two_cell_stage_maps_follow_the_uniform_order_and_cut():
    # cut 1 leaves both cells open (1/2); cut 2 fills the first cell of a uniform order (1/4 each)
    rng = np.random.default_rng(1)
    n = 10_000
    hits = collections.Counter(
        tuple(sorted(sample_permutation(2, 1, rng).items())) for _ in range(n)
    )
    want = {(((1, 1), 1), ((2, 1), 1)): 0.5, (((1, 1), 0), ((2, 1), 1)): 0.25, (((1, 1), 1), ((2, 1), 0)): 0.25}
    assert set(hits) == set(want)
    for key, p in want.items():
        assert abs(hits[key] / n - p) < 0.02


def test_causal_stages_invert_the_order():
    # the causal stage of a cell is its 1-based position in the order (sigma inverse)
    rng = np.random.default_rng(2)
    cells = row_major_order(3, 2)
    order = [cells[i] for i in rng.permutation(6)]
    stage = causal_stages(order)
    for coord in cells:
        assert order[stage[coord] - 1] == coord


def test_zero_row_table_gets_the_empty_map_and_draws_nothing():
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    assert sample_permutation(0, 3, rng) == {}
    assert rng.bit_generator.state == state


# ---------------------------------------------------------------------------
# pass construction
# ---------------------------------------------------------------------------


def _example(model, rows):
    rec = DatasetRecord("ex", "pens and mugs on sale .", Table(["item", "qty"], rows))
    return prepare_example(rec, model.vocab, model.cfg)


def test_stages_must_cover_exactly_the_template_cells(tiny_model):
    # the rows a map's cells name are the template's; it must hold each of their cells
    ex = _example(tiny_model, [["pens", "3"], ["mugs", "7"]])
    stage = causal_stages(row_major_order(2, 2))
    for bad in ({(1, 1): 1}, {**stage, (3, 1): 5}, {(2, 1): 1, (2, 2): 2}, {**stage, (1, 3): 5}):
        with pytest.raises(LayoutError, match="stage keys"):
            build_training_pass(ex, bad, tiny_model)


def test_cut_one_means_no_context(tiny_model):
    ex = _example(tiny_model, [["pens", "3"], ["mugs", "7"]])
    inst = build_training_pass(ex, cut_stages(row_major_order(2, 2), 1), tiny_model)
    assert not (inst.stage[~structure(inst.template) & ~inst.is_pad] == 0).any()
    assert set(loss_cells(inst).tolist()) == {slot_cell_id(inst.template, c) for c in inst.template.cells}


def test_cut_c_means_single_open_cell(tiny_model):
    ex = _example(tiny_model, [["pens", "3"], ["mugs", "7"]])
    inst = build_training_pass(ex, cut_stages(row_major_order(2, 2), 4), tiny_model)
    assert set(loss_cells(inst).tolist()) == {slot_cell_id(inst.template, (2, 2))}


def test_loss_mask_soundness(tiny_model):
    # loss positions are exactly the content+EOC span of every open cell
    ex = _example(tiny_model, [["pens", "3"], [None, "7"]])
    inst = build_training_pass(ex, cut_stages([(1, 1), (1, 2), (2, 1), (2, 2)], 2), tiny_model)  # (1,1) filled
    tpl = inst.template
    expected = []
    for coord in tpl.cells:
        if coord == (1, 1):
            continue
        start = tpl.slot_start[coord]
        expected.extend(range(start, start + len(ex.cell_ids[coord]) + 1))
    assert sorted(inst.loss_pos.tolist()) == sorted(expected)
    assert not structure(tpl)[inst.loss_pos].any()


def test_header_tokens_visible_in_both_modes(tiny_model):
    ex = _example(tiny_model, [["pens", "3"], ["mugs", "7"]])
    perm = build_training_pass(ex, cut_stages(row_major_order(2, 2), 2), tiny_model)
    fixed = build_training_pass(ex, causal_stages(row_major_order(2, 2)), tiny_model)
    for inst in (perm, fixed):
        allow = visibility(inst)
        hdr = structure(inst.template) & (inst.template.rows == 0)
        live = ~inst.is_pad
        assert allow[np.ix_(live, hdr)].all()


def test_fixed_causal_visibility_is_row_major(tiny_model):
    ex = _example(tiny_model, [["pens", "3"], ["mugs", "7"]])
    inst = build_training_pass(ex, causal_stages(row_major_order(2, 2)), tiny_model)
    tpl = inst.template
    allow = visibility(inst)
    order = row_major_order(2, 2)
    for a, b in itertools.product(range(4), range(4)):
        pa = tpl.slot_start[order[a]]
        pb = tpl.slot_start[order[b]]
        if a == b:
            continue
        # cell a sees cell b's content iff b precedes a in row-major order
        assert allow[pa, pb] == (b < a)


def test_fixed_causal_equals_summed_per_cut_losses(tiny_model64):
    # staircase per-cell NLL == NLL of cell sigma(n) in the pass with
    # filled = first n-1 row-major cells, for every n
    rng = np.random.default_rng(7)
    random_bias_tables(tiny_model64, rng)
    ex = _example(tiny_model64, [["pens", "3"], ["mugs", "7"]])
    order = row_major_order(2, 2)
    fixed = instance_cell_nll(tiny_model64, ex, build_training_pass(ex, causal_stages(order), tiny_model64))
    for n in range(1, 5):
        per_cell = pass_cell_nll(tiny_model64, ex, frozenset(order[: n - 1]))
        assert abs(per_cell[order[n - 1]] - fixed[order[n - 1]]) < 1e-9


def test_open_cell_loss_invariant_to_sibling_gold(tiny_model):
    rng = np.random.default_rng(8)
    random_bias_tables(tiny_model, rng)
    ex_a = _example(tiny_model, [["pens", "3"], ["mugs", "7"]])
    ex_b = _example(tiny_model, [["pens", "3"], ["mugs", "9"]])  # sibling open cell differs
    filled = frozenset({(1, 1)})
    nll_a = pass_cell_nll(tiny_model, ex_a, filled)
    nll_b = pass_cell_nll(tiny_model, ex_b, filled)
    assert nll_a[(1, 2)] == nll_b[(1, 2)]
    assert nll_a[(2, 1)] == nll_b[(2, 1)]
    assert nll_a[(2, 2)] != nll_b[(2, 2)]


# ---------------------------------------------------------------------------
# estimator identities
# ---------------------------------------------------------------------------


def test_two_by_one_enumeration_identity(tiny_model64):
    # cells of different token lengths guard the cell-mean aggregation
    rng = np.random.default_rng(9)
    random_bias_tables(tiny_model64, rng)
    rec = DatasetRecord("e", "pens and 3 red pens .", Table(["item"], [["red pens"], ["3"]]))
    ex = prepare_example(rec, tiny_model64.vocab, tiny_model64.cfg)
    lhs = mean_pass_loss_over_all_pairs(tiny_model64, ex)
    rhs = exact_expected_nll_by_orderings(tiny_model64, ex)
    fast = exact_expected_nll(tiny_model64, ex)
    assert abs(lhs - rhs) < 1e-10
    assert abs(fast - rhs) < 1e-10


def test_mc_estimator_converges_2x2(tiny_model):
    rng = np.random.default_rng(10)
    random_bias_tables(tiny_model, rng)
    ex = _example(tiny_model, [["pens", "3"], ["mugs", "7"]])
    exact = exact_expected_nll(tiny_model, ex)
    mean, se = mc_expected_nll(tiny_model, ex, 2000, np.random.default_rng(11))
    assert se > 0
    assert abs(mean - exact) < 3 * se


# ---------------------------------------------------------------------------
# semi-templated variant
# ---------------------------------------------------------------------------


def _with_sentinel(rec):
    """The record with one all-NULL row below its gold rows."""
    table = Table(list(rec.table.headers), [list(row) for row in rec.table.rows] + [[None] * rec.table.n_cols])
    return DatasetRecord(rec.id, rec.text, table)


PASS_ARRAYS = ("input_ids", "is_pad", "stage", "loss_pos", "loss_targets", "legal")


def test_a_pass_over_the_sentinel_row_equals_the_pass_of_gold_rows_plus_a_null_row(tiny_model, lineitems_records):
    # a map over n + 1 rows lays out the gold example as it does the example
    # with its sentinel row written in
    records = lineitems_records[:6] + [DatasetRecord("empty", "pens .", Table(["item", "qty"], []))]
    vocab, cfg = tiny_model.vocab, tiny_model.cfg
    rng = np.random.default_rng(5)
    for rec in records:
        gold, by_hand = prepare_example(rec, vocab, cfg), prepare_example(_with_sentinel(rec), vocab, cfg)
        assert gold.n_rows + 1 == by_hand.n_rows
        for stage in [sample_permutation(by_hand.n_rows, by_hand.n_cols, rng) for _ in range(3)]:
            got, want = build_training_pass(gold, stage, tiny_model), build_training_pass(by_hand, stage, tiny_model)
            assert got.template is want.template
            for name in PASS_ARRAYS:
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_semi_templated_passes_open_one_row_of_a_template_that_ends_there(tiny_model, lineitems_records):
    # the decoder reads row r with rows 1..r-1 committed and no row below r
    records = lineitems_records[:6] + [DatasetRecord("empty", "pens .", Table(list(lineitems_records[0].table.headers), []))]
    examples = [prepare_example(r, tiny_model.vocab, tiny_model.cfg) for r in records]
    tr = Trainer(tiny_model, examples, TrainingConfig(seed=6, mode="semi-templated"))
    opened = collections.defaultdict(set)
    for step in range(1, 41):
        for ex, inst in zip(examples, tr._instances_for(examples, step)):
            tpl, r = inst.template, inst.template.n_rows
            opened[ex.id].add(r)
            assert tpl is tiny_model.template_for(ex.header_ids, r)
            assert set(tpl.rows[inst.stage > 0].tolist()) == {r}  # open cells lie in row r alone
            assert not inst.stage[tpl.rows < r].any()  # every earlier row is context
            for j in range(1, ex.n_cols + 1):  # row r is gold row r, or the sentinel when r = n + 1
                p0 = tpl.slot_start[(r, j)]
                want = ex.cell_ids[(r, j)] if r <= ex.n_rows else [NULL]
                assert inst.input_ids[p0 + 1 : p0 + 1 + len(want)].tolist() == want
    assert all(opened[ex.id] == set(range(1, ex.n_rows + 2)) for ex in examples)  # every r in 1..n+1 occurs


@pytest.mark.parametrize("which", ["train", "val"])
def test_semi_templated_trainer_refuses_a_table_with_no_room_for_its_sentinel(tiny_model, which):
    # the sentinel row counts toward max_rows: a full table has no room for it
    n = tiny_model.cfg.max_rows
    full = DatasetRecord("full", "pens .", Table(["item"], [["pens"]] * n))
    ok = DatasetRecord("ok", "pens .", Table(["item"], [["pens"]]))
    assert prepare_example(full, tiny_model.vocab, tiny_model.cfg).n_rows == n
    train, val = ([full], [ok]) if which == "train" else ([ok], [full])
    train = [prepare_example(r, tiny_model.vocab, tiny_model.cfg) for r in train]
    for mode in ("permuted", "fixed-causal"):
        Trainer(tiny_model, train, TrainingConfig(mode=mode), val_records=val)
    with pytest.raises(LayoutError, match=f"^full: {n + 1} rows exceed max_rows {n}$"):
        Trainer(tiny_model, train, TrainingConfig(mode="semi-templated"), val_records=val)


def test_trainer_prepares_its_validation_examples_from_its_validation_records(tiny_model, lineitems_records):
    train = [prepare_example(r, tiny_model.vocab, tiny_model.cfg) for r in lineitems_records[:2]]
    val = lineitems_records[2:5]
    tr = Trainer(tiny_model, train, TrainingConfig(), val_records=val)
    assert tr.val_records == val
    assert tr.val_examples == [prepare_example(r, tiny_model.vocab, tiny_model.cfg) for r in val]
    assert Trainer(tiny_model, train, TrainingConfig()).val_examples == []


def test_sentinel_row_serializes_as_null_eoc(tiny_model):
    rec = DatasetRecord("e", "pens .", Table(["item", "qty"], [["pens", "3"]]))
    ex = prepare_example(rec, tiny_model.vocab, tiny_model.cfg)
    inst = build_training_pass(ex, cut_stages(row_major_order(2, 2), 1), tiny_model)
    assert inst.template.n_rows == 2 and ex.n_rows == 1
    rows = loss_cells(inst) == slot_cell_id(inst.template, (2, 1))
    assert inst.loss_targets[rows].tolist() == [NULL, EOC]


# ---------------------------------------------------------------------------
# training loop behaviour
# ---------------------------------------------------------------------------


def _trainer(model, records, **over):
    examples = [prepare_example(r, model.vocab, model.cfg) for r in records]
    cfg = TrainingConfig(**{"seed": 5, "steps": 3, "batch_size": 4, **over})
    return Trainer(model, examples, cfg)


def test_same_seed_identical_loss_curves(tiny_vocab, lineitems_records):
    from text2table.model import ModelConfig, TextToTableModel

    curves = []
    for _ in range(2):
        cfg = ModelConfig(
            vocab_size=len(tiny_vocab), d_model=16, n_heads=2, n_enc_layers=1,
            n_dec_layers=1, d_ff=32, max_cell_len=4, max_rows=4, max_cols=4,
        )
        model = TextToTableModel(cfg, tiny_vocab, seed=3)
        tr = _trainer(model, lineitems_records[:8], steps=3)
        curves.append([tr.training_step(s).total for s in range(1, 4)])
    assert curves[0] == curves[1]


def test_count_head_fits_constant_target(tiny_vocab):
    # constant-3-row corpus: after 200 steps the held-out prediction rounds to 3
    from text2table.model import ModelConfig, TextToTableModel

    spec = CorpusSpec(task="lineitems", n_examples=24, rows_min=3, rows_max=3, seed=21)
    records = list(generate(spec))
    cfg = ModelConfig(
        vocab_size=len(tiny_vocab), d_model=16, n_heads=2, n_enc_layers=1,
        n_dec_layers=1, d_ff=32, max_cell_len=4, max_rows=4, max_cols=4,
    )
    model = TextToTableModel(cfg, tiny_vocab, seed=4)
    tr = _trainer(model, records[:16], steps=200, batch_size=4)
    for s in range(1, 201):
        stats = tr.training_step(s)
    assert stats.mse < 0.01
    held_out = [prepare_example(r, model.vocab, model.cfg) for r in records[16:]]
    from text2table.numerics import no_grad
    from text2table.training import build_source_batch

    with no_grad():
        ids, lens = build_source_batch(held_out)
        preds = model.count_pred(model.encode(ids, lens), lens).data
    assert (np.abs(preds - 3.0) < 0.5).all()


def _zero_row_examples(model, n=3, headers=("item", "qty")):
    texts = ["nothing was bought today .", "the store was busy today .", "thanks for the visit ."]
    records = [DatasetRecord(f"empty{i}", texts[i % 3], Table(list(headers), [])) for i in range(n)]
    return [prepare_example(r, model.vocab, model.cfg) for r in records]


@pytest.mark.parametrize("mode", ["permuted", "fixed-causal", "semi-templated"])
def test_instances_for_builds_one_instance_per_example(tiny_model, lineitems_records, mode):
    # a table with no rows trains as the header-only layout of its template
    empty = _zero_row_examples(tiny_model, n=1)
    examples = [prepare_example(r, tiny_model.vocab, tiny_model.cfg) for r in lineitems_records[:3]]
    batch = examples[:1] + empty + examples[1:]
    tr = Trainer(tiny_model, batch, TrainingConfig(seed=2, batch_size=4, mode=mode))
    insts = tr._instances_for(batch, 1)
    rows = [inst.template.n_rows for inst in insts]
    if mode == "semi-templated":  # the rows up to the open one
        assert all(1 <= r <= ex.n_rows + 1 for r, ex in zip(rows, batch))
    else:
        assert rows == [ex.n_rows for ex in batch]
    assert [inst.template for inst in insts] == [tiny_model.template_for(ex.header_ids, r) for ex, r in zip(batch, rows)]
    header_only = insts[1]
    assert header_only.template.n_rows == (mode == "semi-templated")  # its sentinel row
    if mode != "semi-templated":
        assert len(header_only.loss_pos) == 0 and header_only.legal.shape == (0, len(tiny_model.vocab))
        assert structure(header_only.template).all()


@pytest.mark.parametrize("headers", [("item", "qty"), (" ",)], ids=["headers", "blank_header"])
@pytest.mark.parametrize("mode", ["permuted", "fixed-causal"])
def test_step_on_zero_row_tables_gives_every_parameter_a_gradient(tiny_model, mode, headers):
    # a blank header has no token, so its header-only layout has no decoder row
    examples = _zero_row_examples(tiny_model, headers=headers)
    tr = Trainer(tiny_model, examples, TrainingConfig(seed=1, batch_size=2, mode=mode))
    stats = tr.training_step(1)
    assert stats.nll == 0.0 and math.isfinite(stats.total)
    missing = [name for name, t in tiny_model.params.items() if t.grad is None]
    assert missing == []
    # no decoder output carries loss, so the decoder's gradients are zero
    assert not tiny_model.params["lm_head"].grad.any() and not tiny_model.params["dec0.self.wq"].grad.any()


def test_divergence_aborts_with_diagnostics(tiny_model, lineitems_records, tmp_path):
    tr = _trainer(tiny_model, lineitems_records[:4], checkpoint_dir=str(tmp_path))
    tiny_model.params["embed"].data[BOS, 0] = np.nan  # every cell slot starts with BOS
    with pytest.raises(TrainingDiverged) as ei:
        tr.training_step(1)
    assert ei.value.step == 1
    assert list(tmp_path.glob("diverged-step1.json"))


def test_nan_pad_embedding_leaves_loss_unchanged(tiny_model, lineitems_records):
    # the stacks run on packed rows, so no position ever embeds PAD
    tr = _trainer(tiny_model, lineitems_records[:4])
    batch = tr.examples
    clean = [t.item() for t in tr._batch_loss(batch, 1, train=True)]
    tiny_model.params["embed"].data[PAD] = np.nan
    total, nll, mse = tr._batch_loss(batch, 1, train=True)
    assert [total.item(), nll.item(), mse.item()] == clean
    backward(total)
    assert all(np.isfinite(t.grad).all() for _, t in tiny_model.params.items() if t.grad is not None)


def test_evaluate_loss_records_no_tape_and_keeps_its_value(tiny_model, lineitems_records):
    tr = _trainer(tiny_model, lineitems_records[:4])
    tr.val_examples = tr.examples
    _, nll, mse = tr._batch_loss(tr.val_examples, 0, train=False)
    assert nll.requires_grad  # outside evaluate the same call records a tape
    losses, batch_loss = [], tr._batch_loss

    def recording(*args, **kwargs):
        losses.append(batch_loss(*args, **kwargs))
        return losses[-1]

    tr._batch_loss = recording
    record = tr.evaluate(0)
    assert not any(t.requires_grad or t.node is not None for t in losses[0])
    assert record["nll"] == nll.item() and record["mse"] == mse.item()  # bitwise
    assert record["cell_f1"] is None and record["per_column_f1"] is None  # no validation records


def test_training_config_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown training mode 'bogus'"):
        TrainingConfig(mode="bogus")


def test_config_values_are_type_checked():
    assert from_fields(TrainingConfig, {"lr": 1}).lr == 1  # an int fits a float field
    assert from_fields(TrainingConfig, {"checkpoint_dir": None}).checkpoint_dir is None
    for bad in ({"steps": True}, {"steps": 2.0}, {"lr": "a"}, {"checkpoint_dir": 3}):
        (key,) = bad
        with pytest.raises(TypeError, match=f"^{key} must be "):
            from_fields(TrainingConfig, bad)


def test_smoothed_loss_floor_on_single_cell_corpus(tiny_vocab):
    # a perfectly fit model approaches the label-smoothing entropy floor, not 0
    from text2table.model import ModelConfig, TextToTableModel

    rec = DatasetRecord("c", "the name is alice .", Table(["name"], [["alice"]]))
    cfg = ModelConfig(
        vocab_size=len(tiny_vocab), d_model=16, n_heads=2, n_enc_layers=1,
        n_dec_layers=1, d_ff=32, max_cell_len=4, max_rows=4, max_cols=4,
    )
    model = TextToTableModel(cfg, tiny_vocab, seed=6)
    ex = prepare_example(rec, tiny_vocab, cfg)
    tcfg = TrainingConfig(seed=1, steps=1, batch_size=2, label_smoothing=0.1,
                          count_loss_weight=0.0, lr=3e-3)
    tr = Trainer(model, [ex], tcfg)
    for s in range(1, 1001):
        stats = tr.training_step(s)

    # analytic floor: mean over both positions ("alice" then EOC) of the
    # smoothed target entropy over their K-token legal sets
    def floor(k, eps=0.1):
        qt = 1 - eps + eps / k
        qo = eps / k
        return -(qt * math.log(qt) + (k - 1) * qo * math.log(qo))

    k_first = int(model.grammar.table[model.grammar.OPEN_FIRST].sum())
    k_mid = int(model.grammar.table[model.grammar.MID].sum())
    expect = (floor(k_first) + floor(k_mid)) / 2
    assert expect > 0.5  # the floor is far from zero
    assert stats.nll > expect - 1e-6
    assert stats.nll < expect + 0.05


def test_resume_from_checkpoint_is_bit_identical(tiny_vocab, lineitems_records, tmp_path):
    # 3 steps, checkpoint, load, 3 more steps == 6 straight steps, with dropout on
    from text2table.model import ModelConfig, TextToTableModel, load_checkpoint
    from text2table.numerics import AdamW

    def fresh_model():
        cfg = ModelConfig(
            vocab_size=len(tiny_vocab), d_model=16, n_heads=2, n_enc_layers=1,
            n_dec_layers=1, d_ff=32, max_cell_len=4, max_rows=4, max_cols=4, dropout=0.1,
        )
        return TextToTableModel(cfg, tiny_vocab, seed=8)

    records = lineitems_records[:8]
    straight = _trainer(fresh_model(), records, steps=6)
    straight.run()

    first = _trainer(fresh_model(), records, steps=3, checkpoint_dir=str(tmp_path))
    first.run()
    model, meta = load_checkpoint(str(tmp_path / "latest.npz"))
    assert meta["step"] == 3
    opt = AdamW(model.params, lr=first.cfg.lr, weight_decay=first.cfg.weight_decay)
    opt.load_state_arrays(meta["opt_arrays"], meta["optimizer"]["step_count"])
    examples = [prepare_example(r, model.vocab, model.cfg) for r in records]
    resumed = Trainer(
        model, examples, TrainingConfig(seed=5, steps=6, batch_size=4),
        start_step=meta["step"], optimizer=opt,
    )
    resumed.run()

    assert resumed.opt.step_count == straight.opt.step_count == 6
    for name, t in straight.model.params.items():
        assert np.array_equal(t.data, model.params[name].data), name
    want, got = straight.opt.state_arrays(), resumed.opt.state_arrays()
    assert want.keys() == got.keys()
    for name in want:
        assert np.array_equal(want[name], got[name]), name


def test_step_stats_grad_norm_is_norm_before_clipping(tiny_model64, lineitems_records):
    from text2table.numerics import backward
    from text2table.training.loop import STREAM_BATCH

    tr = _trainer(tiny_model64, lineitems_records[:8], clip_norm=1e-3)
    idx = step_rng(5, 1, STREAM_BATCH).integers(0, len(tr.examples), size=4)
    tiny_model64.params.zero_grad()
    total, _, _ = tr._batch_loss([tr.examples[int(i)] for i in idx], 1, train=True)
    backward(total)

    def grad_norm():
        return math.sqrt(sum(float((t.grad * t.grad).sum()) for _, t in tiny_model64.params.items()))

    want = grad_norm()
    assert want > 1e-3  # the step below clips
    stats = tr.training_step(1)
    assert stats.grad_norm == pytest.approx(want, rel=1e-12)
    assert grad_norm() == pytest.approx(1e-3, rel=1e-9)  # the clip still applies


def test_prepare_example_counts_dropped_source_ids(tiny_model):
    limit = tiny_model.cfg.max_input_len
    table = Table(["item"], [["pens"]])
    long_rec = DatasetRecord("long", " ".join(["pens"] * (limit + 9)), table)
    ex = prepare_example(long_rec, tiny_model.vocab, tiny_model.cfg)
    assert len(ex.source_ids) == limit
    assert ex.input_tokens_dropped == 9
    short = prepare_example(DatasetRecord("short", "pens .", table), tiny_model.vocab, tiny_model.cfg)
    assert short.input_tokens_dropped == 0


def test_prepare_example_counts_header_ids_the_template_cuts(tiny_model):
    l = tiny_model.cfg.max_cell_len
    long_header = " ".join(["price"] * (l + 3))
    table = Table(["item", long_header], [["pens", "2"]])
    ex = prepare_example(DatasetRecord("long", "pens for 2 .", table), tiny_model.vocab, tiny_model.cfg)
    assert ex.header_tokens_dropped == 3
    tpl = tiny_model.template_for(ex.header_ids, ex.n_rows)
    assert ex.header_tokens_dropped == sum(map(len, ex.header_ids)) - int((tpl.rows == 0).sum())
    short = Table(["item", "price"], [["pens", "2"]])
    assert prepare_example(DatasetRecord("short", "pens .", short), tiny_model.vocab, tiny_model.cfg).header_tokens_dropped == 0
