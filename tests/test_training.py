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
from text2table.model import LayoutError
from text2table.table import Table
from text2table.training import (
    PermutationPlan,
    Trainer,
    TrainingConfig,
    TrainingDiverged,
    build_semi_templated_corpus_variant,
    build_training_pass,
    causal_stages,
    prepare_example,
    row_major_order,
    sample_permutation,
    step_rng,
)
from text2table.numerics import backward
from text2table.vocab import BOS, EOC, NULL, PAD
from util import loss_cells, slot_cell_id, structure, visibility


# ---------------------------------------------------------------------------
# permutation sampling
# ---------------------------------------------------------------------------


def test_one_by_one_plan_is_trivial():
    rng = np.random.default_rng(0)
    plan = sample_permutation(1, 1, rng)
    assert plan.order == ((1, 1),)
    assert plan.cut == 1
    assert plan.filled == frozenset()


def test_two_cell_orderings_uniform():
    rng = np.random.default_rng(1)
    hits = {((1, 1), (2, 1)): 0, ((2, 1), (1, 1)): 0}
    n = 10_000
    for _ in range(n):
        hits[sample_permutation(2, 1, rng).order] += 1
    for count in hits.values():
        assert abs(count / n - 0.5) < 0.02


def test_plan_inverse_roundtrip():
    # the causal stage of a cell is its 1-based position in the order (sigma inverse)
    rng = np.random.default_rng(2)
    plan = sample_permutation(3, 2, rng)
    stage = causal_stages(plan.order)
    for coord in row_major_order(3, 2):
        assert plan.order[stage[coord] - 1] == coord


def test_cut_bounds_enforced():
    with pytest.raises(ValueError):
        PermutationPlan(((1, 1),), 2)
    with pytest.raises(ValueError):
        PermutationPlan((), 2)


def test_zero_row_table_gets_the_empty_plan_and_draws_nothing():
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    plan = sample_permutation(0, 3, rng)
    assert plan == PermutationPlan((), 1)
    assert plan.stages == {} and plan.open == () and plan.filled == frozenset()
    assert rng.bit_generator.state == state


# ---------------------------------------------------------------------------
# pass construction
# ---------------------------------------------------------------------------


def _example(model, rows):
    rec = DatasetRecord("ex", "pens and mugs on sale .", Table(["item", "qty"], rows))
    return prepare_example(rec, model.vocab, model.cfg)


def test_stages_must_cover_exactly_the_template_cells(tiny_model):
    ex = _example(tiny_model, [["pens", "3"], ["mugs", "7"]])
    stage = causal_stages(row_major_order(2, 2))
    for bad in (causal_stages(row_major_order(1, 2)), {**stage, (3, 1): 5}):
        with pytest.raises(LayoutError, match="stage keys"):
            build_training_pass(ex, bad, tiny_model)


def test_cut_one_means_no_context(tiny_model):
    ex = _example(tiny_model, [["pens", "3"], ["mugs", "7"]])
    plan = PermutationPlan(row_major_order(2, 2), 1)
    inst = build_training_pass(ex, plan.stages, tiny_model)
    assert not (inst.stage[~structure(inst.template) & ~inst.is_pad] == 0).any()
    assert set(loss_cells(inst).tolist()) == {slot_cell_id(inst.template, c) for c in inst.template.cells()}


def test_cut_c_means_single_open_cell(tiny_model):
    ex = _example(tiny_model, [["pens", "3"], ["mugs", "7"]])
    plan = PermutationPlan(row_major_order(2, 2), 4)
    inst = build_training_pass(ex, plan.stages, tiny_model)
    assert set(loss_cells(inst).tolist()) == {slot_cell_id(inst.template, (2, 2))}


def test_loss_mask_soundness(tiny_model):
    # loss positions are exactly the content+EOC span of every open cell
    ex = _example(tiny_model, [["pens", "3"], [None, "7"]])
    plan = PermutationPlan(((1, 1), (1, 2), (2, 1), (2, 2)), 2)  # (1,1) filled
    inst = build_training_pass(ex, plan.stages, tiny_model)
    tpl = inst.template
    expected = []
    for coord in tpl.cells():
        if coord == (1, 1):
            continue
        start = tpl.slot_start[coord]
        expected.extend(range(start, start + len(ex.cell_ids[coord]) + 1))
    assert sorted(inst.loss_pos.tolist()) == sorted(expected)
    assert not structure(tpl)[inst.loss_pos].any()


def test_header_tokens_visible_in_both_modes(tiny_model):
    ex = _example(tiny_model, [["pens", "3"], ["mugs", "7"]])
    perm = build_training_pass(ex, PermutationPlan(row_major_order(2, 2), 2).stages, tiny_model)
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


def test_semi_templated_appends_null_row():
    gold = Table(["a", "b", "c"], [["1", "2", "3"], ["4", "5", "6"]])
    out = build_semi_templated_corpus_variant(gold)
    assert out.n_rows == 3
    assert out.rows[2] == [None, None, None]
    assert gold.n_rows == 2  # input untouched


def test_semi_templated_zero_rows():
    out = build_semi_templated_corpus_variant(Table(["a", "b"], []))
    assert out.n_rows == 1
    assert out.rows[0] == [None, None]


def test_semi_templated_overflow_rejected(tiny_model):
    # the sentinel row counts toward max_rows: a full table has no room for it
    n = tiny_model.cfg.max_rows
    rec = DatasetRecord("full", "pens .", Table(["item"], [["pens"]] * n))
    assert prepare_example(rec, tiny_model.vocab, tiny_model.cfg).n_rows == n
    with pytest.raises(LayoutError, match=f"^full: {n + 1} rows exceed max_rows {n}$"):
        prepare_example(rec, tiny_model.vocab, tiny_model.cfg, "semi-templated")


def test_sentinel_row_serializes_as_null_eoc(tiny_model):
    rec = DatasetRecord(
        "e", "pens .", build_semi_templated_corpus_variant(Table(["item", "qty"], [["pens", "3"]]))
    )
    ex = prepare_example(rec, tiny_model.vocab, tiny_model.cfg)
    inst = build_training_pass(ex, PermutationPlan(row_major_order(2, 2), 1).stages, tiny_model)
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


def _zero_row_examples(model, mode, n=3, headers=("item", "qty")):
    texts = ["nothing was bought today .", "the store was busy today .", "thanks for the visit ."]
    records = [DatasetRecord(f"empty{i}", texts[i % 3], Table(list(headers), [])) for i in range(n)]
    return [prepare_example(r, model.vocab, model.cfg, mode) for r in records]


@pytest.mark.parametrize("mode", ["permuted", "fixed-causal", "semi-templated"])
def test_instances_for_builds_one_instance_per_example(tiny_model, lineitems_records, mode):
    # a table with no rows trains as the header-only layout of its template
    empty = _zero_row_examples(tiny_model, mode, n=1)
    examples = [prepare_example(r, tiny_model.vocab, tiny_model.cfg, mode) for r in lineitems_records[:3]]
    batch = examples[:1] + empty + examples[1:]
    tr = Trainer(tiny_model, batch, TrainingConfig(seed=2, batch_size=4, mode=mode))
    insts = tr._instances_for(batch, 1)
    assert [inst.template for inst in insts] == [
        tiny_model.template_for(ex.header_ids, ex.n_rows) for ex in batch
    ]
    header_only = insts[1]
    assert header_only.template.n_rows == (mode == "semi-templated")  # its sentinel row
    if mode != "semi-templated":
        assert len(header_only.loss_pos) == 0 and header_only.legal.shape == (0, len(tiny_model.vocab))
        assert structure(header_only.template).all()


@pytest.mark.parametrize("headers", [("item", "qty"), (" ",)], ids=["headers", "blank_header"])
@pytest.mark.parametrize("mode", ["permuted", "fixed-causal"])
def test_step_on_zero_row_tables_gives_every_parameter_a_gradient(tiny_model, mode, headers):
    # a blank header has no token, so its header-only layout has no decoder row
    examples = _zero_row_examples(tiny_model, mode, headers=headers)
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
    assert not any(t.requires_grad or t._parents for t in losses[0])
    assert record["nll"] == nll.item() and record["mse"] == mse.item()  # bitwise
    assert record["cell_f1"] is None and record["per_column_f1"] is None  # no validation records


def test_training_config_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown training mode 'bogus'"):
        TrainingConfig(mode="bogus")


def test_config_values_are_type_checked():
    assert TrainingConfig.from_json({"lr": 1}).lr == 1  # an int fits a float field
    assert TrainingConfig.from_json({"checkpoint_dir": None}).checkpoint_dir is None
    for bad in ({"steps": True}, {"steps": 2.0}, {"lr": "a"}, {"checkpoint_dir": 3}):
        (key,) = bad
        with pytest.raises(TypeError, match=f"^{key} must be "):
            TrainingConfig.from_json(bad)


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
