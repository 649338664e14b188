import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_bias_tables
from text2table.decoding import (
    Candidate,
    DecodingConfig,
    DecodingConfigError,
    DecodingState,
    EmptySourceTextError,
    InnerLoopError,
    ModelCellSource,
    NonFiniteCountError,
    NonFiniteLogitsError,
    apply_constraint,
    decode_table,
    inner_loop,
    outer_criterion,
    rows_from_count,
    run_outer_loop,
    semi_templated_stop,
)
from text2table.decoding import engine
from text2table.decoding.engine import _masked_log_softmax
from text2table.model import LayoutError, TextToTableModel, instance_for_decoding
from text2table.vocab import EOC, NULL, tokenize
from util import MockCellSource, filled_stages, instance_for_pass, structure, visibility


# ---------------------------------------------------------------------------
# scores, sorting, config
# ---------------------------------------------------------------------------


def test_inner_criterion_aggregations():
    cand = Candidate(tokens=[10, 11], token_logprobs=[-0.1, -0.9, -0.2])
    assert cand.score("max") == -0.1
    assert cand.score("min") == -0.9
    assert abs(cand.score("mean") - (-0.4)) < 1e-12


class _FixedSource:
    """Candidate source that gives every cell the same candidate each time."""

    def __init__(self, cands):
        self.cands = cands

    def candidates(self, committed, cells):
        return {c: self.cands[c] for c in cells}


@pytest.mark.parametrize("criterion", ["max", "min", "mean"])
def test_forced_close_is_not_confidence(criterion):
    # a NULL cell whose NULL the model gave little probability, closed by the
    # grammar at log-probability 0, ranks below a confident free close
    null_cell = Candidate([NULL], [-2.5, 0.0], forced_close=True)
    free = Candidate([10], [-0.2, -0.1])
    assert null_cell.score(criterion) == -2.5
    state, trace = _state(1, 2), []
    source = _FixedSource({(1, 1): null_cell, (1, 2): free})
    run_outer_loop(source, state, DecodingConfig(k=1, inner_criterion=criterion), trace=trace)
    assert [t.cell for t in trace] == [(1, 2), (1, 1)]
    assert trace[1].score == -2.5


@pytest.mark.parametrize("null_shift, forced_by", [(0.0, "slot width"), (0.1, "NULL")])
def test_decoded_scores_leave_out_forced_closes(tiny_model, null_shift, forced_by):
    # cells cut at the slot width, or NULL cells once the NULL logit is
    # shifted up, end with a forced close; each cell's max score is then its
    # best chosen token, below 0 for finite logits, where the forced close
    # would score exactly 0
    rng = np.random.default_rng(21)
    random_bias_tables(tiny_model, rng)
    shift = tiny_model.params["dec.ln_f.b"].data
    shift[...] = rng.normal(size=shift.shape)
    tiny_model.params["lm_head"].data[:, NULL] += null_shift * np.sign(shift)
    tiny_model.params["count.b"].data[...] = [3.0]
    res = decode_table("pens and mugs for 3 dollars .", tiny_model, DecodingConfig(k=2), ["item", "qty", "price"],
                       keep_trace=True)
    forced = [t for t in res.trace if (t.tokens == [NULL] if forced_by == "NULL" else t.truncated)]
    assert len(forced) == len(res.trace) == 9
    assert all(t.score < 0.0 for t in res.trace)


def test_outer_criterion_sorting_and_ties():
    cfg = DecodingConfig(outer_criterion="max-first")
    assert outer_criterion({(1, 1): -0.1, (1, 2): -0.5}, cfg) == [(1, 1), (1, 2)]
    # equal scores: (1,2) beats (2,1) by (row, column) order
    assert outer_criterion({(2, 1): -0.3, (1, 2): -0.3}, cfg) == [(1, 2), (2, 1)]


def test_min_first_reverses_max_first_on_distinct_scores():
    scores = {(1, 1): -0.4, (1, 2): -0.1, (2, 1): -0.9, (2, 2): -0.2}
    up = outer_criterion(scores, DecodingConfig(outer_criterion="min-first"))
    down = outer_criterion(scores, DecodingConfig(outer_criterion="max-first"))
    assert up == list(reversed(down))


def test_bad_config_rejected():
    with pytest.raises(DecodingConfigError):
        DecodingConfig(k=0)
    with pytest.raises(DecodingConfigError):
        DecodingConfig(inner_criterion="median")
    with pytest.raises(DecodingConfigError):
        DecodingConfig(constraint="diagonal")


@pytest.mark.parametrize("rows", [0, -1])
def test_max_rows_override_below_one_rejected(rows):
    with pytest.raises(DecodingConfigError, match="max_rows_override"):
        DecodingConfig(max_rows_override=rows)


def test_rows_from_count_rounding_contract():
    assert rows_from_count(2.4, 5) == 2
    assert rows_from_count(2.5, 5) == 3  # round half up
    assert rows_from_count(-0.7, 5) == 0
    assert rows_from_count(9.9, 5) == 5


# ---------------------------------------------------------------------------
# constraints
# ---------------------------------------------------------------------------


def _state(n, m, committed=()):
    st = DecodingState(n, m)
    for coord in committed:
        st.committed[coord] = [10]
    return st


def test_column_by_column_follows_first_commit():
    st = _state(2, 2, [(1, 1)])
    cfg = DecodingConfig(constraint="column-by-column")
    assert apply_constraint(st, cfg) == [(2, 1)]
    st.committed[(2, 1)] = [10]
    # active column finished: next unfinished column opens
    assert sorted(apply_constraint(st, cfg)) == [(1, 2), (2, 2)]


def test_column_by_column_first_iteration_scores_all():
    st = _state(2, 2)
    cfg = DecodingConfig(constraint="column-by-column")
    assert len(apply_constraint(st, cfg)) == 4


def test_row_by_row_symmetric():
    st = _state(2, 2, [(2, 2)])
    cfg = DecodingConfig(constraint="row-by-row")
    assert apply_constraint(st, cfg) == [(2, 1)]


def test_left_right_top_bottom_single_next_cell():
    st = _state(2, 2, [(1, 1), (1, 2)])
    cfg = DecodingConfig(constraint="left-right-top-bottom")
    assert apply_constraint(st, cfg) == [(2, 1)]


def test_no_distant_rows_bottom_of_column_rule():
    st = _state(2, 2, [(1, 2)])
    cfg = DecodingConfig(constraint="no-distant-rows")
    assert sorted(apply_constraint(st, cfg)) == [(1, 1), (2, 2)]


def test_no_distant_rows_brute_force_all_states_2x2():
    # eligibility == "all cells above me in my column are decoded"
    cells = [(1, 1), (1, 2), (2, 1), (2, 2)]
    cfg = DecodingConfig(constraint="no-distant-rows")
    for bits in range(16):
        committed = [c for i, c in enumerate(cells) if bits >> i & 1]
        st = _state(2, 2, committed)
        got = set(apply_constraint(st, cfg))
        want = set()
        for r, c in cells:
            if (r, c) in st.committed:
                continue
            if all((rr, c) in st.committed for rr in range(1, r)):
                want.add((r, c))
        assert got == want, committed


# ---------------------------------------------------------------------------
# outer loop with the mock source
# ---------------------------------------------------------------------------


def test_inner_loop_requires_eligible_cell():
    src = MockCellSource(1, 1)
    st = _state(1, 1, [(1, 1)])
    with pytest.raises(InnerLoopError):
        inner_loop(src, st, DecodingConfig())


@pytest.mark.parametrize(
    "constraint, want", [("row-by-row", [(2, 2)]), ("column-by-column", [(1, 1)])]
)
def test_inner_loop_scores_the_line_of_the_states_first_commit(constraint, want):
    src = MockCellSource(2, 2, seed=1)
    _, scores = inner_loop(src, _state(2, 2, [(2, 1)]), DecodingConfig(constraint=constraint))
    assert list(scores) == want


def test_inner_loop_pure_given_context():
    src = MockCellSource(2, 2, seed=5)
    st = _state(2, 2)
    cfg = DecodingConfig()
    c1, s1 = inner_loop(src, st, cfg)
    c2, s2 = inner_loop(src, st, cfg)
    assert s1 == s2
    assert {k: (v.tokens, v.token_logprobs) for k, v in c1.items()} == {
        k: (v.tokens, v.token_logprobs) for k, v in c2.items()
    }


def test_single_cell_one_iteration_any_k():
    for k in (1, 3):
        src = MockCellSource(1, 1, seed=2)
        st = _state(1, 1)
        iters = run_outer_loop(src, st, DecodingConfig(k=k))
        assert iters == 1
        assert st.committed[(1, 1)] == src.candidate_for((1, 1), {}).tokens


def test_k_geq_cells_single_iteration_equals_inner_candidates():
    src = MockCellSource(2, 3, seed=3)
    st = _state(2, 3)
    first = src.candidates({}, st.undecoded())
    iters = run_outer_loop(src, st, DecodingConfig(k=6))
    assert iters == 1
    assert st.committed == {c: cand.tokens for c, cand in first.items()}


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_outer_iterations_equal_ceil_c_over_k(k):
    src = MockCellSource(3, 3, seed=4)
    st = _state(3, 3)
    trace = []
    iters = run_outer_loop(src, st, DecodingConfig(k=k), trace=trace)
    assert iters == math.ceil(9 / k)
    # commit monotonicity: exactly min(k, remaining) commits per iteration
    per_iter = {}
    for t in trace:
        per_iter[t.iteration] = per_iter.get(t.iteration, 0) + 1
    remaining = 9
    for it in range(1, iters + 1):
        assert per_iter[it] == min(k, remaining)
        remaining -= per_iter[it]


def test_constraint_soundness_by_replay():
    for constraint in ("none", "column-by-column", "row-by-row", "left-right-top-bottom", "no-distant-rows"):
        for k in (1, 2, 4):
            src = MockCellSource(2, 3, seed=6)
            st = _state(2, 3)
            cfg = DecodingConfig(k=k, constraint=constraint)
            trace = []
            run_outer_loop(src, st, cfg, trace=trace)
            # replay: every committed cell was eligible at its commit time
            replay = _state(2, 3)
            for entry in trace:
                eligible = apply_constraint(replay, cfg)
                assert entry.cell in eligible, (constraint, k, entry)
                replay.committed[entry.cell] = entry.tokens
            assert replay.done()


def test_greedy_max_first_matches_stepwise_bruteforce_argmax():
    # exhaustive enumeration over all commit orders of a 2x2 mock instance
    for seed in range(10):
        src = MockCellSource(2, 2, seed=seed)
        st = _state(2, 2)
        trace = []
        run_outer_loop(src, st, DecodingConfig(k=1), trace=trace)
        engine_order = [t.cell for t in trace]

        cells = [(1, 1), (1, 2), (2, 1), (2, 2)]
        valid = []
        for perm in itertools.permutations(cells):
            committed = {}
            ok = True
            for nxt in perm:
                scores = {
                    c: src.candidate_for(c, committed).score("max")
                    for c in cells
                    if c not in committed
                }
                best = max(scores.values())
                argmax = sorted([c for c, s in scores.items() if s == best])
                if nxt != argmax[0]:
                    ok = False
                    break
                committed[nxt] = src.candidate_for(nxt, committed).tokens
            if ok:
                valid.append(perm)
        assert valid == [tuple(engine_order)]


def test_semi_templated_stop_rule():
    st = _state(2, 3)
    st.committed.update({(1, 1): [NULL], (1, 2): [NULL], (1, 3): [NULL]})
    assert semi_templated_stop(st, 1)
    st.committed[(1, 2)] = [10]
    assert not semi_templated_stop(st, 1)


# ---------------------------------------------------------------------------
# neural decode end-to-end
# ---------------------------------------------------------------------------


def _assert_structurally_valid(model, table, headers, n_rows):
    assert table.headers == headers
    assert table.n_rows == n_rows
    vocab = model.vocab
    reserved = {vocab.surface(i) for i in range(vocab.first_content_id)}
    for row in table.rows:
        assert len(row) == len(headers)
        for cell in row:
            if cell is not None:
                toks = tokenize(cell)
                assert 1 <= len(toks) <= model.cfg.max_cell_len - 1
                assert not (set(toks) & reserved)


def test_decode_with_zero_predicted_rows_returns_empty_table(tiny_model):
    # the zero-initialized count head predicts 0.0: the header-only template,
    # whose outer loop ends at once with no decoder pass; a header cut at the
    # slot width is still reported
    long_header = " ".join(["price"] * (tiny_model.cfg.max_cell_len + 2))
    res = decode_table("pens and mugs .", tiny_model, DecodingConfig(), ["item", long_header])
    assert res.table.n_rows == 0
    assert res.outer_iterations == 0 and res.decoder_passes == 0 and res.forced_tokens == 0
    assert res.table.headers == ["item", long_header]
    assert res.header_tokens_dropped == 2


def test_decode_structural_validity_random_model(tiny_model):
    rng = np.random.default_rng(12)
    random_bias_tables(tiny_model, rng)
    tiny_model.params["count.w"].data[...] = rng.normal(size=tiny_model.params["count.w"].shape)
    tiny_model.params["count.b"].data[...] = [2.2]
    headers = ["item", "qty"]
    for k in (1, 2, 4):
        for constraint in ("none", "row-by-row", "no-distant-rows"):
            cfg = DecodingConfig(k=k, constraint=constraint)
            res = decode_table("pens and mugs there .", tiny_model, cfg, headers)
            _assert_structurally_valid(tiny_model, res.table, headers, res.table.n_rows)
            assert res.table.n_rows >= 0


def test_decode_deterministic(tiny_model):
    rng = np.random.default_rng(13)
    random_bias_tables(tiny_model, rng)
    tiny_model.params["count.b"].data[...] = [1.6]
    cfg = DecodingConfig(k=2)
    a = decode_table("the customer bought 3 pens .", tiny_model, cfg, ["item", "qty"])
    b = decode_table("the customer bought 3 pens .", tiny_model, cfg, ["item", "qty"])
    assert a.table.to_dict() == b.table.to_dict()


def test_decode_k_equals_c_single_iteration(tiny_model):
    rng = np.random.default_rng(14)
    random_bias_tables(tiny_model, rng)
    tiny_model.params["count.b"].data[...] = [2.0]
    cfg = DecodingConfig(k=100)
    res = decode_table("pens mugs and 4 .", tiny_model, cfg, ["item", "qty"], keep_trace=True)
    assert res.outer_iterations == 1
    assert all(t.iteration == 1 for t in res.trace)


def test_semi_templated_neural_decode_caps_rows(tiny_model):
    rng = np.random.default_rng(15)
    random_bias_tables(tiny_model, rng)
    cfg = DecodingConfig(stopping="semi-templated")
    res = decode_table("pens mugs .", tiny_model, cfg, ["item", "qty"])
    assert res.table.n_rows <= tiny_model.cfg.max_rows
    _assert_structurally_valid(tiny_model, res.table, ["item", "qty"], res.table.n_rows)
    # a random model almost surely never emits the all-NULL sentinel
    assert res.hit_row_cap or res.table.n_rows < tiny_model.cfg.max_rows


@pytest.mark.parametrize("stopping", ["predicted-count", "semi-templated"])
def test_max_rows_override_caps_the_decoded_rows(tiny_model, stopping):
    random_bias_tables(tiny_model, np.random.default_rng(15))
    tiny_model.params["count.b"].data[...] = [3.0]
    res = decode_table("pens mugs .", tiny_model, DecodingConfig(stopping=stopping, max_rows_override=2), ["item", "qty"])
    assert res.table.n_rows <= 2
    assert {t.cell[0] for t in res.trace} <= {1, 2}
    if stopping == "predicted-count":
        assert res.table.n_rows == 2


@pytest.mark.parametrize("override", [None, 2])
@pytest.mark.parametrize("offset, clamped", [(-1.0, False), (0.4, False), (0.5, True), (2.0, True)])
def test_predicted_count_reports_hitting_the_row_cap(tiny_model, override, offset, clamped):
    # the count one row below the cap, rounding to the cap, and clamped to it from above
    cap = tiny_model.cfg.max_rows if override is None else override
    tiny_model.params["count.b"].data[...] = [cap + offset]
    res = decode_table("pens mugs .", tiny_model, DecodingConfig(max_rows_override=override), ["item", "qty"])
    assert res.hit_row_cap is clamped
    assert res.table.n_rows == (cap - 1 if offset < 0 else cap)


def test_row_cap_above_max_rows_fails_before_any_cell_is_decoded(tiny_model, monkeypatch):
    sources = []
    monkeypatch.setattr(engine, "ModelCellSource", lambda *args: sources.append(args))
    cfg = DecodingConfig(stopping="semi-templated", max_rows_override=tiny_model.cfg.max_rows + 1)
    with pytest.raises(LayoutError, match="5 rows exceed max_rows 4"):
        decode_table("pens mugs .", tiny_model, cfg, ["item", "qty"])
    assert sources == []


def test_decode_states_reachable_as_training_plans(tiny_model, tiny_vocab):
    # every intermediate (T, C) state must be expressible as a permutation
    # plan: the decode-time instance equals the teacher-forced instance built
    # with filled = committed cells and gold = committed contents
    rng = np.random.default_rng(16)
    random_bias_tables(tiny_model, rng)
    tiny_model.params["count.b"].data[...] = [2.0]
    res = decode_table(
        "the customer bought 3 pens .", tiny_model, DecodingConfig(k=1),
        ["item", "qty"], keep_trace=True,
    )
    n = res.table.n_rows
    if n == 0:
        pytest.skip("count head rounded to zero rows")
    headers_ids = [tiny_vocab.encode(h) for h in ["item", "qty"]]
    tpl = tiny_model.template_for(headers_ids, n)
    committed: dict = {}
    for entry in res.trace:
        dec_inst = instance_for_decoding(tpl, committed)
        all_cells = {c: committed.get(c, [NULL]) for c in tpl.cells}
        train_inst = instance_for_pass(
            tpl, tiny_model.grammar, all_cells, filled_stages(tpl, committed)
        )
        ctx_cells = structure(tpl)
        for coord in committed:
            s = tpl.slot_start[coord]
            ctx_cells[s : s + tpl.slot_len] = True
        assert np.array_equal(dec_inst.stage == 0, train_inst.stage == 0)
        assert np.array_equal(dec_inst.stage == 0, ctx_cells)
        # context region of inputs and visibility agree between both worlds
        # (rows restricted to positions live in both: open slots hold gold
        # tokens when teacher forcing but grow token by token when decoding)
        vis_dec = visibility(dec_inst)
        vis_train = visibility(train_inst)
        ctx_pos = np.where((dec_inst.stage == 0) & ~dec_inst.is_pad)[0]
        both = np.where(~dec_inst.is_pad & ~train_inst.is_pad)[0]
        assert np.array_equal(vis_dec[np.ix_(both, ctx_pos)], vis_train[np.ix_(both, ctx_pos)])
        assert np.array_equal(
            dec_inst.input_ids[dec_inst.stage == 0], train_inst.input_ids[train_inst.stage == 0]
        )
        committed[entry.cell] = entry.tokens


def test_nan_row_count_raises_named_error(tiny_model):
    tiny_model.params["count.b"].data[...] = np.nan
    with pytest.raises(NonFiniteCountError):
        decode_table("pens and mugs .", tiny_model, DecodingConfig(), ["item", "qty"])


@pytest.mark.parametrize("stopping", ["predicted-count", "semi-templated"])
def test_nan_decoder_logits_raise_named_error(tiny_model, stopping):
    tiny_model.params["lm_head"].data[0, :] = np.nan
    tiny_model.params["count.b"].data[...] = [2.0]
    with pytest.raises(NonFiniteLogitsError) as ei:
        decode_table("pens and mugs .", tiny_model, DecodingConfig(stopping=stopping), ["item", "qty"])
    assert ei.value.cells  # the first inner loop already fails, naming its open cells
    assert set(ei.value.cells) <= {(1, 1), (1, 2), (2, 1), (2, 2)}


def test_decoder_passes_are_unforced_token_steps(tiny_model):
    # every position gets the same hidden state, whose logits favour one
    # content token: each cell then runs to the full slot width. The first
    # inner loop is one pass per token step but the last, whose close the
    # grammar forces (the first pass also computes the context); every later
    # one is a single pass, since each open cell repeats its draft
    p = tiny_model.params
    tok = tiny_model.vocab.content_ids()[1]
    p["dec.ln_f.g"].data[...] = 0.0
    p["dec.ln_f.b"].data[...] = np.eye(tiny_model.cfg.d_model)[0]
    p["lm_head"].data[...] = 0.0
    p["lm_head"].data[0, tok] = 5.0
    p["count.b"].data[...] = [3.0]
    headers = ["item", "qty", "price", "total"]
    res = decode_table("pens and mugs .", tiny_model, DecodingConfig(k=1), headers, keep_trace=True)
    l = tiny_model.cfg.max_cell_len
    assert res.table.n_rows == 3 and res.outer_iterations == 12
    assert all(t.truncated and t.tokens == [tok] * (l - 1) for t in res.trace)
    assert res.decoder_passes == (l - 1) + (res.outer_iterations - 1)
    # iteration i re-decodes the 13 - i cells still open, each closing by force
    assert res.forced_tokens == sum(range(1, 13))


@pytest.mark.parametrize("content", ["null", "token"])
def test_a_null_cell_is_never_truncated_even_where_it_fills_the_slot(tiny_model, content):
    # at slot width 2 a cell holds one token, NULL or content, and its close is
    # forced either way; only the content cell was cut short. A trace entry's
    # flag is its committed candidate's
    model = TextToTableModel(replace(tiny_model.cfg, max_cell_len=2), tiny_model.vocab, seed=1)
    tok = NULL if content == "null" else model.vocab.content_ids()[1]
    p = model.params
    p["dec.ln_f.g"].data[...] = 0.0
    p["dec.ln_f.b"].data[...] = np.eye(model.cfg.d_model)[0]
    p["lm_head"].data[...] = 0.0
    p["lm_head"].data[0, tok] = 5.0
    p["count.b"].data[...] = [2.0]
    res = decode_table("pens and mugs .", model, DecodingConfig(k=2), ["item", "qty", "price", "total"],
                       keep_trace=True)
    assert len(res.trace) == 8 and all(t.tokens == [tok] for t in res.trace)
    cut = content == "token"
    assert [t.truncated for t in res.trace] == [cut] * 8
    assert res.truncated_cells == ([t.cell for t in res.trace] if cut else [])
    assert res.counts()["truncated_cells"] == (8 if cut else 0)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_forced_close_has_log_prob_exactly_zero(tiny_model, dtype):
    # the identity that lets the inner loop commit a grammar-forced close
    # without a decoder pass: for any finite logits, end-of-cell alone gets 0
    rng = np.random.default_rng(4)
    shape = (512, len(tiny_model.vocab))
    magnitude = 10.0 ** rng.uniform(-30, 30, size=shape)
    logits = (magnitude * rng.choice([-1.0, 1.0], size=shape)).astype(dtype)
    assert np.isfinite(logits).all()
    lp = _masked_log_softmax(logits, tiny_model.grammar.table[tiny_model.grammar.CLOSE_ONLY])
    assert lp.dtype == dtype
    assert (lp[:, EOC] == 0.0).all()
    assert (lp.argmax(axis=-1) == EOC).all()


@pytest.mark.parametrize("stopping", ["predicted-count", "semi-templated"])
def test_truncated_cells_are_counted_without_a_trace(tiny_model, stopping):
    rng = np.random.default_rng(21)
    random_bias_tables(tiny_model, rng)
    tiny_model.params["count.b"].data[...] = [2.0]
    cfg = DecodingConfig(stopping=stopping, max_rows_override=3)
    traced = decode_table("pens and mugs .", tiny_model, cfg, ["item", "qty"], keep_trace=True)
    plain = decode_table("pens and mugs .", tiny_model, cfg, ["item", "qty"])
    assert plain.trace == [] and traced.truncated_cells
    assert plain.truncated_cells == traced.truncated_cells == [t.cell for t in traced.trace if t.truncated]


def test_input_tokens_dropped_counts_truncated_source(tiny_model, tiny_vocab):
    limit = tiny_model.cfg.max_input_len
    long_text = " ".join(["pens"] * (limit + 17))
    assert decode_table(long_text, tiny_model, DecodingConfig(), ["item"]).input_tokens_dropped == 17
    assert decode_table("pens .", tiny_model, DecodingConfig(), ["item"]).input_tokens_dropped == 0


@pytest.mark.parametrize("stopping", ["predicted-count", "semi-templated"])
def test_header_tokens_dropped_counts_truncated_headers(tiny_model, stopping):
    tiny_model.params["count.b"].data[...] = [1.0]
    l = tiny_model.cfg.max_cell_len
    long_header = " ".join(["price"] * (l + 3))
    assert len(tokenize(long_header)) == l + 3
    cfg = DecodingConfig(stopping=stopping)
    res = decode_table("pens .", tiny_model, cfg, ["item", long_header, "qty " * (l + 1)])
    assert res.header_tokens_dropped == 3 + 1
    assert res.table.headers[1] == long_header  # the table keeps the full header
    assert decode_table("pens .", tiny_model, cfg, ["item", "qty"]).header_tokens_dropped == 0


@pytest.mark.parametrize("text", ["", "   "])
def test_empty_source_text_raises_named_error_before_encoding(tiny_model, monkeypatch, text):
    def no_encode(*args, **kwargs):
        raise AssertionError("encode reached")

    monkeypatch.setattr(tiny_model, "encode", no_encode)
    with pytest.raises(EmptySourceTextError, match="^empty source text$") as ei:
        decode_table(text, tiny_model, DecodingConfig(), ["item", "qty"])
    assert isinstance(ei.value, LayoutError)  # a record the model cannot lay out: exit 2, as train refuses it
