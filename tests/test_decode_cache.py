"""The cached inner loop of ModelCellSource against full recompute.

``FullRecomputeSource`` is the reference: it runs the whole decoder stack
over the whole layout once per token step, as the decoder did before it had
a cache. Every test drives both on the same decoding states and compares the
logits of every token step, keyed by (cell, step): the cached path runs fewer
passes, because its first pass also computes the context and checks each
cell's draft (its candidate from the last inner loop), and it runs none for a
step whose end-of-cell the grammar forces.

The model keeps one decoder bias per template across tables; tests check
that what it hands out equals a fresh gather, that a weight change rebuilds
it, and that a table decodes alike before and after others.
"""

import itertools

import numpy as np
import pytest

from text2table.decoding import (
    CONSTRAINTS,
    STOPPING,
    Candidate,
    DecodingConfig,
    ModelCellSource,
    NonFiniteLogitsError,
    decode_table,
    engine,
)
from text2table.model import ModelConfig, TextToTableModel, collate_instances, instance_for_decoding
from text2table.numerics import Tensor, no_grad
from text2table.training import Trainer, TrainingConfig, prepare_example
from text2table.vocab import EOC, NULL
from util import encode_one, structure, visibility, write_prefixes

HEADERS = ["item", "qty", "price"]
N_ROWS = 3
TEXT = "the customer bought 3 pens and 2 mugs for 4 dollars ."
OTHER_TEXT = "the customer ordered 2 cups for 9 dollars ."
OTHER_HEADERS = ["item", "qty"]
# per float width: the max abs logit difference allowed between the cached and
# the full pass, and the top-2 legal margin above which both must pick the same
# token (float32 differences measured up to 1.3e-5 on these models, whose
# logits reach tens)
TOLERANCE = {64: (1e-12, 1e-9), 32: (1e-4, 1e-3)}


class FullRecomputeSource:
    """Greedy per-cell candidates from one full decoder pass per token step."""

    def __init__(self, model, memory_kv, mem_len, template):
        self.model = model
        self.memory_kv = memory_kv
        self.mem_len = mem_len
        self.template = template

    def candidates(self, committed, cells):
        model, tpl = self.model, self.template
        l = model.cfg.max_cell_len
        grown = {c: Candidate([], []) for c in cells}
        active = list(cells)
        with no_grad():
            while active:
                partial = {c: grown[c].tokens for c in cells}
                inst = write_prefixes(instance_for_decoding(tpl, committed), partial)
                batch = collate_instances([inst])
                hidden = model.decoder_hidden(self.memory_kv, self.mem_len, batch)
                positions = np.array(
                    [tpl.slot_start[c] + len(grown[c].tokens) for c in active], dtype=np.int64
                )
                logits = model.logits_at(hidden, np.searchsorted(batch.rows[0], positions)).data
                still = []
                for row_i, coord in enumerate(active):
                    cand = grown[coord]
                    t_rel = len(cand.tokens)
                    prev = cand.tokens[-1] if cand.tokens else -1
                    legal = model.grammar.table[model.grammar.row_index(t_rel, prev)]
                    lp = _log_softmax(logits[row_i], legal)
                    tok = int(np.argmax(lp))
                    cand.token_logprobs.append(float(lp[tok]))
                    if tok == EOC:
                        cand.truncated = t_rel == l - 1
                        cand.forced_close = np.flatnonzero(legal).tolist() == [EOC]
                    else:
                        cand.tokens.append(tok)
                        still.append(coord)
                active = still
        return grown


def _log_softmax(logits, legal):
    x = np.where(legal, logits, -np.inf)
    mx = x.max()
    return x - mx - np.log(np.where(legal, np.exp(x - mx), 0.0).sum())


def _random_model(vocab, float_width, seed):
    cfg = ModelConfig(
        vocab_size=len(vocab), d_model=16, n_heads=2, n_enc_layers=1, n_dec_layers=2, d_ff=32,
        dropout=0.0, max_cell_len=4, max_rows=4, max_cols=4, max_input_len=128,
        float_width=float_width,
    )
    model = TextToTableModel(cfg, vocab, seed=seed)
    rng = np.random.default_rng(seed)
    for name, t in model.params.items():  # every bias table and norm too, not only the weights
        t.data[...] = t.data + rng.normal(scale=0.5, size=t.shape)
    model.params["count.w"].data[...] = 0.0
    model.params["count.b"].data[...] = N_ROWS
    return model


BIAS_TABLES = ("tab_row", "tab_r0", "tab_col", "tab_loc", "dec_beta")


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _decoded(model, text, headers, cfg):
    """A decode's table and trace, scores as exact hex."""
    res = decode_table(text, model, cfg, headers, keep_trace=True)
    return res.table.to_dict(), [(t.iteration, t.cell, t.score.hex(), t.tokens, t.truncated) for t in res.trace]


def _copy(model):
    """A fresh model holding ``model``'s weights, with nothing kept."""
    fresh = TextToTableModel(model.cfg, model.vocab)
    for name, t in fresh.params.items():
        t.data[...] = model.params[name].data
    return fresh


def _hidden_rows(batch, kw):
    """Template positions of the rows a ``decoder_hidden`` call with keyword
    arguments ``kw`` returns: its batch's rows, or the ``read`` ones."""
    rows, read = batch.rows[0], kw.get("read")
    return rows if read is None else rows[read]


def _slot_steps(tpl):
    """Template position -> (cell, slot position) for every cell slot."""
    return {tpl.slot_start[c] + t: (c, t) for c in tpl.cells for t in range(tpl.slot_len)}


def _scored(cand):
    """Slot positions a pass scored for a candidate: every emitted token but
    a forced close."""
    return len(cand.token_logprobs) - cand.forced_close


def _verify_end(cand, draft):
    """Slot position where the first pass of an inner loop leaves a cell: at
    its first pick that differs from its draft, else at the draft's last
    scored position; at 0 without a draft."""
    if draft is None:
        return 0
    now, was = cand.tokens + [EOC], draft.tokens + [EOC]
    differs = next((t for t, (a, b) in enumerate(zip(now, was)) if a != b), len(was))
    return min(differs, _scored(draft) - 1)


class Recording:
    """Records, while a candidate source runs, every decoder pass's query
    batch and cache and the logits of each (cell, step) it scores. A first
    pass that checks a draft may score a step that a later pass scores again,
    after the cell left its draft; the later score is kept."""

    def __init__(self, model, template):
        self.model = model
        self.steps = _slot_steps(template)

    def run(self, source, committed, cells):
        model = self.model
        self.batches, self.caches, self.logits, self.rows = [], [], {}, []
        hidden_fn, logits_fn = model.decoder_hidden, model.logits_at

        def hidden(memory_kv, mem_len, batch, **kw):
            self.batches.append(batch)
            self.caches.append(kw.get("cache"))
            self.rows.append(_hidden_rows(batch, kw))
            return hidden_fn(memory_kv, mem_len, batch, **kw)

        def logits(hidden, positions):
            out = logits_fn(hidden, positions)
            at = self.rows[-1][positions]
            for row, pos in enumerate(at):
                self.logits[self.steps[int(pos)]] = out.data[row].copy()
            return out

        model.decoder_hidden, model.logits_at = hidden, logits
        try:
            return source.candidates(committed, cells)
        finally:
            del model.decoder_hidden, model.logits_at


class Lockstep:
    """Candidate source that runs the cached and the full path on every
    inner loop, checks them against each other step by step, and returns the
    cached candidates so that decoding follows the cached path."""

    def __init__(self, tol, margin_floor):
        self.tol = tol
        self.margin_floor = margin_floor
        self.runs = 0  # decoder passes of the cached path, summed over the run
        self.skipped = 0  # steps it committed without a pass
        self.null_closes = 0  # skipped steps that closed a NULL cell
        self.left = 0  # cells that left their draft before its last row
        self.outgrew = 0  # cells scored past their draft's rows

    def __call__(self, model, memory_kv, mem_len, template):
        self.model = model
        self.cached = ModelCellSource(model, memory_kv, mem_len, template)
        self.full = FullRecomputeSource(model, memory_kv, mem_len, template)
        self.recording = Recording(model, template)
        self.drafts = {}  # each cell's last cached candidate, as the cached path keeps it per template
        return self

    @property
    def passes(self):
        return self.cached.passes

    @property
    def forced(self):
        return self.cached.forced

    def candidates(self, committed, cells):
        rec = self.recording
        got = rec.run(self.cached, committed, cells)
        got_logits = rec.logits
        # the first pass checks every draft; each later pass moves every cell
        # still growing on by one step past where it left its draft
        ends = {c: _verify_end(got[c], self.drafts.get(c)) for c in cells}
        assert len(rec.batches) == 1 + max(_scored(got[c]) - 1 - ends[c] for c in cells)
        for c, draft in self.drafts.items():
            if c in cells:
                self.left += ends[c] < _scored(draft) - 1
                self.outgrew += _scored(got[c]) > _scored(draft)
        self.drafts.update(got)
        self.runs += len(rec.batches)
        want = rec.run(self.full, committed, cells)
        want_logits = rec.logits
        grammar = self.model.grammar
        for c in cells:
            tokens = want[c].tokens
            assert len(got[c].token_logprobs) == len(got[c].tokens) + 1, (committed, c)
            for t, lp_got in enumerate(got[c].token_logprobs):
                legal = grammar.table[grammar.row_index(t, tokens[t - 1] if t else -1)]
                if t == _scored(got[c]):
                    # a skipped step: the oracle saw only end-of-cell legal
                    # there, and its log-probability is +0.0, bitwise, on both paths
                    assert np.array_equal(legal, grammar.table[grammar.CLOSE_ONLY]), (committed, c, t)
                    assert t == len(got[c].tokens) == len(tokens), (committed, c, t)
                    assert lp_got.hex() == want[c].token_logprobs[t].hex() == (0.0).hex()
                    self.skipped += 1
                    self.null_closes += tokens == [NULL]
                    continue
                a, b = got_logits[(c, t)], want_logits[(c, t)]
                assert np.abs(a - b).max() <= self.tol, (committed, c, t)
                picked_want = tokens[t] if t < len(tokens) else EOC
                picked_got = got[c].tokens[t] if t < len(got[c].tokens) else EOC
                if picked_got != picked_want:
                    top2 = np.sort(b[legal])[-2:]
                    assert top2[1] - top2[0] <= self.margin_floor, (committed, c, t)
                    break  # the paths now decode different prefixes of this cell
            else:
                assert got[c].tokens == tokens
                assert got[c].truncated == want[c].truncated
                # forced exactly when the oracle's last step allowed end-of-cell alone
                assert got[c].forced_close == want[c].forced_close, (committed, c)
                assert np.abs(np.subtract(got[c].token_logprobs, want[c].token_logprobs)).max() <= self.tol
        return got


@pytest.mark.parametrize("float_width", [64, 32])
@pytest.mark.parametrize("stopping", STOPPING)
@pytest.mark.parametrize("k", [1, 2, "all"])
@pytest.mark.parametrize("constraint", CONSTRAINTS)
def test_cached_logits_match_full_recompute(tiny_vocab, monkeypatch, constraint, k, stopping, float_width):
    seed = CONSTRAINTS.index(constraint) * 10 + STOPPING.index(stopping) + 3
    model = _random_model(tiny_vocab, float_width, seed)
    tol, margin_floor = TOLERANCE[float_width]
    lockstep = Lockstep(tol, margin_floor)
    monkeypatch.setattr(engine, "ModelCellSource", lockstep)
    k = N_ROWS * len(HEADERS) if k == "all" else k
    cfg = DecodingConfig(k=k, constraint=constraint, stopping=stopping)
    res = decode_table(TEXT, model, cfg, HEADERS, keep_trace=True)
    assert res.trace
    assert lockstep.runs == res.decoder_passes
    assert lockstep.skipped == res.forced_tokens > 0


def test_null_closes_skip_their_pass_and_match_full_recompute(tiny_vocab, monkeypatch):
    # a NULL logit shifted up so that some cells open with NULL, whose close
    # the grammar forces at slot position 1, and the others run on
    for stopping in STOPPING:
        model = _random_model(tiny_vocab, 64, seed=5)
        model.params["lm_head"].data[:, NULL] += 6.0 * np.sign(model.params["dec.ln_f.b"].data)
        lockstep = Lockstep(*TOLERANCE[64])
        monkeypatch.setattr(engine, "ModelCellSource", lockstep)
        res = decode_table(TEXT, model, DecodingConfig(k=2, stopping=stopping), HEADERS, keep_trace=True)
        nulls = sum(t.tokens == [NULL] for t in res.trace)
        assert 0 < nulls < len(res.trace)
        assert lockstep.null_closes >= nulls
        assert lockstep.runs == res.decoder_passes
        assert lockstep.skipped == res.forced_tokens


@pytest.mark.parametrize("k", [1, 2])
def test_chosen_closes_check_their_drafts_and_match_full_recompute(tiny_vocab, monkeypatch, k):
    # an end-of-cell logit shifted up, so that some cells choose to close
    # before the slot width: their drafts end in a scored close, and a cell
    # that leaves its draft may then grow past the draft's rows
    left = outgrew = 0
    for stopping in STOPPING:
        for constraint in ("none", "row-by-row", "no-distant-rows"):
            model = _random_model(tiny_vocab, 64, seed=CONSTRAINTS.index(constraint) + 11)
            model.params["lm_head"].data[:, EOC] += np.sign(model.params["dec.ln_f.b"].data)
            lockstep = Lockstep(*TOLERANCE[64])
            monkeypatch.setattr(engine, "ModelCellSource", lockstep)
            res = decode_table(TEXT, model, DecodingConfig(k=k, constraint=constraint, stopping=stopping), HEADERS)
            assert lockstep.runs == res.decoder_passes
            assert lockstep.skipped == res.forced_tokens
            left, outgrew = left + lockstep.left, outgrew + lockstep.outgrew
    assert left > 0 and outgrew > 0


class LayoutCheck:
    """Candidate source that runs the cached path and checks each of its
    passes, bitwise, against a layout rebuilt from that step's grown
    prefixes (each cell's draft prefix on the first pass): the query batch's
    input ids against the rebuild's at the query rows, and the finite entries
    of the cache's bias rows there against the rebuild's visibility rows."""

    def __init__(self):
        self.checked = 0

    def __call__(self, model, memory_kv, mem_len, template):
        self.template = template
        self.cached = ModelCellSource(model, memory_kv, mem_len, template)
        self.recording = Recording(model, template)
        self.drafts = {}
        return self

    @property
    def passes(self):
        return self.cached.passes

    @property
    def forced(self):
        return self.cached.forced

    def candidates(self, committed, cells):
        rec, tpl = self.recording, self.template
        got = rec.run(self.cached, committed, cells)
        ends = {c: _verify_end(got[c], self.drafts.get(c)) for c in cells}
        runs = {c: _scored(self.drafts[c]) if c in self.drafts else 1 for c in cells}
        for j, (batch, cache) in enumerate(zip(rec.batches, rec.caches)):
            if j == 0:  # every draft prefix a draft row reads
                partial = {c: self.drafts[c].tokens[: runs[c] - 1] for c in cells if c in self.drafts}
            else:  # every prefix as it was j steps past where its cell left its draft
                partial = {c: got[c].tokens[: ends[c] + j] for c in cells}
            inst = write_prefixes(instance_for_decoding(tpl, committed), partial)
            rows = batch.rows[0]
            if j == 0:  # the context, then every open cell's first position and draft rows
                ctx = np.flatnonzero((inst.stage == 0) & ~inst.is_pad)
                own = [tpl.slot_start[c] + np.arange(runs[c]) for c in cells]
                assert np.array_equal(rows, np.concatenate([ctx, *own]))
            else:  # step ends + j of every cell grown that far
                want = {(c, ends[c] + j) for c in cells if _scored(got[c]) > ends[c] + j}
                assert {rec.steps[int(p)] for p in rows} == want
            assert batch.input_ids.dtype == inst.input_ids.dtype
            assert np.array_equal(batch.input_ids, inst.input_ids[rows][None])
            seen = np.isfinite(cache.bias[:, rows])
            assert np.array_equal(seen, np.broadcast_to(visibility(inst)[rows], seen.shape))
            self.checked += 1
        self.drafts.update(got)
        return got


@pytest.mark.parametrize("stopping", STOPPING)
@pytest.mark.parametrize("k", [1, "all"])
@pytest.mark.parametrize("constraint", ["none", "row-by-row"])
def test_step_layout_equals_per_step_rebuild(tiny_vocab, monkeypatch, constraint, k, stopping):
    model = _random_model(tiny_vocab, 64, seed=CONSTRAINTS.index(constraint) + 7)
    check = LayoutCheck()
    monkeypatch.setattr(engine, "ModelCellSource", check)
    k = N_ROWS * len(HEADERS) if k == "all" else k
    res = decode_table(TEXT, model, DecodingConfig(k=k, constraint=constraint, stopping=stopping), HEADERS)
    assert check.checked == res.decoder_passes > 0


@pytest.mark.parametrize("float_width", [64, 32])
def test_each_template_cache_holds_a_fresh_gather_of_its_bias(tiny_vocab, float_width):
    model = _random_model(tiny_vocab, float_width, seed=2)
    templates = [
        model.template_for([tiny_vocab.encode(h) for h in headers], r)
        for headers in (HEADERS, OTHER_HEADERS)
        for r in range(model.cfg.max_rows + 1)
    ]
    # largest first: each template gets a gather of its own, not a view of a larger one's
    caches = [model.decoder_cache(tpl) for tpl in templates[::-1]][::-1]
    for tpl, cache in zip(templates, caches):
        with no_grad():
            bias = model._decoder_bias(tpl.bias_idx).data
        assert _same_bits(cache.bias, bias)
        with pytest.raises(ValueError):  # read-only
            cache.bias[0, 0, 0] = 0.0
        assert cache.own is tpl.own and np.array_equal(tpl.own, tpl.bias_idx[2] >= tpl.slot_len)
        assert [k.shape for k in cache.keys + cache.values] == [(tpl.length, model.cfg.d_model)] * 4
        assert not any(k.any() for k in cache.keys + cache.values)
        # the same template again: the same bias, new stores
        again = model.decoder_cache(tpl)
        assert again.bias is cache.bias
        assert not any(np.shares_memory(a, b) for a, b in zip(again.keys + again.values, cache.keys + cache.values))
    for (i, a), (j, b) in itertools.combinations(enumerate(caches), 2):
        assert not np.shares_memory(a.bias, b.bias), (templates[i].n_rows, templates[j].n_rows)


@pytest.mark.parametrize("float_width", [64, 32])
def test_visible_cache_hides_the_layout_pairs_and_shares_the_table_stores(tiny_vocab, float_width):
    model = _random_model(tiny_vocab, float_width, seed=4)
    tpl = model.template_for([tiny_vocab.encode(h) for h in HEADERS], N_ROWS)
    inst = instance_for_decoding(tpl, {(1, 2): tiny_vocab.encode("pens"), (3, 1): [NULL]})
    live = ~inst.is_pad
    assert not live.all()  # the committed cells leave padding, which no live row may see
    allow = visibility(inst)[live]  # the oracle's rows at every live query
    assert allow.any() and not allow.all()
    table, other = model.decoder_cache(tpl), model.decoder_cache(tpl)
    folded = table.visible((inst.stage == 0) & live)
    assert folded.bias.dtype == table.bias.dtype
    rows, kept = folded.bias[:, live], table.bias[:, live]
    assert np.array_equal(np.isfinite(rows), np.broadcast_to(allow, rows.shape))
    assert np.array_equal(rows[:, allow], kept[:, allow])
    assert (rows[:, ~allow] == -np.inf).all()
    rng = np.random.default_rng(0)
    rows = np.array([tpl.slot_start[(2, 2)], tpl.slot_start[(3, 3)] + 1])
    for layer in range(model.cfg.n_dec_layers):
        k, v = (rng.normal(size=(len(rows), model.cfg.d_model)).astype(model.cfg.dtype) for _ in "kv")
        keys, values = folded.store(layer, rows, Tensor(k), Tensor(v))
        for stored, want in ((keys.data, k), (values.data, v)):
            assert np.array_equal(stored[rows], want)
        # the folded cache writes its table's stores, and no other cache's of the same template
        assert np.array_equal(table.keys[layer][rows], k) and np.array_equal(table.values[layer][rows], v)
        assert not other.keys[layer].any() and not other.values[layer].any()


def test_first_pass_hidden_matches_full_pass_at_context_and_open_cell_heads(tiny_vocab):
    model = _random_model(tiny_vocab, 64, seed=1)
    ids = tiny_vocab.encode(TEXT)
    header_ids = [tiny_vocab.encode(h) for h in HEADERS]
    tpl = model.template_for(header_ids, N_ROWS)
    committed = {(1, 2): [tiny_vocab.encode("pens")[0]], (3, 1): [2], (2, 3): tiny_vocab.encode("4 dollars")}
    with no_grad():
        memory, lens = encode_one(model, ids)
        inst = instance_for_decoding(tpl, committed)
        batch = collate_instances([inst])
        memory_kv = model.memory_kv(memory)
        full = model.decoder_hidden(memory_kv, lens, batch).data
        context = (inst.stage == 0) & ~inst.is_pad
        ctx = np.flatnonzero(context)
        assert len(ctx) == structure(tpl).sum() + 2 + 2 + 3  # each committed cell: BOS plus its tokens
        heads = [tpl.slot_start[c] for c in tpl.cells if c not in committed]
        rows = np.concatenate([ctx, heads])
        cache = model.decoder_cache(tpl).visible(context)
        first = model.decoder_hidden(memory_kv, lens, collate_instances([inst], rows), cache=cache)
    assert first.shape == (len(rows), model.cfg.d_model)
    assert np.abs(first.data - full[np.searchsorted(batch.rows[0], rows)]).max() <= 1e-12


def test_nonfinite_logits_on_a_later_pass_name_the_cell_of_their_row(tiny_vocab):
    # a NULL logit shifted up, as above, so that the first pass closes some
    # cells by NULL: the second pass then runs only the cells still growing,
    # and its rows are no longer the cells' own order
    model = _random_model(tiny_vocab, 64, seed=5)
    model.params["lm_head"].data[:, NULL] += 6.0 * np.sign(model.params["dec.ln_f.b"].data)
    header_ids = [tiny_vocab.encode(h) for h in HEADERS]
    tpl = model.template_for(header_ids, N_ROWS)
    steps = _slot_steps(tpl)
    with no_grad():
        memory, lens = encode_one(model, tiny_vocab.encode(TEXT))
        source = ModelCellSource(model, model.memory_kv(memory), lens, tpl)
    rows, poisoned = [], []
    hidden_fn, logits_fn = model.decoder_hidden, model.logits_at

    def hidden(memory_kv, mem_len, batch, **kw):
        rows.append(_hidden_rows(batch, kw))
        return hidden_fn(memory_kv, mem_len, batch, **kw)

    def logits(hidden, positions):
        out = logits_fn(hidden, positions)
        if len(rows) == 2:
            at = rows[-1][positions]
            assert 1 < len(at) < len(tpl.cells)  # some cells closed on the first pass
            bad = len(at) // 2
            out.data[bad, 3] = np.nan
            poisoned.append(steps[int(at[bad])])
        return out

    model.decoder_hidden, model.logits_at = hidden, logits
    try:
        with pytest.raises(NonFiniteLogitsError) as ei:
            source.candidates({}, tpl.cells)
    finally:
        del model.decoder_hidden, model.logits_at
    [(cell, t)] = poisoned
    assert t == 1
    assert ei.value.cells == [cell]


def test_nonfinite_logits_on_a_verify_pass_name_the_cells_that_reach_them(tiny_vocab):
    # the second inner loop's first pass checks each open cell's draft: a NaN
    # row at or before a cell's first pick that leaves its draft names that
    # cell, and a NaN row past that pick is never read
    model = _random_model(tiny_vocab, 64, seed=2)
    header_ids = [tiny_vocab.encode(h) for h in HEADERS]
    tpl = model.template_for(header_ids, N_ROWS)
    steps = _slot_steps(tpl)
    with no_grad():
        memory, lens = encode_one(model, tiny_vocab.encode(TEXT))
        memory_kv = model.memory_kv(memory)

    def both_loops(nan_at):
        """Both inner loops of a fresh source, the second after its best cell
        is committed, with NaN logits on the second's first pass at the rows
        of the (cell, step)s ``nan_at``."""
        source = ModelCellSource(model, memory_kv, lens, tpl)
        first = source.candidates({}, tpl.cells)
        best = max(tpl.cells, key=lambda c: first[c].score("max"))
        rows, passes = [], source.passes
        hidden_fn, logits_fn = model.decoder_hidden, model.logits_at

        def hidden(memory_kv, mem_len, batch, **kw):
            rows.append(_hidden_rows(batch, kw))
            return hidden_fn(memory_kv, mem_len, batch, **kw)

        def logits(hidden, positions):
            out = logits_fn(hidden, positions)
            if source.passes == passes + 1:
                at = [steps.get(int(p)) for p in rows[-1][positions]]
                out.data[[i for i, step in enumerate(at) if step in nan_at], 3] = np.nan
            return out

        model.decoder_hidden, model.logits_at = hidden, logits
        try:
            return first, source.candidates({best: first[best].tokens}, [c for c in tpl.cells if c != best])
        finally:
            del model.decoder_hidden, model.logits_at

    first, clean = both_loops(set())
    ends = {c: _verify_end(clean[c], first[c]) for c in clean}
    reached = next(c for c in clean if ends[c] >= 1)
    past = next(c for c in clean if c != reached and ends[c] < _scored(first[c]) - 1)
    with pytest.raises(NonFiniteLogitsError) as ei:
        both_loops({(reached, 1), (past, ends[past] + 1)})
    assert ei.value.cells == [reached]
    assert both_loops({(past, ends[past] + 1)})[1] == clean


class Poisoned:
    """Candidate source that runs the cached path and, before each of its
    passes, fills with 1e4 the cached keys and values of every open slot
    position past its cell's accepted prefix: every one before the first
    pass, which checks the drafts, and from then on each position past the
    step where its cell left its draft, one more per pass. ``loops`` holds
    each inner loop's candidates from an unpoisoned run, which say where
    every cell left its draft."""

    def __init__(self, loops):
        self.loops = iter(loops)

    def __call__(self, model, memory_kv, mem_len, template):
        self.model, self.template = model, template
        self.cached = ModelCellSource(model, memory_kv, mem_len, template)
        self.drafts = {}
        self.poisoned = 0
        return self

    @property
    def passes(self):
        return self.cached.passes

    @property
    def forced(self):
        return self.cached.forced

    def candidates(self, committed, cells):
        model, tpl, want = self.model, self.template, next(self.loops)
        ends = {c: _verify_end(want[c], self.drafts.get(c)) for c in cells}
        hidden_fn, before = model.decoder_hidden, self.cached.passes

        def hidden(memory_kv, mem_len, batch, cache, read):
            j = self.cached.passes - 1 - before  # this pass's index in the inner loop
            prefix = {c: ends[c] + j if j else 0 for c in cells}
            stale = [tpl.slot_start[c] + t for c in cells for t in range(prefix[c], tpl.slot_len)]
            for store in cache.keys + cache.values:
                store[stale] = 1e4
            self.poisoned += len(stale)
            return hidden_fn(memory_kv, mem_len, batch, cache=cache, read=read)

        model.decoder_hidden = hidden
        try:
            got = self.cached.candidates(committed, cells)
        finally:
            del model.decoder_hidden
        self.drafts.update(got)
        return got


@pytest.mark.parametrize("eoc_shift", [0.0, 1.0])  # 1 makes some cells choose an early close
@pytest.mark.parametrize("stopping", STOPPING)
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("constraint", ["none", "row-by-row", "no-distant-rows"])
def test_stale_cache_entries_are_never_read(tiny_vocab, monkeypatch, constraint, k, stopping, eoc_shift):
    model = _random_model(tiny_vocab, 64, seed=CONSTRAINTS.index(constraint) + 11)
    model.params["lm_head"].data[:, EOC] += eoc_shift * np.sign(model.params["dec.ln_f.b"].data)
    cfg = DecodingConfig(k=k, constraint=constraint, stopping=stopping)

    def run():
        res = decode_table(TEXT, model, cfg, HEADERS, keep_trace=True)
        trace = [(t.iteration, t.cell, t.score.hex(), t.tokens, t.truncated) for t in res.trace]
        return res.table, trace, res.decoder_passes, res.forced_tokens

    loops, candidates = [], ModelCellSource.candidates
    with monkeypatch.context() as m:
        m.setattr(ModelCellSource, "candidates", lambda self, *a: loops.append(candidates(self, *a)) or loops[-1])
        clean = run()
    poison = Poisoned(loops)
    monkeypatch.setattr(engine, "ModelCellSource", poison)
    assert run() == clean
    assert poison.poisoned > 0


@pytest.fixture(scope="module")
def training_examples(lineitems_records, tiny_vocab):
    cfg = _random_model(tiny_vocab, 64, seed=0).cfg
    return [prepare_example(r, tiny_vocab, cfg) for r in lineitems_records[:8]]


@pytest.mark.parametrize("change", [*BIAS_TABLES, "training step"])
def test_a_weight_change_rebuilds_the_kept_decoder_bias(tiny_vocab, training_examples, change):
    model = _random_model(tiny_vocab, 64, seed=5)
    cfg = DecodingConfig(k=2)
    before = _decoded(model, TEXT, HEADERS, cfg)  # keeps the biases of this model's template
    tables = [model.params[name].data.copy() for name in BIAS_TABLES]
    if change == "training step":
        Trainer(model, training_examples, TrainingConfig(seed=3, batch_size=4)).training_step(1)
    else:
        t = model.params[change].data
        t += np.random.default_rng(1).normal(scale=0.5, size=t.shape)  # in place: the same array
    changed = [name for name, old in zip(BIAS_TABLES, tables) if not np.array_equal(model.params[name].data, old)]
    assert changed == (list(BIAS_TABLES) if change == "training step" else [change])
    after = _decoded(model, TEXT, HEADERS, cfg)
    assert after == _decoded(_copy(model), TEXT, HEADERS, cfg)
    # the change moves the decode, so biases kept from before it would show
    assert after != before


@pytest.mark.parametrize("stopping", STOPPING)
@pytest.mark.parametrize("k", [1, 4])
def test_a_table_decodes_alike_before_and_after_other_tables(tiny_vocab, monkeypatch, stopping, k):
    model = _random_model(tiny_vocab, 64, seed=9)
    cfg = DecodingConfig(k=k, stopping=stopping)
    # A, then B with A's headers, C with other headers, and A again
    tables = [(TEXT, HEADERS), (OTHER_TEXT, HEADERS), (OTHER_TEXT, OTHER_HEADERS), (TEXT, HEADERS)]
    alone = [_decoded(_random_model(tiny_vocab, 64, seed=9), text, headers, cfg) for text, headers in tables]
    caches, decoder_cache = [], model.decoder_cache
    monkeypatch.setattr(model, "decoder_cache", lambda tpl: caches.append((tpl, decoder_cache(tpl))) or caches[-1][1])
    gathers, gather = [], model._decoder_bias
    monkeypatch.setattr(model, "_decoder_bias", lambda idx: gathers.append(idx) or gather(idx))
    decoded, used = [], []
    for text, headers in tables:
        n = len(caches)
        decoded.append(_decoded(model, text, headers, cfg))
        used.append(caches[n:])
    assert decoded == alone
    assert alone[0] == alone[3] and alone[1] != alone[0] and alone[2] != alone[0]
    # one bias per template (by identity: the model makes one per shape), gathered once for every cache of it
    kept = {}
    for tpl, cache in caches:
        assert cache.bias is kept.setdefault(id(tpl), cache.bias)
    assert len(gathers) == len(kept)
    a, c, again = ([id(tpl) for tpl, _ in u] for u in (used[0], used[2], used[3]))
    assert again == a and not set(a) & set(c)  # the second A decodes on A's templates, with A's biases
