"""The cached inner loop of ModelCellSource against full recompute.

``FullRecomputeSource`` is the reference: it runs the whole decoder stack
over the whole layout once per token step, as the decoder did before it had
a cache. Every test drives both on the same decoding states and compares the
logits of every token step, keyed by (cell, step): the cached path runs fewer
passes, because its first pass also computes the context and it runs none for
a step whose end-of-cell the grammar forces.
"""

import numpy as np
import pytest

from text2table.decoding import (
    CONSTRAINTS,
    STOPPING,
    Candidate,
    DecodingConfig,
    ModelCellSource,
    decode_table,
    engine,
)
from text2table.model import ModelConfig, TextToTableModel, collate_instances, instance_for_decoding
from text2table.numerics import no_grad
from text2table.vocab import EOC, NULL, tokenize
from util import encode_one, structure, write_prefixes

HEADERS = ["item", "qty", "price"]
N_ROWS = 3
TEXT = "the customer bought 3 pens and 2 mugs for 4 dollars ."
# per float width: the max abs logit difference allowed between the cached and
# the full pass, and the top-2 legal margin above which both must pick the same
# token (float32 differences measured up to 1.3e-5 on these models, whose
# logits reach tens)
TOLERANCE = {64: (1e-12, 1e-9), 32: (1e-4, 1e-3)}


class FullRecomputeSource:
    """Greedy per-cell candidates from one full decoder pass per token step."""

    def __init__(self, model, memory, mem_len, template):
        self.model = model
        self.memory = memory
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
                inst = write_prefixes(instance_for_decoding(tpl, model.vocab, committed), partial)
                batch = collate_instances([inst])
                hidden = model.decoder_hidden(self.memory, self.mem_len, batch)
                positions = np.array(
                    [tpl.slot_start[c] + len(grown[c].tokens) for c in active], dtype=np.int64
                )
                logits = model.logits_at(hidden, np.searchsorted(batch.rows[0], positions)).data
                still = []
                for row_i, coord in enumerate(active):
                    cand = grown[coord]
                    t_rel = len(cand.tokens)
                    prev = cand.tokens[-1] if cand.tokens else -1
                    lp = _log_softmax(logits[row_i], model.grammar.legal_row(t_rel, prev))
                    tok = int(np.argmax(lp))
                    cand.token_logprobs.append(float(lp[tok]))
                    if tok == EOC:
                        cand.truncated = t_rel == l - 1
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


def _slot_steps(tpl):
    """Template position -> (cell, slot position) for every cell slot."""
    return {tpl.slot_start[c] + t: (c, t) for c in tpl.cells() for t in range(tpl.slot_len)}


class Recording:
    """Records, while a candidate source runs, every decoder pass's query
    batch and the logits of each (cell, step) it scores."""

    def __init__(self, model, template):
        self.model = model
        self.steps = _slot_steps(template)

    def run(self, source, committed, cells):
        model = self.model
        self.batches, self.logits = [], {}
        hidden_fn, logits_fn = model.decoder_hidden, model.logits_at

        def hidden(memory, mem_len, batch, **kw):
            self.batches.append(batch)
            return hidden_fn(memory, mem_len, batch, **kw)

        def logits(hidden, positions):
            out = logits_fn(hidden, positions)
            at = self.batches[-1].rows[0][positions]
            for row, pos in enumerate(at):
                assert self.steps[int(pos)] not in self.logits  # one score per step
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

    def __call__(self, model, memory, mem_len, template, cache):
        self.model = model
        self.cached = ModelCellSource(model, memory, mem_len, template, cache)
        self.full = FullRecomputeSource(model, memory, mem_len, template)
        self.recording = Recording(model, template)
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
        # one pass per step that scores some cell: the steps run in lockstep
        assert len(rec.batches) == 1 + max(t for _, t in got_logits)
        self.runs += len(rec.batches)
        want = rec.run(self.full, committed, cells)
        want_logits = rec.logits
        grammar = self.model.grammar
        for c in cells:
            tokens = want[c].tokens
            for t, lp_got in enumerate(got[c].token_logprobs):
                legal = grammar.legal_row(t, tokens[t - 1] if t else -1)
                if (c, t) not in got_logits:
                    # a skipped step: the oracle saw only end-of-cell legal
                    # there, and its log-probability is +0.0, bitwise, on both paths
                    assert legal is grammar.close_only, (committed, c, t)
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


class LayoutCheck:
    """Candidate source that runs the cached path and checks each of its
    passes' input ids and visibility rows, bitwise, against the query batch
    of a layout rebuilt from that step's grown prefixes."""

    def __init__(self):
        self.checked = 0

    def __call__(self, model, memory, mem_len, template, cache):
        self.model, self.template = model, template
        self.cached = ModelCellSource(model, memory, mem_len, template, cache)
        self.recording = Recording(model, template)
        return self

    @property
    def passes(self):
        return self.cached.passes

    @property
    def forced(self):
        return self.cached.forced

    def candidates(self, committed, cells):
        rec, tpl, model = self.recording, self.template, self.model
        got = rec.run(self.cached, committed, cells)
        for j, batch in enumerate(rec.batches):
            partial = {c: got[c].tokens[:j] for c in cells}  # every prefix as it was at step j
            inst = write_prefixes(instance_for_decoding(tpl, model.vocab, committed), partial)
            rows = batch.rows[0]
            if j == 0:  # the context and every open cell's first position
                ctx = np.flatnonzero((inst.stage == 0) & ~inst.is_pad)
                assert np.array_equal(rows, np.concatenate([ctx, [tpl.slot_start[c] for c in cells]]))
            else:  # step j of cells grown to j tokens
                assert {rec.steps[int(p)] for p in rows} <= {(c, j) for c in cells if len(got[c].tokens) >= j}
            want = collate_instances([inst], rows)
            assert batch.input_ids.dtype == want.input_ids.dtype and batch.allow.dtype == want.allow.dtype
            assert np.array_equal(batch.input_ids, want.input_ids)
            assert np.array_equal(batch.allow, want.allow)
            self.checked += 1
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


def test_cache_prefix_equals_the_cache_of_fewer_rows(tiny_vocab):
    model = _random_model(tiny_vocab, 64, seed=2)
    header_ids = [tiny_vocab.encode_tokens(tokenize(h)) for h in HEADERS]
    with no_grad():
        memory, _ = encode_one(model, tiny_vocab.encode(TEXT))
        largest = model.decoder_cache(memory, model.template_for(header_ids, model.cfg.max_rows))
        for r in range(1, model.cfg.max_rows + 1):
            tpl = model.template_for(header_ids, r)
            own, view = model.decoder_cache(memory, tpl), largest.prefix(tpl.length)
            assert np.array_equal(view.bias, own.bias)
            assert [k.shape for k in view.keys + view.values] == [k.shape for k in own.keys + own.values]
            assert view.cross is largest.cross
        with pytest.raises(ValueError):
            largest.prefix(len(largest.keys[0]) + 1)


def test_first_pass_hidden_matches_full_pass_at_context_and_open_cell_heads(tiny_vocab):
    model = _random_model(tiny_vocab, 64, seed=1)
    ids = tiny_vocab.encode(TEXT)
    header_ids = [tiny_vocab.encode_tokens(tokenize(h)) for h in HEADERS]
    tpl = model.template_for(header_ids, N_ROWS)
    committed = {(1, 2): [tiny_vocab.encode("pens")[0]], (3, 1): [2], (2, 3): tiny_vocab.encode("4 dollars")}
    with no_grad():
        memory, lens = encode_one(model, ids)
        inst = instance_for_decoding(tpl, tiny_vocab, committed)
        batch = collate_instances([inst])
        full = model.decoder_hidden(memory, lens, batch).data
        ctx = np.flatnonzero((inst.stage == 0) & ~inst.is_pad)
        assert len(ctx) == structure(tpl).sum() + 2 + 2 + 3  # each committed cell: BOS plus its tokens
        heads = [tpl.slot_start[c] for c in tpl.cells() if c not in committed]
        rows = np.concatenate([ctx, heads])
        cache = model.decoder_cache(memory, tpl)
        first = model.decoder_hidden(memory, lens, collate_instances([inst], rows), cache=cache)
    assert first.shape == (len(rows), model.cfg.d_model)
    assert np.abs(first.data - full[np.searchsorted(batch.rows[0], rows)]).max() <= 1e-12
