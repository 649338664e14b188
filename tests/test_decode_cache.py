"""The cached inner loop of ModelCellSource against full recompute.

``FullRecomputeSource`` is the reference: it runs the whole decoder stack
over the whole layout once per token step, as the decoder did before it had
a cache. Every test drives both on the same decoding states and compares the
logits of every token step.
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
from text2table.vocab import EOC, tokenize

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

    def __init__(self, model, memory, mem_real, header_ids, n_rows):
        self.model = model
        self.memory = memory
        self.mem_real = mem_real
        self.template = model.template_for(header_ids, n_rows)

    def candidates(self, committed, cells):
        model, tpl = self.model, self.template
        l = model.cfg.max_cell_len
        grown = {c: Candidate([], []) for c in cells}
        active = list(cells)
        with no_grad():
            while active:
                partial = {c: grown[c].tokens for c in cells}
                inst = instance_for_decoding(tpl, model.vocab, committed, partial)
                batch = collate_instances([inst], model.cfg)
                hidden = model.decoder_hidden(self.memory, self.mem_real, batch)
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


class Lockstep:
    """Candidate source that runs the cached and the full path on every
    inner loop, checks them against each other, and returns the cached
    candidates so that decoding follows the cached path."""

    def __init__(self, tol, margin_floor):
        self.tol = tol
        self.margin_floor = margin_floor
        self.steps = 0  # token steps of the cached path, summed over the run

    def __call__(self, model, memory, mem_real, header_ids, n_rows):
        self.model = model
        self.cached = ModelCellSource(model, memory, mem_real, header_ids, n_rows)
        self.full = FullRecomputeSource(model, memory, mem_real, header_ids, n_rows)
        return self

    @property
    def passes(self):
        return self.cached.passes

    def _run(self, source, committed, cells):
        steps = []
        plain = self.model.logits_at

        def recording(hidden, positions):
            out = plain(hidden, positions)
            steps.append(out.data.copy())
            return out

        self.model.logits_at = recording
        try:
            return source.candidates(committed, cells), steps
        finally:
            del self.model.logits_at

    def candidates(self, committed, cells):
        got, got_steps = self._run(self.cached, committed, cells)
        want, want_steps = self._run(self.full, committed, cells)
        self.steps += len(got_steps)
        grammar = self.model.grammar
        for j, (a, b) in enumerate(zip(got_steps, want_steps)):
            active = [c for c in cells if len(want[c].tokens) >= j]
            assert a.shape == b.shape == (len(active), self.model.cfg.vocab_size)
            assert np.abs(a - b).max() <= self.tol, (committed, j)
            diverged = False
            for row, c in enumerate(active):
                tokens = want[c].tokens
                picked_want = tokens[j] if j < len(tokens) else EOC
                picked_got = got[c].tokens[j] if j < len(got[c].tokens) else EOC
                if picked_got == picked_want:
                    continue
                legal = grammar.legal_row(j, tokens[j - 1] if j else -1)
                top2 = np.sort(b[row][legal])[-2:]
                assert top2[1] - top2[0] <= self.margin_floor, (committed, c, j)
                diverged = True
            if diverged:  # the paths now decode different prefixes
                return got
        assert len(got_steps) == len(want_steps)
        for c in cells:
            assert got[c].tokens == want[c].tokens
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
    assert lockstep.steps + res.outer_iterations == res.decoder_passes


def test_prefill_hidden_matches_full_pass_at_context_positions(tiny_vocab):
    model = _random_model(tiny_vocab, 64, seed=1)
    ids = tiny_vocab.encode(TEXT)
    header_ids = [tiny_vocab.encode_tokens(tokenize(h)) for h in HEADERS]
    tpl = model.template_for(header_ids, N_ROWS)
    committed = {(1, 2): [tiny_vocab.encode("pens")[0]], (3, 1): [2], (2, 3): tiny_vocab.encode("4 dollars")}
    with no_grad():
        memory, real = model.encode_source(ids)
        inst = instance_for_decoding(tpl, tiny_vocab, committed, {})
        batch = collate_instances([inst], model.cfg)
        full = model.decoder_hidden(memory, real, batch).data
        rows = np.flatnonzero(inst.is_ctx & ~inst.is_pad)
        assert len(rows) == tpl.is_struct.sum() + 2 + 2 + 3  # each committed cell: BOS plus its tokens
        cache = model.decoder_cache(memory, tpl)
        prefill = model.decoder_hidden(memory, real, collate_instances([inst], model.cfg, rows), cache=cache)
    assert prefill.shape == (len(rows), model.cfg.d_model)
    assert np.abs(prefill.data - full[np.searchsorted(batch.rows[0], rows)]).max() <= 1e-12
