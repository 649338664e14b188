"""Model-guided, grammar-constrained table filling.

An outer loop repeatedly asks the inner loop for a complete greedy candidate
of every eligible undecoded cell (candidates are mutually independent given
the committed cells), aggregates the log-probabilities of the tokens the
model chose for each candidate into a cell score (an end-of-cell mark the
grammar forced is no choice and does not count), sorts eligible cells by
score, and commits up to k of them. Decoding-order constraints limit which
undecoded cells are eligible per iteration. Stopping is either a template with an upfront predicted row
count or the semi-templated variant that grows the template row by row until
an all-NULL sentinel row appears.

The neural inner loop (:class:`ModelCellSource`) decodes all eligible cells
in parallel against a decoder cache built once per template: its first pass
checks every cell's draft, the candidate the cell gave in the last inner
loop, and each later pass moves every cell that left its draft on by one
token step. Its docstring says why that gives the same candidates as a full
pass over the whole layout per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from ..model import TableTemplate, TextToTableModel, collate_instances, instance_for_decoding
from ..model.layout import Coord, check_shape, encode_record, row_major_order
from ..numerics import no_grad
from ..table import Table
from ..vocab import BOS, EOC, NULL, Vocabulary

INNER_CRITERIA = ("min", "max", "mean")
OUTER_CRITERIA = ("max-first", "min-first")
CONSTRAINTS = ("none", "column-by-column", "row-by-row", "left-right-top-bottom", "no-distant-rows")
STOPPING = ("predicted-count", "semi-templated")


class DecodingConfigError(ValueError):
    pass


class NonFiniteCountError(ValueError):
    """The row-count head gave NaN or infinity, so no template can be sized."""

    def __init__(self, count: float):
        self.count = count
        super().__init__(f"row-count head gave a non-finite value ({count})")


class NonFiniteLogitsError(ValueError):
    """The decoder gave NaN or infinite logits, so no token can be chosen."""

    def __init__(self, cells: list[Coord]):
        self.cells = cells
        super().__init__(f"decoder gave non-finite logits for cells {cells}")


@dataclass
class DecodingConfig:
    k: int = 1
    inner_criterion: str = "max"
    outer_criterion: str = "max-first"
    constraint: str = "none"
    stopping: str = "predicted-count"
    max_rows_override: int | None = None

    def __post_init__(self):
        if self.k < 1:
            raise DecodingConfigError("k must be >= 1")
        if self.inner_criterion not in INNER_CRITERIA:
            raise DecodingConfigError(f"inner_criterion must be one of {INNER_CRITERIA}")
        if self.outer_criterion not in OUTER_CRITERIA:
            raise DecodingConfigError(f"outer_criterion must be one of {OUTER_CRITERIA}")
        if self.constraint not in CONSTRAINTS:
            raise DecodingConfigError(f"constraint must be one of {CONSTRAINTS}")
        if self.stopping not in STOPPING:
            raise DecodingConfigError(f"stopping must be one of {STOPPING}")
        if self.max_rows_override is not None and self.max_rows_override < 1:
            raise DecodingConfigError("max_rows_override must be >= 1")


@dataclass
class Candidate:
    tokens: list[int]  # content ids, end-of-cell excluded
    token_logprobs: list[float]  # every emitted token including end-of-cell
    truncated: bool = False  # cut at the slot width (see cut_at_slot)
    forced_close: bool = False  # the grammar forced the end-of-cell (log-probability 0)

    def score(self, criterion: str) -> float:
        """Aggregate of the log-probabilities of the tokens the model chose; a
        forced end-of-cell is left out, so it cannot pass for confidence."""
        chosen = self.token_logprobs[:-1] if self.forced_close else self.token_logprobs
        agg = {"min": min, "max": max, "mean": lambda v: sum(v) / len(v)}[criterion]
        return float(agg(chosen))


class CellCandidateSource(Protocol):
    """Produces greedy candidates for undecoded cells given committed ones."""

    def candidates(
        self, committed: dict[Coord, list[int]], cells: list[Coord]
    ) -> dict[Coord, Candidate]: ...


@dataclass
class DecodingState:
    n_rows: int
    n_cols: int
    committed: dict[Coord, list[int]] = field(default_factory=dict)  # in commit order

    def undecoded(self) -> list[Coord]:
        return [c for c in row_major_order(self.n_rows, self.n_cols) if c not in self.committed]

    def done(self) -> bool:
        return len(self.committed) == self.n_rows * self.n_cols


@dataclass
class TraceEntry:
    iteration: int
    cell: Coord
    score: float
    tokens: list[int]
    truncated: bool


def cut_at_slot(tokens: list[int], max_cell_len: int) -> bool:
    """Whether a cell's content was cut at the slot width: it fills the slot,
    so the grammar closed it. A NULL cell is complete at any width, so it is
    never cut, even where NULL alone fills the slot."""
    return len(tokens) == max_cell_len - 1 and tokens != [NULL]


def rows_from_count(pred: float, max_rows: int) -> int:
    """Round half up, clamp into [0, max_rows]."""
    return max(0, min(max_rows, int(np.floor(pred + 0.5))))


# ---------------------------------------------------------------------------
# constraint eligibility
# ---------------------------------------------------------------------------


def apply_constraint(state: DecodingState, cfg: DecodingConfig) -> list[Coord]:
    """Eligible undecoded cells under the active decoding-order constraint.

    The row-by-row and column-by-column rules seed their active line with the
    first commit (``state.committed`` keeps commit order) and then move to the
    lowest unfinished line.
    """
    undecoded = state.undecoded()
    if cfg.constraint == "none":
        return undecoded
    if cfg.constraint in _LINE_AXIS:
        return _line_cells(undecoded, next(iter(state.committed), None), _LINE_AXIS[cfg.constraint])
    if cfg.constraint == "left-right-top-bottom":
        return [min(undecoded, key=lambda rc: (rc[0], rc[1]))] if undecoded else []
    if cfg.constraint == "no-distant-rows":
        decoded = set(state.committed)
        return [
            (r, c)
            for (r, c) in undecoded
            if all((rr, c) in decoded for rr in range(1, r))
        ]
    raise DecodingConfigError(cfg.constraint)


_LINE_AXIS = {"row-by-row": 0, "column-by-column": 1}  # coordinate that names a cell's line


def _line_cells(undecoded: list[Coord], first: Coord | None, axis: int) -> list[Coord]:
    """Undecoded cells of the active line (a row for axis 0, a column for
    axis 1): every cell before the first commit, then the first commit's line
    while it has undecoded cells, then the lowest unfinished line."""
    if first is None:
        return undecoded
    lines = {rc[axis] for rc in undecoded}
    line = first[axis]
    if line not in lines:
        line = min(lines, default=None)
    return [rc for rc in undecoded if rc[axis] == line]


def outer_criterion(scores: dict[Coord, float], cfg: DecodingConfig) -> list[Coord]:
    """Coordinates sorted by score; ties break on (row, column) order."""
    reverse = cfg.outer_criterion == "max-first"
    if reverse:
        return sorted(scores, key=lambda rc: (-scores[rc], rc[0], rc[1]))
    return sorted(scores, key=lambda rc: (scores[rc], rc[0], rc[1]))


# ---------------------------------------------------------------------------
# neural candidate source
# ---------------------------------------------------------------------------


class ModelCellSource:
    """Greedy per-cell decoding with grammar-masked logits, all open cells in
    parallel, over the decoder cache of one template of one table.

    Each :meth:`candidates` call is one inner loop. A cell's draft is the
    candidate it gave in the source's last inner loop (the first has none):

    - The first pass runs the context positions (headers, row markers,
      committed cells) and, per open cell, its BOS position and every slot
      position the last inner loop scored for it, whose inputs are the
      draft's tokens. Every layer stores its keys and values in the cache
      before it attends, and context never attends to an open slot, so the
      context entries are exact and stay fixed for the whole inner loop. A
      context row serves only as a key and value, so it stops after the last
      layer's key and value projections; only the open rows run the rest of
      that layer (the ``read`` rows of
      :meth:`TextToTableModel.decoder_hidden`).
    - A cell takes the picks of its first-pass rows while they repeat its
      draft, up to and including its first pick that differs (or its last
      row). A row sees its own cell up to itself and no other open slot, so
      each row up to that pick reads the cell's true prefix and gives the
      logits a pass per step would; the rows past it read stale draft
      tokens, and what they scored is dropped.
    - Each later pass runs the next position of every candidate still
      growing, each at its own slot position. That position stores its keys
      and values before it attends to the cached context and to its own
      cell's earlier positions, so no query reads a stale draft entry before
      it is rewritten, and the hidden state is that of a full pass.
    - A candidate whose next token the grammar forces to end-of-cell (after
      NULL, or at the final slot position) takes it with log-probability 0,
      which the masked log-softmax gives for any finite logits, and leaves
      the pass; the forced close does not count toward the cell's score, and
      it is no draft row. A step where every candidate is forced runs no
      pass. So no row is at a close-only position, and no later row at slot
      position 0: the first pass scores against ``OPEN_FIRST`` at slot
      position 0 and ``MID`` elsewhere, every later pass against ``MID``.

    The state is arrays: ``at`` and ``ts`` hold the cell and slot position
    of each open row of a pass, and ``tokens`` and ``logprobs`` [n, l] what
    each cell emitted, filled with end-of-cell and 0 (what a forced close
    emits; the first pass resets there what it scored past a cell's end). A
    pass looks up which cells grow in :attr:`GrammarMasks.grows` and stores
    their tokens into the layout with one indexed write. The layout is built
    once per inner loop with every open slot live. Visibility is lower stage
    or own prefix over live positions, so every row a pass queries sees the
    live stage-0 positions (the context) and its own prefix, as in the grown
    layout; the context is folded into the cache's bias once per inner loop
    (:meth:`DecoderCache.visible`), so a pass sends only its rows and their
    input ids. The candidates are built when the loop ends; whether a close
    was forced follows from a cell's tokens by
    :meth:`GrammarMasks.row_index`. A row with non-finite logits gets NaN
    log-probabilities and picks PAD, which repeats no draft; the loop names
    every cell that took one (:class:`NonFiniteLogitsError`).

    ``memory_kv`` holds the source text's cross-attention keys and values per
    layer (:meth:`TextToTableModel.memory_kv`), built once per table.
    ``passes`` counts decoder calls and ``forced`` the end-of-cell marks
    committed without one.

    A pass is many small numpy calls, so what does not change from pass to
    pass is built outside it. Once per source (one per template of a table):
    the template's decoder cache (:meth:`TextToTableModel.decoder_cache`),
    whose bias the model gathers once per template and keeps across tables,
    and whose key and value stores are the source's own. Once per inner
    loop: the layout, the visible cache with its own key and value Tensors,
    the draft arrays, and the first pass's rows and read rows (its open rows,
    after the context).
    Per pass, only what follows from its rows: the query batch of their
    input ids, the bias rows of its queries (in
    :meth:`TextToTableModel.decoder_hidden`), one index over its rows, and
    its picks. A later pass runs no context row and reads every row it runs,
    so it passes no ``read``.
    """

    def __init__(self, model: TextToTableModel, memory_kv, mem_len, template: TableTemplate):
        self.model = model
        self.memory_kv = memory_kv
        self.mem_len = mem_len
        self.template = template
        self.cache = model.decoder_cache(template)
        self.passes = 0
        self.forced = 0
        self.drafts: dict[Coord, list[int]] = {}  # per cell: its first-pass row inputs (BOS, draft), -1 past them

    def candidates(
        self, committed: dict[Coord, list[int]], cells: list[Coord]
    ) -> dict[Coord, Candidate]:
        model, tpl, grammar = self.model, self.template, self.model.grammar
        l = model.cfg.max_cell_len
        starts = np.array([tpl.slot_start[c] for c in cells], dtype=np.int64)
        slots = np.array([self.drafts.get(c, [BOS] + [-1] * (l - 1)) for c in cells])
        at, ts = np.nonzero(slots >= 0)  # the cell and slot position of each open row of a pass
        first = ts == 0
        heads = np.flatnonzero(first)  # each cell's first open row on the first pass
        expect = slots[at, ts + 1]  # the pick that moves a row's cell on to its next draft row, else -1
        legal = grammar.table[np.where(first, grammar.OPEN_FIRST, grammar.MID)]
        tokens = np.full((len(cells), l), EOC, dtype=np.int64)
        logprobs = np.zeros((len(cells), l))
        with no_grad():
            inst = instance_for_decoding(tpl, committed)
            context = (inst.stage == 0) & ~inst.is_pad
            cache = self.cache.visible(context)
            rows = starts[at] + ts
            inst.input_ids[rows] = slots[at, ts]
            rows = np.concatenate([np.flatnonzero(context), rows])
            read = np.arange(len(rows) - at.size, len(rows))  # the first pass reads its open rows, after the context
            while at.size:
                self.passes += 1
                batch = collate_instances([inst], rows)
                hidden = model.decoder_hidden(self.memory_kv, self.mem_len, batch, cache=cache, read=read)
                idx = np.arange(at.size)  # this pass's rows of hidden and logits
                logits = model.logits_at(hidden, idx).data
                if not np.isfinite(logits).all():  # a NaN row's log-probabilities are NaN, which names its cell
                    logits[~np.isfinite(logits).all(axis=-1)] = np.nan
                lp = _masked_log_softmax(logits, legal)
                picks = lp.argmax(axis=-1)
                tokens[at, ts] = picks
                logprobs[at, ts] = lp[idx, picks]
                if at.size > heads.size:  # drafts: a cell goes up to its first row whose pick leaves its draft
                    end = np.minimum.reduceat(np.where(picks == expect, at.size, idx), heads)
                    past = idx > end[at]  # rows that read a stale draft token
                    tokens[at[past], ts[past]], logprobs[at[past], ts[past]] = EOC, 0.0
                    at, ts, picks = at[end], ts[end], picks[end]
                grows = grammar.grows[ts, picks]
                at, ts = at[grows], ts[grows] + 1
                rows = starts[at] + ts
                inst.input_ids[rows] = picks[grows]
                read = None  # a later pass runs no context row, so it reads every row it runs
                legal = grammar.table[grammar.MID]  # a live cell is never at slot position 0 or close-only
        if np.isnan(logprobs).any():
            raise NonFiniteLogitsError([c for c, bad in zip(cells, np.isnan(logprobs).any(axis=-1)) if bad])
        n_tok = (tokens != EOC).sum(axis=-1)  # content ends at a cell's first end-of-cell
        forced = grammar.row_index(n_tok, tokens[np.arange(len(cells)), n_tok - 1]) == grammar.CLOSE_ONLY
        self.forced += int(forced.sum())
        per_cell = list(zip(cells, tokens.tolist(), logprobs.tolist(), n_tok.tolist(), forced.tolist()))
        self.drafts.update((c, [BOS] + tok[: n - fc] + [-1] * (l - 1 - n + fc)) for c, tok, _, n, fc in per_cell)
        return {c: Candidate(tok[:n], lps[: n + 1], cut_at_slot(tok[:n], l), fc) for c, tok, lps, n, fc in per_cell}


def _masked_log_softmax(logits: np.ndarray, legal: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax over the legal entries; illegal ones get -inf."""
    x = np.where(legal, logits, -np.inf)
    x -= np.maximum.reduce(x, axis=-1, keepdims=True)
    z = np.add.reduce(np.exp(x), axis=-1, keepdims=True)  # an illegal entry adds exp(-inf) = 0
    x -= np.log(z, out=z)
    return x


# ---------------------------------------------------------------------------
# outer loop
# ---------------------------------------------------------------------------


class InnerLoopError(RuntimeError):
    """Raised when no constraint-eligible undecoded cell exists."""


def inner_loop(
    source: CellCandidateSource,
    state: DecodingState,
    cfg: DecodingConfig,
) -> tuple[dict[Coord, Candidate], dict[Coord, float]]:
    """Complete greedy candidates plus aggregated scores for eligible cells."""
    eligible = apply_constraint(state, cfg)
    if not eligible:
        raise InnerLoopError("no undecoded cell is eligible under the active constraint")
    cands = source.candidates(dict(state.committed), eligible)
    scores = {c: cand.score(cfg.inner_criterion) for c, cand in cands.items()}
    return cands, scores


def run_outer_loop(
    source: CellCandidateSource,
    state: DecodingState,
    cfg: DecodingConfig,
    *,
    trace: list[TraceEntry] | None = None,
    iteration_offset: int = 0,
) -> int:
    """Fill every undecoded cell; returns outer iteration count."""
    iteration = 0
    while not state.done():
        iteration += 1
        cands, scores = inner_loop(source, state, cfg)
        ranked = outer_criterion(scores, cfg)
        committed_now = 0
        while committed_now < cfg.k:
            eligible_now = set(apply_constraint(state, cfg))
            pick = next(
                (c for c in ranked if c not in state.committed and c in eligible_now), None
            )
            if pick is None:
                break
            cand = cands[pick]
            state.committed[pick] = list(cand.tokens)
            committed_now += 1
            if trace is not None:
                trace.append(
                    TraceEntry(
                        iteration + iteration_offset,
                        pick,
                        scores[pick],
                        list(cand.tokens),
                        cand.truncated,
                    )
                )
        if committed_now == 0:
            raise InnerLoopError("outer loop failed to commit any cell")
    return iteration


def semi_templated_stop(state: DecodingState, row: int) -> bool:
    """True when the given completed row is the all-NULL sentinel."""
    return all(state.committed[(row, c)] == [NULL] for c in range(1, state.n_cols + 1))


# ---------------------------------------------------------------------------
# end-to-end decode
# ---------------------------------------------------------------------------


DECODE_COUNTS = ("outer_iterations", "decoder_passes", "tokens", "forced_tokens", "truncated_cells",
                 "row_cap_hits", "input_tokens_dropped", "header_tokens_dropped")


@dataclass
class DecodeResult:
    table: Table
    trace: list[TraceEntry]
    outer_iterations: int
    predicted_count: float | None
    hit_row_cap: bool = False  # no sentinel row before the cap (semi-templated), or the predicted count clamped at it
    decoder_passes: int = 0  # decoder calls: per inner loop, one for its drafts, one per later step some cell takes
    tokens: int = 0  # table tokens produced: each committed cell's tokens and its end-of-cell
    forced_tokens: int = 0  # end-of-cell marks the grammar forced, committed with no decoder pass
    input_tokens_dropped: int = 0  # source token ids cut off at max_input_len
    header_tokens_dropped: int = 0  # header token ids cut at max_cell_len
    truncated_cells: list[Coord] = field(default_factory=list)  # in commit order, cut at the slot width

    def counts(self) -> dict[str, int]:
        """The table's decode counts, which ``decode`` totals in its ``.meta.json``."""
        values = (self.outer_iterations, self.decoder_passes, self.tokens, self.forced_tokens,
                  len(self.truncated_cells), int(self.hit_row_cap), self.input_tokens_dropped,
                  self.header_tokens_dropped)
        return dict(zip(DECODE_COUNTS, values))


def _cell_to_value(vocab: Vocabulary, tokens: list[int]) -> str | None:
    if tokens == [NULL]:
        return None
    return vocab.decode_content(tokens)


def _state_to_table(vocab: Vocabulary, state: DecodingState, headers: list[str], n_rows: int) -> Table:
    rows = [
        [_cell_to_value(vocab, state.committed[(r, c)]) for c in range(1, state.n_cols + 1)]
        for r in range(1, n_rows + 1)
    ]
    return Table(list(headers), rows)


def decode_table(
    text: str,
    model: TextToTableModel,
    cfg: DecodingConfig,
    headers: list[str],
    *,
    keep_trace: bool = False,
) -> DecodeResult:
    """Decode one table from raw text with the configured strategy; a record
    the model cannot lay out is a ``LayoutError`` before the encoder runs.

    What one table leaves for the next is the model's decoder biases, one per
    template, kept while the bias tables hold the same bytes
    (:meth:`TextToTableModel.decoder_cache`). The encoder memory, its
    cross-attention keys and values and the self-attention key and value
    stores are the table's own, so the result does not depend on the tables
    decoded before it. Semi-templated stopping never reads the row-count
    head, so it does not run it and ``predicted_count`` is ``None``."""
    vocab = model.vocab
    enc = encode_record(vocab, model.cfg, text, headers)
    semi = cfg.stopping == "semi-templated"
    with no_grad():
        mem_len = [len(enc.source_ids)]
        memory = model.encode(enc.source_ids, mem_len)
        count = None if semi else float(model.count_pred(memory, mem_len).data[0])
        memory_kv = model.memory_kv(memory)
    max_rows = model.cfg.max_rows if cfg.max_rows_override is None else cfg.max_rows_override
    trace: list[TraceEntry] | None = [] if keep_trace else None

    # Predicted-count stopping decodes one block of n rows, n = 0 included:
    # its template holds the headers alone and the outer loop ends at once.
    # Semi-templated stopping grows the template one row per block until the
    # sentinel row; when a block starts, every earlier row is committed, so
    # its undecoded cells are exactly the new row. The last block's shape is
    # checked before any cell is decoded.
    if semi:
        blocks = range(1, max_rows + 1)
    elif not np.isfinite(count):
        raise NonFiniteCountError(count)
    else:
        blocks = [rows_from_count(count, max_rows)]
    check_shape(model.cfg, blocks[-1], len(headers))
    state = DecodingState(0, len(headers))
    iters = passes = forced = 0
    hit_cap = semi or count + 0.5 >= max_rows + 1  # predicted-count: the rounded count exceeds the cap
    for n_rows in blocks:
        state.n_rows = n_rows
        source = ModelCellSource(model, memory_kv, mem_len, model.template_for(enc.header_ids, n_rows))
        iters += run_outer_loop(source, state, cfg, trace=trace, iteration_offset=iters)
        passes += source.passes
        forced += source.forced
        if semi and semi_templated_stop(state, n_rows):
            state.n_rows -= 1  # the sentinel row is decoded but not kept
            hit_cap = False
            break
    return DecodeResult(
        _state_to_table(vocab, state, headers, state.n_rows), trace or [], iters, count, hit_row_cap=hit_cap,
        decoder_passes=passes, tokens=sum(len(tok) + 1 for tok in state.committed.values()), forced_tokens=forced,
        input_tokens_dropped=enc.input_tokens_dropped, header_tokens_dropped=enc.header_tokens_dropped,
        truncated_cells=[c for c, tok in state.committed.items() if cut_at_slot(tok, model.cfg.max_cell_len)],
    )
