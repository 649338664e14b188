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
in parallel, one decoder pass per token step, against a decoder cache built
once per table:

- The first pass runs the context positions (headers, row markers, committed
  cells) together with the first position of every open cell; the context
  keys and values it caches hold for the whole inner loop.
- Each later pass runs the newest position of every candidate still growing.
- A step at which the grammar allows only end-of-cell (after NULL, or at the
  final slot position) needs no pass: the close is committed with its exact
  log-probability 0.
- The layout is built once per inner loop, with every open slot live; a
  step writes its input ids in place and slices its visibility rows.

The layout's visibility rules make this exact: context never attends to an
open slot and open slots never attend to each other.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Protocol

import numpy as np

from ..fields import from_fields
from ..model import TableTemplate, TextToTableModel, collate_instances, instance_for_decoding
from ..model.transformer import DecoderCache
from ..numerics import no_grad
from ..table import Table
from ..vocab import EOC, NULL, UNK, Vocabulary, tokenize

Coord = tuple[int, int]

INNER_CRITERIA = ("min", "max", "mean")
OUTER_CRITERIA = ("max-first", "min-first")
CONSTRAINTS = ("none", "column-by-column", "row-by-row", "left-right-top-bottom", "no-distant-rows")
STOPPING = ("predicted-count", "semi-templated")


class DecodingConfigError(ValueError):
    pass


class EmptySourceTextError(ValueError):
    """The source text has no token, so the encoder has no row to read."""

    def __init__(self):
        super().__init__("empty source text")


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

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, d: dict) -> "DecodingConfig":
        return from_fields(cls, d)


@dataclass
class Candidate:
    tokens: list[int]  # content ids, end-of-cell excluded
    token_logprobs: list[float]  # every emitted token including end-of-cell
    truncated: bool = False
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
        return [
            (r, c)
            for r in range(1, self.n_rows + 1)
            for c in range(1, self.n_cols + 1)
            if (r, c) not in self.committed
        ]

    def done(self) -> bool:
        return len(self.committed) == self.n_rows * self.n_cols


@dataclass
class TraceEntry:
    iteration: int
    cell: Coord
    score: float
    tokens: list[int]
    truncated: bool


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
    parallel, over a decoder cache shared by every template of one table.

    Each :meth:`candidates` call is one inner loop, run as one decoder pass
    per token step:

    - The first pass runs the context positions (headers, row markers,
      committed cells) and the BOS position of every open cell, and caches
      each layer's self-attention keys and values. Every layer stores its
      keys and values before it attends, and context never attends to an
      open slot, so the context entries are exact and stay fixed for the
      whole inner loop. Logits are taken at the BOS rows only.
    - Each later pass runs the newest position of every candidate still
      growing. That position stores its keys and values in the cache, then
      attends to the cached context and to its own cell's earlier positions.
      Open slots are mutually invisible, so this gives the same hidden state
      as a pass over the whole layout.
    - A candidate whose next token the grammar forces to end-of-cell (after
      NULL, or at the final slot position) takes it with log-probability 0,
      which the masked log-softmax gives for any finite logits, and leaves
      the pass; the forced close does not count toward the cell's score. A
      step where every candidate is forced runs no pass.

    The layout is built once per inner loop with every open slot live: a
    query at slot position t sees its own cell up to t and no other open
    slot, so its visibility row is the one the grown layout would give. A
    step writes its input ids into the layout and slices its rows.

    ``memory_kv`` holds the source text's cross-attention keys and values per
    layer (:meth:`TextToTableModel.memory_kv`), built once per table.
    ``cache`` holds the template's pair and bucket bias and its self-attention
    keys and values; it may be built for a template with more rows (see
    :meth:`DecoderCache.prefix`). ``passes`` counts decoder calls and
    ``forced`` the end-of-cell marks committed without one.
    """

    def __init__(self, model: TextToTableModel, memory_kv, mem_len, template: TableTemplate, cache: DecoderCache):
        self.model = model
        self.memory_kv = memory_kv
        self.mem_len = mem_len
        self.template = template
        self.cache = cache.prefix(template.length)
        self.passes = 0
        self.forced = 0

    def candidates(
        self, committed: dict[Coord, list[int]], cells: list[Coord]
    ) -> dict[Coord, Candidate]:
        model, tpl, grammar = self.model, self.template, self.model.grammar
        l = model.cfg.max_cell_len
        grown: dict[Coord, Candidate] = {c: Candidate([], []) for c in cells}
        active = list(cells)
        with no_grad():
            inst = instance_for_decoding(tpl, model.vocab, committed)
            ctx_rows = np.flatnonzero((inst.stage == 0) & ~inst.is_pad)
            layout = collate_instances([inst], np.arange(tpl.length))
            rows = np.concatenate([ctx_rows, [tpl.slot_start[c] for c in active]]).astype(np.int64)
            legal = [grammar.row_index(0, -1)] * len(active)  # per active cell: its row of grammar.table
            while active:
                self.passes += 1
                hidden = model.decoder_hidden(self.memory_kv, self.mem_len, layout.query(rows), cache=self.cache)
                logits = model.logits_at(hidden, np.arange(len(rows) - len(active), len(rows))).data
                if not np.isfinite(logits).all():
                    bad = np.flatnonzero(~np.isfinite(logits).all(axis=-1))
                    raise NonFiniteLogitsError([active[i] for i in bad])
                lp = _masked_log_softmax(logits, grammar.table[legal])
                picks = lp.argmax(axis=-1)
                still, legal = [], []
                for row_i, coord in enumerate(active):
                    cand = grown[coord]
                    tok = int(picks[row_i])
                    cand.token_logprobs.append(float(lp[row_i, tok]))
                    if tok == EOC:
                        continue
                    cand.tokens.append(tok)
                    t_rel = len(cand.tokens)
                    next_legal = grammar.row_index(t_rel, tok)
                    if next_legal == grammar.CLOSE_ONLY:
                        # only end-of-cell is legal next, and its masked
                        # log-probability is exactly 0 for any finite logits
                        cand.token_logprobs.append(0.0)
                        cand.forced_close = True
                        self.forced += 1
                        # a close at the final slot position was forced by the
                        # grammar, not chosen: flag it for diagnostics
                        cand.truncated = t_rel == l - 1
                    else:
                        layout.input_ids[0, tpl.slot_start[coord] + t_rel] = tok
                        still.append(coord)
                        legal.append(next_legal)
                active = still
                rows = np.array([tpl.slot_start[c] + len(grown[c].tokens) for c in active], dtype=np.int64)
        return grown


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


@dataclass
class DecodeResult:
    table: Table
    trace: list[TraceEntry]
    outer_iterations: int
    predicted_count: float | None
    hit_row_cap: bool = False
    decoder_passes: int = 0  # decoder calls: one per inner-loop token step that some cell's grammar leaves open
    forced_tokens: int = 0  # end-of-cell marks the grammar forced, committed with no decoder pass
    input_tokens_dropped: int = 0  # source token ids cut off at max_input_len
    header_tokens_dropped: int = 0  # header token ids cut at max_cell_len

    @property
    def truncated_cells(self) -> list[Coord]:
        return [t.cell for t in self.trace if t.truncated]


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
    """Decode one table from raw text with the configured strategy."""
    vocab = model.vocab
    header_ids = [vocab.encode_tokens(tokenize(h)) for h in headers]
    m = len(headers)
    ids = vocab.encode(text)
    if not ids:
        raise EmptySourceTextError()
    dropped = max(0, len(ids) - model.cfg.max_input_len)
    ids = ids[: model.cfg.max_input_len]
    with no_grad():
        mem_len = [len(ids)]
        memory = model.encode(ids, mem_len)
        count = float(model.count_pred(memory, mem_len).data[0])
        memory_kv = model.memory_kv(memory)
    max_rows = model.cfg.max_rows if cfg.max_rows_override is None else cfg.max_rows_override
    trace: list[TraceEntry] | None = [] if keep_trace else None

    # Predicted-count stopping decodes one block of n rows, n = 0 included:
    # its template holds the headers alone and the outer loop ends at once.
    # Semi-templated stopping grows the template one row per block until the
    # sentinel row; when a block starts, every earlier row is committed, so
    # its undecoded cells are exactly the new row. Each template is a prefix
    # of the largest one, so one cache, built for the largest template the
    # model allows, serves every block; a row past that cap still fails in
    # template_for when decoding reaches it.
    semi = cfg.stopping == "semi-templated"
    if semi:
        blocks = range(1, max_rows + 1)
        cache_rows = min(max_rows, model.cfg.max_rows)
    else:
        if not np.isfinite(count):
            raise NonFiniteCountError(count)
        cache_rows = rows_from_count(count, max_rows)
        blocks = [cache_rows]
    largest = model.template_for(header_ids, cache_rows)
    cache = model.decoder_cache(largest)
    state = DecodingState(0, m)
    iters = passes = forced = 0
    hit_cap = semi
    for n_rows in blocks:
        state.n_rows = n_rows
        source = ModelCellSource(model, memory_kv, mem_len, model.template_for(header_ids, n_rows), cache)
        iters += run_outer_loop(source, state, cfg, trace=trace, iteration_offset=iters)
        passes += source.passes
        forced += source.forced
        if semi and semi_templated_stop(state, n_rows):
            state.n_rows -= 1  # the sentinel row is decoded but not kept
            hit_cap = False
            break
    return DecodeResult(
        _state_to_table(vocab, state, headers, state.n_rows), trace or [], iters, count, hit_row_cap=hit_cap,
        decoder_passes=passes, forced_tokens=forced, input_tokens_dropped=dropped,
        header_tokens_dropped=largest.header_tokens_dropped,
    )
