"""Serialized decoder layout: header blocks, row markers and fixed-width cell
slots, with the coordinate maps and the stacked index maps the attention
biases are gathered from, and the visibility policy (:func:`visibility_mask`).

Sequence layout for an n-row, m-column template:

    [col-1 header tokens]...[col-m header tokens]
    [<row_1>][slot 1,1]...[slot 1,m] ... [<row_n>][slot n,1]...[slot n,m]

Every slot spans ``l = max_cell_len`` positions. Slot inputs are shifted one
step: position 0 carries BOS, position t carries the cell's token t-1, so the
hidden state at slot position t predicts token t (content tokens, then the
end-of-cell mark). A NULL cell is the single NULL token plus end-of-cell.

Coordinates follow the 1-based cell convention with 0 reserved for the header
row/column: header tokens sit at (0, col), row markers at (row, 0), cell
tokens at (row, col).

Visibility is one rule over live positions (see :func:`visibility_mask`): a
position sees every lower stage and its own cell up to itself, and stage-0
positions (context: headers, row markers and the filled or committed cells)
see each other. Layouts differ only in the stage each cell gets: a permuted
training pass puts its filled cells at 0 and its open cells at 1, the
fixed-causal pass puts cell i of the row-major order at i + 1, and a decode
layout puts committed cells at 0 and open cells at 1. Padding is left out
where positions are chosen: a training batch packs live positions only, and
a decode cache folds in the live context once per inner loop.

Input contract: training and decoding read a record through one encoder,
:func:`encode_record`. The text must hold a token and is cut at
``max_input_len``; the template cuts each header at ``max_cell_len``; both
cuts are counted. :func:`check_shape` states the shape limits once: at most
``max_rows`` rows (a semi-templated sentinel row counts) and ``1..max_cols``
columns. Every refusal is a :class:`LayoutError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from ..vocab import BOS, EOC, NULL, PAD, Vocabulary
from .config import ModelConfig

Coord = tuple[int, int]


def row_major_order(n_rows: int, n_cols: int) -> list[Coord]:
    """Every cell of an ``n_rows`` x ``n_cols`` table, row by row: the one cell order."""
    return [(r, c) for r in range(1, n_rows + 1) for c in range(1, n_cols + 1)]


class LayoutError(ValueError):
    pass


class EmptySourceTextError(LayoutError):
    """The source text has no token, so the encoder has no row to read."""


def check_shape(cfg: ModelConfig, n_rows: int, n_cols: int) -> None:
    """Refuse a table the model cannot lay out: more than ``max_rows`` rows,
    or a column count outside ``1..max_cols``."""
    if n_rows > cfg.max_rows:
        raise LayoutError(f"{n_rows} rows exceed max_rows {cfg.max_rows}")
    if not 0 < n_cols <= cfg.max_cols:
        raise LayoutError(f"{n_cols} columns exceed max_cols {cfg.max_cols}" if n_cols else "no columns")


class EncodedRecord(NamedTuple):
    source_ids: list[int]  # cut at max_input_len
    header_ids: list[list[int]]  # whole; the template cuts each at max_cell_len
    input_tokens_dropped: int  # source token ids cut off at max_input_len
    header_tokens_dropped: int  # header token ids past max_cell_len


def encode_record(vocab: Vocabulary, cfg: ModelConfig, text: str, headers: list[str]) -> EncodedRecord:
    """A record's text and headers as the decoder reads them, in training and
    in decoding alike; a header count outside ``1..max_cols`` or an empty text
    is a :class:`LayoutError`."""
    check_shape(cfg, 0, len(headers))
    source_ids = vocab.encode(text)
    if not source_ids:
        raise EmptySourceTextError("empty source text")
    header_ids = [vocab.encode(h) for h in headers]
    return EncodedRecord(
        source_ids[: cfg.max_input_len],
        header_ids,
        max(0, len(source_ids) - cfg.max_input_len),
        sum(max(0, len(h) - cfg.max_cell_len) for h in header_ids),
    )


def relative_bucket(rel: np.ndarray, num_buckets: int, max_distance: int) -> np.ndarray:
    """Bidirectional log-spaced relative position buckets (shared scheme)."""
    out = np.zeros_like(rel)
    half = num_buckets // 2
    out += (rel > 0) * half
    arel = np.abs(rel)
    max_exact = half // 2
    large = max_exact + (
        np.log(np.maximum(arel, 1) / max_exact)
        / np.log(max_distance / max_exact)
        * (half - max_exact)
    ).astype(rel.dtype)
    large = np.minimum(large, half - 1)
    out += np.where(arel < max_exact, arel, large)
    return out


def sequence_bucket_matrix(length: int, cfg: ModelConfig) -> np.ndarray:
    pos = np.arange(length, dtype=np.int64)
    rel = pos[None, :] - pos[:, None]  # key minus query
    return relative_bucket(rel, cfg.relative_buckets, cfg.relative_max_distance)


@dataclass(eq=False)
class TableTemplate:
    """Static part of a decoder layout for one (headers, n_rows) shape, with
    the cell maps every layout on it shares: ``cells``, the table's cells in
    row-major order, and ``cell``, the index into ``cells`` of each position's
    cell, ``C = len(cells)`` at headers and row markers. A stage map over the
    cells reaches the positions through them (:func:`stage_at`). Templates
    compare and hash by identity: the model makes one per shape
    (:meth:`~text2table.model.TextToTableModel.template_for`)."""

    n_rows: int
    n_cols: int
    slot_len: int
    length: int
    base_inputs: np.ndarray  # [T] header tokens, row markers, BOS slot heads, PAD
    rows: np.ndarray  # [T] 0 for header tokens
    cols: np.ndarray  # [T] 0 for row markers
    within: np.ndarray  # [T] token index inside its block
    cells: list[Coord]  # row-major
    cell: np.ndarray  # [T] index into cells; len(cells) at headers and row markers
    slot_start: dict[Coord, int]  # keyed by every cell, row-major
    # [4, T, T] index maps, stacked, in the narrowest signed integer type that holds them: into the
    # R table (-1 -> header bucket), the C table, the L table (-1 -> cross-cell) and the decoder bucket table
    bias_idx: np.ndarray = field(repr=False, default=None)
    # [T, T] own-prefix pairs: key j is in query i's block at or before i, where bias_idx[2] >= slot_len
    own: np.ndarray = field(repr=False, default=None)


def _narrowest(a: np.ndarray) -> np.ndarray:
    """``a`` in the narrowest signed integer type that holds its values."""
    lo, hi = (int(a.min()), int(a.max())) if a.size else (0, 0)
    fits = (t for t in (np.int8, np.int16, np.int32) if np.iinfo(t).min <= lo <= hi <= np.iinfo(t).max)
    return a.astype(next(fits, np.int64))


def make_template(
    vocab: Vocabulary, cfg: ModelConfig, header_ids: list[list[int]], n_rows: int
) -> TableTemplate:
    """The layout of ``n_rows`` rows under ``header_ids``. Its one statement is
    the block table: one entry per header, row marker and cell slot, in layout
    order, holding the block's fixed inputs (PAD fills the rest), its length,
    row and column. Every per-position map is derived from that table."""
    m, l = len(header_ids), cfg.max_cell_len
    check_shape(cfg, n_rows, m)
    # the block table; a header is cut at l tokens, which keeps local offsets within the L table range
    blocks = [(h[:l], min(len(h), l), 0, j) for j, h in enumerate(header_ids, start=1)]
    for i in range(1, n_rows + 1):
        blocks += [([vocab.row_marker_id(i)], 1, i, 0)] + [([BOS], l, i, j) for j in range(1, m + 1)]
    fixed, size, row, col = zip(*blocks)
    block = np.repeat(np.arange(len(blocks)), size)  # the block index of each position
    start = np.cumsum(size) - size
    length = len(block)
    serial = np.arange(length)
    within = serial - start[block]
    base = np.full(length, PAD, dtype=np.int64)
    base[within < np.array([len(f) for f in fixed])[block]] = [tok for f in fixed for tok in f]
    rows, cols = np.array(row)[block], np.array(col)[block]
    cells = row_major_order(n_rows, m)
    cell = np.where((rows > 0) & (cols > 0), (rows - 1) * m + cols - 1, len(cells))
    slot_start = {(i, j): int(p0) for p0, i, j in zip(start, row, col) if i and j}
    tpl = TableTemplate(n_rows, m, l, length, base, rows, cols, within, cells, cell, slot_start)
    tpl.bias_idx = _narrowest(np.stack([
        np.where(rows[None, :] == 0, -1, rows[:, None] - rows[None, :] + cfg.max_rows),
        cols[:, None] - cols[None, :] + cfg.max_cols,
        np.where(block[:, None] == block[None, :], serial[:, None] - serial[None, :] + l, -1),
        sequence_bucket_matrix(length, cfg),
    ]))
    tpl.own = tpl.bias_idx[2] >= l
    return tpl


def visibility_mask(stage: np.ndarray, own: np.ndarray) -> np.ndarray:
    """seen[i, j]: may live position i attend live position j, from their
    stages [n] and their own-prefix pairs ``own`` [n, n], the template's
    :attr:`TableTemplate.own` there.

    A position sees every lower stage and its own prefix, and stage-0
    positions (context) see each other, so open cells at one stage never do.
    """
    return (stage[None, :] < np.maximum(stage[:, None], 1)) | own


class GrammarMasks:
    """Legal next-token sets for slot positions.

    Position 0 admits content or NULL; after NULL only end-of-cell; the final
    slot position forces end-of-cell; otherwise content or end-of-cell.
    Structural ids are illegal everywhere inside a cell.

    The three sets are the rows of ``table`` [3, V], in the order of
    ``OPEN_FIRST``, ``MID`` and ``CLOSE_ONLY``; :meth:`row_index` names the row
    of each position, so legal rows of many positions are one gather.
    ``grows[t, tok]`` [l, V]: a cell that picks ``tok`` at slot position ``t``
    goes on, unless it chose end-of-cell or the grammar forces its next token.
    """

    OPEN_FIRST, MID, CLOSE_ONLY = range(3)

    def __init__(self, vocab: Vocabulary, slot_len: int):
        self.slot_len = slot_len
        self.table = np.zeros((3, len(vocab)), dtype=bool)
        self.table[self.OPEN_FIRST, vocab.content_ids()] = True
        self.table[self.OPEN_FIRST, NULL] = True
        self.table[self.MID, vocab.content_ids()] = True
        self.table[self.MID, EOC] = True
        self.table[self.CLOSE_ONLY, EOC] = True
        t, tok = np.arange(slot_len)[:, None], np.arange(len(vocab))
        self.grows = (tok != EOC) & (self.row_index(t + 1, tok) == self.MID)

    def row_index(self, t: int | np.ndarray, prev_id: int | np.ndarray) -> np.ndarray:
        """Row of ``table`` legal at slot position ``t`` after token
        ``prev_id``, elementwise over arrays of both."""
        close = (prev_id == NULL) | (t == self.slot_len - 1)
        return np.where(t == 0, self.OPEN_FIRST, np.where(close, self.CLOSE_ONLY, self.MID))


class LiveBlocks(NamedTuple):
    """What a collated batch takes from one layout, none of which depends on
    its stages: the live positions and the pair blocks between them."""

    rows: np.ndarray  # [n] live template positions, ascending
    input_ids: np.ndarray  # [n] the layout's input ids at those rows
    bias_idx: np.ndarray  # [4, n * n] the template's index maps at those rows, in their integer type
    own: np.ndarray  # [n, n] the template's own-prefix pairs at those rows


def live_blocks(template: TableTemplate, input_ids: np.ndarray, is_pad: np.ndarray) -> LiveBlocks:
    """The live rows of a layout (slot padding dropped) and its bias-index
    and own-prefix blocks there."""
    rows = np.flatnonzero(~is_pad)
    idx = template.bias_idx[:, rows[:, None], rows].reshape(4, -1)
    return LiveBlocks(rows, input_ids[rows], idx, template.own[rows[:, None], rows])


@dataclass
class LayoutInstance:
    """One concrete decoder sequence: a template plus cell contents and stages."""

    template: TableTemplate
    input_ids: np.ndarray  # [T]
    is_pad: np.ndarray  # [T]
    stage: np.ndarray  # [T] visibility stage; 0 for context (see visibility_mask)
    # loss surface (teacher-forced instances only)
    loss_pos: np.ndarray | None = None  # [P] positions
    loss_targets: np.ndarray | None = None  # [P]
    legal: np.ndarray | None = None  # [P, V]
    # the live_blocks of input_ids and is_pad, when built ahead: a training pass shares its example's
    live: LiveBlocks | None = field(default=None, repr=False)

    @property
    def length(self) -> int:
        return self.template.length


def content_token_ids(vocab: Vocabulary, cell: str | None) -> list[int]:
    """Token ids for a cell value; NULL cells become the single NULL id."""
    if cell is None:
        return [NULL]
    return vocab.encode(cell)


def stage_at(template: TableTemplate, stage: dict[Coord, int]) -> np.ndarray:
    """[T] the stage of each position's cell under ``stage``, a map over
    every cell of ``template``; 0 at headers and row markers."""
    cells = template.cells
    if stage.keys() != template.slot_start.keys():
        raise LayoutError(f"stage keys are not the template's {len(cells)} cells: {sorted(stage)}")
    return np.fromiter(chain(map(stage.__getitem__, cells), (0,)), np.int64, len(cells) + 1)[template.cell]


def _instance(template: TableTemplate, contents: dict[Coord, list[int]], stage: dict[Coord, int]) -> LayoutInstance:
    """The layout both builders share: every cell at its ``stage``, gathered
    through the template's cell maps (:func:`stage_at`). Only the cells in
    ``contents`` are written: each holds its content behind BOS and the rest
    of its slot is padding. Every other cell keeps the template's inputs, its
    whole slot live (BOS, then PAD)."""
    l = template.slot_len
    stages = stage_at(template, stage)
    inputs = template.base_inputs.copy()
    pad = np.zeros(template.length, dtype=bool)
    for coord, ids in contents.items():
        n = len(ids)
        if n > l - 1:
            raise LayoutError(f"cell {coord} content length {n} exceeds {l - 1}")
        p0 = template.slot_start[coord]
        inputs[p0 + 1 : p0 + 1 + n] = ids
        pad[p0 + 1 + n : p0 + l] = True
    return LayoutInstance(template=template, input_ids=inputs, is_pad=pad, stage=stages)


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


@dataclass(eq=False)
class PassLayout:
    """The part of a teacher-forced layout that no stage changes, built once
    for an example's cell contents under one template (:meth:`build`).

    Every cell holds its content behind BOS, then padding. At each live row it
    keeps the input id, the next-token target (the cell's content, then
    end-of-cell) and the grammar row that the target is legal under, and the
    batch blocks of :func:`live_blocks`. :meth:`instance` lays out one pass from
    a stage map through the template's cell maps (:func:`stage_at`): stage-0
    cells are context and every other cell carries loss. The arrays are
    read-only, since every pass shares them.
    """

    template: TableTemplate
    grammar: GrammarMasks
    input_ids: np.ndarray  # [T]
    is_pad: np.ndarray  # [T]
    live: LiveBlocks
    targets: np.ndarray  # [n] next token at each live row (PAD at headers and row markers)
    grammar_rows: np.ndarray  # [n] row of grammar.table at each live row

    @classmethod
    def build(cls, template: TableTemplate, grammar: GrammarMasks, contents: dict[Coord, list[int]]) -> "PassLayout":
        inst = _instance(template, contents, dict.fromkeys(template.cells, 0))
        targets = np.full(template.length, PAD, dtype=np.int64)
        for coord in template.cells:
            p0 = template.slot_start[coord]
            targets[p0 : p0 + len(contents[coord]) + 1] = contents[coord] + [EOC]
        live = live_blocks(template, inst.input_ids, inst.is_pad)
        grammar_rows = grammar.row_index(template.within[live.rows], live.input_ids)
        layout = cls(template, grammar, inst.input_ids, inst.is_pad, live, targets[live.rows], grammar_rows)
        _read_only(layout.input_ids, layout.is_pad, *live, layout.targets, layout.grammar_rows)
        return layout

    def instance(self, stage: dict[Coord, int]) -> LayoutInstance:
        """The layout of the pass with cell stages ``stage`` over every cell
        of the template (:func:`stage_at`); the loss positions are the live
        rows of open cells, in position order."""
        stages = stage_at(self.template, stage)
        loss = stages[self.live.rows] > 0
        return LayoutInstance(
            self.template,
            self.input_ids,
            self.is_pad,
            stages,
            loss_pos=self.live.rows[loss],
            loss_targets=self.targets[loss],
            legal=self.grammar.table[self.grammar_rows[loss]],
            live=self.live,
        )


def instance_for_decoding(template: TableTemplate, committed: dict[Coord, list[int]]) -> LayoutInstance:
    """Decode-time layout: committed cells, in any order, are context at
    stage 0; every other cell is open at stage 1, its whole slot live, BOS
    then PAD inputs for the decoder to write its prefix into."""
    return _instance(template, committed, {**dict.fromkeys(template.cells, 1), **dict.fromkeys(committed, 0)})
