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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..vocab import BOS, EOC, NULL, PAD, Vocabulary
from .config import ModelConfig

Coord = tuple[int, int]


class LayoutError(ValueError):
    pass


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


@dataclass
class TableTemplate:
    """Static part of a decoder layout for one (headers, n_rows) shape."""

    n_rows: int
    n_cols: int
    slot_len: int
    length: int
    base_inputs: np.ndarray  # [T] header tokens, row markers, BOS slot heads, PAD
    rows: np.ndarray  # [T] 0 for header tokens
    cols: np.ndarray  # [T] 0 for row markers
    within: np.ndarray  # [T] token index inside its block
    cell_id: np.ndarray  # [T] one id per block (header blocks included)
    slot_start: dict[Coord, int]
    # [4, T, T] index maps, stacked: into the R table (-1 -> header bucket),
    # the C table, the L table (-1 -> cross-cell) and the decoder bucket table
    bias_idx: np.ndarray = field(repr=False, default=None)
    header_tokens_dropped: int = 0  # header token ids cut at max_cell_len

    def cells(self) -> list[Coord]:
        return [(r, c) for r in range(1, self.n_rows + 1) for c in range(1, self.n_cols + 1)]


def header_tokens_cut(header_ids: list[list[int]], max_cell_len: int) -> int:
    """Header token ids beyond ``max_cell_len`` per header, which
    :func:`make_template` cuts."""
    return sum(max(0, len(h) - max_cell_len) for h in header_ids)


def make_template(
    vocab: Vocabulary, cfg: ModelConfig, header_ids: list[list[int]], n_rows: int
) -> TableTemplate:
    m = len(header_ids)
    l = cfg.max_cell_len
    if n_rows > cfg.max_rows:
        raise LayoutError(f"n_rows {n_rows} exceeds max_rows {cfg.max_rows}")
    if m > cfg.max_cols or m == 0:
        raise LayoutError(f"n_cols {m} outside 1..{cfg.max_cols}")

    dropped = header_tokens_cut(header_ids, l)
    header_ids = [h[:l] for h in header_ids]  # keep local offsets within the L table range
    length = sum(len(h) for h in header_ids) + n_rows * (1 + m * l)
    base = np.full(length, PAD, dtype=np.int64)
    rows = np.zeros(length, dtype=np.int64)
    cols = np.zeros(length, dtype=np.int64)
    within = np.zeros(length, dtype=np.int64)
    cell_id = np.zeros(length, dtype=np.int64)
    slot_start: dict[Coord, int] = {}

    pos = 0
    block = 0
    for j, h in enumerate(header_ids, start=1):
        for t, tok in enumerate(h):
            base[pos] = tok
            rows[pos] = 0
            cols[pos] = j
            within[pos] = t
            cell_id[pos] = block
            pos += 1
        block += 1
    for i in range(1, n_rows + 1):
        base[pos] = vocab.row_marker_id(i)
        rows[pos], cols[pos], within[pos] = i, 0, 0
        cell_id[pos] = block
        block += 1
        pos += 1
        for j in range(1, m + 1):
            slot_start[(i, j)] = pos
            for t in range(l):
                base[pos] = BOS if t == 0 else PAD
                rows[pos], cols[pos], within[pos] = i, j, t
                cell_id[pos] = block
                pos += 1
            block += 1
    assert pos == length

    tpl = TableTemplate(
        n_rows=n_rows,
        n_cols=m,
        slot_len=l,
        length=length,
        base_inputs=base,
        rows=rows,
        cols=cols,
        within=within,
        cell_id=cell_id,
        slot_start=slot_start,
        header_tokens_dropped=dropped,
    )

    hdr_key = rows[None, :] == 0
    serial = np.arange(length, dtype=np.int64)
    same_cell = cell_id[:, None] == cell_id[None, :]
    tpl.bias_idx = np.stack([
        np.where(hdr_key, -1, rows[:, None] - rows[None, :] + cfg.max_rows),
        cols[:, None] - cols[None, :] + cfg.max_cols,
        np.where(same_cell, serial[:, None] - serial[None, :] + l, -1),
        sequence_bucket_matrix(length, cfg),
    ])
    return tpl


def visibility_mask(stage: np.ndarray, local: np.ndarray, slot_len: int) -> np.ndarray:
    """seen[i, j]: may live position i attend live position j, from their
    stages [n] and the template's local index map [n, n] (``bias_idx[2]``,
    at least ``slot_len`` exactly where j is in i's cell at or before i).

    A position sees every lower stage and its own prefix, and stage-0
    positions (context) see each other, so open cells at one stage never do.
    """
    return (stage[None, :] < np.maximum(stage[:, None], 1)) | (local >= slot_len)


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

    @property
    def length(self) -> int:
        return self.template.length


def content_token_ids(vocab: Vocabulary, cell: str | None) -> list[int]:
    """Token ids for a cell value; NULL cells become the single NULL id."""
    if cell is None:
        return [NULL]
    return vocab.encode(cell)


def _place(template: TableTemplate, inputs: np.ndarray, pad: np.ndarray, coord: Coord, content: list[int]) -> None:
    l = template.slot_len
    if len(content) > l - 1:
        raise LayoutError(f"cell {coord} content length {len(content)} exceeds {l - 1}")
    p0 = template.slot_start[coord]
    inputs[p0] = BOS
    for t, tok in enumerate(content):
        inputs[p0 + 1 + t] = tok
    pad[p0 : p0 + len(content) + 1] = False
    pad[p0 + len(content) + 1 : p0 + l] = True


def instance_for_pass(
    template: TableTemplate,
    grammar: GrammarMasks,
    cell_contents: dict[Coord, list[int]],
    stage: dict[Coord, int],
) -> LayoutInstance:
    """Teacher-forced layout: every cell holds its content at its ``stage``;
    stage-0 cells are context and every other cell carries loss."""
    if set(stage) != set(template.cells()):
        raise LayoutError(f"stage keys are not the template's {len(template.cells())} cells: {sorted(stage)}")
    inputs = template.base_inputs.copy()
    pad = np.zeros(template.length, dtype=bool)
    stages = np.zeros(template.length, dtype=np.int64)

    loss_tgt: list[int] = []
    for coord in template.cells():
        content = cell_contents[coord]
        _place(template, inputs, pad, coord, content)
        p0 = template.slot_start[coord]
        stages[p0 : p0 + template.slot_len] = stage[coord]
        if stage[coord]:
            loss_tgt += content + [EOC]

    # the loss positions are the open cells' live positions, in cell order;
    # the input at each is the token before its target (BOS at slot position 0)
    loss_pos = np.flatnonzero((stages > 0) & ~pad)
    return LayoutInstance(
        template=template,
        input_ids=inputs,
        is_pad=pad,
        stage=stages,
        loss_pos=loss_pos,
        loss_targets=np.asarray(loss_tgt, dtype=np.int64),
        legal=grammar.table[grammar.row_index(template.within[loss_pos], inputs[loss_pos])],
    )


def instance_for_decoding(template: TableTemplate, committed: dict[Coord, list[int]]) -> LayoutInstance:
    """Decode-time layout: committed cells are context at stage 0; every other
    cell is open at stage 1, its whole slot live, BOS then PAD inputs for the
    decoder to write its prefix into."""
    inputs = template.base_inputs.copy()
    pad = np.zeros(template.length, dtype=bool)
    stage = np.zeros(template.length, dtype=np.int64)

    for coord in template.cells():
        p0 = template.slot_start[coord]
        if coord in committed:
            _place(template, inputs, pad, coord, committed[coord])
        else:
            stage[p0 : p0 + template.slot_len] = 1

    return LayoutInstance(template=template, input_ids=inputs, is_pad=pad, stage=stage)
