"""Training examples, the stage map ``{cell: stage}`` that states a training
pass, and its teacher-forced layout. An example is its gold table; the cells
of a stage map name the template a pass lays out, and a row past the gold
rows is all-NULL."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..corpus import DatasetRecord
from ..model import LayoutError, LayoutInstance, PassLayout, TextToTableModel
from ..model.config import ModelConfig
from ..model.layout import Coord, content_token_ids, encode_record, row_major_order
from ..vocab import NULL, Vocabulary


@dataclass
class TrainingExample:
    """A record's gold table as a training pass reads it."""

    id: str
    source_ids: list[int]  # the text's token ids, cut at max_input_len
    header_ids: list[list[int]]  # each header's token ids, whole
    cell_ids: dict[Coord, list[int]]  # every gold cell's content ids, [NULL] for a NULL cell
    n_rows: int  # gold rows: also the count head's target
    n_cols: int
    input_tokens_dropped: int = 0  # source token ids cut off at max_input_len
    header_tokens_dropped: int = 0  # header token ids the template cuts at max_cell_len
    # the stage-free parts of its training layouts by template row count, each for the template it was built under
    layouts: dict[int, PassLayout] = field(default_factory=dict, init=False, repr=False, compare=False)


def prepare_example(record: DatasetRecord, vocab: Vocabulary, cfg: ModelConfig) -> TrainingExample:
    """The record's gold table through :func:`~text2table.model.layout.encode_record`,
    as decoding reads it, plus its cells; a record whose columns or cells the
    model cannot lay out is a :class:`LayoutError` that names it. How many rows
    a pass lays out is the trainer's to check."""
    table = record.table
    try:
        enc = encode_record(vocab, cfg, record.text, table.headers)
        cells = {(i, j): content_token_ids(vocab, v) for i, row in enumerate(table.rows, 1) for j, v in enumerate(row, 1)}
        for (i, j), ids in cells.items():
            if not ids:  # its first target would be end-of-cell, which no cell may start with
                raise LayoutError(f"cell ({i},{j}) is blank: write a cell without a value as null")
            if len(ids) > cfg.max_cell_len - 1:
                raise LayoutError(f"cell ({i},{j}) has {len(ids)} tokens, max {cfg.max_cell_len - 1}")
    except LayoutError as exc:
        raise LayoutError(f"{record.id}: {exc}") from None
    return TrainingExample(
        id=record.id,
        source_ids=enc.source_ids,
        header_ids=enc.header_ids,
        cell_ids=cells,
        n_rows=table.n_rows,
        n_cols=table.n_cols,
        input_tokens_dropped=enc.input_tokens_dropped,
        header_tokens_dropped=enc.header_tokens_dropped,
    )


def build_training_pass(
    example: TrainingExample, stage: dict[Coord, int], model: TextToTableModel
) -> LayoutInstance:
    """Teacher-forced layout of one training pass over the template whose rows
    are those of the cells in ``stage``: stage-0 cells are context, every other
    cell carries loss and sees the lower stages (see
    :func:`~text2table.model.layout.visibility_mask`). A row past the
    example's gold rows is laid out all-NULL. The example keeps one
    :class:`~text2table.model.PassLayout` per template row count, built on its
    first pass under the model's template and reused while that template is
    the one it was built for, so an example shared by two models never reads
    the other's."""
    n_rows = max((i for i, _ in stage), default=0)
    tpl = model.template_for(example.header_ids, n_rows)
    layout = example.layouts.get(n_rows)
    if layout is None or layout.template is not tpl:
        contents = {c: example.cell_ids.get(c, [NULL]) for c in tpl.cells}
        layout = example.layouts[n_rows] = PassLayout.build(tpl, model.grammar, contents)
    return layout.instance(stage)


def sample_permutation(n_rows: int, n_cols: int, rng: np.random.Generator) -> dict[Coord, int]:
    """Stages of one permuted pass: a uniform order over the C cells and a uniform cut
    in [1, C]; the cells before the cut are context (0), the rest are open (1). A
    table with no rows gets the empty map and draws nothing."""
    if n_rows < 0 or n_cols < 1:
        raise ValueError(f"table shape {n_rows}x{n_cols}: need n_rows >= 0 and n_cols >= 1")
    cells = row_major_order(n_rows, n_cols)
    if not cells:
        return {}
    perm = rng.permutation(len(cells))
    cut = int(rng.integers(1, len(cells) + 1))
    return {cells[i]: int(n >= cut - 1) for n, i in enumerate(perm)}


def causal_stages(order: list[Coord]) -> dict[Coord, int]:
    """Staircase stages: cell ``order[i]`` at stage i + 1 sees exactly the
    cells before it in ``order`` (the fixed-order training variant)."""
    return {c: i + 1 for i, c in enumerate(order)}
