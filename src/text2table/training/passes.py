"""Training examples, the stage map ``{cell: stage}`` that states a training
pass, and its teacher-forced layout."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..corpus import DatasetRecord
from ..model import LayoutError, LayoutInstance, PassLayout, TextToTableModel
from ..model.config import ModelConfig
from ..model.layout import Coord, check_shape, content_token_ids, encode_record, row_major_order
from ..table import Table
from ..vocab import Vocabulary

TRAINING_MODES = ("permuted", "fixed-causal", "semi-templated")


@dataclass
class TrainingExample:
    id: str
    source_ids: list[int]
    header_ids: list[list[int]]
    cell_ids: dict[Coord, list[int]]
    n_rows: int
    n_cols: int
    count_target: float  # true group count (before any sentinel row)
    input_tokens_dropped: int = 0  # source token ids cut off at max_input_len
    header_tokens_dropped: int = 0  # header token ids the template cuts at max_cell_len
    # the stage-free part of its training layout, for the template it was last built under
    layout: PassLayout | None = field(default=None, init=False, repr=False, compare=False)


def build_semi_templated_corpus_variant(gold: Table) -> Table:
    """Gold table plus one all-NULL sentinel row at the bottom."""
    out = gold.copy()
    out.rows.append([None] * gold.n_cols)
    return out


def prepare_example(
    record: DatasetRecord, vocab: Vocabulary, cfg: ModelConfig, mode: str = "permuted"
) -> TrainingExample:
    """The record through :func:`~text2table.model.layout.encode_record`, as
    decoding reads it, plus its cells; a record the model cannot lay out is a
    :class:`LayoutError` that names it."""
    if mode not in TRAINING_MODES:
        raise ValueError(f"unknown training mode {mode!r}")
    table = record.table
    try:
        enc = encode_record(vocab, cfg, record.text, table.headers)
        check_shape(cfg, table.n_rows + (mode == "semi-templated"), table.n_cols)
        if mode == "semi-templated":
            table = build_semi_templated_corpus_variant(table)
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
        count_target=float(record.table.n_rows),
        input_tokens_dropped=enc.input_tokens_dropped,
        header_tokens_dropped=enc.header_tokens_dropped,
    )


def build_training_pass(
    example: TrainingExample, stage: dict[Coord, int], model: TextToTableModel
) -> LayoutInstance:
    """Teacher-forced layout of one training pass: stage-0 cells are context,
    every other cell carries loss and sees the lower stages (see
    :func:`~text2table.model.layout.visibility_mask`). The example's
    :class:`~text2table.model.PassLayout` is built on its first pass under the
    model's template and reused while that template is the one it was built
    for, so an example shared by two models never reads the other's."""
    tpl = model.template_for(example.header_ids, example.n_rows)
    if example.layout is None or example.layout.template is not tpl:
        example.layout = PassLayout.build(tpl, model.grammar, example.cell_ids)
    return example.layout.instance(stage)


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
