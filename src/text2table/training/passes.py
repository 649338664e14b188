"""Training examples and teacher-forced pass construction."""

from __future__ import annotations

from dataclasses import dataclass

from ..corpus import DatasetRecord
from ..model import LayoutError, LayoutInstance, TextToTableModel, instance_for_pass
from ..model.config import ModelConfig
from ..model.layout import check_shape, content_token_ids, encode_record
from ..table import Table
from ..vocab import Vocabulary
from .permutation import Coord

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
    :func:`~text2table.model.layout.visibility_mask`)."""
    tpl = model.template_for(example.header_ids, example.n_rows)
    return instance_for_pass(tpl, model.grammar, example.cell_ids, stage)
