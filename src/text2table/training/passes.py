"""Training examples and teacher-forced pass construction."""

from __future__ import annotations

from dataclasses import dataclass

from ..corpus import DatasetRecord
from ..model import LayoutError, LayoutInstance, TextToTableModel, instance_for_pass
from ..model.config import ModelConfig
from ..model.layout import content_token_ids, header_tokens_cut
from ..table import Table
from ..vocab import Vocabulary, tokenize
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


def build_semi_templated_corpus_variant(gold: Table, max_rows: int) -> Table:
    """Gold table plus one all-NULL sentinel row at the bottom."""
    if gold.n_rows + 1 > max_rows:
        raise LayoutError(
            f"cannot append sentinel row: {gold.n_rows}+1 exceeds max_rows {max_rows}"
        )
    out = gold.copy()
    out.rows.append([None] * gold.n_cols)
    return out


def prepare_example(
    record: DatasetRecord, vocab: Vocabulary, cfg: ModelConfig, mode: str = "permuted"
) -> TrainingExample:
    if mode not in TRAINING_MODES:
        raise ValueError(f"unknown training mode {mode!r}")
    table = record.table
    count = float(table.n_rows)
    if mode == "semi-templated":
        table = build_semi_templated_corpus_variant(table, cfg.max_rows)
    if table.n_rows > cfg.max_rows:
        raise LayoutError(f"{record.id}: {table.n_rows} rows exceed max_rows {cfg.max_rows}")
    if table.n_cols > cfg.max_cols:
        raise LayoutError(f"{record.id}: {table.n_cols} columns exceed max_cols {cfg.max_cols}")
    cells: dict[Coord, list[int]] = {}
    for i, row in enumerate(table.rows, start=1):
        for j, cell in enumerate(row, start=1):
            ids = content_token_ids(vocab, cell)
            if len(ids) > cfg.max_cell_len - 1:
                raise LayoutError(
                    f"{record.id}: cell ({i},{j}) has {len(ids)} tokens, max {cfg.max_cell_len - 1}"
                )
            cells[(i, j)] = ids
    source_ids = vocab.encode(record.text)
    if not source_ids:
        raise LayoutError(f"{record.id}: empty source text")
    header_ids = [vocab.encode_tokens(tokenize(h)) for h in table.headers]
    return TrainingExample(
        id=record.id,
        source_ids=source_ids[: cfg.max_input_len],
        header_ids=header_ids,
        cell_ids=cells,
        n_rows=table.n_rows,
        n_cols=table.n_cols,
        count_target=count,
        input_tokens_dropped=max(0, len(source_ids) - cfg.max_input_len),
        header_tokens_dropped=header_tokens_cut(header_ids, cfg.max_cell_len),
    )


def build_training_pass(
    example: TrainingExample, stage: dict[Coord, int], model: TextToTableModel
) -> LayoutInstance:
    """Teacher-forced layout of one training pass: stage-0 cells are context,
    every other cell carries loss and sees the lower stages (see
    :func:`~text2table.model.layout.visibility_mask`)."""
    tpl = model.template_for(example.header_ids, example.n_rows)
    return instance_for_pass(tpl, model.grammar, example.cell_ids, stage)
