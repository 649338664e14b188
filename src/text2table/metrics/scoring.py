"""Exact-match cell F1 over non-header, non-NULL cells.

Rows are aligned either by a key column (exact key-cell match) or by an
optimal one-to-one assignment maximizing the total number of exactly
matching cells. Cells compare byte-identical after trimming outer
whitespace; NULL cells are abstentions and appear in no numerator or
denominator. Precision counts predicted non-NULL cells, recall counts gold
non-NULL cells; per-column breakdowns use the same convention.

scipy's ``linear_sum_assignment`` solves the assignment; its tie-breaking
sets which rows pair and so the per-column F1. scipy is loaded on the first
assignment alignment, not when this module is imported, so a process that
never aligns by assignment never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..table import Table


class HeaderMismatchError(ValueError):
    def __init__(self, only_pred, only_gold):
        self.only_pred = sorted(only_pred)
        self.only_gold = sorted(only_gold)
        super().__init__(
            f"header sets differ: only in prediction {self.only_pred}, only in gold {self.only_gold}"
        )


class AlignmentError(ValueError):
    pass


@dataclass(frozen=True)
class AlignmentMode:
    mode: str  # "assignment" | "keyed"
    key: str | None = None

    @classmethod
    def assignment(cls) -> "AlignmentMode":
        return cls("assignment")

    @classmethod
    def keyed(cls, column: str) -> "AlignmentMode":
        return cls("keyed", column)

    @classmethod
    def parse(cls, text: str) -> "AlignmentMode":
        if text == "assignment":
            return cls.assignment()
        if text.startswith("keyed:") and len(text) > 6:
            return cls.keyed(text[6:])
        raise AlignmentError(f"bad alignment mode {text!r}; use 'assignment' or 'keyed:<column>'")


def _f1(p: float, r: float) -> float:
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


@dataclass
class Counts:
    correct: int = 0
    predicted: int = 0
    gold: int = 0

    def __add__(self, other: "Counts") -> "Counts":
        return Counts(self.correct + other.correct, self.predicted + other.predicted, self.gold + other.gold)

    @property
    def precision(self) -> float:
        return self.correct / self.predicted if self.predicted else 0.0

    @property
    def recall(self) -> float:
        return self.correct / self.gold if self.gold else 0.0

    @property
    def f1(self) -> float:
        return _f1(self.precision, self.recall)

    def report(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "correct": self.correct,
            "predicted": self.predicted,
            "gold": self.gold,
        }


@dataclass
class Score:
    """The counts of one table or of a corpus, overall and per column, and how
    many of its tables have the gold row count; two scores add up."""

    counts: Counts = field(default_factory=Counts)
    per_column: dict[str, Counts] = field(default_factory=dict)
    n_tables: int = 0
    n_row_count_exact: int = 0

    def __add__(self, other: "Score") -> "Score":
        columns = {**self.per_column, **other.per_column}
        return Score(
            self.counts + other.counts,
            {h: self.per_column.get(h, Counts()) + other.per_column.get(h, Counts()) for h in columns},
            self.n_tables + other.n_tables,
            self.n_row_count_exact + other.n_row_count_exact,
        )

    @property
    def count_accuracy(self) -> float:
        return self.n_row_count_exact / self.n_tables if self.n_tables else 0.0

    def report(self) -> dict:
        out = self.counts.report()
        out["count_accuracy"] = self.count_accuracy
        out["n_tables"] = self.n_tables
        out["per_column"] = {k: v.report() for k, v in self.per_column.items()}
        return out


def _trim(cell: str | None) -> str | None:
    return cell.strip() if cell is not None else None


def _normalized_rows(table: Table, header_order: list[str]) -> list[list[str | None]]:
    idx = [table.headers.index(h) for h in header_order]
    return [[_trim(row[j]) for j in idx] for row in table.rows]


def _pair_correct(pred_row: list[str | None], gold_row: list[str | None]) -> int:
    return sum(
        1 for p, g in zip(pred_row, gold_row) if p is not None and g is not None and p == g
    )


def _align_rows(
    pred: list[list[str | None]], gold: list[list[str | None]], mode: AlignmentMode, headers: list[str]
) -> list[tuple[int, int]]:
    if mode.mode == "keyed":
        if mode.key not in headers:
            raise AlignmentError(f"key column {mode.key!r} not present in headers {headers}")
        kj = headers.index(mode.key)
        taken: set[int] = set()
        pairs = []
        for i, prow in enumerate(pred):
            for j, grow in enumerate(gold):
                if j in taken:
                    continue
                if prow[kj] is not None and prow[kj] == grow[kj]:
                    pairs.append((i, j))
                    taken.add(j)
                    break
        return pairs
    if mode.mode == "assignment":
        if not pred or not gold:
            return []
        from scipy.optimize import linear_sum_assignment

        gain = np.zeros((len(pred), len(gold)), dtype=np.int64)
        for i, prow in enumerate(pred):
            for j, grow in enumerate(gold):
                gain[i, j] = _pair_correct(prow, grow)
        rows, cols = linear_sum_assignment(gain, maximize=True)
        return list(zip(rows.tolist(), cols.tolist()))
    raise AlignmentError(f"unknown alignment mode {mode.mode!r}")


def score_tables(pred: Table, gold: Table, mode: AlignmentMode) -> Score:
    """Score one predicted table against gold (headers must match as sets)."""
    pset, gset = set(pred.headers), set(gold.headers)
    if pset != gset:
        raise HeaderMismatchError(pset - gset, gset - pset)
    headers = list(gold.headers)
    prows = _normalized_rows(pred, headers)
    grows = _normalized_rows(gold, headers)

    per_column = {h: Counts() for h in headers}
    for row in prows:
        for h, cell in zip(headers, row):
            if cell is not None:
                per_column[h].predicted += 1
    for row in grows:
        for h, cell in zip(headers, row):
            if cell is not None:
                per_column[h].gold += 1
    for i, j in _align_rows(prows, grows, mode, headers):
        for h, p, g in zip(headers, prows[i], grows[j]):
            if p is not None and g is not None and p == g:
                per_column[h].correct += 1

    return Score(sum(per_column.values(), Counts()), per_column, 1, int(pred.n_rows == gold.n_rows))


def score_corpus(pairs: Iterable[tuple[Table, Table]], mode: AlignmentMode) -> Score:
    """Micro-averaged score over (pred, gold) pairs: the sum of their table scores."""
    return sum((score_tables(pred, gold, mode) for pred, gold in pairs), Score())
