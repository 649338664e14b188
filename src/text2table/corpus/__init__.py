from collections import Counter
from typing import Iterable

from ..vocab import Vocabulary, tokenize
from .generate import TASKS, CorpusError, CorpusSpec, generate
from .io import DataFormatError, DatasetRecord, read_jsonl, record_to_line, write_jsonl

__all__ = [
    "CorpusError",
    "CorpusSpec",
    "DataFormatError",
    "DatasetRecord",
    "TASKS",
    "build_vocab",
    "generate",
    "read_jsonl",
    "record_to_line",
    "write_jsonl",
]


def build_vocab(records: Iterable[DatasetRecord], n_max_rows: int) -> Vocabulary:
    """Count tokens across text, headers and cells; ids are order-independent."""
    counts: Counter = Counter()
    empty = True
    for rec in records:
        empty = False
        counts.update(tokenize(rec.text))
        for h in rec.table.headers:
            counts.update(tokenize(h))
        for row in rec.table.rows:
            for cell in row:
                if cell is not None:
                    counts.update(tokenize(cell))
    if empty:
        raise CorpusError("cannot build a vocabulary from an empty corpus")
    return Vocabulary.from_counts(counts, n_max_rows)
