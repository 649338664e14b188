from .scoring import (
    AlignmentError,
    AlignmentMode,
    Counts,
    HeaderMismatchError,
    Score,
    score_corpus,
    score_tables,
)

__all__ = [
    "AlignmentError",
    "AlignmentMode",
    "Counts",
    "HeaderMismatchError",
    "Score",
    "score_corpus",
    "score_tables",
]
