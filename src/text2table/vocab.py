"""Word-level vocabulary with reserved structural ids.

Reserved ids sit at the front in a fixed order: PAD, BOS, NULL, EOC, UNK,
then one row marker per row index up to the configured maximum. Content
tokens follow, ordered by descending corpus frequency with lexicographic
tie-breaks, so vocabulary construction is independent of record order.
"""

from __future__ import annotations

import re
from collections import Counter

_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)

PAD, BOS, NULL, EOC, UNK = 0, 1, 2, 3, 4
_BASE_SURFACE = ("<pad>", "<bos>", "<null>", "<eoc>", "<unk>")


def tokenize(text: str) -> list[str]:
    """Split into word and single-punctuation tokens."""
    return _TOKEN_RE.findall(text)


def detokenize(tokens: list[str]) -> str:
    return " ".join(tokens)


class Vocabulary:
    def __init__(self, content_tokens: list[str], n_max_rows: int):
        self.n_max_rows = int(n_max_rows)
        self._surfaces = list(_BASE_SURFACE)
        self._surfaces += [f"<row_{i}>" for i in range(1, self.n_max_rows + 1)]
        self.first_content_id = len(self._surfaces)
        reserved = set(self._surfaces)
        for tok in content_tokens:
            if tok in reserved:
                raise ValueError(f"content token collides with reserved surface: {tok!r}")
        self._surfaces += list(content_tokens)
        self._ids = {s: i for i, s in enumerate(self._surfaces)}
        if len(self._ids) != len(self._surfaces):
            raise ValueError("duplicate content tokens")

    @classmethod
    def from_counts(cls, counts: Counter, n_max_rows: int) -> "Vocabulary":
        ordered = sorted(counts, key=lambda t: (-counts[t], t))
        return cls(ordered, n_max_rows)

    def __len__(self) -> int:
        return len(self._surfaces)

    def row_marker_id(self, row: int) -> int:
        if not 1 <= row <= self.n_max_rows:
            raise ValueError(f"row marker {row} outside 1..{self.n_max_rows}")
        return len(_BASE_SURFACE) + row - 1

    def id_of(self, token: str) -> int:
        return self._ids.get(token, UNK)

    def surface(self, token_id: int) -> str:
        return self._surfaces[token_id]

    def encode(self, text: str) -> list[int]:
        return [self.id_of(t) for t in tokenize(text)]

    def decode_content(self, ids: list[int]) -> str:
        return detokenize([self._surfaces[i] for i in ids])

    def content_ids(self) -> list[int]:
        return [UNK] + list(range(self.first_content_id, len(self._surfaces)))

    def to_json(self) -> dict:
        return {
            "n_max_rows": self.n_max_rows,
            "content_tokens": self._surfaces[self.first_content_id :],
        }

    @classmethod
    def from_json(cls, d: dict) -> "Vocabulary":
        return cls(list(d["content_tokens"]), int(d["n_max_rows"]))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Vocabulary)
            and self._surfaces == other._surfaces
            and self.n_max_rows == other.n_max_rows
        )
