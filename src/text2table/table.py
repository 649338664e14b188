"""The central table object: named columns over rows of optional cell strings."""

from __future__ import annotations

from dataclasses import dataclass, field


class TableFormatError(ValueError):
    """Structurally invalid table (duplicate headers, ragged rows)."""


@dataclass
class Table:
    headers: list[str]
    rows: list[list[str | None]] = field(default_factory=list)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.headers)

    def validate(self) -> "Table":
        if len(set(self.headers)) != len(self.headers):
            raise TableFormatError(f"duplicate headers: {self.headers}")
        if not self.headers:
            raise TableFormatError("table needs at least one column")
        for i, row in enumerate(self.rows):
            if len(row) != len(self.headers):
                raise TableFormatError(
                    f"row {i} has {len(row)} cells, expected {len(self.headers)}"
                )
        return self

    def to_dict(self) -> dict:
        return {"headers": list(self.headers), "rows": [list(r) for r in self.rows]}

    @classmethod
    def from_dict(cls, d: dict) -> "Table":
        """Table from its JSON form; a string as headers, rows or a row is refused, not split."""
        headers, rows = d["headers"], d["rows"]
        for what, value in [("headers", headers), ("rows", rows)] + [(f"row {i}", r) for i, r in enumerate(rows)]:
            if not isinstance(value, list):  # rows are checked before any row
                raise TableFormatError(f"{what} must be a list, got {type(value).__name__}")
        return cls(list(headers), [list(r) for r in rows]).validate()
