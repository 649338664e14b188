"""Dataset records and JSONL input/output.

One record per line: {"id": str, "text": str, "table": {"headers": [...],
"rows": [[cell-or-null, ...], ...]}}. Absent cells are JSON null, never the
string "null".
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator

from ..files import atomic_write
from ..table import Table, TableFormatError


class DataFormatError(ValueError):
    """Malformed dataset content; carries line number or record id."""

    def __init__(self, message: str, line: int | None = None, record_id: str | None = None):
        self.line = line
        self.record_id = record_id
        where = f" (line {line})" if line is not None else ""
        who = f" (record {record_id})" if record_id else ""
        super().__init__(f"{message}{where}{who}")


@dataclass
class DatasetRecord:
    id: str
    text: str
    table: Table

    def to_dict(self) -> dict:
        return {"id": self.id, "text": self.text, "table": self.table.to_dict()}


def _parse_record(obj: dict, line: int) -> DatasetRecord:
    try:
        rid = obj["id"]
        text = obj["text"]
        tbl = obj["table"]
    except (KeyError, TypeError):
        raise DataFormatError("record must have id, text and table keys", line=line) from None
    if not isinstance(rid, str) or not isinstance(text, str):
        raise DataFormatError("id and text must be strings", line=line)
    try:
        table = Table.from_dict(tbl)
    except (TableFormatError, KeyError, TypeError) as exc:
        raise DataFormatError(f"bad table: {exc}", line=line, record_id=str(rid)) from None
    if not all(isinstance(h, str) for h in table.headers):
        raise DataFormatError("headers must be strings", line=line, record_id=rid)
    for row in table.rows:
        for cell in row:
            if cell is not None and not isinstance(cell, str):
                raise DataFormatError("cells must be strings or null", line=line, record_id=rid)
    return DatasetRecord(rid, text, table)


def read_jsonl(path: str) -> Iterator[DatasetRecord]:
    """Stream records; raises DataFormatError with the offending line/record,
    or with the path of a file that is not UTF-8 text."""
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, start=1):
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    obj = json.loads(raw)
                except json.JSONDecodeError as exc:
                    raise DataFormatError(f"invalid JSON: {exc.msg}", line=line_no) from None
                yield _parse_record(obj, line_no)
    except (OSError, UnicodeDecodeError) as exc:  # a directory, say, or another encoding
        raise DataFormatError(f"{path}: not readable as UTF-8 text ({type(exc).__name__})") from None


def record_to_line(rec: DatasetRecord) -> str:
    return json.dumps(rec.to_dict(), ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def write_jsonl(records: Iterable[DatasetRecord], path: str) -> int:
    """Write records atomically (no partial file on failure), as
    :func:`~text2table.files.atomic_write` writes. Returns count."""
    n = 0
    with atomic_write(path, encoding="utf-8") as fh:
        for rec in records:
            rec.table.validate()
            fh.write(record_to_line(rec))
            fh.write("\n")
            n += 1
    return n
