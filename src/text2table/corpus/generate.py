"""Procedural text-to-table corpora.

Three task families:

* ``keyvalue``  - one row of named properties stated in shuffled sentences.
* ``lineitems`` - several purchase rows; one optional column exercises NULLs.
* ``dependent`` - a target column whose evidence sentence is keyed by another
  cell of the same row and placed late in the text (after later rows' base
  sentences), so a strict top-down, left-to-right decode order must commit
  the target before its anchor is cheap to resolve.

Generation is deterministic per (seed, record index); records are therefore
independent and the stream can be produced in any order or in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..table import Table
from ..vocab import tokenize
from .io import DatasetRecord

TASKS = ("keyvalue", "lineitems", "dependent")

ITEMS = [
    "pens", "books", "mugs", "chairs", "lamps", "desks",
    "plates", "forks", "ropes", "nails", "bolts", "tiles",
]
COLORS = ["red", "blue", "green", "black", "white", "silver"]
NAMES = ["alice", "omar", "mei", "ravi", "lena", "kofi", "sara", "ivan"]
CITIES = ["lisbon", "oslo", "quito", "hanoi", "accra", "perth"]
PLANS = ["basic", "gold", "family", "student"]
NOISE = [
    "the store was busy today .",
    "thanks for the visit .",
    "delivery was quick .",
    "the weather stayed calm .",
]


class CorpusError(ValueError):
    """Invalid corpus spec or a schema that produces invalid cells."""


@dataclass
class CorpusSpec:
    task: str
    n_examples: int
    rows_min: int = 1
    rows_max: int = 3
    noise_rate: float = 0.2
    null_rate: float = 0.2
    max_cell_tokens: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.task not in TASKS:
            raise CorpusError(f"unknown task {self.task!r}, expected one of {TASKS}")
        if self.n_examples < 0 or self.rows_min < 0 or self.rows_max < self.rows_min:
            raise CorpusError("bad n_examples / row-count bounds")
        if self.task == "dependent" and self.rows_min < 2:
            # the non-row-major guarantee needs at least two rows
            self.rows_min = 2
            self.rows_max = max(self.rows_max, 2)
        if self.rows_max > len(ITEMS) and self.task in ("lineitems", "dependent"):
            raise CorpusError(f"rows_max {self.rows_max} exceeds distinct item pool {len(ITEMS)}")


_COLUMNS = {  # each task's table columns, in order
    "keyvalue": ["name", "city", "age", "plan"],
    "lineitems": ["item", "qty", "price", "color"],
    "dependent": ["total", "item", "qty", "unit"],
}


def _check_cell(spec: CorpusSpec, column: str, value: str | None) -> str | None:
    if value is None:
        return None
    if len(tokenize(value)) > spec.max_cell_tokens:
        raise CorpusError(f"column {column!r} produced an over-long cell: {value!r}")
    return value


def _with_noise(rng: np.random.Generator, sentences: list[str], rate: float) -> list[str]:
    out: list[str] = []
    for s in sentences:
        if rng.random() < rate:
            out.append(NOISE[int(rng.integers(len(NOISE)))])
        out.append(s)
    # a record with no sentence (a table with no rows) still gets one, drawn
    # last so that every other record keeps its text
    if rng.random() < rate or not out:
        out.append(NOISE[int(rng.integers(len(NOISE)))])
    return out


def _gen_keyvalue(spec: CorpusSpec, rng: np.random.Generator) -> tuple[str, list[dict]]:
    name = NAMES[int(rng.integers(len(NAMES)))]
    city = CITIES[int(rng.integers(len(CITIES)))]
    age = str(int(rng.integers(18, 90)))
    plan = PLANS[int(rng.integers(len(PLANS)))] if rng.random() >= spec.null_rate else None
    values = {"name": name, "city": city, "age": age, "plan": plan}
    sentences = [f"the {k} is {v} ." for k, v in values.items() if v is not None]
    order = rng.permutation(len(sentences))
    sentences = [sentences[i] for i in order]
    return " ".join(_with_noise(rng, sentences, spec.noise_rate)), [values]


def _gen_lineitems(spec: CorpusSpec, rng: np.random.Generator) -> tuple[str, list[dict]]:
    n = int(rng.integers(spec.rows_min, spec.rows_max + 1))
    items = list(rng.choice(len(ITEMS), size=n, replace=False))
    sentences: list[str] = []
    rows: list[dict] = []
    for idx in items:
        item = ITEMS[int(idx)]
        qty = str(int(rng.integers(1, 10)))
        price = str(int(rng.integers(2, 21)))
        color = COLORS[int(rng.integers(len(COLORS)))] if rng.random() >= spec.null_rate else None
        verb = "bought" if rng.random() < 0.5 else "ordered"
        if color is None:
            sentences.append(f"the customer {verb} {qty} {item} for {price} dollars .")
        else:
            sentences.append(f"the customer {verb} {qty} {color} {item} for {price} dollars .")
        rows.append({"item": item, "qty": qty, "price": price, "color": color})
    return " ".join(_with_noise(rng, sentences, spec.noise_rate)), rows


def _gen_dependent(spec: CorpusSpec, rng: np.random.Generator) -> tuple[str, list[dict]]:
    n = int(rng.integers(spec.rows_min, spec.rows_max + 1))
    items = list(rng.choice(len(ITEMS), size=n, replace=False))
    base: list[str] = []
    cues: list[str] = []
    rows: list[dict] = []
    for idx in items:
        item = ITEMS[int(idx)]
        qty = int(rng.integers(1, 10))
        unit = int(rng.integers(2, 10))
        total = qty * unit
        base.append(f"they bought {qty} {item} at {unit} each .")
        cues.append(f"the {item} order came to {total} in total .")
        rows.append({"total": str(total), "item": item, "qty": str(qty), "unit": str(unit)})
    # cue sentences follow every base sentence, in reversed row order: the
    # dependent column's evidence for row i comes after rows i+1.. are stated
    sentences = base + cues[::-1]
    return " ".join(_with_noise(rng, sentences, spec.noise_rate)), rows


_GENERATORS = {
    "keyvalue": _gen_keyvalue,
    "lineitems": _gen_lineitems,
    "dependent": _gen_dependent,
}


def generate(spec: CorpusSpec) -> Iterator[DatasetRecord]:
    """Yield n_examples records, deterministic in (seed, index)."""
    gen, columns = _GENERATORS[spec.task], _COLUMNS[spec.task]
    for idx in range(spec.n_examples):
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, idx]))
        text, rows = gen(spec, rng)
        table = Table(list(columns), [[_check_cell(spec, c, cells[c]) for c in columns] for cells in rows])
        yield DatasetRecord(f"{spec.task}-{idx:06d}", text, table.validate())
