"""The benchmark's workloads: shared set-up, the timed operation, output checks.

Every workload runs on the ``lineitems`` corpus (4 columns, 1-4 rows) made
from the run's seed, with a model built from ``ModelConfig`` defaults and only
``vocab_size`` set, so a change of a library default shows in the numbers.
The model's initial weights come from a fixed seed: they are the program's
state, not its input, and fixing them keeps ``loss`` steady across seeds.
One operation is a training step (``train``) or one decoded table (the decode
workloads).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from text2table.corpus import CorpusSpec, build_vocab, generate
from text2table.decoding import DecodingConfig, decode_table
from text2table.model import ModelConfig, TextToTableModel
from text2table.numerics import no_grad
from text2table.training import Trainer, TrainingConfig, prepare_example, step_rng
from text2table.training.loop import STREAM_BATCH

MODEL_SEED = 0


class CheckFailed(Exception):
    """An operation returned output that breaks one of the workload's checks."""


@dataclass(frozen=True)
class Scale:
    model_kw: dict  # ModelConfig overrides; empty means library defaults
    batch_size: int
    n_records: int
    warmup: int  # untimed operations before the timed region
    min_ops: int  # timed operations every run makes, however long they take
    quality_ops: int  # training steps at the end of the fixed prefix that `loss` averages
    quality_tables: int  # gold tables the decode workloads' `loss` is measured on


FULL = Scale(
    model_kw={}, batch_size=16, n_records=256, warmup=2, min_ops=100, quality_ops=20, quality_tables=64
)
# for the benchmark's own tests only
TINY = Scale(
    model_kw=dict(d_model=16, n_heads=2, n_enc_layers=1, n_dec_layers=1, d_ff=32),
    batch_size=4,
    n_records=16,
    warmup=1,
    min_ops=4,
    quality_ops=2,
    quality_tables=4,
)


@dataclass
class Setup:
    records: list
    model: TextToTableModel
    examples: list


def build(seed: int, scale: Scale) -> Setup:
    """Corpus, vocabulary, model and training examples for one seed."""
    spec = CorpusSpec(task="lineitems", n_examples=scale.n_records, rows_min=1, rows_max=4, seed=seed)
    records = list(generate(spec))
    max_rows = ModelConfig(vocab_size=1, **scale.model_kw).max_rows
    vocab = build_vocab(records, n_max_rows=max_rows)
    cfg = ModelConfig(vocab_size=len(vocab), **scale.model_kw)
    model = TextToTableModel(cfg, vocab, seed=MODEL_SEED)
    examples = [prepare_example(r, vocab, cfg) for r in records]
    return Setup(records, model, examples)


@dataclass
class Outcome:
    examples: int  # training examples consumed or tables decoded
    tokens: int  # table tokens (cell tokens plus one end-of-cell each) trained on or produced
    digest: str  # exact text of the output, hashed into the run's output sha256
    loss: float | None = None  # training token loss (label-smoothed cross entropy)
    counts: dict = field(default_factory=dict)  # decode statistics for the per-layer split


def _table_tokens(cell_ids: dict) -> int:
    return sum(len(ids) + 1 for ids in cell_ids.values())


class Train:
    """Permuted-objective training steps at the library's default dropout."""

    def __init__(self, setup: Setup, seed: int, scale: Scale):
        self.setup = setup
        self.scale = scale
        self.cfg = TrainingConfig(seed=seed, batch_size=scale.batch_size)
        self.trainer = Trainer(setup.model, setup.examples, self.cfg)
        self.tokens = [_table_tokens(ex.cell_ids) for ex in setup.examples]
        self._before: np.ndarray | None = None

    def quality(self, prefix: list[Outcome | None]) -> float:
        """Mean token loss over the last training steps of the fixed prefix.

        The row-count MSE is left out: at this stage it swings by a third
        between seeds and would hide a change in the token loss."""
        losses = [o.loss for o in prefix[-self.scale.quality_ops :] if o is not None]
        return sum(losses) / len(losses) if losses else math.inf

    def _params(self) -> np.ndarray:
        return np.concatenate([t.data.ravel() for _, t in self.setup.model.params.items()])

    def before(self, i: int) -> None:
        self._before = self._params()

    def call(self, i: int):
        return self.trainer.training_step(i + 1)

    def check(self, i: int, stats) -> Outcome:
        if not all(math.isfinite(v) for v in (stats.total, stats.nll, stats.mse)):
            raise CheckFailed(f"step {i + 1}: non-finite loss {stats}")
        if np.array_equal(self._before, self._params()):
            raise CheckFailed(f"step {i + 1}: parameters unchanged")
        # the trainer's own batch draw, repeated to count the tokens it trained on
        idx = step_rng(self.cfg.seed, i + 1, STREAM_BATCH).integers(
            0, len(self.setup.examples), size=self.cfg.batch_size
        )
        return Outcome(
            examples=self.cfg.batch_size,
            tokens=sum(self.tokens[int(j)] for j in idx),
            digest=" ".join(float(v).hex() for v in (stats.total, stats.nll, stats.mse)),
            loss=stats.nll,
        )


class Decode:
    """Tables decoded by the seeded, untrained model, cycling over the corpus."""

    def __init__(self, setup: Setup, seed: int, scale: Scale, cfg: DecodingConfig, fixed_rows: int | None = None):
        self.setup = setup
        self.seed = seed
        self.scale = scale
        self.cfg = cfg
        self.max_rows = setup.model.cfg.max_rows
        self.fixed_rows = fixed_rows
        if fixed_rows is not None:
            # the count head starts at zero weight, so its bias alone sets the row count
            setup.model.params["count.b"].data[...] = float(fixed_rows)

    def quality(self, prefix: list[Outcome | None]) -> float:
        """Token loss of the decoding model on gold tables, teacher-forced; it
        moves only when the model's numerics do."""
        cfg = TrainingConfig(seed=self.seed, batch_size=self.scale.batch_size)
        trainer = Trainer(self.setup.model, self.setup.examples, cfg)
        nll = []
        with no_grad():  # batch by batch and without a tape, so memory stays at the workload's level
            for k in range(0, self.scale.quality_tables, cfg.batch_size):
                trainer.val_examples = self.setup.examples[k : k + cfg.batch_size]
                nll.append(trainer.evaluate(0)["nll"])
        return sum(nll) / len(nll)

    def before(self, i: int) -> None:
        pass

    def call(self, i: int):
        rec = self.setup.records[i % len(self.setup.records)]
        return decode_table(rec.text, self.setup.model, self.cfg, rec.table.headers, keep_trace=True)

    def check(self, i: int, res) -> Outcome:
        rec = self.setup.records[i % len(self.setup.records)]
        table = res.table
        m = len(rec.table.headers)
        if table.headers != rec.table.headers:
            raise CheckFailed(f"table {i}: headers {table.headers} != {rec.table.headers}")
        if self.fixed_rows is not None:
            ok_rows = table.n_rows == self.fixed_rows
        elif res.hit_row_cap:
            ok_rows = table.n_rows == self.max_rows
        else:
            ok_rows = table.n_rows < self.max_rows
        if not ok_rows:
            raise CheckFailed(f"table {i}: {table.n_rows} rows (row cap hit: {res.hit_row_cap})")
        for row in table.rows:
            if len(row) != m or not all(c is None or isinstance(c, str) for c in row):
                raise CheckFailed(f"table {i}: malformed row {row!r}")
        # semi-templated decoding also decodes the all-NULL sentinel row it drops
        decoded_rows = table.n_rows + (self.fixed_rows is None and not res.hit_row_cap)
        cells = [t.cell for t in res.trace]
        expected = {(r, c) for r in range(1, decoded_rows + 1) for c in range(1, m + 1)}
        if len(cells) != len(expected) or set(cells) != expected:
            raise CheckFailed(f"table {i}: trace covers {sorted(cells)}, expected {sorted(expected)}")
        tokens = sum(len(t.tokens) + 1 for t in res.trace)
        return Outcome(
            examples=1,
            tokens=tokens,
            digest=json.dumps(
                [table.to_dict(), [[t.iteration, t.cell, float(t.score).hex(), t.tokens] for t in res.trace]]
            ),
            counts={
                "tokens": tokens,
                "outer_iterations": res.outer_iterations,
                "truncated_cells": len(res.truncated_cells),
                "committed": len(res.trace),
            },
        )


WORKLOADS = {
    "train": lambda setup, seed, scale: Train(setup, seed, scale),
    "decode-k1": lambda setup, seed, scale: Decode(
        setup, seed, scale, DecodingConfig(k=1, constraint="none"), fixed_rows=3
    ),
    "decode-semi-k4": lambda setup, seed, scale: Decode(
        setup, seed, scale, DecodingConfig(k=4, stopping="semi-templated")
    ),
}
