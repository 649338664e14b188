"""Batched training with the permuted-cell objective and the count head.

Every source of randomness is derived statelessly from (seed, step), so a
resumed run continues bit-identically to an uninterrupted one: batch
composition, per-example cell orderings and dropout all re-derive from the
step number alone.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from ..corpus import DatasetRecord
from ..decoding import DecodingConfig, decode_table
from ..fields import from_fields
from ..metrics import AlignmentMode, score_corpus
from ..model import TextToTableModel, collate_instances, save_checkpoint
from ..numerics import AdamW, Tensor, backward, clip_grad_norm, no_grad, ops
from .passes import TRAINING_MODES, TrainingExample, build_training_pass
from .permutation import causal_stages, row_major_order, sample_permutation

STREAM_BATCH, STREAM_PLAN, STREAM_DROPOUT, STREAM_EVAL = 0, 1, 2, 3


def step_rng(seed: int, step: int, stream: int, extra: tuple[int, ...] = ()) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, step, stream, *extra]))


@dataclass
class TrainingConfig:
    seed: int = 0
    steps: int = 100
    batch_size: int = 64
    lr: float = 1e-3
    weight_decay: float = 1e-5
    label_smoothing: float = 0.1
    count_loss_weight: float = 1.0
    clip_norm: float = 1.0
    eval_every: int = 0
    checkpoint_dir: str | None = None
    mode: str = "permuted"  # permuted | fixed-causal | semi-templated
    eval_decode_examples: int = 24

    def __post_init__(self):
        if self.mode not in TRAINING_MODES:
            raise ValueError(f"unknown training mode {self.mode!r} (expected one of {', '.join(TRAINING_MODES)})")
        if not 0.0 <= self.label_smoothing < 1.0:  # NaN fails too
            raise ValueError(f"label_smoothing must be in [0, 1), got {self.label_smoothing}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    @classmethod
    def from_json(cls, d: dict) -> "TrainingConfig":
        return from_fields(cls, d)


class TrainingDiverged(RuntimeError):
    def __init__(self, step: int, example_ids: list[str], components: dict):
        self.step = step
        self.example_ids = example_ids
        self.components = components
        super().__init__(
            f"non-finite loss at step {step}: {components} (examples {example_ids[:8]})"
        )


def build_source_batch(examples: list[TrainingExample]) -> tuple[np.ndarray, np.ndarray]:
    """Packed source ids [N], the examples' texts back to back, and their
    lengths [B] (see ``TextToTableModel.encode``)."""
    lens = np.array([len(e.source_ids) for e in examples], dtype=np.int64)
    ids = np.fromiter((t for e in examples for t in e.source_ids), dtype=np.int64, count=int(lens.sum()))
    return ids, lens


@dataclass
class StepStats:
    step: int
    nll: float
    mse: float
    total: float
    grad_norm: float = math.nan  # global L2 norm of the gradients before clipping


class Trainer:
    def __init__(
        self,
        model: TextToTableModel,
        train_examples: list[TrainingExample],
        cfg: TrainingConfig,
        *,
        val_records: list[DatasetRecord] | None = None,
        val_examples: list[TrainingExample] | None = None,
        eval_decoding: DecodingConfig | None = None,
        metrics_path: str | None = None,
        run_config: dict | None = None,
        start_step: int = 0,
        optimizer: AdamW | None = None,
    ):
        if not train_examples:
            raise ValueError("no training examples")
        self.model = model
        self.examples = train_examples
        self.cfg = cfg
        self.val_records = val_records or []
        self.val_examples = val_examples or []
        self.eval_decoding = eval_decoding or DecodingConfig()
        self.metrics_path = metrics_path
        self.run_config = run_config
        self.step = start_step
        self.opt = optimizer or AdamW(
            model.params, lr=cfg.lr, weight_decay=cfg.weight_decay
        )

    # ------------------------------------------------------------------

    def _instances_for(self, batch: list[TrainingExample], step: int):
        insts = []
        for slot, ex in enumerate(batch):
            if self.cfg.mode == "fixed-causal":
                stage = causal_stages(row_major_order(ex.n_rows, ex.n_cols))
            else:
                rng = step_rng(self.cfg.seed, step, STREAM_PLAN, (slot,))
                stage = sample_permutation(ex.n_rows, ex.n_cols, rng).stages
            insts.append(build_training_pass(ex, stage, self.model))
        return insts

    def _batch_loss(
        self, batch: list[TrainingExample], step: int, train: bool
    ) -> tuple[Tensor, Tensor, Tensor]:
        """(total, nll, mse) tensors for one example batch."""
        cfg, model = self.cfg, self.model
        rng = step_rng(cfg.seed, step, STREAM_DROPOUT) if train else None
        ids, lens = build_source_batch(batch)
        memory = model.encode(ids, lens, train=train, rng=rng)

        counts = np.array([ex.count_target for ex in batch], dtype=model.cfg.dtype)
        mse = ops.mse(model.count_pred(memory, lens), counts)

        dec_batch = collate_instances(self._instances_for(batch, step))
        hidden = model.decoder_hidden(model.memory_kv(memory), lens, dec_batch, train=train, rng=rng)
        pos, tgt, legal = dec_batch.flat_loss_arrays()
        nll = ops.cross_entropy(model.logits_at(hidden, pos), tgt, smoothing=cfg.label_smoothing, legal=legal)
        total = ops.add(nll, ops.scale(mse, cfg.count_loss_weight))
        return total, nll, mse

    def training_step(self, step: int) -> StepStats:
        cfg = self.cfg
        rng = step_rng(cfg.seed, step, STREAM_BATCH)
        idx = rng.integers(0, len(self.examples), size=cfg.batch_size)
        batch = [self.examples[int(i)] for i in idx]

        self.model.params.zero_grad()
        total, nll, mse = self._batch_loss(batch, step, train=True)
        stats = StepStats(step, nll.item(), mse.item(), total.item())
        if not np.isfinite(stats.total):
            self._dump_divergence(step, batch, stats)
            raise TrainingDiverged(
                step, [ex.id for ex in batch], {"nll": stats.nll, "mse": stats.mse}
            )
        backward(total)
        stats.grad_norm = clip_grad_norm(self.model.params, cfg.clip_norm)
        self.opt.step()
        return stats

    def _dump_divergence(self, step: int, batch: list[TrainingExample], stats: StepStats) -> None:
        if not self.cfg.checkpoint_dir:
            return
        os.makedirs(self.cfg.checkpoint_dir, exist_ok=True)
        path = os.path.join(self.cfg.checkpoint_dir, f"diverged-step{step}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "step": step,
                    "example_ids": [ex.id for ex in batch],
                    "nll": stats.nll,
                    "mse": stats.mse,
                    "total": stats.total,
                },
                fh,
                indent=2,
            )

    # ------------------------------------------------------------------

    def evaluate(self, step: int) -> dict:
        """Validation NLL/MSE (without a tape) and, from decoded tables, cell
        precision, recall and F1, per-column F1 and row-count accuracy; a
        value whose validation data the trainer lacks is None."""
        keys = ("nll", "mse", "cell_precision", "cell_recall", "cell_f1", "per_column_f1", "count_accuracy")
        out = {"step": step, **dict.fromkeys(keys)}
        if self.val_examples:
            cap = min(len(self.val_examples), max(self.cfg.batch_size, 8))
            with no_grad():
                _, nll, mse = self._batch_loss(self.val_examples[:cap], 0, train=False)
            out["nll"] = nll.item()
            out["mse"] = mse.item()
        if self.val_records:
            cap = min(len(self.val_records), self.cfg.eval_decode_examples)
            pairs = []
            for rec in self.val_records[:cap]:
                result = decode_table(
                    rec.text, self.model, self.eval_decoding, rec.table.headers
                )
                pairs.append((result.table, rec.table))
            score = score_corpus(pairs, AlignmentMode.assignment())
            out["cell_precision"] = score.counts.precision
            out["cell_recall"] = score.counts.recall
            out["cell_f1"] = score.counts.f1
            out["per_column_f1"] = {h: c.f1 for h, c in score.per_column.items()}
            out["count_accuracy"] = score.count_accuracy
        return out

    def _log_metrics(self, record: dict) -> None:
        if not self.metrics_path:
            return
        with open(self.metrics_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")

    def _checkpoint(self) -> None:
        if not self.cfg.checkpoint_dir:
            return
        os.makedirs(self.cfg.checkpoint_dir, exist_ok=True)
        save_checkpoint(
            os.path.join(self.cfg.checkpoint_dir, "latest.npz"),
            self.model,
            step=self.step,
            optimizer=self.opt,
            run_config=self.run_config,
        )

    def run(self) -> list[dict]:
        """Train to cfg.steps; returns the eval history."""
        history: list[dict] = []
        while self.step < self.cfg.steps:
            self.step += 1
            self.training_step(self.step)
            if self.cfg.eval_every and self.step % self.cfg.eval_every == 0:
                record = self.evaluate(self.step)
                history.append(record)
                self._log_metrics(record)
                self._checkpoint()
        self._checkpoint()
        return history
