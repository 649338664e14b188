"""Implementations behind the command-line subcommands."""

from __future__ import annotations

import dataclasses
import json
import os
import statistics
import sys
from time import perf_counter
from typing import NamedTuple

import numpy as np

from ..corpus import CorpusError, CorpusSpec, DatasetRecord, build_vocab, generate, read_jsonl, write_jsonl
from ..decoding import DecodingConfig, NonFiniteCountError, NonFiniteLogitsError, decode_table
from ..decoding.engine import DECODE_COUNTS
from ..fields import from_fields
from ..metrics import AlignmentMode, score_corpus
from ..model import LayoutError, ModelConfig, TextToTableModel, load_checkpoint
from ..numerics import AdamW
from ..training import Trainer, TrainingConfig, TrainingExample, prepare_example
from ..vocab import Vocabulary
from .runconfig import (
    PATH_KEYS,
    ConfigError,
    apply_overrides,
    canonical_json,
    check_run_config,
    config_hash,
    file_sha256,
    load_json_config,
    merged_run_config,
)


class DataError(RuntimeError):
    """Exit code 2: dataset or report input problems."""


class ModelError(RuntimeError):
    """Exit code 3: model or checkpoint problems."""


def _parse_config(kind: str, cls, d: dict):
    """``from_fields(cls, d)``, with a bad or unknown key as a :class:`ConfigError`."""
    try:
        return from_fields(cls, d)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad {kind} config: {exc}") from None


def _read_records(path: str) -> list[DatasetRecord]:
    if not os.path.exists(path):
        raise DataError(f"dataset not found: {path}")
    return list(read_jsonl(path))


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------


def cmd_gen_data(spec_path: str, out_path: str) -> int:
    try:
        spec = from_fields(CorpusSpec, load_json_config(spec_path))
    except (ValueError, TypeError) as exc:  # CorpusError, or an unknown key
        raise DataError(f"bad corpus spec: {exc}") from None
    try:
        n = write_jsonl(generate(spec), out_path)
    except CorpusError as exc:
        raise DataError(f"generation failed: {exc}") from None
    print(f"wrote {n} records to {out_path}")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def warn_cut_ids(command: str, examples: list[TrainingExample], cfg: ModelConfig, point: dict | None = None) -> None:
    """Print to stderr, one line per kind, the source and header token ids
    the training examples lost at ``max_input_len`` and ``max_cell_len``;
    ``point`` names the ablation grid point they belong to. A command calls
    this once its runs end, so that on exit 3 its error line stands alone."""
    where = "" if point is None else f"grid point {canonical_json(point)}: "
    for attr, what, limit, unit in (
        ("input_tokens_dropped", "source", "max_input_len", "texts"),
        ("header_tokens_dropped", "header", "max_cell_len", "tables"),
    ):
        cut = [getattr(ex, attr) for ex in examples if getattr(ex, attr)]
        if cut:
            print(
                f"text2table {command}: warning: {where}{sum(cut)} {what} token ids beyond {limit} "
                f"{getattr(cfg, limit)} dropped from {len(cut)} of {len(examples)} training {unit}",
                file=sys.stderr,
            )


class Run(NamedTuple):
    """A checked run config with its data read and every section parsed."""

    records: list[DatasetRecord]
    val_records: list[DatasetRecord]
    vocab: Vocabulary
    model: ModelConfig
    training: TrainingConfig
    decoding: DecodingConfig
    paths: dict

    def resolved(self) -> dict:
        """The run config with every section's defaults filled in, so a key
        left at its default and the same value written out resolve alike, and
        a changed library default changes the result. It is itself a valid run
        config."""
        training = dataclasses.asdict(self.training)
        return {
            "seed": training.pop("seed"),
            "model": dataclasses.asdict(self.model),
            "training": training,
            "decoding": dataclasses.asdict(self.decoding),
            "paths": {k: self.paths.get(k) for k in PATH_KEYS},
        }

    def examples(self) -> list[TrainingExample]:
        """The run's training examples."""
        return [prepare_example(r, self.vocab, self.model) for r in self.records]

    def build(self) -> tuple[TextToTableModel, list[TrainingExample]]:
        """A freshly initialised model and its training examples."""
        return TextToTableModel(self.model, self.vocab, seed=self.training.seed), self.examples()

    def trainer(self, model: TextToTableModel, examples: list[TrainingExample], **kwargs) -> Trainer:
        """A :class:`Trainer` that evaluates on the run's validation records;
        a record or example the model cannot lay out is a :class:`LayoutError`."""
        val_examples = [prepare_example(r, model.vocab, model.cfg) for r in self.val_records]
        return Trainer(
            model, examples, self.training, val_records=self.val_records, val_examples=val_examples,
            eval_decoding=self.decoding, **kwargs
        )


def _parse_decoding(d: dict, model: ModelConfig) -> DecodingConfig:
    """The decoding config ``d``, refused when its row cap exceeds the rows ``model`` allows."""
    dcfg = _parse_config("decoding", DecodingConfig, d)
    if (dcfg.max_rows_override or 0) > model.max_rows:
        raise ConfigError(f"decoding.max_rows_override {dcfg.max_rows_override} exceeds max_rows {model.max_rows}")
    return dcfg


def prepare_run(cfg: dict) -> Run:
    """Check a merged run config, read its datasets and parse its sections.
    Without ``paths.val_dataset`` the first 32 training records validate."""
    check_run_config(cfg)
    paths = cfg["paths"]
    if not paths.get("dataset"):
        raise ConfigError("paths.dataset is required")
    records = _read_records(paths["dataset"])
    val_records = _read_records(paths["val_dataset"]) if paths.get("val_dataset") else records[:32]
    for path, recs in ((paths["dataset"], records), (paths.get("val_dataset"), val_records)):
        if not recs:
            raise DataError(f"dataset has no records: {path}")
    # the vocabulary holds a row marker per row the model allows, and sets vocab_size
    model = _parse_config("model", ModelConfig, {**cfg["model"], "vocab_size": 0})
    vocab = build_vocab(records, n_max_rows=model.max_rows)
    if cfg["model"].get("vocab_size", len(vocab)) != len(vocab):
        raise ConfigError(f"model.vocab_size {cfg['model']['vocab_size']!r} is not the vocabulary's size {len(vocab)}")
    return Run(
        records,
        val_records,
        vocab,
        dataclasses.replace(model, vocab_size=len(vocab)),
        _parse_config("training", TrainingConfig, {"seed": cfg["seed"], **cfg["training"]}),
        _parse_decoding(cfg["decoding"], model),
        paths,
    )


def _resume_hash(resolved: dict) -> str:
    """Hash of what a resumed run must share with its checkpoint: the whole
    resolved run config but ``training.steps``, the step target, so a run can
    be resumed to train longer (no part of a step depends on the target)."""
    training = {k: v for k, v in resolved.get("training", {}).items() if k != "steps"}
    return config_hash({**resolved, "training": training})


def cmd_train(config_path: str, overrides: list[str], resume: bool = False) -> int:
    cfg = apply_overrides(merged_run_config(load_json_config(config_path)), overrides)
    run = prepare_run(cfg)
    tcfg = run.training
    latest = os.path.join(tcfg.checkpoint_dir, "latest.npz") if tcfg.checkpoint_dir else None
    if resume and not latest:
        raise ConfigError("--resume needs training.checkpoint_dir, the directory that holds latest.npz")
    if resume and not os.path.exists(latest):
        raise ConfigError(f"--resume found no checkpoint to resume from: {latest} does not exist")
    resolved = run.resolved()
    chash = config_hash(resolved)
    if tcfg.checkpoint_dir:
        os.makedirs(tcfg.checkpoint_dir, exist_ok=True)
    metrics_path = os.path.join(tcfg.checkpoint_dir, "metrics.jsonl") if tcfg.checkpoint_dir else None
    run_config = {"config": resolved, "config_hash": chash, "dataset_sha256": file_sha256(cfg["paths"]["dataset"])}

    start_step = 0
    optimizer = None
    if resume:
        model, meta = load_checkpoint(latest)
        stored = meta["run_config"]
        if (
            stored is None
            or not isinstance(stored.get("config"), dict)
            or _resume_hash(stored["config"]) != _resume_hash(resolved)
            or stored.get("dataset_sha256") != run_config["dataset_sha256"]
        ):
            raise ModelError(
                f"refusing to resume from {latest}: it was trained under another run config or dataset "
                "(only training.steps may change)"
            )
        if meta["optimizer"] is None:
            raise ModelError(f"cannot resume from {latest}: it holds no optimizer state")
        examples = run.examples()
        optimizer = AdamW(model.params, lr=tcfg.lr, weight_decay=tcfg.weight_decay)
        optimizer.load_state_arrays(meta["opt_arrays"], meta["optimizer"]["step_count"])
        start_step = meta["step"]
        print(f"resuming from step {start_step}")
    else:
        model, examples = run.build()

    trainer = run.trainer(
        model, examples, metrics_path=metrics_path, run_config=run_config, start_step=start_step, optimizer=optimizer
    )
    if not resume and metrics_path and os.path.exists(metrics_path):
        os.unlink(metrics_path)
    history = trainer.run()
    warn_cut_ids("train", examples, model.cfg)
    if history:
        last = history[-1]
        print(f"final eval: {json.dumps(last, sort_keys=True)}")
    print(f"trained to step {trainer.step}; config hash {chash[:12]}")
    return 0


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------


def cmd_decode(
    checkpoint_path: str,
    dataset_path: str,
    out_path: str,
    config_path: str | None = None,
    overrides: list[str] | None = None,
    trace_path: str | None = None,
) -> int:
    for path in filter(None, (out_path, trace_path)):  # refused before the first table, not after the last
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise DataError(f"cannot write {path}: {os.path.dirname(path)} is not a directory")
    model, meta = load_checkpoint(checkpoint_path)
    dcfg_dict = load_json_config(config_path) if config_path else {}
    dcfg = _parse_decoding(apply_overrides(dcfg_dict, overrides or []), model.cfg)

    records = _read_records(dataset_path)
    preds: list[DatasetRecord] = []
    traces: list[dict] = []
    totals = dict.fromkeys(DECODE_COUNTS, 0)
    passes: list[int] = []  # per table
    ms: list[float] = []  # per table
    for rec in records:
        start = perf_counter()
        try:
            result = decode_table(rec.text, model, dcfg, rec.table.headers, keep_trace=bool(trace_path))
        except LayoutError as exc:  # the record, as train refuses it
            raise DataError(f"{rec.id}: {exc}") from None
        except (NonFiniteCountError, NonFiniteLogitsError) as exc:
            raise ModelError(f"{rec.id}: {exc}") from None
        ms.append((perf_counter() - start) * 1e3)
        preds.append(DatasetRecord(rec.id, rec.text, result.table))
        counts = result.counts()
        totals = {key: n + counts[key] for key, n in totals.items()}
        passes.append(result.decoder_passes)
        if trace_path:
            traces.append(
                {
                    "id": rec.id,
                    **counts,
                    "predicted_count": result.predicted_count,
                    "trace": [
                        {
                            "iteration": t.iteration,
                            "cell": list(t.cell),
                            "score": t.score,
                            "tokens": [model.vocab.surface(i) for i in t.tokens],
                            "truncated": t.truncated,
                        }
                        for t in result.trace
                    ],
                }
            )
    write_jsonl(preds, out_path)
    ms_p50, ms_p95 = np.percentile(ms, [50, 95]).tolist() if ms else (None, None)
    sidecar = {
        "checkpoint_step": meta["step"],
        "config_hash": None if meta["run_config"] is None else meta["run_config"].get("config_hash"),
        "decoding": dataclasses.asdict(dcfg),
        "dataset_sha256": file_sha256(dataset_path),
        "tables": len(preds),
        **totals,
        "decoder_passes_p50": statistics.median(passes) if passes else None,
        "decoder_passes_max": max(passes, default=None),
        "tokens_per_table_mean": totals["tokens"] / len(preds) if preds else None,
        "ms_per_table_p50": ms_p50,
        "ms_per_table_p95": ms_p95,
    }
    with open(out_path + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, sort_keys=True, indent=2)
    if trace_path:
        with open(trace_path, "w", encoding="utf-8") as fh:
            for t in traces:
                fh.write(json.dumps(t, sort_keys=True) + "\n")
    print(f"decoded {len(preds)} tables to {out_path}")
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _pretty_report(report: dict) -> str:
    rows = [("all", report)] + sorted(report["per_column"].items())
    widths = [max(len(str(name)) for name, _ in rows), 9, 9, 9]
    lines = [
        f"{'column':<{widths[0]}}  {'precision':>9}  {'recall':>9}  {'f1':>9}",
    ]
    for name, r in rows:
        lines.append(
            f"{name:<{widths[0]}}  {r['precision']:>9.4f}  {r['recall']:>9.4f}  {r['f1']:>9.4f}"
        )
    lines.append(f"count_accuracy: {report['count_accuracy']:.4f}")
    return "\n".join(lines)


def cmd_eval(
    pred_path: str,
    gold_path: str,
    mode_text: str = "assignment",
    out_path: str | None = None,
    pretty: bool = False,
    force: bool = False,
) -> int:
    mode = AlignmentMode.parse(mode_text)
    preds = _read_records(pred_path)
    golds = _read_records(gold_path)
    if len(preds) != len(golds):
        raise DataError(f"prediction count {len(preds)} != gold count {len(golds)}")

    meta_path = pred_path + ".meta.json"
    gold_hash = file_sha256(gold_path)
    pred_meta = None
    if os.path.exists(meta_path):
        pred_meta = load_json_config(meta_path)
        stored = pred_meta.get("dataset_sha256")
        if stored and stored != gold_hash and not force:
            raise DataError(
                f"prediction corpus hash {str(stored)[:12]} != gold {gold_hash[:12]} (use --force to override)"
            )

    for p, g in zip(preds, golds):
        if p.id != g.id:
            raise DataError(f"prediction id {p.id!r} does not match gold id {g.id!r}")
    score = score_corpus([(p.table, g.table) for p, g in zip(preds, golds)], mode)
    report = score.report()
    report["alignment"] = mode_text
    report["gold_sha256"] = gold_hash
    report["pred_sha256"] = file_sha256(pred_path)
    if pred_meta:
        report["config_hash"] = pred_meta.get("config_hash")
    text = json.dumps(report, sort_keys=True, indent=2)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if pretty:
        print(_pretty_report(report))
    else:
        print(text)
    return 0
