"""Ablation sweeps: cartesian grids over decoding/training options, repeated
over derived seeds, with a completion ledger so interrupted sweeps resume
without redoing finished runs."""

from __future__ import annotations

import hashlib
import itertools
import json
import os

import numpy as np

from ..decoding import DecodingConfig, decode_table
from ..metrics import AlignmentMode, score_corpus
from ..training import Trainer, TrainingConfig
from .commands import DataError, _build_model_and_examples, _parse_config, _read_records
from .runconfig import ConfigError, apply_env_seed, canonical_json, load_json_config

GRID_AXES = ("constraint", "k", "inner_criterion", "outer_criterion", "stopping", "training_mode")
DEFAULT_AXES = {
    "constraint": ["none"],
    "k": [1],
    "inner_criterion": ["max"],
    "outer_criterion": ["max-first"],
    "stopping": ["predicted-count"],
    "training_mode": ["permuted"],
}


def expand_grid(grid: dict) -> list[dict]:
    unknown = sorted(set(grid) - set(GRID_AXES))
    if unknown:
        raise ConfigError(
            f"unknown grid axis {', '.join(map(repr, unknown))} (expected {', '.join(GRID_AXES)})"
        )
    axes = {}
    for name in GRID_AXES:
        values = grid.get(name, DEFAULT_AXES[name])
        if not isinstance(values, list) or not values:
            raise ConfigError(f"grid axis {name!r} must be a non-empty list")
        axes[name] = values
    combos = []
    for values in itertools.product(*(axes[name] for name in GRID_AXES)):
        combos.append(dict(zip(GRID_AXES, values)))
    return combos


def derived_seed(base_seed: int, combo: dict, seed_index: int) -> int:
    digest = hashlib.sha256(
        f"{base_seed}|{canonical_json(combo)}|{seed_index}".encode()
    ).digest()
    return int.from_bytes(digest[:4], "big")


def run_id(combo: dict, seed_index: int) -> str:
    return hashlib.sha256(f"{canonical_json(combo)}|{seed_index}".encode()).hexdigest()[:16]


def _single_run(cfg: dict, combo: dict, seed: int, records, val_records) -> dict:
    run_cfg = {
        "seed": seed,
        "model": cfg.get("model", {}),
        "training": {**cfg.get("training", {}), "mode": combo["training_mode"]},
    }
    model, examples = _build_model_and_examples(run_cfg, records, combo["training_mode"])
    tcfg = _parse_config("training", TrainingConfig, {"seed": seed, **run_cfg["training"]})
    trainer = Trainer(model, examples, tcfg)
    trainer.run()

    decoding = DecodingConfig(
        k=combo["k"],
        inner_criterion=combo["inner_criterion"],
        outer_criterion=combo["outer_criterion"],
        constraint=combo["constraint"],
        stopping=combo["stopping"],
    )
    pairs = []
    for rec in val_records:
        result = decode_table(rec.text, model, decoding, rec.table.headers)
        pairs.append((result.table, rec.table))
    score = score_corpus(pairs, AlignmentMode.assignment())
    return {
        "f1": score.counts.f1,
        "precision": score.counts.precision,
        "recall": score.counts.recall,
        "count_accuracy": score.count_accuracy,
        "per_column_f1": {h: c.f1 for h, c in score.per_column.items()},
    }


def summarize(rows: list[dict]) -> list[dict]:
    by_combo: dict[str, dict] = {}
    for row in rows:
        key = canonical_json(row["combo"])
        slot = by_combo.setdefault(key, {"combo": row["combo"], "f1": [], "count_accuracy": []})
        slot["f1"].append(row["result"]["f1"])
        slot["count_accuracy"].append(row["result"]["count_accuracy"])
    out = []
    for slot in by_combo.values():
        f1 = np.array(slot["f1"])
        ca = np.array(slot["count_accuracy"])
        out.append(
            {
                "combo": slot["combo"],
                "n_seeds": len(f1),
                "f1_mean": float(f1.mean()),
                "f1_std": float(f1.std(ddof=1)) if len(f1) > 1 else 0.0,
                "count_accuracy_mean": float(ca.mean()),
                "count_accuracy_std": float(ca.std(ddof=1)) if len(ca) > 1 else 0.0,
            }
        )
    out.sort(key=lambda r: canonical_json(r["combo"]))
    return out


def pretty_summary(summary: list[dict]) -> str:
    varying = [
        name
        for name in GRID_AXES
        if len({canonical_json(row["combo"][name]) for row in summary}) > 1
    ] or ["constraint"]
    header = "  ".join(f"{n:<22}" for n in varying) + f"  {'f1':>14}  {'count_acc':>14}"
    lines = [header, "-" * len(header)]
    for row in summary:
        cells = "  ".join(f"{str(row['combo'][n]):<22}" for n in varying)
        lines.append(
            f"{cells}  {row['f1_mean']:.4f}±{row['f1_std']:.4f}  "
            f"{row['count_accuracy_mean']:.4f}±{row['count_accuracy_std']:.4f}"
        )
    return "\n".join(lines)


def cmd_ablate(grid_path: str, out_dir: str, pretty: bool = False) -> int:
    cfg = apply_env_seed(load_json_config(grid_path))
    base_seed = int(cfg.get("seed", 0))
    data_path = cfg.get("dataset")
    if not data_path:
        raise ConfigError("ablation grid needs a 'dataset' path")
    records = _read_records(data_path)
    val_records = (
        _read_records(cfg["val_dataset"]) if cfg.get("val_dataset") else records[:24]
    )
    combos = expand_grid(cfg.get("grid", {}))
    if "seeds" in cfg:
        seed_indices = list(range(len(cfg["seeds"])))
        explicit = [int(s) for s in cfg["seeds"]]
    else:
        n_seeds = int(cfg.get("n_seeds", 3))
        seed_indices = list(range(n_seeds))
        explicit = None

    os.makedirs(out_dir, exist_ok=True)
    ledger_path = os.path.join(out_dir, "done.jsonl")
    done: dict[str, dict] = {}
    if os.path.exists(ledger_path):
        with open(ledger_path, encoding="utf-8") as fh:
            for line in fh:
                row = json.loads(line)
                done[row["run_id"]] = row

    total = len(combos) * len(seed_indices)
    print(f"{len(combos)} configurations x {len(seed_indices)} seeds = {total} runs")
    rows: list[dict] = []
    with open(ledger_path, "a", encoding="utf-8") as ledger:
        for combo in combos:
            for si in seed_indices:
                rid = run_id(combo, si)
                if rid in done:
                    rows.append(done[rid])
                    continue
                seed = explicit[si] if explicit else derived_seed(base_seed, combo, si)
                result = _single_run(cfg, combo, seed, records, val_records)
                row = {"run_id": rid, "combo": combo, "seed_index": si, "seed": seed, "result": result}
                ledger.write(json.dumps(row, sort_keys=True) + "\n")
                ledger.flush()
                rows.append(row)
                print(f"  run {rid} f1={result['f1']:.4f}")

    summary = summarize(rows)
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump({"grid": cfg.get("grid", {}), "rows": summary}, fh, sort_keys=True, indent=2)
    if pretty:
        print(pretty_summary(summary))
    print(f"summary for {len(summary)} configurations written to {out_dir}/summary.json")
    return 0
