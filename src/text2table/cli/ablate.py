"""Ablation sweeps: a grid over the run config, repeated over derived seeds,
with a completion ledger so interrupted sweeps resume without redoing
finished runs.

A grid file is a run config, the file ``text2table train`` reads (``seed``,
``model``, ``training``, ``decoding`` and ``paths`` with ``dataset`` and
``val_dataset``), plus two keys:

* ``grid`` maps dotted run-config keys to non-empty lists, for example
  ``{"training.mode": ["permuted", "fixed-causal"], "decoding.k": [1, 4]}``.
  Each grid point, one value per key, is the base config with those keys set
  as ``train --set`` sets them.
* ``n_seeds`` (default 3) runs each point that many times. Run ``i`` of a
  point takes as its ``seed`` a hash of the point's ``seed``, its grid values
  and ``i``; that one seed sets the initial weights and the training draws.

Before the first run, every point is checked and parsed as ``train`` checks
its run config, so a misspelt key or a bad value exits 2 before ``out_dir``
is made. Each run trains as ``train`` does, its checkpoints under
``<training.checkpoint_dir>/<run_id>/`` when that key is set, and is
evaluated once at its last step; the ledger row's ``result`` is that
:meth:`Trainer.evaluate` record, the record ``train`` writes to
``metrics.jsonl``. It decodes the first
``training.eval_decode_examples`` validation records (``paths.val_dataset``,
else the first 32 training records).

``out_dir/done.jsonl`` holds one row per finished run, keyed by a hash of
what the run is: its whole run config with every default filled in, derived
seed included, and the contents of its datasets. A run whose base config,
data or a library default it relies on changed therefore runs again; a
default written out runs nothing new. A last ledger line that an interrupted
append cut short is dropped, and its run runs again. ``out_dir/summary.json``
holds the mean and standard deviation of cell F1 and count accuracy per point.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import os

import numpy as np

from .commands import DataError, prepare_run
from .runconfig import (
    PATH_KEYS, ConfigError, canonical_json, config_hash, file_sha256, load_json_config, merged_run_config, set_key
)


def expand_grid(base: dict, grid: dict) -> list[tuple[dict, dict]]:
    """``(combo, config)`` per grid point: ``combo`` maps each grid key to its
    value at the point, and ``config`` is ``base`` with those keys set."""
    if not isinstance(grid, dict):
        raise ConfigError("grid must map dotted run config keys to lists")
    for key, values in grid.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"grid key {key!r} must map to a non-empty list")
    points = []
    for values in itertools.product(*grid.values()):
        combo, cfg = dict(zip(grid, values)), copy.deepcopy(base)
        for key, value in combo.items():
            set_key(cfg, key, value)
        points.append((combo, cfg))
    return points


def derived_seed(base_seed: int, combo: dict, seed_index: int) -> int:
    digest = hashlib.sha256(
        f"{base_seed}|{canonical_json(combo)}|{seed_index}".encode()
    ).digest()
    return int.from_bytes(digest[:4], "big")


def run_id(cfg: dict) -> str:
    """Ledger key of a run: a hash of its resolved run config (see
    :meth:`Run.resolved`) and of the contents of its ``paths.dataset`` and
    ``paths.val_dataset``."""
    data = [file_sha256(cfg["paths"][k]) if cfg["paths"].get(k) else None for k in PATH_KEYS]
    return config_hash({"config": prepare_run(cfg).resolved(), "data_sha256": data})[:16]


def _single_run(cfg: dict) -> dict:
    """Train one run config as ``train`` does; returns its evaluation record
    at its last step."""
    run = prepare_run(cfg)
    trainer = run.trainer(*run.build())
    history = trainer.run()
    return history[-1] if history and history[-1]["step"] == trainer.step else trainer.evaluate(trainer.step)


def summarize(rows: list[dict]) -> list[dict]:
    """Mean and standard deviation of cell F1 and count accuracy per grid point."""
    by_combo: dict[str, tuple[dict, list[dict]]] = {}
    for row in rows:
        by_combo.setdefault(canonical_json(row["combo"]), (row["combo"], []))[1].append(row["result"])
    out = []
    for key in sorted(by_combo):
        combo, results = by_combo[key]
        entry = {"combo": combo, "n_seeds": len(results)}
        for name, field in (("f1", "cell_f1"), ("count_accuracy", "count_accuracy")):
            values = np.array([r[field] for r in results])
            entry[f"{name}_mean"] = float(values.mean())
            entry[f"{name}_std"] = float(values.std(ddof=1)) if len(values) > 1 else 0.0
        out.append(entry)
    return out


def pretty_summary(summary: list[dict]) -> str:
    keys = sorted(summary[0]["combo"]) if summary else []
    header = "".join(f"{n:<24}" for n in keys) + f"{'f1':>14}  {'count_acc':>14}"
    lines = [header, "-" * len(header)]
    for row in summary:
        cells = "".join(f"{str(row['combo'][n]):<24}" for n in keys)
        lines.append(
            f"{cells}{row['f1_mean']:.4f}±{row['f1_std']:.4f}  "
            f"{row['count_accuracy_mean']:.4f}±{row['count_accuracy_std']:.4f}"
        )
    return "\n".join(lines)


def read_ledger(path: str) -> dict[str, dict]:
    """Ledger rows by run id. A last line without its newline is an append
    that was cut short: it is cut from the file, so its run runs again. Any
    other line that is not a JSON object with a ``run_id`` is a
    :class:`DataError`."""
    if not os.path.exists(path):
        return {}
    with open(path, "rb") as fh:
        data = fh.read()
    whole = data[: data.rfind(b"\n") + 1]
    if len(whole) < len(data):
        os.truncate(path, len(whole))
    done: dict[str, dict] = {}
    for line_no, line in enumerate(whole.decode("utf-8").splitlines(), start=1):
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            row = None
        if not isinstance(row, dict) or "run_id" not in row:
            raise DataError(f"{path}: line {line_no} is not a ledger row (a JSON object with a run_id)")
        done[row["run_id"]] = row
    return done


def cmd_ablate(grid_path: str, out_dir: str, pretty: bool = False) -> int:
    cfg = load_json_config(grid_path)
    grid = cfg.pop("grid", {})
    n_seeds = cfg.pop("n_seeds", 3)
    if not isinstance(n_seeds, int) or n_seeds < 1:
        raise ConfigError(f"n_seeds must be a positive integer, got {n_seeds!r}")
    points = expand_grid(merged_run_config(cfg), grid)
    for _, point in points:
        prepare_run(point)  # every point fails here, before any run, or not at all

    os.makedirs(out_dir, exist_ok=True)
    ledger_path = os.path.join(out_dir, "done.jsonl")
    done = read_ledger(ledger_path)

    print(f"{len(points)} configurations x {n_seeds} seeds = {len(points) * n_seeds} runs")
    rows: list[dict] = []
    with open(ledger_path, "a", encoding="utf-8") as ledger:
        for combo, point in points:
            for si in range(n_seeds):
                seed = derived_seed(point["seed"], combo, si)
                run_cfg = {**point, "seed": seed}
                rid = run_id(run_cfg)
                if rid in done:
                    rows.append(done[rid])
                    continue
                ckpt = run_cfg["training"].get("checkpoint_dir")
                if ckpt:  # each run checkpoints apart; its id comes from the config as given
                    run_cfg["training"] = {**run_cfg["training"], "checkpoint_dir": os.path.join(ckpt, rid)}
                result = _single_run(run_cfg)
                row = {"run_id": rid, "combo": combo, "seed_index": si, "seed": seed, "result": result}
                ledger.write(json.dumps(row, sort_keys=True) + "\n")
                ledger.flush()
                rows.append(row)
                print(f"  run {rid} f1={result['cell_f1']:.4f}")

    summary = summarize(rows)
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump({"grid": grid, "rows": summary}, fh, sort_keys=True, indent=2)
    if pretty:
        print(pretty_summary(summary))
    print(f"summary for {len(summary)} configurations written to {out_dir}/summary.json")
    return 0
