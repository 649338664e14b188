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

Before the first run, every point is checked and parsed once, as ``train``
checks its run config, so a misspelt key or a bad value exits 2 before
``out_dir`` is made; each run is its point with its own seed. Each run
trains as ``train`` does, its checkpoints under
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
append cut short is dropped, and its run runs again. Any other line must be a
row as ``ablate`` writes it: a JSON object with a string ``run_id``, an
object ``combo`` and an object ``result`` whose ``cell_f1`` and
``count_accuracy`` are numbers; ``ablate`` refuses any other line, naming
it, before it runs anything. ``out_dir/summary.json``
holds the mean and standard deviation of cell F1 and count accuracy per point.
After the last run, each point whose training texts or headers were cut at
``model.max_input_len`` or ``model.max_cell_len`` gets the notice ``train``
prints, once, named by its grid values.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import itertools
import json
import os

import numpy as np

from .commands import DataError, Run, prepare_run, warn_cut_ids
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


def run_id(run: Run, data_sha256: list[str | None]) -> str:
    """Ledger key of a run: a hash of its resolved run config (see
    :meth:`Run.resolved`) and of the contents of its datasets, ``data_sha256``
    holding one digest (or None) per key of ``PATH_KEYS``."""
    return config_hash({"config": run.resolved(), "data_sha256": data_sha256})[:16]


def _single_run(run: Run) -> dict:
    """Train one run as ``train`` does; returns its evaluation record at its
    last step."""
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


def read_ledger(path: str) -> dict[str, dict]:
    """Ledger rows by run id. A last line without its newline is an append
    that was cut short: it is cut from the file, so its run runs again. Any
    other line that is not a row :func:`summarize` can read is a
    :class:`DataError`."""
    if not os.path.exists(path):
        return {}
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        whole = data[: data.rfind(b"\n") + 1]
        lines = whole.decode("utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: not readable as UTF-8 text ({type(exc).__name__})") from None
    if len(whole) < len(data):
        os.truncate(path, len(whole))
    done: dict[str, dict] = {}
    for line_no, line in enumerate(lines, start=1):
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            row = None
        result = row.get("result") if isinstance(row, dict) else None
        if not (
            isinstance(result, dict)
            and isinstance(row.get("run_id"), str)
            and isinstance(row.get("combo"), dict)
            and all(type(result.get(key)) in (int, float) for key in ("cell_f1", "count_accuracy"))  # no bool
        ):
            raise DataError(
                f"{path}: line {line_no} is not a ledger row (a JSON object with a string run_id, an object combo "
                "and an object result whose cell_f1 and count_accuracy are numbers)"
            )
        done[row["run_id"]] = row
    return done


def cmd_ablate(grid_path: str, out_dir: str) -> int:
    cfg = load_json_config(grid_path)
    grid = cfg.pop("grid", {})
    n_seeds = cfg.pop("n_seeds", 3)
    if type(n_seeds) is not int or n_seeds < 1:  # a bool is no count
        raise ConfigError(f"n_seeds must be a positive integer, got {n_seeds!r}")
    # every point fails here, before any run, or not at all
    points = [(combo, prepare_run(point)) for combo, point in expand_grid(merged_run_config(cfg), grid)]

    os.makedirs(out_dir, exist_ok=True)
    ledger_path = os.path.join(out_dir, "done.jsonl")
    done = read_ledger(ledger_path)

    print(f"{len(points)} configurations x {n_seeds} seeds = {len(points) * n_seeds} runs")
    rows: list[dict] = []
    with open(ledger_path, "a", encoding="utf-8") as ledger:
        for combo, point in points:
            data = [file_sha256(point.paths[k]) if point.paths.get(k) else None for k in PATH_KEYS]
            for si in range(n_seeds):
                seed = derived_seed(point.training.seed, combo, si)
                run = point._replace(training=dataclasses.replace(point.training, seed=seed))
                rid = run_id(run, data)
                if rid in done:
                    rows.append(done[rid])
                    continue
                if run.training.checkpoint_dir:  # each run checkpoints apart; its id comes from the config as given
                    ckpt = os.path.join(run.training.checkpoint_dir, rid)
                    run = run._replace(training=dataclasses.replace(run.training, checkpoint_dir=ckpt))
                result = _single_run(run)
                row = {"run_id": rid, "combo": combo, "seed_index": si, "seed": seed, "result": result}
                ledger.write(json.dumps(row, sort_keys=True) + "\n")
                ledger.flush()
                rows.append(row)
                print(f"  run {rid} f1={result['cell_f1']:.4f}")
    for combo, point in points:  # after every run, as train does
        warn_cut_ids("ablate", point.examples(), point.model, combo)

    summary = summarize(rows)
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump({"grid": grid, "rows": summary}, fh, sort_keys=True, indent=2)
    print(f"summary for {len(summary)} configurations written to {out_dir}/summary.json")
    return 0
