"""Versioned checkpoint container with per-array integrity hashes.

One npz file holds a JSON metadata blob (format version, model config,
vocabulary, step, optional run config, array manifest with sha256 digests)
plus the named parameter and optimizer arrays. Loading verifies version and
digests and refuses anything that does not match bit-for-bit.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
from dataclasses import asdict

import numpy as np

from ..fields import from_fields
from ..vocab import Vocabulary
from .config import ModelConfig
from .transformer import TextToTableModel

FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    pass


def _digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def save_checkpoint(
    path: str,
    model: TextToTableModel,
    *,
    step: int = 0,
    optimizer=None,
    run_config: dict | None = None,
) -> None:
    arrays: dict[str, np.ndarray] = {}
    manifest: dict[str, str] = {}
    for name, t in model.params.items():
        arrays[f"param::{name}"] = t.data
        manifest[f"param::{name}"] = _digest(t.data)
    opt_meta = None
    if optimizer is not None:
        for name, arr in optimizer.state_arrays().items():
            arrays[f"opt::{name}"] = arr
            manifest[f"opt::{name}"] = _digest(arr)
        opt_meta = {"step_count": optimizer.step_count}
    meta = {
        "format_version": FORMAT_VERSION,
        "model_config": asdict(model.cfg),
        "vocab": model.vocab.to_json(),
        "step": step,
        "run_config": run_config,
        "optimizer": opt_meta,
        "manifest": manifest,
    }
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path: str) -> tuple[TextToTableModel, dict]:
    """Rebuild the model; returns (model, meta). Meta carries step/run_config
    and, when present, raw optimizer arrays under "opt_arrays". A file that
    is not a whole, matching checkpoint is a :class:`CheckpointError`."""
    try:
        data = np.load(path)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise CheckpointError(f"{path}: not a checkpoint (a single array, not an npz archive)")
        with data:
            if "__meta__" not in data:
                raise CheckpointError(f"{path}: not a checkpoint (missing metadata)")
            meta = json.loads(bytes(data["__meta__"].tobytes()).decode("utf-8"))
            if not isinstance(meta, dict):
                raise CheckpointError(f"{path}: not a checkpoint (metadata is not a JSON object)")
            if meta.get("format_version") != FORMAT_VERSION:
                raise CheckpointError(
                    f"{path}: format version {meta.get('format_version')} != {FORMAT_VERSION}"
                )
            arrays = {k: data[k] for k in data.files if k != "__meta__"}
    except (zipfile.BadZipFile, ValueError, OSError, KeyError, EOFError) as exc:
        raise CheckpointError(f"{path}: unreadable checkpoint ({exc})") from None
    missing = [k for k in ("manifest", "model_config", "vocab") if k not in meta]
    if missing:
        raise CheckpointError(f"{path}: metadata lacks {', '.join(missing)}")

    manifest = meta["manifest"]
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{path}: not a checkpoint (manifest is not a JSON object)")
    for name, arr in arrays.items():
        want = manifest.get(name)
        got = _digest(arr)
        if want != got:
            raise CheckpointError(f"{path}: array {name} hash mismatch ({got[:12]} != {str(want)[:12]})")
    if set(manifest) != set(arrays):
        raise CheckpointError(f"{path}: manifest does not match stored arrays")

    try:
        cfg = from_fields(ModelConfig, meta["model_config"])
        vocab = Vocabulary.from_json(meta["vocab"])
        model = TextToTableModel(cfg, vocab, seed=0)
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        raise CheckpointError(f"{path}: invalid model config or vocabulary ({exc})") from None
    for name, t in model.params.items():
        key = f"param::{name}"
        if key not in arrays:
            raise CheckpointError(f"{path}: missing parameter {name}")
        if arrays[key].shape != t.data.shape or arrays[key].dtype != t.data.dtype:
            raise CheckpointError(
                f"{path}: parameter {name} is {arrays[key].dtype} {arrays[key].shape}, "
                f"the model's {t.data.dtype} {t.data.shape}"
            )
        t.data[...] = arrays[key]
    meta["opt_arrays"] = {
        k.removeprefix("opt::"): v for k, v in arrays.items() if k.startswith("opt::")
    }
    return model, meta
