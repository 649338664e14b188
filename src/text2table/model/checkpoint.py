"""Versioned checkpoint container with per-array integrity hashes.

One npz file holds a JSON metadata blob (format version, model config,
vocabulary, step, optional run config, optional optimizer step count, array
manifest with sha256 digests) plus the named parameter and optimizer arrays.
A save is atomic: it writes a temporary file beside the checkpoint and
replaces the checkpoint with it, so a save that fails leaves the previous
file whole.

:func:`load_checkpoint` is the one gate a checkpoint passes, for decoding and
resuming alike. It refuses, as one :class:`CheckpointError` line:

* a file that is not a whole checkpoint of this format version, or whose
  arrays do not match the manifest's digests bit for bit;
* a model config or vocabulary the model cannot be built from;
* metadata of the wrong type: ``step`` must be a non-negative int,
  ``run_config`` an object or null, and ``optimizer`` null or an object with a
  non-negative int ``step_count``;
* a missing array, or one of another shape or dtype than its parameter:
  ``param::<name>`` for every parameter and, when ``optimizer`` is set,
  ``opt::m::<name>`` and ``opt::v::<name>`` too.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
from dataclasses import asdict

import numpy as np

from ..fields import from_fields
from ..files import atomic_write
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
    with atomic_write(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path: str) -> tuple[TextToTableModel, dict]:
    """Rebuild the model; returns (model, meta). Meta carries step/run_config
    and, when present, raw optimizer arrays under "opt_arrays". A file that
    is not a whole, matching checkpoint, as the module docstring sets out, is
    a :class:`CheckpointError`."""
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
    step, opt_meta = meta.get("step"), meta.get("optimizer")
    if type(step) is not int or step < 0:
        raise CheckpointError(f"{path}: step {step!r} is not a non-negative integer")
    if not isinstance(meta.get("run_config"), (dict, type(None))):
        raise CheckpointError(f"{path}: run_config is not a JSON object or null")
    if opt_meta is not None and not (
        isinstance(opt_meta, dict) and type(opt_meta.get("step_count")) is int and opt_meta["step_count"] >= 0
    ):
        raise CheckpointError(f"{path}: optimizer is not null or an object with a non-negative integer step_count")
    expected = {f"param::{n}": (f"parameter {n}", t) for n, t in model.params.items()}
    if opt_meta is not None:
        expected |= {f"opt::{k}::{n}": (f"optimizer array {k}::{n}", t) for k in "mv" for n, t in model.params.items()}
    for key, (what, t) in expected.items():
        arr = arrays.get(key)
        if arr is None:
            raise CheckpointError(f"{path}: missing {what}")
        if arr.shape != t.shape or arr.dtype != t.dtype:
            raise CheckpointError(f"{path}: {what} is {arr.dtype} {arr.shape}, the model's {t.dtype} {t.shape}")
    for name, t in model.params.items():
        t.data[...] = arrays[f"param::{name}"]
    meta["opt_arrays"] = {
        k.removeprefix("opt::"): v for k, v in arrays.items() if k.startswith("opt::")
    }
    return model, meta
