"""Run configuration files, dotted-path overrides and content hashing."""

from __future__ import annotations

import hashlib
import json
from typing import Any

DEFAULT_RUN_CONFIG: dict[str, Any] = {
    "seed": 0,
    "model": {},
    "training": {},
    "decoding": {},
    "paths": {},
}
PATH_KEYS = ("dataset", "val_dataset")


class ConfigError(ValueError):
    pass


def load_json_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc.msg}, line {exc.lineno})") from None
    except (OSError, UnicodeDecodeError) as exc:  # a directory, say, or another encoding
        raise ConfigError(f"{path}: not readable as UTF-8 text ({type(exc).__name__})") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return obj


def merged_run_config(loaded: dict) -> dict:
    """``DEFAULT_RUN_CONFIG`` with the loaded sections merged in; the keys are
    checked by :func:`check_run_config`, once any overrides are applied."""
    cfg = json.loads(json.dumps(DEFAULT_RUN_CONFIG))
    for key, value in loaded.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    return cfg


def _refuse_unknown(where: str, keys, expected) -> None:
    unknown = sorted(set(keys) - set(expected))
    if unknown:
        raise ConfigError(f"unknown {where} key(s) {', '.join(map(repr, unknown))} (expected {', '.join(expected)})")


def check_run_config(cfg: dict) -> None:
    """Refuse, as a :class:`ConfigError`, a top-level key outside
    ``DEFAULT_RUN_CONFIG`` (a misspelt section would otherwise be ignored), a
    seed that is not an integer, a section that is not an object, a ``paths`` key outside ``PATH_KEYS`` and
    ``training.seed``: the top-level ``seed`` seeds both the initial weights
    and the training draws."""
    _refuse_unknown("run config", cfg, DEFAULT_RUN_CONFIG)
    if not isinstance(cfg["seed"], int):
        raise ConfigError(f"seed must be an integer, got {cfg['seed']!r}")
    for section in ("model", "training", "decoding", "paths"):
        if not isinstance(cfg[section], dict):
            raise ConfigError(f"run config section {section!r} must be an object")
    _refuse_unknown("paths", cfg["paths"], PATH_KEYS)
    if "seed" in cfg["training"]:
        raise ConfigError("training.seed is not a run config key: the top-level seed seeds the whole run")


def set_key(cfg: dict, key: str, value: Any) -> None:
    """Set the dotted ``key`` of ``cfg`` to ``value``, making missing objects."""
    node = cfg
    *parents, last = key.split(".")
    for part in parents:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"key {key!r} crosses a non-object value")
    node[last] = value


def apply_overrides(cfg: dict, overrides: list[str]) -> dict:
    """Apply repeated --set dotted.key=value pairs (values parse as JSON when
    possible, else raw strings). Flags only override; files stay the source."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        set_key(cfg, key, value)
    return cfg


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(canonical_json(cfg).encode("utf-8")).hexdigest()


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
