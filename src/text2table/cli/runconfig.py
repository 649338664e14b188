"""Run configuration files, dotted-path overrides and content hashing."""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any

DEFAULT_RUN_CONFIG: dict[str, Any] = {
    "seed": 0,
    "model": {},
    "training": {},
    "decoding": {},
    "paths": {},
}


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
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return obj


def merged_run_config(loaded: dict) -> dict:
    """``DEFAULT_RUN_CONFIG`` with the loaded sections merged in; a top-level
    key it does not hold is a :class:`ConfigError`, so a misspelt section
    fails instead of being ignored."""
    unknown = sorted(set(loaded) - set(DEFAULT_RUN_CONFIG))
    if unknown:
        raise ConfigError(
            f"unknown run config key(s) {', '.join(map(repr, unknown))} "
            f"(expected {', '.join(DEFAULT_RUN_CONFIG)})"
        )
    cfg = json.loads(json.dumps(DEFAULT_RUN_CONFIG))
    for key, value in loaded.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    return cfg


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
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set path {key!r} crosses a non-object value")
        node[parts[-1]] = value
    return cfg


def apply_env_seed(cfg: dict) -> dict:
    """STABLE_SEED, when set, overrides the configured seed."""
    env = os.environ.get("STABLE_SEED")
    if env is not None:
        try:
            cfg["seed"] = int(env)
        except ValueError:
            raise ConfigError(f"STABLE_SEED must be an integer, got {env!r}") from None
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
