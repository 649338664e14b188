"""Strict construction of the package's config dataclasses from JSON objects."""

from __future__ import annotations

import types
import typing


class UnknownKeysError(ValueError):
    """A config object names keys that its dataclass does not have."""

    def __init__(self, kind: str, keys: list[str]):
        self.keys = keys
        super().__init__(f"unknown {kind} keys: {', '.join(keys)}")


def _fits(value, hint) -> bool:
    """Whether ``value`` fits the type ``hint``: an int fits a float, a bool
    fits no number and ``X | None`` also takes None."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return any(_fits(value, h) for h in typing.get_args(hint))
    if isinstance(value, bool) and hint is not bool:
        return False
    return isinstance(value, (int, float) if hint is float else hint)


def from_fields(cls, d: dict):
    """``cls(**d)``, refusing every key of ``d`` that is not a field of ``cls``,
    so that a misspelt key fails instead of leaving its default in place, and
    every value that does not fit its field's annotation (a TypeError naming
    the key)."""
    unknown = sorted(set(d) - set(cls.__dataclass_fields__))
    if unknown:
        raise UnknownKeysError(cls.__name__, unknown)
    hints = typing.get_type_hints(cls)
    for key, value in d.items():
        hint = hints[key]
        if not _fits(value, hint):
            raise TypeError(f"{key} must be {hint.__name__ if isinstance(hint, type) else hint}, got {value!r}")
    return cls(**d)
