"""Strict construction of the package's config dataclasses from JSON objects."""

from __future__ import annotations


class UnknownKeysError(ValueError):
    """A config object names keys that its dataclass does not have."""

    def __init__(self, kind: str, keys: list[str]):
        self.keys = keys
        super().__init__(f"unknown {kind} keys: {', '.join(keys)}")


def from_fields(cls, d: dict):
    """``cls(**d)``, refusing every key of ``d`` that is not a field of ``cls``,
    so that a misspelt key fails instead of leaving its default in place."""
    unknown = sorted(set(d) - set(cls.__dataclass_fields__))
    if unknown:
        raise UnknownKeysError(cls.__name__, unknown)
    return cls(**d)
