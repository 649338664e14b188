from . import ops
from .optim import AdamW, MissingGradError, ParameterStore, clip_grad_norm
from .tensor import (
    NonScalarRootError,
    NumericsError,
    ShapeMismatchError,
    Tensor,
    backward,
    no_grad,
)

__all__ = [
    "AdamW",
    "MissingGradError",
    "NonScalarRootError",
    "NumericsError",
    "ParameterStore",
    "ShapeMismatchError",
    "Tensor",
    "backward",
    "clip_grad_norm",
    "no_grad",
    "ops",
]
