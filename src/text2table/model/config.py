"""Model hyperparameters."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    n_heads: int = 4
    n_enc_layers: int = 2
    n_dec_layers: int = 2
    d_ff: int = 256
    dropout: float = 0.1
    max_cell_len: int = 6  # slot width: up to max_cell_len-1 content tokens + end-of-cell
    max_rows: int = 5
    max_cols: int = 6
    relative_buckets: int = 32
    relative_max_distance: int = 128
    max_input_len: int = 256
    # 32 runs training and decoding in float32; 64 is for gradient checks and
    # exact-equivalence tests
    float_width: int = 32

    def __post_init__(self):
        sizes = ("d_model", "n_heads", "n_enc_layers", "n_dec_layers", "d_ff", "max_rows", "max_cols",
                 "max_input_len")
        bad = [name for name in sizes if getattr(self, name) < 1]
        if bad:
            raise ValueError(f"{', '.join(bad)} must be positive")
        if self.relative_buckets < 4:
            raise ValueError(f"relative_buckets must be >= 4, got {self.relative_buckets}")
        exact = self.relative_buckets // 4  # offsets relative_bucket keeps exact; it log-spaces the rest up to the max
        if self.relative_max_distance <= exact:
            raise ValueError(f"relative_max_distance must exceed {exact}, got {self.relative_max_distance}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.max_cell_len < 2:
            raise ValueError("max_cell_len must be >= 2 (one content token plus end-of-cell)")
        if self.float_width not in (32, 64):
            raise ValueError("float_width must be 32 or 64")
        if not 0.0 <= self.dropout < 1.0:  # NaN fails too
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def dtype(self):
        return np.float64 if self.float_width == 64 else np.float32

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads
