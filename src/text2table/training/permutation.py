"""Cell-order permutations and the visibility stages of one training pass."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Coord = tuple[int, int]


@dataclass(frozen=True)
class PermutationPlan:
    """A linear order over all n*m cells plus a cut point.

    Cells strictly before the cut are filled context; the rest are open
    prediction targets. cut=1 fills nothing and cut=C leaves exactly one open
    cell; a table with no cells (C = 0) has the one plan with cut 1.
    """

    order: tuple[Coord, ...]
    cut: int

    def __post_init__(self):
        c = len(self.order)
        if not 1 <= self.cut <= max(c, 1):
            raise ValueError(f"cut {self.cut} outside 1..{max(c, 1)}")
        if len(set(self.order)) != c:
            raise ValueError("order is not a bijection")

    @property
    def filled(self) -> frozenset[Coord]:
        return frozenset(self.order[: self.cut - 1])

    @property
    def open(self) -> tuple[Coord, ...]:
        return self.order[self.cut - 1 :]

    @property
    def stages(self) -> dict[Coord, int]:
        """Visibility stage per cell: filled cells are context (0), open cells
        share stage 1 and so never see each other."""
        filled = self.filled
        return {c: int(c not in filled) for c in self.order}


def causal_stages(order: tuple[Coord, ...]) -> dict[Coord, int]:
    """Staircase stages: cell ``order[i]`` at stage i + 1 sees exactly the
    cells before it in ``order`` (the fixed-order training variant)."""
    return {c: i + 1 for i, c in enumerate(order)}


def row_major_order(n_rows: int, n_cols: int) -> tuple[Coord, ...]:
    return tuple((r, c) for r in range(1, n_rows + 1) for c in range(1, n_cols + 1))


def sample_permutation(n_rows: int, n_cols: int, rng: np.random.Generator) -> PermutationPlan:
    """Uniform order over all C! arrangements, uniform cut over [1, C]; a
    table with no rows gets the empty plan and draws nothing."""
    if n_rows < 0 or n_cols < 1:
        raise ValueError(f"table shape {n_rows}x{n_cols}: need n_rows >= 0 and n_cols >= 1")
    coords = row_major_order(n_rows, n_cols)
    if not coords:
        return PermutationPlan((), 1)
    perm = rng.permutation(len(coords))
    cut = int(rng.integers(1, len(coords) + 1))
    return PermutationPlan(tuple(coords[i] for i in perm), cut)
