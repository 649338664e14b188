"""Exact and Monte-Carlo evaluation of the permuted-factorization objective,
the oracle the estimator tests check the training pass loss against.

The pass loss of a sampled (order, cut) pair is the mean over open cells of
their full token negative log-likelihood given the filled context. Because
the model's predictive distribution depends on the filled cells only as a
set, this uniform-(order, cut) estimator is exactly unbiased for the
expected per-cell NLL over all orderings and prefix lengths:

    (1/(C! * C)) * sum_sigma sum_n  nll(v_sigma(n) | v_sigma(<n), h)

which the exact enumerators below compute directly.
"""

from __future__ import annotations

import math
from itertools import permutations

import numpy as np

from text2table.model import TextToTableModel, collate_instances
from text2table.numerics import no_grad
from text2table.model.layout import Coord, row_major_order
from text2table.training import TrainingExample, sample_permutation
from util import cut_stages, encode_one, filled_stages, instance_for_pass, loss_cells, slot_cell_id


def masked_nll_rows(logits: np.ndarray, targets: np.ndarray, legal: np.ndarray) -> np.ndarray:
    """Per-row -log softmax(target) with the softmax restricted to legal ids."""
    x = np.where(legal, logits, -np.inf)
    mx = x.max(axis=-1, keepdims=True)
    z = np.where(legal, np.exp(x - mx), 0.0).sum(axis=-1)
    r = np.arange(len(targets))
    return -(x[r, targets] - mx[:, 0] - np.log(z))


def instance_cell_nll(model: TextToTableModel, example: TrainingExample, inst) -> dict[Coord, float]:
    """Token NLL summed per loss-carrying cell of a teacher-forced instance."""
    with no_grad():
        memory, mem_len = encode_one(model, example.source_ids)
        batch = collate_instances([inst])
        hidden = model.decoder_hidden(model.memory_kv(memory), mem_len, batch)
        pos, tgt, legal = batch.flat_loss_arrays()
        nll = masked_nll_rows(model.logits_at(hidden, pos).data, tgt, legal)
    cell = loss_cells(inst)
    coord_of = {slot_cell_id(inst.template, c): c for c in inst.template.cells}
    return {coord_of[int(i)]: float(nll[cell == i].sum()) for i in np.unique(cell)}


def pass_cell_nll(
    model: TextToTableModel, example: TrainingExample, filled: frozenset[Coord]
) -> dict[Coord, float]:
    """Token NLL summed per open cell, conditioned on the filled set."""
    tpl = model.template_for(example.header_ids, example.n_rows)
    inst = instance_for_pass(tpl, model.grammar, example.cell_ids, filled_stages(tpl, filled))
    return instance_cell_nll(model, example, inst)


class _PassCache:
    """Memoizes pass_cell_nll per filled set (states repeat heavily)."""

    def __init__(self, model: TextToTableModel, example: TrainingExample):
        self.model = model
        self.example = example
        self._cache: dict[frozenset[Coord], dict[Coord, float]] = {}

    def cell_nll(self, filled: frozenset[Coord]) -> dict[Coord, float]:
        hit = self._cache.get(filled)
        if hit is None:
            hit = pass_cell_nll(self.model, self.example, filled)
            self._cache[filled] = hit
        return hit

    def pass_loss(self, stage: dict[Coord, int]) -> float:
        """Mean NLL over the open cells of a permuted pass's stage map."""
        per_cell = self.cell_nll(frozenset(c for c, s in stage.items() if not s))
        return float(np.mean([per_cell[c] for c, s in stage.items() if s]))


def exact_expected_nll(model: TextToTableModel, example: TrainingExample) -> float:
    """Enumerate every (ordering, position) pair of the factorized objective.

    Computed over filled sets with combinatorial weights
    |S|! * (C-|S|-1)! / (C! * C), equal to direct enumeration of orderings.
    """
    coords = row_major_order(example.n_rows, example.n_cols)
    c = len(coords)
    if c > 12:
        raise ValueError("exact enumeration is intended for small tables")
    cache = _PassCache(model, example)
    total = 0.0
    norm = math.factorial(c) * c
    for mask in range(2**c):
        filled = frozenset(coords[i] for i in range(c) if mask >> i & 1)
        s = len(filled)
        if s == c:
            continue
        weight = math.factorial(s) * math.factorial(c - s - 1) / norm
        per_cell = cache.cell_nll(filled)
        for coord in coords:
            if coord not in filled:
                total += weight * per_cell[coord]
    return total


def exact_expected_nll_by_orderings(model: TextToTableModel, example: TrainingExample) -> float:
    """Brute-force reference: iterate all C! orderings and C positions."""
    coords = row_major_order(example.n_rows, example.n_cols)
    c = len(coords)
    if c > 6:
        raise ValueError("full ordering enumeration only for tiny tables")
    cache = _PassCache(model, example)
    total = 0.0
    for order in permutations(coords):
        filled: set[Coord] = set()
        for nxt in order:
            total += cache.cell_nll(frozenset(filled))[nxt]
            filled.add(nxt)
    return total / (math.factorial(c) * c)


def mean_pass_loss_over_all_pairs(model: TextToTableModel, example: TrainingExample) -> float:
    """Average of the training pass loss over every (ordering, cut) pair."""
    coords = row_major_order(example.n_rows, example.n_cols)
    c = len(coords)
    if c > 6:
        raise ValueError("full (ordering, cut) enumeration only for tiny tables")
    cache = _PassCache(model, example)
    losses = [
        cache.pass_loss(cut_stages(order, cut))
        for order in permutations(coords)
        for cut in range(1, c + 1)
    ]
    return float(np.mean(losses))


def mc_expected_nll(
    model: TextToTableModel,
    example: TrainingExample,
    n_samples: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte-Carlo mean of pass losses and its standard error."""
    cache = _PassCache(model, example)
    samples = np.empty(n_samples)
    for k in range(n_samples):
        samples[k] = cache.pass_loss(sample_permutation(example.n_rows, example.n_cols, rng))
    se = float(samples.std(ddof=1) / math.sqrt(n_samples))
    return float(samples.mean()), se
