"""Shared test helpers: the ``mul`` and ``sum_all`` ops only tests use, a
recorder of op result dtypes, the Tensors a vjp closes over, finite
differences, gradient comparison,
teacher-forced layouts and cell logits, the cell of a loss position, layout stages,
prefixes and visibility, and a mock candidate source."""

from __future__ import annotations

import sys
import types

import numpy as np

import loop_kernels
from text2table.model import PassLayout, collate_instances
from text2table.numerics import Tensor
from text2table.numerics.ops import _check_broadcast, _unbroadcast
from text2table.numerics.tensor import make_result


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product (numpy broadcasting)."""
    _check_broadcast("mul", a, b)

    def vjp(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return make_result(a.data * b.data, (a, b), vjp)


def sum_all(a: Tensor) -> Tensor:
    """Sum of every entry, as a scalar tensor."""

    def vjp(g):
        return (np.full(a.shape, g, dtype=a.dtype),)

    return make_result(np.asarray(a.data.sum()), (a,), vjp)


def record_op_dtypes(monkeypatch) -> list[tuple[str, str, np.dtype]]:
    """Hook ``ops.make_result``: every forward result and every vjp gradient
    made afterwards lands in the returned list as (kind, op name, dtype). An
    op is named by its vjp, or by the function that called ``make_result``
    when it passes none (a call that records no tape)."""
    from text2table.numerics import ops

    seen = []

    def hooked(data, parents, vjp):
        op = sys._getframe(1).f_code.co_name if vjp is None else vjp.__qualname__.split(".")[0]
        seen.append(("forward", op, np.asarray(data).dtype))

        def recorded(g):
            grads = vjp(g)
            seen.extend(("vjp", op, x.dtype) for x in grads if x is not None)
            return grads

        return make_result(data, parents, recorded)

    monkeypatch.setattr(ops, "make_result", hooked)
    return seen


def closure_tensors(fn) -> list[Tensor]:
    """Every Tensor a function reaches through its closure cells, and through
    the tuples, lists, dicts and plain objects those hold (not through module
    globals)."""
    found, seen, todo = [], set(), [fn]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Tensor):
            found.append(obj)
        elif isinstance(obj, types.FunctionType):
            for cell in obj.__closure__ or ():
                try:
                    todo.append(cell.cell_contents)
                except ValueError:  # a variable the function names but its scope never bound
                    pass
        elif isinstance(obj, (tuple, list, set, frozenset)):
            todo.extend(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif not isinstance(obj, (type, np.ndarray)) and hasattr(obj, "__dict__"):
            todo.extend(vars(obj).values())
    return found


def finite_diff_grad(f, arr: np.ndarray, h: float = 1e-6, order: int = 2) -> np.ndarray:
    """Central-difference gradient of scalar f() w.r.t. arr, edited in place.

    ``order`` 2 takes f at x +- h; ``order`` 4 also at x +- 2h, whose error
    falls as h^4, so a larger h keeps roundoff small at the same accuracy."""
    weights = {2: {1: 1 / 2}, 4: {1: 2 / 3, 2: -1 / 12}}[order]  # coefficient of f(x + j h) - f(x - j h)
    g = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        total = 0.0
        for j, w in weights.items():
            flat[i] = keep + j * h
            up = f()
            flat[i] = keep - j * h
            down = f()
            total += w * (up - down)
        flat[i] = keep
        gflat[i] = total / h
    return g


def max_rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    """Max elementwise |a-b| / max(|a|, |b|, floor)."""
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


def encode_one(model, ids):
    """Memory rows of one source text, with its lengths [1]."""
    lens = [len(ids)]
    return model.encode(ids, lens), lens


def slot_cell_id(template, coord):
    """The template's ``cell`` index of a table cell's slot positions."""
    return int(template.cell[template.slot_start[coord]])


def loss_cells(instance):
    """[P] the template's ``cell`` index at each loss position of a teacher-forced instance."""
    return instance.template.cell[instance.loss_pos]


def cell_logits(model, memory, mem_len, instance, cells=None):
    """Per-position vocabulary logits for the open content positions of a
    teacher-forced instance.

    Returns (template positions, logits) where logits have grammar-forbidden
    entries set to -inf. ``cells`` defaults to every open cell that carries
    loss positions in the instance.
    """
    batch = collate_instances([instance])
    hidden = model.decoder_hidden(model.memory_kv(memory), mem_len, batch, train=False)
    pos, _, legal = batch.flat_loss_arrays()
    keep = np.ones(len(pos), dtype=bool)
    if cells is not None:
        keep = np.isin(loss_cells(instance), [slot_cell_id(instance.template, c) for c in cells])
    logits = model.logits_at(hidden, pos[keep]).data
    return batch.rows[0][pos[keep]], np.where(legal[keep], logits, -np.inf)


def instance_for_pass(template, grammar, cell_contents, stage):
    """Teacher-forced layout of one pass as training builds it: the
    :class:`PassLayout` of ``cell_contents``, laid out at ``stage``."""
    return PassLayout.build(template, grammar, cell_contents).instance(stage)


def structure(template):
    """[T] mask of the template's header tokens and row markers."""
    return (template.rows == 0) | (template.cols == 0)


def cut_stages(order, cut):
    """Stages of the permuted pass with cell ``order`` and ``cut``: the cells
    before the cut are context (0), the rest are open (1)."""
    return {c: int(n >= cut - 1) for n, c in enumerate(order)}


def filled_stages(template, filled):
    """Stages of a permuted pass: the ``filled`` cells are context (0), every
    other cell of the template is open (1)."""
    return {c: int(c not in filled) for c in template.cells}


def visibility(instance):
    """[T, T] visibility of a whole layout, padding included, by the naive
    rule of ``loop_kernels``: padding sees nothing and is seen by nothing.
    The rule compares cells only where the query is open, so it reads the
    template's ``cell`` index, which headers and row markers share."""
    tpl = instance.template
    return loop_kernels.visibility_mask(instance.is_pad, instance.stage, tpl.cell, tpl.within)


def write_prefixes(instance, prefixes):
    """Write each open cell's partial token prefix into a decode layout's
    input ids, after its BOS, as the decoder does step by step; returns the
    instance."""
    for coord, tokens in prefixes.items():
        p0 = instance.template.slot_start[coord] + 1
        instance.input_ids[p0 : p0 + len(tokens)] = tokens
    return instance


class MockCellSource:
    """Deterministic pseudo-random candidate source keyed on (cell, committed set).

    Token ids and per-token log-probs derive from a seed plus the exact
    decoding state, so candidates are reproducible and context-dependent
    without any neural model.
    """

    def __init__(self, n_rows, n_cols, seed=0, vocab_lo=10, vocab_hi=20):
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.seed = seed
        self.vocab_lo = vocab_lo
        self.vocab_hi = vocab_hi

    def _rng(self, cell, committed):
        key = [self.seed, cell[0], cell[1]]
        for r, c in sorted(committed):
            key += [r, c]
        return np.random.default_rng(np.random.SeedSequence(key))

    def score_of(self, cell, committed):
        """Aggregated max-score this source will assign (for oracles)."""
        from text2table.decoding import Candidate

        return self.candidate_for(cell, committed).score("max")

    def candidate_for(self, cell, committed):
        from text2table.decoding import Candidate

        rng = self._rng(cell, committed)
        n_tok = int(rng.integers(1, 4))
        tokens = [int(t) for t in rng.integers(self.vocab_lo, self.vocab_hi, size=n_tok)]
        lps = [float(x) for x in -rng.random(n_tok + 1) * 3.0]  # content + end-of-cell
        return Candidate(tokens, lps)

    def candidates(self, committed, cells):
        return {c: self.candidate_for(c, committed) for c in cells}
