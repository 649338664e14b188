"""Hot inner-loop kernels with pure-numpy and explicit-loop implementations.

Every kernel exists twice: a vectorised numpy version (``_np_*``) and an
explicit element-by-element loop (``_nb_*``, collected in ``LOOPS``). The
loop kernels are compiled with numba when numba imports; otherwise they run
as plain Python, which is too slow for training but serves as the naive
reference. Both versions of every kernel keep the same arithmetic and
accumulation order so they produce bitwise-equal results, and
``tests/test_kernels.py`` compares them on every machine, with or without
numba.

The jitted loops are selected by default when numba imports cleanly; set
``STABLE_KERNELS=numpy`` to force the numpy kernels (or ``numba`` to require
the jitted path). Without numba the numpy kernels are active.

Kernels here are the loops that dominate runtime besides BLAS matmuls:
attention-bias gather/scatter, visibility-mask assembly, embedding-gradient
scatter, and the fused optimizer update.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # numba is optional; the loop kernels then run as plain Python
    HAS_NUMBA = False

    def njit(*args, **kwargs):
        def deco(f):
            return f

        return deco if not args or callable(args[0]) is False else deco(args[0])


# ---------------------------------------------------------------------------
# pure-numpy implementations
# ---------------------------------------------------------------------------


def _np_gather_pair_bias(row_tab, r0, col_tab, loc_tab, row_idx, col_idx, loc_idx):
    """bias[h,i,j] = (R0[h] | R[h,ri]) + C[h,ci] + (L[h,li] | 0).

    row_idx < 0 selects the header bucket R0; loc_idx < 0 means the pair spans
    two cells and contributes no local term. Add order is fixed (row, col,
    local) so numba and numpy agree bitwise.
    """
    n_heads = row_tab.shape[0]
    out = np.empty((n_heads,) + row_idx.shape, dtype=row_tab.dtype)
    hdr = row_idx < 0
    same = loc_idx >= 0
    row_safe = np.where(hdr, 0, row_idx)
    loc_safe = np.where(same, loc_idx, 0)
    for h in range(n_heads):
        acc = np.where(hdr, r0[h], row_tab[h][row_safe])
        acc = acc + col_tab[h][col_idx]
        acc = acc + np.where(same, loc_tab[h][loc_safe], 0.0)
        out[h] = acc
    return out


def _np_scatter_pair_bias_grad(g_row, g_r0, g_col, g_loc, grad, row_idx, col_idx, loc_idx):
    """Accumulate grad[h,i,j] into the bias tables (reverse of the gather)."""
    n_heads = grad.shape[0]
    hdr = row_idx < 0
    same = loc_idx >= 0
    for h in range(n_heads):
        g = grad[h]
        # add.at keeps row-major accumulation order, matching the numba loop
        np.add.at(g_r0, np.full(int(hdr.sum()), h), g[hdr])
        np.add.at(g_row[h], row_idx[~hdr], g[~hdr])
        np.add.at(g_col[h], col_idx, g)
        np.add.at(g_loc[h], loc_idx[same], g[same])


def _np_gather_bucket_bias(table, idx):
    """bias[h,i,j] = table[h, idx[i,j]] (sequence-relative buckets)."""
    return table[:, idx]


def _np_scatter_bucket_bias_grad(g_table, grad, idx):
    n_heads = grad.shape[0]
    for h in range(n_heads):
        np.add.at(g_table[h], idx, grad[h])


def _np_visibility_mask(is_pad, is_ctx, rank, cell_id, within, rows):
    """allow[n, j]: may query position rows[n] attend key position j.

    Context positions (headers, row markers, filled cells) see each other and
    are visible to everyone; a non-context position additionally sees lower
    ranks and its own cell causally, and never another open cell.
    """
    live = ~is_pad
    ctx_i = is_ctx[rows][:, None]
    ctx_j = is_ctx[None, :]
    lower = rank[None, :] < rank[rows][:, None]
    own = (cell_id[rows][:, None] == cell_id[None, :]) & (within[None, :] <= within[rows][:, None])
    allow = np.where(ctx_i, ctx_j, ctx_j | lower | own)
    return allow & live[rows][:, None] & live[None, :]


def _np_scatter_add_rows(out, ids, rows):
    np.add.at(out, ids, rows)


def _np_adamw_update(p, g, m, v, step_size, decay_factor, beta1, beta2, eps):
    """Decoupled-decay Adam; bias correction folded into step_size by caller.

    p -= decay_factor*p; m,v updated; p -= step_size * m/(sqrt(v)+eps).
    All arrays flat, updated in place.
    """
    if decay_factor != 0.0:
        p -= decay_factor * p
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * (g * g)
    p -= step_size * (m / (np.sqrt(v) + eps))


# ---------------------------------------------------------------------------
# loop implementations (same arithmetic, same accumulation order); jitted by
# numba when it imports, plain Python otherwise
# ---------------------------------------------------------------------------


@njit(cache=True)
def _nb_gather_pair_bias(row_tab, r0, col_tab, loc_tab, row_idx, col_idx, loc_idx):
    n_heads = row_tab.shape[0]
    t0, t1 = row_idx.shape
    out = np.empty((n_heads, t0, t1), dtype=row_tab.dtype)
    for h in range(n_heads):
        for i in range(t0):
            for j in range(t1):
                ri = row_idx[i, j]
                if ri < 0:
                    acc = r0[h]
                else:
                    acc = row_tab[h, ri]
                acc = acc + col_tab[h, col_idx[i, j]]
                li = loc_idx[i, j]
                if li >= 0:
                    acc = acc + loc_tab[h, li]
                out[h, i, j] = acc
    return out


@njit(cache=True)
def _nb_scatter_pair_bias_grad(g_row, g_r0, g_col, g_loc, grad, row_idx, col_idx, loc_idx):
    n_heads = grad.shape[0]
    t0, t1 = row_idx.shape
    for h in range(n_heads):
        for i in range(t0):
            for j in range(t1):
                g = grad[h, i, j]
                ri = row_idx[i, j]
                if ri < 0:
                    g_r0[h] += g
                else:
                    g_row[h, ri] += g
                g_col[h, col_idx[i, j]] += g
                li = loc_idx[i, j]
                if li >= 0:
                    g_loc[h, li] += g


@njit(cache=True)
def _nb_gather_bucket_bias(table, idx):
    n_heads = table.shape[0]
    t0, t1 = idx.shape
    out = np.empty((n_heads, t0, t1), dtype=table.dtype)
    for h in range(n_heads):
        for i in range(t0):
            for j in range(t1):
                out[h, i, j] = table[h, idx[i, j]]
    return out


@njit(cache=True)
def _nb_scatter_bucket_bias_grad(g_table, grad, idx):
    n_heads = grad.shape[0]
    t0, t1 = idx.shape
    for h in range(n_heads):
        for i in range(t0):
            for j in range(t1):
                g_table[h, idx[i, j]] += grad[h, i, j]


@njit(cache=True)
def _nb_visibility_mask(is_pad, is_ctx, rank, cell_id, within, rows):
    n = rows.shape[0]
    t = is_pad.shape[0]
    allow = np.empty((n, t), dtype=np.bool_)
    for q in range(n):
        i = rows[q]
        for j in range(t):
            if is_pad[i] or is_pad[j]:
                allow[q, j] = False
            elif is_ctx[i]:
                allow[q, j] = is_ctx[j]
            elif is_ctx[j] or rank[j] < rank[i]:
                allow[q, j] = True
            else:
                allow[q, j] = cell_id[i] == cell_id[j] and within[j] <= within[i]
    return allow


@njit(cache=True)
def _nb_scatter_add_rows(out, ids, rows):
    n, d = rows.shape
    for i in range(n):
        r = ids[i]
        for j in range(d):
            out[r, j] += rows[i, j]


@njit(cache=True)
def _nb_adamw_update(p, g, m, v, step_size, decay_factor, beta1, beta2, eps):
    n = p.shape[0]
    for i in range(n):
        if decay_factor != 0.0:
            p[i] -= decay_factor * p[i]
        m[i] = beta1 * m[i] + (1.0 - beta1) * g[i]
        v[i] = beta2 * v[i] + (1.0 - beta2) * (g[i] * g[i])
        p[i] -= step_size * (m[i] / (np.sqrt(v[i]) + eps))


# ---------------------------------------------------------------------------
# backend selection
# ---------------------------------------------------------------------------

_KERNEL_NAMES = (
    "gather_pair_bias",
    "scatter_pair_bias_grad",
    "gather_bucket_bias",
    "scatter_bucket_bias_grad",
    "visibility_mask",
    "scatter_add_rows",
    "adamw_update",
)

# The loop kernels, defined whether or not numba imports: the reference the
# numpy kernels are checked against.
LOOPS: dict[str, object] = {name: globals()[f"_nb_{name}"] for name in _KERNEL_NAMES}

IMPLS: dict[str, dict[str, object]] = {
    "numpy": {name: globals()[f"_np_{name}"] for name in _KERNEL_NAMES},
}
if HAS_NUMBA:
    IMPLS["numba"] = LOOPS


def _pick_backend() -> str:
    want = os.environ.get("STABLE_KERNELS", "auto").lower()
    if want == "numpy":
        return "numpy"
    if want == "numba":
        if not HAS_NUMBA:
            raise RuntimeError("STABLE_KERNELS=numba but numba is not importable")
        return "numba"
    if want != "auto":
        warnings.warn(f"unknown STABLE_KERNELS={want!r}, using auto", stacklevel=2)
    return "numba" if HAS_NUMBA else "numpy"


BACKEND = _pick_backend()

gather_pair_bias = IMPLS[BACKEND]["gather_pair_bias"]
scatter_pair_bias_grad = IMPLS[BACKEND]["scatter_pair_bias_grad"]
gather_bucket_bias = IMPLS[BACKEND]["gather_bucket_bias"]
scatter_bucket_bias_grad = IMPLS[BACKEND]["scatter_bucket_bias_grad"]
visibility_mask = IMPLS[BACKEND]["visibility_mask"]
scatter_add_rows = IMPLS[BACKEND]["scatter_add_rows"]
adamw_update = IMPLS[BACKEND]["adamw_update"]


def backend_name() -> str:
    """Active kernel backend, "numba" or "numpy"."""
    return BACKEND
