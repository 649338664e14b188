"""Naive element-by-element reference for the library's vectorised hot loops.

Each function spells one loop out in plain Python: the decoder pair bias
and its gradient, the bucket bias and its gradient, the visibility mask, the
embedding-gradient row scatter and the AdamW update. The arithmetic and the
accumulation order are the ones the numpy code must keep, so
``tests/test_kernels.py`` compares the two bitwise. Too slow for anything but
small inputs.
"""

from __future__ import annotations

import numpy as np


def gather_pair_bias(row_tab, r0, col_tab, loc_tab, row_idx, col_idx, loc_idx):
    """bias[h, e] = (R0[h] | R[h,ri]) + C[h,ci] + (L[h,li] | 0), added in
    that order, for every entry e of the maps (any shape, row-major); row
    index -1 selects R0, local index -1 adds nothing."""
    n_heads = row_tab.shape[0]
    ri_, ci_, li_ = (np.asarray(m).reshape(-1) for m in (row_idx, col_idx, loc_idx))
    out = np.empty((n_heads, ri_.size), dtype=row_tab.dtype)
    for h in range(n_heads):
        for e in range(ri_.size):
            ri = ri_[e]
            acc = r0[h] if ri < 0 else row_tab[h, ri]
            acc = acc + col_tab[h, ci_[e]]
            li = li_[e]
            if li >= 0:
                acc = acc + loc_tab[h, li]
            out[h, e] = acc
    return out.reshape((n_heads,) + np.shape(row_idx))


def scatter_pair_bias_grad(g_row, g_r0, g_col, g_loc, grad, row_idx, col_idx, loc_idx):
    n_heads = grad.shape[0]
    ri_, ci_, li_ = (np.asarray(m).reshape(-1) for m in (row_idx, col_idx, loc_idx))
    grad = grad.reshape(n_heads, -1)
    for h in range(n_heads):
        for e in range(ri_.size):
            g = grad[h, e]
            ri = ri_[e]
            if ri < 0:
                g_r0[h] += g
            else:
                g_row[h, ri] += g
            g_col[h, ci_[e]] += g
            li = li_[e]
            if li >= 0:
                g_loc[h, li] += g


def gather_bucket_bias(table, idx):
    n_heads = table.shape[0]
    flat = np.asarray(idx).reshape(-1)
    out = np.empty((n_heads, flat.size), dtype=table.dtype)
    for h in range(n_heads):
        for e in range(flat.size):
            out[h, e] = table[h, flat[e]]
    return out.reshape((n_heads,) + np.shape(idx))


def scatter_bucket_bias_grad(g_table, grad, idx):
    n_heads = grad.shape[0]
    flat = np.asarray(idx).reshape(-1)
    grad = grad.reshape(n_heads, -1)
    for h in range(n_heads):
        for e in range(flat.size):
            g_table[h, flat[e]] += grad[h, e]


def visibility_mask(is_pad, stage, cell_id, within):
    t = is_pad.shape[0]
    allow = np.empty((t, t), dtype=np.bool_)
    for i in range(t):
        for j in range(t):
            if is_pad[i] or is_pad[j]:
                allow[i, j] = False
            elif stage[i] == 0:
                allow[i, j] = stage[j] == 0
            elif stage[j] < stage[i]:
                allow[i, j] = True
            else:
                allow[i, j] = cell_id[i] == cell_id[j] and within[j] <= within[i]
    return allow


def scatter_add_rows(out, ids, rows):
    n, d = rows.shape
    for i in range(n):
        r = ids[i]
        for j in range(d):
            out[r, j] += rows[i, j]


def adamw_update(p, g, m, v, step_size, decay_factor, beta1, beta2, eps):
    """Decoupled-decay Adam on flat arrays, in place; bias correction folded
    into step_size by the caller."""
    n = p.shape[0]
    for i in range(n):
        if decay_factor != 0.0:
            p[i] -= decay_factor * p[i]
        m[i] = beta1 * m[i] + (1.0 - beta1) * g[i]
        v[i] = beta2 * v[i] + (1.0 - beta2) * (g[i] * g[i])
        p[i] -= step_size * (m[i] / (np.sqrt(v[i]) + eps))
