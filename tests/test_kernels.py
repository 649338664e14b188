"""The numpy kernels and the loop kernels must agree bitwise.

The loop kernels are jitted by numba when it is installed and run as plain
Python otherwise, so these tests run on every machine.
"""

import numpy as np

from text2table.numerics import kernels

NP = kernels.IMPLS["numpy"]
NB = kernels.LOOPS


def _pair_inputs(rng, heads=3, t=17, n_max=4, m_max=3, l=5, shape=None):
    shape = shape or (t, t)
    row_tab = rng.normal(size=(heads, 2 * n_max + 1))
    r0 = rng.normal(size=heads)
    col_tab = rng.normal(size=(heads, 2 * m_max + 1))
    loc_tab = rng.normal(size=(heads, 2 * l + 1))
    row_idx = rng.integers(-1, 2 * n_max + 1, size=shape)
    col_idx = rng.integers(0, 2 * m_max + 1, size=shape)
    loc_idx = rng.integers(-1, 2 * l + 1, size=shape)
    return row_tab, r0, col_tab, loc_tab, row_idx, col_idx, loc_idx


def test_gather_pair_bias_bitwise():
    rng = np.random.default_rng(0)
    args = _pair_inputs(rng)
    a = NP["gather_pair_bias"](*args)
    b = NB["gather_pair_bias"](*args)
    assert np.array_equal(a, b)


def test_scatter_pair_bias_grad_bitwise():
    rng = np.random.default_rng(1)
    row_tab, r0, col_tab, loc_tab, row_idx, col_idx, loc_idx = _pair_inputs(rng)
    grad = rng.normal(size=(3, 17, 17))
    outs = []
    for impl in (NP, NB):
        g_row = np.zeros_like(row_tab)
        g_r0 = np.zeros_like(r0)
        g_col = np.zeros_like(col_tab)
        g_loc = np.zeros_like(loc_tab)
        impl["scatter_pair_bias_grad"](g_row, g_r0, g_col, g_loc, grad, row_idx, col_idx, loc_idx)
        outs.append((g_row, g_r0, g_col, g_loc))
    for a, b in zip(*outs):
        assert np.array_equal(a, b)


def test_pair_bias_on_stacked_batch_maps_bitwise():
    # a batch of B [L, L] index maps stacked to [B*L, L], as the decoder passes them
    rng = np.random.default_rng(6)
    row_tab, r0, col_tab, loc_tab, row_idx, col_idx, loc_idx = _pair_inputs(rng, shape=(3 * 7, 7))
    tables = (row_tab, r0, col_tab, loc_tab)
    a = NP["gather_pair_bias"](*tables, row_idx, col_idx, loc_idx)
    assert a.shape == (3, 21, 7)
    assert np.array_equal(a, NB["gather_pair_bias"](*tables, row_idx, col_idx, loc_idx))
    grad = rng.normal(size=(3, 21, 7))
    outs = []
    for impl in (NP, NB):
        g = [np.zeros_like(x) for x in tables]
        impl["scatter_pair_bias_grad"](*g, grad, row_idx, col_idx, loc_idx)
        outs.append(g)
    for x, y in zip(*outs):
        assert np.array_equal(x, y)


def test_bucket_bias_roundtrip_bitwise():
    rng = np.random.default_rng(2)
    table = rng.normal(size=(4, 32))
    idx = rng.integers(0, 32, size=(23, 23))
    assert np.array_equal(NP["gather_bucket_bias"](table, idx), NB["gather_bucket_bias"](table, idx))
    grad = rng.normal(size=(4, 23, 23))
    ga = np.zeros_like(table)
    gb = np.zeros_like(table)
    NP["scatter_bucket_bias_grad"](ga, grad, idx)
    NB["scatter_bucket_bias_grad"](gb, grad, idx)
    assert np.array_equal(ga, gb)


def test_visibility_mask_bitwise():
    rng = np.random.default_rng(3)
    t = 41
    is_pad = rng.random(t) < 0.15
    is_ctx = rng.random(t) < 0.4
    rank = rng.integers(0, 5, size=t)
    cell_id = rng.integers(0, 9, size=t)
    within = rng.integers(0, 6, size=t)
    full = NP["visibility_mask"](is_pad, is_ctx, rank, cell_id, within, np.arange(t))
    assert full.shape == (t, t)
    assert np.array_equal(full, NB["visibility_mask"](is_pad, is_ctx, rank, cell_id, within, np.arange(t)))
    rows = np.sort(rng.choice(t, size=9, replace=False))  # query rows alone, as a cached pass asks
    a = NP["visibility_mask"](is_pad, is_ctx, rank, cell_id, within, rows)
    b = NB["visibility_mask"](is_pad, is_ctx, rank, cell_id, within, rows)
    assert a.shape == (9, t)
    assert np.array_equal(a, b)
    assert np.array_equal(a, full[rows])


def test_scatter_add_rows_bitwise():
    rng = np.random.default_rng(4)
    ids = rng.integers(0, 10, size=50)
    rows = rng.normal(size=(50, 7))
    a = np.zeros((10, 7))
    b = np.zeros((10, 7))
    NP["scatter_add_rows"](a, ids, rows)
    NB["scatter_add_rows"](b, ids, rows)
    assert np.array_equal(a, b)


def test_adamw_update_bitwise():
    rng = np.random.default_rng(5)
    n = 101
    p = rng.normal(size=n)
    g = rng.normal(size=n)
    m = rng.normal(size=n) * 0.1
    v = np.abs(rng.normal(size=n)) * 0.01
    state_a = (p.copy(), g.copy(), m.copy(), v.copy())
    state_b = (p.copy(), g.copy(), m.copy(), v.copy())
    args = (3.16e-3, 1e-8, 0.9, 0.999, 1e-8)
    NP["adamw_update"](*state_a, *args)
    NB["adamw_update"](*state_b, *args)
    for a, b in zip(state_a, state_b):
        assert np.array_equal(a, b)


def test_backend_selection_reports_name():
    assert kernels.backend_name() in ("numba", "numpy")
