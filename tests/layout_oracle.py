"""Layout oracles written position by position, which the array code of
:mod:`text2table.model.layout` must equal bitwise: the template filled one
position at a time (:func:`make_template`), the two layout builders written
apart, each cell placed token by token (the teacher-forced
:func:`instance_for_pass`, which training now derives from a
:class:`~text2table.model.layout.PassLayout` built once per example, and
:func:`instance_for_decoding`), and a training batch collated from whole
layouts at every step (:func:`collate`)."""

import numpy as np

from text2table.model import LayoutError, LayoutInstance, TableTemplate
from text2table.model.layout import check_shape, sequence_bucket_matrix
from text2table.vocab import BOS, EOC, PAD


def make_template(vocab, cfg, header_ids, n_rows):
    m = len(header_ids)
    l = cfg.max_cell_len
    check_shape(cfg, n_rows, m)
    header_ids = [h[:l] for h in header_ids]
    length = sum(len(h) for h in header_ids) + n_rows * (1 + m * l)
    base = np.full(length, PAD, dtype=np.int64)
    rows = np.zeros(length, dtype=np.int64)
    cols = np.zeros(length, dtype=np.int64)
    within = np.zeros(length, dtype=np.int64)
    block_id = np.zeros(length, dtype=np.int64)
    cells = []
    cell = np.full(length, n_rows * m, dtype=np.int64)
    slot_start = {}

    pos = 0
    block = 0
    for j, h in enumerate(header_ids, start=1):
        for t, tok in enumerate(h):
            base[pos] = tok
            rows[pos] = 0
            cols[pos] = j
            within[pos] = t
            block_id[pos] = block
            pos += 1
        block += 1
    for i in range(1, n_rows + 1):
        base[pos] = vocab.row_marker_id(i)
        rows[pos], cols[pos], within[pos] = i, 0, 0
        block_id[pos] = block
        block += 1
        pos += 1
        for j in range(1, m + 1):
            slot_start[(i, j)] = pos
            for t in range(l):
                base[pos] = BOS if t == 0 else PAD
                rows[pos], cols[pos], within[pos] = i, j, t
                block_id[pos] = block
                cell[pos] = len(cells)
                pos += 1
            block += 1
            cells.append((i, j))
    assert pos == length

    tpl = TableTemplate(
        n_rows=n_rows,
        n_cols=m,
        slot_len=l,
        length=length,
        base_inputs=base,
        rows=rows,
        cols=cols,
        within=within,
        cells=cells,
        cell=cell,
        slot_start=slot_start,
    )
    hdr_key = rows[None, :] == 0
    serial = np.arange(length, dtype=np.int64)
    same_cell = block_id[:, None] == block_id[None, :]
    tpl.bias_idx = np.stack([
        np.where(hdr_key, -1, rows[:, None] - rows[None, :] + cfg.max_rows),
        cols[:, None] - cols[None, :] + cfg.max_cols,
        np.where(same_cell, serial[:, None] - serial[None, :] + l, -1),
        sequence_bucket_matrix(length, cfg),
    ])
    tpl.own = same_cell & (serial[None, :] <= serial[:, None])  # a key in the query's block, at or before it
    return tpl


def _place(template, inputs, pad, coord, content):
    l = template.slot_len
    if len(content) > l - 1:
        raise LayoutError(f"cell {coord} content length {len(content)} exceeds {l - 1}")
    p0 = template.slot_start[coord]
    inputs[p0] = BOS
    for t, tok in enumerate(content):
        inputs[p0 + 1 + t] = tok
    pad[p0 : p0 + len(content) + 1] = False
    pad[p0 + len(content) + 1 : p0 + l] = True


def instance_for_pass(template, grammar, cell_contents, stage):
    if set(stage) != set(template.cells):
        raise LayoutError(f"stage keys are not the template's {len(template.cells)} cells: {sorted(stage)}")
    inputs = template.base_inputs.copy()
    pad = np.zeros(template.length, dtype=bool)
    stages = np.zeros(template.length, dtype=np.int64)
    loss_tgt = []
    for coord in template.cells:
        content = cell_contents[coord]
        _place(template, inputs, pad, coord, content)
        p0 = template.slot_start[coord]
        stages[p0 : p0 + template.slot_len] = stage[coord]
        if stage[coord]:
            loss_tgt += content + [EOC]
    loss_pos = np.flatnonzero((stages > 0) & ~pad)
    return LayoutInstance(
        template=template,
        input_ids=inputs,
        is_pad=pad,
        stage=stages,
        loss_pos=loss_pos,
        loss_targets=np.asarray(loss_tgt, dtype=np.int64),
        legal=grammar.table[grammar.row_index(template.within[loss_pos], inputs[loss_pos])],
    )


def instance_for_decoding(template, committed):
    inputs = template.base_inputs.copy()
    pad = np.zeros(template.length, dtype=bool)
    stage = np.zeros(template.length, dtype=np.int64)
    for coord in template.cells:
        p0 = template.slot_start[coord]
        if coord in committed:
            _place(template, inputs, pad, coord, committed[coord])
        else:
            stage[p0 : p0 + template.slot_len] = 1
    return LayoutInstance(template=template, input_ids=inputs, is_pad=pad, stage=stage)


def collate(instances):
    """A training batch as it was built from whole layouts at every step:
    (input ids [B, L], live rows per example, visibility blocks, int64
    bias-index blocks [4, sum n_b^2], loss positions in the packed rows,
    targets, legal rows)."""
    live = [np.flatnonzero(~inst.is_pad) for inst in instances]
    ids = np.full((len(instances), max(len(r) for r in live)), PAD, dtype=np.int64)
    allow, bias_idx = [], []
    for k, (inst, r) in enumerate(zip(instances, live)):
        tpl = inst.template
        ids[k, : len(r)] = inst.input_ids[r]
        idx = tpl.bias_idx[:, r[:, None], r]
        s = inst.stage[r]
        allow.append(((s[None, :] < np.maximum(s[:, None], 1)) | (idx[2] >= tpl.slot_len)).reshape(-1))
        bias_idx.append(idx.reshape(4, -1))
    offsets = np.cumsum([0] + [len(r) for r in live])
    pos = [np.searchsorted(r, inst.loss_pos) + o for r, inst, o in zip(live, instances, offsets)]
    return (
        ids,
        live,
        np.concatenate(allow),
        np.concatenate(bias_idx, axis=1),
        np.concatenate(pos),
        np.concatenate([inst.loss_targets for inst in instances]),
        np.concatenate([inst.legal for inst in instances]),
    )
