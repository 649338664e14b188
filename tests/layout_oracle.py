"""The two layout builders written apart, each cell placed token by token: the
oracle that :func:`text2table.model.layout.instance_for_pass` and
:func:`~text2table.model.layout.instance_for_decoding`, which share one body,
must equal bitwise."""

import numpy as np

from text2table.model import LayoutError, LayoutInstance
from text2table.vocab import BOS, EOC


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
    if set(stage) != set(template.cells()):
        raise LayoutError(f"stage keys are not the template's {len(template.cells())} cells: {sorted(stage)}")
    inputs = template.base_inputs.copy()
    pad = np.zeros(template.length, dtype=bool)
    stages = np.zeros(template.length, dtype=np.int64)
    loss_tgt = []
    for coord in template.cells():
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
    for coord in template.cells():
        p0 = template.slot_start[coord]
        if coord in committed:
            _place(template, inputs, pad, coord, committed[coord])
        else:
            stage[p0 : p0 + template.slot_len] = 1
    return LayoutInstance(template=template, input_ids=inputs, is_pad=pad, stage=stage)
