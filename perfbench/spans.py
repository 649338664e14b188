"""Span recording around text2table's public functions, from outside the package.

A :class:`SpanRecorder` keeps every span (name, start, end, parent, operation
id) in flat in-memory arrays. :func:`layer_targets` lists which library
functions belong to which layer; :class:`Patched` swaps each for a thin
wrapper that opens a span around the original call and restores the original
afterwards, so untraced operations run the library code untouched.

Self time of a span is its duration minus the durations of its direct
children. Children never overlap (the program is single-threaded), so this is
the time the span's own code ran.
"""

from __future__ import annotations

import inspect
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

ROOT = "bench.op"  # one root span per training step or decoded table


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self.current_op = -1
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.end)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def parent_name(self) -> str | None:
        """Name of the innermost span still open."""
        return self.names[self.name[self._stack[-1]]] if self._stack else None

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=dur[child], minlength=len(dur))
        own = np.bincount(a["name"], weights=dur - covered, minlength=len(self.names))
        return dict(zip(self.names, own.tolist()))

    def total_seconds(self, name: str) -> float:
        """Summed duration of all spans with this name (their children included)."""
        a = self.arrays()
        nid = self._ids.get(name)
        if nid is None:
            return 0.0
        hit = a["name"] == nid
        return float((a["end"][hit] - a["start"][hit]).sum())

    def write(self, path, **meta) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays(), **{k: np.asarray(v) for k, v in meta.items()})


def _wrap(rec: SpanRecorder, layer: str, fn, count=None):
    nid = rec.name_id(layer)

    def traced(*args, **kwargs):
        i = rec.open(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(i)
        if count is not None:
            count(rec, args, out)
        return out

    return traced


# ---------------------------------------------------------------------------
# counters, run at the layer boundary after the call returns
# ---------------------------------------------------------------------------


def _count_decoder(rec, args, out):
    batch = args[3]  # decoder_hidden(self, memory, mem_real, batch, ...)
    b, t = batch.input_ids.shape
    pad = sum(t - inst.length + int(inst.is_pad.sum()) for inst in batch.instances)
    c = rec.counts
    c["decoder_calls"] += 1
    c["decoder_T"] += t
    c["decoder_positions"] += b * t
    c["decoder_pad"] += pad
    if rec.parent_name() == "decoding.select":
        c["decoding_passes"] += 1
        c["decoding_positions"] += b * t


def _count_logits(rec, args, out):
    if rec.parent_name() == "decoding.select":
        rec.counts["decoding_logit_positions"] += len(args[2])  # logits_at(self, hidden, flat_positions)


def _count_pass(rec, args, out):
    rec.counts["loss_positions"] += len(out.loss_pos)
    rec.counts["legal_bytes"] += out.legal.nbytes


def _count_candidates(rec, args, out):
    rec.counts["candidates"] += len(out)


def _count_op(rec, args, out):
    rec.counts["op_calls"] += 1


def layer_targets():
    """(owner, attribute, layer, counter) for every wrapped library function.

    A function imported by name into a consumer module is patched where the
    consumer looks it up.
    """
    from text2table.decoding import engine
    from text2table.model.transformer import DecoderBatch, TextToTableModel
    from text2table.numerics import AdamW, ops
    from text2table.training import loop

    targets = [
        (TextToTableModel, "encode", "model.encode", None),
        (TextToTableModel, "decoder_hidden", "model.decoder_fwd", _count_decoder),
        (TextToTableModel, "logits_at", "model.logits", _count_logits),
        (loop, "collate_instances", "model.collate", None),
        (engine, "collate_instances", "model.collate", None),
        (DecoderBatch, "flat_loss_arrays", "model.collate", None),
        (engine, "instance_for_decoding", "layout.instance", None),
        (loop, "sample_permutation", "training.build_pass", None),
        (loop, "build_training_pass", "training.build_pass", _count_pass),
        (loop, "backward", "numerics.backward", None),
        (loop, "clip_grad_norm", "optim.clip", None),
        (AdamW, "step", "optim.adamw", None),
        (engine.ModelCellSource, "candidates", "decoding.select", _count_candidates),
        (engine, "run_outer_loop", "decoding.outer", None),
        (engine, "inner_loop", "decoding.outer", None),
    ]
    for name, fn in vars(ops).items():
        if inspect.isfunction(fn) and fn.__module__ == ops.__name__ and not name.startswith("_"):
            targets.append((ops, name, f"ops.{name}", _count_op))
    return targets


class Patched:
    """Context manager: wrappers installed on entry, originals back on exit."""

    def __init__(self, rec: SpanRecorder, targets):
        self._saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in targets]
        self._wrapped = [
            (owner, attr, _wrap(rec, layer, vars(owner)[attr], count))
            for owner, attr, layer, count in targets
        ]

    def __enter__(self):
        for owner, attr, fn in self._wrapped:
            setattr(owner, attr, fn)
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in self._saved:
            setattr(owner, attr, fn)
        return False
