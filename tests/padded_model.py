"""The padded forward of the encoder and decoder stacks, kept as an oracle.

Before the stacks ran on packed rows, every layer worked on the padded
layouts: the encoder on [B, S, d] with PAD up to the longest text, the
decoder on [B, L, d] with every position of a ``DecoderBatch``, and each
attention as a chain of tape ops (head split, scale, bias add, mask,
softmax, value mix, head join). This module keeps that forward, with the
``transpose``, ``softmax`` and ``masked_fill`` ops only it uses, so the
packed model can be checked against it. It reads the model's parameters and
runs the same layer sequence; only the layout and the op chain differ.
"""

from __future__ import annotations

import math

import numpy as np

from text2table.model import DecoderBatch
from text2table.model.layout import sequence_bucket_matrix
from text2table.numerics import Tensor, ops
from text2table.numerics.tensor import make_result
from text2table.training.loop import STREAM_DROPOUT, step_rng
from text2table.vocab import PAD


def transpose(a: Tensor, axes) -> Tensor:
    """Permute axes (numpy ``transpose``)."""

    def vjp(g):
        return (g.transpose(np.argsort(axes)),)

    return make_result(a.data.transpose(axes), (a,), vjp)


def masked_fill(a: Tensor, mask: np.ndarray, value: float) -> Tensor:
    """Replace entries where mask is True with `value` (mask broadcasts)."""
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), a.shape)

    def vjp(g):
        return (np.where(mask, 0.0, g),)

    return make_result(np.where(mask, value, a.data), (a,), vjp)


def softmax(a: Tensor) -> Tensor:
    """Row softmax over the last axis; tolerates -inf entries.

    Rows that are entirely -inf produce all-zero output (and zero gradient)
    instead of NaN, so fully masked padding rows stay inert.
    """
    x = a.data
    mx = np.maximum.reduce(x, axis=-1, keepdims=True)
    dead = ~np.isfinite(mx)
    mx = np.where(dead, 0.0, mx)
    e = np.exp(x - mx)
    z = np.add.reduce(e, axis=-1, keepdims=True)
    z = np.where(z == 0.0, 1.0, z)
    s = e / z

    def vjp(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        return (s * (g - dot),)

    return make_result(s, (a,), vjp)


def padded_batch(instances) -> DecoderBatch:
    """Every template position of each instance, batch-padded to the longest.

    The batch keeps its own padded arrays in the :class:`DecoderBatch` fields:
    ``allow`` [B, L, L] and ``bias_idx`` [4, B, L, L], whose batch padding
    holds a valid table entry (offset 0, no local term, bucket 0) that the
    mask hides. Only this module's forward reads them."""
    b, t_max = len(instances), max(inst.length for inst in instances)
    ids = np.full((b, t_max), PAD, dtype=np.int64)
    allow = np.zeros((b, t_max, t_max), dtype=bool)
    maps = np.zeros((4, b, t_max, t_max), dtype=np.int64)
    maps[2] = -1
    for k, inst in enumerate(instances):
        t = inst.length
        ids[k, :t] = inst.input_ids
        allow[k, :t, :t] = inst.visibility()
        maps[:, k, :t, :t] = inst.template.bias_idx
    rows = [np.arange(inst.length, dtype=np.int64) for inst in instances]
    return DecoderBatch(ids, allow, rows, list(instances), maps)


def padded_source_batch(examples) -> tuple[np.ndarray, np.ndarray]:
    """Source ids [B, S], PAD-padded to the longest text, and the mask of real ones."""
    s_max = max((len(e.source_ids) for e in examples), default=1)
    ids = np.full((len(examples), max(s_max, 1)), PAD, dtype=np.int64)
    real = np.zeros_like(ids, dtype=bool)
    for i, e in enumerate(examples):
        ids[i, : len(e.source_ids)] = e.source_ids
        real[i, : len(e.source_ids)] = True
    return ids, real


def _heads(model, x, w):
    """Project [B, N, d] and split heads: [B, H, N, dh]."""
    cfg = model.cfg
    y = ops.matmul(x, model.params[w])
    y = ops.reshape(y, (x.shape[0], x.shape[1], cfg.n_heads, cfg.head_dim))
    return transpose(y, (0, 2, 1, 3))


def _attention(model, x_q, x_kv, prefix, bias, allow, train, rng):
    """Attention of x_q [B, T, d] over x_kv [B, S, d]; allow is [B, 1, T, S]."""
    cfg = model.cfg
    b, t = x_q.shape[0], x_q.shape[1]
    q = _heads(model, x_q, f"{prefix}.wq")
    k, v = _heads(model, x_kv, f"{prefix}.wk"), _heads(model, x_kv, f"{prefix}.wv")
    scores = ops.scale(ops.matmul(q, transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(cfg.head_dim))
    if bias is not None:
        scores = ops.add(scores, bias)
    probs = softmax(masked_fill(scores, ~allow, -np.inf))
    ctx = ops.matmul(probs, v)
    ctx = ops.reshape(transpose(ctx, (0, 2, 1, 3)), (b, t, cfg.d_model))
    out = ops.matmul(ctx, model.params[f"{prefix}.wo"])
    if train and cfg.dropout > 0:
        out = ops.dropout(out, cfg.dropout, rng)
    return out


def encode(model, ids, real, train=False, rng=None) -> Tensor:
    """Token ids [B, S] (PAD-padded) and their validity mask -> memory [B, S, d]."""
    cfg = model.cfg
    x = ops.embedding(model.params["embed"], ids)
    if train and cfg.dropout > 0:
        x = ops.dropout(x, cfg.dropout, rng)
    bias = ops.bucket_bias(model.params["enc_beta"], sequence_bucket_matrix(ids.shape[1], cfg))
    allow = real[:, None, None, :] & real[:, None, :, None]
    for i in range(cfg.n_enc_layers):
        xn = model._ln(x, f"enc{i}.ln1")
        x = ops.add(x, _attention(model, xn, xn, f"enc{i}.attn", bias, allow, train, rng))
        x = ops.add(x, model._ffn(model._ln(x, f"enc{i}.ln2"), f"enc{i}.ffn", train, rng))
    return model._ln(x, "enc.ln_f")


def decoder_hidden(model, memory, mem_real, batch, train=False, rng=None) -> Tensor:
    """Decoder stack over every position of a batch; hidden states [B, L, d]."""
    cfg, p = model.cfg, model.params
    b, t = batch.input_ids.shape
    x = ops.embedding(p["embed"], batch.input_ids)
    if train and cfg.dropout > 0:
        x = ops.dropout(x, cfg.dropout, rng)
    ri, ci, li, bi = (m.reshape(b * t, t) for m in batch.bias_idx)
    bias = ops.add(
        ops.pair_bias(p["tab_row"], p["tab_r0"], p["tab_col"], p["tab_loc"], ri, ci, li),
        ops.bucket_bias(p["dec_beta"], bi),
    )
    bias = transpose(ops.reshape(bias, (cfg.n_heads, b, t, t)), (1, 0, 2, 3))
    allow = batch.allow[:, None]
    cross_allow = mem_real[:, None, None, :]
    for i in range(cfg.n_dec_layers):
        xs = model._ln(x, f"dec{i}.ln1")
        x = ops.add(x, _attention(model, xs, xs, f"dec{i}.self", bias, allow, train, rng))
        xc = model._ln(x, f"dec{i}.ln2")
        x = ops.add(x, _attention(model, xc, memory, f"dec{i}.cross", None, cross_allow, train, rng))
        x = ops.add(x, model._ffn(model._ln(x, f"dec{i}.ln3"), f"dec{i}.ffn", train, rng))
    return model._ln(x, "dec.ln_f")


def live_rows(hidden, batch) -> Tensor:
    """The batch's rows of padded hidden states [B, L, d], packed to [N, d]."""
    b, t, d = hidden.shape
    return ops.take_rows(ops.reshape(hidden, (b * t, d)), np.flatnonzero(
        np.arange(t) < np.array([len(r) for r in batch.rows])[:, None]
    ))


def count_pred(model, memory) -> Tensor:
    """Row-count regression from the first position of padded memory [B, S, d]."""
    b, s, d = memory.shape
    first = ops.take_rows(ops.reshape(memory, (b * s, d)), np.arange(b, dtype=np.int64) * s)
    out = ops.matmul(first, model.params["count.w"])
    return ops.add(ops.reshape(out, (b,)), model.params["count.b"])


def batch_loss(trainer, batch, step, train):
    """``Trainer._batch_loss`` over the padded stacks: (total, nll, mse)."""
    model, cfg = trainer.model, trainer.cfg
    rng = step_rng(cfg.seed, step, STREAM_DROPOUT) if train else None
    ids, real = padded_source_batch(batch)
    memory = encode(model, ids, real, train=train, rng=rng)
    counts = np.array([ex.count_target for ex in batch], dtype=model.cfg.dtype)
    mse = ops.mse(count_pred(model, memory), counts)
    insts, owners = trainer._instances_for(batch, step)
    if insts:
        dec_batch = padded_batch(insts)
        s = memory.shape[1]
        gather = np.concatenate([np.arange(s, dtype=np.int64) + o * s for o in owners])
        flat = ops.reshape(memory, (memory.shape[0] * s, memory.shape[2]))
        sub_memory = ops.reshape(ops.take_rows(flat, gather), (len(owners), s, memory.shape[2]))
        hidden = decoder_hidden(model, sub_memory, real[owners], dec_batch, train=train, rng=rng)
        pos, tgt, legal = dec_batch.flat_loss_arrays()
        logits = model.logits_at(live_rows(hidden, dec_batch), pos)
        weights = np.full(len(pos), 1.0 / max(len(pos), 1), dtype=model.cfg.dtype)
        nll = ops.cross_entropy(logits, tgt, smoothing=cfg.label_smoothing, legal=legal, weights=weights)
    else:
        nll = Tensor(np.asarray(0.0, dtype=model.cfg.dtype))
    total = ops.add(nll, ops.scale(mse, cfg.count_loss_weight))
    return total, nll, mse
