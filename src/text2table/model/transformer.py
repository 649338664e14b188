"""Encoder-decoder transformer with tabular decoder self-attention biases.

Both stacks use pre-norm blocks, ReLU feed-forwards and a shared
sequence-relative bucket bias per stack. The decoder self-attention
additionally receives the tabular bias (row/column offsets with a dedicated
header bucket) and the local within-cell bias; cross-attention carries no
position bias. A linear head on the first encoder position regresses the
number of table rows.

Both stacks hold the residual stream as packed rows: the encoder one row
[d] per source token, example after example ([N_src, d], laid out by the
examples' lengths [B]), the decoder one row per live position of each
instance ([N, d], laid out by a :class:`DecoderBatch`). Every weight product
is a single [N, d] gemm and every row-wise layer runs on live tokens only.
The attention op takes each example's row count and scores every example at
its own length, so no layer sees batch padding. Both self-attention biases,
and the decoder's visibility mask, are packed the same way, one [n, n] block
per example back to back; the decoder gathers its bias with one method for a
training batch and for a decode cache alike, and folds the mask into it as
-inf on every hidden pair, once per call, for every layer to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..numerics import ParameterStore, Tensor, no_grad, ops
from ..vocab import PAD, Vocabulary
from .config import ModelConfig
from .layout import (
    GrammarMasks,
    LayoutInstance,
    TableTemplate,
    make_template,
    sequence_bucket_matrix,
    visibility_mask,
)


@dataclass
class DecoderBatch:
    """Batch of layout instances ready for the decoder stack.

    Example ``b`` holds the n_b template positions ``rows[b]`` of its
    instance, in order; keys are the same rows as queries. The decoder runs
    on the packed rows alone: example after example, n_b rows each.
    ``input_ids`` pads every example to ``length`` so they stack, and
    :attr:`real` marks the live prefix. The attention inputs are packed
    per-example blocks with no batch padding: example b owns the n_b * n_b
    entries after those of the examples before it, its [n_b, n_b] block in
    row-major order. ``allow`` holds the instance's visibility submatrix at
    those rows and ``bias_idx`` the template's row, column, local and bucket
    index maps there, stacked. The attention op takes no mask:
    :meth:`TextToTableModel.decoder_hidden` turns ``allow`` into -inf on the
    self-attention bias of every pair it hides.

    A query batch (``instances`` empty) serves a cached pass: it holds only
    the R query positions ``rows[0]`` of one layout, all of them live, so it
    carries no batch padding, no loss surface and no bias maps; its ``allow``
    is the [R, T] visibility rows of those positions over all the template's
    key positions, flattened.
    """

    input_ids: np.ndarray  # [B, L], PAD where batch padding; [1, R] for a query batch
    allow: np.ndarray  # [sum n_b^2] per-example blocks; [R*T] for a query batch
    rows: list[np.ndarray]  # per example: the template positions of its rows
    instances: list[LayoutInstance]
    bias_idx: np.ndarray | None = None  # [4, sum n_b^2] (row, col, loc, bucket) blocks

    @property
    def length(self) -> int:
        return self.input_ids.shape[1]

    @property
    def real(self) -> np.ndarray:
        """[B, L] mask of the live rows: the first ``len(rows[b])`` positions
        of example b."""
        return np.arange(self.length) < np.array([len(r) for r in self.rows])[:, None]

    def query(self, rows: np.ndarray) -> "DecoderBatch":
        """The query batch of template positions ``rows``, sliced from a query
        batch over every position of its layout (nothing is rebuilt)."""
        allow = self.allow.reshape(self.length, -1)[rows].reshape(-1)
        return DecoderBatch(self.input_ids[:, rows], allow, [rows], [])

    def flat_loss_arrays(self):
        """Concatenate loss surfaces across the batch: (positions, targets,
        legal masks), whose positions index the packed decoder rows."""
        offsets = np.cumsum([0] + [len(r) for r in self.rows])
        pos = [np.searchsorted(r, inst.loss_pos) + o for r, inst, o in zip(self.rows, self.instances, offsets)]
        tgt = [inst.loss_targets for inst in self.instances]
        return np.concatenate(pos), np.concatenate(tgt), np.concatenate([inst.legal for inst in self.instances])


def collate_instances(instances: list[LayoutInstance], rows: np.ndarray | None = None) -> DecoderBatch:
    """Pack each instance to its live positions (slot padding dropped) and cut
    its visibility and bias-index blocks there; with ``rows``, the query batch
    of those positions of a single instance (see :class:`DecoderBatch`)."""
    if rows is not None:
        (inst,) = instances
        rows = np.asarray(rows, dtype=np.int64)
        return DecoderBatch(inst.input_ids[rows][None], inst.visibility(rows).reshape(-1), [rows], [])
    live = [np.flatnonzero(~inst.is_pad) for inst in instances]
    ids = np.full((len(instances), max(len(r) for r in live)), PAD, dtype=np.int64)
    allow, bias_idx = [], []
    for k, (inst, r) in enumerate(zip(instances, live)):
        tpl, n = inst.template, len(r)
        ids[k, :n] = inst.input_ids[r]
        allow.append(
            visibility_mask(inst.is_pad[r], inst.stage[r], tpl.cell_id[r], tpl.within[r], np.arange(n)).reshape(-1)
        )
        bias_idx.append(tpl.bias_idx[:, r[:, None], r].reshape(4, -1))
    return DecoderBatch(ids, np.concatenate(allow), live, list(instances), np.concatenate(bias_idx, axis=1))


@dataclass
class DecoderCache:
    """Self-attention state kept across the passes that decode one template
    (inference only; valid while the parameters stay unchanged).

    ``bias`` is fixed for the template; a cached pass reads the bias rows of
    its query positions, flattened into one example's packed block. ``keys``
    and ``values`` hold each layer's self-attention key and value rows at
    every template position; a cached pass writes its query rows there before
    it attends, and the visibility rows keep every query from seeing a
    position not written for its own context. A template with fewer rows is
    a prefix of this one (:meth:`prefix`). The cross-attention keys and
    values of the source text are not part of it: they come from
    :meth:`TextToTableModel.memory_kv`.
    """

    bias: np.ndarray  # [H, T, T] pair + bucket bias of the template
    keys: list[np.ndarray]  # per layer [T, d]
    values: list[np.ndarray]

    def store(self, layer: int, rows: np.ndarray, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        """Write the query rows' keys and values; return the whole layer's."""
        self.keys[layer][rows] = k.data
        self.values[layer][rows] = v.data
        return Tensor(self.keys[layer]), Tensor(self.values[layer])

    def prefix(self, length: int) -> "DecoderCache":
        """View of the first ``length`` template positions: the cache of a
        template with the same headers and fewer rows, whose positions, bias
        indices and bucket offsets are the leading ones of this template's."""
        if length > len(self.keys[0]):
            raise ValueError(f"template length {length} exceeds the cached {len(self.keys[0])}")
        return DecoderCache(
            self.bias[:, :length, :length],
            [k[:length] for k in self.keys],
            [v[:length] for v in self.values],
        )


class TextToTableModel:
    def __init__(self, cfg: ModelConfig, vocab: Vocabulary, seed: int = 0):
        if cfg.vocab_size != len(vocab):
            raise ValueError(f"config vocab_size {cfg.vocab_size} != vocabulary size {len(vocab)}")
        self.cfg = cfg
        self.vocab = vocab
        self.grammar = GrammarMasks(vocab, cfg.max_cell_len)
        self.params = ParameterStore()
        self._template_cache: dict = {}
        self._bucket_cache: dict[int, np.ndarray] = {}
        self._init_params(np.random.default_rng(np.random.SeedSequence([seed, 0x7ab])))

    # ------------------------------------------------------------------
    # parameters
    # ------------------------------------------------------------------

    def _init_params(self, rng: np.random.Generator) -> None:
        cfg = self.cfg
        dt = cfg.dtype
        add = self.params.add

        def linear(name, fan_in, fan_out):
            add(name, (rng.normal(size=(fan_in, fan_out)) / math.sqrt(fan_in)).astype(dt))

        def norm(name, d):
            add(f"{name}.g", np.ones(d, dtype=dt))
            add(f"{name}.b", np.zeros(d, dtype=dt))

        d, f, h = cfg.d_model, cfg.d_ff, cfg.n_heads
        add("embed", rng.normal(size=(cfg.vocab_size, d)).astype(dt))
        add("enc_beta", np.zeros((h, cfg.relative_buckets), dtype=dt))
        add("dec_beta", np.zeros((h, cfg.relative_buckets), dtype=dt))
        add("tab_row", np.zeros((h, 2 * cfg.max_rows + 1), dtype=dt))
        add("tab_r0", np.zeros(h, dtype=dt))
        add("tab_col", np.zeros((h, 2 * cfg.max_cols + 1), dtype=dt))
        add("tab_loc", np.zeros((h, 2 * cfg.max_cell_len + 1), dtype=dt))
        for i in range(cfg.n_enc_layers):
            norm(f"enc{i}.ln1", d)
            for w in ("wq", "wk", "wv", "wo"):
                linear(f"enc{i}.attn.{w}", d, d)
            norm(f"enc{i}.ln2", d)
            linear(f"enc{i}.ffn.w1", d, f)
            linear(f"enc{i}.ffn.w2", f, d)
        norm("enc.ln_f", d)
        for i in range(cfg.n_dec_layers):
            norm(f"dec{i}.ln1", d)
            for w in ("wq", "wk", "wv", "wo"):
                linear(f"dec{i}.self.{w}", d, d)
            norm(f"dec{i}.ln2", d)
            for w in ("wq", "wk", "wv", "wo"):
                linear(f"dec{i}.cross.{w}", d, d)
            norm(f"dec{i}.ln3", d)
            linear(f"dec{i}.ffn.w1", d, f)
            linear(f"dec{i}.ffn.w2", f, d)
        norm("dec.ln_f", d)
        linear("lm_head", d, cfg.vocab_size)
        add("count.w", np.zeros((d, 1), dtype=dt))
        add("count.b", np.zeros(1, dtype=dt))

    # ------------------------------------------------------------------
    # template/bucket caches
    # ------------------------------------------------------------------

    def template_for(self, header_ids: list[list[int]], n_rows: int) -> TableTemplate:
        key = (tuple(tuple(h) for h in header_ids), n_rows)
        tpl = self._template_cache.get(key)
        if tpl is None:
            tpl = make_template(self.vocab, self.cfg, header_ids, n_rows)
            self._template_cache[key] = tpl
        return tpl

    def _buckets(self, length: int) -> np.ndarray:
        idx = self._bucket_cache.get(length)
        if idx is None:
            idx = sequence_bucket_matrix(length, self.cfg)
            self._bucket_cache[length] = idx
        return idx

    # ------------------------------------------------------------------
    # forward pieces
    # ------------------------------------------------------------------

    def _attention(self, x_q, k, v, q_len, k_len, prefix, bias, train, rng):
        """Attention of query rows x_q [N, d] over projected key and value rows
        (see :func:`ops.attention` for the length arguments and the bias)."""
        cfg, p = self.cfg, self.params
        q = ops.matmul(x_q, p[f"{prefix}.wq"])
        ctx = ops.attention(q, k, v, q_len, k_len, cfg.n_heads, bias, 1.0 / math.sqrt(cfg.head_dim))
        out = ops.matmul(ctx, p[f"{prefix}.wo"])
        if train and cfg.dropout > 0:
            out = ops.dropout(out, cfg.dropout, rng)
        return out

    def _ffn(self, x, prefix, train, rng):
        p = self.params
        y = ops.relu(ops.matmul(x, p[f"{prefix}.w1"]))
        y = ops.matmul(y, p[f"{prefix}.w2"])
        if train and self.cfg.dropout > 0:
            y = ops.dropout(y, self.cfg.dropout, rng)
        return y

    def _ln(self, x, name):
        return ops.layer_norm(x, self.params[f"{name}.g"], self.params[f"{name}.b"])

    def encode(self, ids: np.ndarray, lens: np.ndarray, train: bool = False, rng=None) -> Tensor:
        """Packed source token ids [N] -> memory rows [N, d], in the same order.

        ``lens`` [B] lays the batch out: example ``b`` owns the ``lens[b]`` ids
        after those of the examples before it. Every example needs between 1
        and ``max_input_len`` tokens.
        """
        cfg, p = self.cfg, self.params
        ids = np.asarray(ids, dtype=np.int64)
        lens = np.asarray(lens, dtype=np.int64)
        if lens.ndim != 1 or ids.shape != (int(lens.sum()),):
            raise ValueError(f"encoder input shape {ids.shape} does not fit source lengths {lens.tolist()}")
        if not lens.all():
            raise ValueError("empty source text in encoder input")
        if lens.max(initial=0) > cfg.max_input_len:
            raise ValueError(f"source length {int(lens.max())} exceeds max_input_len {cfg.max_input_len}")
        if ids.min(initial=0) < 0 or ids.max(initial=0) >= cfg.vocab_size:
            raise ValueError("unknown token id in encoder input")
        x = ops.embedding(p["embed"], ids)
        if train and cfg.dropout > 0:
            x = ops.dropout(x, cfg.dropout, rng)
        # one [n, n] block of bucket indices per example, packed as the attention reads them
        buckets = np.concatenate([self._buckets(n).reshape(-1) for n in lens.tolist()])
        bias = ops.bucket_bias(p["enc_beta"], buckets)
        for i in range(cfg.n_enc_layers):
            xn = self._ln(x, f"enc{i}.ln1")
            k, v = ops.matmul(xn, p[f"enc{i}.attn.wk"]), ops.matmul(xn, p[f"enc{i}.attn.wv"])
            x = ops.add(x, self._attention(xn, k, v, lens, lens, f"enc{i}.attn", bias, train, rng))
            x = ops.add(x, self._ffn(self._ln(x, f"enc{i}.ln2"), f"enc{i}.ffn", train, rng))
        return self._ln(x, "enc.ln_f")

    def _decoder_bias(self, bias_idx: np.ndarray) -> Tensor:
        """Decoder self-attention bias [H, ...]: the pair (row, column, local)
        plus bucket bias gathered from stacked index maps [4, ...]."""
        p = self.params
        row, col, loc, bucket = bias_idx
        return ops.add(
            ops.pair_bias(p["tab_row"], p["tab_r0"], p["tab_col"], p["tab_loc"], row, col, loc),
            ops.bucket_bias(p["dec_beta"], bucket),
        )

    def memory_kv(self, memory: Tensor) -> list[tuple[Tensor, Tensor]]:
        """Every decoder layer's cross-attention key and value rows [N, d] of
        the packed memory rows [N, d]."""
        p = self.params
        return [
            (ops.matmul(memory, p[f"dec{i}.cross.wk"]), ops.matmul(memory, p[f"dec{i}.cross.wv"]))
            for i in range(self.cfg.n_dec_layers)
        ]

    def decoder_hidden(
        self,
        memory_kv: list[tuple[Tensor, Tensor]],
        mem_len: np.ndarray,
        batch: DecoderBatch,
        train: bool = False,
        rng=None,
        cache: DecoderCache | None = None,
    ) -> Tensor:
        """Decoder stack over a collated batch; returns the hidden states of
        its packed rows [N, d] (see :class:`DecoderBatch`).

        ``memory_kv`` holds each layer's cross-attention keys and values of
        the batch's examples (:meth:`memory_kv`), laid out by their source
        lengths ``mem_len`` [B] as the memory rows of :meth:`encode`. With a
        ``cache`` (from :meth:`decoder_cache`, inference only) ``batch`` is a
        query batch: the stack runs for its R query rows alone, each layer
        stores their self-attention keys and values in the cache and attends
        over the cached ones, and the result is [R, d].
        """
        cfg, p = self.cfg, self.params
        # Visibility joins the self-attention bias once, as -inf on every
        # hidden pair, and every layer reads that one bias.
        if cache is None:
            real = batch.real
            ids, q_len = batch.input_ids[real], real.sum(axis=1)
            hide = np.where(batch.allow, 0.0, -np.inf).astype(cfg.dtype)
            bias = ops.add(self._decoder_bias(batch.bias_idx), Tensor(hide))
            k_len = q_len
        else:
            # one query example over the cached keys of every template position
            rows, ids = batch.rows[0], batch.input_ids[0]
            q_len, k_len = [len(ids)], [len(cache.keys[0])]
            allow = batch.allow.reshape(len(rows), -1)
            bias = Tensor(np.where(allow, cache.bias[:, rows], -np.inf).reshape(cfg.n_heads, -1))
        x = ops.embedding(p["embed"], ids)
        if train and cfg.dropout > 0:
            x = ops.dropout(x, cfg.dropout, rng)
        for i in range(cfg.n_dec_layers):
            xs = self._ln(x, f"dec{i}.ln1")
            k, v = ops.matmul(xs, p[f"dec{i}.self.wk"]), ops.matmul(xs, p[f"dec{i}.self.wv"])
            if cache is not None:
                k, v = cache.store(i, rows, k, v)
            x = ops.add(x, self._attention(xs, k, v, q_len, k_len, f"dec{i}.self", bias, train, rng))
            xc, (k, v) = self._ln(x, f"dec{i}.ln2"), memory_kv[i]
            x = ops.add(x, self._attention(xc, k, v, q_len, mem_len, f"dec{i}.cross", None, train, rng))
            x = ops.add(x, self._ffn(self._ln(x, f"dec{i}.ln3"), f"dec{i}.ffn", train, rng))
        return self._ln(x, "dec.ln_f")

    def decoder_cache(self, template: TableTemplate) -> DecoderCache:
        """Cache for decoding ``template``: its attention bias, built once,
        and empty self-attention key/value stores."""
        cfg = self.cfg
        shape = (template.length, cfg.d_model)
        with no_grad():
            bias = self._decoder_bias(template.bias_idx)
        return DecoderCache(
            bias=bias.data,
            keys=[np.zeros(shape, dtype=cfg.dtype) for _ in range(cfg.n_dec_layers)],
            values=[np.zeros(shape, dtype=cfg.dtype) for _ in range(cfg.n_dec_layers)],
        )

    def logits_at(self, hidden: Tensor, positions: np.ndarray) -> Tensor:
        """Select packed decoder rows and project to vocabulary logits."""
        return ops.matmul(ops.take_rows(hidden, positions), self.params["lm_head"])

    def count_pred(self, memory: Tensor, lens: np.ndarray) -> Tensor:
        """Row-count regression from each example's first memory row [B]
        (``lens`` lays the memory out as in :meth:`encode`)."""
        lens = np.asarray(lens, dtype=np.int64)
        out = ops.matmul(ops.take_rows(memory, np.cumsum(lens) - lens), self.params["count.w"])
        return ops.add(ops.reshape(out, (len(lens),)), self.params["count.b"])
