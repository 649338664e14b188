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
and a training batch's visibility mask, are packed the same way, one [n, n]
block per example back to back. The decoder gathers its bias with one method
for a training batch, once per call, and for a decode cache, once per
template (:meth:`TextToTableModel.decoder_cache`). Visibility (lower stage
or own prefix, over live positions) joins it as -inf on every hidden pair,
for every layer to share: once per call in training, and in decoding once
per inner loop from the context (:meth:`DecoderCache.visible`).

Only some decoder rows are read: a training batch's loss positions and a
decode pass's open-cell rows. Every other row (headers, row markers, context
cells) serves only as a key and value. So the last decoder layer computes its
norm and key and value projections for every row, then runs its queries,
attention, cross-attention and feed-forward on the read rows alone (the
``read`` argument of :meth:`TextToTableModel.decoder_hidden`), as XLNet's
query stream runs only where it predicts.
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
    live_blocks,
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
    index maps there, stacked, in the narrow integer type the template keeps them in.
    Only ``allow`` depends on the stages: the rows, their input ids and the
    bias-index and own-prefix blocks are an instance's
    :class:`~text2table.model.layout.LiveBlocks`, which a training example
    builds once (:class:`~text2table.model.layout.PassLayout`) and every one
    of its passes reuses. The attention op takes no mask:
    :meth:`TextToTableModel.decoder_hidden` turns ``allow`` into -inf on the
    self-attention bias of every pair it hides.

    A query batch (``instances`` empty) serves a cached pass: it holds only
    the input ids of the R query positions ``rows[0]`` of one layout, all of
    them live, and no padding, loss surface, bias maps or mask.

    The loss positions of :meth:`flat_loss_arrays` ascend, so they are the
    ``read`` rows that :meth:`TextToTableModel.decoder_hidden` takes: the
    hidden state it returns holds those rows alone, in that order.
    """

    input_ids: np.ndarray  # [B, L], PAD where batch padding; [1, R] for a query batch
    rows: list[np.ndarray]  # per example: the template positions of its rows
    instances: list[LayoutInstance]
    allow: np.ndarray | None = None  # [sum n_b^2] per-example blocks
    bias_idx: np.ndarray | None = None  # [4, sum n_b^2] (row, col, loc, bucket) blocks, narrow integers

    @property
    def length(self) -> int:
        return self.input_ids.shape[1]

    @property
    def real(self) -> np.ndarray:
        """[B, L] mask of the live rows: the first ``len(rows[b])`` positions
        of example b."""
        return np.arange(self.length) < np.array([len(r) for r in self.rows])[:, None]

    def flat_loss_arrays(self):
        """Concatenate loss surfaces across the batch: (positions, targets,
        legal masks), whose positions index the packed decoder rows."""
        offsets = np.cumsum([0] + [len(r) for r in self.rows])
        pos = [np.searchsorted(r, inst.loss_pos) + o for r, inst, o in zip(self.rows, self.instances, offsets)]
        tgt = [inst.loss_targets for inst in self.instances]
        return np.concatenate(pos), np.concatenate(tgt), np.concatenate([inst.legal for inst in self.instances])


def collate_instances(instances: list[LayoutInstance], rows: np.ndarray | None = None) -> DecoderBatch:
    """Pack each instance to its live positions (slot padding dropped) with
    its bias-index block, and its visibility block from its stages there; with
    ``rows``, the query batch of those positions of a single instance (see
    :class:`DecoderBatch`). The live rows and blocks are the instance's
    ``live`` when it has them (a training pass carries its example's, built
    once) and :func:`~text2table.model.layout.live_blocks` otherwise."""
    if rows is not None:
        (inst,) = instances
        rows = np.asarray(rows, dtype=np.int64)
        return DecoderBatch(inst.input_ids[rows][None], [rows], [])
    live = [
        inst.live if inst.live is not None else live_blocks(inst.template, inst.input_ids, inst.is_pad)
        for inst in instances
    ]
    ids = np.full((len(instances), max(len(b.rows) for b in live)), PAD, dtype=np.int64)
    allow = []
    for k, (inst, b) in enumerate(zip(instances, live)):
        ids[k, : len(b.rows)] = b.input_ids
        allow.append(visibility_mask(inst.stage[b.rows], b.own).reshape(-1))
    bias_idx = np.concatenate([b.bias_idx for b in live], axis=1)
    return DecoderBatch(ids, [b.rows for b in live], list(instances), np.concatenate(allow), bias_idx)


@dataclass
class DecoderCache:
    """Self-attention state kept across the passes that decode one template
    (inference only; valid while the parameters stay unchanged).

    ``bias`` is the template's pair and bucket bias, read-only, and ``own``
    its own-prefix pairs (:attr:`~text2table.model.layout.TableTemplate.own`).
    Both are shared by every cache of the template: the model gathers
    ``bias`` once per template and keeps it across tables
    (:meth:`TextToTableModel.decoder_cache`), while the key and value stores
    belong to one cache. :meth:`visible` folds a decode layout's visibility
    in once per inner loop from its context (live stage-0 positions); a
    cached pass reads the bias rows of its query positions, flattened into
    one example's packed block. ``keys`` and ``values`` hold each layer's
    self-attention key and value rows at every template position; a cached
    pass writes its query rows there before it attends, and the folded -inf
    keeps every query from seeing a position not written for its own
    context. The cross-attention keys and values of the source text come
    from :meth:`TextToTableModel.memory_kv`.
    """

    bias: np.ndarray  # [H, T, T] pair + bucket bias of the template, -inf where hidden
    own: np.ndarray  # [T, T] bool, each position's own-cell prefix
    keys: list[np.ndarray]  # per layer [T, d]
    values: list[np.ndarray]

    def __post_init__(self):
        # per layer, the key and value Tensors that every pass attends over: they wrap the stores themselves
        self._kv = [(Tensor(k), Tensor(v)) for k, v in zip(self.keys, self.values)]

    def store(self, layer: int, rows: np.ndarray, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        """Write the query rows' keys and values; return the whole layer's.

        A pass writes its rows into the layer's stores in place and gets back
        the same two Tensors on every pass: they are made once per cache
        (each :meth:`visible` cache makes its own) and wrap the stores, so
        they hold every row written so far. Inference only: no gradient flows
        into them.
        """
        self.keys[layer][rows] = k.data
        self.values[layer][rows] = v.data
        return self._kv[layer]

    def visible(self, context: np.ndarray) -> "DecoderCache":
        """The cache, same key and value stores, whose bias hides every key
        outside the ``context`` [T] positions and the query's own prefix."""
        return DecoderCache(np.where(context | self.own, self.bias, -np.inf), self.own, self.keys, self.values)


# the parameters the decoder self-attention bias is gathered from
_BIAS_TABLES = ("tab_row", "tab_r0", "tab_col", "tab_loc", "dec_beta")


def _read_blocks(lens: np.ndarray, read: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-example counts of the ascending ``read`` rows of a training batch
    whose examples hold ``lens`` [B] rows, and the columns of the packed
    [H, sum n_b^2] bias that their queries keep: example b's [r_b, n_b]
    block of its [n_b, n_b] one."""
    starts = np.cumsum(lens) - lens
    ex = np.searchsorted(starts, read, side="right") - 1  # each read row's example
    n = lens[ex]
    first = np.cumsum(lens * lens)[ex] - n * n + (read - starts[ex]) * n  # each read row's first column
    cols = np.repeat(first - (np.cumsum(n) - n), n) + np.arange(n.sum())
    return np.bincount(ex, minlength=len(lens)), cols


class TextToTableModel:
    def __init__(self, cfg: ModelConfig, vocab: Vocabulary, seed: int = 0):
        if cfg.vocab_size != len(vocab):
            raise ValueError(f"config vocab_size {cfg.vocab_size} != vocabulary size {len(vocab)}")
        self.cfg = cfg
        self.vocab = vocab
        self.grammar = GrammarMasks(vocab, cfg.max_cell_len)
        self.params = ParameterStore(self._init_params(np.random.default_rng(np.random.SeedSequence([seed, 0x7ab]))))
        self._template_cache: dict = {}
        self._bucket_cache: dict[int, np.ndarray] = {}
        # the bytes of the bias tables, and each template's decoder bias gathered from them: see decoder_cache
        self._bias_stamp = b""
        self._decoder_biases: dict[TableTemplate, np.ndarray] = {}

    # ------------------------------------------------------------------
    # parameters
    # ------------------------------------------------------------------

    def _init_params(self, rng: np.random.Generator) -> list[tuple[str, np.ndarray]]:
        """Every parameter's name and initial array, in store order."""
        cfg = self.cfg
        dt = cfg.dtype
        arrays: list[tuple[str, np.ndarray]] = []

        def add(name, data):
            arrays.append((name, data))

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
        return arrays

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
        read: np.ndarray | None = None,
    ) -> Tensor:
        """Decoder stack over a collated batch; returns the hidden states of
        its packed rows [N, d] (see :class:`DecoderBatch`), or with ``read``
        of those rows alone [len(read), d], in the order of ``read``.

        ``memory_kv`` holds each layer's cross-attention keys and values of
        the batch's examples (:meth:`memory_kv`), laid out by their source
        lengths ``mem_len`` [B] as the memory rows of :meth:`encode`. With a
        ``cache`` (:meth:`DecoderCache.visible`, inference only) ``batch`` is a
        query batch: the stack runs for its R query rows alone, each layer
        stores their self-attention keys and values in the cache and attends
        over the cached ones, and the result is [R, d].

        ``read`` (ascending indices of the N packed rows, or of the R query
        rows) names the rows whose hidden states the caller reads: a training
        batch's loss positions (:meth:`DecoderBatch.flat_loss_arrays`), a
        cached pass's open-cell rows. Every other row matters only as a key
        and value. So every layer below the last runs every row, and the last
        runs ``ln1`` and its key and value projections on every row (and
        stores them in the cache), then its queries, attention, ``wo``,
        cross-attention, feed-forward, dropout and the final norm on the read
        rows alone. An example with no read row gives no output row.
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
            # one query example over every cached position, visibility folded into cache.bias
            rows, ids = batch.rows[0], batch.input_ids[0]
            q_len, k_len = [len(ids)], [len(cache.keys[0])]
            bias = Tensor(cache.bias[:, rows].reshape(cfg.n_heads, -1))
        if read is not None:
            read = np.asarray(read, dtype=np.int64)
            if read.ndim != 1 or read.size and (read[0] < 0 or read[-1] >= len(ids) or (read[1:] <= read[:-1]).any()):
                raise ValueError(f"read rows must ascend within the {len(ids)} decoder rows")
        x = ops.embedding(p["embed"], ids)
        if train and cfg.dropout > 0:
            x = ops.dropout(x, cfg.dropout, rng)
        for i in range(cfg.n_dec_layers):
            xs = self._ln(x, f"dec{i}.ln1")
            k, v = ops.matmul(xs, p[f"dec{i}.self.wk"]), ops.matmul(xs, p[f"dec{i}.self.wv"])
            if cache is not None:
                k, v = cache.store(i, rows, k, v)
            if i == cfg.n_dec_layers - 1 and read is not None:
                # every row is a key; from here on only the read rows are queries
                x, xs = ops.take_rows(x, read), ops.take_rows(xs, read)
                if cache is None:
                    q_len, cols = _read_blocks(q_len, read)
                    bias = ops.take_cols(bias, cols)
                else:
                    q_len, bias = [len(read)], Tensor(cache.bias[:, rows[read]].reshape(cfg.n_heads, -1))
            x = ops.add(x, self._attention(xs, k, v, q_len, k_len, f"dec{i}.self", bias, train, rng))
            xc, (k, v) = self._ln(x, f"dec{i}.ln2"), memory_kv[i]
            x = ops.add(x, self._attention(xc, k, v, q_len, mem_len, f"dec{i}.cross", None, train, rng))
            x = ops.add(x, self._ffn(self._ln(x, f"dec{i}.ln3"), f"dec{i}.ffn", train, rng))
        return self._ln(x, "dec.ln_f")

    def decoder_cache(self, template: TableTemplate) -> DecoderCache:
        """Cache for decoding ``template``: its attention bias and own-prefix
        pairs, and empty self-attention key/value stores.

        The bias is gathered once per template and shared, read-only, by
        every cache of that template, across tables. The model keeps one per
        template it decoded, keyed by the template object (:meth:`template_for`
        makes one per shape), with the bytes of the five tables they were
        gathered from (``tab_row``, ``tab_r0``, ``tab_col``, ``tab_loc``,
        ``dec_beta``). Any change to those bytes (a training step, an
        in-place write) drops every kept bias. The key and value stores are
        new on every call.
        """
        cfg, n = self.cfg, template.length
        stamp = b"".join(self.params[name].data.tobytes() for name in _BIAS_TABLES)
        if stamp != self._bias_stamp:
            self._bias_stamp, self._decoder_biases = stamp, {}
        bias = self._decoder_biases.get(template)
        if bias is None:
            with no_grad():
                bias = self._decoder_bias(template.bias_idx).data
            bias.flags.writeable = False
            self._decoder_biases[template] = bias
        keys, values = ([np.zeros((n, cfg.d_model), dtype=cfg.dtype) for _ in range(cfg.n_dec_layers)] for _ in "kv")
        return DecoderCache(bias, template.own, keys, values)

    def logits_at(self, hidden: Tensor, positions: np.ndarray) -> Tensor:
        """Select packed decoder rows and project to vocabulary logits; rows
        0..n-1 in order, every row of an [n, d] ``hidden``, are taken as they
        are, with no copy."""
        positions = np.asarray(positions, dtype=np.int64)
        n = len(hidden.data)
        if not (len(positions) == n and (positions == np.arange(n)).all()):
            hidden = ops.take_rows(hidden, positions)
        return ops.matmul(hidden, self.params["lm_head"])

    def count_pred(self, memory: Tensor, lens: np.ndarray) -> Tensor:
        """Row-count regression from each example's first memory row [B]
        (``lens`` lays the memory out as in :meth:`encode`)."""
        lens = np.asarray(lens, dtype=np.int64)
        out = ops.matmul(ops.take_rows(memory, np.cumsum(lens) - lens), self.params["count.w"])
        return ops.add(ops.reshape(out, (len(lens),)), self.params["count.b"])
