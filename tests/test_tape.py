"""The tape keeps only what backward reads.

A recorded op result gets a node: its parents' nodes (a leaf Tensor for a
parameter, None for an operand that needs no gradient) and its vjp, which
closes over arrays and shapes, never a Tensor. So an intermediate Tensor,
and any array no vjp saved, is freed as soon as the forward drops it.
"""

import weakref

import numpy as np

from text2table.model import ModelConfig, TextToTableModel
from text2table.numerics import Tensor, backward, ops
from text2table.numerics.optim import Parameter
from text2table.numerics.tensor import Node
from text2table.training import Trainer, TrainingConfig, prepare_example
from util import closure_tensors


def _nodes(root: Tensor) -> list[Node]:
    """Every node on the tape of ``root``."""
    nodes, seen, todo = [], set(), [root.node]
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        todo.extend(p for p in node.parents if type(p) is Node)
    return nodes


def _trainer(tiny_vocab, records):
    cfg = ModelConfig(
        vocab_size=len(tiny_vocab), d_model=16, n_heads=2, n_enc_layers=1, n_dec_layers=2, d_ff=32,
        dropout=0.1, max_cell_len=4, max_rows=4, max_cols=4, max_input_len=128,
    )
    model = TextToTableModel(cfg, tiny_vocab, seed=1)
    examples = [prepare_example(r, tiny_vocab, cfg) for r in records]
    return Trainer(model, examples, TrainingConfig(seed=5, batch_size=4))


def test_a_training_tape_holds_no_intermediate_tensor(tiny_vocab, lineitems_records, monkeypatch):
    tr = _trainer(tiny_vocab, lineitems_records[:8])
    d_model = tr.model.cfg.d_model
    residual, dropped, pre_relu = [], [], []

    def watching(op, arrays, pick):
        """``op``, noting a weakref to the array ``pick(args, out)`` of each call (None: no array)."""

        def watched(*args, **kwargs):
            out = op(*args, **kwargs)
            arr = pick(args, out)
            if arr is not None:
                arrays.append(weakref.ref(arr))
            return out

        return watched

    in_stream = lambda args, out: out.data if out.shape[-1:] == (d_model,) else None  # noqa: E731
    monkeypatch.setattr(ops, "add", watching(ops.add, residual, in_stream))
    monkeypatch.setattr(ops, "dropout", watching(ops.dropout, dropped, lambda args, out: out.data))
    monkeypatch.setattr(ops, "relu", watching(ops.relu, pre_relu, lambda args, out: args[0].data))  # the FFN w1 output
    total, _, _ = tr._batch_loss(tr.examples[:4], 1, train=True)

    nodes = _nodes(total)
    assert len(nodes) > 50
    for node in nodes:
        assert all(p is None or type(p) is Node or type(p) is Parameter for p in node.parents)
        assert closure_tensors(node.vjp) == [], node.vjp.__qualname__
    assert len(residual) >= 6 and len(dropped) >= 6 and len(pre_relu) == 3
    assert [r for r in residual + dropped + pre_relu if r() is not None] == []

    tr.model.params.zero_grad()
    backward(total)
    grads = [t.grad for _, t in tr.model.params.items() if t.grad is not None]
    assert grads and all(np.isfinite(g).all() for g in grads)
    assert all(n.vjp is None and n.parents == () for n in nodes)  # each vjp freed once it ran


def test_a_leaf_root_takes_its_own_gradient():
    x = Tensor(np.array(2.0), requires_grad=True)
    backward(x)
    assert x.grad == 1.0 and x.node is None
