import copy
import math

import numpy as np
import pytest

import loop_kernels as ref
from text2table.numerics import AdamW, MissingGradError, ParameterStore


def _store_with(name, value):
    store = ParameterStore([(name, np.array([value]))])
    return store, store[name]


def test_single_step_reference_value():
    # independent high-precision reference (mpmath, 60 dps):
    # m=0.1, v=0.001, step = 0.1*sqrt(1-0.999)/(1-0.9) * m/(sqrt(v)+1e-8)
    # -> p = 0.90000003162276660169
    store, p = _store_with("p", 1.0)
    opt = AdamW(store, lr=0.1, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0)
    p.accumulate_grad(np.array([1.0]))
    opt.step()
    assert abs(p.data[0] - 0.9000000316227666) < 1e-15


def test_decay_only_shrinks_by_lr_wd_p():
    store, p = _store_with("p", 2.0)
    opt = AdamW(store, lr=0.1, weight_decay=0.1)
    p.accumulate_grad(np.array([0.0]))
    before = p.data.copy()
    opt.step()
    assert p.data[0] == before[0] - 0.1 * 0.1 * before[0]
    assert opt.m["p"][0] == 0.0 and opt.v["p"][0] == 0.0


def test_step_replay_is_bitwise_identical():
    rng = np.random.default_rng(3)
    stores = []
    for _ in range(2):
        stores.append(ParameterStore([("w", rng.normal(size=(4, 3)))]))
    stores[1]["w"].data[...] = stores[0]["w"].data
    grad = rng.normal(size=(4, 3))
    opts = [AdamW(s, lr=1e-3, weight_decay=1e-5) for s in stores]
    for s, o in zip(stores, opts):
        for _ in range(2):
            s.zero_grad()
            s["w"].accumulate_grad(grad)
            o.step()
    assert np.array_equal(stores[0]["w"].data, stores[1]["w"].data)
    assert np.array_equal(opts[0].m["w"], opts[1].m["w"])
    assert np.array_equal(opts[0].v["w"], opts[1].v["w"])


def test_missing_grad_names_parameter():
    store = ParameterStore([("a", np.zeros(2)), ("b", np.zeros(2))])
    store["a"].accumulate_grad(np.zeros(2))
    opt = AdamW(store)
    with pytest.raises(MissingGradError) as ei:
        opt.step()
    assert "b" in ei.value.names and "a" not in ei.value.names


def test_grads_untouched_by_step():
    store, p = _store_with("p", 1.0)
    opt = AdamW(store, lr=0.1)
    p.accumulate_grad(np.array([0.5]))
    opt.step()
    assert p.grad[0] == 0.5


def test_step_counter_increments():
    store, p = _store_with("p", 1.0)
    opt = AdamW(store)
    for i in range(3):
        store.zero_grad()
        p.accumulate_grad(np.array([1.0]))
        opt.step()
        assert opt.step_count == i + 1


def test_state_roundtrip_via_arrays():
    store, p = _store_with("p", 1.0)
    opt = AdamW(store, lr=0.01)
    p.accumulate_grad(np.array([0.3]))
    opt.step()
    saved = {k: v.copy() for k, v in opt.state_arrays().items()}
    step_count = opt.step_count
    state_after_one = copy.deepcopy(p.data)

    store2, p2 = _store_with("p", 1.0)
    p2.data[...] = state_after_one
    opt2 = AdamW(store2, lr=0.01)
    opt2.load_state_arrays(saved, step_count)

    for o, q in ((opt, p), (opt2, p2)):
        o.store.zero_grad()
        q.accumulate_grad(np.array([0.3]))
        o.step()
    assert np.array_equal(p.data, p2.data)


def _oracle_clip(grads: dict, max_norm: float) -> float:
    """Global-norm clipping as a loop over the parameters, in store order."""
    norm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if max_norm > 0 and norm > max_norm:
        for g in grads.values():
            g *= max_norm / norm
    return norm


@pytest.mark.parametrize("float_width", [32, 64])
@pytest.mark.parametrize("clip_norm", [1e-3, 1e6], ids=["clipped", "unclipped"])
def test_flat_steps_equal_the_per_parameter_oracle_on_model_gradients(
    tiny_vocab, lineitems_records, float_width, clip_norm
):
    from conftest import _tiny_model
    from text2table.numerics import backward, clip_grad_norm
    from text2table.training import Trainer, TrainingConfig, prepare_example

    model = _tiny_model(tiny_vocab, float_width=float_width)
    examples = [prepare_example(r, tiny_vocab, model.cfg) for r in lineitems_records[:6]]
    tr = Trainer(model, examples, TrainingConfig(seed=2, batch_size=4, lr=3e-3, weight_decay=1e-2))
    opt, store = tr.opt, model.params
    want = {name: (t.data.copy(), np.zeros_like(t.data), np.zeros_like(t.data)) for name, t in store.items()}
    for step in range(1, 4):
        store.zero_grad()
        total, _, _ = tr._batch_loss(examples[step : step + 4], step, train=True)
        backward(total)
        grads = {name: t.grad.copy() for name, t in store.items()}
        norm = _oracle_clip(grads, clip_norm)
        assert clip_grad_norm(store, clip_norm) == norm
        assert (norm > clip_norm) == (clip_norm == 1e-3)
        opt.step()
        step_size = opt.lr * math.sqrt(1.0 - opt.beta2**step) / (1.0 - opt.beta1**step)
        for name, t in store.items():
            assert np.array_equal(t.grad, grads[name]), name  # clipped as the oracle clips, then left alone
            p, m, v = (a.reshape(-1) for a in want[name])
            ref.adamw_update(
                p, grads[name].reshape(-1), m, v, step_size, opt.lr * opt.weight_decay, opt.beta1, opt.beta2, opt.eps
            )
    for name, t in store.items():
        p, m, v = want[name]
        assert t.data.dtype == model.cfg.dtype
        assert np.array_equal(t.data, p) and np.array_equal(opt.m[name], m) and np.array_equal(opt.v[name], v), name


def test_gradients_accumulate_in_the_flat_buffer_with_the_bits_of_a_fresh_array():
    # a packed parameter's first gradient is written into its slot: the bits
    # of zeros + g, so -0.0 becomes 0.0 as it did in a fresh zeroed array
    store = ParameterStore([("a", np.ones(3)), ("b", np.ones((2, 2)))])
    t = store["b"]
    g = np.array([[-0.0, 1.5], [-2.0, 0.0]])
    t.accumulate_grad(g)
    want = np.zeros_like(t.data) + g
    assert t.grad.tobytes() == want.tobytes() and np.shares_memory(t.grad, store.grad)
    t.accumulate_grad(g)
    assert t.grad.tobytes() == (want + g).tobytes()
    assert store["a"].grad is None and store.grad[3:].tobytes() == t.grad.tobytes()


def test_store_refuses_a_repeated_name_and_mixed_dtypes():
    with pytest.raises(ValueError, match="^duplicate parameter a$"):
        ParameterStore([("a", np.zeros(2)), ("b", np.zeros(1)), ("a", np.zeros(3))])
    with pytest.raises(ValueError, match="share a dtype"):
        ParameterStore([("a", np.zeros(2)), ("b", np.zeros(1, dtype=np.float32))])


def _assert_packed_in_name_order(store):
    """Every parameter's data and grad slot are views of the store's flat
    buffers, laid end to end in name order."""
    o = 0
    for _, t in store.items():
        for view, flat in ((t.data, store.data), (t.grad_slot, store.grad)):
            assert view.base is flat and view.shape == t.shape
            assert view.__array_interface__["data"][0] == flat.__array_interface__["data"][0] + o * flat.itemsize
        o += t.data.size
    assert o == store.data.size == store.grad.size


def test_model_parameters_are_packed_when_the_model_is_made_and_when_it_is_loaded(tiny_model, tmp_path):
    from text2table.model import load_checkpoint, save_checkpoint

    _assert_packed_in_name_order(tiny_model.params)
    path = str(tmp_path / "model.npz")
    save_checkpoint(path, tiny_model)
    loaded = load_checkpoint(path)[0].params
    _assert_packed_in_name_order(loaded)
    assert loaded.names() == tiny_model.params.names()
    assert loaded.names()[0] == "embed" and loaded.names()[-1] == "count.b"  # the order the model makes them in
    assert loaded.data.tobytes() == tiny_model.params.data.tobytes()
