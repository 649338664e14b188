"""One input path: a record reaches the decoder through one encoder and one
layout body, in training and decoding alike."""

import numpy as np
import pytest

import layout_oracle
from text2table.corpus import DatasetRecord
from text2table.decoding import DecodingConfig, EmptySourceTextError, decode_table
from text2table.model import LayoutError, instance_for_decoding, instance_for_pass, make_template
from text2table.model.layout import encode_record
from text2table.table import Table
from text2table.training import prepare_example
from text2table.vocab import NULL

FIELDS = ("input_ids", "is_pad", "stage", "loss_pos", "loss_targets", "legal")


def _assert_same(got, want):
    for name in FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        if b is None:
            assert a is None, name
        else:
            assert a.dtype == b.dtype and np.array_equal(a, b), name


def _random_content(rng, content_ids, l):
    if rng.random() < 0.2:
        return [NULL]
    return rng.choice(content_ids, size=int(rng.integers(1, l))).tolist()  # 1..l-1 tokens: padding after most


def test_shared_layout_body_equals_the_token_by_token_builders_bitwise(tiny_model):
    rng = np.random.default_rng(20)
    cfg, vocab = tiny_model.cfg, tiny_model.vocab
    content_ids = np.array(vocab.content_ids())
    l = cfg.max_cell_len
    seen_zero_rows = False
    for _ in range(200):
        n_rows = int(rng.integers(0, cfg.max_rows + 1))
        n_cols = int(rng.integers(1, cfg.max_cols + 1))
        seen_zero_rows |= n_rows == 0
        headers = [rng.choice(content_ids, size=int(rng.integers(1, l + 3))).tolist() for _ in range(n_cols)]
        tpl = make_template(vocab, cfg, headers, n_rows)
        contents = {c: _random_content(rng, content_ids, l) for c in tpl.cells()}
        stage = {c: int(rng.integers(0, 4)) for c in tpl.cells()}
        _assert_same(
            instance_for_pass(tpl, tiny_model.grammar, contents, stage),
            layout_oracle.instance_for_pass(tpl, tiny_model.grammar, contents, stage),
        )
        committed = {c: v for c, v in contents.items() if rng.random() < 0.5}
        _assert_same(instance_for_decoding(tpl, committed), layout_oracle.instance_for_decoding(tpl, committed))
    assert seen_zero_rows


def test_shared_layout_body_refuses_content_past_the_slot_as_the_oracle_does(tiny_model):
    tpl = tiny_model.template_for([[NULL]], 1)
    long = {(1, 1): [NULL] * tpl.slot_len}
    for build in (instance_for_decoding, layout_oracle.instance_for_decoding):
        with pytest.raises(LayoutError, match=r"^cell \(1, 1\) content length 4 exceeds 3$"):
            build(tpl, long)


def test_one_record_reads_the_same_through_training_and_decoding(tiny_model, monkeypatch):
    cfg = tiny_model.cfg
    text = " ".join(["pens"] * (cfg.max_input_len + 7))
    headers = ["item", " ".join(["price"] * (cfg.max_cell_len + 2)), "qty " * (cfg.max_cell_len + 1)]
    rec = DatasetRecord("long", text, Table(headers, [["pens", "2", "3"]]))
    ex = prepare_example(rec, tiny_model.vocab, cfg)
    assert (ex.input_tokens_dropped, ex.header_tokens_dropped) == (7, 2 + 1)

    read = {"ids": [], "headers": []}
    encode, template_for = tiny_model.encode, tiny_model.template_for

    def spy_encode(ids, lens, **kwargs):
        read["ids"].append(list(ids))
        return encode(ids, lens, **kwargs)

    def spy_template_for(header_ids, n_rows):
        read["headers"].append([list(h) for h in header_ids])
        return template_for(header_ids, n_rows)

    monkeypatch.setattr(tiny_model, "encode", spy_encode)
    monkeypatch.setattr(tiny_model, "template_for", spy_template_for)
    res = decode_table(text, tiny_model, DecodingConfig(), headers)
    assert read["ids"] == [ex.source_ids]
    assert read["headers"] and all(h == ex.header_ids for h in read["headers"])
    assert (res.input_tokens_dropped, res.header_tokens_dropped) == (ex.input_tokens_dropped, ex.header_tokens_dropped)


def test_shape_limits_give_one_message_in_training_decoding_and_the_template(tiny_model, monkeypatch):
    cfg, vocab = tiny_model.cfg, tiny_model.vocab
    m = cfg.max_cols + 1
    headers = [f"h{j}" for j in range(m)]
    want = f"{m} columns exceed max_cols {cfg.max_cols}"
    with pytest.raises(LayoutError, match=f"^wide: {want}$"):
        prepare_example(DatasetRecord("wide", "pens .", Table(headers, [["x"] * m])), vocab, cfg)
    monkeypatch.setattr(tiny_model, "encode", lambda *a, **k: pytest.fail("encode reached"))
    with pytest.raises(LayoutError, match=f"^{want}$"):
        decode_table("pens .", tiny_model, DecodingConfig(), headers)
    with pytest.raises(LayoutError, match=f"^{want}$"):
        make_template(vocab, cfg, [[NULL]] * m, 1)
    with pytest.raises(LayoutError, match=f"^{cfg.max_rows + 1} rows exceed max_rows {cfg.max_rows}$"):
        make_template(vocab, cfg, [[NULL]], cfg.max_rows + 1)
    with pytest.raises(LayoutError, match="^no columns$"):
        encode_record(vocab, cfg, "pens .", [])


def test_empty_text_is_refused_alike_in_training_and_decoding(tiny_model):
    with pytest.raises(LayoutError, match="^blank: empty source text$"):
        prepare_example(DatasetRecord("blank", " ", Table(["item"], [])), tiny_model.vocab, tiny_model.cfg)
    with pytest.raises(EmptySourceTextError, match="^empty source text$"):
        decode_table(" ", tiny_model, DecodingConfig(), ["item"])
