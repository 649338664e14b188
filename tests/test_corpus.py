import json
import os
import stat

import numpy as np
import pytest

from corpus_oracle import oracle_extract
from text2table.corpus import (
    CorpusError,
    CorpusSpec,
    DataFormatError,
    DatasetRecord,
    build_vocab,
    generate,
    read_jsonl,
    write_jsonl,
)
from text2table.table import Table
from text2table.vocab import UNK, Vocabulary, tokenize


def test_generation_deterministic_for_seed():
    spec = CorpusSpec(task="keyvalue", n_examples=5, rows_min=1, rows_max=1, seed=7)
    a = [r.to_dict() for r in generate(spec)]
    b = [r.to_dict() for r in generate(spec)]
    assert a == b


def test_lineitems_row_count_sampling_mean():
    # uniform{1..5}: mean 3, sd sqrt(2); 10k samples -> |mean-3| < 0.05
    spec = CorpusSpec(task="lineitems", n_examples=10_000, rows_min=1, rows_max=5, seed=3)
    mean = np.mean([r.table.n_rows for r in generate(spec)])
    assert abs(mean - 3.0) < 0.05


def test_dependent_rule_holds_for_all_rows():
    spec = CorpusSpec(task="dependent", n_examples=30, rows_min=2, rows_max=4, seed=1)
    for rec in generate(spec):
        for row in rec.table.rows:
            cells = dict(zip(rec.table.headers, row))
            assert int(cells["total"]) == int(cells["qty"]) * int(cells["unit"])


def test_dependent_cue_position_is_non_row_major():
    spec = CorpusSpec(task="dependent", n_examples=20, rows_min=2, rows_max=4, seed=2)
    for rec in generate(spec):
        words = rec.text.split()
        items = [row[rec.table.headers.index("item")] for row in rec.table.rows]
        late = 0
        for i, item in enumerate(items):
            cue = words.index(item, words.index(item) + 1) if items else None
            base_after = [words.index(it) for it in items[i + 1 :]]
            if base_after and cue > max(base_after):
                late += 1
        assert late >= len(items) / 2


def test_every_generated_example_is_solvable_by_oracle():
    for task in ("keyvalue", "lineitems", "dependent"):
        spec = CorpusSpec(task=task, n_examples=40, rows_min=1, rows_max=4, seed=11)
        for rec in generate(spec):
            extracted = oracle_extract(spec, rec.text)
            assert extracted.to_dict() == rec.table.to_dict(), (task, rec.id)


def test_zero_row_records_have_text_and_stay_solvable():
    # without noise a table with no rows states no sentence of its own
    spec = CorpusSpec(task="lineitems", n_examples=20, rows_min=0, rows_max=0, noise_rate=0.0, seed=4)
    for rec in generate(spec):
        assert rec.text.strip() and rec.table.n_rows == 0, rec.id
        assert oracle_extract(spec, rec.text).to_dict() == rec.table.to_dict(), rec.id


def test_no_reserved_surface_in_cells():
    vocab = Vocabulary([], n_max_rows=6)
    reserved = {vocab.surface(i) for i in range(len(vocab))}
    for task in ("keyvalue", "lineitems", "dependent"):
        spec = CorpusSpec(task=task, n_examples=25, rows_min=1, rows_max=4, seed=5)
        for rec in generate(spec):
            for row in rec.table.rows:
                for cell in row:
                    if cell is not None:
                        assert not (set(tokenize(cell)) & reserved)


def test_overlong_cell_rejected_naming_column():
    spec = CorpusSpec(task="keyvalue", n_examples=1, rows_min=1, rows_max=1, seed=0,
                      max_cell_tokens=0)
    with pytest.raises(CorpusError) as ei:
        list(generate(spec))
    assert "'name'" in str(ei.value)  # names the offending column


def test_jsonl_roundtrip_100_records(tmp_path):
    spec = CorpusSpec(task="lineitems", n_examples=100, rows_min=1, rows_max=5, seed=9)
    records = list(generate(spec))
    path = tmp_path / "data.jsonl"
    assert write_jsonl(records, str(path)) == 100
    back = list(read_jsonl(str(path)))
    assert [r.to_dict() for r in back] == [r.to_dict() for r in records]


def test_null_cell_roundtrips_as_null_not_string(tmp_path):
    rec = DatasetRecord("x", "t", Table(["a", "b"], [["1", None]]))
    path = tmp_path / "one.jsonl"
    write_jsonl([rec], str(path))
    raw = path.read_text().strip()
    assert '"rows":[["1",null]]' in raw
    back = next(read_jsonl(str(path)))
    assert back.table.rows[0][1] is None


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id":"a","text":"t","table":{"headers":["h"],"rows":[["x"]]}}\nnot json\n')
    with pytest.raises(DataFormatError) as ei:
        list(read_jsonl(str(path)))
    assert ei.value.line == 2


@pytest.mark.parametrize(
    "table, message",
    [
        ({"headers": "ab", "rows": []}, "headers must be a list, got str"),
        ({"headers": ["a", "b"], "rows": "xy"}, "rows must be a list, got str"),
        ({"headers": ["a", "b"], "rows": [["1", "2"], "xy"]}, "row 1 must be a list, got str"),
    ],
    ids=["headers", "rows", "row"],
)
def test_string_where_a_list_belongs_reports_line(tmp_path, table, message):
    path = tmp_path / "bad.jsonl"
    good = {"id": "a", "text": "t", "table": {"headers": ["a", "b"], "rows": [["x", "y"]]}}
    path.write_text(json.dumps(good) + "\n" + json.dumps({"id": "b", "text": "t", "table": table}) + "\n")
    with pytest.raises(DataFormatError, match=message) as ei:
        list(read_jsonl(str(path)))
    assert ei.value.line == 2 and ei.value.record_id == "b"


def test_width_mismatch_reports_record_id(tmp_path):
    path = tmp_path / "bad.jsonl"
    obj = {"id": "r42", "text": "t", "table": {"headers": ["a", "b"], "rows": [["x"]]}}
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(DataFormatError) as ei:
        list(read_jsonl(str(path)))
    assert ei.value.record_id == "r42"


def test_write_failure_leaves_no_partial_file(tmp_path):
    bad = DatasetRecord("x", "t", Table(["a"], [["1", "2"]]))  # ragged row
    path = tmp_path / "out.jsonl"
    with pytest.raises(Exception):
        write_jsonl([bad], str(path))
    assert not path.exists()
    assert not list(tmp_path.glob(".tmp-*"))


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_written_dataset_takes_the_mode_of_a_new_file_under_the_umask(tmp_path, umask):
    old = os.umask(umask)
    try:
        write_jsonl(list(generate(CorpusSpec(task="lineitems", n_examples=2, seed=1))), str(tmp_path / "data.jsonl"))
        (tmp_path / "plain.txt").write_text("")
    finally:
        os.umask(old)
    mode = stat.S_IMODE(os.stat(tmp_path / "data.jsonl").st_mode)
    assert mode == 0o666 & ~umask == stat.S_IMODE(os.stat(tmp_path / "plain.txt").st_mode)


def test_vocab_reserved_ids_first_and_stable():
    spec = CorpusSpec(task="lineitems", n_examples=30, rows_min=1, rows_max=5, seed=4)
    records = list(generate(spec))
    v1 = build_vocab(records, n_max_rows=5)
    v2 = build_vocab(list(reversed(records)), n_max_rows=5)
    assert v1 == v2
    assert [v1.surface(i) for i in range(5)] == ["<pad>", "<bos>", "<null>", "<eoc>", "<unk>"]
    assert v1.surface(v1.row_marker_id(1)) == "<row_1>"
    assert v1.first_content_id == 5 + 5


def test_unseen_token_maps_to_unk():
    v = Vocabulary(["known"], n_max_rows=2)
    assert v.encode("known unknown") == [v.id_of("known"), UNK]
    assert v.id_of("unknown") == UNK
