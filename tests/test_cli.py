"""Exit codes of the ``text2table`` command line."""

import json

import numpy as np
import pytest

from text2table.cli.main import main
from text2table.corpus import write_jsonl
from text2table.model import save_checkpoint


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["--help"])
    assert ei.value.code == 0
    assert "decode" in capsys.readouterr().out


def test_decode_missing_dataset_exits_2(tiny_model, tmp_path, capsys):
    ckpt = str(tmp_path / "model.npz")
    save_checkpoint(ckpt, tiny_model)
    code = main(["decode", ckpt, str(tmp_path / "missing.jsonl"), str(tmp_path / "out.jsonl")])
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "dataset not found" in err


def test_decode_non_finite_row_count_exits_3(tiny_model, lineitems_records, tmp_path, capsys):
    tiny_model.params["count.b"].data[...] = np.nan
    ckpt = str(tmp_path / "model.npz")
    save_checkpoint(ckpt, tiny_model)
    data = str(tmp_path / "data.jsonl")
    write_jsonl(lineitems_records[:2], data)
    assert main(["decode", ckpt, data, str(tmp_path / "out.jsonl")]) == 3
    assert "non-finite" in capsys.readouterr().err


def test_decode_trace_records_per_table_counters(tiny_model, lineitems_records, tmp_path):
    tiny_model.params["count.b"].data[...] = [1.0]
    ckpt = str(tmp_path / "model.npz")
    save_checkpoint(ckpt, tiny_model)
    data = str(tmp_path / "data.jsonl")
    write_jsonl(lineitems_records[:2], data)
    trace = tmp_path / "trace.jsonl"
    assert main(["decode", ckpt, data, str(tmp_path / "out.jsonl"), "--trace", str(trace)]) == 0
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert len(records) == 2
    for rec in records:
        assert rec["decoder_passes"] > rec["outer_iterations"] > 0
        assert rec["input_tokens_dropped"] == 0
