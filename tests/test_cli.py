"""Exit codes of the ``text2table`` command line."""

import hashlib
import importlib
import itertools
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import text2table
from text2table.cli import commands
from text2table.cli.commands import DataError, ModelError, prepare_run
from text2table.cli.main import main
from text2table.cli.runconfig import ConfigError, merged_run_config
from text2table.corpus import DataFormatError, DatasetRecord, build_vocab, read_jsonl, write_jsonl
from text2table.decoding import NonFiniteCountError, NonFiniteLogitsError
from text2table.metrics import AlignmentError, HeaderMismatchError
from text2table.model import CheckpointError, LayoutError, load_checkpoint, save_checkpoint
from text2table.table import Table
from text2table.training import Trainer, TrainingDiverged
from text2table.vocab import NULL
from util import record_op_dtypes


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


def test_decode_empty_checkpoint_file_exits_3(lineitems_records, tmp_path, capsys):
    ckpt = tmp_path / "model.npz"
    ckpt.write_bytes(b"")
    data = str(tmp_path / "data.jsonl")
    write_jsonl(lineitems_records[:1], data)
    assert main(["decode", str(ckpt), data, str(tmp_path / "out.jsonl")]) == 3
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "unreadable checkpoint" in err


EMBED = np.zeros(2)  # the one array of the files below, which names it in its manifest
CHECKPOINT_META = {
    "format_version": 1,
    "manifest": {"param::embed": hashlib.sha256(EMBED.tobytes()).hexdigest()},
    "model_config": {},
    "vocab": {},
}


@pytest.mark.parametrize(
    "meta, message",
    [
        (None, "not a checkpoint (a single array, not an npz archive)"),
        ([1, 2], "not a checkpoint (metadata is not a JSON object)"),
        ({**CHECKPOINT_META, "manifest": ["param::embed"]}, "not a checkpoint (manifest is not a JSON object)"),
        (
            {**CHECKPOINT_META, "model_config": []},
            "invalid model config or vocabulary ('list' object has no attribute 'items')",
        ),
    ],
    ids=["npy", "meta-list", "manifest-list", "model-config-list"],
)
def test_decode_a_file_that_is_no_checkpoint_exits_3_with_one_line(lineitems_records, tmp_path, capsys, meta, message):
    ckpt = tmp_path / "model.npy"
    with open(ckpt, "wb") as fh:
        if meta is None:
            np.save(fh, np.zeros(3))
        else:
            np.savez(fh, __meta__=np.frombuffer(json.dumps(meta).encode(), np.uint8), **{"param::embed": EMBED})
    data = str(tmp_path / "data.jsonl")
    write_jsonl(lineitems_records[:1], data)
    assert main(["decode", str(ckpt), data, str(tmp_path / "out.jsonl")]) == 3
    err = capsys.readouterr().err.strip()
    assert err == f"text2table decode: {ckpt}: {message}"


def test_decode_empty_source_text_exits_2(tiny_model, tmp_path, capsys):
    ckpt = str(tmp_path / "model.npz")
    save_checkpoint(ckpt, tiny_model)
    data = str(tmp_path / "data.jsonl")
    write_jsonl([DatasetRecord("blank", "", Table(["item", "qty"], []))], data)
    assert main(["decode", ckpt, data, str(tmp_path / "out.jsonl")]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "blank: empty source text" in err


def test_decode_non_finite_row_count_exits_3(tiny_model, lineitems_records, tmp_path, capsys):
    tiny_model.params["count.b"].data[...] = np.nan
    ckpt = str(tmp_path / "model.npz")
    save_checkpoint(ckpt, tiny_model)
    data = str(tmp_path / "data.jsonl")
    write_jsonl(lineitems_records[:2], data)
    assert main(["decode", ckpt, data, str(tmp_path / "out.jsonl")]) == 3
    assert "non-finite" in capsys.readouterr().err


def test_decode_non_finite_logits_exits_3(tiny_model, lineitems_records, tmp_path, capsys):
    tiny_model.params["lm_head"].data[0, :] = np.nan
    tiny_model.params["count.b"].data[...] = [1.0]
    ckpt = str(tmp_path / "model.npz")
    save_checkpoint(ckpt, tiny_model)
    data = str(tmp_path / "data.jsonl")
    write_jsonl(lineitems_records[:2], data)
    assert main(["decode", ckpt, data, str(tmp_path / "out.jsonl")]) == 3
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "non-finite logits" in err


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
    l = tiny_model.cfg.max_cell_len
    null = tiny_model.vocab.surface(NULL)
    for rec in records:
        assert rec["decoder_passes"] > rec["outer_iterations"] > 0
        # at most one pass per slot position but the last, whose close is forced
        assert rec["decoder_passes"] <= rec["outer_iterations"] * (l - 1)
        # every committed cell cut at the slot width or holding NULL closed by force
        closed_by_force = sum(t["truncated"] or t["tokens"] == [null] for t in rec["trace"])
        assert rec["forced_tokens"] >= closed_by_force > 0
        assert rec["input_tokens_dropped"] == 0
        assert rec["header_tokens_dropped"] == 0


def test_semi_templated_decode_runs_no_count_head_and_writes_strict_json(tiny_model, lineitems_records, tmp_path):
    # semi-templated stopping never reads the row count, so a non-finite one reaches neither the run nor the trace
    tiny_model.params["count.b"].data[...] = [np.inf]
    ckpt = str(tmp_path / "model.npz")
    save_checkpoint(ckpt, tiny_model)
    data = str(tmp_path / "data.jsonl")
    write_jsonl(lineitems_records[:2], data)
    trace = tmp_path / "trace.jsonl"
    semi = ["--set", "stopping=semi-templated", "--trace", str(trace)]
    assert main(["decode", ckpt, data, str(tmp_path / "out.jsonl"), *semi]) == 0

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    records = [json.loads(line, parse_constant=refuse) for line in trace.read_text().splitlines()]
    assert len(records) == 2 and all(rec["predicted_count"] is None for rec in records)
    assert main(["decode", ckpt, data, str(tmp_path / "count.jsonl")]) == 3  # predicted-count stopping reads it


@pytest.fixture()
def steady_clock(monkeypatch):
    """``decode``'s clock ticks one second per reading, so every table takes
    1000 ms and a sidecar's timings repeat from run to run."""
    monkeypatch.setattr(commands, "perf_counter", itertools.count().__next__)


def test_decode_meta_holds_the_totals_of_the_trace(tiny_model, lineitems_records, tmp_path, steady_clock):
    tiny_model.params["count.b"].data[...] = [2.0]
    ckpt = str(tmp_path / "model.npz")
    save_checkpoint(ckpt, tiny_model)
    data = str(tmp_path / "data.jsonl")
    write_jsonl(lineitems_records[:3], data)
    assert main(["decode", ckpt, data, str(tmp_path / "out.jsonl")]) == 0
    meta = json.loads((tmp_path / "out.jsonl.meta.json").read_text())
    trace = tmp_path / "trace.jsonl"
    assert main(["decode", ckpt, data, str(tmp_path / "traced.jsonl"), "--trace", str(trace)]) == 0
    assert json.loads((tmp_path / "traced.jsonl.meta.json").read_text()) == meta
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert meta["tables"] == len(records) == 3
    for key in ("outer_iterations", "decoder_passes", "tokens", "forced_tokens"):
        assert meta[key] == sum(rec[key] for rec in records) > 0
    for rec in records:  # each committed cell's tokens and its end-of-cell
        assert rec["tokens"] == sum(len(t["tokens"]) + 1 for t in rec["trace"])
    assert meta["tokens_per_table_mean"] == pytest.approx(np.mean([rec["tokens"] for rec in records]), rel=1e-15)
    passes = sorted(rec["decoder_passes"] for rec in records)
    assert meta["decoder_passes_p50"] == passes[1]
    assert meta["decoder_passes_max"] == passes[2]
    write_jsonl([], data)
    assert main(["decode", ckpt, data, str(tmp_path / "none.jsonl")]) == 0
    meta = json.loads((tmp_path / "none.jsonl.meta.json").read_text())
    assert meta["tables"] == meta["decoder_passes"] == 0
    assert meta["decoder_passes_p50"] is None and meta["decoder_passes_max"] is None
    assert meta["tokens_per_table_mean"] is meta["ms_per_table_p50"] is meta["ms_per_table_p95"] is None


def test_decode_meta_totals_cut_and_capped_tables_without_a_trace(tiny_model, lineitems_records, tmp_path, steady_clock):
    # an untrained model fills its cells to the slot width and never writes the
    # sentinel row, so every table hits the row cap; one record is cut twice
    l = tiny_model.cfg.max_cell_len
    first = lineitems_records[0]
    headers = [first.table.headers[0], "quantity " * (l + 2), *first.table.headers[2:]]
    long = DatasetRecord("long", " ".join([first.text] * 40), Table(headers, first.table.rows))
    ckpt = str(tmp_path / "model.npz")
    save_checkpoint(ckpt, tiny_model)
    data = str(tmp_path / "data.jsonl")
    write_jsonl([long] + lineitems_records[1:3], data)
    semi = ["--set", "stopping=semi-templated", "--set", "max_rows_override=2"]
    assert main(["decode", ckpt, data, str(tmp_path / "out.jsonl"), *semi]) == 0
    meta = json.loads((tmp_path / "out.jsonl.meta.json").read_text())
    trace = tmp_path / "trace.jsonl"
    assert main(["decode", ckpt, data, str(tmp_path / "traced.jsonl"), *semi, "--trace", str(trace)]) == 0
    assert json.loads((tmp_path / "traced.jsonl.meta.json").read_text()) == meta
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    for rec in records:
        assert rec["truncated_cells"] == sum(t["truncated"] for t in rec["trace"])
    for key in ("truncated_cells", "row_cap_hits", "input_tokens_dropped", "header_tokens_dropped"):
        assert meta[key] == sum(rec[key] for rec in records) > 0
    assert meta["row_cap_hits"] == 3 and meta["header_tokens_dropped"] == 2
    assert records[0]["input_tokens_dropped"] == meta["input_tokens_dropped"]


def test_decode_meta_gives_ms_per_table_percentiles(tiny_model, lineitems_records, tmp_path, monkeypatch):
    ckpt = str(tmp_path / "model.npz")
    save_checkpoint(ckpt, tiny_model)
    data = str(tmp_path / "data.jsonl")
    write_jsonl(lineitems_records[:3], data)
    readings = iter([0, 1, 10, 12, 20, 23])  # the three tables take 1, 2 and 3 s
    monkeypatch.setattr(commands, "perf_counter", lambda: next(readings))
    assert main(["decode", ckpt, data, str(tmp_path / "out.jsonl")]) == 0
    meta = json.loads((tmp_path / "out.jsonl.meta.json").read_text())
    assert meta["ms_per_table_p50"] == 2000.0
    assert meta["ms_per_table_p95"] == pytest.approx(2900.0, rel=1e-15)  # linear between the two longest


def test_too_wide_record_exits_2_with_one_message_in_train_and_decode(tiny_model, lineitems_records, tmp_path, capsys):
    # the tiny model allows 4 columns: both commands refuse a fifth alike
    first = lineitems_records[0]
    wide = DatasetRecord("wide-0", first.text, Table([*first.table.headers, "extra"], [[*r, "x"] for r in first.table.rows]))
    assert main(["train", _train_config(tmp_path, [wide, *lineitems_records[1:3]], max_cols=4)]) == 2
    assert capsys.readouterr().err.strip() == "text2table train: wide-0: 5 columns exceed max_cols 4"
    ckpt = str(tmp_path / "model.npz")
    save_checkpoint(ckpt, tiny_model)
    assert main(["decode", ckpt, str(tmp_path / "data.jsonl"), str(tmp_path / "out.jsonl")]) == 2
    assert capsys.readouterr().err.strip() == "text2table decode: wide-0: 5 columns exceed max_cols 4"


# lr 1e30 without clipping: the first step's loss is finite, its update is not
DIVERGING = {"steps": 4, "batch_size": 4, "lr": 1e30, "clip_norm": 0}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the subject
@pytest.mark.parametrize(
    "training, decoding, message",
    [
        ({}, {}, "non-finite loss at step 2: "),
        ({"steps": 1, "eval_every": 1}, {}, "row-count head gave a non-finite value (nan)"),
        ({"steps": 1, "eval_every": 1}, {"stopping": "semi-templated"}, "decoder gave non-finite logits for cells "),
    ],
    ids=["diverged", "non_finite_count", "non_finite_logits"],
)
@pytest.mark.parametrize("command", ["train", "ablate"])
def test_non_finite_training_or_evaluation_exits_3(lineitems_records, tmp_path, capsys, command, training, decoding, message):
    config = tmp_path / "run.json"
    data = str(tmp_path / "data.jsonl")
    write_jsonl(lineitems_records[:12], data)
    config.write_text(json.dumps({
        # texts cut at max_input_len: the notice of the cut belongs to a run that ends, not to exit 3
        "model": {"d_model": 16, "n_heads": 2, "n_enc_layers": 1, "n_dec_layers": 1, "d_ff": 32, "max_input_len": 8},
        "training": {**DIVERGING, **training}, "decoding": decoding, "paths": {"dataset": data},
        **({"n_seeds": 1} if command == "ablate" else {}),
    }))
    argv = ["train", str(config)] if command == "train" else ["ablate", str(config), str(tmp_path / "out")]
    assert main(argv) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"text2table {command}: {message}")


def test_diverging_run_in_a_fresh_interpreter_prints_its_error_line_alone(lineitems_records, tmp_path):
    # in a fresh interpreter numpy's overflow warnings reach stderr unless main holds them back
    data = str(tmp_path / "data.jsonl")
    write_jsonl(lineitems_records[:12], data)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "model": {"d_model": 16, "n_heads": 2, "n_enc_layers": 1, "n_dec_layers": 1, "d_ff": 32},
        "training": DIVERGING, "paths": {"dataset": data},
    }))
    env = {**os.environ, "PYTHONPATH": str(Path(text2table.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "text2table.cli.main", "train", str(config)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 3
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("text2table train: non-finite loss at step 2: "), proc.stderr


MAPPED_ERRORS = [
    (None, 0),
    (DataError("failed"), 2),
    (ModelError("failed"), 3),
    (ConfigError("config file not found: run.json"), 2),
    (FileNotFoundError(2, "No such file or directory", "pred.jsonl"), 2),
    (LayoutError("wide-0: 5 columns exceed max_cols 4"), 2),
    (DataFormatError("invalid JSON: Expecting value", line=3), 2),
    (AlignmentError("bad alignment mode 'bogus'; use 'assignment' or 'keyed:<column>'"), 2),
    (HeaderMismatchError({"qty"}, {"price"}), 2),
    (CheckpointError("plain.npy: not a checkpoint (a single array, not an npz archive)"), 3),
    (TrainingDiverged(2, ["r0"], {"cell": float("nan")}), 3),
    (NonFiniteCountError(float("nan")), 3),
    (NonFiniteLogitsError([(1, 1)]), 3),
]


@pytest.mark.parametrize(
    "error, code", MAPPED_ERRORS, ids=["0", "2", "3"] + [type(e).__name__ for e, _ in MAPPED_ERRORS[3:]]
)
def test_command_warnings_are_shown_after_it_unless_it_exits_3(monkeypatch, capsys, error, code):
    # every error class main maps: its exit code, its text as the one stderr line, and
    # the command's warnings shown after it unless it exits 3
    def command(*args):
        warnings.warn("held back", UserWarning)
        if error is not None:
            raise error
        return 0

    monkeypatch.setattr(importlib.import_module("text2table.cli.main"), "cmd_eval", command)
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        assert main(["eval", "pred.jsonl", "gold.jsonl"]) == code
    assert capsys.readouterr().err == ("" if error is None else f"text2table eval: {error}\n")
    assert [str(w.message) for w in shown] == ([] if code == 3 else ["held back"])
    with warnings.catch_warnings(), pytest.raises(UserWarning):
        warnings.simplefilter("error")  # the filters stay in force while the command runs
        main(["eval", "pred.jsonl", "gold.jsonl"])


def _train_config(tmp_path, records, **model):
    data = str(tmp_path / "data.jsonl")
    write_jsonl(records, data)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "model": {"d_model": 16, "n_heads": 2, "n_enc_layers": 1, "n_dec_layers": 1, "d_ff": 32, **model},
        "training": {"steps": 1, "batch_size": 2},
        "paths": {"dataset": data},
    }))
    return str(config)


@pytest.mark.parametrize("where", ["dataset", "val_dataset"])
def test_semi_templated_train_refuses_a_full_table_and_keeps_earlier_metrics(lineitems_records, tmp_path, capsys, where):
    # the sentinel row counts toward max_rows 5: a 5-row table has no room for it,
    # in the training records or the validation records alike
    first = lineitems_records[0]
    full = DatasetRecord("full-0", first.text, Table(first.table.headers, [first.table.rows[0]] * 5))
    config = _train_config(tmp_path, [full, *lineitems_records[1:3]] if where == "dataset" else lineitems_records[:3])
    val = str(tmp_path / "val.jsonl")
    write_jsonl([full, lineitems_records[3]], val)
    ckpt = tmp_path / "ckpt"
    ckpt.mkdir()
    (ckpt / "metrics.jsonl").write_text("{}\n")
    argv = ["train", config, "--set", f"training.checkpoint_dir={ckpt}", "--set", f"paths.val_dataset={val}"]
    assert main([*argv, "--set", "training.mode=semi-templated"]) == 2
    assert capsys.readouterr().err.strip() == "text2table train: full-0: 6 rows exceed max_rows 5"
    assert (ckpt / "metrics.jsonl").read_text() == "{}\n" and sorted(os.listdir(ckpt)) == ["metrics.jsonl"]
    assert main(argv) == 0  # a permuted pass lays out the 5 gold rows alone


def test_train_warns_once_about_dropped_source_ids(lineitems_records, tmp_path, capsys):
    first = lineitems_records[0]
    long_text = " ".join([first.text] * 40)
    records = [DatasetRecord("long", long_text, first.table)] + lineitems_records[1:3]
    assert main(["train", _train_config(tmp_path, records, max_input_len=64)]) == 0
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "warning" in err[0] and "1 of 3 training texts" in err[0]
    n_ids = len(build_vocab(records, n_max_rows=5).encode(long_text))
    assert n_ids > 64 and f" {n_ids - 64} source token ids" in err[0]


def test_train_warns_once_about_cut_header_ids(lineitems_records, tmp_path, capsys):
    first = lineitems_records[0]
    headers = list(first.table.headers)
    headers[1] = " ".join(["quantity"] * 9)  # 9 tokens against the default max_cell_len 6
    records = [DatasetRecord("wide", first.text, Table(headers, first.table.rows))] + lineitems_records[1:3]
    assert main(["train", _train_config(tmp_path, records)]) == 0
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "warning" in err[0]
    assert " 3 header token ids beyond max_cell_len 6 dropped from 1 of 3 training tables" in err[0]


def test_train_without_long_texts_prints_no_warning(lineitems_records, tmp_path, capsys):
    # no text beyond max_input_len and no header beyond max_cell_len: neither warning
    assert main(["train", _train_config(tmp_path, lineitems_records[:3])]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "override, message",
    [
        ("model.n_heads=3", "bad model config: d_model 16 not divisible by n_heads 3"),
        ("model.n_heads=0", "bad model config: n_heads must be positive"),
        ("model.n_enc_layers=0", "bad model config: n_enc_layers must be positive"),
        ("model.n_dec_layers=0", "bad model config: n_dec_layers must be positive"),
        ("model.relative_buckets=2", "bad model config: relative_buckets must be >= 4, got 2"),
        ("model.relative_max_distance=0", "bad model config: relative_max_distance must exceed 8, got 0"),
        ("model.relative_max_distance=4", "bad model config: relative_max_distance must exceed 8, got 4"),
        ("model.relative_max_distance=8", "bad model config: relative_max_distance must exceed 8, got 8"),
        ("training.mode=bogus", "unknown training mode 'bogus'"),
        ("training.stpes=500", "bad training config: unknown TrainingConfig keys: stpes"),
        ("model.d_modle=8", "bad model config: unknown ModelConfig keys: d_modle"),
        ("decoding.stoping=semi-templated", "bad decoding config: unknown DecodingConfig keys: stoping"),
        ("trainig.steps=5", "unknown run config key(s) 'trainig'"),
        ("paths.val_datset=val.jsonl", "unknown paths key(s) 'val_datset'"),
        ("training.seed=4", "training.seed is not a run config key"),
        ("seed=x", "seed must be an integer, got 'x'"),
        ("training.steps=x", "bad training config: steps must be int, got 'x'"),
        ('training.lr="a"', "bad training config: lr must be float, got 'a'"),
        ("model.d_model=16.0", "bad model config: d_model must be int, got 16.0"),
        ("model.max_rows=abc", "bad model config: max_rows must be int, got 'abc'"),
        ("model.max_rows=null", "bad model config: max_rows must be int, got None"),
        ("model.max_rows=[1]", "bad model config: max_rows must be int, got [1]"),
        ("model.dropout=1.0", "bad model config: dropout must be in [0, 1), got 1.0"),
        ("model.dropout=-0.5", "bad model config: dropout must be in [0, 1), got -0.5"),
        ("model.dropout=NaN", "bad model config: dropout must be in [0, 1), got nan"),
        ("training.label_smoothing=1.5", "bad training config: label_smoothing must be in [0, 1), got 1.5"),
        ("training.label_smoothing=NaN", "bad training config: label_smoothing must be in [0, 1), got nan"),
        ("training.batch_size=0", "bad training config: batch_size must be >= 1, got 0"),
        ("training.steps=-1", "bad training config: steps must be >= 0, got -1"),
        ("training.eval_every=-5", "bad training config: eval_every must be >= 0, got -5"),
        ("training.eval_decode_examples=-1", "bad training config: eval_decode_examples must be >= 0, got -1"),
        ("training.lr=-0.001", "bad training config: lr must be >= 0, got -0.001"),
        ("training.lr=NaN", "bad training config: lr must be >= 0, got nan"),
        ("training.weight_decay=-1e-05", "bad training config: weight_decay must be >= 0, got -1e-05"),
        ("training.weight_decay=NaN", "bad training config: weight_decay must be >= 0, got nan"),
        ("training.clip_norm=-1", "bad training config: clip_norm must be >= 0, got -1"),
        ("training.clip_norm=NaN", "bad training config: clip_norm must be >= 0, got nan"),
        ("training.count_loss_weight=-0.5", "bad training config: count_loss_weight must be >= 0, got -0.5"),
        ("training.count_loss_weight=NaN", "bad training config: count_loss_weight must be >= 0, got nan"),
        ("model.max_cols=3", "lineitems-000000: 4 columns exceed max_cols 3"),
        ("decoding.max_rows_override=6", "decoding.max_rows_override 6 exceeds max_rows 5"),
        ("model.vocab_size=7", "model.vocab_size 7 is not the vocabulary's size "),
    ],
    ids=["n_heads", "zero_heads", "zero_enc_layers", "zero_dec_layers", "two_buckets", "zero_distance",
         "short_distance", "exact_distance", "mode", "training_key", "model_key", "decoding_key", "section", "paths_key",
         "training_seed", "seed", "steps_type", "lr_type", "d_model_type", "max_rows_str", "max_rows_null",
         "max_rows_list", "dropout_one", "dropout_negative", "dropout_nan", "label_smoothing_above_one",
         "label_smoothing_nan", "batch_size_zero", "steps_negative", "eval_every_negative",
         "eval_decode_examples_negative", "lr_negative", "lr_nan", "weight_decay_negative", "weight_decay_nan",
         "clip_norm_negative", "clip_norm_nan", "count_loss_weight_negative", "count_loss_weight_nan",
         "too_many_columns", "row_cap_above_max_rows", "vocab_size"],
)
def test_train_bad_run_config_exits_2(lineitems_records, tmp_path, capsys, override, message):
    assert main(["train", _train_config(tmp_path, lineitems_records[:3]), "--set", override]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and message in err


def test_decode_unknown_config_key_exits_2(tiny_model, lineitems_records, tmp_path, capsys):
    ckpt = str(tmp_path / "model.npz")
    save_checkpoint(ckpt, tiny_model)
    data = str(tmp_path / "data.jsonl")
    write_jsonl(lineitems_records[:1], data)
    out = str(tmp_path / "out.jsonl")
    assert main(["decode", ckpt, data, out, "--set", "k=2", "--set", "contraint=row-by-row"]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "bad decoding config: unknown DecodingConfig keys: contraint" in err


def test_decode_max_rows_override_below_one_exits_2(tiny_model, lineitems_records, tmp_path, capsys):
    ckpt = str(tmp_path / "model.npz")
    save_checkpoint(ckpt, tiny_model)
    data = str(tmp_path / "data.jsonl")
    write_jsonl(lineitems_records[:1], data)
    out = str(tmp_path / "out.jsonl")
    assert main(["decode", ckpt, data, out, "--set", "max_rows_override=0"]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "max_rows_override must be >= 1" in err


def test_decode_max_rows_override_above_max_rows_exits_2(tiny_model, lineitems_records, tmp_path, capsys):
    # refused before any table: the largest template the cap asks for cannot be built
    ckpt = str(tmp_path / "model.npz")
    save_checkpoint(ckpt, tiny_model)
    data = str(tmp_path / "data.jsonl")
    write_jsonl(lineitems_records[:1], data)
    out = str(tmp_path / "out.jsonl")
    argv = ["decode", ckpt, data, out, "--set", "stopping=semi-templated", "--set", "max_rows_override=5"]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "decoding.max_rows_override 5 exceeds max_rows 4" in err
    assert not (tmp_path / "out.jsonl").exists()
    assert main(argv[:-1] + ["max_rows_override=4"]) == 0


def test_train_misspelt_config_section_exits_2(lineitems_records, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"trainig": {"steps": 1}, "paths": {"dataset": str(tmp_path / "data.jsonl")}}))
    assert main(["train", str(config)]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "unknown run config key(s) 'trainig'" in err


def test_gen_data_unknown_spec_key_exits_2(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"task": "lineitems", "n_examples": 2, "row_max": 3}))
    assert main(["gen-data", str(spec), str(tmp_path / "out.jsonl")]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "bad corpus spec: unknown CorpusSpec keys: row_max" in err
    assert not (tmp_path / "out.jsonl").exists()


def test_gen_data_spec_naming_columns_exits_2(tmp_path, capsys):
    # each task emits its fixed columns, so a spec names none
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"task": "lineitems", "n_examples": 2, "columns": ["item", "qty"]}))
    assert main(["gen-data", str(spec), str(tmp_path / "out.jsonl")]) == 2
    assert capsys.readouterr().err.strip() == "text2table gen-data: bad corpus spec: unknown CorpusSpec keys: columns"
    assert not (tmp_path / "out.jsonl").exists()


def _unwritable_output_argv(command, tmp_path, records, model, bad):
    """The arguments of ``command`` with the output path ``bad``."""
    data = str(tmp_path / "data.jsonl")
    write_jsonl(records, data)
    ckpt = str(tmp_path / "model.npz")
    save_checkpoint(ckpt, model)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"task": "lineitems", "n_examples": 2}))
    return {
        "gen-data": lambda: ["gen-data", str(spec), bad],
        "train": lambda: ["train", _train_config(tmp_path, records), "--set", f"training.checkpoint_dir={bad}"],
        "decode": lambda: ["decode", ckpt, data, bad],
        "decode --trace": lambda: ["decode", ckpt, data, str(tmp_path / "pred.jsonl"), "--trace", bad],
        "eval": lambda: ["eval", data, data, "--out", bad],
        "ablate": lambda: ["ablate", _grid_file(tmp_path, records, n_seeds=1), bad],
    }[command]()


@pytest.mark.parametrize("command", ["gen-data", "train", "decode", "decode --trace", "eval", "ablate"])
def test_an_output_path_under_a_regular_file_exits_2_with_one_line(
    tiny_model, lineitems_records, tmp_path, capsys, monkeypatch, command
):
    afile = tmp_path / "afile"
    afile.write_text("")
    argv = _unwritable_output_argv(command, tmp_path, lineitems_records[:4], tiny_model, str(afile / "out"))
    capsys.readouterr()
    monkeypatch.setattr(commands, "decode_table", lambda *a, **k: pytest.fail("decode refuses before its first table"))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"text2table {argv[0]}: ") and "afile" in err
    assert not (tmp_path / "pred.jsonl").exists() and not (tmp_path / "pred.jsonl.meta.json").exists()


def test_gen_data_under_a_regular_file_names_the_output_not_its_temporary_file(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"task": "lineitems", "n_examples": 2}))
    out = str(afile / "d.jsonl")
    assert main(["gen-data", str(spec), out]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.rstrip().endswith(f"'{out}'") and ".tmp-" not in err


def _grid_file(tmp_path, records, **keys):
    """A grid file over ``records`` with a tiny model, updated by ``keys``."""
    data = str(tmp_path / "data.jsonl")
    write_jsonl(records, data)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "model": {"d_model": 16, "n_heads": 2, "n_enc_layers": 1, "n_dec_layers": 1, "d_ff": 32},
        "training": {"steps": 1, "batch_size": 2},
        **keys,
        "paths": {"dataset": data, **keys.get("paths", {})},
    }))
    return str(grid)


def test_ablate_unknown_training_key_exits_2(lineitems_records, tmp_path, capsys):
    grid = _grid_file(tmp_path, lineitems_records[:3], training={"stpes": 1, "batch_size": 2})
    assert main(["ablate", grid, str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "bad training config: unknown TrainingConfig keys: stpes" in err


def test_ablate_unknown_training_mode_exits_2(lineitems_records, tmp_path, capsys):
    grid = _grid_file(tmp_path, lineitems_records[:3], grid={"training.mode": ["bogus"]})
    assert main(["ablate", grid, str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "unknown training mode 'bogus'" in err


def test_ablate_decoder_without_layers_exits_2_before_any_run(lineitems_records, tmp_path, capsys):
    grid = _grid_file(tmp_path, lineitems_records[:3], grid={"model.n_dec_layers": [1, 0]})
    assert main(["ablate", grid, str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "bad model config: n_dec_layers must be positive" in err
    assert not (tmp_path / "out").exists()


def test_ablate_max_rows_override_above_max_rows_exits_2_before_any_run(lineitems_records, tmp_path, capsys):
    grid = _grid_file(tmp_path, lineitems_records[:3], grid={"decoding.max_rows_override": [5, 6]})
    assert main(["ablate", grid, str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "decoding.max_rows_override 6 exceeds max_rows 5" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("max_rows", ["abc", None, [1]], ids=["str", "null", "list"])
def test_ablate_non_integer_max_rows_exits_2(lineitems_records, tmp_path, capsys, max_rows):
    grid = _grid_file(tmp_path, lineitems_records[:3], grid={"model.max_rows": [max_rows]})
    assert main(["ablate", grid, str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and f"bad model config: max_rows must be int, got {max_rows!r}" in err


def test_ablate_misspelt_grid_axis_exits_2(lineitems_records, tmp_path, capsys):
    grid = _grid_file(tmp_path, lineitems_records[:3], grid={"decoding.constrant": ["row-by-row"]})
    assert main(["ablate", grid, str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "unknown DecodingConfig keys: constrant" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "keys, message",
    [
        ({"n_sedes": 1}, "unknown run config key(s) 'n_sedes'"),
        ({"decoding": {"k": 99, "constrant": "x"}}, "unknown DecodingConfig keys: constrant"),
        ({"paths": {"val_datset": "val.jsonl"}}, "unknown paths key(s) 'val_datset'"),
        ({"training": {"steps": 1, "seed": 4}}, "training.seed is not a run config key"),
        ({"grid": {"decoding.k": [1, 0]}}, "bad decoding config: k must be >= 1"),
        ({"grid": {"trainig.steps": [2]}}, "unknown run config key(s) 'trainig'"),
        ({"grid": {"decoding.k": []}}, "grid key 'decoding.k' must map to a non-empty list"),
        ({"n_seeds": 0}, "n_seeds must be a positive integer"),
        ({"n_seeds": True}, "n_seeds must be a positive integer, got True"),
    ],
    ids=["grid_file_key", "base_section_key", "paths_key", "training_seed", "axis_value", "axis_section",
         "empty_axis", "n_seeds", "n_seeds_bool"],
)
def test_ablate_bad_grid_file_exits_2_before_any_run(lineitems_records, tmp_path, capsys, keys, message):
    grid = _grid_file(tmp_path, lineitems_records[:3], **keys)
    assert main(["ablate", grid, str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and message in err
    assert not (tmp_path / "out").exists()


def _trained_checkpoint(tmp_path, records, *overrides):
    """Train one step, or as ``--set`` ``overrides`` say, into a checkpoint
    directory; returns (train argv, latest.npz)."""
    ckpt_dir = tmp_path / "ckpt"
    argv = ["train", _train_config(tmp_path, records), "--set", f"training.checkpoint_dir={ckpt_dir}"]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 0
    return argv, str(ckpt_dir / "latest.npz")


def _arrays(path):
    with np.load(path) as data:
        return {k: data[k] for k in data.files if k != "__meta__"}


def test_train_resumed_after_two_steps_equals_four_straight_steps(lineitems_records, tmp_path, capsys):
    # dropout on: every draw re-derives from (seed, step), so 2 + 2 steps are 4
    records = lineitems_records[:6]
    for name in ("straight", "resumed"):
        (tmp_path / name).mkdir()
    _, straight = _trained_checkpoint(tmp_path / "straight", records, "training.steps=4")
    argv, resumed = _trained_checkpoint(tmp_path / "resumed", records, "training.steps=2")
    assert load_checkpoint(resumed)[1]["step"] == 2
    capsys.readouterr()
    assert main(argv + ["--set", "training.steps=4", "--resume"]) == 0
    assert "resuming from step 2" in capsys.readouterr().out
    want, got = _arrays(straight), _arrays(resumed)
    assert want.keys() == got.keys() and any(k.startswith("opt::") for k in want)
    for name in want:
        assert np.array_equal(want[name], got[name]), name
    (_, want_meta), (_, got_meta) = load_checkpoint(straight), load_checkpoint(resumed)
    assert got_meta["step"] == want_meta["step"] == 4
    assert got_meta["optimizer"] == want_meta["optimizer"] == {"step_count": 4}


def test_resume_under_another_run_config_or_dataset_exits_3(lineitems_records, tmp_path, capsys):
    argv, _ = _trained_checkpoint(tmp_path, lineitems_records[:3])
    capsys.readouterr()
    assert main(argv + ["--set", "model.float_width=64", "--resume"]) == 3
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "refusing to resume" in err and "only training.steps may change" in err
    # the default written out is the same run config
    assert main(argv + ["--set", "model.float_width=32", "--set", "training.steps=2", "--resume"]) == 0
    # the same config over changed training data is not
    write_jsonl(lineitems_records[2::-1], str(tmp_path / "data.jsonl"))  # same records and vocabulary, reordered
    capsys.readouterr()
    assert main(argv + ["--set", "training.steps=3", "--resume"]) == 3
    assert "refusing to resume" in capsys.readouterr().err


def test_train_writes_float32_by_default_and_a_float64_checkpoint_decodes_in_float64(
    lineitems_records, tmp_path, monkeypatch
):
    _, latest = _trained_checkpoint(tmp_path, lineitems_records[:3])  # no model.float_width in the file
    model, meta = load_checkpoint(latest)
    assert model.cfg.float_width == 32 and meta["run_config"]["config"]["model"]["float_width"] == 32
    assert {a.dtype for a in _arrays(latest).values()} == {np.dtype(np.float32)}

    (tmp_path / "f64").mkdir()
    _, latest = _trained_checkpoint(tmp_path / "f64", lineitems_records[:3], "model.float_width=64")
    model, meta = load_checkpoint(latest)
    assert {a.dtype for a in _arrays(latest).values()} == {np.dtype(np.float64)}
    model.params["count.b"].data[...] = [2.0]  # so the decoder runs
    save_checkpoint(latest, model, step=meta["step"])
    data = str(tmp_path / "decode.jsonl")
    write_jsonl(lineitems_records[:2], data)
    seen = record_op_dtypes(monkeypatch)
    assert main(["decode", latest, data, str(tmp_path / "out.jsonl")]) == 0
    assert "attention" in {op for _, op, _ in seen}
    assert {dtype for _, _, dtype in seen} == {np.dtype(np.float64)}


def test_resume_without_optimizer_state_exits_3(lineitems_records, tmp_path, capsys):
    argv, latest = _trained_checkpoint(tmp_path, lineitems_records[:3])
    model, meta = load_checkpoint(latest)
    save_checkpoint(latest, model, step=meta["step"], optimizer=None, run_config=meta["run_config"])
    capsys.readouterr()
    assert main(argv + ["--resume"]) == 3
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "holds no optimizer state" in err


@pytest.mark.parametrize("overrides", [[], ["--set", "training.checkpoint_dir=null"]], ids=["unset", "null"])
def test_resume_without_a_checkpoint_dir_exits_2_before_any_step(lineitems_records, tmp_path, capsys, overrides):
    # there is no checkpoint to resume from: such a run once trained from step 0, saved nothing and exited 0
    config = _train_config(tmp_path, lineitems_records[:3])
    assert main(["train", config, *overrides, "--resume"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "text2table train: --resume needs training.checkpoint_dir, the directory that holds latest.npz\n"


@pytest.mark.parametrize("made", [False, True], ids=["no-directory", "no-latest"])
def test_resume_without_latest_npz_exits_2_before_any_step(lineitems_records, tmp_path, capsys, made):
    # a misspelt checkpoint directory once made the directory, trained from step 0 and exited 0
    config = _train_config(tmp_path, lineitems_records[:3])
    ckpt_dir = tmp_path / "typo"
    if made:
        ckpt_dir.mkdir()
        (ckpt_dir / "metrics.jsonl").write_text('{"step": 1}\n')
    assert main(["train", config, "--set", f"training.checkpoint_dir={ckpt_dir}", "--resume"]) == 2
    latest = ckpt_dir / "latest.npz"
    message = f"--resume found no checkpoint to resume from: {latest} does not exist"
    assert capsys.readouterr() == ("", f"text2table train: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl", "run.json"] + ["typo"] * made
    if made:
        assert sorted(p.name for p in ckpt_dir.iterdir()) == ["metrics.jsonl"]
        assert (ckpt_dir / "metrics.jsonl").read_text() == '{"step": 1}\n'


def _set_meta(key, value, message):
    def edit(arrays, meta):
        meta[key] = value
        return message
    return edit


def _drop_moment(arrays, meta):
    del arrays["opt::v::embed"]
    return "missing optimizer array v::embed"


def _set_moment(key, bad):
    def edit(arrays, meta):
        want = arrays[key]
        arrays[key] = got = bad(want)
        name = key.removeprefix("opt::")
        return f"optimizer array {name} is {got.dtype} {got.shape}, the model's {want.dtype} {want.shape}"
    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _set_meta("optimizer", [4], "optimizer is not null or an object with a non-negative integer step_count"),
        _set_meta("optimizer", {}, "optimizer is not null or an object with a non-negative integer step_count"),
        _set_meta("run_config", [], "run_config is not a JSON object or null"),
        _set_meta("step", "1", "step '1' is not a non-negative integer"),
        _set_meta("step", -1, "step -1 is not a non-negative integer"),
        _drop_moment,
        _set_moment("opt::m::embed", lambda a: a[0].astype(np.float64)),
        _set_moment("opt::v::embed", lambda a: np.zeros((3, 3), a.dtype)),
        _set_moment("opt::m::lm_head", lambda a: a.astype(np.float64)),
    ],
    ids=[
        "optimizer-list", "optimizer-without-step-count", "run-config-list", "step-string", "step-negative",
        "missing-moment", "float64-row-moment", "3x3-moment", "float64-moment",
    ],
)
def test_train_resume_and_decode_refuse_a_bad_checkpoint_with_the_same_line(lineitems_records, tmp_path, capsys, edit):
    # load_checkpoint is the one gate: train --resume once ended three of these in a traceback and resumed from
    # step -1, a float64 row broadcast into a moment and a float64 moment was cast in silence, and decode ended the
    # list run_config in a traceback and accepted the rest
    argv, latest = _trained_checkpoint(tmp_path, lineitems_records[:3])
    with np.load(latest) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(arrays.pop("__meta__").tobytes().decode("utf-8"))
    message = edit(arrays, meta)
    # every digest matches, so only the edit is wrong with the file
    meta["manifest"] = {k: hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest() for k, a in arrays.items()}
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    with open(latest, "wb") as fh:
        np.savez(fh, **arrays)
    data = str(tmp_path / "decode.jsonl")
    write_jsonl(lineitems_records[:1], data)
    capsys.readouterr()
    for command, args in (("train", argv[1:] + ["--resume"]), ("decode", [latest, data, str(tmp_path / "out.jsonl")])):
        assert main([command, *args]) == 3
        assert capsys.readouterr() == ("", f"text2table {command}: {latest}: {message}\n")


def test_ablate_empty_validation_set_exits_2_before_any_run(lineitems_records, tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    grid = _grid_file(tmp_path, lineitems_records[:3], paths={"val_dataset": str(empty)})
    assert main(["ablate", grid, str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and f"dataset has no records: {empty}" in err
    assert not (tmp_path / "out").exists()


def _eval_files(tmp_path, pred_headers):
    pred, gold = str(tmp_path / "pred.jsonl"), str(tmp_path / "gold.jsonl")
    write_jsonl([DatasetRecord("r", "text", Table(pred_headers, [["1", "2"]]))], pred)
    write_jsonl([DatasetRecord("r", "text", Table(["item", "qty"], [["1", "2"]]))], gold)
    return pred, gold


def test_eval_header_mismatch_exits_2(tmp_path, capsys):
    pred, gold = _eval_files(tmp_path, ["item", "price"])
    assert main(["eval", pred, gold]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "header sets differ" in err


def test_eval_id_mismatch_exits_2(tmp_path, capsys):
    pred, gold = str(tmp_path / "pred.jsonl"), str(tmp_path / "gold.jsonl")
    table = Table(["item"], [["1"]])
    write_jsonl([DatasetRecord("p0", "text", table), DatasetRecord("p1", "text", table)], pred)
    write_jsonl([DatasetRecord("p0", "text", table), DatasetRecord("g2", "text", table)], gold)
    assert main(["eval", pred, gold]) == 2
    assert capsys.readouterr().err == "text2table eval: prediction id 'p1' does not match gold id 'g2'\n"


def test_eval_report_sums_the_table_scores(tmp_path, capsys):
    pred, gold = str(tmp_path / "pred.jsonl"), str(tmp_path / "gold.jsonl")
    write_jsonl([
        DatasetRecord("a", "t", Table(["qty", "item"], [["3", "pens"]])),
        DatasetRecord("b", "t", Table(["item", "qty"], [["cups", "5"], [None, "1"]])),
    ], pred)
    write_jsonl([
        DatasetRecord("a", "t", Table(["item", "qty"], [["pens", "3"], ["mugs", None]])),
        DatasetRecord("b", "t", Table(["item", "qty"], [["cups", "2"]])),
    ], gold)
    assert main(["eval", pred, gold]) == 0
    report = json.loads(capsys.readouterr().out)
    for key in ("alignment", "gold_sha256", "pred_sha256"):
        report.pop(key)
    assert report == {
        "correct": 3, "predicted": 5, "gold": 5, "precision": 0.6, "recall": 0.6, "f1": 0.6,
        "count_accuracy": 0.0, "n_tables": 2,
        "per_column": {
            "item": {"correct": 2, "predicted": 2, "gold": 3, "precision": 1.0, "recall": 2 / 3, "f1": 0.8},
            "qty": {"correct": 1, "predicted": 3, "gold": 2, "precision": 1 / 3, "recall": 0.5, "f1": 0.4},
        },
    }


def test_eval_lets_a_bug_in_scoring_propagate(tmp_path, monkeypatch):
    from text2table.cli import commands

    def broken(*args, **kwargs):
        raise ZeroDivisionError("a bug, not a data error")

    monkeypatch.setattr(commands, "score_corpus", broken)
    pred, gold = _eval_files(tmp_path, ["item", "qty"])
    with pytest.raises(ZeroDivisionError):
        main(["eval", pred, gold])



@pytest.mark.parametrize("sidecar", ["{not json", "[1, 2]"])
def test_eval_bad_prediction_sidecar_exits_2(tmp_path, capsys, sidecar):
    pred, gold = _eval_files(tmp_path, ["item", "qty"])
    with open(pred + ".meta.json", "w", encoding="utf-8") as fh:
        fh.write(sidecar)
    assert main(["eval", pred, gold]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "pred.jsonl.meta.json" in err


def test_eval_non_string_header_exits_2(tmp_path, capsys):
    pred, gold = _eval_files(tmp_path, ["item", "qty"])
    with open(gold, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"id": "r", "text": "text", "table": {"headers": ["item", 1], "rows": [["1", "2"]]}}) + "\n")
    assert main(["eval", pred, gold]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "headers must be strings (line 1) (record r)" in err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_string_where_a_list_belongs_in_a_dataset_exits_2(lineitems_records, tmp_path, capsys, command):
    config = _train_config(tmp_path, lineitems_records[:2])
    data = tmp_path / "data.jsonl"
    bad = {"id": "s", "text": "text", "table": {"headers": ["item", "qty"], "rows": ["xy"]}}
    data.write_text(data.read_text() + json.dumps(bad) + "\n")
    args = ["train", config] if command == "train" else ["eval", str(data), str(data)]
    assert main(args) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "row 0 must be a list, got str (line 3) (record s)" in err


@pytest.mark.parametrize("blank", ["", "   "], ids=["empty", "spaces"])
@pytest.mark.parametrize("command", ["train", "ablate"])
def test_blank_gold_cell_exits_2_before_any_step(lineitems_records, tmp_path, capsys, monkeypatch, command, blank):
    records = [
        DatasetRecord(r.id, r.text, Table(r.table.headers, [[blank, *r.table.rows[0][1:]], *r.table.rows[1:]]))
        for r in lineitems_records[:2]
    ]
    config = _train_config(tmp_path, records)
    monkeypatch.setattr(Trainer, "training_step", lambda *a: pytest.fail("a step ran"))
    argv = ["train", config] if command == "train" else ["ablate", config, str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip()
    assert err == f"text2table {command}: {records[0].id}: cell (1,1) is blank: write a cell without a value as null"


NOT_UTF8 = '{"id": "café"}\n'.encode("latin-1")


@pytest.mark.parametrize(
    "command, target, kind",
    [
        ("eval", "dataset", "latin-1"),
        ("train", "config", "latin-1"),
        ("ablate", "ledger", "latin-1"),
        ("eval", "sidecar", "latin-1"),
        ("train", "config", "directory"),
        ("eval", "dataset", "directory"),
    ],
    ids=["eval_dataset", "train_config", "ablate_ledger", "eval_sidecar", "train_config_dir", "eval_dataset_dir"],
)
def test_unreadable_input_file_exits_2_naming_it(lineitems_records, tmp_path, capsys, command, target, kind):
    config = _train_config(tmp_path, lineitems_records[:2])
    data, out = str(tmp_path / "data.jsonl"), tmp_path / "out"
    path = {
        "dataset": tmp_path / "gold.jsonl", "config": tmp_path / "other.json",
        "ledger": out / "done.jsonl", "sidecar": Path(data + ".meta.json"),
    }[target]
    path.parent.mkdir(exist_ok=True)
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(NOT_UTF8)
    argv = {
        "train": ["train", str(path)],
        "eval": ["eval", data, str(path) if target == "dataset" else data],
        "ablate": ["ablate", config, str(out)],
    }[command]
    assert main(argv) == 2
    error = "IsADirectoryError" if kind == "directory" else "UnicodeDecodeError"
    assert capsys.readouterr().err.strip() == f"text2table {command}: {path}: not readable as UTF-8 text ({error})"


def test_resolved_run_config_with_its_vocab_size_reads_back_as_itself(lineitems_records, tmp_path):
    config = _train_config(tmp_path, lineitems_records[:3])
    run = prepare_run(merged_run_config(json.loads(Path(config).read_text())))
    assert prepare_run(run.resolved()).resolved() == run.resolved()
    assert main(["train", config, "--set", f"model.vocab_size={run.model.vocab_size}"]) == 0


EVAL_KEYS = {"step", "nll", "mse", "cell_precision", "cell_recall", "cell_f1", "per_column_f1", "count_accuracy"}


def test_train_on_zero_row_tables_exits_0(tmp_path, capsys):
    # batches of one example, so some steps train on a table with no rows alone
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"task": "lineitems", "n_examples": 16, "rows_min": 0, "rows_max": 2, "noise_rate": 1.0, "seed": 3}
    ))
    data = str(tmp_path / "data.jsonl")
    assert main(["gen-data", str(spec), data]) == 0
    assert any(rec.table.n_rows == 0 for rec in read_jsonl(data))
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "model": {"d_model": 16, "n_heads": 2, "n_enc_layers": 1, "n_dec_layers": 1, "d_ff": 32},
        "training": {"steps": 10, "batch_size": 1},
        "paths": {"dataset": data},
    }))
    assert main(["train", str(config)]) == 0
    assert capsys.readouterr().err == ""


def test_gen_data_train_decode_eval_end_to_end(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"task": "lineitems", "n_examples": 8, "rows_max": 2, "seed": 5}))
    data = str(tmp_path / "data.jsonl")
    assert main(["gen-data", str(spec), data]) == 0

    ckpt = tmp_path / "ckpt"
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "model": {"d_model": 16, "n_heads": 2, "n_enc_layers": 1, "n_dec_layers": 1, "d_ff": 32},
        "training": {"steps": 3, "batch_size": 2, "eval_every": 3, "eval_decode_examples": 4,
                     "checkpoint_dir": str(ckpt)},
        "paths": {"dataset": data},
    }))
    assert main(["train", str(config)]) == 0
    metrics = [json.loads(line) for line in (ckpt / "metrics.jsonl").read_text().splitlines()]
    assert len(metrics) == 1 and set(metrics[0]) == EVAL_KEYS and metrics[0]["step"] == 3
    assert None not in metrics[0].values()  # the validation loss and the decoded scores both ran
    assert set(metrics[0]["per_column_f1"]) == {"item", "qty", "price", "color"}

    pred, report = str(tmp_path / "pred.jsonl"), tmp_path / "report.json"
    assert main(["decode", str(ckpt / "latest.npz"), data, pred]) == 0
    assert main(["eval", pred, data, "--out", str(report)]) == 0
    assert 0.0 <= json.loads(report.read_text())["f1"] <= 1.0
