"""Exit codes of the ``text2table`` command line."""

import json

import numpy as np
import pytest

from text2table.cli.main import main
from text2table.corpus import DatasetRecord, build_vocab, read_jsonl, write_jsonl
from text2table.model import load_checkpoint, save_checkpoint
from text2table.table import Table
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


def test_decode_meta_holds_the_totals_of_the_trace(tiny_model, lineitems_records, tmp_path):
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
    for key in ("outer_iterations", "decoder_passes", "forced_tokens"):
        assert meta[key] == sum(rec[key] for rec in records) > 0
    passes = sorted(rec["decoder_passes"] for rec in records)
    assert meta["decoder_passes_p50"] == passes[1]
    assert meta["decoder_passes_max"] == passes[2]
    write_jsonl([], data)
    assert main(["decode", ckpt, data, str(tmp_path / "none.jsonl")]) == 0
    meta = json.loads((tmp_path / "none.jsonl.meta.json").read_text())
    assert meta["tables"] == meta["decoder_passes"] == 0
    assert meta["decoder_passes_p50"] is None and meta["decoder_passes_max"] is None


def test_decode_meta_totals_cut_and_capped_tables_without_a_trace(tiny_model, lineitems_records, tmp_path):
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
        "model": {"d_model": 16, "n_heads": 2, "n_enc_layers": 1, "n_dec_layers": 1, "d_ff": 32},
        "training": {**DIVERGING, **training}, "decoding": decoding, "paths": {"dataset": data},
        **({"n_seeds": 1} if command == "ablate" else {}),
    }))
    argv = ["train", str(config)] if command == "train" else ["ablate", str(config), str(tmp_path / "out")]
    assert main(argv) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"text2table {command}: {message}")


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
    ],
    ids=["n_heads", "zero_heads", "mode", "training_key", "model_key", "decoding_key", "section", "paths_key",
         "training_seed", "seed", "steps_type", "lr_type", "d_model_type", "max_rows_str", "max_rows_null",
         "max_rows_list", "dropout_one", "dropout_negative", "dropout_nan", "label_smoothing_above_one",
         "label_smoothing_nan", "batch_size_zero", "steps_negative", "eval_every_negative",
         "eval_decode_examples_negative", "lr_negative", "lr_nan", "weight_decay_negative", "weight_decay_nan",
         "clip_norm_negative", "clip_norm_nan", "count_loss_weight_negative", "count_loss_weight_nan",
         "too_many_columns", "row_cap_above_max_rows"],
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
    ],
    ids=["grid_file_key", "base_section_key", "paths_key", "training_seed", "axis_value", "axis_section",
         "empty_axis", "n_seeds"],
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


def test_resume_with_missing_optimizer_array_exits_3(lineitems_records, tmp_path, capsys):
    argv, latest = _trained_checkpoint(tmp_path, lineitems_records[:3])
    with np.load(latest) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(arrays.pop("__meta__").tobytes().decode("utf-8"))
    del arrays["opt::v::embed"], meta["manifest"]["opt::v::embed"]  # a consistent file, one array short
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    with open(latest, "wb") as fh:
        np.savez(fh, **arrays)
    capsys.readouterr()
    assert main(argv + ["--resume"]) == 3
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "optimizer state lacks v::embed" in err


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
