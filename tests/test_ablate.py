"""Smoke test of ``text2table ablate``: a tiny grid, its completion ledger and
determinism per seed."""

import json

import numpy as np

from text2table.cli import ablate
from text2table.cli.main import main
from text2table.cli.runconfig import merged_run_config
from text2table.corpus import write_jsonl
from text2table.model import load_checkpoint
from text2table.training import Trainer


def _base(tmp_path, records):
    """A run config over a tiny model, its data written under ``tmp_path``."""
    data, val = tmp_path / "train.jsonl", tmp_path / "val.jsonl"
    write_jsonl(records[:6], str(data))
    write_jsonl(records[6:8], str(val))
    return {
        "paths": {"dataset": str(data), "val_dataset": str(val)},
        "seed": 3,
        "model": {"d_model": 16, "n_heads": 2, "n_enc_layers": 1, "n_dec_layers": 1, "d_ff": 32},
        "training": {"steps": 12, "batch_size": 4, "lr": 0.05},
    }


def _grid(tmp_path, records, stopping=("predicted-count", "semi-templated")):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        **_base(tmp_path, records), "n_seeds": 1, "grid": {"decoding.stopping": list(stopping)},
    }))
    return str(grid)


def _ledger(out_dir):
    return [json.loads(line) for line in (out_dir / "done.jsonl").read_text().splitlines()]


def test_ablate_grid_resumes_from_its_ledger_and_repeats_per_seed(lineitems_records, tmp_path, monkeypatch):
    grid = _grid(tmp_path, lineitems_records)
    first = tmp_path / "first"
    assert main(["ablate", grid, str(first)]) == 0
    rows = _ledger(first)
    assert len(rows) == 2 and {r["combo"]["decoding.stopping"] for r in rows} == {"predicted-count", "semi-templated"}
    assert all(r["seed_index"] == 0 for r in rows)
    assert any(r["result"]["cell_f1"] > 0 for r in rows)  # so the repeat below compares trained results
    summary = (first / "summary.json").read_text()
    assert len(json.loads(summary)["rows"]) == 2

    # a rerun finds both runs in the ledger and trains nothing
    def no_run(*args, **kwargs):
        raise AssertionError("a finished run was run again")

    with monkeypatch.context() as patch:
        patch.setattr(ablate, "_single_run", no_run)
        assert main(["ablate", grid, str(first)]) == 0
    assert _ledger(first) == rows
    assert (first / "summary.json").read_text() == summary

    # the same grid in a fresh directory gives the same seeds and results
    second = tmp_path / "second"
    assert main(["ablate", grid, str(second)]) == 0
    assert _ledger(second) == rows
    assert (second / "summary.json").read_text() == summary


def test_ablate_result_is_the_evaluate_record_train_writes(lineitems_records, tmp_path):
    # one grid point, run by ablate and then by train with the run's seed
    assert main(["ablate", _grid(tmp_path, lineitems_records, ["semi-templated"]), str(tmp_path / "out")]) == 0
    (row,) = _ledger(tmp_path / "out")
    cfg = _base(tmp_path, lineitems_records)
    cfg["seed"] = row["seed"]
    cfg["decoding"] = {"stopping": "semi-templated"}
    cfg["training"].update(eval_every=12, checkpoint_dir=str(tmp_path / "ckpt"))
    config = tmp_path / "run.json"
    config.write_text(json.dumps(cfg))
    assert main(["train", str(config)]) == 0
    (record,) = [json.loads(line) for line in (tmp_path / "ckpt" / "metrics.jsonl").read_text().splitlines()]
    assert row["result"] == record and record["step"] == 12


def test_ablate_reruns_a_run_whose_config_or_data_changed(lineitems_records, tmp_path, monkeypatch):
    cfg = {**_base(tmp_path, lineitems_records), "n_seeds": 1, "grid": {"decoding.stopping": ["predicted-count"]}}
    cfg["training"]["steps"] = 2
    grid, out = tmp_path / "grid.json", tmp_path / "out"
    grid.write_text(json.dumps(cfg))
    runs = []
    single_run = ablate._single_run
    monkeypatch.setattr(ablate, "_single_run", lambda run_cfg: runs.append(run_cfg) or single_run(run_cfg))
    assert main(["ablate", str(grid), str(out)]) == 0
    assert main(["ablate", str(grid), str(out)]) == 0  # unchanged: nothing runs
    assert len(runs) == 1

    # an edited base config runs again, with the same seed
    cfg["training"]["steps"] = 3
    grid.write_text(json.dumps(cfg))
    assert main(["ablate", str(grid), str(out)]) == 0
    assert [r["training"]["steps"] for r in runs] == [2, 3]
    first, second = _ledger(out)
    assert first["run_id"] != second["run_id"] and first["seed"] == second["seed"]

    # so does a run whose training data changed under the same path
    write_jsonl(lineitems_records[1:7], cfg["paths"]["dataset"])
    assert main(["ablate", str(grid), str(out)]) == 0
    assert len(runs) == 3 and len({r["run_id"] for r in _ledger(out)}) == 3


def test_ablate_keys_runs_by_the_resolved_config(lineitems_records, tmp_path, monkeypatch):
    # float32 is the default: writing it out is the same run, float64 is another
    cfg = {**_base(tmp_path, lineitems_records), "n_seeds": 1}
    cfg["training"]["steps"] = 2
    grid, out = tmp_path / "grid.json", tmp_path / "out"
    runs = []
    single_run = ablate._single_run
    monkeypatch.setattr(ablate, "_single_run", lambda run_cfg: runs.append(run_cfg) or single_run(run_cfg))
    for float_width in (None, 32, 64):
        if float_width is not None:
            cfg["model"]["float_width"] = float_width
        grid.write_text(json.dumps(cfg))
        assert main(["ablate", str(grid), str(out)]) == 0
    assert [r["model"].get("float_width") for r in runs] == [None, 64]
    omitted, f64 = _ledger(out)
    assert omitted["run_id"] != f64["run_id"] and omitted["seed"] == f64["seed"]


def test_ablate_drops_a_torn_last_ledger_line_and_reruns_its_run(lineitems_records, tmp_path, monkeypatch):
    cfg = {**_base(tmp_path, lineitems_records), "n_seeds": 1, "grid": {"decoding.stopping": ["predicted-count"]}}
    cfg["training"]["steps"] = 2
    grid, out = tmp_path / "grid.json", tmp_path / "out"
    grid.write_text(json.dumps(cfg))
    assert main(["ablate", str(grid), str(out)]) == 0
    (row,) = _ledger(out)
    ledger = out / "done.jsonl"
    whole = ledger.read_text()
    ledger.write_text(whole + '{"run_id": "abc", "comb')  # an append cut off before its newline
    runs = []
    monkeypatch.setattr(ablate, "_single_run", lambda run_cfg: runs.append(run_cfg) or row["result"])
    assert main(["ablate", str(grid), str(out)]) == 0
    assert runs == []  # the finished run before the torn line stays finished
    assert ledger.read_text() == whole

    # a whole row cut off before its newline is dropped too, and its run runs again
    ledger.write_text(whole.rstrip("\n"))
    assert main(["ablate", str(grid), str(out)]) == 0
    assert len(runs) == 1
    assert _ledger(out) == [row]


def test_ablate_ledger_line_that_is_not_a_row_exits_2(lineitems_records, tmp_path, capsys):
    grid, out = _grid(tmp_path, lineitems_records, ["predicted-count"]), tmp_path / "out"
    out.mkdir()
    for bad in ['{"run_id": "abc", "comb\n', "[1, 2]\n", '{"combo": {}}\n']:
        (out / "done.jsonl").write_text('{"run_id": "abc"}\n' + bad + '{"run_id": "def"}\n')
        assert main(["ablate", grid, str(out)]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert "done.jsonl" in err and "line 2" in err


def test_ablate_evaluates_each_run_once_at_its_last_step(lineitems_records, tmp_path, monkeypatch):
    # eval_every 2 divides the 4 steps, so the run's last evaluation is its
    # result; eval_every 3 does not, so the run is evaluated once more at 4
    cfg = {**_base(tmp_path, lineitems_records), "n_seeds": 1, "grid": {"training.eval_every": [2, 3]}}
    cfg["training"]["steps"] = 4
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(cfg))
    steps = []
    evaluate = Trainer.evaluate
    monkeypatch.setattr(Trainer, "evaluate", lambda self, step: steps.append(step) or evaluate(self, step))
    assert main(["ablate", str(grid), str(tmp_path / "out")]) == 0
    assert steps == [2, 4, 3, 4]
    assert [row["result"]["step"] for row in _ledger(tmp_path / "out")] == [4, 4]


def test_ablate_keeps_each_runs_checkpoint_under_its_run_id(lineitems_records, tmp_path):
    ckpt = tmp_path / "ckpt"
    cfg = {**_base(tmp_path, lineitems_records), "n_seeds": 2}
    cfg["training"].update(steps=2, checkpoint_dir=str(ckpt))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(cfg))
    assert main(["ablate", str(grid), str(tmp_path / "out")]) == 0
    rows = _ledger(tmp_path / "out")
    base = merged_run_config({k: v for k, v in cfg.items() if k != "n_seeds"})
    # the run id still hashes the config as given, checkpoint_dir included
    assert [row["run_id"] for row in rows] == [ablate.run_id({**base, "seed": row["seed"]}) for row in rows]
    assert sorted(p.name for p in ckpt.iterdir()) == sorted(row["run_id"] for row in rows)
    models = [load_checkpoint(str(ckpt / row["run_id"] / "latest.npz")) for row in rows]
    assert [meta["step"] for _, meta in models] == [2, 2]
    a, b = (model.params["lm_head"].data for model, _ in models)
    assert not np.array_equal(a, b)  # two seeds, two models
