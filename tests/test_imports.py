"""The package runs on numpy alone until a table is aligned by assignment:
importing every module of it, the command line included, makes it import no
third-party package but numpy. scipy, its one other dependency, is loaded on
use: the first assignment alignment loads ``scipy.optimize``, and commands
that align nothing by assignment run without it.

Each check runs in a fresh interpreter. The import check records every
absolute import a ``text2table`` module executes. What numpy loads in turn is
its own: numpy's Fortran tooling, for one, loads ``charset_normalizer`` when
it is installed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import text2table

ALLOWED = {"numpy"}

SRC = str(Path(text2table.__file__).resolve().parents[1])

SCRIPT = """
import builtins, importlib, json, pkgutil, sys

edges = set()  # (importing module, top-level name it imports)
real_import, real_import_module = builtins.__import__, importlib.import_module

def traced_import(name, globals=None, locals=None, fromlist=(), level=0):
    if level == 0:
        edges.add(((globals or {}).get("__name__", ""), name.partition(".")[0]))
    return real_import(name, globals, locals, fromlist, level)

def traced_import_module(name, package=None):
    if not name.startswith("."):
        edges.add((sys._getframe(1).f_globals.get("__name__", ""), name.partition(".")[0]))
    return real_import_module(name, package)

builtins.__import__, importlib.import_module = traced_import, traced_import_module
import text2table
names = [m.name for m in pkgutil.walk_packages(text2table.__path__, "text2table.")]
for name in names + ["text2table.cli.main"]:
    real_import_module(name)
imported = sorted({top for mod, top in edges if mod.partition(".")[0] == "text2table"})
print(json.dumps({"modules": names, "imported": imported, "scipy_loaded": "scipy" in sys.modules}))
"""

# A gain matrix with tied optima: pred row 3 with gold row 2 gains 2 cells, and
# pred rows 0 and 1 with gold rows 0 and 1 in either order, or pred row 2 with
# gold row 1 beside either of them, gain 2 more. Which optimum the solver picks
# sets the per-column counts.
SCORE = """
import json, pkgutil, importlib, sys
import text2table
for m in pkgutil.walk_packages(text2table.__path__, "text2table."):
    importlib.import_module(m.name)
import text2table.cli.main
from text2table.metrics import AlignmentMode, score_tables
from text2table.metrics.scoring import _align_rows, _normalized_rows
from text2table.table import Table

gold = Table(["a", "b", "c"], [["x", "1", "p"], ["y", "2", "q"], ["z", "3", None]])
pred = Table(["a", "b", "c"], [["x", "2", None], ["y", "1", None], ["w", "9", "q"], ["z", "3", "p"]])
mode = AlignmentMode.parse(sys.argv[1])
out = {"after_import": "scipy" in sys.modules}
score = score_tables(pred, gold, mode)
headers = list(gold.headers)
out["pairs"] = _align_rows(_normalized_rows(pred, headers), _normalized_rows(gold, headers), mode, headers)
out["correct"] = {h: c.correct for h, c in score.per_column.items()}
out["after_score"] = "scipy" in sys.modules
print(json.dumps(out))
"""

# scipy shadowed by a package that cannot be imported: each command that
# aligns nothing by assignment must still exit 0
COMMANDS = """
import json, sys
try:
    import scipy
except ImportError:
    pass
else:
    sys.exit("the shadowing scipy package was not the one imported")
from text2table.cli.main import main

with open("spec.json", "w") as fh:
    json.dump({"task": "lineitems", "n_examples": 6, "rows_min": 1, "rows_max": 2, "seed": 5}, fh)
with open("run.json", "w") as fh:
    json.dump({"model": {"d_model": 16, "n_heads": 2, "n_enc_layers": 1, "n_dec_layers": 1, "d_ff": 32},
               "training": {"steps": 2, "batch_size": 2, "checkpoint_dir": "ckpt"},
               "paths": {"dataset": "data.jsonl"}}, fh)
codes = {
    "gen-data": main(["gen-data", "spec.json", "data.jsonl"]),
    "train": main(["train", "run.json"]),
    "decode": main(["decode", "ckpt/latest.npz", "data.jsonl", "pred.jsonl"]),
}
print(json.dumps(codes))
"""


def _fresh(script, *args, path=(), cwd=None):
    """Run ``script`` in a fresh interpreter with ``path`` ahead of the
    package's sources; returns the JSON on its last line of output."""
    pythonpath = os.pathsep.join([*path, SRC, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": pythonpath}
    run = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, cwd=cwd, timeout=300
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def test_package_imports_only_numpy():
    out = _fresh(SCRIPT)
    assert "text2table.cli.main" in out["modules"] and "text2table.numerics.ops" in out["modules"]
    third_party = {m for m in out["imported"] if m not in sys.stdlib_module_names and m != "text2table"}
    assert third_party == ALLOWED, sorted(third_party)
    assert not out["scipy_loaded"]


def test_keyed_scoring_leaves_scipy_unloaded():
    out = _fresh(SCORE, "keyed:a")
    assert not out["after_import"] and not out["after_score"]
    assert out["correct"] == {"a": 3, "b": 1, "c": 0}


def test_assignment_scoring_loads_scipy_and_breaks_ties_as_before():
    out = _fresh(SCORE, "assignment")
    assert not out["after_import"] and out["after_score"]
    # scipy's tie-break on this matrix, as it was while scipy loaded on import
    assert out["pairs"] == [[0, 0], [1, 1], [3, 2]]
    assert out["correct"] == {"a": 3, "b": 1, "c": 0}


def test_gen_data_train_and_decode_run_without_scipy(tmp_path):
    fake = tmp_path / "shadow" / "scipy"
    fake.mkdir(parents=True)
    (fake / "__init__.py").write_text('raise ImportError("scipy is not installed")\n')
    work = tmp_path / "work"
    work.mkdir()
    codes = _fresh(COMMANDS, path=[str(fake.parent)], cwd=work)
    assert codes == {"gen-data": 0, "train": 0, "decode": 0}
    assert (work / "pred.jsonl").stat().st_size > 0
