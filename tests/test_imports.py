"""The package runs on numpy and scipy alone: importing every module of it,
the command line included, makes it import no other third-party package.

The check runs in a fresh interpreter and records every absolute import a
``text2table`` module executes. What numpy and scipy load in turn is theirs:
numpy's Fortran tooling, for one, loads ``charset_normalizer`` when it is
installed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import text2table

ALLOWED = {"numpy", "scipy"}

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
print(json.dumps({"modules": names, "imported": imported}))
"""


def test_package_imports_only_numpy_and_scipy():
    src = str(Path(text2table.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env, check=True)
    out = json.loads(run.stdout)
    assert "text2table.cli.main" in out["modules"] and "text2table.numerics.ops" in out["modules"]
    third_party = {m for m in out["imported"] if m not in sys.stdlib_module_names and m != "text2table"}
    assert third_party == ALLOWED, sorted(third_party)
