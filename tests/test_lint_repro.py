"""The repo invariant lint: clean over src/, and each rule fires on a
synthetic violation."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "lint_repro", REPO / "tools" / "lint_repro.py")
lint_repro = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint_repro)


def _lint_source(tmp_path, source: str, name: str = "mod.py"):
    path = tmp_path / name
    path.write_text(source)
    return lint_repro.lint_paths([str(path)])


def codes(findings) -> set[str]:
    return {code for _, _, code, _ in findings}


def test_src_tree_is_clean():
    assert lint_repro.lint_paths([str(REPO / "src")]) == []


def test_tools_and_cli_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert lint_repro.main([str(clean)]) == 0
    assert lint_repro.main([]) == 2


def test_e001_unregistered_cache(tmp_path):
    findings = _lint_source(tmp_path, "_PLAN_CACHE = {}\n")
    assert codes(findings) == {"E001"}
    findings = _lint_source(
        tmp_path,
        "from collections import OrderedDict\n"
        "_W_CACHE = OrderedDict()\n")
    assert codes(findings) == {"E001"}


def test_e001_registered_cache_passes(tmp_path):
    src = ("_PLAN_CACHE = {}\n"
           "register_cache_clearer(_PLAN_CACHE.clear)\n")
    assert _lint_source(tmp_path, src) == []
    src = ("_PLAN_CACHE = {}\n"
           "def clear_caches():\n    _PLAN_CACHE.clear()\n")
    assert _lint_source(tmp_path, src) == []


def test_e001_ignores_non_cache_and_lowercase(tmp_path):
    assert _lint_source(tmp_path, "CACHE_MAX = 64\n") == []
    assert _lint_source(tmp_path, "my_cache = {}\n") == []


def test_e002_environ_read(tmp_path):
    findings = _lint_source(
        tmp_path, "import os\nx = os.environ.get('HOME')\n")
    assert codes(findings) == {"E002"}
    findings = _lint_source(
        tmp_path, "import os\nx = os.getenv('HOME')\n")
    assert codes(findings) == {"E002"}


def test_e002_env_module_exempt(tmp_path):
    envdir = tmp_path / "core"
    envdir.mkdir()
    path = envdir / "env.py"
    path.write_text("import os\nx = os.environ.get('HOME')\n")
    assert lint_repro.lint_paths([str(path)]) == []


def test_e003_scoped_to_determinism_critical_modules(tmp_path):
    bad = ("import random\n"
           "import time\n"
           "t = time.time()\n")
    # Outside the scoped modules the same source is fine.
    assert _lint_source(tmp_path, bad, name="other.py") == []
    moddir = tmp_path / "compiler"
    moddir.mkdir()
    path = moddir / "exec_plan.py"
    path.write_text(bad)
    findings = lint_repro.lint_paths([str(path)])
    assert codes(findings) == {"E003"}
    assert len(findings) == 2          # random import + time.time()


def test_e003_datetime_from_import(tmp_path):
    moddir = tmp_path / "exp"
    moddir.mkdir()
    path = moddir / "store.py"
    path.write_text("from datetime import datetime\n")
    assert codes(lint_repro.lint_paths([str(path)])) == {"E003"}


def test_e004_src_imports_no_test_only_package(tmp_path):
    srcdir = tmp_path / "src" / "pkg"
    srcdir.mkdir(parents=True)
    for i, line in enumerate(("import oracles\n",
                              "from oracles.toy import ToyBfvScheme\n",
                              "import tests.oracles as o\n",
                              "from tests import conftest\n")):
        path = srcdir / f"mod{i}.py"
        path.write_text(line)
        assert codes(lint_repro.lint_paths([str(path)])) == {"E004"}
    # Relative imports, look-alike names and modules outside src/ pass.
    ok = srcdir / "ok.py"
    ok.write_text("from . import oracles\nimport oracles_extra\n")
    assert lint_repro.lint_paths([str(ok)]) == []
    assert _lint_source(tmp_path, "import oracles\n", name="bench.py") == []


def test_syntax_error_reported_not_crashed(tmp_path):
    findings = _lint_source(tmp_path, "def broken(:\n")
    assert codes(findings) == {"E000"}
