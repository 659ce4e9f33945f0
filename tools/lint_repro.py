#!/usr/bin/env python
"""Repo-specific invariant lint (AST-based, stdlib-only).

Four rules, each encoding a determinism/hygiene invariant the test
suite cannot express locally because the failure shows up far from the
cause:

``E001`` — every module-level cache (an uppercase binding whose name
    contains ``CACHE`` bound to a ``dict``/``list`` display or a
    ``dict()``/``list()``/``OrderedDict()`` call) must be clearable:
    the module has to call ``register_cache_clearer(...)`` or define
    ``clear_caches``.  Unregistered caches leak state across tests and
    across :func:`repro.nttmath.batched.clear_caches` boundaries.

``E002`` — no ``os.environ`` / ``os.getenv`` reads outside
    ``core/env.py``.  All environment parsing goes through the
    validated helpers in :mod:`repro.core.env` so malformed values
    fail loudly in exactly one place.

``E003`` — no ``random``/``datetime`` imports and no ``time.time()``
    calls in the plan-build and store-keying modules
    (``compiler/exec_plan.py``, ``exp/store.py``).  Plan construction
    and artifact keys must be pure functions of their inputs or the
    content-addressed store silently stops deduplicating.

``E004`` — no module under ``src/`` imports ``tests`` or ``oracles``.
    The test-only oracles (``tests/oracles/``) are importable only
    with ``tests/`` on ``sys.path``, so an installed package that
    imported them would fail at import time, and an oracle the shipped
    code leans on stops being independent of it.

Usage::

    python tools/lint_repro.py src

Prints ``path:line: CODE message`` per finding; exits 1 if any.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: Modules where each rule does not apply (path suffixes, ``/``-sep).
E002_EXEMPT = ("core/env.py",)
#: Modules rule E003 is scoped *to* (determinism-critical paths).
E003_SCOPE = ("compiler/exec_plan.py", "exp/store.py")
#: Top-level packages that only the test suite may import (rule E004).
E004_TEST_ONLY = ("tests", "oracles")


def _is_cache_binding(node: ast.AST) -> str | None:
    """Return the bound name for a module-level cache assignment."""
    if isinstance(node, ast.Assign):
        targets, value = node.targets, node.value
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        targets, value = [node.target], node.value
    else:
        return None
    container = isinstance(value, (ast.Dict, ast.List)) or (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id in ("dict", "list", "OrderedDict"))
    if not container:
        return None
    for target in targets:
        if (isinstance(target, ast.Name) and target.id.isupper()
                and "CACHE" in target.id):
            return target.id
    return None


def _module_registers_clearer(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "register_cache_clearer"):
            return True
        if (isinstance(node, ast.FunctionDef)
                and node.name == "clear_caches"):
            return True
    return False


def _check_e001(path: Path, tree: ast.Module, findings: list) -> None:
    caches = [(node.lineno, name) for node in tree.body
              if (name := _is_cache_binding(node))]
    if caches and not _module_registers_clearer(tree):
        for lineno, name in caches:
            findings.append(
                (path, lineno, "E001",
                 f"module-level cache {name} has no clearer: call "
                 f"register_cache_clearer(...) or define "
                 f"clear_caches()"))


def _check_e002(path: Path, tree: ast.Module, findings: list) -> None:
    if str(path).replace("\\", "/").endswith(E002_EXEMPT):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        base = node.value
        if (isinstance(base, ast.Name) and base.id == "os"
                and node.attr in ("environ", "getenv")):
            findings.append(
                (path, node.lineno, "E002",
                 f"os.{node.attr} read outside core/env.py; use the "
                 f"validated repro.core.env helpers"))


def _check_e003(path: Path, tree: ast.Module, findings: list) -> None:
    if not str(path).replace("\\", "/").endswith(E003_SCOPE):
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in ("random", "datetime"):
                    findings.append(
                        (path, node.lineno, "E003",
                         f"import {alias.name} in a "
                         f"determinism-critical module"))
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if root in ("random", "datetime"):
                findings.append(
                    (path, node.lineno, "E003",
                     f"from {node.module} import ... in a "
                     f"determinism-critical module"))
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "time"
              and isinstance(node.func.value, ast.Name)
              and node.func.value.id == "time"):
            findings.append(
                (path, node.lineno, "E003",
                 "time.time() call in a determinism-critical module"))


def _check_e004(path: Path, tree: ast.Module, findings: list) -> None:
    if "src" not in path.parts:
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        for name in names:
            if name.split(".")[0] in E004_TEST_ONLY:
                findings.append(
                    (path, node.lineno, "E004",
                     f"import of test-only {name} under src/"))


CHECKS = (_check_e001, _check_e002, _check_e003, _check_e004)


def lint_paths(roots: list[str]) -> list[tuple[Path, int, str, str]]:
    findings: list[tuple[Path, int, str, str]] = []
    for root in roots:
        root_path = Path(root)
        files = ([root_path] if root_path.is_file()
                 else sorted(root_path.rglob("*.py")))
        for path in files:
            try:
                tree = ast.parse(path.read_text(), filename=str(path))
            except SyntaxError as exc:
                findings.append((path, exc.lineno or 0, "E000",
                                 f"syntax error: {exc.msg}"))
                continue
            for check in CHECKS:
                check(path, tree, findings)
    return findings


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print("usage: python tools/lint_repro.py PATH [PATH ...]",
              file=sys.stderr)
        return 2
    findings = lint_paths(argv)
    for path, lineno, code, message in findings:
        print(f"{path}:{lineno}: {code} {message}")
    if findings:
        print(f"{len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
