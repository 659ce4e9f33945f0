"""Repository-wide pytest configuration: the tier split.

Tier 1 (``python -m pytest -x -q``) must stay fast: it runs the
functional suite under ``tests/`` and skips everything marked ``bench``
(all of ``benchmarks/``, which regenerate paper tables and time
kernels) or ``slow``.  Opt back in with ``--run-bench`` /
``--run-slow`` or the ``REPRO_RUN_BENCH=1`` / ``REPRO_RUN_SLOW=1``
environment variables (handy for CI matrix entries).

The ``ntt_impl`` fixture, shared by both tiers, runs a test once per
implementation of the native kernel library (NTT, plan replay and key
switch); ``each_impl`` runs part of one test once per implementation.
"""

from __future__ import annotations

import os
import pathlib

import pytest

_BENCH_DIR = pathlib.Path(__file__).resolve().parent / "benchmarks"


def pytest_addoption(parser):
    parser.addoption(
        "--run-bench", action="store_true", default=False,
        help="run benchmark-tier tests (everything under benchmarks/)")
    parser.addoption(
        "--run-slow", action="store_true", default=False,
        help="run tests marked slow")


def pytest_collection_modifyitems(config, items):
    run_bench = (config.getoption("--run-bench")
                 or os.environ.get("REPRO_RUN_BENCH") == "1")
    run_slow = (config.getoption("--run-slow")
                or os.environ.get("REPRO_RUN_SLOW") == "1")
    skip_bench = pytest.mark.skip(
        reason="benchmark tier: pass --run-bench or REPRO_RUN_BENCH=1")
    skip_slow = pytest.mark.skip(
        reason="slow test: pass --run-slow or REPRO_RUN_SLOW=1")
    for item in items:
        path = pathlib.Path(str(item.fspath)).resolve()
        if _BENCH_DIR in path.parents:
            item.add_marker(pytest.mark.bench)
        if not run_bench and item.get_closest_marker("bench"):
            item.add_marker(skip_bench)
        if not run_slow and item.get_closest_marker("slow"):
            item.add_marker(skip_slow)


@pytest.fixture(params=["native", "numpy"])
def ntt_impl(request, monkeypatch) -> str:
    """Run a test once per implementation of the native kernel library,
    which holds the NTT, plan-replay and key-switch kernels: ``native``
    (the C library, skipped when it is unavailable here) and ``numpy``
    (the loader forced to report "unavailable", so every numpy kernel
    runs)."""
    from repro.nttmath import native
    if request.param == "numpy":
        monkeypatch.setattr(native, "_LIB", None)
    elif native.kernel() is None:
        pytest.skip("native kernels unavailable: no working `cc` or "
                    "cache directory (see the loader's RuntimeWarning)")
    return request.param


@pytest.fixture
def each_impl(monkeypatch):
    """Run part of one test once per implementation of the native
    kernel library: ``for impl in each_impl(): ...`` runs the loop body
    with ``"native"`` (only when the library loaded here) and then
    ``"numpy"`` in force, selected as ``ntt_impl`` selects them, and
    puts the library back when the loop completes."""
    from repro.nttmath import native

    def impls():
        lib = native.kernel()
        if lib is not None:
            yield "native"
        monkeypatch.setattr(native, "_LIB", None)
        yield "numpy"
        monkeypatch.setattr(native, "_LIB", lib)

    return impls
