"""The native NTT kernel's loader and the canonical-input check.

Every way the first-use build can fail must leave the engine on its
numpy kernels with exactly one :class:`RuntimeWarning` naming the
reason, and the results bitwise unchanged.  Two spawn-context processes
building the same source hash at once must both end with a working
library (the build renames a finished temp file into place).

Under ``REPRO_VERIFY=1`` an ``assume_reduced=True`` transform input
that is not canonical residues raises :class:`NonCanonicalInputError`
naming the row — unchecked, the C kernel would read a negative int64
as a huge unsigned value and return garbage without any error.
"""

from __future__ import annotations

import multiprocessing
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.nttmath import native
from repro.nttmath.batched import (
    BatchedNTT,
    NonCanonicalInputError,
    clear_caches,
    ntt_table,
)
from repro.nttmath.primes import find_ntt_primes

N = 64
PRIMES = tuple(find_ntt_primes(30, N, 3))


def _stack(k: int = 2, seed: int = 5) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, np.array(PRIMES * k)[:, None],
                        size=(k * len(PRIMES), N), dtype=np.int64)


def _matches_reference(engine: BatchedNTT, stack: np.ndarray) -> bool:
    fwd = engine.forward(stack)
    want = np.stack([ntt_table(N, PRIMES[r % len(PRIMES)]).forward(row)
                     for r, row in enumerate(stack)])
    return (np.array_equal(fwd, want)
            and np.array_equal(engine.inverse(fwd), stack))


# ----------------------------------------------------------------------
# Loader fallback
# ----------------------------------------------------------------------
@pytest.fixture
def first_use(monkeypatch, tmp_path):
    """The loader back in its never-loaded state, building into a
    private cache directory."""
    monkeypatch.setattr(native, "_LIB", native._UNSET)
    monkeypatch.setattr(native, "cache_dir", lambda: tmp_path / "cache")
    return monkeypatch


def _assert_falls_back(reason: str) -> None:
    """First use warns once naming ``reason``, the engine runs numpy
    and stays bitwise right; later calls stay silent."""
    engine = BatchedNTT(N, PRIMES)
    with pytest.warns(RuntimeWarning) as record:
        assert _matches_reference(engine, _stack())
    assert len(record) == 1
    assert reason in str(record[0].message)
    assert native.kernel() is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _matches_reference(engine, _stack(k=3))


def test_fallback_without_cc(first_use, tmp_path):
    (tmp_path / "bin").mkdir()
    first_use.setenv("PATH", str(tmp_path / "bin"))
    _assert_falls_back("`cc` is not on PATH")


needs_cc = pytest.mark.skipif(shutil.which("cc") is None,
                              reason="no `cc` on PATH: the build stops "
                                     "before this failure")


@needs_cc
def test_fallback_on_compile_error(first_use, tmp_path):
    broken = tmp_path / "ntt.c"
    broken.write_text("int ntt_forward(void) { return }\n")
    first_use.setattr(native, "SOURCE", broken)
    _assert_falls_back("failed to compile ntt.c")


@needs_cc
def test_fallback_on_unwritable_cache_dir(first_use, tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    first_use.setattr(native, "cache_dir", lambda: blocker / "cache")
    _assert_falls_back("is not writable")


def test_fallback_without_cache_dir(first_use):
    def no_home():
        raise RuntimeError("Could not determine home directory.")
    first_use.setattr(native, "cache_dir", no_home)
    _assert_falls_back("cannot determine cache directory")


def test_fallback_without_source(first_use, tmp_path):
    first_use.setattr(native, "SOURCE", tmp_path / "missing.c")
    _assert_falls_back("cannot read")


def test_fallback_on_load_failure(first_use, tmp_path):
    target = native.library_path(native.SOURCE, tmp_path / "cache")
    target.parent.mkdir(parents=True)
    target.write_bytes(b"not a shared library")
    _assert_falls_back("loading the built library failed")


def _build_and_check(cache: str, barrier, results) -> None:
    """Spawn worker: build into ``cache`` in step with its sibling,
    then run the transforms on whatever library it loaded."""
    barrier.wait(timeout=60)
    lib = native.load(cache=Path(cache))
    native._LIB = lib
    results.put(lib is not None
                and _matches_reference(BatchedNTT(N, PRIMES), _stack()))


def test_concurrent_builds_both_load_a_working_library(tmp_path):
    if native.kernel() is None:
        pytest.skip("native NTT kernel unavailable here")
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(2)
    results = ctx.Queue()
    procs = [ctx.Process(target=_build_and_check,
                         args=(str(tmp_path), barrier, results))
             for _ in range(2)]
    for proc in procs:
        proc.start()
    outcomes = [results.get(timeout=120) for _ in procs]
    for proc in procs:
        proc.join(timeout=60)
        assert not proc.is_alive()
        assert proc.exitcode == 0
    assert outcomes == [True, True]
    assert [p.name for p in tmp_path.iterdir()] == [
        native.library_path(native.SOURCE, tmp_path).name]


# ----------------------------------------------------------------------
# Canonical-input check under REPRO_VERIFY=1
# ----------------------------------------------------------------------
@pytest.fixture
def verify_on(monkeypatch):
    monkeypatch.setenv("REPRO_VERIFY", "1")
    clear_caches()
    yield
    monkeypatch.delenv("REPRO_VERIFY")
    clear_caches()


@pytest.mark.parametrize("op", ["forward", "inverse"])
@pytest.mark.parametrize("bad", [-1, "q"])
def test_verify_rejects_noncanonical_row(ntt_impl, verify_on, op, bad):
    """Mutation: one residue of a canonical 2-tile stack pushed out of
    range; the error names that row."""
    engine = BatchedNTT(N, PRIMES)
    stack = _stack()
    row = 4
    stack[row, 9] = PRIMES[row % len(PRIMES)] if bad == "q" else bad
    with pytest.raises(NonCanonicalInputError, match=f"row {row} "):
        getattr(engine, op)(stack, assume_reduced=True)
    # the reducing entry accepts the same stack
    getattr(engine, op)(stack)


def test_verify_accepts_canonical_rows(ntt_impl, verify_on):
    engine = BatchedNTT(N, PRIMES)
    stack = _stack()
    assert np.array_equal(engine.forward(stack, assume_reduced=True),
                          engine.forward(stack))


def test_verify_flag_is_sampled_once(monkeypatch):
    """With the flag off the check is one cached global read: setting
    the variable later has no effect until ``clear_caches()``."""
    monkeypatch.delenv("REPRO_VERIFY", raising=False)
    clear_caches()
    engine = BatchedNTT(N, PRIMES)
    stack = _stack()
    stack[0, 0] = -1
    engine.forward(stack, assume_reduced=True)
    monkeypatch.setenv("REPRO_VERIFY", "1")
    engine.forward(stack, assume_reduced=True)
    clear_caches()
    with pytest.raises(NonCanonicalInputError, match="row 0 "):
        engine.forward(stack, assume_reduced=True)
    monkeypatch.delenv("REPRO_VERIFY")
    clear_caches()
