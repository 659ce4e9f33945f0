"""The ``REPRO_SCRATCH_DEBUG=1`` scratch-pool borrow checker.

The pooled ``scratch()`` buffers are keyed by ``(tag, shape)``; two
live borrows of one key silently alias the same memory.  Debug mode
turns the contract into an enforced borrow discipline: overlapping
borrows raise :class:`ScratchAliasError` and releases poison the
buffer so use-after-release reads loudly-wrong residues.

The library-path tests here are regressions for the tag collisions the
checker flushed out: before the fixes, the radix-2 NTT stage loops and
``pointwise_mac_shoup``'s accumulation loop re-borrowed their slabs
each iteration while the previous borrow was still live, and no call
site released anything — so *any* second call through a scratch-using
kernel raised under the debug pool.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nttmath import native
from repro.nttmath.batched import (
    _NTT_BLOCK_BYTES,
    SCRATCH_POISON,
    BatchedNTT,
    ScratchAliasError,
    clear_caches,
    live_scratch_borrows,
    ntt_table,
    release_scratch,
    scratch,
)
from repro.nttmath.primes import find_ntt_primes
from repro.rns.basis import RnsBasis
from repro.rns.bconv import base_convert
from repro.rns.poly import (
    RnsPolynomial,
    pointwise_mac_shoup,
    shoup_precompute,
)


@pytest.fixture
def debug_pool(monkeypatch):
    """Borrow checking on, with a clean pool before and after."""
    clear_caches()
    monkeypatch.setenv("REPRO_SCRATCH_DEBUG", "1")
    yield
    clear_caches()


def test_overlapping_borrow_raises(debug_pool):
    scratch("overlap-tag", (4, 8))
    with pytest.raises(ScratchAliasError, match="overlap-tag"):
        scratch("overlap-tag", (4, 8))


def test_distinct_keys_do_not_conflict(debug_pool):
    a = scratch("tag-a", (4, 8))
    b = scratch("tag-a", (4, 16))      # same tag, different shape
    c = scratch("tag-b", (4, 8))
    assert a is not b and a is not c
    assert len(live_scratch_borrows()) == 3


def test_release_poisons_buffer(debug_pool):
    buf = scratch("poison-tag", (2, 4))
    buf.fill(7)
    release_scratch("poison-tag", (2, 4))
    assert (buf == SCRATCH_POISON).all(), \
        "released buffer must not retain plausible stale residues"
    # Released key is borrowable again.
    again = scratch("poison-tag", (2, 4))
    assert again is buf


def test_release_is_noop_outside_debug(monkeypatch):
    clear_caches()
    monkeypatch.delenv("REPRO_SCRATCH_DEBUG", raising=False)
    buf = scratch("plain-tag", (2, 4))
    buf.fill(7)
    release_scratch("plain-tag", (2, 4))
    assert (buf == 7).all(), "hot path must not pay for poisoning"
    scratch("plain-tag", (2, 4))       # re-borrow: no checker, no raise
    clear_caches()


# ----------------------------------------------------------------------
# Library paths that collided before the per-iteration release fixes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bits", [30, 31])
def test_ntt_paths_borrow_cleanly(debug_pool, monkeypatch, bits):
    """Forward + inverse on the numpy stages (at 30 bits, which the C
    rows could run, and at 31) twice in a row; the C kernel, which
    borrows no scratch, is switched off.  Regression: the stage loops used to
    re-borrow their half-stack slabs every iteration while live, so the
    very first 31-bit transform raised ScratchAliasError under debug,
    and any second transform raised on the never-released slabs."""
    monkeypatch.setattr(native, "_LIB", None)
    n = 64
    primes = find_ntt_primes(bits, n, 3)
    eng = BatchedNTT(n, primes)
    rng = np.random.default_rng(1)
    data = rng.integers(0, np.array(primes)[:, None],
                        (3, n), dtype=np.int64)
    for _ in range(2):
        ntt = eng.forward(data)
        back = eng.inverse(ntt)
        np.testing.assert_array_equal(back, data)
    assert live_scratch_borrows() == {}, "transform leaked borrows"


def test_block_tiled_ntt_borrows_cleanly(debug_pool, monkeypatch):
    """A stack wider than ``_NTT_BLOCK_BYTES`` on the numpy kernels:
    the transforms run block by block, each block's borrows released
    before the next, and every row still matches the per-limb kernel."""
    monkeypatch.setattr(native, "_LIB", None)
    n = 256
    primes = find_ntt_primes(30, n, 3)
    tiles = _NTT_BLOCK_BYTES // (len(primes) * n * 8) + 2
    eng = BatchedNTT(n, primes)
    assert eng._block_tiles(tiles) < tiles, "stack fits in one block"
    rng = np.random.default_rng(4)
    data = rng.integers(0, np.array(primes * tiles)[:, None],
                        (tiles * len(primes), n), dtype=np.int64)
    ntt = eng.forward(data)
    want = np.stack([ntt_table(n, primes[r % len(primes)]).forward(row)
                     for r, row in enumerate(data)])
    np.testing.assert_array_equal(ntt, want)
    np.testing.assert_array_equal(eng.inverse(ntt), data)
    assert live_scratch_borrows() == {}, "block loop leaked borrows"


def test_mac_path_borrows_cleanly(debug_pool):
    """Multi-term Shoup MAC twice.  Regression: the accumulation loop
    re-borrowed mac_x/mac_hi/mac_term per term while live, so any MAC
    over two or more operands raised under the debug pool."""
    n = 32
    basis = RnsBasis(find_ntt_primes(30, n, 2))
    rng = np.random.default_rng(2)
    polys, tables, expected = [], [], 0
    for _ in range(3):
        a = RnsPolynomial(basis, rng.integers(
            0, basis.q_col, (2, n), dtype=np.int64), is_ntt=True)
        t = RnsPolynomial(basis, rng.integers(
            0, basis.q_col, (2, n), dtype=np.int64), is_ntt=True)
        polys.append(a)
        tables.append(shoup_precompute(t))
        expected = (expected + a.data.astype(object)
                    * t.data.astype(object)) % basis.q_col
    for _ in range(2):
        out = pointwise_mac_shoup(polys, tables, basis, is_ntt=True)
        np.testing.assert_array_equal(
            out.data, expected.astype(np.int64))
    assert live_scratch_borrows() == {}, "MAC leaked borrows"


def test_base_convert_borrows_cleanly(debug_pool):
    """Fast BConv twice: bcv_x/bcv_hi/bcv_v must be released (bcv_v by
    the caller after the weighted sums)."""
    n = 32
    primes = find_ntt_primes(30, n, 4)
    src = RnsBasis(primes[:2])
    dst = RnsBasis(primes[2:])
    rng = np.random.default_rng(3)
    poly = RnsPolynomial(src, rng.integers(
        0, src.q_col, (2, n), dtype=np.int64), is_ntt=False)
    first = base_convert(poly, dst)
    second = base_convert(poly, dst)
    np.testing.assert_array_equal(first.data, second.data)
    assert live_scratch_borrows() == {}, "BConv leaked borrows"
