"""The native key-switch kernels against their numpy twins.

``ks_mac``, ``bconv`` and ``mod_down_tail`` (``nttmath/native/ntt.c``)
must give the same bits as the numpy code they replace —
:func:`repro.schemes.rns_core.key_mac`,
:func:`repro.rns.bconv.base_convert_stack` and
:func:`repro.schemes.rns_core.mod_down_tail` with the library forced
unavailable — and both must equal the plain ``%`` arithmetic, on random
canonical residues with 0 and ``q - 1`` planted, over moduli up to
``2^31 - 1`` (without the library, the twins still face the plain
arithmetic).  The key MAC reads a rotation through its permutation, so
it runs under the identity, every rotation step of the benchmark's BSGS
step and the conjugation.

Under ``REPRO_VERIFY=1`` a non-canonical row at the key MAC or BConv
entry raises :class:`NonCanonicalInputError` naming the row, under both
implementations.  A traced hoisted rotation counts the same kernel rows
under both, and its ``ks.mac`` / ``ks.moddown`` spans name the one that
ran.
"""

from __future__ import annotations

import ctypes

import numpy as np
import pytest

from repro import obs
from repro.nttmath import native
from repro.nttmath.batched import (
    BatchedNTT,
    NonCanonicalInputError,
    clear_caches,
    shoup_companion,
)
from repro.nttmath.ntt import conjugation_element, galois_element
from repro.nttmath.primes import find_ntt_primes, is_prime
from repro.rns.basis import RnsBasis
from repro.rns.bconv import _native_tables, base_convert, base_convert_stack
from repro.rns.poly import RnsPolynomial
from repro.schemes.rns_core import CiphertextBatch, key_mac, mod_down_tail

N = 64
#: Rotation steps of the benchmark's BSGS step.
STEPS = (1, 2, 3, 4, 6, 8, 12, 16)
DNUM = 4


def _top_primes(count: int) -> list[int]:
    """The ``count`` largest primes below ``2^31`` (``2^31 - 1`` first)."""
    out, q = [], (1 << 31) - 1
    while len(out) < count:
        if is_prime(q):
            out.append(q)
        q -= 2
    return out


#: Ext-basis moduli: the widest the kernels take, a tiny one and the
#: 30-bit NTT primes the evaluator uses.
EXT = RnsBasis(_top_primes(2) + [17] + find_ntt_primes(30, N, 3))


def _canonical(rng, q_col: np.ndarray, tiles: int, n: int = N
               ) -> np.ndarray:
    """Random residues of a ``(tiles*L, n)`` stack over ``q_col``, with
    0 and ``q - 1`` planted in every row."""
    q = np.tile(q_col, (tiles, 1))
    out = rng.integers(0, q, size=(q.shape[0], n), dtype=np.int64)
    out[:, 0] = 0
    out[:, -1] = q[:, 0] - 1
    return out


def _key_tables(rng, beta: int, n: int = N) -> tuple:
    """Digit-stacked ``((b, b_sh), (a, a_sh))`` tables over ``EXT``."""
    q_u = np.tile(EXT.q_col, (beta, 1)).astype(np.uint64)
    tables = []
    for _ in range(2):
        t = _canonical(rng, EXT.q_col, beta, n).astype(np.uint64)
        tables.append((t, shoup_companion(t, q_u)))
    return tuple(tables)


def _both(monkeypatch, fn):
    """``fn()`` with the native library (the numpy twins when it is not
    available here), then with the numpy twins."""
    lib = native.kernel()
    got = fn()
    monkeypatch.setattr(native, "_LIB", None)
    want = fn()
    monkeypatch.setattr(native, "_LIB", lib)
    return got, want


@pytest.fixture
def lib():
    library = native.kernel()
    if library is None:
        pytest.skip("native kernels unavailable here")
    return library


@pytest.fixture
def engine():
    """An engine of the ring degree: the automorphism permutation it
    yields does not depend on the moduli."""
    return BatchedNTT(N, find_ntt_primes(30, N, 1))


def _mac_reference(x, tables, k, perm) -> np.ndarray:
    """The key MAC in plain ``%`` arithmetic."""
    q = EXT.q_col
    limbs = len(EXT)
    out = []
    x4 = x.reshape(k, -1, limbs, N)[..., perm]
    for t, _ in tables:
        key = t.astype(np.int64).reshape(-1, limbs, N)
        out.append((x4 * key % q).sum(axis=1) % q)
    return np.stack(out, axis=1).reshape(-1, N)


# ----------------------------------------------------------------------
# ks_mac
# ----------------------------------------------------------------------
@pytest.mark.parametrize("k", [1, 3, 8])
@pytest.mark.parametrize("beta", range(1, DNUM + 1))
def test_ks_mac_matches_numpy_twin(engine, monkeypatch, k, beta):
    rng = np.random.default_rng(100 * k + beta)
    x = _canonical(rng, EXT.q_col, k * beta)
    tables = _key_tables(rng, beta)
    elts = [None, conjugation_element(N)] + [galois_element(s, N)
                                             for s in STEPS]
    for g in elts:
        auto = None if g is None else (engine, g)
        got, want = _both(monkeypatch,
                          lambda: key_mac(x, tables, EXT, k, auto=auto))
        perm = np.arange(N) if g is None else engine.automorphism_index(g)
        np.testing.assert_array_equal(got, want, err_msg=f"g={g}")
        np.testing.assert_array_equal(
            got, _mac_reference(x, tables, k, perm), err_msg=f"g={g}")


def test_ks_mac_spans_several_column_blocks(lib, monkeypatch):
    """n = 4096 runs the kernel's column blocks back to back."""
    n = 4096
    rng = np.random.default_rng(4)
    k, beta = 2, 3
    ext = RnsBasis(find_ntt_primes(30, n, 2))
    q_u = np.tile(ext.q_col, (beta, 1)).astype(np.uint64)
    tables = []
    for _ in range(2):
        t = rng.integers(0, q_u, size=(beta * 2, n), dtype=np.uint64)
        tables.append((t, shoup_companion(t, q_u)))
    x = rng.integers(0, np.tile(ext.q_col, (k * beta, 1)),
                     size=(k * beta * 2, n), dtype=np.int64)
    auto = (BatchedNTT(n, ext.primes), galois_element(5, n))
    got, want = _both(monkeypatch, lambda: key_mac(x, tuple(tables), ext,
                                                   k, auto=auto))
    np.testing.assert_array_equal(got, want)


def test_ks_mac_rejects_bad_permutation_without_writing(lib):
    rng = np.random.default_rng(5)
    (b, b_sh), (a, a_sh) = _key_tables(rng, 1)
    x = _canonical(rng, EXT.q_col, 1)
    out = np.zeros((2 * len(EXT), N), dtype=np.uint64)
    q_u = EXT.q_col.astype(np.uint64)
    for bad in (-1, N):
        perm = np.arange(N, dtype=np.int64)
        perm[7] = bad
        assert lib.ks_mac(out, x, 1, 1, len(EXT), N, q_u, b, b_sh, a,
                          a_sh, perm) == 1
        assert not out.any()


# ----------------------------------------------------------------------
# bconv
# ----------------------------------------------------------------------
def _evaluator_pairs(ctx) -> list[tuple[RnsBasis, RnsBasis]]:
    """Every (from, to) basis pair the evaluator converts between: each
    digit into the rest of its level's ext basis, and P into Q."""
    pairs = []
    for level in range(ctx.max_level + 1):
        ext = ctx.ext_basis(level)
        for j in range(ctx.num_digits(level)):
            primes = ctx.digit_primes(j, level)
            pairs.append((RnsBasis(primes), RnsBasis(
                [p for p in ext.primes if p not in primes])))
        pairs.append((ctx.p_basis, ctx.q_basis(level)))
    return pairs


@pytest.mark.parametrize("k", [1, 8])
def test_bconv_matches_numpy_twin_on_evaluator_pairs(ckks_small,
                                                     monkeypatch, k):
    rng = np.random.default_rng(k)
    n = ckks_small.ctx.n
    pairs = _evaluator_pairs(ckks_small.ctx)
    pairs.append((RnsBasis(_top_primes(3)), RnsBasis(_top_primes(6)[3:]
                                                     + [17])))
    for src, dst in pairs:
        stack = _canonical(rng, src.q_col, k, n)
        got, want = _both(monkeypatch, lambda: base_convert_stack(
            stack, src, dst, k))
        assert got.shape == (k * len(dst), n)
        np.testing.assert_array_equal(got, want, err_msg=f"{src}->{dst}")
        ref = np.concatenate([base_convert(RnsPolynomial(
            src, stack[i * len(src):(i + 1) * len(src)], is_ntt=False),
            dst).data for i in range(k)])
        np.testing.assert_array_equal(got, ref, err_msg=f"{src}->{dst}")


# ----------------------------------------------------------------------
# mod_down_tail
# ----------------------------------------------------------------------
@pytest.mark.parametrize("halves", [2, 16])
def test_mod_down_tail_matches_numpy_twin(monkeypatch, halves):
    rng = np.random.default_rng(halves)
    q_basis = RnsBasis(list(EXT.primes[:4]))
    p_value = 2 ** 61 - 1
    acc = _canonical(rng, EXT.q_col, halves)
    corr = _canonical(rng, q_basis.q_col, halves)
    got, want = _both(monkeypatch, lambda: mod_down_tail(
        acc, corr.copy(), q_basis, p_value, halves))
    np.testing.assert_array_equal(got, want)
    q = np.tile(q_basis.q_col, (halves, 1))
    inv = np.tile([[pow(p_value, -1, int(p))] for p in q_basis.primes],
                  (halves, 1))
    acc_q = acc.reshape(halves, len(EXT), N)[:, :4].reshape(-1, N)
    np.testing.assert_array_equal(got, (acc_q - corr) % q * inv % q)


def test_mod_down_tail_writes_into_the_correction(lib):
    """The native tail allocates no output stack."""
    rng = np.random.default_rng(3)
    q_basis = RnsBasis(list(EXT.primes[:2]))
    acc = _canonical(rng, EXT.q_col, 2)
    corr = _canonical(rng, q_basis.q_col, 2)
    assert mod_down_tail(acc, corr, q_basis, 7, 2) is corr


# ----------------------------------------------------------------------
# argtypes
# ----------------------------------------------------------------------
def test_argtypes_reject_wrong_dtype_and_layout_without_writing(lib):
    rng = np.random.default_rng(9)
    q_basis = RnsBasis(list(EXT.primes[:2]))
    src, dst = RnsBasis(_top_primes(2)), q_basis
    tabs = _native_tables(src, dst)
    stack = _canonical(rng, src.q_col, 1)
    (b, b_sh), (a, a_sh) = _key_tables(rng, 1)
    x = _canonical(rng, EXT.q_col, 1)
    q_u = EXT.q_col.astype(np.uint64)
    inv_u = q_basis.q_col.astype(np.uint64) - np.uint64(1)
    acc_out = np.zeros((2 * len(EXT), N), dtype=np.uint64)
    out = np.zeros((2, N), dtype=np.int64)
    strided = np.zeros((2, 2 * N), dtype=np.int64)[:, ::2]
    calls = [
        (acc_out, lambda o: lib.ks_mac(o, x, 1, 1, len(EXT), N, q_u, b,
                                       b_sh, a, a_sh, None)),
        (out, lambda o: lib.bconv(o, stack, 1, 2, 2, N, *tabs)),
        (out, lambda o: lib.mod_down_tail(o, stack, 1, 2, 2, N,
                                          q_basis.q_col.astype(np.uint64),
                                          inv_u, inv_u)),
    ]
    for target, call in calls:
        for bad in (target.astype(np.int32), target.astype(np.float64),
                    strided if target.dtype == np.int64
                    else strided.view(np.uint64)):
            with pytest.raises(ctypes.ArgumentError):
                call(bad)
            assert not bad.any()
    # a wrong-dtype or strided input is refused the same way
    with pytest.raises(ctypes.ArgumentError):
        lib.bconv(out, stack.astype(np.uint64), 1, 2, 2, N, *tabs)
    with pytest.raises(ctypes.ArgumentError):
        lib.ks_mac(acc_out, x, 1, 1, len(EXT), N, q_u, b, b_sh, a, a_sh,
                   np.arange(2 * N)[::2])
    assert not out.any() and not acc_out.any()


# ----------------------------------------------------------------------
# REPRO_VERIFY=1 at the key MAC and BConv entries
# ----------------------------------------------------------------------
@pytest.fixture
def verify_on(monkeypatch):
    monkeypatch.setenv("REPRO_VERIFY", "1")
    clear_caches()
    yield
    monkeypatch.delenv("REPRO_VERIFY")
    clear_caches()


@pytest.mark.parametrize("bad", [-1, "q"])
def test_verify_rejects_noncanonical_key_mac_input(ntt_impl, verify_on,
                                                   bad):
    """Mutation: one digit residue pushed out of range."""
    rng = np.random.default_rng(6)
    k, beta = 2, 2
    x = _canonical(rng, EXT.q_col, k * beta)
    row = len(EXT) + 2
    x[row, 9] = EXT.primes[2] if bad == "q" else bad
    with pytest.raises(NonCanonicalInputError, match=f"key_mac: row {row} "):
        key_mac(x, _key_tables(rng, beta), EXT, k)


@pytest.mark.parametrize("bad", [-1, "q"])
def test_verify_rejects_noncanonical_bconv_input(ntt_impl, verify_on, bad):
    rng = np.random.default_rng(7)
    src, dst = RnsBasis(EXT.primes[:3]), RnsBasis(EXT.primes[3:])
    stack = _canonical(rng, src.q_col, 3)
    row = 4
    stack[row, 5] = src.primes[1] if bad == "q" else bad
    with pytest.raises(NonCanonicalInputError, match=f"bconv: row {row} "):
        base_convert_stack(stack, src, dst, 3)
    stack[row, 5] = 0
    base_convert_stack(stack, src, dst, 3)


# ----------------------------------------------------------------------
# Attribution: same rows under both implementations
# ----------------------------------------------------------------------
def test_traced_hoisted_rotation_counts_match_across_impls(ckks_small,
                                                           monkeypatch,
                                                           rng):
    ev = ckks_small.ev
    cts = [ckks_small.encrypt(ckks_small.random_message(rng))
           for _ in range(2)]
    batch = CiphertextBatch.from_ciphertexts(cts)
    was = obs.TRACER.enabled
    obs.TRACER.drain()
    runs = {}
    try:
        for impl in ("native", "numpy"):
            if impl == "numpy":
                monkeypatch.setattr(native, "_LIB", None)
            elif native.kernel() is None:
                continue
            clear_caches()
            obs.TRACER.enabled = True
            out = ev.batch_rotate_hoisted(batch, [1, 2, 5])
            obs.TRACER.enabled = False
            events, counters = obs.TRACER.drain()
            runs[impl] = (out, events, counters)
    finally:
        obs.TRACER.enabled = was
        obs.TRACER.drain()
    impls = {"native": "c", "numpy": "numpy"}
    for impl, (_, events, counters) in runs.items():
        spans = [ev for ev in events
                 if ev[obs.EV_NAME] in ("ks.mac", "ks.moddown")]
        assert len(spans) == 6
        assert {ev[obs.EV_ATTRS]["impl"] for ev in spans} == {impls[impl]}
        assert counters["auto.rows"] > 0 and counters["bconv.rows"] > 0
    if "native" in runs:
        (got, _, c_native), (want, _, c_numpy) = (runs["native"],
                                                  runs["numpy"])
        for key in ("ntt.rows", "intt.rows", "auto.rows", "bconv.rows"):
            assert c_native.get(key) == c_numpy.get(key), key
        for step, b in got.items():
            assert np.array_equal(b.stack, want[step].stack), step
