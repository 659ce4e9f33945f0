"""The native key-switch kernels against their numpy twins.

``ks_mac``, ``bconv``, ``mod_down_tail`` and ``batch_add_sub``
(``nttmath/native/ntt.c``) must give the same bits as the numpy code
they replace — :func:`repro.schemes.rns_core.key_mac`,
:func:`repro.rns.bconv.base_convert_stack`,
:func:`repro.schemes.rns_core.mod_down_tail` and
:func:`repro.schemes.rns_core.add_sub` with the library forced
unavailable — and both must equal the plain ``%`` arithmetic, on random
canonical residues with 0 and ``q - 1`` planted, over moduli up to
``2^31 - 1`` (without the library, the twins still face the plain
arithmetic).  The key MAC reads a rotation through its permutation, so
it runs under the identity, every rotation step of the benchmark's BSGS
step and the conjugation.

The key MAC and BConv sum whole products in uint64 and guard the sum
below ``2^63`` every ``span = floor(2^62 / (qmax * p))`` terms, so they
also run at ``2^31 - 1`` (span 1), at ``span`` and ``span + 1`` terms,
and with every residue at ``q - 1``; the key MAC also on rows its
16-column register groups do not tile.  The fast BConv sums lazy Shoup
products in 32-bit lanes into targets below ``2^30``, so it runs into
targets just below ``2^30`` and with one at ``2^30`` (the fallback), on
inputs whose every lazy product sits near ``2p``.  The key MAC's uint32
key tables come from ``SwitchingKey.stacked_tables``, which checks
each table once.  The batch add/sub/negate must
equal numpy's ``%`` on any int64 input, wraparound included, and the
ModDown tail's fused addends -- a hoisted rotation's ``sigma(c0)`` into
each pair's first half, a relinearization's ``(d0, d1)`` into both
halves -- the gather + add + conditional subtract they replace, under
the CKKS and BGV ModDowns.

Under ``REPRO_VERIFY=1`` a non-canonical row at the key MAC or BConv
entry raises :class:`NonCanonicalInputError` naming the row, under both
implementations, and a C entry reached with a modulus at or above
``2^31`` raises :class:`ShoupBoundError`.  A traced hoisted rotation
counts the same kernel rows under both, and its ``ks.mac`` /
``ks.moddown`` spans name the one that ran.
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
    ShoupBoundError,
    clear_caches,
)
from repro.nttmath.ntt import conjugation_element, galois_element
from repro.nttmath.primes import find_ntt_primes, is_prime
from repro.rns.basis import RnsBasis
from repro.rns import bconv as bconv_mod
from repro.rns.bconv import _conv_table, base_convert, base_convert_stack
from repro.rns.poly import RnsPolynomial, stacked_engine
from repro.schemes import rns_core
from repro.schemes.bgv import BgvContext, BgvParams, BgvScheme
from repro.schemes.rns_core import (
    CiphertextBatch,
    _csub_into,
    add_sub,
    key_mac,
    mod_down_tail,
)

N = 64
#: Rotation steps of the benchmark's BSGS step.
STEPS = (1, 2, 3, 4, 6, 8, 12, 16)
DNUM = 4


def _top_primes(count: int, below: int = 1 << 31) -> list[int]:
    """The ``count`` largest primes below ``below`` (for the default,
    ``2^31 - 1`` first)."""
    out, q = [], (below - 2) | 1
    while len(out) < count:
        if is_prime(q):
            out.append(q)
        q -= 2
    return out


def _span(qmax: int, p: int) -> int:
    """Terms per guard of the kernels' one-multiply sums."""
    return (1 << 62) // (qmax * p)


#: Ext-basis moduli: the widest the kernels take, a tiny one and the
#: 30-bit NTT primes the evaluator uses.
EXT = RnsBasis(_top_primes(2) + [17] + find_ntt_primes(30, N, 3))


def _canonical(rng, q_col: np.ndarray, tiles: int, n: int = N, *,
               top: bool = False) -> np.ndarray:
    """Random residues of a ``(tiles*L, n)`` stack over ``q_col``, with
    0 and ``q - 1`` planted in every row; ``top``: every residue
    ``q - 1``."""
    q = np.tile(q_col, (tiles, 1))
    if top:
        return np.repeat(q - 1, n, axis=1)
    out = rng.integers(0, q, size=(q.shape[0], n), dtype=np.int64)
    out[:, 0] = 0
    out[:, -1] = q[:, 0] - 1
    return out


def _key_tables(rng, beta: int, n: int = N, ext: RnsBasis = EXT, *,
                top: bool = False) -> tuple:
    """Digit-stacked ``(b, a)`` uint32 key tables over ``ext``, as
    :meth:`SwitchingKey.stacked_tables` narrows them."""
    return tuple(_canonical(rng, ext.q_col, beta, n, top=top)
                 .astype(np.uint32) for _ in range(2))


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


def _mac_reference(x, tables, k, perm, ext: RnsBasis = EXT) -> np.ndarray:
    """The key MAC in plain ``%`` arithmetic."""
    q = ext.q_col
    limbs = len(ext)
    n = x.shape[1]
    out = []
    x4 = x.reshape(k, -1, limbs, n)[..., perm]
    for t in tables:
        key = t.astype(np.int64).reshape(-1, limbs, n)
        out.append((x4 * key % q).sum(axis=1) % q)
    return np.stack(out, axis=1).reshape(-1, n)


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


#: Ext moduli whose one-multiply sums guard every 4, 2 and 1 digits:
#: the largest prime below 2^30, one in (2^31/sqrt(3), 2^31/sqrt(2)]
#: and 2^31 - 1.
GUARD_EXT = RnsBasis([_top_primes(1, 1 << 30)[0],
                      _top_primes(1, 1518500249)[0], (1 << 31) - 1])


def test_guard_ext_spans():
    assert [_span(q, q) for q in GUARD_EXT.primes] == [4, 2, 1]


@pytest.mark.parametrize("top", [False, True], ids=["random", "q-1"])
@pytest.mark.parametrize("k", [1, 8])
@pytest.mark.parametrize("beta", range(1, 6))
def test_ks_mac_guard_boundaries_match_numpy_twin(engine, monkeypatch, k,
                                                  beta, top):
    """beta runs through span and span + 1 of every limb of
    ``GUARD_EXT`` (1/2, 2/3, 4/5), under the identity and a rotation;
    ``q-1`` fills digits and keys with the largest residue, the largest
    sum the kernel can see."""
    rng = np.random.default_rng(10 * k + beta)
    x = _canonical(rng, GUARD_EXT.q_col, k * beta, top=top)
    tables = _key_tables(rng, beta, ext=GUARD_EXT, top=top)
    for g in (None, galois_element(3, N)):
        auto = None if g is None else (engine, g)
        got, want = _both(monkeypatch, lambda: key_mac(
            x, tables, GUARD_EXT, k, auto=auto))
        perm = np.arange(N) if g is None else engine.automorphism_index(g)
        np.testing.assert_array_equal(got, want, err_msg=f"g={g}")
        np.testing.assert_array_equal(
            got, _mac_reference(x, tables, k, perm, GUARD_EXT),
            err_msg=f"g={g}")


def test_ks_mac_spans_several_column_blocks(lib, monkeypatch):
    """n = 4096: whole rows of the kernel's register groups."""
    n = 4096
    rng = np.random.default_rng(4)
    k, beta = 2, 3
    ext = RnsBasis(find_ntt_primes(30, n, 2))
    q_u = np.tile(ext.q_col, (beta, 1)).astype(np.uint32)
    tables = [rng.integers(0, q_u, size=(beta * 2, n), dtype=np.uint32)
              for _ in range(2)]
    x = rng.integers(0, np.tile(ext.q_col, (k * beta, 1)),
                     size=(k * beta * 2, n), dtype=np.int64)
    auto = (BatchedNTT(n, ext.primes), galois_element(5, n))
    got, want = _both(monkeypatch, lambda: key_mac(x, tuple(tables), ext,
                                                   k, auto=auto))
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("n", [1, 8, 40, 72])
def test_ks_mac_partial_register_groups_match_numpy_twin(monkeypatch, n):
    """Rows narrower than the kernel's register group (16 columns) or
    not a multiple of it run its one-column tail: under the identity
    against the numpy twin, and through a permutation against plain
    ``%`` arithmetic, at spans 4, 2 and 1 with beta up to 5."""
    rng = np.random.default_rng(n)
    k, beta = 3, 5
    x = _canonical(rng, GUARD_EXT.q_col, k * beta, n)
    tables = _key_tables(rng, beta, n, GUARD_EXT)
    got, want = _both(monkeypatch, lambda: key_mac(x, tables, GUARD_EXT,
                                                   k))
    np.testing.assert_array_equal(got, want)
    lib = native.kernel()
    if lib is None:
        return
    perm = rng.permutation(n).astype(np.int64)
    out = np.empty((2 * k * len(GUARD_EXT), n), dtype=np.uint64)
    assert lib.ks_mac(out, x, k, beta, len(GUARD_EXT), n,
                      GUARD_EXT.q_col.astype(np.uint64), *tables, perm) == 0
    np.testing.assert_array_equal(
        out.view(np.int64), _mac_reference(x, tables, k, perm, GUARD_EXT))


def test_ks_mac_rejects_bad_permutation_without_writing(lib):
    rng = np.random.default_rng(5)
    b, a = _key_tables(rng, 1)
    x = _canonical(rng, EXT.q_col, 1)
    out = np.zeros((2 * len(EXT), N), dtype=np.uint64)
    q_u = EXT.q_col.astype(np.uint64)
    for bad in (-1, N):
        perm = np.arange(N, dtype=np.int64)
        perm[7] = bad
        assert lib.ks_mac(out, x, 1, 1, len(EXT), N, q_u, b, a,
                          perm) == 1
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


#: (source, target) moduli and source lengths at span and span + 1:
#: below 2^31 every term is guarded (span 1; nine terms would pass
#: 2^64 unguarded), just below 2^30 every fourth.
_GUARD_CASES = [((1 << 31), 1, (1, 2, 9)), ((1 << 30), 4, (4, 5))]


@pytest.mark.parametrize("top", [False, True], ids=["random", "q-1"])
@pytest.mark.parametrize("k", [1, 8])
@pytest.mark.parametrize("below,span,l_from",
                         [(b, s, lf) for b, s, lfs in _GUARD_CASES
                          for lf in lfs])
def test_bconv_guard_boundaries_match_numpy_twin(monkeypatch, k, below,
                                                 span, l_from, top):
    """``q-1`` picks inputs whose scaled residues ``x * q_hat^-1`` are
    all ``q - 1``, the largest terms the sum can see."""
    primes = _top_primes(l_from + 3, below)
    src, dst = RnsBasis(primes[:l_from]), RnsBasis(primes[l_from:])
    assert all(_span(max(src.primes), p) == span for p in dst.primes)
    if top:
        col = [[-q_hat % q] for q_hat, q in zip(src.q_hat, src.primes)]
        stack = np.repeat(np.tile(np.array(col, dtype=np.int64), (k, 1)),
                          N, axis=1)
    else:
        stack = _canonical(np.random.default_rng(l_from), src.q_col, k)
    got, want = _both(monkeypatch, lambda: base_convert_stack(
        stack, src, dst, k))
    np.testing.assert_array_equal(got, want)
    ref = np.concatenate([base_convert(RnsPolynomial(
        src, stack[i * l_from:(i + 1) * l_from], is_ntt=False), dst).data
        for i in range(k)])
    np.testing.assert_array_equal(got, ref)


#: Fast-BConv targets at the Shoup-lane bound: the largest primes below
#: 2^30 (each sum stays below 4p < 2^32), and the same with the
#: smallest prime above 2^30 among them, which sends the whole
#: conversion to the one-multiply sum.
_BELOW_2_30 = _top_primes(3, 1 << 30)


def _lazy_max_stack(src: RnsBasis, dst: RnsBasis, k: int) -> np.ndarray:
    """A ``(k*L_from, N)`` stack whose column ``c`` makes every term of
    target ``c % L_to`` a lazy Shoup product near its top, ``2p - 1``:
    per source row, the scaled residue ``v`` (among 2^16 candidates)
    with the largest ``v*w - floor(v*w'/2^32)*p``, sent back through
    ``x = v * q_hat mod q``."""
    rng = np.random.default_rng(23)
    rows = []
    for q_hat, q in zip(src.q_hat, src.primes):
        v = rng.integers(0, q, size=1 << 16, dtype=np.uint64)
        best = []
        for p in dst.primes:
            w = np.uint64(q_hat % p)
            w_sh = np.uint64((int(w) << 32) // p)
            t = v * w - ((v * w_sh) >> np.uint64(32)) * np.uint64(p)
            best.append(int(v[np.argmax(t)]) * q_hat % q)
        rows.append([best[c % len(best)] for c in range(N)])
    return np.tile(np.array(rows, dtype=np.int64), (k, 1))


@pytest.mark.parametrize("inputs", ["random", "q-1", "lazy-max"])
@pytest.mark.parametrize("k", [1, 8])
@pytest.mark.parametrize("targets", ["below-2^30", "at-2^30"])
@pytest.mark.parametrize("l_from", [1, 2, 9])
def test_bconv_shoup_lane_bound_matches_numpy_twin(monkeypatch, k, targets,
                                                   l_from, inputs):
    """31-bit sources (scaled residues up to 2^31 - 2) into targets just
    below 2^30 (Shoup lanes) or with one at or above it (the fallback);
    ``q-1`` makes every scaled residue ``q - 1``, ``lazy-max`` every
    lazy product of a column's target near ``2p``, the largest terms the
    Shoup lanes' ``[0, 2p)`` sums see."""
    dst = RnsBasis(_BELOW_2_30 if targets == "below-2^30"
                   else _BELOW_2_30[:2] + [_first_prime_above(1 << 30)])
    assert (max(dst.primes) < 1 << 30) == (targets == "below-2^30")
    src = RnsBasis(_top_primes(l_from))
    if inputs == "q-1":
        col = [[-q_hat % q] for q_hat, q in zip(src.q_hat, src.primes)]
        stack = np.repeat(np.tile(np.array(col, dtype=np.int64), (k, 1)),
                          N, axis=1)
    elif inputs == "lazy-max":
        stack = _lazy_max_stack(src, dst, k)
    else:
        stack = _canonical(np.random.default_rng(l_from), src.q_col, k)
    got, want = _both(monkeypatch, lambda: base_convert_stack(
        stack, src, dst, k))
    np.testing.assert_array_equal(got, want)
    ref = np.concatenate([base_convert(RnsPolynomial(
        src, stack[i * l_from:(i + 1) * l_from], is_ntt=False), dst).data
        for i in range(k)])
    np.testing.assert_array_equal(got, ref)


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


@pytest.mark.parametrize("halves", [2, 16])
def test_mod_down_tail_addend_matches_numpy_twin(engine, monkeypatch,
                                                 halves):
    """The fused addend, as it lies and through a permutation, against
    the twin and the plain arithmetic."""
    rng = np.random.default_rng(20 + halves)
    q_basis = RnsBasis(list(EXT.primes[:4]))
    p_value = 2 ** 61 - 1
    acc = _canonical(rng, EXT.q_col, halves)
    corr = _canonical(rng, q_basis.q_col, halves)
    add = _canonical(rng, q_basis.q_col, halves // 2)
    q = np.tile(q_basis.q_col, (halves, 1))
    inv = np.tile([[pow(p_value, -1, int(p))] for p in q_basis.primes],
                  (halves, 1))
    acc_q = acc.reshape(halves, len(EXT), N)[:, :4].reshape(-1, N)
    for perm in (None, engine.automorphism_index(galois_element(5, N))):
        got, want = _both(monkeypatch, lambda: mod_down_tail(
            acc, corr.copy(), q_basis, p_value, halves, add=add,
            perm=perm))
        np.testing.assert_array_equal(got, want)
        ref = ((acc_q - corr) % q * inv % q).reshape(halves // 2, 2, 4, N)
        moved = add if perm is None else add[:, perm]
        ref[:, 0] = (ref[:, 0] + moved.reshape(-1, 4, N)) % q_basis.q_col
        np.testing.assert_array_equal(got, ref.reshape(-1, N))


@pytest.mark.parametrize("halves", [1, 2, 16])
def test_mod_down_tail_addend_on_every_half_matches_numpy_twin(
        engine, monkeypatch, halves):
    """An addend covering every half (a relinearization's d0 and d1),
    as it lies and through a permutation, with every residue at q - 1
    in one run, against the twin and the plain arithmetic."""
    q_basis = RnsBasis(list(EXT.primes[:4]))
    p_value = 2 ** 61 - 1
    q = np.tile(q_basis.q_col, (halves, 1))
    inv = np.tile([[pow(p_value, -1, int(p))] for p in q_basis.primes],
                  (halves, 1))
    for top in (False, True):
        rng = np.random.default_rng(40 + halves)
        acc = _canonical(rng, EXT.q_col, halves)
        corr = _canonical(rng, q_basis.q_col, halves)
        add = _canonical(rng, q_basis.q_col, halves, top=top)
        acc_q = acc.reshape(halves, len(EXT), N)[:, :4].reshape(-1, N)
        for perm in (None, engine.automorphism_index(galois_element(5, N))):
            got, want = _both(monkeypatch, lambda: mod_down_tail(
                acc, corr.copy(), q_basis, p_value, halves, add=add,
                perm=perm))
            np.testing.assert_array_equal(got, want)
            moved = add if perm is None else add[:, perm]
            np.testing.assert_array_equal(
                got, ((acc_q - corr) % q * inv % q + moved) % q)


def test_mod_down_tail_rejects_an_addend_of_another_shape():
    rng = np.random.default_rng(4)
    q_basis = RnsBasis(list(EXT.primes[:2]))
    acc = _canonical(rng, EXT.q_col, 3)
    corr = _canonical(rng, q_basis.q_col, 3)
    for tiles in (1, 2, 4):     # 3 halves: only every half (3 tiles)
        with pytest.raises(ValueError, match="holds neither every half"):
            mod_down_tail(acc, corr.copy(), q_basis, 7, 3,
                          add=_canonical(rng, q_basis.q_col, tiles))


def _bgv_evaluator():
    return BgvScheme(BgvContext(BgvParams(n=N, q_count=5, seed=5))).ev


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("scheme", ["ckks", "bgv"])
def test_fused_sigma_c0_tail_matches_gather_add_csub(ckks_small,
                                                     monkeypatch, scheme,
                                                     k):
    """Each ModDown (CKKS's fast one, BGV's ``t``-corrected one) with
    the hoisted rotation's ``sigma(c0)`` addend equals the unfused path
    it replaced: ModDown, gather ``sigma(c0)``, add, conditional
    subtract; under both implementations."""
    ev = ckks_small.ev if scheme == "ckks" else _bgv_evaluator()
    ctx = ev.context
    n = ctx.n
    level = ctx.max_level
    ext, q_basis = ctx.ext_basis(level), ctx.q_basis(level)
    rng = np.random.default_rng(k)
    acc = _canonical(rng, ext.q_col, 2 * k, n)
    c0 = _canonical(rng, q_basis.q_col, k, n)
    engine = stacked_engine(n, (q_basis,) * k, dedupe=True)
    g = galois_element(3, n)

    def fused():
        return ev._mod_down_batch_stacked(
            acc, ext, q_basis, k, add=c0,
            perm=engine.automorphism_index(g))

    def unfused():
        ks = ev._mod_down_batch_stacked(acc, ext, q_basis, k)
        ks0 = ks.reshape(k, 2, len(q_basis), n)[:, 0]
        ks0 += engine.automorphism_ntt(c0, g).reshape(ks0.shape)
        _csub_into(ks0.view(np.uint64), q_basis.q_col.view(np.uint64),
                   np.empty(ks0.shape, dtype=np.uint64))
        return ks

    got, want = _both(monkeypatch, fused)
    np.testing.assert_array_equal(got, want)
    for ref in _both(monkeypatch, unfused):
        np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("scheme", ["ckks", "bgv"])
def test_fused_d01_tail_matches_add_csub(ckks_small, monkeypatch, scheme,
                                         k):
    """Each ModDown (CKKS's fast one, BGV's ``t``-corrected one) with a
    relinearization's ``(d0, d1)`` pair stack as the addend equals the
    unfused path it replaced: ModDown, add, conditional subtract; under
    both implementations."""
    ev = ckks_small.ev if scheme == "ckks" else _bgv_evaluator()
    ctx = ev.context
    n = ctx.n
    level = ctx.max_level
    ext, q_basis = ctx.ext_basis(level), ctx.q_basis(level)
    rng = np.random.default_rng(10 + k)
    acc = _canonical(rng, ext.q_col, 2 * k, n)
    d01 = _canonical(rng, q_basis.q_col, 2 * k, n)

    def fused():
        return ev._mod_down_batch_stacked(acc, ext, q_basis, k, add=d01)

    def unfused():
        ks = ev._mod_down_batch_stacked(acc, ext, q_basis, k)
        ks += d01
        _csub_into(ks.view(np.uint64),
                   np.tile(q_basis.q_col, (2 * k, 1)).view(np.uint64),
                   np.empty(ks.shape, dtype=np.uint64))
        return ks

    got, want = _both(monkeypatch, fused)
    np.testing.assert_array_equal(got, want)
    for ref in _both(monkeypatch, unfused):
        np.testing.assert_array_equal(got, ref)


def test_mod_down_tail_rejects_bad_permutation_without_writing(lib):
    rng = np.random.default_rng(8)
    q_basis = RnsBasis(list(EXT.primes[:2]))
    acc = _canonical(rng, EXT.q_col, 2)
    corr = _canonical(rng, q_basis.q_col, 2)
    add = _canonical(rng, q_basis.q_col, 1)
    inv = q_basis.q_col.astype(np.uint64) - np.uint64(1)
    for bad in (-1, N):
        perm = np.arange(N, dtype=np.int64)
        perm[3] = bad
        out = corr.copy()
        assert lib.mod_down_tail(out, acc, 2, 2, len(EXT), N,
                                 q_basis.q_col.astype(np.uint64), inv, inv,
                                 add, 2, perm) == 1
        np.testing.assert_array_equal(out, corr)
    # an addend must name the halves it covers
    out = corr.copy()
    assert lib.mod_down_tail(out, acc, 2, 2, len(EXT), N,
                             q_basis.q_col.astype(np.uint64), inv, inv,
                             add, 0, None) == 1
    np.testing.assert_array_equal(out, corr)


# ----------------------------------------------------------------------
# batch_add_sub
# ----------------------------------------------------------------------
#: Moduli from 2 to past 2^31: the batch ops take any modulus below 2^63.
WIDE = RnsBasis([2, 17, (1 << 31) - 1, (1 << 61) - 1])
_I64 = np.iinfo(np.int64)


def _any_int64(rng, rows: int) -> np.ndarray:
    """Int64 rows mixing residues, negatives and values within a few
    units of +-2^63, whose sums and differences wrap."""
    out = rng.integers(_I64.min, _I64.max, size=(rows, N), dtype=np.int64,
                       endpoint=True)
    out[:, :8] = rng.integers(-3 * (1 << 31), 3 * (1 << 31), size=(rows, 8))
    out[:, 8:12] = [_I64.max, _I64.max - 1, _I64.min, _I64.min + 1]
    out[:, 12] = 0
    return out


@pytest.mark.parametrize("op", ["add", "sub", "negate"])
@pytest.mark.parametrize("copies", [1, 2, 16])
def test_batch_add_sub_matches_numpy_on_any_int64(monkeypatch, op, copies):
    rng = np.random.default_rng(copies)
    rows = copies * len(WIDE)
    x, y = _any_int64(rng, rows), _any_int64(rng, rows)
    y[:, 8:12] = y[:, 8:12][:, ::-1]       # +-2^63 meets -+2^63
    q = np.tile(WIDE.q_col, (copies, 1))
    call, want = {
        "add": (lambda: add_sub(x, y, WIDE), (x + y) % q),
        "sub": (lambda: add_sub(x, y, WIDE, -1), (x - y) % q),
        "negate": (lambda: add_sub(None, y, WIDE, -1), (-y) % q),
    }[op]
    got, twin = _both(monkeypatch, call)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(twin, want)


@pytest.mark.parametrize("op", ["add", "sub", "negate"])
def test_batch_add_sub_mixes_canonical_and_fallback_rows(monkeypatch, op):
    """Rows of canonical residues (0 and q - 1 planted), which take the
    one-conditional-step loop, next to rows holding one value just past
    [0, q) (q, -1, int64 extremes), which the scan sends to floor_mod."""
    rng = np.random.default_rng(len(op))
    copies = 6
    q = np.tile(WIDE.q_col, (copies, 1))
    rows = copies * len(WIDE)
    x = rng.integers(0, q, size=(rows, N), dtype=np.int64)
    y = rng.integers(0, q, size=(rows, N), dtype=np.int64)
    x[:, :2], y[:, :2] = [0, 0], [0, 0]
    x[:, 2], y[:, 3] = q[:, 0] - 1, q[:, 0] - 1
    x[:, 4] = y[:, 4] = q[:, 0] - 1
    bad = [q[:, 0], -1, _I64.min, _I64.max]
    for r in range(len(WIDE), rows):      # the first copy stays canonical
        operand = y if r % 2 or op == "negate" else x
        operand[r, 9] = np.broadcast_to(bad[r % len(bad)], rows)[r]
    call, want = {
        "add": (lambda: add_sub(x, y, WIDE), (x + y) % q),
        "sub": (lambda: add_sub(x, y, WIDE, -1), (x - y) % q),
        "negate": (lambda: add_sub(None, y, WIDE, -1), (-y) % q),
    }[op]
    got, twin = _both(monkeypatch, call)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(twin, want)


def test_batch_add_sub_rejects_bad_arguments_without_writing(lib):
    rng = np.random.default_rng(2)
    x, y = _any_int64(rng, 4), _any_int64(rng, 4)
    q_u = WIDE.q_col.astype(np.uint64)
    out = np.zeros((4, N), dtype=np.int64)
    for args in ((x, y, 4, 4, N, q_u, 0),          # sign
                 (None, y, 4, 4, N, q_u, 1),       # negation is sign -1
                 (x, y, 4, 0, N, q_u, 1),          # no limbs
                 (x, y, 4, 4, N, np.array([2, 3, 0, 5], np.uint64), 1),
                 (x, y, 4, 4, N, np.array([2, 3, 1 << 63, 5], np.uint64),
                  -1)):
        assert lib.batch_add_sub(out, *args) == 1
        assert not out.any()
    with pytest.raises(ValueError, match="are not polynomials"):
        add_sub(x, y[:2], WIDE)
    for args in ((x, y, WIDE, 0), (None, y, WIDE, 1)):
        with pytest.raises(ValueError, match="first operand"):
            add_sub(*args)


# ----------------------------------------------------------------------
# argtypes
# ----------------------------------------------------------------------
def test_argtypes_reject_wrong_dtype_and_layout_without_writing(lib):
    rng = np.random.default_rng(9)
    q_basis = RnsBasis(list(EXT.primes[:2]))
    src, dst = RnsBasis(_top_primes(2)), q_basis
    tab = _conv_table(src, dst)
    stack = _canonical(rng, src.q_col, 1)
    b, a = _key_tables(rng, 1)
    x = _canonical(rng, EXT.q_col, 1)
    q_u = EXT.q_col.astype(np.uint64)
    inv_u = q_basis.q_col.astype(np.uint64) - np.uint64(1)
    acc_out = np.zeros((2 * len(EXT), N), dtype=np.uint64)
    out = np.zeros((2, N), dtype=np.int64)
    strided = np.zeros((2, 2 * N), dtype=np.int64)[:, ::2]
    calls = [
        (acc_out, lambda o: lib.ks_mac(o, x, 1, 1, len(EXT), N, q_u, b,
                                       a, None)),
        (out, lambda o: lib.bconv(o, stack, 1, 2, 2, N, tab)),
        (out, lambda o: lib.mod_down_tail(o, stack, 1, 2, 2, N,
                                          q_basis.q_col.astype(np.uint64),
                                          inv_u, inv_u, None, 0, None)),
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
        lib.bconv(out, stack.astype(np.uint64), 1, 2, 2, N, tab)
    with pytest.raises(ctypes.ArgumentError):
        lib.ks_mac(acc_out, x, 1, 1, len(EXT), N, q_u, b, a,
                   np.arange(2 * N)[::2])
    # the key tables are uint32: a uint64 table is refused
    with pytest.raises(ctypes.ArgumentError):
        lib.ks_mac(acc_out, x, 1, 1, len(EXT), N, q_u,
                   b.astype(np.uint64), a, None)
    assert not out.any() and not acc_out.any()


# ----------------------------------------------------------------------
# SwitchingKey.stacked_tables: uint32 key tables, checked once
# ----------------------------------------------------------------------
def _switching_key(rng, dnum: int = 3) -> rns_core.SwitchingKey:
    """A key of canonical random residues over ``EXT``."""
    def poly():
        return RnsPolynomial(EXT, _canonical(rng, EXT.q_col, 1))
    return rns_core.SwitchingKey(b=[poly() for _ in range(dnum)],
                                 a=[poly() for _ in range(dnum)])


def test_stacked_tables_are_uint32_and_checked_once(monkeypatch):
    """The digit-stacked tables hold the key residues as uint32 (half
    the key polynomials' bytes), restricted to the rows asked for, and
    the canonical check runs when a table is built, not per MAC."""
    rng = np.random.default_rng(21)
    key = _switching_key(rng)
    checks = []
    real = rns_core.require_canonical
    monkeypatch.setattr(rns_core, "require_canonical",
                        lambda *a: checks.append(a[2]) or real(*a))
    rows = (0, 2, 5)
    b, a = key.stacked_tables(2, rows)
    assert b.dtype == a.dtype == np.uint32
    assert b.shape == a.shape == (2 * len(rows), N)
    for t, polys in ((b, key.b), (a, key.a)):
        want = np.concatenate([p.data[list(rows)] for p in polys[:2]])
        np.testing.assert_array_equal(t, want)
    assert checks == ["stacked_tables"] * 2
    assert key.stacked_tables(2, rows)[0] is b
    ext = RnsBasis([EXT.primes[r] for r in rows])
    x = _canonical(rng, ext.q_col, 2)
    key_mac(x, (b, a), ext, 1)
    # (under REPRO_VERIFY=1 the MAC checks its digit rows, "key_mac")
    assert checks.count("stacked_tables") == 2


@pytest.mark.parametrize("bad", [-1, "q"])
@pytest.mark.parametrize("half", ["b", "a"])
def test_stacked_tables_reject_a_noncanonical_row(bad, half):
    """Mutation: one key residue pushed out of range, which a uint32
    table would silently wrap or truncate."""
    rng = np.random.default_rng(22)
    key = _switching_key(rng)
    poly = getattr(key, half)[1]
    poly.data[4, 11] = EXT.primes[4] if bad == "q" else bad
    # digit 1's rows come after digit 0's: its row 4 is table row 6 + 4
    with pytest.raises(NonCanonicalInputError,
                       match=r"stacked_tables: row 10 "):
        key.stacked_tables(2, tuple(range(len(EXT))))
    key.stacked_tables(1, tuple(range(len(EXT))))     # digit 0 is fine


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


def _first_prime_above(value: int) -> int:
    q = value + 1
    while not is_prime(q):
        q += 2
    return q


def test_verify_names_the_shoup_bound_at_the_key_switch_entries(
        lib, verify_on, monkeypatch):
    """Mutation: a dispatch that hands the C key MAC, BConv or ModDown
    tail a modulus at or above 2^31 (the ``_shoup_tail_ok``
    precondition the one-multiply sums rely on) is caught before the
    kernel runs."""
    wide = _first_prime_above(1 << 31)
    monkeypatch.setattr(rns_core, "_ks_kernel", lambda basis: lib)
    monkeypatch.setattr(bconv_mod, "_shoup_kernel", lambda *bases: lib)
    rng = np.random.default_rng(12)
    ext = RnsBasis([EXT.primes[3], wide])
    x = _canonical(rng, ext.q_col, 1)
    with pytest.raises(ShoupBoundError,
                       match=rf"ks_mac: shoup-bound: modulus {wide} "
                             rf"\(limb 1\)"):
        key_mac(x, _key_tables(rng, 1, ext=ext), ext, 1)
    src, dst = RnsBasis(EXT.primes[3:5]), RnsBasis([EXT.primes[5], wide])
    with pytest.raises(ShoupBoundError,
                       match=rf"bconv: shoup-bound: modulus {wide} "
                             rf"\(limb 3\)"):
        base_convert_stack(_canonical(rng, src.q_col, 1), src, dst, 1)
    with pytest.raises(ShoupBoundError,
                       match=rf"mod_down_tail: shoup-bound: modulus {wide} "
                             rf"\(limb 1\)"):
        mod_down_tail(_canonical(rng, ext.q_col, 2),
                      _canonical(rng, ext.q_col, 2), ext, 7, 2)


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
