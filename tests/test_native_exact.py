"""The native exact conversions against their numpy twins.

``bconv_exact`` and ``bfv_scale_round`` (``nttmath/native/ntt.c``) must
give the same bits as the numpy code they replace:
:func:`repro.rns.bconv.base_convert_centered_stack` and
:meth:`repro.schemes.bfv.BfvEvaluator._scale_round_stack` with the
library forced unavailable.  Under ``native`` both of BFV's paths
(stacked and ``stacked=False``) run the C kernels, so the evaluator
suites no longer compare C with numpy; these tests do, directly:

* random chains of 1-16 limbs below ``2^31``, ``k > 1`` and column
  counts that are not a multiple of the kernel's column block;
* BGV's ``P -> Q ∪ {t}`` conversion;
* CRT-composed values at ``Q/2 - 1``, ``Q/2``, ``Q/2 + 1``, ``0`` and
  ``Q - 1``, where the float correction decides the centring;
* the fused scale-round, also against big-integer ``round(t*D/Q)``.

Under ``REPRO_VERIFY=1`` both entries reject a non-canonical row
(naming it) and a C entry reached with a modulus at or above ``2^31``;
a traced BFV multiply counts the same kernel rows under both
implementations, and its spans name the one that ran.
"""

from __future__ import annotations

import ctypes
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import obs
from repro.nttmath import native
from repro.nttmath.batched import (
    NonCanonicalInputError,
    ShoupBoundError,
    clear_caches,
)
from repro.nttmath.primes import find_ntt_primes, is_prime
from repro.rns import bconv
from repro.rns.basis import RnsBasis
from repro.rns.bconv import (
    _exact_tables,
    base_convert_centered_stack,
    base_convert_exact,
)
from repro.rns.poly import RnsPolynomial
from repro.schemes import bfv as bfv_mod
from repro.schemes.bfv import BfvContext, BfvParams, BfvScheme
from repro.schemes.bgv import BgvContext, BgvParams

#: The kernel's column block (``EX_BLOCK`` in ntt.c).
BLOCK = 256


def _primes_below(start: int, count: int) -> list[int]:
    out, q = [], start
    while len(out) < count:
        if is_prime(q):
            out.append(q)
        q -= 2
    return out


#: Moduli the kernels take: the widest (just below 2^31), 30-bit NTT
#: primes like the evaluator's, mid-size and tiny ones.
POOL = (_primes_below((1 << 31) - 1, 8) + find_ntt_primes(30, 64, 8)
        + _primes_below((1 << 20) + 1, 6) + [17, 97, 257])


def _both(monkeypatch, fn):
    """``fn()`` with the native library (the numpy twins when it is not
    available here), then with the numpy twins."""
    lib = native.kernel()
    got = fn()
    monkeypatch.setattr(native, "_LIB", None)
    want = fn()
    monkeypatch.setattr(native, "_LIB", lib)
    return got, want


def _canonical(rng, basis: RnsBasis, k: int, n: int) -> np.ndarray:
    q = np.tile(basis.q_col, (k, 1))
    return rng.integers(0, q, size=(q.shape[0], n), dtype=np.int64)


def _centred_reference(stack, src: RnsBasis, dst: RnsBasis, k: int):
    """``cmod(a, Q) mod p`` per column in big-integer arithmetic."""
    out = []
    big_q = src.modulus
    for c in range(k):
        rows = stack[c * len(src):(c + 1) * len(src)]
        vals = [a - big_q if 2 * a > big_q else a
                for a in src.compose_poly(rows)]
        out.append(np.array([[v % p for v in vals] for p in dst.primes],
                            dtype=np.int64))
    return np.concatenate(out)


@pytest.fixture
def lib():
    library = native.kernel()
    if library is None:
        pytest.skip("native kernels unavailable here")
    return library


# ----------------------------------------------------------------------
# bconv_exact
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_bconv_exact_matches_numpy_twin(monkeypatch, data):
    picks = data.draw(st.lists(st.sampled_from(POOL), min_size=2,
                               max_size=32, unique=True))
    l_from = data.draw(st.integers(1, min(16, len(picks) - 1)))
    l_to = data.draw(st.integers(1, min(16, len(picks) - l_from)))
    src = RnsBasis(picks[:l_from])
    dst = RnsBasis(picks[l_from:l_from + l_to])
    k = data.draw(st.integers(1, 3))
    n = data.draw(st.sampled_from([1, 2, 7, BLOCK - 1, BLOCK + 3, 600]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    stack = _canonical(rng, src, k, n)
    stack[:, 0] = 0
    stack[:, -1] = np.tile(src.q_col, (k, 1))[:, 0] - 1
    got, want = _both(monkeypatch, lambda: base_convert_centered_stack(
        stack, src, dst, k))
    assert got.shape == (k * l_to, n)
    np.testing.assert_array_equal(got, want)
    # away from the Q/2 boundary the float correction is unambiguous
    np.testing.assert_array_equal(got[:, -1:], _centred_reference(
        stack[:, -1:], src, dst, k))


def test_bconv_exact_keeps_wide_sums_exact(monkeypatch):
    """Fourteen moduli just below 2^31 after two small ones: products
    near 2^62 sum past 2^64 in most columns unless the kernel keeps its
    uint64 sums in range, sized by the largest source modulus wherever
    it sits in the chain."""
    rng = np.random.default_rng(6)
    wide = _primes_below((1 << 31) - 1, 17)
    src = RnsBasis([17, 97] + wide[:14])
    dst = RnsBasis(POOL[8:12] + [257] + wide[14:])
    stack = _canonical(rng, src, 2, BLOCK + 1)
    got, want = _both(monkeypatch, lambda: base_convert_centered_stack(
        stack, src, dst, 2))
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(
        got[:, :40], _centred_reference(stack[:, :40], src, dst, 2))


def test_bconv_exact_on_bgv_moddown_basis(monkeypatch):
    """P -> Q ∪ {t}, the BGV ModDown delta's conversion, at every
    level, over several column blocks."""
    ctx = BgvContext(BgvParams(n=1024, q_count=8, dnum=2, q_bits=28,
                               seed=3))
    rng = np.random.default_rng(1)
    for level in (ctx.max_level, 0):
        dst = ctx.qt_basis(ctx.q_basis(level))
        stack = _canonical(rng, ctx.p_basis, 4, ctx.n)
        got, want = _both(monkeypatch, lambda: base_convert_centered_stack(
            stack, ctx.p_basis, dst, 4))
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(
            got[:, :64], _centred_reference(stack[:, :64], ctx.p_basis,
                                            dst, 4))


def _crt_columns(basis: RnsBasis, values) -> np.ndarray:
    return np.array([[v % q for v in values] for q in basis.primes],
                    dtype=np.int64)


@pytest.mark.parametrize("limbs", [1, 2, 8, 16])
def test_bconv_exact_at_the_centring_boundary(monkeypatch, limbs):
    """The columns where the rounding decides the representative: both
    implementations round the same double, so they agree bit for bit
    even where the float sum cannot resolve ``a/Q`` against 1/2, and the
    result is ``a`` or ``a - Q`` reduced mod p.  The 2049 columns
    around ``Q/2`` include, for 4 limbs and more, hundreds where summing
    the float terms in another order rounds the other way."""
    src = RnsBasis(POOL[:limbs])
    dst = RnsBasis(POOL[16:20] + [17])
    big_q = src.modulus
    half = big_q // 2
    values = ([half - 1, half, half + 1, 0, big_q - 1, 1]
              + [half + d for d in range(-1024, 1025)])
    stack = _crt_columns(src, values)
    got, want = _both(monkeypatch, lambda: base_convert_centered_stack(
        stack, src, dst, 1))
    np.testing.assert_array_equal(got, want)
    for col, a in enumerate(values):
        options = [[a % p for p in dst.primes],
                   [(a - big_q) % p for p in dst.primes]]
        assert got[:, col].tolist() in options, a
    # 0, Q - 1 and 1 are far from the boundary: exact
    np.testing.assert_array_equal(
        got[:, 3:6], _crt_columns(dst, [0, -1, 1]))


def test_bconv_exact_per_polynomial_entry(monkeypatch):
    """:func:`base_convert_exact` (the ``k = 1`` entry) equals the
    stacked conversion row for row."""
    rng = np.random.default_rng(2)
    src, dst = RnsBasis(POOL[8:14]), RnsBasis(POOL[:5])
    stack = _canonical(rng, src, 3, 300)
    got = base_convert_centered_stack(stack, src, dst, 3)
    for c in range(3):
        poly = RnsPolynomial(src, stack[c * 6:(c + 1) * 6], is_ntt=False)
        one, twin = _both(monkeypatch,
                          lambda: base_convert_exact(poly, dst).data)
        np.testing.assert_array_equal(one, twin)
        np.testing.assert_array_equal(one, got[c * 5:(c + 1) * 5])


# ----------------------------------------------------------------------
# bfv_scale_round
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def bfv_ctx():
    return BfvContext(BfvParams(n=512, q_count=6, dnum=3, seed=11))


def _scale_round(ctx, stack, k):
    return BfvScheme(ctx).ev._scale_round_stack(stack, k)


@pytest.mark.parametrize("k", [1, 3])
def test_bfv_scale_round_matches_numpy_twin(bfv_ctx, monkeypatch, k):
    ctx = bfv_ctx
    rng = np.random.default_rng(k)
    stack = _canonical(rng, ctx.mul_basis, k, ctx.n)
    stack[:, 0] = 0
    stack[:, -1] = np.tile(ctx.mul_basis.q_col, (k, 1))[:, 0] - 1
    got, want = _both(monkeypatch, lambda: _scale_round(ctx, stack, k))
    assert got.shape == (k * len(ctx.q_full), ctx.n)
    np.testing.assert_array_equal(got, want)


def test_bfv_scale_round_is_round_t_d_over_q(bfv_ctx, monkeypatch):
    """For small enough tensor values ``D`` (BFV multiply's lie well
    inside ``|t*D| < Q*R/4``) the result is ``round(t*D/Q) mod Q`` in
    big-integer arithmetic, under both implementations; the column
    count is off the block."""
    ctx = bfv_ctx
    q, ext, t = ctx.q_full, ctx.mul_basis, ctx.t
    draw = random.Random(5)
    n = BLOCK + 7
    bound = ext.modulus // (4 * t)
    values = [0, 1, -1] + [draw.randrange(-bound, bound)
                           for _ in range(n - 3)]
    stack = _crt_columns(ext, values)
    got, want = _both(monkeypatch, lambda: _scale_round(ctx, stack, 1))
    np.testing.assert_array_equal(got, want)
    big_q = q.modulus
    for col in range(n):
        x = t * values[col]
        r = x % big_q
        cm = r - big_q if 2 * r > big_q else r
        expect = [((x - cm) // big_q) % p for p in q.primes]
        assert got[:, col].tolist() == expect, col


# ----------------------------------------------------------------------
# argtypes
# ----------------------------------------------------------------------
def test_argtypes_reject_wrong_dtype_and_layout_without_writing(lib,
                                                                bfv_ctx):
    rng = np.random.default_rng(9)
    src, dst = RnsBasis(POOL[:3]), RnsBasis(POOL[3:5])
    n = 64
    stack = _canonical(rng, src, 1, n)
    tab = _exact_tables(src, dst)
    ctx = bfv_ctx
    lq, lr = len(ctx.q_full), len(ctx.r_basis)
    d = _canonical(rng, ctx.mul_basis, 1, n)
    tabs = bfv_mod._scale_round_tables(ctx.t, ctx.q_full, ctx.r_basis)
    out2 = np.zeros((2, n), dtype=np.int64)
    out_q = np.zeros((lq, n), dtype=np.int64)
    calls = [
        (out2, lambda o: lib.bconv_exact(o, stack, 1, 3, 2, n, tab)),
        (out_q, lambda o: lib.bfv_scale_round(o, d, 1, lq, lr, n, *tabs)),
    ]
    for target, call in calls:
        strided = np.zeros((target.shape[0], 2 * n), dtype=np.int64)[:, ::2]
        for bad in (target.astype(np.int32), target.astype(np.uint64),
                    target.astype(np.float64), strided):
            with pytest.raises(ctypes.ArgumentError):
                call(bad)
            assert not bad.any()
    # a wrong-dtype or strided input, or a wrong-dtype table, is refused
    with pytest.raises(ctypes.ArgumentError):
        lib.bconv_exact(out2, stack.astype(np.uint64), 1, 3, 2, n, tab)
    with pytest.raises(ctypes.ArgumentError):
        lib.bconv_exact(out2, stack, 1, 3, 2, n, tab.view(np.int64))
    with pytest.raises(ctypes.ArgumentError):
        lib.bfv_scale_round(out_q, np.zeros((lq + lr, 2 * n),
                                            dtype=np.int64)[:, ::2],
                            1, lq, lr, n, *tabs)
    # an empty basis is refused before anything is written
    assert lib.bconv_exact(out2, stack, 1, 0, 2, n, tab) == 1
    assert lib.bfv_scale_round(out_q, d, 1, lq, 0, n, *tabs) == 1
    assert not out2.any() and not out_q.any()


def test_scale_round_checks_the_stack_shape(bfv_ctx):
    ev = BfvScheme(bfv_ctx).ev
    rows = len(bfv_ctx.mul_basis)
    with pytest.raises(ValueError, match=f"expected a {2 * rows}-row"):
        ev._scale_round_stack(np.zeros((rows, bfv_ctx.n), np.int64), 2)


# ----------------------------------------------------------------------
# REPRO_VERIFY=1 at both entries
# ----------------------------------------------------------------------
@pytest.fixture
def verify_on(monkeypatch):
    monkeypatch.setenv("REPRO_VERIFY", "1")
    clear_caches()
    yield
    monkeypatch.delenv("REPRO_VERIFY")
    clear_caches()


@pytest.mark.parametrize("bad", [-1, "q"])
def test_verify_rejects_noncanonical_bconv_exact_input(ntt_impl, verify_on,
                                                       bad):
    """Mutation: one residue pushed out of range, under either
    implementation; the row is named in the stacked numbering."""
    rng = np.random.default_rng(7)
    src, dst = RnsBasis(POOL[:3]), RnsBasis(POOL[3:6])
    stack = _canonical(rng, src, 3, 64)
    row = 4
    stack[row, 5] = src.primes[1] if bad == "q" else bad
    with pytest.raises(NonCanonicalInputError,
                       match=f"bconv_exact: row {row} "):
        base_convert_centered_stack(stack, src, dst, 3)
    stack[row, 5] = 0
    base_convert_centered_stack(stack, src, dst, 3)


@pytest.mark.parametrize("bad", [-1, "q"])
def test_verify_rejects_noncanonical_scale_round_input(ntt_impl, verify_on,
                                                       bfv_ctx, bad):
    rng = np.random.default_rng(8)
    ext = bfv_ctx.mul_basis
    stack = _canonical(rng, ext, 2, bfv_ctx.n)
    row = len(ext) + 3
    stack[row, 11] = ext.primes[3] if bad == "q" else bad
    with pytest.raises(NonCanonicalInputError,
                       match=f"bfv_scale_round: row {row} "):
        _scale_round(bfv_ctx, stack, 2)
    stack[row, 11] = 0
    _scale_round(bfv_ctx, stack, 2)


def _first_prime_above(value: int) -> int:
    q = value + 1
    while not is_prime(q):
        q += 2
    return q


def test_verify_names_the_shoup_bound_at_both_c_entries(lib, verify_on,
                                                        monkeypatch):
    """Mutation: a dispatch that hands the C entries a modulus at or
    above 2^31 (the ``_shoup_tail_ok`` precondition) is caught before
    the kernel runs."""
    wide = _first_prime_above(1 << 31)
    monkeypatch.setattr(bconv, "_shoup_kernel", lambda *bases: lib)
    monkeypatch.setattr(bfv_mod, "_shoup_kernel", lambda *bases: lib)
    src, dst = RnsBasis(POOL[:2]), RnsBasis([POOL[2], wide])
    stack = _canonical(np.random.default_rng(3), src, 1, 8)
    with pytest.raises(ShoupBoundError,
                       match=f"bconv_exact: shoup-bound: modulus {wide} "):
        base_convert_centered_stack(stack, src, dst, 1)
    ctx = BfvContext(BfvParams(n=64, q_count=2, dnum=1, seed=1))
    ctx.r_basis = RnsBasis(ctx.r_basis.primes[:-1] + (wide,))
    ctx.mul_basis = ctx.q_full.extend(ctx.r_basis)
    d = np.zeros((len(ctx.mul_basis), 64), dtype=np.int64)
    with pytest.raises(ShoupBoundError,
                       match=f"bfv_scale_round: shoup-bound: modulus "
                             f"{wide} "):
        _scale_round(ctx, d, 1)


# ----------------------------------------------------------------------
# Attribution: same rows under both implementations
# ----------------------------------------------------------------------
def test_traced_bfv_multiply_counts_match_across_impls(monkeypatch):
    ctx = BfvContext(BfvParams(n=256, q_count=4, dnum=2, seed=12))
    scheme = BfvScheme(ctx)
    sk = scheme.gen_secret()
    scheme.gen_relin(sk)
    rng = np.random.default_rng(4)
    m = [rng.integers(0, ctx.t, ctx.n) for _ in range(2)]
    x, y = (scheme.encrypt(v, sk) for v in m)
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
            out = scheme.multiply(x, y)
            obs.TRACER.enabled = False
            events, counters = obs.TRACER.drain()
            runs[impl] = (out, events, counters)
    finally:
        obs.TRACER.enabled = was
        obs.TRACER.drain()
    impls = {"native": "c", "numpy": "numpy"}
    for impl, (out, events, counters) in runs.items():
        names = [ev[obs.EV_NAME] for ev in events]
        rounds = [ev for ev in events if ev[obs.EV_NAME] == "bfv.scale_round"]
        assert len(rounds) == 1
        assert rounds[0][obs.EV_ATTRS] == {"k": 3, "impl": impls[impl]}
        exact = [ev for ev in events if ev[obs.EV_NAME] == "bconv.exact"]
        assert {ev[obs.EV_ATTRS]["impl"] for ev in exact} == {impls[impl]}
        # the lift, plus the scale-round's conversions (fused in C)
        assert len(exact) == (2 if impl == "native" else 3)
        assert "ks.moddown" in names
        assert np.array_equal(scheme.decrypt(out, sk), m[0] * m[1] % ctx.t)
    if "native" in runs:
        (got, _, c_native), (want, _, c_numpy) = (runs["native"],
                                                  runs["numpy"])
        for key in ("ntt.rows", "intt.rows", "auto.rows", "bconv.rows"):
            assert c_native.get(key) == c_numpy.get(key), key
        assert np.array_equal(got.pair(), want.pair())
