"""Every vector clone of the native kernels against the numpy twins.

On x86-64 with glibc, ``ntt.c`` compiles its hot loops into several
clones (``VECTOR_CLONES``: baseline x86-64, AVX2 and, for some loops,
AVX-512) and the loader runs the widest one the CPU has, so the rest of
the suite only ever exercises that one.  Here each clone is built on its
own, by predefining the macro, into a private library:

* ``plain``: the macro empty -- the code every other architecture runs
  and the x86-64 ``default`` clone;
* ``avx2`` / ``avx512f`` / ``x86-64-v4``: every marked loop pinned to
  that target, when numpy reports the CPU features (``arch=x86-64-v4``,
  the AVX-512 F/BW/CD/DQ/VL level, is the NTT rows' and the exact
  conversion's widest clone under GCC 12 or later, ``WIDE_CLONE`` in
  ``ntt.c``; under other compilers it is ``avx512f`` and this variant
  skips).

Each variant, loaded in place of the production library, runs spot twins
of every kernel the clones touch, reusing the twin suites' inputs
(moduli up to ``2^31 - 1``, every residue at ``q - 1``, guard spans and
their boundaries, int64 extremes on the reducing loads): the NTT entries
``ntt_forward`` / ``ntt_inverse``, ``ks_mac`` with and without a
permutation (whole register groups and the one-column tail), ``bconv``
(its 32-bit Shoup lanes and the one-multiply fallback), ``bconv_exact``,
``bfv_scale_round``,
``mod_down_tail``, ``batch_add_sub`` (canonical rows next to rows the
scan sends to the exact loop) and ``replay_steps`` (its elementwise and
DRAM twins over lanes mixing the canonical-range loops with their
fallback among them).  Skipped without ``cc``.
"""

from __future__ import annotations

import ctypes
import shutil
import subprocess

import numpy as np
import pytest

from repro.nttmath import native
from repro.nttmath.batched import BatchedNTT
from repro.nttmath.primes import find_ntt_primes
from repro.schemes.bfv import BfvContext, BfvParams

import test_native_exact as exact_twins
import test_native_keyswitch as ks_twins
import test_native_replay as replay_twins


def _wide_clone_is_v4(cc: str) -> bool:
    """Whether ``cc`` builds ntt.c's WIDE_CLONE as arch=x86-64-v4: the
    same GCC >= 12, not Clang, test as the source's."""
    proc = subprocess.run([cc, "-dM", "-E", "-x", "c", "-"], input="",
                          capture_output=True, text=True)
    macros = dict(line.split(" ", 2)[1:] for line in proc.stdout.splitlines()
                  if line.count(" ") >= 2)
    return ("__clang__" not in macros
            and int(macros.get("__GNUC__", "0")) >= 12)


def _cpu_has(feature: str) -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:             # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return bool(__cpu_features__.get(feature))


#: name -> (the macro's definition, the CPU feature it needs, whether
#: the multiplying canonical-range loops and the key MAC's vector
#: reduction run, as CANON_MUL() has it in the production build on a CPU
#: that picks this clone, and whether the fast conversion sums in
#: 32-bit Shoup lanes, as SHOUP_LANES() has it).
VARIANTS = {
    "plain": ("", None, False, False),
    "avx2": ('__attribute__((target("avx2")))', "AVX2", False, True),
    "avx512f": ('__attribute__((target("avx512f")))', "AVX512F", True,
                True),
    "x86-64-v4": ('__attribute__((target("arch=x86-64-v4")))',
                  "AVX512_SKX", True, True),
}


@pytest.fixture(scope="module", params=list(VARIANTS))
def variant_lib(request, tmp_path_factory):
    """The kernel library built with every marked loop as one clone."""
    definition, feature, canon_mul, shoup_lanes = VARIANTS[request.param]
    if feature is not None and not _cpu_has(feature):
        pytest.skip(f"this CPU has no {feature}")
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler: `cc` is not on PATH")
    if request.param == "x86-64-v4" and not _wide_clone_is_v4(cc):
        pytest.skip("this compiler builds no x86-64-v4 clone (GCC < 12)")
    path = tmp_path_factory.mktemp("clones") / f"ntt-{request.param}.so"
    proc = subprocess.run(
        [cc, *native.CFLAGS, f"-DVECTOR_CLONES(...)={definition}",
         f"-DCANON_MUL()={int(canon_mul)}",
         f"-DSHOUP_LANES()={int(shoup_lanes)}",
         "-o", str(path), str(native.SOURCE)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return native.declare(ctypes.CDLL(str(path)))


@pytest.fixture
def variant(variant_lib, monkeypatch):
    """The variant in place of the production library for one test (the
    twins' ``_both`` then compares it with the numpy kernels)."""
    monkeypatch.setattr(native, "_LIB", variant_lib)
    return variant_lib


def _any_int64(rng, q_col: np.ndarray, tiles: int, n: int) -> np.ndarray:
    """Residues, values at and past q, negatives and int64 extremes:
    each of the seven in every row where n >= 7, else in some row."""
    q = np.tile(q_col, (tiles, 1))
    out = rng.integers(0, q, size=(q.shape[0], n), dtype=np.int64)
    for k in range(7):
        rows = slice(None) if n >= 7 else slice(k // n, k // n + 1)
        qr = q[rows, 0]
        out[rows, k % n] = (0, -1, np.iinfo(np.int64).min,
                            np.iinfo(np.int64).max, qr, qr - 1, -qr)[k]
    return out


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 128, 1024, 4096])
def test_ntt_rows(variant, monkeypatch, n):
    """Forward and inverse (scaled, and unscaled) over canonical rows (0
    and q - 1 planted) and, with the input reduction, over any int64 row
    and rows that are all canonical but one value (past q, or negative).
    n = 2 .. 32 start or end a row at each small-stage loop (t = 8, 4,
    2, 1) in both directions (the unscaled inverse ends at its t = n / 2
    stage); 128, 1024 and 4096 run them mid-row, as production does."""
    primes = find_ntt_primes(30, n, 3)
    engine = BatchedNTT(n, primes)
    assert engine._fused
    q_col = np.array(primes, dtype=np.int64).reshape(-1, 1)
    rng = np.random.default_rng(n)
    canon = rng.integers(0, np.tile(q_col, (2, 1)), size=(6, n))
    canon[:, 0] = 0
    canon[:, -1] = np.tile(q_col, (2, 1))[:, 0] - 1
    wild = _any_int64(rng, q_col, 2, n)
    # canonical rows but one value: q + r, or a negative one
    past_q, negative = canon.copy(), canon.copy()
    past_q[3, n // 2] += np.tile(q_col, (2, 1))[3, 0]
    negative[1, n // 3] = -1
    negative[4, 7 % n] = -(1 << 40)
    calls = [lambda: engine.forward(canon, assume_reduced=True),
             lambda: engine.inverse(canon, assume_reduced=True),
             lambda: engine.inverse(canon, scale_by_n_inv=False,
                                    assume_reduced=True)]
    for stack in (canon, wild, past_q, negative):
        calls += [lambda s=stack: engine.forward(s),
                  lambda s=stack: engine.inverse(s)]
    for call in calls:
        got, want = ks_twins._both(monkeypatch, call)
        np.testing.assert_array_equal(got, want)


def test_key_mac(variant, monkeypatch):
    """With and without a permutation, for k = 1, 3 and 8, at spans 1, 2
    and 4 and across them, on random residues and every residue at
    q - 1, and on rows the register groups do not tile."""
    engine = BatchedNTT(ks_twins.N, find_ntt_primes(30, ks_twins.N, 1))
    for k in (1, 3, 8):
        ks_twins.test_ks_mac_matches_numpy_twin(engine, monkeypatch, k, 4)
    for beta in (2, 5):
        for top in (False, True):
            ks_twins.test_ks_mac_guard_boundaries_match_numpy_twin(
                engine, monkeypatch, 8, beta, top)
    for n in (8, 40):
        ks_twins.test_ks_mac_partial_register_groups_match_numpy_twin(
            monkeypatch, n)


@pytest.mark.parametrize("case", ks_twins._GUARD_CASES)
def test_fast_bconv(variant, monkeypatch, case):
    """The one-multiply sums at their guard spans (targets at or above
    2^30, or 31-bit), and the 32-bit Shoup lanes (targets below 2^30)
    next to the fallback one target at 2^30 sends a conversion to."""
    below, span, l_froms = case
    for l_from in l_froms:
        for top in (False, True):
            ks_twins.test_bconv_guard_boundaries_match_numpy_twin(
                monkeypatch, 8, below, span, l_from, top)
    for l_from in (2, 9):
        for inputs in ("q-1", "lazy-max"):
            for targets in ("below-2^30", "at-2^30"):
                ks_twins.test_bconv_shoup_lane_bound_matches_numpy_twin(
                    monkeypatch, 8, targets, l_from, inputs)


def test_exact_bconv(variant, monkeypatch):
    exact_twins.test_bconv_exact_keeps_wide_sums_exact(monkeypatch)
    exact_twins.test_bconv_exact_on_bgv_moddown_basis(monkeypatch)
    for limbs in (2, 8):
        exact_twins.test_bconv_exact_at_the_centring_boundary(monkeypatch,
                                                              limbs)


def test_bfv_scale_round(variant, monkeypatch):
    ctx = BfvContext(BfvParams(n=512, q_count=6, dnum=3, seed=11))
    exact_twins.test_bfv_scale_round_matches_numpy_twin(ctx, monkeypatch, 3)
    exact_twins.test_bfv_scale_round_is_round_t_d_over_q(ctx, monkeypatch)


def test_mod_down_tail(variant, monkeypatch):
    """Plain, with an addend on each pair's first half (as it lies and
    permuted) and on every half."""
    engine = BatchedNTT(ks_twins.N, find_ntt_primes(30, ks_twins.N, 1))
    ks_twins.test_mod_down_tail_matches_numpy_twin(monkeypatch, 16)
    ks_twins.test_mod_down_tail_addend_matches_numpy_twin(engine,
                                                         monkeypatch, 16)
    ks_twins.test_mod_down_tail_addend_on_every_half_matches_numpy_twin(
        engine, monkeypatch, 16)


@pytest.mark.parametrize("op", ["add", "sub", "negate"])
def test_batch_add_sub(variant, monkeypatch, op):
    ks_twins.test_batch_add_sub_mixes_canonical_and_fallback_rows(
        monkeypatch, op)
    ks_twins.test_batch_add_sub_matches_numpy_on_any_int64(monkeypatch,
                                                           op, 2)


def test_replay_steps(variant, monkeypatch):
    """FFT steps over any int64 row, elementwise steps (any int64, and
    lanes mixing the canonical-range loops with their fallback), DRAM
    rows mixing both, and the three perfbench programs' whole plans
    against numpy and the reference."""
    for fft, label in replay_twins.FFT_KINDS:
        replay_twins.test_fft_rows_equal_batched_ntt_on_any_int64(
            variant, monkeypatch, fft, label)
    replay_twins.test_ew_step_equals_numpy_on_any_int64(
        variant, monkeypatch, 3, "mac")
    for nsrc, mode in replay_twins.EW_KINDS:
        for plant in replay_twins.PLANTS:
            replay_twins.test_ew_lanes_mixing_fast_and_fallback_equal_numpy(
                variant, monkeypatch, nsrc, mode, plant)
    for imm in ("in-range", "negative", "past-2^k"):
        replay_twins.test_ew_immediates_past_the_range_equal_numpy(
            variant, monkeypatch, "masked", imm)
    replay_twins.test_dram_rows_mixing_fast_and_fallback_equal_numpy(
        variant, monkeypatch)
    whole_plans = getattr(replay_twins, "test_whole_plan_replay_matches_"
                          "numpy_and_reference_on_perfbench")
    whole_plans(variant, monkeypatch)
