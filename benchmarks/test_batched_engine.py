"""Batched limb-parallel engine vs. the seed's per-limb loops.

Times every level-1 kernel (paper Fig. 1) two ways at ``n = 4096``,
``L = 8``:

* **per-limb** — the seed dataflow: a Python loop issuing one
  ``(N,)`` numpy kernel per limb (``NegacyclicNTT`` rows, per-limb
  ``%``-reduced MAC chains, the doubly-nested BConv loop, per-call
  automorphism permutation rebuilds);
* **batched** — one :class:`BatchedNTT`/Shoup/BLAS expression over the
  whole ``(L, N)`` stack.

Both sides are checked for bitwise-equal outputs before timing, so the
table is a pure dataflow comparison.  The headline row is the
double-hoisted rotation inner step (automorphism + key-MAC per digit
— the BSGS inner loop that hoisting leaves after amortising the
transforms); the ISSUE's acceptance bar is >= 3x there.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis import format_table
from repro.core.env import env_float, env_int
from repro.nttmath.batched import BatchedNTT
from repro.nttmath.ntt import NegacyclicNTT, galois_element
from repro.nttmath.primes import find_ntt_primes
from repro.rns.basis import RnsBasis
from repro.rns.bconv import base_convert
from repro.rns.poly import (
    RnsPolynomial,
    pointwise_mac_shoup,
    shoup_precompute,
)

#: Acceptance-point parameters (ISSUE 1): n = 4096, L >= 8.
ENGINE_N = env_int("REPRO_BENCH_ENGINE_N", 4096, minimum=1)
ENGINE_LIMBS = 8
DNUM = 4
REPEATS = env_int("REPRO_BENCH_ENGINE_REPEATS", 9, minimum=1)
#: Multiplier on every asserted speedup floor.  1.0 is the acceptance
#: bar for quiet machines; CI sets < 1 because shared runners add
#: sustained timing noise that best-of-N repeats cannot cancel.
SLACK = env_float("REPRO_BENCH_SPEEDUP_SLACK", 1.0)


def _best_of(fn, repeats=REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_batched_engine_speedup():
    n, limbs = ENGINE_N, ENGINE_LIMBS
    primes = find_ntt_primes(28, n, limbs)
    basis = RnsBasis(primes)
    other = RnsBasis(find_ntt_primes(29, n, limbs, exclude=tuple(primes)))
    rng = np.random.default_rng(20260728)
    p_col = np.array(primes, dtype=np.int64)[:, None]

    def draw():
        return rng.integers(0, p_col, size=(limbs, n), dtype=np.int64)

    data = draw()
    poly = RnsPolynomial(basis, data)
    eng = BatchedNTT(n, primes)
    per_limb = [NegacyclicNTT(n, q) for q in primes]
    fwd = eng.forward(data)
    g = galois_element(5, n)

    # hoisted-rotation operands: DNUM lifted digits x (b, a) key pair
    digits = [RnsPolynomial(basis, draw(), is_ntt=True)
              for _ in range(DNUM)]
    key_b = [RnsPolynomial(basis, draw(), is_ntt=True) for _ in range(DNUM)]
    key_a = [RnsPolynomial(basis, draw(), is_ntt=True) for _ in range(DNUM)]
    tab_b = [shoup_precompute(k) for k in key_b]
    tab_a = [shoup_precompute(k) for k in key_a]
    c0 = draw()

    # ------------------------------------------------------------------
    # seed-dataflow implementations (per-limb Python loops)
    # ------------------------------------------------------------------
    def seed_forward():
        return [per_limb[j].forward(data[j]) for j in range(limbs)]

    def seed_inverse():
        return [per_limb[j].inverse(fwd[j]) for j in range(limbs)]

    def seed_auto():
        return [per_limb[j].automorphism_ntt(fwd[j], g)
                for j in range(limbs)]

    def seed_bconv():
        v = np.empty_like(poly.data)
        for j, q in enumerate(basis.primes):
            v[j] = poly.data[j] * (basis.q_hat_inv[j] % q) % q
        out = np.zeros((len(other), n), dtype=np.int64)
        for i, p in enumerate(other.primes):
            acc = np.zeros(n, dtype=np.int64)
            for j in range(limbs):
                acc = (acc + v[j] * (basis.q_hat[j] % p)) % p
            out[i] = acc
        return out

    def seed_mac():
        acc = np.zeros((limbs, n), dtype=np.int64)
        for d, k in zip(digits, key_b):
            for j, q in enumerate(primes):
                acc[j] = (acc[j] + d.data[j] * k.data[j] % q) % q
        return acc

    def seed_rotation_step():
        rotated = [np.stack([per_limb[j].automorphism_ntt(d.data[j], g)
                             for j in range(limbs)]) for d in digits]
        rc0 = np.stack([per_limb[j].automorphism_ntt(c0[j], g)
                        for j in range(limbs)])
        acc0 = np.zeros((limbs, n), dtype=np.int64)
        acc1 = np.zeros((limbs, n), dtype=np.int64)
        for r, b, a in zip(rotated, key_b, key_a):
            for j, q in enumerate(primes):
                acc0[j] = (acc0[j] + r[j] * b.data[j] % q) % q
                acc1[j] = (acc1[j] + r[j] * a.data[j] % q) % q
        return rc0, acc0, acc1

    # ------------------------------------------------------------------
    # batched implementations
    # ------------------------------------------------------------------
    def batched_rotation_step():
        rotated = [RnsPolynomial(basis, eng.automorphism_ntt(d.data, g),
                                 is_ntt=True) for d in digits]
        rc0 = eng.automorphism_ntt(c0, g)
        acc0 = pointwise_mac_shoup(rotated, tab_b, basis)
        acc1 = pointwise_mac_shoup(rotated, tab_a, basis)
        return rc0, acc0.data, acc1.data

    # bitwise equivalence before timing anything
    assert np.array_equal(np.stack(seed_forward()), eng.forward(data))
    assert np.array_equal(np.stack(seed_inverse()), eng.inverse(fwd))
    assert np.array_equal(np.stack(seed_auto()),
                          eng.automorphism_ntt(fwd, g))
    assert np.array_equal(seed_bconv(), base_convert(poly, other).data)
    assert np.array_equal(seed_mac(),
                          pointwise_mac_shoup(digits, tab_b, basis).data)
    for s, b in zip(seed_rotation_step(), batched_rotation_step()):
        assert np.array_equal(s, b)

    rows = []

    def measure(name, seed_fn, batched_fn):
        t_seed = _best_of(seed_fn)
        t_batched = _best_of(batched_fn)
        speedup = t_seed / t_batched
        rows.append([name, f"{t_seed * 1e3:.2f}",
                     f"{t_batched * 1e3:.2f}", f"{speedup:.2f}x"])
        return speedup

    s_fwd = measure("NTT forward", seed_forward, lambda: eng.forward(data))
    s_inv = measure("NTT inverse", seed_inverse, lambda: eng.inverse(fwd))
    s_auto = measure("automorphism (NTT domain)", seed_auto,
                     lambda: eng.automorphism_ntt(fwd, g))
    s_bconv = measure("BConv 8->8 limbs", seed_bconv,
                      lambda: base_convert(poly, other))
    s_mac = measure(f"key-MAC ({DNUM} digits)", seed_mac,
                    lambda: pointwise_mac_shoup(digits, tab_b, basis))
    s_rot = measure(f"hoisted rotation step (dnum={DNUM})",
                    seed_rotation_step, batched_rotation_step)

    print()
    print(format_table(
        ["kernel", "per-limb ms", "batched ms", "speedup"], rows,
        title=f"Batched engine vs per-limb loops "
              f"(n={n}, L={limbs}, best of {REPEATS})"))

    # Acceptance (ISSUE 1): >= 3x on the headline batched-engine kernel
    # at n=4096, L>=8.  The rotation inner step is where the batched
    # dataflow pays off most: one cached gather replaces L permutation
    # rebuilds and the key-MAC runs division-free on frozen keys.
    assert s_rot >= 3.0 * SLACK, f"rotation step speedup {s_rot:.2f}x"
    assert s_auto >= 5.0 * SLACK, f"automorphism speedup {s_auto:.2f}x"
    # Conservative floors for the rest (guards against regressions
    # while tolerating timing noise).
    assert s_fwd >= 1.5 * SLACK, f"forward NTT speedup {s_fwd:.2f}x"
    assert s_inv >= 1.3 * SLACK, f"inverse NTT speedup {s_inv:.2f}x"
    assert s_bconv >= 1.0 * SLACK, f"BConv speedup {s_bconv:.2f}x"
    assert s_mac >= 1.2 * SLACK, f"key-MAC speedup {s_mac:.2f}x"


def test_stacked_evaluator_speedup():
    """Stacked ciphertext-pair evaluator vs the per-polynomial path.

    Times the two CKKS hot paths of ISSUE 4 on a real context at
    ``n = ENGINE_N``, ``L = 8`` limbs (level 7): the hoisted-rotation
    inner step (one stacked digit gather + one Shoup MAC pass per
    accumulator + stacked pair ModDown) and multiply+rescale (stacked
    digit NTTs, pair BConv, pair rescale round trip).  Both paths are
    checked bitwise-equal before timing, so the table is a pure
    dataflow comparison; the acceptance bar is >= 1.3x on the
    hoisted-rotation inner step.
    """
    from repro.rns.poly import clear_caches
    from repro.schemes.ckks import (
        CkksContext,
        CkksEvaluator,
        CkksParams,
        Encryptor,
        KeyGenerator,
    )

    # Shed scratch buffers / plans left by the kernel-table test above:
    # their allocations measurably degrade the stacked path's cache
    # behaviour (the bitwise checks below re-warm everything needed).
    clear_caches()
    steps = [1, 2, 3, 4, 6, 8, 12, 16]
    params = CkksParams(n=ENGINE_N, levels=ENGINE_LIMBS - 1, dnum=DNUM,
                        scale_bits=25, q0_bits=29, p_bits=30, seed=11)
    ctx = CkksContext(params)
    keygen = KeyGenerator(ctx)
    sk = keygen.gen_secret()
    pk = keygen.gen_public(sk)
    keys = keygen.gen_keychain(sk, rotations=steps)
    enc = Encryptor(ctx, pk)
    stacked = CkksEvaluator(ctx, keys, stacked=True)
    legacy = CkksEvaluator(ctx, keys, stacked=False)

    rng = np.random.default_rng(20260728)
    slots = params.slots

    def message():
        return (rng.uniform(-1, 1, slots) + 1j * rng.uniform(-1, 1, slots))

    a = enc.encrypt(ctx.encode(message()))
    b = enc.encrypt(ctx.encode(message()))

    def check(x, y):
        assert np.array_equal(x.c0.data, y.c0.data)
        assert np.array_equal(x.c1.data, y.c1.data)

    # bitwise equivalence before timing (also warms plan/table caches)
    for step in steps:
        check(stacked.rotate_hoisted(a, [step])[step],
              legacy.rotate_hoisted(a, [step])[step])
    check(stacked.rescale(stacked.multiply(a, b)),
          legacy.rescale(legacy.multiply(a, b)))

    rows = []

    def measure(name, legacy_fn, stacked_fn):
        t_legacy = _best_of(legacy_fn)
        t_stacked = _best_of(stacked_fn)
        speedup = t_legacy / t_stacked
        rows.append([name, f"{t_legacy * 1e3:.2f}",
                     f"{t_stacked * 1e3:.2f}", f"{speedup:.2f}x"])
        return speedup

    s_hoist = measure(
        f"hoisted rotations ({len(steps)} steps)",
        lambda: legacy.rotate_hoisted(a, steps),
        lambda: stacked.rotate_hoisted(a, steps))
    s_mulres = measure(
        "multiply + rescale",
        lambda: legacy.rescale(legacy.multiply(a, b)),
        lambda: stacked.rescale(stacked.multiply(a, b)))

    print()
    print(format_table(
        ["CKKS op", "per-poly ms", "stacked ms", "speedup"], rows,
        title=f"Stacked-pair evaluator vs per-polynomial "
              f"(n={ENGINE_N}, L={ENGINE_LIMBS}, best of {REPEATS})"))

    # Acceptance (ISSUE 4): >= 1.3x on the hoisted-rotation and
    # multiply+rescale inner steps at n=4096, L=8.
    assert s_hoist >= 1.3 * SLACK, \
        f"hoisted-rotation speedup {s_hoist:.2f}x"
    assert s_mulres >= 1.3 * SLACK, \
        f"multiply+rescale speedup {s_mulres:.2f}x"


def test_bfv_multiply_speedup():
    """Stacked BFV/BGV evaluators vs their per-polynomial references.

    Times the integer-scheme hot ops of ISSUE 5 at ``n = ENGINE_N``,
    ``L = 8`` limbs, after checking both paths bitwise-equal:

    * **BGV squaring step** (multiply + two modulus switches — the
      DB-lookup inner loop, and the BGV analogue of the CKKS bench's
      multiply+rescale unit) — the stacked digit lift reuses the
      NTT-domain tensor rows, ModDown folds to ``2k`` P-row round
      trips, and the stacked switch only round-trips the two dropped
      rows: >=1.3x is the acceptance floor (measured ~1.35-1.45x);
    * **BGV bare multiply** — ~1.25-1.35x in isolation, but sensitive
      to allocator/cache state from the preceding bitwise checks, so
      its floor is set at 1.15x to stay meaningful without flaking;
    * **BFV multiply** (centred lift to Q+R, NTT tensor, round(t*d/Q))
      — the stacked path reuses the original NTT rows for the whole Q
      half of the lift and folds ModDown, but both paths share the
      irreducible (4E)/(3E) tensor transforms, which bounds the
      achievable ratio near 1.2x at this size; the floor guards the
      measured ~1.1x against regression rather than claiming 1.3x.
    """
    from repro.schemes.bfv import BfvContext, BfvParams, BfvScheme
    from repro.schemes.bgv import BgvContext, BgvParams, BgvScheme

    rng = np.random.default_rng(20260728)
    rows = []

    def measure(name, ref_fn, stacked_fn):
        # Interleave the two sides so common-mode machine drift (other
        # processes, thermal throttling) hits both equally instead of
        # compressing the ratio when one block lands in a slow window.
        t_ref = t_stacked = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            stacked_fn()
            t_stacked = min(t_stacked, time.perf_counter() - t0)
            t0 = time.perf_counter()
            ref_fn()
            t_ref = min(t_ref, time.perf_counter() - t0)
        speedup = t_ref / t_stacked
        rows.append([name, f"{t_ref * 1e3:.2f}",
                     f"{t_stacked * 1e3:.2f}", f"{speedup:.2f}x"])
        return speedup

    def check(a, b, what):
        assert np.array_equal(a.c0.data, b.c0.data), what
        assert np.array_equal(a.c1.data, b.c1.data), what

    # -- BGV ------------------------------------------------------------
    bgv_ctx = BgvContext(BgvParams(n=ENGINE_N, q_count=ENGINE_LIMBS,
                                   dnum=2, q_bits=28, seed=11))
    bgv_s = BgvScheme(bgv_ctx, stacked=True)
    sk = bgv_s.gen_secret()
    bgv_s.gen_relin(sk)
    bgv_r = BgvScheme(bgv_ctx, stacked=False)
    bgv_r.ev.keys = bgv_s.ev.keys
    bx = bgv_s.encrypt(rng.integers(0, bgv_ctx.t, bgv_ctx.n), sk)
    by = bgv_s.encrypt(rng.integers(0, bgv_ctx.t, bgv_ctx.n), sk)
    check(bgv_s.ev.multiply(bx, by), bgv_r.ev.multiply(bx, by),
          "BGV multiply differs")
    check(bgv_s.ev.mod_switch(bx, 2), bgv_r.ev.mod_switch(bx, 2),
          "BGV mod_switch differs")
    s_bgv = measure("BGV multiply",
                    lambda: bgv_r.ev.multiply(bx, by),
                    lambda: bgv_s.ev.multiply(bx, by))
    s_bgv_sq = measure(
        "BGV multiply + 2x mod-switch",
        lambda: bgv_r.ev.mod_switch(bgv_r.ev.multiply(bx, by), 2),
        lambda: bgv_s.ev.mod_switch(bgv_s.ev.multiply(bx, by), 2))

    # -- BFV ------------------------------------------------------------
    bfv_ctx = BfvContext(BfvParams(n=ENGINE_N, q_count=ENGINE_LIMBS,
                                   dnum=DNUM, q_bits=28, seed=11))
    bfv_s = BfvScheme(bfv_ctx, stacked=True)
    sk = bfv_s.gen_secret()
    bfv_s.gen_relin(sk)
    bfv_r = BfvScheme(bfv_ctx, stacked=False)
    bfv_r.ev.keys = bfv_s.ev.keys
    fx = bfv_s.encrypt(rng.integers(0, bfv_ctx.t, bfv_ctx.n), sk)
    fy = bfv_s.encrypt(rng.integers(0, bfv_ctx.t, bfv_ctx.n), sk)
    check(bfv_s.ev.multiply(fx, fy), bfv_r.ev.multiply(fx, fy),
          "BFV multiply differs")
    s_bfv = measure("BFV multiply",
                    lambda: bfv_r.ev.multiply(fx, fy),
                    lambda: bfv_s.ev.multiply(fx, fy))

    print()
    print(format_table(
        ["integer-scheme op", "per-poly ms", "stacked ms", "speedup"],
        rows,
        title=f"Stacked BFV/BGV vs per-polynomial "
              f"(n={ENGINE_N}, L={ENGINE_LIMBS}, best of {REPEATS})"))

    # Acceptance (ISSUE 5): >= 1.3x on the BGV squaring unit at
    # n=4096, L=8 (the multiply-with-noise-management op, mirroring
    # the CKKS bench's multiply+rescale floor); the bare multiplies
    # are NTT-row-bound / state-sensitive (see docstring) so their
    # floors pin the measured ratios instead.
    assert s_bgv_sq >= 1.3 * SLACK, \
        f"BGV squaring-step speedup {s_bgv_sq:.2f}x"
    assert s_bgv >= 1.15 * SLACK, f"BGV multiply speedup {s_bgv:.2f}x"
    assert s_bfv >= 1.0 * SLACK, f"BFV multiply speedup {s_bfv:.2f}x"


def test_batch_evaluator_speedup():
    """k-way cross-ciphertext batch ops vs a loop of ``k = 1`` calls.

    Times the two batch hot paths at ``k = 8``, ``n = ENGINE_N``,
    ``L = 8`` limbs: hoisted rotations (one fused ``(k*beta*E, N)``
    digit lift, one gather + k-fused MAC/ModDown per step) and
    multiply+rescale (one ``(2k*L, N)`` tensor stack, one k-fused key
    switch, one wide rescale), each against a Python loop issuing the
    same single-ciphertext op once per ciphertext.  Both sides run the
    same batch kernels (a single ciphertext is a ``k = 1`` batch), so
    the table measures fusion alone.  Equality is asserted before
    timing; the ratios are reported, not asserted — fused k=8 measured
    below the k=1 loop on a 2-vCPU host, so there is no floor to hold.
    """
    from repro.rns.poly import clear_caches
    from repro.schemes.ckks import (
        CkksContext,
        CkksEvaluator,
        CkksParams,
        Encryptor,
        KeyGenerator,
    )
    from repro.schemes.rns_core import CiphertextBatch

    clear_caches()
    k = 8
    steps = [1, 2, 3, 4, 6, 8, 12, 16]
    params = CkksParams(n=ENGINE_N, levels=ENGINE_LIMBS - 1, dnum=DNUM,
                        scale_bits=25, q0_bits=29, p_bits=30, seed=11)
    ctx = CkksContext(params)
    keygen = KeyGenerator(ctx)
    sk = keygen.gen_secret()
    pk = keygen.gen_public(sk)
    keys = keygen.gen_keychain(sk, rotations=steps)
    enc = Encryptor(ctx, pk)
    ev = CkksEvaluator(ctx, keys)

    rng = np.random.default_rng(20260807)
    slots = params.slots

    def message():
        return (rng.uniform(-1, 1, slots) + 1j * rng.uniform(-1, 1, slots))

    xs = [enc.encrypt(ctx.encode(message())) for _ in range(k)]
    ys = [enc.encrypt(ctx.encode(message())) for _ in range(k)]
    bx = CiphertextBatch.from_ciphertexts(xs)
    by = CiphertextBatch.from_ciphertexts(ys)

    # bitwise equivalence before timing (also warms plan/table caches)
    got = ev.batch_rotate_hoisted(bx, steps)
    want = [ev.rotate_hoisted(ct, steps) for ct in xs]
    for step in steps:
        for g, w in zip(got[step].split(), want):
            assert np.array_equal(g.pair(), w[step].pair())
    for g, w in zip(
            ev.batch_rescale(ev.batch_multiply(bx, by)).split(),
            [ev.rescale(ev.multiply(x, y)) for x, y in zip(xs, ys)]):
        assert np.array_equal(g.pair(), w.pair())

    rows = []

    def measure(name, seq_fn, batch_fn):
        # Interleave so common-mode machine drift hits both sides.
        t_seq = t_batch = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            batch_fn()
            t_batch = min(t_batch, time.perf_counter() - t0)
            t0 = time.perf_counter()
            seq_fn()
            t_seq = min(t_seq, time.perf_counter() - t0)
        speedup = t_seq / t_batch
        rows.append([name, f"{t_seq * 1e3:.2f}",
                     f"{t_batch * 1e3:.2f}", f"{speedup:.2f}x"])
        return speedup

    s_hoist = measure(
        f"hoisted rotations ({len(steps)} steps)",
        lambda: [ev.rotate_hoisted(ct, steps) for ct in xs],
        lambda: ev.batch_rotate_hoisted(bx, steps))
    s_mulres = measure(
        "multiply + rescale",
        lambda: [ev.rescale(ev.multiply(x, y)) for x, y in zip(xs, ys)],
        lambda: ev.batch_rescale(ev.batch_multiply(bx, by)))

    print()
    print(format_table(
        ["CKKS op", "k=1 loop ms", "batched ms", "speedup"], rows,
        title=f"k={k} batched evaluator vs a loop of k=1 calls "
              f"(n={ENGINE_N}, L={ENGINE_LIMBS}, best of {REPEATS})"))
    print(f"hoisted-rotation ratio {s_hoist:.2f}x, "
          f"multiply+rescale ratio {s_mulres:.2f}x")
