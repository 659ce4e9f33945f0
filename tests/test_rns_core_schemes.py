"""Scheme-agnostic RNS core: BFV/BGV on the stacked hot path.

Three layers of guarantees:

* **differential** — every BFV/BGV operation is *bitwise* identical
  between the stacked evaluator (one ``(2L, N)`` kernel per pair,
  stacked digit lifts, wide exact BConv) and the per-polynomial
  reference (``stacked=False``, :mod:`repro.schemes.reference`), across
  levels for BGV;
* **golden** — encrypt/multiply/switch digests pinned on deterministic
  contexts, so a numeric change cannot hide behind a matching bug in
  both paths;
* **oracle** — the seed's per-coefficient implementations
  (``oracles.toy``, test-only) agree with the new schemes at the
  plaintext level on identical inputs.

CKKS is covered by ``tests/test_stacked_evaluator.py`` running
unchanged against the refactored base class; here we only pin the
subclass relationship.  The differential and golden cases run once per
kernel implementation (``each_impl``): the C key-switch kernels and
their numpy twins both stay pinned to the reference.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from repro.rns.poly import RnsPolynomial
from repro.schemes.bfv import BfvContext, BfvParams, BfvScheme
from repro.schemes.bgv import BgvContext, BgvParams, BgvScheme
from repro.schemes.ckks import CkksEvaluator
from repro.schemes.rns_core import (
    Ciphertext,
    KeyChain,
    NttDomainError,
    Plaintext,
    RnsEvaluatorBase,
    switch_down_ntt,
)

from oracles.toy import (
    ToyBfvContext,
    ToyBfvParams,
    ToyBfvScheme,
    ToyBgvContext,
    ToyBgvParams,
    ToyBgvScheme,
)


def _assert_same(a: Ciphertext, b: Ciphertext, what: str) -> None:
    assert np.array_equal(a.c0.data, b.c0.data), f"{what}: c0 differs"
    assert np.array_equal(a.c1.data, b.c1.data), f"{what}: c1 differs"
    assert a.scale == b.scale, f"{what}: scale differs"
    assert a.basis == b.basis, f"{what}: basis differs"


def _digest(ct: Ciphertext) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(ct.c0.data).tobytes())
    h.update(np.ascontiguousarray(ct.c1.data).tobytes())
    return h.hexdigest()[:16]


# ----------------------------------------------------------------------
# The evaluator hierarchy
# ----------------------------------------------------------------------
def test_ckks_is_a_thin_subclass():
    """CKKS rides the shared core: the evaluator subclasses
    RnsEvaluatorBase and every key-switch kernel is inherited, not
    reimplemented."""
    assert issubclass(CkksEvaluator, RnsEvaluatorBase)
    for name in ("_key_switch_batch", "_lift_digits_batch",
                 "_key_mac_batch", "_mod_down_batch_stacked",
                 "key_switch", "rotate_hoisted", "multiply_plain"):
        assert getattr(CkksEvaluator, name) \
            is getattr(RnsEvaluatorBase, name), name


def test_all_schemes_share_the_base():
    from repro.schemes.bfv import BfvEvaluator
    from repro.schemes.bgv import BgvEvaluator
    assert issubclass(BfvEvaluator, RnsEvaluatorBase)
    assert issubclass(BgvEvaluator, RnsEvaluatorBase)


def test_switch_down_ntt_rejects_bad_stack():
    from repro.nttmath.primes import find_ntt_primes
    from repro.rns.basis import RnsBasis

    basis = RnsBasis(find_ntt_primes(20, 8, 2))
    with pytest.raises(ValueError, match="row"):
        switch_down_ntt(np.zeros((3, 8), dtype=np.int64), basis, 2)
    single = RnsBasis(basis.primes[:1])
    with pytest.raises(ValueError, match="single-limb"):
        switch_down_ntt(np.zeros((2, 8), dtype=np.int64), single, 2)


# ----------------------------------------------------------------------
# BFV: stacked vs per-polynomial reference, bitwise
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def bfv_pair():
    ctx = BfvContext(BfvParams(n=64, q_count=6, dnum=2, seed=20260728))
    stacked = BfvScheme(ctx, stacked=True)
    sk = stacked.gen_secret()
    rk = stacked.gen_relin(sk)
    for k in range(int(math.log2(ctx.n // 2))):
        stacked.gen_galois(1 << k, sk)
    stacked.gen_conjugation(sk)
    reference = BfvScheme(ctx, stacked=False)
    reference.ev.keys = stacked.ev.keys
    return ctx, stacked, reference, sk, rk


def test_bfv_stacked_matches_reference(bfv_pair, rng, each_impl):
    for _ in each_impl():
        ctx, stacked, reference, sk, rk = bfv_pair
        x = rng.integers(0, ctx.t, ctx.n)
        y = rng.integers(0, ctx.t, ctx.n)
        cx, cy = stacked.encrypt(x, sk), stacked.encrypt(y, sk)
        _assert_same(stacked.add(cx, cy), reference.add(cx, cy), "add")
        _assert_same(stacked.sub(cx, cy), reference.sub(cx, cy), "sub")
        _assert_same(stacked.ev.negate(cx), reference.ev.negate(cx), "neg")
        prod_s = stacked.ev.multiply(cx, cy)
        prod_r = reference.ev.multiply(cx, cy)
        _assert_same(prod_s, prod_r, "multiply")
        # depth 2 on the already-multiplied ciphertext
        _assert_same(stacked.ev.multiply(prod_s, cx),
                     reference.ev.multiply(prod_r, cx), "multiply-depth2")
        _assert_same(stacked.rotate(cx, 2), reference.rotate(cx, 2),
                     "rotate")
        _assert_same(stacked.conjugate(cx), reference.conjugate(cx),
                     "conjugate")


def test_reference_oracle_runs_numpy_kernels(bfv_pair, rng):
    """The oracle does not share the C kernels with production: a traced
    reference BFV multiply and rotation run only numpy kernels while the
    library is loaded (production's run C), and the library is back
    after each call, also after one that raised."""
    from repro import obs
    from repro.nttmath import native

    ctx, stacked, reference, sk, _ = bfv_pair
    lib = native.kernel()
    cx = stacked.encrypt(rng.integers(0, ctx.t, ctx.n), sk)
    was = obs.TRACER.enabled
    obs.TRACER.drain()
    impls = {}
    try:
        for name, scheme in (("reference", reference),
                             ("production", stacked)):
            obs.TRACER.enabled = True
            scheme.ev.multiply(cx, cx)
            scheme.rotate(cx, 2)
            obs.TRACER.enabled = False
            events, _ = obs.TRACER.drain()
            impls[name] = {(ev[obs.EV_ATTRS] or {}).get("impl")
                           for ev in events} - {None}
            assert native._LIB is lib
    finally:
        obs.TRACER.enabled = was
    assert impls["reference"] == {"numpy"}
    assert ("c" in impls["production"]) == (lib is not None)
    with pytest.raises(ValueError):
        reference.ev.rotate(cx, 3)          # no Galois key for step 3
    assert native._LIB is lib


def test_reference_entry_points_resolve_as_unwrapped():
    """Every public method of every reference class runs under the
    numpy scope and is the method the class would have without the
    wrappers: the generic copy ``ReferenceEvaluator`` holds never
    shadows a scheme's production override."""
    import inspect

    from repro.schemes import reference as ref

    def unwrapped(cls, name):
        for owner in cls.__mro__:
            attr = vars(owner).get(name)
            if attr is None:
                continue
            origin = getattr(attr, "numpy_only", None)
            if origin == "inherited":
                continue
            return inspect.unwrap(attr) if origin else attr

    for cls in (ref.ReferenceEvaluator, ref.ReferenceCkksEvaluator,
                ref.ReferenceBgvEvaluator, ref.ReferenceBfvEvaluator):
        for name in dir(cls):
            attr = inspect.getattr_static(cls, name)
            if name.startswith("_") or not inspect.isfunction(attr):
                continue
            assert getattr(attr, "numpy_only", None), (cls, name)
            assert inspect.unwrap(attr) is unwrapped(cls, name), (cls, name)
    assert (inspect.unwrap(ref.ReferenceCkksEvaluator.rescale_to)
            is CkksEvaluator.rescale_to)


def test_bfv_matches_plain_arithmetic(bfv_pair, rng):
    ctx, stacked, reference, sk, rk = bfv_pair
    x = rng.integers(0, ctx.t, ctx.n)
    y = rng.integers(0, ctx.t, ctx.n)
    cm = stacked.multiply(stacked.encrypt(x, sk),
                          stacked.encrypt(y, sk), rk)
    assert np.array_equal(stacked.decrypt(cm, sk), x * y % ctx.t)
    assert np.array_equal(reference.decrypt(cm, sk), x * y % ctx.t)


def test_bfv_dot_product_exact(rng):
    from repro.workloads.bfv_dotproduct import BfvDotProduct

    dotter = BfvDotProduct(BfvParams(n=32, q_count=5, dnum=2, seed=42))
    n, t = dotter.ctx.n, dotter.ctx.t
    x = rng.integers(0, t, n)
    y = rng.integers(0, t, n)
    want = int((x.astype(object) * y.astype(object)).sum() % t)
    assert dotter.dot(x, y) == want


# ----------------------------------------------------------------------
# BGV: stacked vs reference across levels, bitwise
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def bgv_pair():
    ctx = BgvContext(BgvParams(n=64, q_count=8, dnum=4, seed=20260728))
    stacked = BgvScheme(ctx, stacked=True)
    sk = stacked.gen_secret()
    rk = stacked.gen_relin(sk)
    gk = stacked.gen_galois(3, sk)
    reference = BgvScheme(ctx, stacked=False)
    reference.ev.keys = stacked.ev.keys
    return ctx, stacked, reference, sk, rk, gk


def test_bgv_stacked_matches_reference_across_levels(bgv_pair, rng, each_impl):
    for _ in each_impl():
        ctx, stacked, reference, sk, rk, gk = bgv_pair
        x = rng.integers(0, ctx.t, ctx.n)
        y = rng.integers(0, ctx.t, ctx.n)
        cx, cy = stacked.encrypt(x, sk), stacked.encrypt(y, sk)
        # full level
        _assert_same(stacked.add(cx, cy), reference.add(cx, cy), "add@L")
        _assert_same(stacked.mul_plain(cx, y), reference.mul_plain(cx, y),
                     "mul_plain@L")
        _assert_same(stacked.add_plain(cx, y), reference.add_plain(cx, y),
                     "add_plain@L")
        _assert_same(stacked.ev.multiply(cx, cy),
                     reference.ev.multiply(cx, cy), "multiply@L")
        _assert_same(stacked.rotate(cx, 3, gk), reference.rotate(cx, 3, gk),
                     "rotate@L")
        # walk down the chain: switch, then operate at each lower level
        cs, cr = cx, cx
        for drop in (1, 2):
            cs = stacked.mod_switch(cs, times=1)
            cr = reference.mod_switch(cr, times=1)
            _assert_same(cs, cr, f"mod_switch-{drop}")
            _assert_same(stacked.ev.multiply(cs, cs),
                         reference.ev.multiply(cr, cr),
                         f"multiply@L-{drop}")
            _assert_same(stacked.rotate(cs, 3, gk),
                         reference.rotate(cr, 3, gk), f"rotate@L-{drop}")
            _assert_same(stacked.add_plain(cs, y),
                         reference.add_plain(cr, y), f"add_plain@L-{drop}")


def test_bgv_exactness_survives_the_stack(bgv_pair, rng):
    """The t-corrected ModDown and modulus switch must keep arithmetic
    exact through a squaring chain on the stacked path."""
    ctx, stacked, reference, sk, rk, gk = bgv_pair
    x = rng.integers(0, ctx.t, ctx.n)
    for scheme in (stacked, reference):
        ct = scheme.encrypt(x, sk)
        expect = x.copy()
        for _ in range(2):
            ct = scheme.mod_switch(scheme.multiply(ct, ct, rk), times=2)
            expect = expect * expect % ctx.t
        assert np.array_equal(scheme.decrypt(ct, sk), expect)


# ----------------------------------------------------------------------
# Single-ciphertext ops run the batch kernels on a zero-copy k=1 view
# ----------------------------------------------------------------------
ROUTED_OPS = {
    "ckks": ("rotate", "conjugate", "rotate_hoisted", "multiply",
             "square", "key_switch", "rescale",
             "multiply_plain"),
    "bgv": ("multiply", "mod_switch", "rotate", "multiply_plain"),
    "bfv": ("multiply", "rotate", "conjugate"),
}


@pytest.mark.parametrize("scheme,op", [(scheme, op)
                                       for scheme, ops in ROUTED_OPS.items()
                                       for op in ops])
def test_routed_ops_never_write_their_inputs(scheme, op, request, rng):
    """A single ciphertext enters the batch kernels as a view of its own
    pair (``CiphertextBatch.from_ciphertexts([ct])`` copies nothing), so
    a kernel writing its input stack would corrupt the caller's
    ciphertext.  Every routed op must leave its inputs' bytes as they
    were."""
    if scheme == "ckks":
        ck = request.getfixturevalue("ckks_small")
        ev = ck.ev
        x, y = (ck.encrypt(ck.random_message(rng)) for _ in range(2))
        pt = ck.ctx.encode(ck.random_message(rng))
        d2 = x.c1.to_coeff()
        calls = {
            "rotate": lambda: ev.rotate(x, 1),
            "conjugate": lambda: ev.conjugate(x),
            "rotate_hoisted": lambda: ev.rotate_hoisted(x, [0, 1, 2]),
            "multiply": lambda: ev.multiply(x, y),
            "square": lambda: ev.square(x),
            "key_switch": lambda: ev.key_switch(d2, ev.keys.relin),
            "rescale": lambda: ev.rescale(x),
            "multiply_plain": lambda: ev.multiply_plain(x, pt),
        }
        watched = [x.pair(), y.pair(), d2.data, pt.poly.data]
    elif scheme == "bgv":
        ctx, bgv, _, sk, _, gk = request.getfixturevalue("bgv_pair")
        m = rng.integers(0, ctx.t, ctx.n)
        x, y = bgv.encrypt(m, sk), bgv.encrypt(m[::-1].copy(), sk)
        calls = {
            "multiply": lambda: bgv.multiply(x, y),
            "mod_switch": lambda: bgv.mod_switch(x, times=2),
            "rotate": lambda: bgv.rotate(x, 3, gk),
            "multiply_plain": lambda: bgv.mul_plain(x, m),
        }
        watched = [x.pair(), y.pair()]
    else:
        ctx, bfv, _, sk, _ = request.getfixturevalue("bfv_pair")
        m = rng.integers(0, ctx.t, ctx.n)
        x, y = bfv.encrypt(m, sk), bfv.encrypt(m[::-1].copy(), sk)
        calls = {
            "multiply": lambda: bfv.multiply(x, y),
            "rotate": lambda: bfv.rotate(x, 2),
            "conjugate": lambda: bfv.conjugate(x),
        }
        watched = [x.pair(), y.pair()]
    before = [a.copy() for a in watched]
    calls[op]()
    for i, (now, was) in enumerate(zip(watched, before)):
        assert np.array_equal(now, was), f"{scheme} {op} wrote input {i}"


# ----------------------------------------------------------------------
# Production ops take NTT-domain ciphertexts only
# ----------------------------------------------------------------------
NTT_ONLY_OPS = {
    "ckks": ("rotate", "conjugate", "rotate_hoisted", "rescale",
             "multiply", "multiply_plain"),
    "bgv": ("mod_switch", "multiply", "multiply_plain", "rotate"),
    "bfv": ("multiply", "rotate"),
}


def _coeff_domain(ct: Ciphertext) -> Ciphertext:
    return type(ct)(c0=ct.c0.to_coeff(), c1=ct.c1.to_coeff(),
                    scale=ct.scale)


@pytest.mark.parametrize("scheme,op", [(scheme, op)
                                       for scheme, ops in NTT_ONLY_OPS.items()
                                       for op in ops])
def test_ntt_only_ops_reject_coefficient_domain(scheme, op, request, rng):
    """Every NTT-only production op raises the one named
    :class:`NttDomainError` for a coefficient-domain ciphertext (the
    reference evaluator still takes one where the arithmetic allows)."""
    if scheme == "ckks":
        ck = request.getfixturevalue("ckks_small")
        ev = ck.ev
        x = ck.encrypt(ck.random_message(rng))
        pt = ck.ctx.encode(ck.random_message(rng))
        calls = {
            "rotate": lambda c: ev.rotate(c, 1),
            "conjugate": lambda c: ev.conjugate(c),
            "rotate_hoisted": lambda c: ev.rotate_hoisted(c, [0, 1]),
            "rescale": lambda c: ev.rescale(c),
            "multiply": lambda c: ev.multiply(c, c),
            "multiply_plain": lambda c: ev.multiply_plain(c, pt),
        }
    elif scheme == "bgv":
        ctx, bgv, _, sk, _, gk = request.getfixturevalue("bgv_pair")
        m = rng.integers(0, ctx.t, ctx.n)
        x = bgv.encrypt(m, sk)
        pt = RnsPolynomial.from_small_coeffs(x.basis, m).to_ntt()
        calls = {
            "mod_switch": lambda c: bgv.mod_switch(c),
            "multiply": lambda c: bgv.ev.multiply(c, c),
            "multiply_plain": lambda c: bgv.ev.multiply_plain(
                c, Plaintext(poly=pt, scale=1.0)),
            "rotate": lambda c: bgv.rotate(c, 3, gk),
        }
    else:
        ctx, bfv, _, sk, _ = request.getfixturevalue("bfv_pair")
        x = bfv.encrypt(rng.integers(0, ctx.t, ctx.n), sk)
        calls = {
            "multiply": lambda c: bfv.ev.multiply(c, c),
            "rotate": lambda c: bfv.rotate(c, 2),
        }
    calls[op](x)                      # the NTT-domain input is accepted
    with pytest.raises(NttDomainError, match="NTT-domain"):
        calls[op](_coeff_domain(x))


# ----------------------------------------------------------------------
# An explicit relinearization key is passed down, never installed
# ----------------------------------------------------------------------
class _SealedKeyChain(KeyChain):
    """A key chain that fails the test on any attribute write."""

    def seal(self) -> "_SealedKeyChain":
        object.__setattr__(self, "_sealed", True)
        return self

    def __setattr__(self, name, value):
        if getattr(self, "_sealed", False):
            raise AssertionError(f"evaluator key chain written: {name}")
        super().__setattr__(name, value)


@pytest.mark.parametrize("stacked", [True, False])
@pytest.mark.parametrize("scheme_name", ["bgv", "bfv"])
def test_explicit_relin_key_never_writes_the_key_chain(scheme_name,
                                                       stacked, rng):
    if scheme_name == "bgv":
        ctx = BgvContext(BgvParams(n=64, q_count=5, dnum=2, seed=77))
        make = BgvScheme
    else:
        ctx = BfvContext(BfvParams(n=64, q_count=5, dnum=2, seed=77))
        make = BfvScheme
    scheme = make(ctx, stacked=stacked)
    sk = scheme.gen_secret()
    installed = scheme.gen_relin(sk)
    other = scheme.keygen.gen_relin(sk)
    chain = _SealedKeyChain(relin=installed).seal()
    scheme.ev.keys = chain
    x, y = (scheme.encrypt(rng.integers(0, ctx.t, ctx.n), sk)
            for _ in range(2))
    got = scheme.multiply(x, y, other)
    assert scheme.ev.keys is chain and chain.relin is installed
    built_with_other = make(ctx, stacked=stacked)
    built_with_other.ev.keys = KeyChain(relin=other)
    _assert_same(got, built_with_other.ev.multiply(x, y), "multiply(rk)")
    assert not np.array_equal(got.pair(),
                              scheme.multiply(x, y).pair()), \
        "the explicit key was not the one used"


# ----------------------------------------------------------------------
# Golden vectors (deterministic contexts, pinned digests)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def golden_bfv():
    ctx = BfvContext(BfvParams(n=32, q_count=5, dnum=2, seed=424242))
    scheme = BfvScheme(ctx)
    sk = scheme.gen_secret()
    scheme.gen_relin(sk)
    scheme.gen_galois(1, sk)
    x = np.arange(ctx.n, dtype=np.int64) % ctx.t
    y = (np.arange(ctx.n, dtype=np.int64) * 7 + 3) % ctx.t
    return scheme, sk, scheme.encrypt(x, sk), scheme.encrypt(y, sk)


def test_golden_bfv_vectors(golden_bfv, each_impl):
    for _ in each_impl():
        scheme, sk, cx, cy = golden_bfv
        assert _digest(cx) == "8ba50286c3e9b130"
        assert _digest(scheme.ev.multiply(cx, cy)) == "99d96a293b2b7008"
        assert _digest(scheme.rotate(cx, 1)) == "b0d3fd7454c1aee7"


@pytest.fixture(scope="module")
def golden_bgv():
    ctx = BgvContext(BgvParams(n=32, q_count=6, dnum=3, seed=424242))
    scheme = BgvScheme(ctx)
    sk = scheme.gen_secret()
    scheme.gen_relin(sk)
    x = np.arange(ctx.n, dtype=np.int64) % ctx.t
    y = (np.arange(ctx.n, dtype=np.int64) * 5 + 1) % ctx.t
    return scheme, sk, scheme.encrypt(x, sk), scheme.encrypt(y, sk)


def test_golden_bgv_vectors(golden_bgv, each_impl):
    for _ in each_impl():
        scheme, sk, cx, cy = golden_bgv
        assert _digest(cx) == "ffa8bd72cd510336"
        assert _digest(scheme.ev.multiply(cx, cy)) == "fd3934c2cd55a4e7"
        assert _digest(scheme.mod_switch(cx, times=2)) == "da9c77874c3058d9"


# ----------------------------------------------------------------------
# The seed implementations as oracles
# ----------------------------------------------------------------------
def test_toy_bfv_oracle_agrees(rng):
    """The seed's exact big-int BFV and the stacked RNS BFV compute the
    same plaintext arithmetic on identical inputs."""
    toy = ToyBfvScheme(ToyBfvContext(ToyBfvParams(n=16, q_count=4,
                                                  seed=5)))
    new = BfvScheme(BfvContext(BfvParams(n=16, q_count=4, dnum=2,
                                         seed=5)))
    t_sk = toy.gen_secret()
    t_rk = toy.gen_relin(t_sk)
    n_sk = new.gen_secret()
    n_rk = new.gen_relin(n_sk)
    t = min(toy.ctx.t, new.ctx.t)
    x = rng.integers(0, t, 16)
    y = rng.integers(0, t, 16)
    toy_prod = toy.decrypt(
        toy.multiply(toy.encrypt(x, t_sk), toy.encrypt(y, t_sk), t_rk),
        t_sk)
    new_prod = new.decrypt(
        new.multiply(new.encrypt(x, n_sk), new.encrypt(y, n_sk), n_rk),
        n_sk)
    assert np.array_equal(toy_prod, x * y % toy.ctx.t)
    assert np.array_equal(new_prod, x * y % new.ctx.t)


def test_toy_bgv_oracle_agrees(rng):
    """The seed's single-pair-key BGV and the hybrid-key stacked BGV
    agree at the plaintext level, including through mod switching, and
    show the same noise-budget behaviour."""
    toy = ToyBgvScheme(ToyBgvContext(ToyBgvParams(n=32, q_count=8,
                                                  seed=5)))
    new = BgvScheme(BgvContext(BgvParams(n=32, q_count=8, dnum=4,
                                         seed=5)))
    t_sk = toy.gen_secret()
    t_rk = toy.gen_relin(t_sk)
    n_sk = new.gen_secret()
    n_rk = new.gen_relin(n_sk)
    x = rng.integers(0, min(toy.ctx.t, new.ctx.t), 32)
    toy_ct = toy.mod_switch(
        toy.multiply(toy.encrypt(x, t_sk), toy.encrypt(x, t_sk), t_rk),
        times=2)
    new_ct = new.mod_switch(
        new.multiply(new.encrypt(x, n_sk), new.encrypt(x, n_sk), n_rk),
        times=2)
    assert np.array_equal(toy.decrypt(toy_ct, t_sk), x * x % toy.ctx.t)
    assert np.array_equal(new.decrypt(new_ct, n_sk), x * x % new.ctx.t)
    # both implementations report a healthy positive budget after the
    # switch (the noise oracle role: mod switching restores headroom)
    assert toy.noise_budget_bits(toy_ct, t_sk) > 0
    assert new.noise_budget_bits(new_ct, n_sk) > 0


# ----------------------------------------------------------------------
# Workload integration: lower -> compile -> simulate
# ----------------------------------------------------------------------
def test_bfv_dotproduct_workload_compiles_and_simulates():
    from repro.core.config import ASIC_EFFACT
    from repro.workloads.base import run_workload
    from repro.workloads.bfv_dotproduct import bfv_dotproduct_workload

    wl = bfv_dotproduct_workload(n=2 ** 12, levels=5, dnum=2)
    mix = wl.instruction_mix()
    assert mix["mult"] > 0 and mix["auto"] > 0 and mix["ntt"] > 0
    run = run_workload(wl, ASIC_EFFACT)
    assert run.cycles > 0
    assert run.runtime_ms > 0


def test_bfv_dotproduct_registered_with_sweep_engine():
    from repro.exp.sweep import workload_names

    assert "bfv_dotproduct" in workload_names()
