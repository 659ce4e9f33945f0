"""Stacked ciphertext-pair evaluator vs the per-polynomial reference.

Every CKKS operation must be *bitwise* identical between
``CkksEvaluator(...)`` (the default: one ``(2L, N)`` kernel per pair,
stacked digit lifts, pair BConv) and ``CkksEvaluator(...,
stacked=False)``, which constructs the per-polynomial reference
(:class:`repro.schemes.reference.ReferenceCkksEvaluator`).  The
property tests run random ciphertexts across several levels;
golden-vector tests pin stacked rotate/rescale outputs on a
self-contained deterministic context so a silent numeric change cannot
hide behind a matching bug in both paths.  The
key-switching cases run once per kernel implementation (``each_impl``),
so the C key-switch kernels and their numpy twins are both pinned.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.nttmath.batched import get_plan, get_stacked_plan
from repro.rns.poly import RnsPolynomial, stacked_engine
from repro.schemes import reference
from repro.schemes.bfv import BfvContext, BfvEvaluator, BfvParams, BfvScheme
from repro.schemes.bgv import BgvContext, BgvEvaluator, BgvParams, BgvScheme
from repro.schemes.ckks import (
    Ciphertext,
    CkksBootstrapper,
    CkksContext,
    CkksEvaluator,
    CkksParams,
    Encryptor,
    KeyGenerator,
    Plaintext,
)
from repro.schemes.rns_core import CiphertextBatch, PlaintextBasisError

SCALE = float(2 ** 25)
LEVELS = (1, 2, 3)


@pytest.fixture(scope="module")
def legacy(ckks_small) -> CkksEvaluator:
    return CkksEvaluator(ckks_small.ctx, ckks_small.keys, stacked=False)


def _random_ct(ckks, rng, level: int) -> Ciphertext:
    """A uniformly random NTT-domain ciphertext at ``level`` (bitwise
    differential tests need arbitrary residues, not just encryptions)."""
    basis = ckks.ctx.q_basis(level)
    n = ckks.ctx.n
    return Ciphertext(
        c0=RnsPolynomial.random_uniform(basis, n, rng).to_ntt(),
        c1=RnsPolynomial.random_uniform(basis, n, rng).to_ntt(),
        scale=SCALE)


def _assert_same(a: Ciphertext, b: Ciphertext, what: str) -> None:
    assert np.array_equal(a.c0.data, b.c0.data), f"{what}: c0 differs"
    assert np.array_equal(a.c1.data, b.c1.data), f"{what}: c1 differs"
    assert a.scale == b.scale, f"{what}: scale differs"
    assert a.basis == b.basis, f"{what}: basis differs"


def test_stacked_is_the_default(ckks_small):
    """``stacked=False`` constructs the scheme's reference evaluator, an
    instance of both the production class and a
    :mod:`repro.schemes.reference` class; the default is production."""
    bgv_ctx = BgvContext(BgvParams(n=16, q_count=3, dnum=2, seed=5))
    bfv_ctx = BfvContext(BfvParams(n=16, q_count=3, dnum=2, seed=5))
    refs = [
        (CkksEvaluator(ckks_small.ctx, ckks_small.keys, stacked=False),
         CkksEvaluator, reference.ReferenceCkksEvaluator),
        (BgvScheme(bgv_ctx, stacked=False).ev, BgvEvaluator,
         reference.ReferenceBgvEvaluator),
        (BfvScheme(bfv_ctx, stacked=False).ev, BfvEvaluator,
         reference.ReferenceBfvEvaluator),
    ]
    for ev, production, ref in refs:
        assert isinstance(ev, production) and isinstance(ev, ref)
        assert isinstance(ev, reference.ReferenceEvaluator)
    defaults = [ckks_small.ev,
                CkksEvaluator(ckks_small.ctx, ckks_small.keys, stacked=True),
                BgvScheme(bgv_ctx).ev, BfvScheme(bfv_ctx).ev]
    for ev in defaults:
        assert not isinstance(ev, reference.ReferenceEvaluator)
    assert type(ckks_small.ev) is CkksEvaluator


def test_pair_view_round_trip(ckks_small, rng):
    """Stacking rebinds c0/c1 as zero-copy views of the pair."""
    ct = _random_ct(ckks_small, rng, 2)
    c0_before = ct.c0.data.copy()
    pair = ct.pair()
    assert pair.shape == (2 * len(ct.basis), ct.n)
    assert np.shares_memory(ct.c0.data, pair)
    assert np.shares_memory(ct.c1.data, pair)
    assert np.array_equal(ct.c0.data, c0_before)
    assert ct.pair() is pair                      # cached
    clone = ct.copy()
    assert not np.shares_memory(clone.pair(), pair)
    _assert_same(clone, ct, "copy")


def test_add_sub_negate_bitwise(ckks_small, legacy, rng):
    ev = ckks_small.ev
    for level in LEVELS:
        x = _random_ct(ckks_small, rng, level)
        y = _random_ct(ckks_small, rng, level)
        _assert_same(ev.add(x, y), legacy.add(x, y), f"add@{level}")
        _assert_same(ev.sub(x, y), legacy.sub(x, y), f"sub@{level}")
        _assert_same(ev.negate(x), legacy.negate(x), f"neg@{level}")


def test_plain_ops_bitwise(ckks_small, legacy, rng):
    ev = ckks_small.ev
    for level in LEVELS:
        ct = _random_ct(ckks_small, rng, level)
        z = ckks_small.random_message(rng)
        pt = ckks_small.ctx.encode(z, level=level, scale=SCALE)
        _assert_same(ev.add_plain(ct, pt), legacy.add_plain(ct, pt),
                     f"add_plain@{level}")
        _assert_same(ev.sub_plain(ct, pt), legacy.sub_plain(ct, pt),
                     f"sub_plain@{level}")
        _assert_same(ev.multiply_plain(ct, pt),
                     legacy.multiply_plain(ct, pt),
                     f"multiply_plain@{level}")
        _assert_same(ev.add_scalar(ct, 0.25 + 0.5j),
                     legacy.add_scalar(ct, 0.25 + 0.5j),
                     f"add_scalar@{level}")


def test_scalar_ops_bitwise(ckks_small, legacy, rng):
    ev = ckks_small.ev
    for level in LEVELS:
        ct = _random_ct(ckks_small, rng, level)
        _assert_same(ev.multiply_int(ct, 7), legacy.multiply_int(ct, 7),
                     f"multiply_int@{level}")
        _assert_same(ev.multiply_scalar(ct, -1.75),
                     legacy.multiply_scalar(ct, -1.75),
                     f"multiply_scalar@{level}")


@pytest.mark.parametrize("path,op", [
    (path, op) for path in ("production", "reference")
    for op in ("add_plain", "sub_plain", "multiply_plain")
] + [("production", "batch_multiply_plain")])
def test_plaintext_over_other_primes_is_rejected(ckks_small, legacy, rng,
                                                 op, path):
    """A plaintext whose basis does not start with the ciphertext's
    primes (here: one over the special primes P, with the ciphertext's
    limb count) would be reinterpreted mod the wrong primes."""
    ctx = ckks_small.ctx
    limbs = len(ctx.p_basis)
    ct = _random_ct(ckks_small, rng, limbs - 1)
    pt = Plaintext(poly=RnsPolynomial.random_uniform(
        ctx.p_basis, ctx.n, rng).to_ntt(), scale=SCALE)
    assert len(pt.poly.basis) == len(ct.basis)
    ev = ckks_small.ev if path == "production" else legacy
    if op == "batch_multiply_plain":
        call = lambda: ev.batch_multiply_plain(  # noqa: E731
            CiphertextBatch.from_ciphertexts([ct, ct.copy()]), pt)
    else:
        call = lambda: getattr(ev, op)(ct, pt)  # noqa: E731
    with pytest.raises(PlaintextBasisError, match="prefix"):
        call()


def test_multiply_relin_rescale_bitwise(ckks_small, legacy, rng, each_impl):
    for _ in each_impl():
        ev = ckks_small.ev
        for level in LEVELS:
            x = _random_ct(ckks_small, rng, level)
            y = _random_ct(ckks_small, rng, level)
            prod_s = ev.multiply(x, y)
            prod_l = legacy.multiply(x, y)
            _assert_same(prod_s, prod_l, f"multiply@{level}")
            if level >= 1:
                _assert_same(ev.rescale(prod_s), legacy.rescale(prod_l),
                             f"rescale@{level}")


def test_rescale_coeff_domain_bitwise(ckks_small, legacy, rng):
    """The reference still rescales a coefficient-domain ciphertext
    (landing in the NTT domain); its result equals the production
    rescale of the same ciphertext in the NTT domain."""
    ev = ckks_small.ev
    basis = ckks_small.ctx.q_basis(3)
    n = ckks_small.ctx.n
    ct = Ciphertext(c0=RnsPolynomial.random_uniform(basis, n, rng),
                    c1=RnsPolynomial.random_uniform(basis, n, rng),
                    scale=SCALE)
    ntt = Ciphertext(c0=ct.c0.to_ntt(), c1=ct.c1.to_ntt(), scale=SCALE)
    _assert_same(legacy.rescale(ct), ev.rescale(ntt), "rescale-coeff")


def test_rescale_to_and_drop_level_bitwise(ckks_small, legacy, rng):
    ev = ckks_small.ev
    ct = _random_ct(ckks_small, rng, 3)
    for level in (2, 1):
        _assert_same(ev.drop_level(ct, level),
                     legacy.drop_level(ct, level), f"drop@{level}")
        _assert_same(ev.rescale_to(ct, level, SCALE),
                     legacy.rescale_to(ct, level, SCALE),
                     f"rescale_to@{level}")


def test_key_switch_bitwise(ckks_small, legacy, rng, each_impl):
    for _ in each_impl():
        ev = ckks_small.ev
        for level in LEVELS:
            basis = ckks_small.ctx.q_basis(level)
            d2 = RnsPolynomial.random_uniform(basis, ckks_small.ctx.n, rng)
            ks_s = ev.key_switch(d2, ckks_small.keys.relin)
            ks_l = legacy.key_switch(d2, ckks_small.keys.relin)
            for got, want in zip(ks_s, ks_l):
                assert np.array_equal(got.data, want.data), f"ks@{level}"
                assert got.is_ntt and got.basis == basis


def test_rotate_conjugate_bitwise(ckks_small, legacy, rng, each_impl):
    for _ in each_impl():
        ev = ckks_small.ev
        for level in LEVELS:
            ct = _random_ct(ckks_small, rng, level)
            for step in (1, 5, -2):
                _assert_same(ev.rotate(ct, step), legacy.rotate(ct, step),
                             f"rotate{step}@{level}")
            _assert_same(ev.conjugate(ct), legacy.conjugate(ct),
                         f"conjugate@{level}")


def test_rotate_hoisted_bitwise(ckks_small, legacy, rng, each_impl):
    for _ in each_impl():
        ev = ckks_small.ev
        steps = [0, 1, 2, 5, -1]
        for level in LEVELS:
            ct = _random_ct(ckks_small, rng, level)
            hoisted_s = ev.rotate_hoisted(ct, steps)
            hoisted_l = legacy.rotate_hoisted(ct, steps)
            assert hoisted_s.keys() == hoisted_l.keys()
            for step in steps:
                _assert_same(hoisted_s[step], hoisted_l[step],
                             f"hoisted{step}@{level}")


def test_rotate_hoisted_identity_steps_skip_the_lift(ckks_small, rng,
                                                    monkeypatch):
    """Identity-only step lists (e.g. a 1x1 conv kernel) must not pay
    the decompose+ModUp+NTT digit lift — it runs lazily on the first
    non-identity step."""
    ev = ckks_small.ev
    ct = _random_ct(ckks_small, rng, 2)

    def boom(*args, **kwargs):
        raise AssertionError("digit lift ran for identity-only steps")

    monkeypatch.setattr(ev, "_lift_digits_batch", boom)
    out = ev.rotate_hoisted(ct, [0])
    _assert_same(out[0], ct, "identity hoisted rotation")


def test_mod_raise_bitwise(ckks_deep, rng):
    """Bootstrap ModRaise: stacked pair lift equals per-poly lift."""
    ev_l = CkksEvaluator(ckks_deep.ctx, ckks_deep.keys, stacked=False)
    boot_s = CkksBootstrapper(ckks_deep.ctx, ckks_deep.ev)
    boot_l = CkksBootstrapper(ckks_deep.ctx, ev_l)
    ct = _random_ct(ckks_deep, rng, 0)
    _assert_same(boot_s.mod_raise(ct), boot_l.mod_raise(ct), "mod_raise")


# ----------------------------------------------------------------------
# Stacked transform machinery (the rns/nttmath layer underneath)
# ----------------------------------------------------------------------
def test_stacked_transform_mixed_bases(ckks_small, rng):
    """k polynomials over different prefix/ext bases transform in one
    stacked-engine pass, bitwise identical to per-polynomial
    transforms."""
    ctx = ckks_small.ctx
    bases = [ctx.q_basis(1), ctx.q_basis(3), ctx.ext_basis(2),
             ctx.q_basis(3)]
    polys = [RnsPolynomial.random_uniform(b, ctx.n, rng) for b in bases]
    engine = stacked_engine(ctx.n, bases)
    fwd = engine.forward(np.concatenate([p.data for p in polys]))
    row = 0
    for poly in polys:
        limbs = len(poly.basis)
        assert np.array_equal(fwd[row:row + limbs], poly.to_ntt().data)
        row += limbs
    back = engine.inverse(fwd)
    assert np.array_equal(back, np.concatenate([p.data for p in polys]))


def test_stacked_plan_reuses_donor_tables(ckks_small):
    """Repeated identical chains collapse onto the union-chain plan
    under ``dedupe=True`` (the batch path) — tile-wise transforms
    share one set of twiddle rows.  Default calls keep the dedicated
    row-gathered engine, the layout every pair-path kernel was tuned
    on."""
    ctx = ckks_small.ctx
    basis = ctx.q_basis(3)
    donor = get_plan(ctx.n, basis.primes)
    for k in (2, 3, 8):
        plan = get_stacked_plan(ctx.n, (basis.primes,) * k, dedupe=True)
        assert plan is donor
        assert plan.primes == basis.primes
    pair = get_stacked_plan(ctx.n, (basis.primes, basis.primes))
    assert pair is not donor
    assert pair is get_stacked_plan(ctx.n, (basis.primes, basis.primes))
    engine = pair.ntt
    assert engine.primes == basis.primes + basis.primes
    assert np.array_equal(engine._psi_u[:len(basis)],
                          donor.ntt._psi_u[:len(basis)])


def test_stacked_engine_transform_and_automorphism(ckks_small, rng):
    ctx = ckks_small.ctx
    basis = ctx.q_basis(2)
    eng = stacked_engine(ctx.n, (basis, basis))
    single = get_plan(ctx.n, basis.primes).ntt
    limbs = len(basis)
    data = np.concatenate([
        RnsPolynomial.random_uniform(basis, ctx.n, rng).data
        for _ in range(2)])
    fwd = eng.forward(data)
    assert np.array_equal(fwd[:limbs], single.forward(data[:limbs]))
    assert np.array_equal(fwd[limbs:], single.forward(data[limbs:]))
    assert np.array_equal(eng.inverse(fwd), data)
    out = np.empty_like(fwd)
    res = eng.automorphism_ntt(fwd, 3, out=out)
    assert res is out
    assert np.array_equal(out[:limbs], single.automorphism_ntt(
        fwd[:limbs], 3))


# ----------------------------------------------------------------------
# Golden vectors: self-contained deterministic context (the shared
# session fixtures draw from one rng stream, so goldens pin their own)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def golden_ckks():
    params = CkksParams(n=2 ** 7, levels=3, dnum=2, scale_bits=25,
                        q0_bits=29, p_bits=30, seed=424242)
    ctx = CkksContext(params)
    keygen = KeyGenerator(ctx)
    sk = keygen.gen_secret()
    pk = keygen.gen_public(sk)
    keys = keygen.gen_keychain(sk, rotations=[1, 3])
    enc = Encryptor(ctx, pk)
    ev = CkksEvaluator(ctx, keys)
    slots = params.slots
    z = (np.linspace(-1.0, 1.0, slots)
         + 1j * np.linspace(1.0, -1.0, slots))
    ct = enc.encrypt(ctx.encode(z))
    return ev, ct


def _digest(ct: Ciphertext) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(ct.c0.data).tobytes())
    h.update(np.ascontiguousarray(ct.c1.data).tobytes())
    return h.hexdigest()[:16]


def test_golden_stacked_rotate(golden_ckks, each_impl):
    for _ in each_impl():
        ev, ct = golden_ckks
        assert _digest(ev.rotate(ct, 1)) == "7f797a5931d5e69b"
        assert _digest(ev.rotate(ct, 3)) == "513609594a5edb26"


def test_golden_stacked_rescale(golden_ckks):
    ev, ct = golden_ckks
    prod = ev.rescale(ev.multiply(ct, ct))
    assert _digest(prod) == "685b11f2d10d7ed7"
    assert prod.level == ct.level - 1
