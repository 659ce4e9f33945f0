"""Cross-ciphertext k-way batching: bitwise equality vs the
sequential per-ciphertext loop (single-ciphertext calls, pinned to the
``stacked=False`` reference by ``test_stacked_evaluator.py`` and
``test_rns_core_schemes.py``), for every batch op, k in {1, 2, 3, 8},
several levels, CKKS and BGV; mixed-scale products against the
reference directly; plus golden digests and cache-bound checks.  The
key-switching cases run once per kernel implementation
(``each_impl``)."""

import hashlib

import numpy as np
import pytest

from repro.batch.coalesce import BatchRequest, execute_batched
from repro.nttmath.batched import clear_caches, plan_cache_size
from repro.schemes.bgv import BgvContext, BgvEvaluator, BgvParams, BgvScheme
from repro.schemes.ckks import (
    CkksContext,
    CkksEvaluator,
    CkksParams,
    Encryptor,
    KeyGenerator,
)
from repro.schemes.rns_core import CiphertextBatch, batch_col_cache_size

KS = (1, 2, 3, 8)
ROTS = [1, 3]


# ----------------------------------------------------------------------
# Fixtures: one small CKKS and one small BGV instance
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def ckks():
    params = CkksParams(n=2 ** 7, levels=4, dnum=2, scale_bits=25,
                        q0_bits=29, p_bits=30, seed=31337)
    ctx = CkksContext(params)
    keygen = KeyGenerator(ctx)
    sk = keygen.gen_secret()
    pk = keygen.gen_public(sk)
    keys = keygen.gen_keychain(sk, rotations=ROTS)
    enc = Encryptor(ctx, pk)
    ev = CkksEvaluator(ctx, keys)
    rng = np.random.default_rng(7)
    cts = []
    for _ in range(max(KS)):
        z = (rng.uniform(-1, 1, params.slots)
             + 1j * rng.uniform(-1, 1, params.slots))
        cts.append(enc.encrypt(ctx.encode(z)))
    pt = ctx.encode(rng.uniform(-1, 1, params.slots))
    return ctx, ev, cts, pt


@pytest.fixture(scope="module")
def bgv():
    ctx = BgvContext(BgvParams(n=64, q_count=5, seed=5))
    scheme = BgvScheme(ctx)
    sk = scheme.gen_secret()
    scheme.gen_relin(sk)
    for step in ROTS:
        scheme.ev.keys.galois[step] = scheme.keygen.gen_galois(step, sk)
    rng = np.random.default_rng(9)
    cts = [scheme.encrypt(rng.integers(0, ctx.t, ctx.n), sk)
           for _ in range(max(KS))]
    return ctx, scheme.ev, cts


def _assert_batch_equals(batch: CiphertextBatch, want) -> None:
    got = batch.split()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.basis == w.basis
        assert g.is_ntt == w.is_ntt
        assert np.array_equal(g.pair(), w.pair())
        assert g.scale == pytest.approx(w.scale, rel=1e-12)


def _ckks_at_level(ckks, k: int, level: int):
    _, ev, cts, _ = ckks
    members = [ev.drop_level(ct, level) for ct in cts[:k]]
    return ev, members, CiphertextBatch.from_ciphertexts(members)


# ----------------------------------------------------------------------
# CKKS: every batch op vs the sequential loop
# ----------------------------------------------------------------------
@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("level", [1, 2, 3])
def test_ckks_linear_ops_match_sequential(ckks, k, level):
    ev, members, batch = _ckks_at_level(ckks, k, level)
    other = CiphertextBatch.from_ciphertexts(list(reversed(members)))
    _assert_batch_equals(
        ev.batch_add(batch, other),
        [ev.add(x, y) for x, y in zip(members, reversed(members))])
    _assert_batch_equals(
        ev.batch_sub(batch, other),
        [ev.sub(x, y) for x, y in zip(members, reversed(members))])
    _assert_batch_equals(ev.batch_negate(batch),
                         [ev.negate(ct) for ct in members])


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("level", [1, 2, 3])
def test_ckks_multiply_plain_matches_sequential(ckks, k, level):
    ctx, ev, _, pt = ckks
    ev, members, batch = _ckks_at_level(ckks, k, level)
    _assert_batch_equals(ev.batch_multiply_plain(batch, pt),
                         [ev.multiply_plain(ct, pt) for ct in members])


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("level", [1, 2, 3])
def test_ckks_multiply_rescale_matches_sequential(ckks, k, level, each_impl):
    for _ in each_impl():
        ev, members, batch = _ckks_at_level(ckks, k, level)
        other = CiphertextBatch.from_ciphertexts(list(reversed(members)))
        prod = ev.batch_multiply(batch, other)
        want = [ev.multiply(x, y)
                for x, y in zip(members, reversed(members))]
        _assert_batch_equals(prod, want)
        _assert_batch_equals(ev.batch_rescale(prod),
                             [ev.rescale(ct) for ct in want])


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("level", [1, 2, 3])
def test_ckks_rotate_matches_sequential(ckks, k, level, each_impl):
    for _ in each_impl():
        ev, members, batch = _ckks_at_level(ckks, k, level)
        for step in ROTS:
            _assert_batch_equals(ev.batch_rotate(batch, step),
                                 [ev.rotate(ct, step) for ct in members])


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("level", [1, 2, 3])
def test_ckks_rotate_hoisted_matches_sequential(ckks, k, level, each_impl):
    for _ in each_impl():
        ev, members, batch = _ckks_at_level(ckks, k, level)
        steps = [0] + ROTS
        got = ev.batch_rotate_hoisted(batch, steps)
        want = [ev.rotate_hoisted(ct, steps) for ct in members]
        assert set(got) == set(steps)
        for step in steps:
            _assert_batch_equals(got[step], [w[step] for w in want])


@pytest.mark.parametrize("k", KS)
def test_ckks_key_switch_matches_sequential(ckks, k, each_impl):
    for _ in each_impl():
        _, ev, cts, _ = ckks
        members = cts[:k]
        basis = members[0].basis
        stack = np.concatenate(
            [ct.c1.to_coeff().data for ct in members])
        got, q_basis = ev.batch_key_switch(stack, basis, ev.keys.relin, k)
        assert q_basis == basis
        limbs = len(basis)
        for i, ct in enumerate(members):
            ks0, ks1 = ev.key_switch(ct.c1.to_coeff(), ev.keys.relin)
            pair = got[2 * i * limbs:2 * (i + 1) * limbs]
            assert np.array_equal(pair[:limbs], ks0.data)
            assert np.array_equal(pair[limbs:], ks1.data)


def test_ckks_mixed_level_batches_reject_fusion(ckks):
    _, ev, cts, _ = ckks
    with pytest.raises(ValueError, match="basis"):
        CiphertextBatch.from_ciphertexts(
            [cts[0], ev.drop_level(cts[1], 2)])


def test_batch_split_round_trip(ckks):
    _, ev, cts, _ = ckks
    batch = CiphertextBatch.from_ciphertexts(cts[:3])
    again = CiphertextBatch.from_ciphertexts(batch.split())
    assert np.array_equal(batch.stack, again.stack)
    assert batch.scales == again.scales


# ----------------------------------------------------------------------
# BGV: exact arithmetic through the same batch kernels
# ----------------------------------------------------------------------
@pytest.mark.parametrize("k", KS)
def test_bgv_ops_match_sequential(bgv, k, each_impl):
    for _ in each_impl():
        _, ev, cts = bgv
        members = cts[:k]
        batch = CiphertextBatch.from_ciphertexts(members)
        other = CiphertextBatch.from_ciphertexts(list(reversed(members)))
        _assert_batch_equals(
            ev.batch_add(batch, other),
            [ev.add(x, y) for x, y in zip(members, reversed(members))])
        _assert_batch_equals(
            ev.batch_sub(batch, other),
            [ev.sub(x, y) for x, y in zip(members, reversed(members))])
        _assert_batch_equals(ev.batch_negate(batch),
                             [ev.negate(ct) for ct in members])
        for step in ROTS:
            _assert_batch_equals(ev.batch_rotate(batch, step),
                                 [ev.rotate(ct, step) for ct in members])


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("times", [1, 2, 3])
def test_bgv_multiply_mod_switch_match_sequential(bgv, k, times, each_impl):
    for _ in each_impl():
        _, ev, cts = bgv
        members = cts[:k]
        batch = CiphertextBatch.from_ciphertexts(members)
        prod = ev.batch_multiply(batch, batch)
        want = [ev.multiply(ct, ct) for ct in members]
        _assert_batch_equals(prod, want)
        _assert_batch_equals(
            ev.batch_mod_switch(prod, times=times),
            [ev.mod_switch(ct, times=times) for ct in want])


# ----------------------------------------------------------------------
# Products take operands of different scales; only sums need equal ones
# ----------------------------------------------------------------------
def _assert_products_match_oracle(ev, ref, xs, ys) -> None:
    """``batch_multiply`` and ``execute_batched`` against the
    ``stacked=False`` per-ciphertext ``multiply``."""
    want = [ref.multiply(x, y) for x, y in zip(xs, ys)]
    _assert_batch_equals(
        ev.batch_multiply(CiphertextBatch.from_ciphertexts(xs),
                          CiphertextBatch.from_ciphertexts(ys)), want)
    got = execute_batched(ev, [BatchRequest("multiply", x, y)
                               for x, y in zip(xs, ys)])
    for g, w in zip(got, want):
        assert np.array_equal(g.pair(), w.pair())
        assert g.scale == w.scale


def test_ckks_batch_multiply_accepts_mixed_scales(ckks, each_impl):
    """A ciphertext at scale Delta times one at Delta*q_last (the
    ``multiply_scalar`` default) is a valid product."""
    for _ in each_impl():
        ctx, ev, cts, _ = ckks
        ref = CkksEvaluator(ctx, ev.keys, stacked=False)
        xs = cts[:2]
        ys = [ev.multiply_scalar(ct, 0.5) for ct in cts[2:4]]
        assert ys[0].scale != xs[0].scale
        _assert_products_match_oracle(ev, ref, xs, ys)


def test_bgv_batch_multiply_accepts_mixed_factors(bgv, each_impl):
    """Same level, different plaintext factors: a switched product
    (factor q^-1) times a product of switched operands (q^-2)."""
    for _ in each_impl():
        ctx, ev, cts = bgv
        ref = BgvEvaluator(ctx, ev.keys, stacked=False)
        xs = [ev.mod_switch(ev.multiply(ct, ct)) for ct in cts[:2]]
        ys = [ev.multiply(ev.mod_switch(ct), ev.mod_switch(ct))
              for ct in cts[2:4]]
        assert xs[0].basis == ys[0].basis and xs[0].scale != ys[0].scale
        _assert_products_match_oracle(ev, ref, xs, ys)


def test_single_ciphertext_batch_is_a_view(ckks):
    """``from_ciphertexts([ct])`` wraps the pair without copying: the
    ``k = 1`` route single-ciphertext ops take."""
    _, _, cts, _ = ckks
    batch = CiphertextBatch.from_ciphertexts([cts[0]])
    assert batch.stack is cts[0].pair()
    assert batch.k == 1 and batch.scales == [cts[0].scale]


def test_split_members_reuse_the_batch_stack(ckks, each_impl):
    """A batch of exactly one batch's ``split()``, in order, *is* that
    batch's stack: a chain of batched ops (rotate, add, multiply,
    rescale, as ``execute_batched`` runs them) copies no stack between
    ops and gives the bits the copying path gives."""
    _, ev, cts, _ = ckks
    for _ in each_impl():
        rotated = ev.batch_rotate(CiphertextBatch.from_ciphertexts(cts[:3]),
                                  1)
        members = rotated.split()
        again = CiphertextBatch.from_ciphertexts(members)
        assert again.stack is rotated.stack
        assert again.scales == rotated.scales
        summed = ev.batch_add(again, CiphertextBatch.from_ciphertexts(
            members))
        chained = ev.batch_rescale(ev.batch_multiply(
            CiphertextBatch.from_ciphertexts(summed.split()), summed))
        out = chained.split()
        assert np.shares_memory(
            CiphertextBatch.from_ciphertexts(out).stack, chained.stack)
        # the same chain with every member list copied into a fresh stack
        copied = CiphertextBatch.from_ciphertexts(
            [ct.copy() for ct in members])
        assert not np.shares_memory(copied.stack, rotated.stack)
        s2 = ev.batch_add(copied, copied)
        want = ev.batch_rescale(ev.batch_multiply(s2, s2.copy()))
        _assert_batch_equals(chained, want.split())


def test_reordered_or_partial_split_members_copy(ckks):
    """Only all of one batch's members, in order, share its stack: a
    reordered, partial or mixed list is copied into a fresh one."""
    _, ev, cts, _ = ckks
    batch = ev.batch_rotate(CiphertextBatch.from_ciphertexts(cts[:3]), 1)
    members = batch.split()
    other = CiphertextBatch.from_ciphertexts(cts[3:6]).split()
    for pick in ([members[1], members[0], members[2]], members[:2],
                 members[1:], [members[0], other[1], members[2]],
                 members + members[:1]):
        fused = CiphertextBatch.from_ciphertexts(pick)
        assert not np.shares_memory(fused.stack, batch.stack)
        assert fused.k == len(pick)
        _assert_batch_equals(fused, pick)


# ----------------------------------------------------------------------
# Golden digest: a k=4 batched rotate is pinned bit-for-bit
# ----------------------------------------------------------------------
def test_golden_batch_rotate_digest(ckks, each_impl):
    for _ in each_impl():
        _, ev, cts, _ = ckks
        batch = CiphertextBatch.from_ciphertexts(cts[:4])
        rotated = ev.batch_rotate(batch, 1)
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(rotated.stack).tobytes())
        assert h.hexdigest()[:16] == "ba2a0a17a8e98f01"


# ----------------------------------------------------------------------
# Cache bounds: batch constants and plans are reused, and cleared
# ----------------------------------------------------------------------
def test_batch_plan_and_column_caches_reused(ckks):
    _, ev, cts, _ = ckks
    members = cts[:3]
    clear_caches()
    batch = CiphertextBatch.from_ciphertexts(members)
    ev.batch_rotate(batch, 1)
    plans_after_first = plan_cache_size()
    cols_after_first = batch_col_cache_size()
    assert cols_after_first > 0
    ev.batch_rotate(batch, 1)
    ev.batch_rotate(batch, 3)
    assert plan_cache_size() == plans_after_first
    assert batch_col_cache_size() == cols_after_first
    clear_caches()
    assert batch_col_cache_size() == 0
    assert plan_cache_size() == 0
