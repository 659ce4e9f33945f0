"""Base conversion, ModUp/ModDown, rescale, merged Montgomery BConv."""

import numpy as np
import pytest

from repro.nttmath.montgomery import MontgomeryContext
from repro.nttmath.primes import find_ntt_primes
from repro.rns.basis import RnsBasis
from repro.rns.bconv import (
    MergedBConv,
    base_convert,
    base_convert_exact,
    intt_then_merged_bconv,
    mod_down,
    mod_up,
    rescale_last,
)
from repro.rns.poly import RnsPolynomial, ntt_table

N = 32
C = RnsBasis(find_ntt_primes(28, N, 3))
B = RnsBasis(find_ntt_primes(30, N, 2, exclude=C.primes))


def test_fast_bconv_overshoot_bounded(rng):
    a = RnsPolynomial.random_uniform(C, N, rng)
    conv = base_convert(a, B)
    values = a.to_int_coeffs(signed=False)
    for i, p in enumerate(B.primes):
        for col in range(N):
            candidates = {(values[col] + e * C.modulus) % p
                          for e in range(len(C) + 1)}
            assert int(conv.data[i][col]) in candidates


def test_exact_bconv(rng):
    a = RnsPolynomial.random_uniform(C, N, rng)
    conv = base_convert_exact(a, B)
    centred = a.to_int_coeffs(signed=True)
    for i, p in enumerate(B.primes):
        want = np.array([c % p for c in centred])
        assert np.array_equal(conv.data[i], want)


def test_bconv_rejects_ntt_domain(rng):
    a = RnsPolynomial.random_uniform(C, N, rng).to_ntt()
    with pytest.raises(ValueError):
        base_convert(a, B)


def test_mod_up_preserves_residues(rng):
    a = RnsPolynomial.random_uniform(C, N, rng)
    full = C.extend(B)
    up = mod_up(a, full)
    assert np.array_equal(up.data[:len(C)], a.data)


def test_mod_up_down_roundtrip(rng):
    a = RnsPolynomial.random_uniform(C, N, rng)
    up = mod_up(a, C.extend(B))
    scaled = up.mul_scalar(B.modulus)
    back = mod_down(scaled, C, B)
    for j, q in enumerate(C.primes):
        diff = (back.data[j] - a.data[j]) % q
        diff = np.minimum(diff, q - diff)
        assert diff.max() <= len(C) + len(B)


def test_rescale_divides(rng):
    q_last = C.primes[-1]
    m = rng.integers(-500, 500, N)
    noise = rng.integers(-3, 4, N)
    coeffs = [int(v) * q_last + int(e) for v, e in zip(m, noise)]
    poly = RnsPolynomial.from_int_coeffs(C, coeffs)
    out = rescale_last(poly)
    got = out.to_int_coeffs()
    assert all(abs(g - int(v)) <= 1 for g, v in zip(got, m))


def test_rescale_needs_two_limbs(rng):
    single = RnsPolynomial.random_uniform(C.prefix(1), N, rng)
    with pytest.raises(ValueError):
        rescale_last(single)


def test_merged_bconv_matches_naive(rng):
    """Paper eq. 5: SM/DM-merged BConv == scale-then-convert."""
    coeff = RnsPolynomial.random_uniform(C, N, rng)
    sm = np.empty_like(coeff.data)
    for j, q in enumerate(C.primes):
        mont = MontgomeryContext(q)
        sm[j] = ntt_table(N, q).forward(mont.vec_to_sm(coeff.data[j]))
    out_sm = intt_then_merged_bconv(sm, C, B, N)
    naive = base_convert(coeff, B).data
    for i, p in enumerate(B.primes):
        got = MontgomeryContext(p).vec_from_sm(out_sm[i])
        assert np.array_equal(got, naive[i])


def test_merged_bconv_shape_check():
    merged = MergedBConv(C, B, N)
    with pytest.raises(ValueError):
        merged.apply(np.zeros((1, N), dtype=np.int64))
    with pytest.raises(ValueError):
        merged.apply_looped(np.zeros((1, N), dtype=np.int64))


def test_merged_bconv_blas_matches_loop(rng):
    """The exact-float64 matmul path is bitwise identical to the
    per-target-limb MontMul loop (the seed implementation)."""
    merged = MergedBConv(C, B, N)
    for _ in range(5):
        limbs = rng.integers(0, C.q_col, size=(len(C), N),
                             dtype=np.int64)
        assert np.array_equal(merged.apply(limbs),
                              merged.apply_looped(limbs))


def test_merged_bconv_blas_wide_basis(rng):
    """Exactness holds past one 32-limb matmul chunk (chunked
    accumulation with per-chunk reduction of the high halves)."""
    wide = RnsBasis(find_ntt_primes(30, N, 40, exclude=B.primes))
    merged = MergedBConv(wide, B, N)
    limbs = rng.integers(0, wide.q_col, size=(len(wide), N),
                         dtype=np.int64)
    assert np.array_equal(merged.apply(limbs),
                          merged.apply_looped(limbs))


# ----------------------------------------------------------------------
# Stacked ciphertext-pair BConv kernels (PR 4)
# ----------------------------------------------------------------------
def test_base_convert_stack_matches_per_half(rng):
    from repro.rns.bconv import base_convert_stack

    a = RnsPolynomial.random_uniform(C, N, rng)
    b = RnsPolynomial.random_uniform(C, N, rng)
    pair = np.concatenate([a.data, b.data])
    got = base_convert_stack(pair, C, B, 2)
    assert np.array_equal(got[:len(B)], base_convert(a, B).data)
    assert np.array_equal(got[len(B):], base_convert(b, B).data)
