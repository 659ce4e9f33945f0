"""Golden regression vectors for the core NTT/polymul/automorphism
kernels.

These literals were produced by the batched engine at the time it was
validated bitwise against the per-limb reference and the schoolbook
negacyclic product.  They pin the exact numerics: any future refactor
of the engine (twiddle generation, reduction strategy, stage fusion)
that silently changes an output bit fails here, even if it remains
self-consistent.

Parameters are deliberately tiny and fixed: ``n = 8`` with the
two-limb basis ``(17, 97)`` (both ``= 1 mod 16``).  The engine picks
the native C kernel when it loaded; ``test_golden_vectors_per_impl``
pins the same literals on each implementation explicitly.
"""

import numpy as np

from repro.nttmath.batched import BatchedNTT
from repro.nttmath.ntt import polymul_negacyclic_reference

N = 8
PRIMES = (17, 97)

INPUT_A = np.array([[1, 2, 3, 4, 5, 6, 7, 8],
                    [8, 7, 6, 5, 4, 3, 2, 1]], dtype=np.int64)
INPUT_B = np.array([[1, 0, 0, 2, 0, 0, 3, 0],
                    [0, 3, 0, 0, 2, 0, 0, 1]], dtype=np.int64)

#: forward(INPUT_A) — bit-reversed NTT values per limb.
GOLDEN_FORWARD_A = np.array(
    [[5, 0, 13, 8, 9, 11, 5, 8],
     [50, 43, 11, 86, 55, 59, 60, 88]], dtype=np.int64)

#: inverse(forward(INPUT_A), scale_by_n_inv=False) == 8 * INPUT_A mod q.
GOLDEN_INV_NOSCALE_A = np.array(
    [[8, 16, 7, 15, 6, 14, 5, 13],
     [64, 56, 48, 40, 32, 24, 16, 8]], dtype=np.int64)

#: negacyclic INPUT_A * INPUT_B per limb.
GOLDEN_POLYMUL_AB = np.array(
    [[14, 10, 6, 5, 5, 5, 1, 7],
     [79, 12, 12, 12, 28, 24, 20, 24]], dtype=np.int64)

#: Galois element 5^1 mod 2n for a one-slot rotation.
GALOIS_ELT = 5

#: automorphism_ntt(forward(INPUT_A), 5) — pure permutation per limb.
GOLDEN_AUTO_NTT_A = np.array(
    [[13, 8, 0, 5, 8, 5, 9, 11],
     [11, 86, 43, 50, 88, 60, 55, 59]], dtype=np.int64)

#: automorphism_coeff(INPUT_A, 5) — sigma_5 with X^8 = -1 sign flips.
GOLDEN_AUTO_COEFF_A = np.array(
    [[1, 11, 14, 8, 5, 2, 10, 13],
     [8, 94, 91, 1, 4, 7, 95, 92]], dtype=np.int64)


def _engine() -> BatchedNTT:
    return BatchedNTT(N, PRIMES)


def test_golden_forward():
    assert np.array_equal(_engine().forward(INPUT_A), GOLDEN_FORWARD_A)


def test_golden_inverse_roundtrip():
    eng = _engine()
    assert np.array_equal(eng.inverse(GOLDEN_FORWARD_A), INPUT_A)


def test_golden_inverse_unscaled():
    eng = _engine()
    got = eng.inverse(GOLDEN_FORWARD_A, scale_by_n_inv=False)
    assert np.array_equal(got, GOLDEN_INV_NOSCALE_A)
    # the unscaled inverse is n * a mod q — verifiable from first
    # principles, which guards the literal itself
    for j, q in enumerate(PRIMES):
        assert np.array_equal(got[j], INPUT_A[j] * N % q)


def test_golden_polymul():
    got = _engine().polymul(INPUT_A, INPUT_B)
    assert np.array_equal(got, GOLDEN_POLYMUL_AB)
    # double-entry bookkeeping: the literal must equal the schoolbook
    # negacyclic product, so the golden value is provably right
    for j, q in enumerate(PRIMES):
        ref = polymul_negacyclic_reference(INPUT_A[j], INPUT_B[j], q)
        assert np.array_equal(got[j], ref)


def test_golden_automorphism_ntt():
    got = _engine().automorphism_ntt(GOLDEN_FORWARD_A, GALOIS_ELT)
    assert np.array_equal(got, GOLDEN_AUTO_NTT_A)


def test_golden_automorphism_coeff():
    got = _engine().automorphism_coeff(INPUT_A, GALOIS_ELT)
    assert np.array_equal(got, GOLDEN_AUTO_COEFF_A)


def test_golden_auto_routes_agree():
    """Permuting NTT values == automorphism in coeffs then transform."""
    eng = _engine()
    assert np.array_equal(eng.forward(GOLDEN_AUTO_COEFF_A),
                          GOLDEN_AUTO_NTT_A)


def test_golden_vectors_per_impl(ntt_impl):
    """Every transform literal, on the C kernel and on the numpy
    kernels, including a 3-tile stack."""
    eng = _engine()
    assert np.array_equal(eng.forward(INPUT_A), GOLDEN_FORWARD_A)
    assert np.array_equal(eng.inverse(GOLDEN_FORWARD_A), INPUT_A)
    assert np.array_equal(eng.inverse(GOLDEN_FORWARD_A, scale_by_n_inv=False),
                          GOLDEN_INV_NOSCALE_A)
    assert np.array_equal(eng.polymul(INPUT_A, INPUT_B), GOLDEN_POLYMUL_AB)
    assert np.array_equal(eng.forward(GOLDEN_AUTO_COEFF_A),
                          GOLDEN_AUTO_NTT_A)
    tiles = np.vstack([INPUT_A, GOLDEN_AUTO_COEFF_A, INPUT_A])
    assert np.array_equal(
        eng.forward(tiles, assume_reduced=True),
        np.vstack([GOLDEN_FORWARD_A, GOLDEN_AUTO_NTT_A, GOLDEN_FORWARD_A]))
