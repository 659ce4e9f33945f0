"""Residue polynomials: the data type EFFACT's ISA operates on.

A :class:`RnsPolynomial` is an element of ``R_Q`` stored as a stack of
residue polynomials (limbs), shape ``(L, N)`` with ``int64`` entries.
Every homomorphic-evaluation kernel in :mod:`repro.schemes` reduces to
the limb-wise vector operations defined here, mirroring the level-1
operations of paper Figure 1 (vector ModAdd/ModMult, NTT, Auto).

All operations treat the limb axis as a batch dimension: arithmetic
broadcasts the basis' ``(L, 1)`` modulus column over the stack, and the
domain transforms run on the :class:`~repro.nttmath.batched.BatchedNTT`
engine from the basis-keyed plan cache, so no kernel loops over limbs
in Python.
"""

from __future__ import annotations

import numpy as np

from ..nttmath.batched import (
    BatchedNTT,
    BatchedPlan,
    clear_caches,
    get_plan,
    get_stacked_plan,
    ntt_table,
    release_scratch,
    scratch,
    shoup_companion,
    shoup_mul_lazy,
)
from .basis import RnsBasis

__all__ = [
    "RnsPolynomial",
    "clear_caches",
    "ntt_table",
    "pointwise_mac",
    "pointwise_mac_shoup",
    "pointwise_mul_shoup",
    "pointwise_mul_shoup_stacked",
    "shoup_precompute",
    "stacked_engine",
]


class RnsPolynomial:
    """A polynomial on ``R_Q`` in the RNS system (paper Fig. 1a)."""

    __slots__ = ("basis", "data", "is_ntt", "n")

    def __init__(self, basis: RnsBasis, data: np.ndarray, *,
                 is_ntt: bool = False):
        data = np.asarray(data, dtype=np.int64)
        if data.ndim != 2 or data.shape[0] != len(basis):
            raise ValueError(
                f"data shape {data.shape} does not match basis of "
                f"{len(basis)} primes")
        self.basis = basis
        self.data = data
        self.is_ntt = is_ntt
        self.n = data.shape[1]

    def _plan(self) -> BatchedPlan:
        return get_plan(self.n, self.basis.primes)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, basis: RnsBasis, n: int, *,
             is_ntt: bool = False) -> "RnsPolynomial":
        return cls(basis, np.zeros((len(basis), n), dtype=np.int64),
                   is_ntt=is_ntt)

    @classmethod
    def from_int_coeffs(cls, basis: RnsBasis, coeffs) -> "RnsPolynomial":
        """From (possibly huge / negative) integer coefficients."""
        return cls(basis, basis.decompose_poly(coeffs), is_ntt=False)

    @classmethod
    def from_small_coeffs(cls, basis: RnsBasis,
                          coeffs: np.ndarray) -> "RnsPolynomial":
        """From int64 coefficients already small enough per limb."""
        coeffs = np.asarray(coeffs, dtype=np.int64)
        return cls(basis, coeffs[None, :] % basis.q_col, is_ntt=False)

    @classmethod
    def random_uniform(cls, basis: RnsBasis, n: int,
                       rng: np.random.Generator) -> "RnsPolynomial":
        """Uniform element of R_Q (sampled limb-wise, which is uniform
        by CRT); one broadcast draw covers the whole stack."""
        data = rng.integers(0, basis.q_col, size=(len(basis), n),
                            dtype=np.int64)
        return cls(basis, data, is_ntt=False)

    @classmethod
    def random_ternary(cls, basis: RnsBasis, n: int,
                       rng: np.random.Generator, *,
                       hamming_weight: int | None = None) -> "RnsPolynomial":
        """Ternary secret polynomial, optionally sparse."""
        if hamming_weight is None:
            coeffs = rng.integers(-1, 2, n, dtype=np.int64)
        else:
            coeffs = np.zeros(n, dtype=np.int64)
            idx = rng.choice(n, size=hamming_weight, replace=False)
            coeffs[idx] = rng.choice(np.array([-1, 1], dtype=np.int64),
                                     size=hamming_weight)
        return cls.from_small_coeffs(basis, coeffs)

    @classmethod
    def random_gaussian(cls, basis: RnsBasis, n: int,
                        rng: np.random.Generator,
                        sigma: float = 3.2) -> "RnsPolynomial":
        """Discrete-Gaussian error polynomial (rounded normal)."""
        coeffs = np.round(rng.normal(0.0, sigma, n)).astype(np.int64)
        return cls.from_small_coeffs(basis, coeffs)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def level_count(self) -> int:
        return len(self.basis)

    def copy(self) -> "RnsPolynomial":
        return RnsPolynomial(self.basis, self.data.copy(), is_ntt=self.is_ntt)

    def to_int_coeffs(self, *, signed: bool = True) -> list[int]:
        """CRT-composed integer coefficients (centred when ``signed``)."""
        poly = self.to_coeff()
        if signed:
            return poly.basis.compose_signed_poly(poly.data)
        return poly.basis.compose_poly(poly.data)

    def __repr__(self) -> str:
        domain = "ntt" if self.is_ntt else "coeff"
        return (f"RnsPolynomial(n={self.n}, limbs={len(self.basis)}, "
                f"domain={domain})")

    # ------------------------------------------------------------------
    # Domain transforms
    # ------------------------------------------------------------------
    def to_ntt(self) -> "RnsPolynomial":
        if self.is_ntt:
            return self
        return RnsPolynomial(self.basis, self._plan().ntt.forward(self.data),
                             is_ntt=True)

    def to_coeff(self) -> "RnsPolynomial":
        if not self.is_ntt:
            return self
        return RnsPolynomial(self.basis, self._plan().ntt.inverse(self.data),
                             is_ntt=False)

    # ------------------------------------------------------------------
    # Arithmetic (limb-parallel modular vector ops)
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "RnsPolynomial") -> None:
        if self.basis != other.basis:
            raise ValueError("basis mismatch")
        if self.is_ntt != other.is_ntt:
            raise ValueError("domain mismatch (ntt vs coeff)")

    def __add__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        self._check_compatible(other)
        data = (self.data + other.data) % self.basis.q_col
        return RnsPolynomial(self.basis, data, is_ntt=self.is_ntt)

    def __sub__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        self._check_compatible(other)
        data = (self.data - other.data) % self.basis.q_col
        return RnsPolynomial(self.basis, data, is_ntt=self.is_ntt)

    def __neg__(self) -> "RnsPolynomial":
        data = (-self.data) % self.basis.q_col
        return RnsPolynomial(self.basis, data, is_ntt=self.is_ntt)

    def __mul__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        """Polynomial product; both operands are moved to the NTT domain
        if needed so the product is negacyclic."""
        if isinstance(other, int):
            return self.mul_scalar(other)
        self._check_basis_only(other)
        a = self.to_ntt()
        b = other.to_ntt()
        data = a.data * b.data % self.basis.q_col
        return RnsPolynomial(self.basis, data, is_ntt=True)

    def _check_basis_only(self, other: "RnsPolynomial") -> None:
        if self.basis != other.basis:
            raise ValueError("basis mismatch")

    def pointwise_mul(self, other: "RnsPolynomial") -> "RnsPolynomial":
        """Element-wise modular product in the current domain."""
        self._check_compatible(other)
        data = self.data * other.data % self.basis.q_col
        return RnsPolynomial(self.basis, data, is_ntt=self.is_ntt)

    def mul_scalar(self, scalar: int) -> "RnsPolynomial":
        """Multiply by an integer constant (reduced per limb)."""
        scalar = int(scalar)
        s_col = np.array([scalar % p for p in self.basis.primes],
                         dtype=np.int64).reshape(-1, 1)
        data = self.data * s_col % self.basis.q_col
        return RnsPolynomial(self.basis, data, is_ntt=self.is_ntt)

    def mul_scalar_per_limb(self, scalars) -> "RnsPolynomial":
        """Multiply limb j by ``scalars[j]`` (e.g. BConv constants)."""
        if len(scalars) != len(self.basis):
            raise ValueError("scalar count does not match basis")
        s_col = np.array([int(s) % p
                          for s, p in zip(scalars, self.basis.primes)],
                         dtype=np.int64).reshape(-1, 1)
        data = self.data * s_col % self.basis.q_col
        return RnsPolynomial(self.basis, data, is_ntt=self.is_ntt)

    # ------------------------------------------------------------------
    # Automorphism / level movement
    # ------------------------------------------------------------------
    def apply_automorphism(self, galois_elt: int) -> "RnsPolynomial":
        """sigma_s on the whole stack.  In the NTT domain this is the
        pure permutation EFFACT's fixed-network automorphism unit
        performs (a single cached gather for all limbs)."""
        engine = self._plan().ntt
        if self.is_ntt:
            data = engine.automorphism_ntt(self.data, galois_elt)
        else:
            data = engine.automorphism_coeff(self.data, galois_elt)
        return RnsPolynomial(self.basis, data, is_ntt=self.is_ntt)

    def drop_to(self, basis: RnsBasis) -> "RnsPolynomial":
        """Restrict to a prefix basis (drop the top limbs)."""
        if basis.primes != self.basis.primes[:len(basis)]:
            raise ValueError("target basis is not a prefix of this basis")
        return RnsPolynomial(basis, self.data[:len(basis)].copy(),
                             is_ntt=self.is_ntt)

    def limb(self, index: int) -> np.ndarray:
        """Residue polynomial ``index`` (read-only view)."""
        return self.data[index]


def stacked_engine(n: int, bases, *, dedupe: bool = False) -> BatchedNTT:
    """The ``(sum L_i, N)`` engine for several stacked bases.

    ``bases`` entries are :class:`RnsBasis` objects or prime tuples;
    the engine's tables are prefix/row slices of the union chain's
    cached plan (mixed-basis prefix slicing), so a stacked engine is
    never rebuilt from scratch.  Callers feed it concatenated stacks
    directly — the evaluator's ciphertext-pair hot path.  The batch
    path passes ``dedupe=True`` so ``k`` identical chains share the
    union plan's tile-wise engine (see :func:`get_stacked_plan`).
    """
    chains = tuple(b.primes if isinstance(b, RnsBasis) else tuple(b)
                   for b in bases)
    return get_stacked_plan(n, chains, dedupe=dedupe).ntt


def pointwise_mac(pairs) -> RnsPolynomial:
    """Multiply-accumulate ``sum_j a_j (*) b_j`` over pointwise pairs.

    The inner-product shape of hybrid key switching (paper Fig. 2):
    each product is reduced once, partial sums stay unreduced (every
    term is ``< q < 2^31``, so thousands of terms fit in int64), and a
    single final reduction lands the result — one pass instead of a
    reduce-per-accumulate chain.  Results are bitwise identical to
    repeated ``+``.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("pointwise_mac needs at least one pair")
    first_a, first_b = pairs[0]
    first_a._check_compatible(first_b)
    q_col = first_a.basis.q_col
    acc = first_a.data * first_b.data % q_col
    for a, b in pairs[1:]:
        a._check_compatible(b)
        if a.basis != first_a.basis or a.is_ntt != first_a.is_ntt:
            raise ValueError("pointwise_mac pairs must share basis/domain")
        acc += a.data * b.data % q_col
    return RnsPolynomial(first_a.basis, acc % q_col, is_ntt=first_a.is_ntt)


def shoup_precompute(poly: RnsPolynomial) -> tuple[np.ndarray, np.ndarray]:
    """Freeze a (static) polynomial for repeated multiplication.

    Returns its residues as uint64 plus their Shoup companions; feed
    both to :func:`pointwise_mac_shoup`.  Worth doing for operands that
    are multiplied many times — switching keys, plaintext constants —
    mirroring how EFFACT bakes Montgomery factors into constants.
    """
    values = poly.data.astype(np.uint64)
    q_u = poly.basis.q_col.astype(np.uint64)
    return values, shoup_companion(values, q_u)


def pointwise_mul_shoup_stacked(data: np.ndarray,
                                table: tuple[np.ndarray, np.ndarray],
                                q_col: np.ndarray) -> np.ndarray:
    """Shoup pointwise product on a raw (possibly stacked) limb stack.

    ``data`` is an int64 ``(R, N)`` stack (e.g. a ``(2L, N)`` ciphertext
    pair), ``table`` a matching :func:`shoup_precompute`-style
    ``(values, companions)`` pair, ``q_col`` the per-row int64 modulus
    column.  Returns the canonical int64 product stack — row for row
    bitwise identical to :func:`pointwise_mul_shoup` on each slice.
    """
    s_u, s_sh = table
    if s_u.shape != data.shape:
        raise ValueError(
            f"frozen table shape {s_u.shape} does not match "
            f"operand shape {data.shape}")
    q_u = q_col.astype(np.uint64)
    shape = data.shape
    x = scratch("pmul_x", shape)
    hi = scratch("pmul_hi", shape)
    out = scratch("pmul_out", shape)
    np.copyto(x, data, casting="unsafe")
    shoup_mul_lazy(x, s_u, s_sh, q_u, out=out, hi=hi)
    np.minimum(out, out - q_u, out=out)        # [0, 2q) -> canonical
    result = out.astype(np.int64)              # copy; pool can recycle
    for tag in ("pmul_x", "pmul_hi", "pmul_out"):
        release_scratch(tag, shape)
    return result


def pointwise_mul_shoup(poly: RnsPolynomial,
                        table: tuple[np.ndarray, np.ndarray]
                        ) -> RnsPolynomial:
    """Pointwise product against a :func:`shoup_precompute`-frozen
    operand: two multiplies and a shift per element, no division.

    ``table`` must match ``poly``'s shape (slice frozen rows for lower
    levels — the Shoup companions are per-limb, so prefix rows stay
    valid).  The result is canonical and bitwise identical to
    ``poly.pointwise_mul(frozen_operand)``; the caller is responsible
    for the two operands being in the same domain.
    """
    out = pointwise_mul_shoup_stacked(poly.data, table,
                                      poly.basis.q_col)
    return RnsPolynomial(poly.basis, out, is_ntt=poly.is_ntt)


def pointwise_mac_shoup(polys, tables, basis: RnsBasis, *,
                        is_ntt: bool = True) -> RnsPolynomial:
    """:func:`pointwise_mac` against pre-frozen constant operands.

    ``tables[j]`` is :func:`shoup_precompute` output matching
    ``polys[j]``'s shape.  Each product is a division-free lazy Shoup
    multiply in [0, 2q); partial sums stay unreduced and one final
    reduction lands the canonical result — bitwise identical to the
    plain MAC.
    """
    polys = list(polys)
    tables = list(tables)
    if len(polys) != len(tables):
        raise ValueError(
            f"{len(polys)} operands but {len(tables)} Shoup tables")
    q_u = basis.q_col.astype(np.uint64)
    acc: np.ndarray | None = None
    acc_shape: tuple[int, ...] | None = None
    for poly, (s_u, s_sh) in zip(polys, tables):
        if poly.data.shape != s_u.shape:
            raise ValueError("operand/table shape mismatch")
        shape = poly.data.shape
        # Borrow/release per term: the x/hi/term slabs are dead once
        # the term is accumulated, and a re-borrow while live would be
        # an overlapping-borrow aliasing hazard under the debug pool.
        x = scratch("mac_x", shape)
        hi = scratch("mac_hi", shape)
        term = scratch("mac_term", shape)
        np.copyto(x, poly.data, casting="unsafe")
        shoup_mul_lazy(x, s_u, s_sh, q_u, out=term, hi=hi)
        if acc is None:
            acc = scratch("mac_acc", shape)
            acc_shape = shape
            np.copyto(acc, term)
        else:
            acc += term
        for tag in ("mac_x", "mac_hi", "mac_term"):
            release_scratch(tag, shape)
    if acc is None:
        raise ValueError("pointwise_mac_shoup needs at least one operand")
    result = (acc % q_u).astype(np.int64)      # copy; pool can recycle
    assert acc_shape is not None
    release_scratch("mac_acc", acc_shape)
    return RnsPolynomial(basis, result, is_ntt=is_ntt)
