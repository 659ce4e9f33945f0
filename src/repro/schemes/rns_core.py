"""Scheme-agnostic stacked RNS evaluator core.

Every RLWE scheme in this repository (CKKS, BFV, BGV) evaluates on the
same residue-polynomial substrate: ciphertexts are ``(c0, c1)`` pairs
of ``(L, N)`` limb stacks, and every homomorphic operation decomposes
into the level-1 kernels of paper Figure 1 (vector ModAdd/ModMult,
NTT/iNTT, automorphism, BConv).  This module owns the
scheme-independent machinery; the scheme modules contribute only their
plaintext semantics (scale tracking, exact reduction mod ``t``,
scale-invariant multiply).

Kernel -> evaluator-op map
--------------------------

Rows marked "C:" have an entry in the native kernel library
(:mod:`repro.nttmath.native`), which runs whenever the library loaded
and the moduli are in range; the numpy twin stays the fallback and
bitwise oracle.

======================================  ===============================
kernel                                  used by
======================================  ===============================
``CiphertextBatch``                     every stacked op: ``k``
                                        ciphertext pairs as one
                                        ``(2k*L, N)`` stack; a single
                                        ciphertext is the zero-copy
                                        ``k = 1`` view of its pair
``stacked_engine``                      stacked NTT/iNTT/automorphism
                                        over mixed prime chains
                                        (C: ``ntt_forward``,
                                        ``ntt_inverse``)
``switch_down_ntt``                     CKKS ``rescale`` (identity
                                        correction) and BGV
                                        ``mod_switch`` (``t``-multiple
                                        correction) — the NTT-domain
                                        last-limb modulus switch
``RnsEvaluatorBase._key_switch_batch``  the one key-switch pipeline:
                                        HMULT relinearization and
                                        rotations of all schemes
``RnsEvaluatorBase._lift_digits_batch``  decompose + ModUp + NTT of
                                        every digit (hoisted once per
                                        ``rotate_hoisted`` call; C:
                                        ``bconv``)
``key_mac`` (``_key_mac_batch``)        both key MACs as one pass each
                                        against digit-stacked key
                                        tables (``SwitchingKey``),
                                        reading a hoisted rotation
                                        through its permutation (C:
                                        ``ks_mac``)
``RnsEvaluatorBase._mod_down_batch_stacked``  NTT-domain ModDown
                                        ``(acc - NTT(BConv_P(iNTT(acc_P))))
                                        * P^-1`` (C: ``bconv``,
                                        ``mod_down_tail``, which also
                                        adds a hoisted rotation's
                                        ``sigma(c0)``) — overridden
                                        by BGV with the exact
                                        ``t``-corrected variant (C:
                                        ``bconv_exact``)
``add_sub``                             ``add``/``sub``/``negate`` and
                                        their ``batch_*`` ops (C:
                                        ``batch_add_sub``)
``Plaintext.frozen_batch_tables``       Shoup-frozen plaintext constants
                                        for ``multiply_plain``, tiled
                                        over the ``2k`` halves
======================================  ===============================

Single-ciphertext ops (``rotate``, ``rotate_hoisted``, ``multiply``,
``multiply_plain``, ``rescale``/``mod_switch``, and ``key_switch`` of
a coefficient-domain polynomial) run as the ``batch_*`` op at
``k = 1``, so there is one production path.  The ciphertext ops take
NTT-domain ciphertexts only and raise :class:`NttDomainError`
otherwise.  ``stacked=False`` constructs the
scheme's per-polynomial reference evaluator instead
(:mod:`repro.schemes.reference`), the differential oracle every scheme
pins in its test suite (``tests/test_stacked_evaluator.py`` for CKKS,
``tests/test_rns_core_schemes.py`` for BFV/BGV); both are bitwise
identical.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..nttmath import native
from ..nttmath.batched import (
    SHOUP_Q_BOUND,
    register_cache_clearer,
    release_scratch,
    require_canonical,
    require_shoup_bound,
    scratch,
    shoup_companion,
    shoup_mul_lazy,
    verify_inputs,
)
from ..nttmath.ntt import conjugation_element, galois_element
from ..obs import TRACER
from ..rns.basis import RnsBasis
from ..rns.bconv import base_convert_stack, inverse_mod_col
from ..rns.poly import (
    RnsPolynomial,
    pointwise_mul_shoup_stacked,
    shoup_precompute,
    stacked_engine,
)

_SCALE_TOLERANCE = 1e-6


class NttDomainError(ValueError):
    """An NTT-only op got a coefficient-domain ciphertext or batch.

    Every production op that transforms, permutes or key-switches a
    ciphertext (rotations, ``multiply``, ``multiply_plain``, CKKS
    ``rescale``, BGV ``mod_switch`` and their ``batch_*`` forms) takes
    NTT-domain input only, which is all the encryptors and ops
    produce."""


def _require_ntt(op: str, is_ntt: bool) -> None:
    if not is_ntt:
        raise NttDomainError(f"{op} expects NTT-domain ciphertexts")


class PlaintextBasisError(ValueError):
    """A plaintext does not lie over the ciphertext's primes: the
    ciphertext basis must be a prefix of the plaintext's."""


def _pair_col(col: np.ndarray) -> np.ndarray:
    """Double an ``(L, 1)`` per-limb constant column to ``(2L, 1)`` so
    one broadcast expression covers a stacked ciphertext pair."""
    return np.concatenate([col, col])


#: Upper bound on cached tiled constant columns; evicted LRU so a
#: service cycling through many (basis, k) batch shapes cannot grow the
#: cache without bound.
BATCH_COL_CACHE_MAX = 256

_BATCH_COL_CACHE: "OrderedDict[tuple, np.ndarray]" = OrderedDict()


def _batch_col(key: tuple, build) -> np.ndarray:
    hit = _BATCH_COL_CACHE.get(key)
    if hit is None:
        hit = build()
        _BATCH_COL_CACHE[key] = hit
        while len(_BATCH_COL_CACHE) > BATCH_COL_CACHE_MAX:
            _BATCH_COL_CACHE.popitem(last=False)
    else:
        _BATCH_COL_CACHE.move_to_end(key)
    return hit


def _batch_q_col(basis: RnsBasis, copies: int) -> np.ndarray:
    """``copies`` stacked copies of the basis modulus column — the
    broadcast constant of every cross-ciphertext batch kernel, cached
    per ``(primes, copies)`` so repeated batch calls of one shape reuse
    the same array."""
    return _batch_col(("q", basis.primes, copies),
                      lambda: np.tile(basis.q_col, (copies, 1)))


def _batch_inv_col(value: int, basis: RnsBasis, copies: int) -> np.ndarray:
    """``copies`` stacked copies of ``value^-1 mod q_j`` columns."""
    return _batch_col(
        ("inv", value, basis.primes, copies),
        lambda: np.tile(inverse_mod_col(value, basis.primes),
                        (copies, 1)))


def _batch_inv_shoup(value: int, basis: RnsBasis,
                     copies: int) -> tuple[np.ndarray, np.ndarray]:
    """Tiled uint64 ``value^-1 mod q_j`` columns with Shoup companions.

    The batch ModDown/rescale tails multiply a centred difference by
    these constants; carrying the companion turns that multiply into
    :func:`shoup_mul_lazy` (two multiplies and a shift) instead of an
    int64 division pass over the wide stack.  Requires every ``q_j <
    2^31`` (the callers guard)."""
    def build():
        inv_u = np.tile(inverse_mod_col(value, basis.primes),
                        (copies, 1)).astype(np.uint64)
        q_u = np.tile(basis.q_col, (copies, 1)).astype(np.uint64)
        return inv_u, shoup_companion(inv_u, q_u)

    return _batch_col(("invsh", value, basis.primes, copies), build)


def _shoup_tail_ok(basis: RnsBasis) -> bool:
    """Whether the lazy (division-free) batch tails apply: Shoup
    multiplication needs ``q < 2^31`` so the shifted operand ``x + q <
    2q`` stays below ``2^32``."""
    return int(basis.q_col.max()) < SHOUP_Q_BOUND


def _ks_kernel(basis: RnsBasis):
    """The native library for a key-switch kernel over ``basis``: loaded
    and every modulus within :func:`_shoup_tail_ok`, else ``None``."""
    return native.kernel() if _shoup_tail_ok(basis) else None


def _csub_into(x_u: np.ndarray, bound_u, tmp: np.ndarray) -> None:
    """Fold ``x`` from ``[0, 2*bound)`` to ``[0, bound)`` in place.

    The uint64 wraparound trick: ``x - bound`` underflows to a huge
    value exactly when ``x < bound``, so an elementwise ``minimum``
    selects the conditionally-subtracted lane — two cheap vector passes
    instead of a division."""
    np.subtract(x_u, bound_u, out=tmp)
    np.minimum(x_u, tmp, out=x_u)


def _scale_by_inv_batch(diff: np.ndarray, value: int, basis: RnsBasis,
                        qk_col: np.ndarray, copies: int) -> np.ndarray:
    """Canonical ``diff * value^-1 mod q`` over a tiled batch stack
    whose rows sit in ``(-q, q)`` — the shared ModDown/rescale tail.

    Division-free when every ``q_j < 2^31``: shift into ``(0, 2q)``
    (the same residue class), Shoup-multiply by the cached ``value^-1``
    companions, and fold the lazy ``[0, 2q)`` result with one
    conditional subtract — bitwise identical to the floor-mod form
    because both land the canonical residue.  Wider moduli fall back to
    the fused single floor-mod (the product ``|diff| * inv`` stays
    below ``2^63``).  ``diff`` is consumed (mutated) either way.
    """
    if _shoup_tail_ok(basis):
        diff += qk_col
        x_u = diff.view(np.uint64)
        q_u = qk_col.view(np.uint64)
        inv_u, inv_sh = _batch_inv_shoup(value, basis, copies)
        out = np.empty_like(diff)
        out_u = out.view(np.uint64)
        hi = scratch("sinv_hi", diff.shape)
        shoup_mul_lazy(x_u, inv_u, inv_sh, q_u, out=out_u, hi=hi)
        _csub_into(out_u, q_u, hi)
        release_scratch("sinv_hi", diff.shape)
        return out
    diff *= _batch_inv_col(value, basis, copies)
    diff %= qk_col
    return diff


def key_mac(x: np.ndarray, tables: tuple, ext: RnsBasis, k: int, *,
            auto: tuple | None = None) -> np.ndarray:
    """Both key MACs over ``k`` lifted digit stacks.

    ``x`` is the ct-major ``(k*beta*E, N)`` NTT-domain digit stack of
    canonical residues over ``ext`` (ciphertext ``i``'s digit ``d`` at
    rows ``(i*beta + d)*E`` onward) and ``tables`` the digit-stacked
    ``(b, a)`` uint32 key tables of :meth:`SwitchingKey.stacked_tables`.
    ``auto = (engine, g)`` MACs ``sigma_g(x)`` instead, the
    automorphism of ``engine`` (any engine of the ring degree: the
    permutation is moduli-independent).  Returns the ct-major
    ``(2k*E, N)`` accumulator stack (ciphertext ``i``: acc0 rows first,
    then acc1), canonical.

    The native ``ks_mac`` reads ``x`` through the automorphism's
    permutation, so a rotation gathers no copy of the digit stack, and
    sums each column's whole products over the digits in uint64
    registers (one multiply per term, guarded below ``2^63``), reduced
    once per output in vector lanes.  The numpy twin gathers first (one
    ``ntt.automorphism``), widens the key tables to uint64 and builds
    their Shoup companions, then
    runs one wide lazy Shoup multiply per (ciphertext, half) summed
    along the digit axis and folded by a halving conditional-subtract
    chain.  Both land the canonical residue of the same sum, so they
    agree bit for bit; an ``auto`` MAC counts the ``auto.rows`` of the
    gather either way.  Under ``REPRO_VERIFY=1`` a non-canonical digit
    row raises :class:`~repro.nttmath.batched.NonCanonicalInputError`,
    and the C entry checks the ``2^31`` bound
    (:class:`~repro.nttmath.batched.ShoupBoundError`).
    """
    b, a = tables
    ext_limbs = len(ext)
    n = x.shape[1]
    beta = b.shape[0] // ext_limbs
    if (beta < 1 or x.shape[0] != k * beta * ext_limbs
            or any(t.shape != (beta * ext_limbs, n) for t in tables)):
        raise ValueError(f"digit stack {x.shape} does not match k={k} "
                         f"and key tables {b.shape} over {ext_limbs} "
                         f"limbs")
    lib = _ks_kernel(ext)
    if verify_inputs():
        require_canonical(x, ext.q_col, "key_mac")
        if lib is not None:
            require_shoup_bound(ext.primes, "ks_mac")
    tr = TRACER
    with tr.span("ks.mac", k=k, beta=beta,
                 impl="numpy" if lib is None else "c"):
        if lib is None:
            if auto is not None:
                x = auto[0].automorphism_ntt(x, auto[1])
            return _key_mac_numpy(x, tables, ext, k)
        perm = None
        if auto is not None:
            perm = auto[0].automorphism_index(auto[1])
            if perm.shape != (n,):
                raise ValueError(f"a ring-degree {perm.shape[0]} "
                                 f"automorphism on {n} columns")
            if tr.enabled:
                tr.count("auto.rows", x.shape[0])
        acc = np.empty((2 * k * ext_limbs, n), dtype=np.uint64)
        if lib.ks_mac(acc, np.ascontiguousarray(x), k, beta, ext_limbs, n,
                      ext.q_col.astype(np.uint64), b, a, perm):
            raise ValueError("native key MAC: a permutation entry lies "
                             "outside [0, n)")
        # Reduced residues are < q < 2^63, so the signed reinterpret is
        # bitwise exact and saves a wide-stack copy.
        return acc.view(np.int64)


def _key_mac_numpy(x: np.ndarray, tables: tuple, ext: RnsBasis,
                   k: int) -> np.ndarray:
    """The numpy twin of the native key MAC (see :func:`key_mac`):
    ``x`` is read through a zero-copy ``uint64`` view, so canonical
    residues only.  The uint32 key tables are widened and their Shoup
    companions built per call (one division pass each), so no cached
    key carries them for the C MAC, which reads neither."""
    b_u, a_u = (t.astype(np.uint64) for t in tables)
    ext_limbs = len(ext)
    n = x.shape[1]
    beta = b_u.shape[0] // ext_limbs
    q_u = ext.q_col.astype(np.uint64)
    q_tiled = np.tile(q_u, (beta, 1))
    b_sh = shoup_companion(b_u, q_tiled)
    a_sh = shoup_companion(a_u, q_tiled)
    x3 = x.view(np.uint64).reshape(k, beta * ext_limbs, n)
    shape = (beta * ext_limbs, n)
    hi = scratch("kmac_hi", shape)
    terms = scratch("kmac_t", shape)
    acc = np.empty((2 * k * ext_limbs, n), dtype=np.uint64)
    acc4 = acc.reshape(k, 2, ext_limbs, n)
    # One wide Shoup multiply per (ciphertext, half) over the whole
    # digit block, summed along the digit axis — uint64 wraparound
    # sums are exact mod 2^64, so any accumulation order yields the
    # per-ciphertext MAC's bits.
    for i in range(k):
        shoup_mul_lazy(x3[i], b_u, b_sh, q_tiled, out=terms, hi=hi)
        np.sum(terms.reshape(beta, ext_limbs, n), axis=0, out=acc4[i, 0])
        shoup_mul_lazy(x3[i], a_u, a_sh, q_tiled, out=terms, hi=hi)
        np.sum(terms.reshape(beta, ext_limbs, n), axis=0, out=acc4[i, 1])
    for tag in ("kmac_hi", "kmac_t"):
        release_scratch(tag, shape)
    # Lazy products land in [0, 2q), so the digit sums sit below
    # 2*beta*q: a halving conditional-subtract chain folds them to the
    # canonical residue in a few cheap vector passes instead of one
    # uint64 division pass over the wide accumulator — the same value
    # ``% q`` produces, bitwise.
    tmp = scratch("kmac_c", acc.shape)
    tmp4 = tmp.reshape(k, 2, ext_limbs, n)
    c = 1
    while c < beta:
        c <<= 1
    while c:
        np.subtract(acc4, q_u * np.uint64(c), out=tmp4)
        np.minimum(acc4, tmp4, out=acc4)
        c >>= 1
    release_scratch("kmac_c", acc.shape)
    return acc.view(np.int64)


def mod_down_tail(acc: np.ndarray, corr: np.ndarray, q_basis: RnsBasis,
                  value: int, halves: int, *, add: np.ndarray | None = None,
                  perm: np.ndarray | None = None) -> np.ndarray:
    """The ModDown tail ``(acc_Q - corr) * value^-1 mod q``; consumes
    ``corr`` (the native kernel writes the result into it).

    ``acc`` is a ``(halves*E, N)`` accumulator stack whose first
    ``len(q_basis)`` rows per half are the Q rows, ``corr`` the
    ``(halves*len(q_basis), N)`` correction stack; both hold canonical
    residues.  ``add``, a stack of canonical residues, is added in
    reduced, read through the column permutation ``perm``
    (``add[..., perm]``; none: as it lies):

    - ``(halves * len(q_basis), N)``: into every half, a
      relinearization's ``(ks0 + d0, ks1 + d1)``;
    - ``(halves/2 * len(q_basis), N)``, ``halves`` even: into half 0 of
      each pair, the hoisted rotation's ``ks0 + sigma(c0)`` with no
      gathered copy of ``c0``.

    A permuted ``add`` counts its rows as ``auto.rows`` under both
    implementations.

    The native ``mod_down_tail`` reads the strided Q rows and ``add``
    in place and computes ``(acc_Q - corr + q) * value^-1`` with one
    lazy Shoup product and one conditional subtract (one more for the
    addend).  The numpy twin subtracts into ``corr``, runs
    :func:`_scale_by_inv_batch`, then gathers, adds and conditionally
    subtracts the addend.  Under ``REPRO_VERIFY=1`` the C entry checks
    the ``2^31`` bound (:class:`~repro.nttmath.batched.ShoupBoundError`).
    """
    l1 = len(q_basis)
    n = corr.shape[1]
    ext_limbs = acc.shape[0] // halves
    if (acc.shape != (halves * ext_limbs, n) or ext_limbs < l1
            or corr.shape != (halves * l1, n)):
        raise ValueError(f"accumulator {acc.shape} and correction "
                         f"{corr.shape} do not hold {halves} halves of "
                         f"{l1} Q rows")
    # The addend covers every every-th half: all of them, or half 0 of
    # each pair.
    every = 0
    if add is not None:
        if add.shape == (halves * l1, n):
            every = 1
        elif halves % 2 == 0 and add.shape == (halves // 2 * l1, n):
            every = 2
        else:
            raise ValueError(f"addend {add.shape} holds neither every half "
                             f"nor the first halves of {halves} halves of "
                             f"{l1} Q rows")
    if perm is not None and perm.shape != (n,):
        raise ValueError(f"a {perm.shape} permutation on {n} columns")
    lib = _ks_kernel(q_basis)
    if verify_inputs() and lib is not None:
        require_shoup_bound(q_basis.primes, "mod_down_tail")
    if add is not None and perm is not None and TRACER.enabled:
        TRACER.count("auto.rows", add.shape[0])
    if lib is not None:
        inv_u, inv_sh = _batch_inv_shoup(value, q_basis, 1)
        if lib.mod_down_tail(corr, np.ascontiguousarray(acc), halves, l1,
                             ext_limbs, n, q_basis.q_col.astype(np.uint64),
                             inv_u, inv_sh,
                             None if add is None
                             else np.ascontiguousarray(add), every, perm):
            raise ValueError("native ModDown tail: a permutation entry "
                             "lies outside [0, n)")
        return corr
    corr3 = corr.reshape(halves, l1, n)
    np.subtract(acc.reshape(halves, ext_limbs, n)[:, :l1], corr3,
                out=corr3)
    out = _scale_by_inv_batch(corr, value, q_basis,
                              _batch_q_col(q_basis, halves), halves)
    if add is not None:
        if perm is not None:
            add = np.take(add, perm, axis=1)
        groups = halves // every
        target = out.reshape(groups, every, l1, n)[:, 0]
        target += add.reshape(groups, l1, n)
        # Canonical + canonical < 2q: conditional subtract, no division.
        tmp = scratch("mdt_c", target.shape)
        _csub_into(target.view(np.uint64), q_basis.q_col.view(np.uint64),
                   tmp)
        release_scratch("mdt_c", target.shape)
    return out


def add_sub(x: np.ndarray | None, y: np.ndarray, basis: RnsBasis,
            sign: int = 1) -> np.ndarray:
    """``(x + sign*y) % q`` over ct-major stacks of polynomials on
    ``basis`` (row ``r`` on limb ``r % L``); ``x = None`` with
    ``sign = -1`` negates ``y``.  Any int64 inputs: the result is
    numpy's ``(x +- y) % q`` bit for bit, wraparound included.

    The native ``batch_add_sub`` does it in one pass over a row of
    canonical residues (one conditional subtract or add per value,
    with a range scan in the same pass) and reruns any other row with
    a division-free Barrett reduction; the numpy twin is the broadcast
    expression."""
    if y.ndim != 2 or y.shape[0] % len(basis) or (
            x is not None and x.shape != y.shape):
        raise ValueError(f"stacks {None if x is None else x.shape} and "
                         f"{y.shape} are not polynomials over "
                         f"{len(basis)} limbs")
    if sign not in (1, -1) or (x is None and sign != -1):
        raise ValueError(f"sign {sign} with "
                         f"{'no' if x is None else 'a'} first operand")
    lib = native.kernel()
    if lib is None:
        q = _batch_q_col(basis, y.shape[0] // len(basis))
        if x is None:
            return (-y) % q
        return (x + y if sign > 0 else x - y) % q
    out = np.empty(y.shape, dtype=np.int64)
    if lib.batch_add_sub(out, None if x is None
                         else np.ascontiguousarray(x),
                         np.ascontiguousarray(y), y.shape[0], len(basis),
                         y.shape[1], basis.q_col.astype(np.uint64),
                         sign):
        raise ValueError(f"native batch add/sub refused the moduli "
                         f"{basis.primes}")
    return out


def batch_col_cache_size() -> int:
    """Live tiled-column entries (exposed for cache-bound tests)."""
    return len(_BATCH_COL_CACHE)


register_cache_clearer(_BATCH_COL_CACHE.clear)


# ======================================================================
# Containers
# ======================================================================
@dataclass
class Plaintext:
    """An encoded message: one polynomial plus its scaling factor.

    Plaintext operands are static constants (matrix diagonals,
    EvalMod coefficients, BGV masks) multiplied against many
    ciphertexts, so the NTT-domain residues are Shoup-frozen on first
    use and cached per level — EFFACT's precomputed-constant philosophy
    applied to plaintexts, mirroring the Shoup-frozen switching keys.
    Treat the polynomial as immutable after encoding.
    """

    poly: RnsPolynomial
    scale: float
    _frozen: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def level(self) -> int:
        return len(self.poly.basis) - 1

    def copy(self) -> "Plaintext":
        return Plaintext(poly=self.poly.copy(), scale=self.scale)

    def require_prefix(self, basis: RnsBasis) -> None:
        """Raise :class:`PlaintextBasisError` unless ``basis`` (a
        ciphertext's) is a prefix of the plaintext's basis: only then
        are its first ``len(basis)`` residue rows the same message mod
        the ciphertext's primes."""
        primes = self.poly.basis.primes
        if primes[:len(basis)] != basis.primes:
            raise PlaintextBasisError(
                f"plaintext over {primes} does not cover the "
                f"ciphertext's primes {basis.primes} as a prefix")

    def frozen_ntt_tables(self, basis: RnsBasis) -> tuple[np.ndarray,
                                                          np.ndarray]:
        """Shoup-frozen NTT-domain residues over the prefix ``basis``
        (companions are per-limb, so prefix rows of the full-basis
        freeze stay valid)."""
        self.require_prefix(basis)
        limbs = len(basis)
        full_limbs = len(self.poly.basis)
        hit = self._frozen.get(limbs)
        if hit is None:
            full = self._frozen.get(full_limbs)
            if full is None:
                ntt_poly = self.poly if self.poly.is_ntt \
                    else self.poly.to_ntt()
                full = shoup_precompute(ntt_poly)
                self._frozen[full_limbs] = full
            values, companions = full
            hit = (values[:limbs], companions[:limbs])
            self._frozen[limbs] = hit
        return hit

    def frozen_batch_tables(self, basis: RnsBasis,
                            k: int) -> tuple[np.ndarray, np.ndarray]:
        """The :meth:`frozen_ntt_tables` rows tiled to ``2*k`` halves
        for one Shoup multiply against a k-ciphertext batch stack
        (``k = 1`` for a single ciphertext) — built on first use and
        cached per ``(limbs, k)``."""
        self.require_prefix(basis)
        key = ("batch", len(basis), k)
        hit = self._frozen.get(key)
        if hit is None:
            values, companions = self.frozen_ntt_tables(basis)
            hit = (np.tile(values, (2 * k, 1)),
                   np.tile(companions, (2 * k, 1)))
            self._frozen[key] = hit
        return hit


@dataclass
class Ciphertext:
    """An RLWE ciphertext ``(c0, c1)`` with ``c0 + c1*s = payload``.

    Both polynomials are kept in the NTT (evaluation) domain between
    operations, matching how real accelerators (and this paper's data
    flow diagrams) stage ciphertext data.  The ``scale`` field is
    scheme-defined: CKKS tracks the encoding scale, BGV the accumulated
    plaintext factor mod ``t`` (an exact small integer), BFV leaves it
    at 1.

    The stacked evaluator additionally views the pair as one
    ``(2L, N)`` residue stack (:meth:`pair`): ``c0`` occupies the first
    ``L`` rows and ``c1`` the last ``L``, so domain transforms,
    automorphisms and modular arithmetic issue one batched kernel for
    the whole ciphertext.  Ciphertexts built from two separate
    polynomials stack lazily on first use; after stacking, ``c0`` and
    ``c1`` are zero-copy row views of the shared stack.
    """

    c0: RnsPolynomial
    c1: RnsPolynomial
    scale: float
    _pair: np.ndarray | None = field(default=None, repr=False,
                                     compare=False)
    #: ``(stack, i)`` when the pair is member ``i`` of a batch stack
    #: (set by :meth:`CiphertextBatch.split`), so a batch of exactly
    #: those members reuses the stack
    #: (:meth:`CiphertextBatch.from_ciphertexts`).
    _origin: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.c0.basis != self.c1.basis:
            raise ValueError("ciphertext components must share a basis")

    @classmethod
    def from_pair(cls, basis: RnsBasis, pair: np.ndarray, scale: float,
                  *, is_ntt: bool = True) -> "Ciphertext":
        """Wrap a stacked ``(2L, N)`` residue pair; ``c0``/``c1`` are
        row views, so no data is copied."""
        pair = np.ascontiguousarray(pair, dtype=np.int64)
        limbs = len(basis)
        if pair.ndim != 2 or pair.shape[0] != 2 * limbs:
            raise ValueError(
                f"pair shape {pair.shape} does not match a "
                f"{limbs}-limb basis")
        ct = cls(c0=RnsPolynomial(basis, pair[:limbs], is_ntt=is_ntt),
                 c1=RnsPolynomial(basis, pair[limbs:], is_ntt=is_ntt),
                 scale=scale)
        ct._pair = pair
        return ct

    def pair(self) -> np.ndarray:
        """The stacked ``(2L, N)`` view of ``(c0, c1)``.

        Builds the stack on first call (one concatenation) and rebinds
        ``c0``/``c1`` as views of it, so later in-place consumers can
        never desynchronise the two representations.
        """
        if self._pair is None:
            if self.c0.is_ntt != self.c1.is_ntt:
                raise ValueError("cannot stack a mixed-domain "
                                 "ciphertext pair")
            pair = np.concatenate([self.c0.data, self.c1.data])
            limbs = len(self.basis)
            self.c0 = RnsPolynomial(self.basis, pair[:limbs],
                                    is_ntt=self.c0.is_ntt)
            self.c1 = RnsPolynomial(self.basis, pair[limbs:],
                                    is_ntt=self.c1.is_ntt)
            self._pair = pair
        return self._pair

    @property
    def basis(self) -> RnsBasis:
        return self.c0.basis

    @property
    def is_ntt(self) -> bool:
        return self.c0.is_ntt

    @property
    def level(self) -> int:
        """Current level l: the basis holds l+1 limbs (paper Table I)."""
        return len(self.c0.basis) - 1

    @property
    def n(self) -> int:
        return self.c0.n

    def copy(self) -> "Ciphertext":
        cls = type(self)
        if self._pair is not None:
            return cls.from_pair(self.basis, self._pair.copy(),
                                 self.scale, is_ntt=self.c0.is_ntt)
        return cls(c0=self.c0.copy(), c1=self.c1.copy(),
                   scale=self.scale)


@dataclass
class Ciphertext3:
    """The pre-relinearization triple ``(d0, d1, d2)`` of HMULT,
    decryptable under ``(1, s, s^2)`` (paper section II-C)."""

    d0: RnsPolynomial
    d1: RnsPolynomial
    d2: RnsPolynomial
    scale: float


@dataclass
class CiphertextBatch:
    """``k`` independent same-basis ciphertexts as one contiguous
    ``(2k*L, N)`` residue stack.

    Ciphertext ``i`` occupies rows ``[2*i*L, 2*(i+1)*L)`` — its ``c0``
    first, then its ``c1`` — so the batch is literally ``k`` ciphertext
    pairs laid end to end, and every batch kernel covers ``k`` times
    as many tiles as one pair (the paper's amortization axis extended
    across independent ciphertexts; a single ciphertext is the
    ``k = 1`` case).  Scales (and the
    concrete ciphertext class) stay per-batch metadata; levels cannot
    differ inside a batch because all members share one basis.
    """

    basis: RnsBasis
    stack: np.ndarray
    scales: list[float]
    is_ntt: bool = True
    ct_cls: type = Ciphertext

    def __post_init__(self):
        rows = 2 * len(self.scales) * len(self.basis)
        if self.stack.ndim != 2 or self.stack.shape[0] != rows:
            raise ValueError(
                f"stack shape {self.stack.shape} does not match "
                f"{len(self.scales)} ciphertexts over a "
                f"{len(self.basis)}-limb basis")

    @classmethod
    def from_ciphertexts(cls, cts) -> "CiphertextBatch":
        """Fuse same-basis, same-domain ciphertexts into one stack.

        A single ciphertext is wrapped without copying: the batch stack
        *is* its :meth:`Ciphertext.pair`, which is how every
        single-ciphertext op runs the batch kernels at ``k = 1``.  So
        are the members of one batch's :meth:`split`, all of them in
        order: the batch stack *is* that batch's stack, so a chain of
        batched ops copies no stack between ops.  Any other list is
        copied into a fresh stack.  Batch ops therefore never write
        their input stacks."""
        cts = list(cts)
        if not cts:
            raise ValueError("need at least one ciphertext")
        first = cts[0]
        for ct in cts[1:]:
            if ct.basis != first.basis:
                raise ValueError("batched ciphertexts must share a "
                                 "basis; mod-switch/drop levels first")
            if ct.is_ntt != first.is_ntt:
                raise ValueError("batched ciphertexts must share a "
                                 "domain")
            if ct.n != first.n:
                raise ValueError("batched ciphertexts must share a "
                                 "ring degree")
        if len(cts) == 1:
            stack = first.pair()
        else:
            stack = _split_stack(cts)
            if stack is None:
                stack = np.concatenate([ct.pair() for ct in cts])
        return cls(basis=first.basis, stack=stack,
                   scales=[ct.scale for ct in cts],
                   is_ntt=first.is_ntt, ct_cls=type(first))

    @property
    def k(self) -> int:
        return len(self.scales)

    @property
    def level(self) -> int:
        return len(self.basis) - 1

    @property
    def n(self) -> int:
        return self.stack.shape[1]

    def split(self) -> list:
        """The member ciphertexts as zero-copy row views of the stack,
        each remembering its place in it (see :meth:`from_ciphertexts`)."""
        limbs = len(self.basis)
        cts = []
        for i, scale in enumerate(self.scales):
            ct = self.ct_cls.from_pair(
                self.basis, self.stack[2 * i * limbs:2 * (i + 1) * limbs],
                scale, is_ntt=self.is_ntt)
            ct._origin = (self.stack, i)
            cts.append(ct)
        return cts

    def copy(self) -> "CiphertextBatch":
        return CiphertextBatch(basis=self.basis, stack=self.stack.copy(),
                               scales=list(self.scales),
                               is_ntt=self.is_ntt, ct_cls=self.ct_cls)


def _split_stack(cts: list) -> np.ndarray | None:
    """The stack whose :meth:`CiphertextBatch.split` gave exactly
    ``cts``, in order, with each member's pair still the view of its
    rows; ``None`` for any other list."""
    origin = cts[0]._origin
    if origin is None:
        return None
    stack = origin[0]
    rows = stack.shape[0] // len(cts)
    if rows * len(cts) != stack.shape[0]:
        return None
    base = stack.ctypes.data
    step = rows * stack.strides[0]
    for i, ct in enumerate(cts):
        pair = ct._pair
        if (ct._origin is None or ct._origin[0] is not stack
                or ct._origin[1] != i or pair is None
                or pair.shape[0] != rows
                or pair.ctypes.data != base + i * step):
            return None
    return stack


def _as_batch(ct: Ciphertext) -> CiphertextBatch:
    """The zero-copy ``k = 1`` batch view of one ciphertext."""
    return CiphertextBatch.from_ciphertexts((ct,))


# ======================================================================
# Key material (gadget RLWE keys shared by every scheme)
# ======================================================================
@dataclass
class SecretKey:
    """Ternary secret; stored as small coefficients so it can be
    materialized over any basis (Q at any level, or QP for keys)."""

    coeffs: np.ndarray

    def poly(self, basis: RnsBasis) -> RnsPolynomial:
        return RnsPolynomial.from_small_coeffs(basis, self.coeffs)

    def poly_ntt(self, basis: RnsBasis) -> RnsPolynomial:
        return self.poly(basis).to_ntt()


@dataclass
class SwitchingKey:
    """One hybrid key-switching key: a pair of polynomials per digit,
    all over the full QP basis in the NTT domain."""

    b: list[RnsPolynomial]
    a: list[RnsPolynomial]
    #: Level-restricted digit-stacked tables keyed by ``(count, rows)``
    #: (see :meth:`stacked_tables`); also static per key.
    _stacked: dict = field(default_factory=dict, repr=False,
                           compare=False)

    @property
    def dnum(self) -> int:
        return len(self.b)

    def stacked_tables(self, count: int, rows: tuple[int, ...]) -> tuple:
        """Digit-stacked ``(b, a)`` uint32 tables for :func:`key_mac`.

        Restricts the first ``count`` digits of ``b`` and ``a`` to the
        key-basis ``rows`` (a level's ``q_0..q_l + P`` selection) and
        concatenates them along the limb axis, so the whole key MAC is
        one ``(count*len(rows), N)`` pass per accumulator.  The residues
        are narrowed to uint32 (every key modulus lies below ``2^31``),
        half the bytes of the key polynomials, after a check that each
        row is canonical: a value outside ``[0, q)`` raises
        :class:`~repro.nttmath.batched.NonCanonicalInputError` naming
        the row, once per table rather than per MAC.  Cached per
        ``(count, rows)`` — keys are static and the level set a workload
        touches is small.  No Shoup companions: only the numpy twin
        reads them, and it builds its own.
        """
        key = (count, rows)
        hit = self._stacked.get(key)
        if hit is None:
            idx = np.asarray(rows, dtype=np.intp)
            q_col = self.b[0].basis.q_col[idx]

            def stack(polys):
                table = np.concatenate([p.data[idx] for p in polys[:count]])
                require_canonical(table, q_col, "stacked_tables")
                return table.astype(np.uint32)

            hit = (stack(self.b), stack(self.a))
            self._stacked[key] = hit
        return hit


@dataclass
class KeyChain:
    """All evaluation keys an application needs."""

    relin: SwitchingKey | None = None
    galois: dict[int, SwitchingKey] = field(default_factory=dict)
    conjugation: SwitchingKey | None = None


# ======================================================================
# Context interface
# ======================================================================
class RnsContext:
    """Basis/level bookkeeping every scheme context shares.

    Subclasses populate ``params`` (with ``n``, ``alpha``, ``dnum``,
    ``sigma`` attributes), ``q_full`` (the full prime chain),
    ``p_basis`` (the key-switching special modulus), ``key_basis``
    (``q_full + p``) and ``rng``; this base derives the leveled views
    the evaluator and key generator consume.
    """

    params: object
    q_full: RnsBasis
    p_basis: RnsBasis
    key_basis: RnsBasis
    rng: np.random.Generator

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def max_level(self) -> int:
        return len(self.q_full) - 1

    def q_basis(self, level: int) -> RnsBasis:
        """Basis of a level-``level`` ciphertext: primes q_0..q_level."""
        if not 0 <= level <= self.max_level:
            raise ValueError(f"level {level} out of range")
        return self.q_full.prefix(level + 1)

    def ext_basis(self, level: int) -> RnsBasis:
        """Key-switching working basis ``C_l + P``."""
        return self.q_basis(level).extend(self.p_basis)

    def digit_primes(self, digit: int, level: int) -> tuple[int, ...]:
        """Digit ``digit``'s primes restricted to the current chain."""
        alpha = self.params.alpha
        lo = digit * alpha
        hi = min(lo + alpha, level + 1)
        if lo > level:
            return ()
        return self.q_full.primes[lo:hi]

    def num_digits(self, level: int) -> int:
        """beta: digits needed to cover a level-``level`` ciphertext."""
        alpha = self.params.alpha
        return -(-(level + 1) // alpha)


class RnsKeyGenerator:
    """Samples gadget (hybrid / dnum) switching keys for a context.

    Key switching follows the hybrid construction of Han-Ki, the
    algorithm the paper targets (section II-C, ``dnum`` decompose
    digits): the switching key holds one ciphertext per digit,
    ``evk_j = (-a_j*s + noise_j + g_j*target, a_j)`` over the extended
    basis ``QP`` with gadget factor
    ``g_j = P * Q~_j * [Q~_j^{-1}]_{Q_j}``.  The noise term is
    scheme-defined (:meth:`_noise_poly`): Gaussian ``e`` for CKKS/BFV,
    ``t*e`` for BGV so key-switch noise stays a multiple of ``t``.
    """

    def __init__(self, context: RnsContext):
        self.context = context

    def gen_secret(self) -> SecretKey:
        ctx = self.context
        poly = RnsPolynomial.random_ternary(
            ctx.q_full, ctx.n, ctx.rng,
            hamming_weight=getattr(ctx.params, "hamming_weight", None))
        coeffs = np.array(poly.to_int_coeffs(signed=True), dtype=np.int64)
        return SecretKey(coeffs=coeffs)

    def _noise_poly(self, basis: RnsBasis) -> RnsPolynomial:
        """NTT-domain key noise; BGV overrides with ``t*e``."""
        ctx = self.context
        return RnsPolynomial.random_gaussian(
            basis, ctx.n, ctx.rng, ctx.params.sigma).to_ntt()

    def _gadget_factor(self, digit: int) -> int:
        """g_j = P * Q~_j * [Q~_j^{-1}]_{Q_j} (an integer mod QP)."""
        ctx = self.context
        alpha = ctx.params.alpha
        primes = ctx.q_full.primes
        lo = digit * alpha
        hi = min(lo + alpha, len(primes))
        digit_product = 1
        for p in primes[lo:hi]:
            digit_product *= p
        q_tilde = ctx.q_full.modulus // digit_product
        inv = pow(q_tilde % digit_product, -1, digit_product)
        return ctx.p_basis.modulus * q_tilde * inv

    def gen_switching_key(self, target: RnsPolynomial,
                          sk: SecretKey) -> SwitchingKey:
        """Key switching ``target -> s`` (target given over QP, NTT)."""
        ctx = self.context
        basis = ctx.key_basis
        s = sk.poly_ntt(basis)
        b_list, a_list = [], []
        for j in range(ctx.params.dnum):
            g = self._gadget_factor(j)
            a = RnsPolynomial.random_uniform(basis, ctx.n, ctx.rng).to_ntt()
            e = self._noise_poly(basis)
            b = -(a.pointwise_mul(s)) + e + target.mul_scalar(g)
            b_list.append(b)
            a_list.append(a)
        return SwitchingKey(b=b_list, a=a_list)

    def gen_relin(self, sk: SecretKey) -> SwitchingKey:
        """evk for s^2 -> s (used by HMULT relinearization)."""
        ctx = self.context
        s = sk.poly_ntt(ctx.key_basis)
        return self.gen_switching_key(s.pointwise_mul(s), sk)

    def gen_galois(self, step: int, sk: SecretKey) -> SwitchingKey:
        """Key for rotation by ``step`` slots: sigma_g(s) -> s."""
        ctx = self.context
        g = galois_element(step, ctx.n)
        target = sk.poly(ctx.key_basis).apply_automorphism(g).to_ntt()
        return self.gen_switching_key(target, sk)

    def gen_conjugation(self, sk: SecretKey) -> SwitchingKey:
        ctx = self.context
        g = conjugation_element(ctx.n)
        target = sk.poly(ctx.key_basis).apply_automorphism(g).to_ntt()
        return self.gen_switching_key(target, sk)

    def gen_keychain(self, sk: SecretKey, *,
                     rotations=()) -> KeyChain:
        chain = KeyChain(relin=self.gen_relin(sk))
        for step in rotations:
            chain.galois[step] = self.gen_galois(step, sk)
        chain.conjugation = self.gen_conjugation(sk)
        return chain


# ======================================================================
# The NTT-domain modulus switch
# ======================================================================
def switch_down_ntt(stack: np.ndarray, basis: RnsBasis, k: int, *,
                    delta_fn=None) -> tuple[np.ndarray, RnsBasis]:
    """Drop the last limb of ``k`` stacked NTT-domain polynomials.

    The modulus-switch dataflow the IR lowering emits, shared by CKKS
    rescale and BGV modulus switching: only the dropped limb of each
    polynomial is iNTT'd (k rows), its (optionally corrected) centred
    re-reductions are NTT'd back, and the subtract + ``q_last^-1``
    scaling fold in the NTT domain — bitwise identical to the
    coefficient round trip because the NTT is Z_q-linear and commutes
    with per-limb constants.  ``stack`` rows must be canonical
    residues.

    ``delta_fn`` maps the centred dropped rows ``(k, N)`` to the
    integer correction actually subtracted: ``None`` (identity) is the
    CKKS rescale; BGV passes the lift to a multiple of ``t``.
    """
    limbs = len(basis)
    if limbs < 2:
        raise ValueError("cannot rescale a single-limb polynomial")
    if stack.shape[0] != k * limbs:
        raise ValueError(
            f"expected a {k * limbs}-row stack, got {stack.shape[0]}")
    q_last = basis.primes[-1]
    new_basis = basis.prefix(limbs - 1)
    n = stack.shape[1]
    last = np.concatenate(
        [stack[i * limbs + limbs - 1:(i + 1) * limbs]
         for i in range(k)])
    last_coeff = stacked_engine(n, ((q_last,),) * k, dedupe=True).inverse(
        last, assume_reduced=True)
    centred = np.where(last_coeff > q_last // 2,
                       last_coeff - q_last, last_coeff)
    delta = centred if delta_fn is None else delta_fn(centred)
    if delta_fn is None and q_last // 2 < min(new_basis.primes):
        # Rescale: |delta| <= q_last/2 < every q_j, so
        # ``delta + q_j`` already sits in (0, 2q) and one
        # conditional subtract replaces the broadcast division —
        # the identical canonical residue.
        corr = np.add(delta[:, None, :], new_basis.q_col)
        corr = corr.reshape(k * (limbs - 1), n)
        tmp = scratch("sdn_c", corr.shape)
        _csub_into(corr.view(np.uint64),
                   _batch_q_col(new_basis, k).view(np.uint64), tmp)
        release_scratch("sdn_c", corr.shape)
    else:
        corr = (delta[:, None, :] % new_basis.q_col).reshape(
            k * (limbs - 1), n)
    corr_ntt = stacked_engine(n, (new_basis,) * k, dedupe=True).forward(
        corr, assume_reduced=True)
    acc = np.concatenate(
        [stack[i * limbs:(i + 1) * limbs - 1] for i in range(k)])
    # Both operands were canonical, so the difference sits in
    # (-q, q), the input range of the shared scaling tail.
    acc -= corr_ntt
    return _scale_by_inv_batch(
        acc, q_last, new_basis, _batch_q_col(new_basis, k),
        k), new_basis


# ======================================================================
# Evaluator base
# ======================================================================
class RnsEvaluatorBase:
    """Stateless evaluator core bound to a context and a key chain.

    Hosts every scheme-independent operation of the stacked hot path;
    scheme subclasses add their plaintext semantics (CKKS scale
    management, BGV factor tracking and ``t``-exact modulus switching,
    BFV scale-invariant multiply) and may override the ModDown hooks.

    ``stacked=False`` constructs the scheme's per-polynomial reference
    evaluator instead, a subclass of the requested class from
    :mod:`repro.schemes.reference` (the way ``pathlib.Path`` returns a
    ``PosixPath``); this is the one place the keyword is read.
    """

    def __new__(cls, *args, stacked: bool = True, **kwargs):
        if not stacked:
            from .reference import reference_class
            cls = reference_class(cls)
        return super().__new__(cls)

    def __init__(self, context: RnsContext, keys: KeyChain | None = None,
                 *, stacked: bool = True):
        # ``stacked`` picked the class in ``__new__``.
        self.context = context
        self.keys = keys or KeyChain()

    # ------------------------------------------------------------------
    # Level and scale maintenance
    # ------------------------------------------------------------------
    def drop_level(self, ct: Ciphertext, level: int) -> Ciphertext:
        """Drop to a lower level without rescaling (Mod Down in Fig 1b)."""
        if level > ct.level:
            raise ValueError("cannot raise a ciphertext level by dropping")
        if level == ct.level:
            return ct
        basis = self.context.q_basis(level)
        limbs = len(ct.basis)
        l1 = level + 1
        pair = ct.pair()
        out = np.concatenate([pair[:l1], pair[limbs:limbs + l1]])
        return type(ct).from_pair(basis, out, ct.scale, is_ntt=ct.is_ntt)

    def _align(self, x: Ciphertext,
               y: Ciphertext) -> tuple[Ciphertext, Ciphertext]:
        level = min(x.level, y.level)
        return self.drop_level(x, level), self.drop_level(y, level)

    def _check_scales(self, a: float, b: float) -> None:
        if abs(a - b) > _SCALE_TOLERANCE * max(a, b):
            raise ValueError(
                f"scale mismatch: {a:g} vs {b:g}; rescale or use "
                f"multiply_scalar to match scales first")

    def _check_domains(self, a: bool, b: bool) -> None:
        if a != b:
            raise ValueError("domain mismatch (ntt vs coeff)")

    # ------------------------------------------------------------------
    # Addition family
    # ------------------------------------------------------------------
    def add(self, x: Ciphertext, y: Ciphertext) -> Ciphertext:
        return self._add_sub(x, y, 1)

    def sub(self, x: Ciphertext, y: Ciphertext) -> Ciphertext:
        return self._add_sub(x, y, -1)

    def _add_sub(self, x: Ciphertext, y: Ciphertext,
                 sign: int) -> Ciphertext:
        x, y = self._align(x, y)
        self._check_scales(x.scale, y.scale)
        self._check_domains(x.is_ntt, y.is_ntt)
        pair = add_sub(x.pair(), y.pair(), x.basis, sign)
        return type(x).from_pair(x.basis, pair, x.scale,
                                 is_ntt=x.is_ntt)

    def negate(self, ct: Ciphertext) -> Ciphertext:
        pair = add_sub(None, ct.pair(), ct.basis, -1)
        return type(ct).from_pair(ct.basis, pair, ct.scale,
                                  is_ntt=ct.is_ntt)

    def add_plain(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        return self._add_sub_plain(ct, pt, 1)

    def sub_plain(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        return self._add_sub_plain(ct, pt, -1)

    def _add_sub_plain(self, ct: Ciphertext, pt: Plaintext,
                       sign: int) -> Ciphertext:
        self._check_scales(ct.scale, pt.scale)
        poly = self._match_plain(pt, ct)
        self._check_domains(ct.is_ntt, poly.is_ntt)
        limbs = len(ct.basis)
        out = ct.pair().copy()
        c0 = out[:limbs]
        out[:limbs] = (c0 + poly.data if sign > 0
                       else c0 - poly.data) % ct.basis.q_col
        return type(ct).from_pair(ct.basis, out, ct.scale,
                                  is_ntt=ct.is_ntt)

    def _match_plain(self, pt: Plaintext, ct: Ciphertext) -> RnsPolynomial:
        """``pt``'s NTT-domain polynomial over ``ct``'s basis, which must
        be a prefix of the plaintext's (:meth:`Plaintext.require_prefix`)."""
        pt.require_prefix(ct.basis)
        poly = pt.poly if pt.poly.is_ntt else pt.poly.to_ntt()
        if poly.basis == ct.basis:
            return poly
        return RnsPolynomial(ct.basis, poly.data[:len(ct.basis)].copy(),
                             is_ntt=True)

    # ------------------------------------------------------------------
    # Multiplication family
    # ------------------------------------------------------------------
    def _relin_key(self, key: SwitchingKey | None) -> SwitchingKey:
        key = self.keys.relin if key is None else key
        if key is None:
            raise ValueError("no relinearization key in the key chain")
        return key

    def multiply(self, x: Ciphertext, y: Ciphertext, *,
                 key: SwitchingKey | None = None) -> Ciphertext:
        """HMULT with relinearization under ``key`` (default: the
        chain's relinearization key); caller rescales when ready.  Runs
        :meth:`batch_multiply` at ``k = 1``."""
        x, y = self._align(x, y)
        return self.batch_multiply(_as_batch(x), _as_batch(y),
                                   key=key).split()[0]

    def square(self, ct: Ciphertext) -> Ciphertext:
        return self.multiply(ct, ct)

    def multiply_plain(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        """Ciphertext-plaintext product with Shoup-frozen constants.

        The plaintext's NTT residues (with Shoup companions) are frozen
        once on the plaintext and sliced per level, so every repeated
        diagonal/coefficient multiply is division-free — bitwise
        identical to the plain ``pointwise_mul`` product.  Runs
        :meth:`batch_multiply_plain` at ``k = 1``: both halves in a
        single Shoup pass.
        """
        return self.batch_multiply_plain(_as_batch(ct), pt).split()[0]

    def _mul_int(self, ct: Ciphertext, value: int,
                 scale: float) -> Ciphertext:
        """Both components times an integer constant, at ``scale``."""
        value = int(value)
        basis = ct.basis
        s_col = np.array([value % p for p in basis.primes],
                         dtype=np.int64).reshape(-1, 1)
        pair = ct.pair() * _pair_col(s_col) % _pair_col(basis.q_col)
        return type(ct).from_pair(basis, pair, scale, is_ntt=ct.is_ntt)

    def multiply_int(self, ct: Ciphertext, value: int) -> Ciphertext:
        """Multiply by a small integer without scale growth."""
        return self._mul_int(ct, value, ct.scale)

    # ------------------------------------------------------------------
    # Key switching (hybrid, dnum digits) — the iNTT-BConv-NTT pipeline
    # ------------------------------------------------------------------
    def key_switch(self, d2: RnsPolynomial,
                   key: SwitchingKey) -> tuple[RnsPolynomial, RnsPolynomial]:
        """Switch coefficient-domain ``d2`` to the secret key; returns
        NTT-domain ``(ks0, ks1)`` over d2's basis.

        This is the paper's Figure 2 data flow: per digit, iNTT (already
        done by the caller handing coefficient data), BConv, NTT, then
        multiply-accumulate with the evk and a final ModDown.  Runs
        :meth:`batch_key_switch` at ``k = 1``: the digit NTTs as one
        ``(beta*E, N)`` pass, both key MACs as one pass each over the
        digit stack, and both ModDown accumulators as stacked pair
        transforms.
        """
        if d2.is_ntt:
            raise ValueError("key_switch expects coefficient-domain input")
        ks, q_basis = self.batch_key_switch(d2.data, d2.basis, key, 1)
        limbs = len(q_basis)
        return (RnsPolynomial(q_basis, ks[:limbs], is_ntt=True),
                RnsPolynomial(q_basis, ks[limbs:], is_ntt=True))

    # -- stacked key-switch internals ----------------------------------
    # One dataflow for every key switch: single-ciphertext ops run it at
    # k = 1, the batch ops at k fused ciphertexts.
    def _key_switch_batch(self, data: np.ndarray, key: SwitchingKey,
                          level: int, k: int, *,
                          ntt_rows: np.ndarray | None = None,
                          add: np.ndarray | None = None,
                          perm: np.ndarray | None = None
                          ) -> tuple[np.ndarray, RnsBasis]:
        """Key-switch ``k`` independent coefficient-domain polynomials
        (a ct-major ``(k*(l+1), N)`` stack) in one fused pass: one
        ``(k*beta*E, N)`` digit lift, one Shoup MAC per key half over
        all ``k`` accumulators, and one ModDown folding all ``k``
        ks-terms at once.  Returns the NTT-domain ``(2k*(l+1), N)``
        ct-major pair stack and its basis.  ``ntt_rows`` optionally
        carries the NTT-domain rows ``data`` was iNTT'd from (same
        layout), letting the lift skip re-transforming kept rows.
        ``add``/``perm`` pass to the ModDown tail
        (:func:`mod_down_tail`), which adds ``add`` into the result.
        Row slices are bitwise identical to ``k`` separate ``k = 1``
        key switches, and to the ``stacked=False`` reference."""
        ctx = self.context
        ext = ctx.ext_basis(level)
        beta = ctx.num_digits(level)
        lifted = self._lift_digits_batch(data, level, ext, beta, k,
                                         ntt_rows=ntt_rows)
        acc = self._key_mac_batch(lifted, key, level, beta, ext, k)
        q_basis = ctx.q_basis(level)
        return self._mod_down_batch_stacked(acc, ext, q_basis, k, add=add,
                                            perm=perm), q_basis

    def _lift_digits_batch(self, data: np.ndarray, level: int,
                           ext: RnsBasis, beta: int, k: int, *,
                           ntt_rows: np.ndarray | None = None
                           ) -> np.ndarray:
        """Decompose + ModUp all digits of ``k`` stacked polynomials,
        then run every forward NTT as one stacked pass; returns the
        NTT-domain ``(k*beta*E, N)`` digit stack, ct-major digit-inner
        (ciphertext ``i``'s digit ``j`` occupies rows ``(i*beta+j)*E``
        onward).

        Each digit's BConv extension converts all ``k`` polynomials in
        one wide pass (:func:`base_convert_stack`).  When ``ntt_rows``
        (the NTT-domain rows ``data`` was iNTT'd from) is available,
        every kept row is taken from it verbatim —
        ``forward(inverse(x)) == x`` bitwise — and only the extended
        rows go through forward NTTs, one ``(k*(E-alpha), N)``
        single-chain transform per digit so each call rides the
        deduped tile-wise engine (and its cache blocking) instead of a
        ``k*beta``-chain row gather.
        """
        ctx = self.context
        alpha = ctx.params.alpha
        ext_limbs = len(ext)
        n = data.shape[1]
        l1 = level + 1
        if ntt_rows is None:
            coeff = np.empty((k * beta * ext_limbs, n), dtype=np.int64)
            for j in range(beta):
                primes = ctx.digit_primes(j, level)
                lo = j * alpha
                hi = lo + len(primes)
                digit_stack = data[lo:hi] if k == 1 else np.concatenate(
                    [data[i * l1 + lo:i * l1 + hi] for i in range(k)])
                conv = base_convert_stack(
                    digit_stack, RnsBasis(primes),
                    RnsBasis([p for p in ext.primes if p not in primes]),
                    k)
                miss = len(conv) // k
                miss_idx = np.array(
                    [i for i, p in enumerate(ext.primes)
                     if p not in primes], dtype=np.intp)
                for i in range(k):
                    block = coeff[(i * beta + j) * ext_limbs:
                                  (i * beta + j + 1) * ext_limbs]
                    block[lo:hi] = data[i * l1 + lo:i * l1 + hi]
                    block[miss_idx] = conv[i * miss:(i + 1) * miss]
            engine = stacked_engine(ctx.n, (ext,) * (beta * k),
                                    dedupe=True)
            return engine.forward(coeff, assume_reduced=True)
        lifted = np.empty((k * beta * ext_limbs, n), dtype=np.int64)
        for j in range(beta):
            primes = ctx.digit_primes(j, level)
            lo = j * alpha
            hi = lo + len(primes)
            digit_stack = data[lo:hi] if k == 1 else np.concatenate(
                [data[i * l1 + lo:i * l1 + hi] for i in range(k)])
            missing = RnsBasis([p for p in ext.primes if p not in primes])
            conv = base_convert_stack(digit_stack,
                                      RnsBasis(primes), missing, k)
            conv = stacked_engine(ctx.n, (missing.primes,) * k,
                                  dedupe=True).forward(
                conv, assume_reduced=True)
            # The digit keeps a contiguous band ext[lo:hi]; its missing
            # primes are the two runs around it, in ext order, so each
            # ciphertext's converted rows scatter as two slice writes.
            miss = len(missing)
            for i in range(k):
                base_row = (i * beta + j) * ext_limbs
                block = lifted[base_row:base_row + ext_limbs]
                block[lo:hi] = ntt_rows[i * l1 + lo:i * l1 + hi]
                block[:lo] = conv[i * miss:i * miss + lo]
                block[hi:] = conv[i * miss + lo:(i + 1) * miss]
        return lifted

    def _key_mac_batch(self, lifted: np.ndarray, key: SwitchingKey,
                       level: int, beta: int, ext: RnsBasis, k: int, *,
                       auto: tuple | None = None) -> np.ndarray:
        """Both key MACs over ``k`` stacked digit blocks against the
        level's digit-stacked key tables (:func:`key_mac`; ``auto`` MACs
        the automorphism of ``lifted``) — bitwise identical to
        :func:`pointwise_mac_shoup` per accumulator.  Returns the
        ct-major ``(2k*E, N)`` accumulator stack (ct ``i``: acc0 rows
        first, then acc1)."""
        p_limbs = len(self.context.p_basis)
        total = self.context.max_level + 1 + p_limbs
        rows = tuple(range(level + 1)) + tuple(range(total - p_limbs,
                                                     total))
        return key_mac(lifted, key.stacked_tables(beta, rows), ext, k,
                       auto=auto)

    def _mod_down_batch_stacked(self, acc: np.ndarray, ext: RnsBasis,
                                q_basis: RnsBasis, k: int, *,
                                add: np.ndarray | None = None,
                                perm: np.ndarray | None = None
                                ) -> np.ndarray:
        """ModDown ``k`` stacked accumulator pairs in the NTT domain:
        ``ks = (acc - NTT(BConv_P(iNTT(acc_P)))) * P^-1 mod Q``.

        Only the ``2k`` P-limb row groups round-trip through the iNTT;
        the correction converts in one ``2k``-wide BConv and returns
        through one ``(2k*(l+1), N)`` NTT, and the subtraction/scaling
        stay on the NTT-domain accumulators — the exact dataflow
        :meth:`repro.compiler.lowering.HeLowering.key_switch` emits,
        bitwise identical to the full coefficient round trip by NTT
        linearity.  Input is the ct-major accumulator stack from
        :meth:`_key_mac_batch`; output is the ct-major ``(2k*(l+1),
        N)`` pair stack (a :class:`CiphertextBatch` stack layout).
        BGV overrides this with the exact ``t``-corrected variant.
        ``add``/``perm`` pass to :func:`mod_down_tail`, which adds
        ``add`` (permuted) into each ``ks0`` (a ``(k*(l+1), N)``
        stack) or into both halves (a ``(2k*(l+1), N)`` stack).
        Traced as one ``ks.moddown`` span whose ``impl`` names the
        tail's kernel."""
        n = self.context.n
        p_basis = self.context.p_basis
        l1 = len(q_basis)
        ext_limbs = len(ext)
        impl = "numpy" if _ks_kernel(q_basis) is None else "c"
        with TRACER.span("ks.moddown", k=k, impl=impl):
            a4 = acc.reshape(k, 2, ext_limbs, n)
            acc_p = np.ascontiguousarray(a4[:, :, l1:, :]).reshape(
                2 * k * (ext_limbs - l1), n)
            coeff_p = stacked_engine(n, (p_basis,) * (2 * k),
                                     dedupe=True).inverse(
                acc_p, assume_reduced=True)
            corr = base_convert_stack(coeff_p, p_basis, q_basis, 2 * k)
            corr_ntt = stacked_engine(n, (q_basis,) * (2 * k),
                                      dedupe=True).forward(
                corr, assume_reduced=True)
            # The tail reads the strided Q rows of acc in place and
            # writes into the correction stack: no contiguous copy of
            # acc_q and no expression temporaries (the wide stacks dwarf
            # L2, so every avoided pass is a DRAM round trip).
            return mod_down_tail(acc, corr_ntt, q_basis, p_basis.modulus,
                                 2 * k, add=add, perm=perm)

    # ------------------------------------------------------------------
    # Rotations (automorphism + key switch), plain and hoisted
    # ------------------------------------------------------------------
    def _identity_step(self, step: int) -> bool:
        """Whether rotating by ``step`` is the identity permutation."""
        return step % self.context.params.slots == 0

    def rotate(self, ct: Ciphertext, step: int) -> Ciphertext:
        if self._identity_step(step):
            return ct.copy()
        key = self.keys.galois.get(step)
        if key is None:
            raise ValueError(f"no Galois key for rotation step {step}")
        g = galois_element(step, self.context.n)
        return self._apply_galois(ct, g, key)

    def conjugate(self, ct: Ciphertext) -> Ciphertext:
        if self.keys.conjugation is None:
            raise ValueError("no conjugation key in the key chain")
        g = conjugation_element(self.context.n)
        return self._apply_galois(ct, g, self.keys.conjugation)

    def _apply_galois(self, ct: Ciphertext, galois_elt: int,
                      key: SwitchingKey) -> Ciphertext:
        return self._apply_galois_batch(_as_batch(ct), galois_elt,
                                        key).split()[0]

    def rotate_hoisted(self, ct: Ciphertext,
                       steps) -> dict[int, Ciphertext]:
        """Rotate one ciphertext by many steps, decomposing c1 once.

        The expensive decompose + ModUp + NTT runs once; each rotation
        then only permutes the NTT-domain digit stack (EFFACT's
        automorphism unit) and multiply-accumulates with its Galois key,
        the hoisting pattern the paper's section III analysis builds
        on.  Runs :meth:`batch_rotate_hoisted` at ``k = 1``.
        """
        return {step: batch.split()[0] for step, batch in
                self.batch_rotate_hoisted(_as_batch(ct), steps).items()}

    # ------------------------------------------------------------------
    # Cross-ciphertext batch operations (k fused ciphertexts per kernel)
    # ------------------------------------------------------------------
    def _mul_scale(self, sx: float, sy: float) -> float:
        """The scale of a ciphertext product; BGV overrides with its
        ``mod t`` factor product."""
        return sx * sy

    def _check_batch(self, x: CiphertextBatch, y: CiphertextBatch, *,
                     same_scales: bool = True) -> None:
        """Operand checks of a two-batch op; only sums need equal
        scales (a product's scale is :meth:`_mul_scale`)."""
        if x.basis != y.basis:
            raise ValueError("batch basis mismatch; drop levels before "
                             "batching")
        if x.k != y.k:
            raise ValueError(f"batch width mismatch: {x.k} vs {y.k}")
        self._check_domains(x.is_ntt, y.is_ntt)
        if same_scales:
            for sa, sb in zip(x.scales, y.scales):
                self._check_scales(sa, sb)

    def batch_add(self, x: CiphertextBatch,
                  y: CiphertextBatch) -> CiphertextBatch:
        """Add ``k`` ciphertext pairs in one ``(2k*L, N)`` pass
        (:func:`add_sub`)."""
        self._check_batch(x, y)
        stack = add_sub(x.stack, y.stack, x.basis)
        return CiphertextBatch(basis=x.basis, stack=stack,
                               scales=list(x.scales), is_ntt=x.is_ntt,
                               ct_cls=x.ct_cls)

    def batch_sub(self, x: CiphertextBatch,
                  y: CiphertextBatch) -> CiphertextBatch:
        """Subtract ``k`` ciphertext pairs in one wide pass
        (:func:`add_sub`)."""
        self._check_batch(x, y)
        stack = add_sub(x.stack, y.stack, x.basis, -1)
        return CiphertextBatch(basis=x.basis, stack=stack,
                               scales=list(x.scales), is_ntt=x.is_ntt,
                               ct_cls=x.ct_cls)

    def batch_negate(self, batch: CiphertextBatch) -> CiphertextBatch:
        """Negate ``k`` ciphertext pairs in one wide pass
        (:func:`add_sub`)."""
        stack = add_sub(None, batch.stack, batch.basis, -1)
        return CiphertextBatch(basis=batch.basis, stack=stack,
                               scales=list(batch.scales),
                               is_ntt=batch.is_ntt, ct_cls=batch.ct_cls)

    def batch_multiply_plain(self, batch: CiphertextBatch,
                             pt: Plaintext) -> CiphertextBatch:
        """One plaintext times ``k`` ciphertexts in a single Shoup pass
        against ``2k``-tiled frozen tables (the rotation-free half of a
        batched matrix-vector product)."""
        _require_ntt("multiply_plain", batch.is_ntt)
        tables = pt.frozen_batch_tables(batch.basis, batch.k)
        out = pointwise_mul_shoup_stacked(
            batch.stack, tables, _batch_q_col(batch.basis, 2 * batch.k))
        return CiphertextBatch(basis=batch.basis, stack=out,
                               scales=[s * pt.scale
                                       for s in batch.scales],
                               is_ntt=True, ct_cls=batch.ct_cls)

    def batch_multiply(self, x: CiphertextBatch, y: CiphertextBatch, *,
                       key: SwitchingKey | None = None) -> CiphertextBatch:
        """HMULT + relinearization of ``k`` independent ciphertext
        products: one ``(2k*L, N)`` tensor stack, then one fused
        ``k``-wide key switch of all ``d2`` terms under ``key``
        (default: the chain's relinearization key)."""
        key = self._relin_key(key)
        _require_ntt("multiply", x.is_ntt)
        self._check_batch(x, y, same_scales=False)
        basis = x.basis
        q_col = basis.q_col
        limbs = len(basis)
        k = x.k
        n = x.n
        # Tensor terms per ciphertext: each (2L, N) slice's products
        # run while both operands sit in cache (the full 2kL stack
        # would stream every expression temporary through DRAM);
        # elementwise, so slicing is trivially bitwise identical.  d2
        # goes to its own stack, and (d0, d1) to the pair stack the
        # ModDown tail adds into the key switch's result.
        x4 = x.stack.reshape(k, 2, limbs, n)
        y4 = y.stack.reshape(k, 2, limbs, n)
        d01 = np.empty_like(x.stack)
        d01_4 = d01.reshape(k, 2, limbs, n)
        d2 = np.empty((k * limbs, n), dtype=np.int64)
        tmp_d1 = scratch("bmul_d1", (limbs, n))
        for i in range(k):
            np.remainder(x4[i, 0] * y4[i, 0], q_col, out=d01_4[i, 0])
            np.remainder(x4[i, 1] * y4[i, 1], q_col,
                         out=d2[i * limbs:(i + 1) * limbs])
            # The two cross terms are canonical, so their sum is below
            # 2q: conditional subtract, not a third division pass.
            np.add(x4[i, 0] * y4[i, 1] % q_col,
                   x4[i, 1] * y4[i, 0] % q_col, out=d01_4[i, 1])
            _csub_into(d01_4[i, 1].view(np.uint64), q_col.view(np.uint64),
                       tmp_d1)
        release_scratch("bmul_d1", (limbs, n))
        d2_coeff = stacked_engine(n, (basis,) * k, dedupe=True).inverse(
            d2, assume_reduced=True)
        out, q_basis = self._key_switch_batch(d2_coeff, key, x.level, k,
                                              ntt_rows=d2, add=d01)
        scales = [self._mul_scale(sa, sb)
                  for sa, sb in zip(x.scales, y.scales)]
        return CiphertextBatch(basis=q_basis, stack=out, scales=scales,
                               is_ntt=True, ct_cls=x.ct_cls)

    def batch_key_switch(self, stack: np.ndarray, basis: RnsBasis,
                         key: SwitchingKey,
                         k: int) -> tuple[np.ndarray, RnsBasis]:
        """Key-switch ``k`` stacked coefficient-domain polynomials over
        ``basis`` in one fused pass (the public seam for batched
        relinearization-like flows)."""
        if stack.shape[0] != k * len(basis):
            raise ValueError(
                f"expected a {k * len(basis)}-row stack, got "
                f"{stack.shape[0]}")
        return self._key_switch_batch(stack, key, len(basis) - 1, k)

    def batch_rotate(self, batch: CiphertextBatch,
                     step: int) -> CiphertextBatch:
        """Rotate all ``k`` ciphertexts by one step: one wide
        automorphism gather and one ``k``-fused key switch."""
        if self._identity_step(step):
            return batch.copy()
        key = self.keys.galois.get(step)
        if key is None:
            raise ValueError(f"no Galois key for rotation step {step}")
        g = galois_element(step, self.context.n)
        return self._apply_galois_batch(batch, g, key)

    def batch_conjugate(self, batch: CiphertextBatch) -> CiphertextBatch:
        if self.keys.conjugation is None:
            raise ValueError("no conjugation key in the key chain")
        g = conjugation_element(self.context.n)
        return self._apply_galois_batch(batch, g,
                                        self.keys.conjugation)

    def _apply_galois_batch(self, batch: CiphertextBatch, galois_elt: int,
                            key: SwitchingKey) -> CiphertextBatch:
        _require_ntt("rotate/conjugate", batch.is_ntt)
        basis = batch.basis
        limbs = len(basis)
        k = batch.k
        n = batch.n
        # Only the c1 halves are gathered; the ModDown tail adds
        # sigma(c0) reading c0 through the permutation, as in
        # batch_rotate_hoisted.
        engine = stacked_engine(n, (basis,) * k, dedupe=True)
        b4 = batch.stack.reshape(k, 2, limbs, n)
        rc1 = engine.automorphism_ntt(b4[:, 1].reshape(k * limbs, n),
                                      galois_elt)
        c1_coeff = engine.inverse(rc1, assume_reduced=True)
        ks, _ = self._key_switch_batch(
            c1_coeff, key, batch.level, k, ntt_rows=rc1,
            add=np.ascontiguousarray(b4[:, 0]).reshape(k * limbs, n),
            perm=engine.automorphism_index(galois_elt))
        return CiphertextBatch(basis=basis, stack=ks,
                               scales=list(batch.scales), is_ntt=True,
                               ct_cls=batch.ct_cls)

    def batch_rotate_hoisted(self, batch: CiphertextBatch,
                             steps) -> dict[int, CiphertextBatch]:
        """Rotate ``k`` ciphertexts by many steps, decomposing every
        ``c1`` once: the ``k`` digit lifts fuse into one
        ``(k*beta*E, N)`` transform, and each step costs one ``k``-fused
        MAC of the permuted digit stack plus one ModDown — the
        sequential hoisting dataflow with the per-ciphertext loop
        folded into each kernel.  The native key MAC reads the lifted
        digits through each step's permutation, as EFFACT streams them
        through its automorphism unit, with no rotated copy written
        back (the numpy twin gathers one), and the ModDown tail adds
        ``sigma(c0)`` into ``ks0`` reading ``c0`` through the same
        permutation (:func:`mod_down_tail`), so no rotated ``c0`` is
        gathered either."""
        _require_ntt("rotate_hoisted", batch.is_ntt)
        ctx = self.context
        level = batch.level
        ext = ctx.ext_basis(level)
        beta = ctx.num_digits(level)
        basis = batch.basis
        limbs = len(basis)
        k = batch.k
        n = batch.n
        b4 = batch.stack.reshape(k, 2, limbs, n)
        c0_stack = np.ascontiguousarray(b4[:, 0]).reshape(k * limbs, n)
        c1_stack = np.ascontiguousarray(b4[:, 1]).reshape(k * limbs, n)
        base_engine = stacked_engine(n, (basis,) * k, dedupe=True)
        ext_engine = stacked_engine(n, (ext,) * (2 * k), dedupe=True)
        lifted: np.ndarray | None = None
        out: dict[int, CiphertextBatch] = {}
        for step in steps:
            if self._identity_step(step):
                out[step] = batch.copy()
                continue
            key = self.keys.galois.get(step)
            if key is None:
                raise ValueError(f"no Galois key for rotation step {step}")
            if lifted is None:
                lifted = self._lift_digits_batch(
                    base_engine.inverse(c1_stack, assume_reduced=True),
                    level, ext, beta, k, ntt_rows=c1_stack)
            g = galois_element(step, ctx.n)
            acc = self._key_mac_batch(lifted, key, level, beta, ext, k,
                                      auto=(ext_engine, g))
            ks = self._mod_down_batch_stacked(
                acc, ext, basis, k, add=c0_stack,
                perm=base_engine.automorphism_index(g))
            out[step] = CiphertextBatch(basis=basis, stack=ks,
                                        scales=list(batch.scales),
                                        is_ntt=True, ct_cls=batch.ct_cls)
        return out
