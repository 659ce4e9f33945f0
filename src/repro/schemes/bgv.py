"""BGV: exact integer FHE over ``Z_t`` slots, on the stacked RNS core.

EFFACT supports BGV through the same residue-polynomial ISA (paper
section VI-D evaluates HElib's DB-lookup on BGV).  This module builds
BGV directly on :class:`repro.schemes.rns_core.RnsEvaluatorBase`, so
multiplication, rotations and hoisting ride the same batch kernels the
CKKS evaluator uses (a single ciphertext is a ``k = 1`` batch): stacked
digit lifts, Shoup key MACs and wide BConv, with two BGV-specific
twists:

* **keys carry ``t*e`` noise** (:class:`BgvKeyGenerator`), and the
  hybrid key-switch ModDown is overridden with the *exact*
  ``t``-corrected variant: the ``[acc]_P`` remainder is lifted to a
  multiple of ``t`` (``delta = cmod([acc]_P) + P*lambda`` with
  ``lambda = -cmod*P^-1 mod t``) using one exact centred BConv
  ``P -> Q ∪ {t}`` of :mod:`repro.rns.bconv` (the native
  ``bconv_exact`` when the library loaded, numpy otherwise) and the
  shared ModDown tail, so key switching never perturbs the plaintext
  mod ``t``;
* **modulus switching** reuses the shared NTT-domain last-limb kernel
  (:func:`~repro.schemes.rns_core.switch_down_ntt`) with the same
  ``t``-multiple correction, tracking the accumulated plaintext factor
  ``q^-1 mod t`` on the ciphertext.

``BgvScheme(ctx, stacked=False)`` evaluates with the per-polynomial
reference (:class:`~repro.schemes.reference.ReferenceBgvEvaluator`);
both are bitwise identical (``tests/test_rns_core_schemes.py``).  The
seed's undecomposed big-int implementation survives in the test suite
as ``tests/oracles/toy.py`` — the independent correctness/noise oracle
the port was validated against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..nttmath.ntt import galois_element
from ..nttmath.primes import find_ntt_primes
from ..obs import TRACER
from ..rns.basis import RnsBasis
from ..rns.bconv import (
    _shoup_kernel,
    base_convert_centered_stack,
    base_convert_exact,
    reduce_mod_col,
)
from ..rns.poly import RnsPolynomial, ntt_table, stacked_engine
from .rns_core import (
    Ciphertext,
    CiphertextBatch,
    KeyChain,
    Plaintext,
    RnsContext,
    RnsEvaluatorBase,
    RnsKeyGenerator,
    SecretKey,
    SwitchingKey,
    _as_batch,
    _require_ntt,
    mod_down_tail,
    switch_down_ntt,
)

__all__ = [
    "BgvCiphertext",
    "BgvContext",
    "BgvEvaluator",
    "BgvGaloisKey",
    "BgvKeyGenerator",
    "BgvParams",
    "BgvScheme",
    "BgvSecretKey",
    "centered_mod_t",
]

#: BGV secrets are the shared ternary secrets of the RNS core.
BgvSecretKey = SecretKey


@dataclass(frozen=True)
class BgvParams:
    """Functional BGV parameters (non-secure, test-sized)."""

    n: int = 2 ** 6
    t_bits: int = 17          # plaintext modulus bits (t = 1 mod 2n)
    t: int | None = None      # explicit plaintext modulus (overrides bits)
    q_bits: int = 28
    q_count: int = 10
    dnum: int = 4
    p_extra: int = 2          # P gets alpha + p_extra primes
    sigma: float = 3.2
    seed: int = 2025

    def __post_init__(self):
        if self.n & (self.n - 1):
            raise ValueError("n must be a power of two")

    @property
    def alpha(self) -> int:
        """Primes per key-switching digit: ceil(q_count/dnum)."""
        return math.ceil(self.q_count / self.dnum)

    @property
    def slots(self) -> int:
        """BGV packs one Z_t value per coefficient slot."""
        return self.n


class BgvContext(RnsContext):
    """Parameters, bases and the slot-packing NTT for BGV."""

    def __init__(self, params: BgvParams):
        self.params = params
        n = params.n
        if params.t is not None:
            if (params.t - 1) % (2 * n) != 0:
                raise ValueError("t must be = 1 mod 2n for slot packing")
            self.t = params.t
        else:
            self.t = find_ntt_primes(params.t_bits, n, 1)[0]
        q_primes = find_ntt_primes(params.q_bits, n, params.q_count,
                                   exclude=(self.t,))
        self.q_full = RnsBasis(q_primes)
        p_primes = find_ntt_primes(params.q_bits + 1, n,
                                   params.alpha + params.p_extra,
                                   exclude=(self.t,) + tuple(q_primes))
        self.p_basis = RnsBasis(p_primes)
        self.key_basis = self.q_full.extend(self.p_basis)
        self.t_basis = RnsBasis((self.t,))
        self.p_inv_t = pow(self.p_basis.modulus % self.t, -1, self.t)
        #: Per-level ``Q_l + t`` target bases so the ModDown correction
        #: lands both the mod-Q and mod-t centred residues in a single
        #: exact BConv pass (cached: levels are few and reused).
        self._qt_bases: dict[int, RnsBasis] = {}
        self.rng = np.random.default_rng(params.seed)
        self._pack = ntt_table(n, self.t)

    # ------------------------------------------------------------------
    # SIMD packing: slot values in Z_t <-> plaintext polynomial
    # ------------------------------------------------------------------
    def encode(self, slots) -> np.ndarray:
        """Vector of n values in Z_t -> plaintext coefficients."""
        slots = np.asarray(slots, dtype=np.int64) % self.t
        if slots.shape != (self.n,):
            raise ValueError(f"expected {self.n} slots")
        return self._pack.inverse(slots)

    def decode(self, coeffs: np.ndarray) -> np.ndarray:
        """Plaintext coefficients -> slot values in Z_t."""
        return self._pack.forward(np.asarray(coeffs, dtype=np.int64)
                                  % self.t)

    def qt_basis(self, q_basis: RnsBasis) -> RnsBasis:
        """``q_basis`` extended by ``t`` (one conversion target for the
        ModDown correction's mod-Q and mod-t residues)."""
        basis = self._qt_bases.get(len(q_basis))
        if basis is None:
            basis = RnsBasis(q_basis.primes + (self.t,))
            self._qt_bases[len(q_basis)] = basis
        return basis


class BgvCiphertext(Ciphertext):
    """A BGV ciphertext: the shared stacked pair plus the accumulated
    plaintext factor mod ``t`` (modulus switching by ``q`` multiplies
    the underlying plaintext by ``q^-1 mod t``, which decrypt undoes).
    The factor rides in :attr:`scale` as an exact small float-integer;
    ciphertexts must share a factor before addition."""

    @property
    def scale_t(self) -> int:
        return int(self.scale)


@dataclass
class BgvGaloisKey:
    """A rotation key bound to its Galois element, so ``rotate`` can
    reject a key/step mismatch."""

    key: SwitchingKey
    galois_elt: int


def centered_mod_t(poly: RnsPolynomial, t: int) -> np.ndarray:
    """Centred coefficients of ``poly`` reduced into ``[0, t)``.

    The overflow-safe replacement for composing per-coefficient CRT
    big-ints and multiplying before reduction: an exact centred BConv
    into the single-prime basis ``{t}`` keeps every intermediate below
    ``2^62`` (``(t-1) * correction`` products included, since both
    factors are already reduced mod ``t < 2^31``).  The naive
    ``coeffs * correction % t`` over int64 centred coefficients wraps
    silently once ``|c| * correction >= 2^63`` — the regression test in
    ``tests/test_bgv.py`` pins this.
    """
    if poly.is_ntt:
        raise ValueError("centered_mod_t expects coefficient-domain data")
    return base_convert_exact(poly, RnsBasis((t,))).data[0]


class BgvKeyGenerator(RnsKeyGenerator):
    """Gadget keys with ``t*e`` noise, so key-switch noise stays a
    multiple of ``t`` and exactness survives relinearization."""

    def _noise_poly(self, basis: RnsBasis) -> RnsPolynomial:
        ctx = self.context
        e = RnsPolynomial.random_gaussian(basis, ctx.n, ctx.rng,
                                          ctx.params.sigma)
        return e.mul_scalar(ctx.t).to_ntt()


class BgvEvaluator(RnsEvaluatorBase):
    """BGV evaluation: base-class ops with the exact ``t``-corrected
    ModDown and modulus switching."""

    context: BgvContext

    # -- scale/level semantics -----------------------------------------
    def _align(self, x: Ciphertext, y: Ciphertext):
        if x.basis != y.basis:
            raise ValueError("operand bases differ; mod-switch both "
                             "operands identically first")
        return x, y

    def _check_scales(self, a: float, b: float) -> None:
        if a != b:
            raise ValueError("plaintext factors differ; mod-switch both "
                             "operands identically before adding")

    # -- exact t-corrected ModDown -------------------------------------
    def _moddown_delta(self, p_rows: np.ndarray, q_basis: RnsBasis,
                       k: int) -> np.ndarray:
        """``delta`` rows mod Q for the exact BGV ModDown.

        ``p_rows`` holds ``[acc]_P`` of ``k`` polynomials (a ct-major
        coefficient-domain ``(k*L_P, N)`` stack); the result is the
        ``(k*L_Q, N)`` stack of ``delta = cmod([acc]_P) + P*lambda``
        with ``lambda = [-cmod * P^-1]_t`` centred, so ``delta ≡ acc
        mod P`` and ``delta ≡ 0 mod t`` — the division by ``P`` then
        leaves the plaintext untouched.  ``cmod`` comes from one exact
        centred conversion ``P -> Q ∪ {t}`` of all ``k`` polynomials
        (the native ``bconv_exact`` when it runs, see
        :func:`~repro.rns.bconv.base_convert_centered_stack`); the
        ``lambda`` glue runs on a ``(k, L_Q + 1, N)`` view, so nothing
        is transposed.  No big-int CRT, no int64 overflow (``P mod q *
        lambda`` stays below ``2^62``).
        """
        ctx = self.context
        t = ctx.t
        lq = len(q_basis)
        cen = base_convert_centered_stack(p_rows, ctx.p_basis,
                                          ctx.qt_basis(q_basis), k)
        cen3 = cen.reshape(k, lq + 1, -1)
        cen_q, cen_t = cen3[:, :-1], cen3[:, -1:]
        lam = (t - cen_t) % t * ctx.p_inv_t % t
        lam = np.where(lam > t // 2, lam - t, lam)
        p_mod_q = reduce_mod_col(ctx.p_basis.modulus, q_basis.primes)
        return ((cen_q + p_mod_q * lam) % q_basis.q_col).reshape(
            k * lq, -1)

    def _mod_down_batch_stacked(self, acc: np.ndarray, ext: RnsBasis,
                                q_basis: RnsBasis, k: int, *,
                                add: np.ndarray | None = None,
                                perm: np.ndarray | None = None
                                ) -> np.ndarray:
        """NTT-domain ModDown of ``k`` accumulator pairs with the
        ``t``-multiple correction (overrides the fast-BConv CKKS/BFV
        version; same dataflow, exact arithmetic, and the same
        :func:`~repro.schemes.rns_core.mod_down_tail`, which adds
        ``add`` through ``perm`` into each ``ks0``).  Traced as one
        ``ks.moddown`` span, like the base class, whose ``impl`` is
        ``"c"`` when the delta's exact conversion (and with it the
        tail) runs natively."""
        ctx = self.context
        n = ctx.n
        p_basis = ctx.p_basis
        l1 = len(q_basis)
        ext_limbs = len(ext)
        impl = ("numpy" if _shoup_kernel(p_basis, ctx.qt_basis(q_basis))
                is None else "c")
        with TRACER.span("ks.moddown", k=k, impl=impl):
            a4 = acc.reshape(k, 2, ext_limbs, n)
            acc_p = np.ascontiguousarray(a4[:, :, l1:, :]).reshape(
                2 * k * (ext_limbs - l1), n)
            coeff_p = stacked_engine(n, (p_basis,) * (2 * k),
                                     dedupe=True).inverse(
                acc_p, assume_reduced=True)
            corr = self._moddown_delta(coeff_p, q_basis, 2 * k)
            corr_ntt = stacked_engine(n, (q_basis,) * (2 * k),
                                      dedupe=True).forward(
                corr, assume_reduced=True)
            return mod_down_tail(acc, corr_ntt, q_basis, p_basis.modulus,
                                 2 * k, add=add, perm=perm)

    # -- multiplication -------------------------------------------------
    def _mul_scale(self, sx: float, sy: float) -> float:
        """Product scale: the plaintext factors multiply mod ``t`` in
        exact integer arithmetic (the float product of two 31-bit
        factors would round past 2^53)."""
        return float(int(sx) * int(sy) % self.context.t)

    # -- modulus switching ----------------------------------------------
    def _switch_delta(self, q_last: int):
        """Correction hook for the shared last-limb kernel: lift the
        centred dropped limb to a multiple of ``t``."""
        t = self.context.t
        q_inv_t = pow(q_last % t, -1, t)

        def delta_fn(centred: np.ndarray) -> np.ndarray:
            k = (-centred * q_inv_t) % t
            k = np.where(k > t // 2, k - t, k)
            return centred + q_last * k

        return delta_fn

    def mod_switch(self, ct: Ciphertext, times: int = 1) -> Ciphertext:
        """BGV modulus switching: divide by the last chain prime(s)
        while keeping the plaintext mod t intact (up to the tracked
        q^-1 factor) and shrinking the noise by ~q each time.  Runs
        :meth:`batch_mod_switch` at ``k = 1``."""
        return self.batch_mod_switch(_as_batch(ct), times=times).split()[0]

    def batch_mod_switch(self, batch: CiphertextBatch,
                         times: int = 1) -> CiphertextBatch:
        """Modulus-switch ``k`` fused ciphertexts at once: the shared
        last-limb kernel runs on all ``2k`` halves per step, with the
        per-ciphertext ``q^-1`` factors tracked exactly mod ``t``."""
        _require_ntt("mod_switch", batch.is_ntt)
        t = self.context.t
        factors = [int(s) for s in batch.scales]
        stack = batch.stack
        basis = batch.basis
        for _ in range(times):
            if len(basis) < 2:
                raise ValueError("no limbs left to switch away")
            q_last = basis.primes[-1]
            stack, basis = switch_down_ntt(
                stack, basis, 2 * batch.k,
                delta_fn=self._switch_delta(q_last))
            inv = pow(q_last, -1, t)
            factors = [f * inv % t for f in factors]
        return CiphertextBatch(basis=basis, stack=stack,
                               scales=[float(f) for f in factors],
                               is_ntt=True, ct_cls=batch.ct_cls)


class BgvScheme:
    """Keygen, encryption and homomorphic evaluation for BGV."""

    def __init__(self, context: BgvContext, *, stacked: bool = True):
        self.ctx = context
        self.ev = BgvEvaluator(context, KeyChain(), stacked=stacked)
        self.keygen = BgvKeyGenerator(context)

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    def gen_secret(self) -> SecretKey:
        return self.keygen.gen_secret()

    def gen_relin(self, sk: SecretKey) -> SwitchingKey:
        key = self.keygen.gen_relin(sk)
        self.ev.keys.relin = key
        return key

    def gen_galois(self, step: int, sk: SecretKey) -> BgvGaloisKey:
        key = self.keygen.gen_galois(step, sk)
        return BgvGaloisKey(key=key,
                            galois_elt=galois_element(step, self.ctx.n))

    # ------------------------------------------------------------------
    # Encrypt / decrypt (symmetric, sufficient for the workloads)
    # ------------------------------------------------------------------
    def _noise(self, basis: RnsBasis) -> RnsPolynomial:
        """t * e with e discrete Gaussian (BGV places noise at t*e)."""
        ctx = self.ctx
        e = RnsPolynomial.random_gaussian(basis, ctx.n, ctx.rng,
                                          ctx.params.sigma)
        return e.mul_scalar(ctx.t)

    def encrypt(self, slots, sk: SecretKey) -> BgvCiphertext:
        ctx = self.ctx
        basis = ctx.q_full
        m = RnsPolynomial.from_small_coeffs(basis,
                                            ctx.encode(slots)).to_ntt()
        a = RnsPolynomial.random_uniform(basis, ctx.n, ctx.rng).to_ntt()
        s = sk.poly_ntt(basis)
        c0 = -(a.pointwise_mul(s)) + self._noise(basis).to_ntt() + m
        return BgvCiphertext(c0=c0, c1=a, scale=1.0)

    def decrypt(self, ct: BgvCiphertext, sk: SecretKey) -> np.ndarray:
        ctx = self.ctx
        t = ctx.t
        s = sk.poly_ntt(ct.basis)
        m = (ct.c0 + ct.c1.pointwise_mul(s)).to_coeff()
        residues = centered_mod_t(m, t)
        correction = pow(int(ct.scale), -1, t)
        return ctx.decode(residues * correction % t)

    def noise_budget_bits(self, ct: BgvCiphertext,
                          sk: SecretKey) -> int:
        """log2(Q / (2 * |noise|)): bits of multiplicative headroom."""
        s = sk.poly_ntt(ct.basis)
        m = ct.c0 + ct.c1.pointwise_mul(s)
        coeffs = m.to_int_coeffs(signed=True)
        worst = max((abs(c) for c in coeffs), default=1)
        budget = ct.basis.modulus // (2 * max(worst, 1))
        return max(0, budget.bit_length() - 1)

    # ------------------------------------------------------------------
    # Homomorphic operations
    # ------------------------------------------------------------------
    def add(self, x: BgvCiphertext, y: BgvCiphertext) -> BgvCiphertext:
        return self.ev.add(x, y)

    def sub(self, x: BgvCiphertext, y: BgvCiphertext) -> BgvCiphertext:
        return self.ev.sub(x, y)

    def add_plain(self, ct: BgvCiphertext, slots) -> BgvCiphertext:
        m = RnsPolynomial.from_small_coeffs(
            ct.basis, self.ctx.encode(slots)).to_ntt()
        if ct.scale_t != 1:
            m = m.mul_scalar(ct.scale_t)
        return self.ev.add_plain(ct, Plaintext(poly=m, scale=ct.scale))

    def mul_plain(self, ct: BgvCiphertext, slots) -> BgvCiphertext:
        m = RnsPolynomial.from_small_coeffs(
            ct.basis, self.ctx.encode(slots)).to_ntt()
        return self.ev.multiply_plain(ct, Plaintext(poly=m, scale=1.0))

    def multiply(self, x: BgvCiphertext, y: BgvCiphertext,
                 rk: SwitchingKey | None = None) -> BgvCiphertext:
        """Multiply; an explicit ``rk`` relinearizes this call only
        (the evaluator's key chain is never written)."""
        return self.ev.multiply(x, y, key=rk)

    def rotate(self, ct: BgvCiphertext, step: int,
               gk: BgvGaloisKey) -> BgvCiphertext:
        """Rotate slot contents by ``step`` positions."""
        g = galois_element(step, self.ctx.n)
        if g != gk.galois_elt:
            raise ValueError("Galois key does not match rotation step")
        return self.ev._apply_galois(ct, g, gk.key)

    def mod_switch(self, ct: BgvCiphertext, times: int = 1
                   ) -> BgvCiphertext:
        return self.ev.mod_switch(ct, times=times)
