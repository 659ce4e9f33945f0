"""The seed's per-coefficient BFV/BGV implementations, kept as oracles.

These are the pre-refactor "toy" schemes: BFV over exact Python-int
coefficient lists with schoolbook negacyclic products, and BGV with an
undecomposed single-pair key switch whose ``/P`` rounding runs through
per-coefficient big-int CRT.  They never touch the batched RNS engine,
which is exactly why they stay: :mod:`repro.schemes.bfv` and
:mod:`repro.schemes.bgv` now run on the stacked
:mod:`repro.schemes.rns_core` hot path, and the differential suite
(``tests/test_rns_core_schemes.py``) uses these independent
implementations as plaintext-semantics and noise-behaviour oracles for
the port.  Test-only, like the rest of :mod:`oracles` (import it as
``oracles.toy``).  Do not optimize this module — its value is that it
shares no kernels with the code it checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nttmath.ntt import galois_element
from repro.nttmath.primes import find_ntt_primes
from repro.rns.basis import RnsBasis
from repro.rns.poly import RnsPolynomial, ntt_table


# ======================================================================
# Toy BFV (exact big-int arithmetic)
# ======================================================================
@dataclass(frozen=True)
class ToyBfvParams:
    """Functional BFV parameters (non-secure, test-sized)."""

    n: int = 2 ** 6
    t_bits: int = 17
    q_bits: int = 29
    q_count: int = 6
    sigma: float = 3.2
    seed: int = 2025


class ToyBfvContext:
    def __init__(self, params: ToyBfvParams):
        self.params = params
        n = params.n
        self.t = find_ntt_primes(params.t_bits, n, 1)[0]
        q_primes = find_ntt_primes(params.q_bits, n, params.q_count,
                                   exclude=(self.t,))
        self.q_basis = RnsBasis(q_primes)
        self.delta = self.q_basis.modulus // self.t
        self.rng = np.random.default_rng(params.seed)
        self._pack = ntt_table(n, self.t)

    @property
    def n(self) -> int:
        return self.params.n

    def encode(self, slots) -> np.ndarray:
        slots = np.asarray(slots, dtype=np.int64) % self.t
        return self._pack.inverse(slots)

    def decode(self, coeffs) -> np.ndarray:
        return self._pack.forward(np.asarray(coeffs, dtype=np.int64)
                                  % self.t)


@dataclass
class ToyBfvCiphertext:
    """Coefficient-domain integer polynomials (exact big-int lists)."""

    c0: list[int]
    c1: list[int]


@dataclass
class ToyBfvSecretKey:
    coeffs: np.ndarray


@dataclass
class ToyBfvRelinKey:
    """Base-2^w decomposed relinearization key: pairs per digit."""

    b: list[list[int]]
    a: list[list[int]]
    base_bits: int


class ToyBfvScheme:
    """Keygen, encryption and evaluation for BFV (exact arithmetic)."""

    def __init__(self, context: ToyBfvContext):
        self.ctx = context

    # ------------------------------------------------------------------
    def gen_secret(self) -> ToyBfvSecretKey:
        coeffs = self.ctx.rng.integers(-1, 2, self.ctx.n, dtype=np.int64)
        return ToyBfvSecretKey(coeffs=coeffs)

    def _uniform(self) -> list[int]:
        q = self.ctx.q_basis.modulus
        words = (q.bit_length() + 59) // 60 + 1
        out = []
        for _ in range(self.ctx.n):
            value = 0
            for _ in range(words):
                value = (value << 60) | int(
                    self.ctx.rng.integers(0, 1 << 60))
            out.append(value % q)
        return out

    def _gaussian(self) -> list[int]:
        e = np.round(self.ctx.rng.normal(0, self.ctx.params.sigma,
                                         self.ctx.n)).astype(np.int64)
        return [int(v) for v in e]

    def gen_relin(self, sk: ToyBfvSecretKey,
                  base_bits: int = 20) -> ToyBfvRelinKey:
        """RLWE encryptions of ``s^2 * 2^(w*i)`` for each digit i."""
        ctx = self.ctx
        q = ctx.q_basis.modulus
        s = [int(v) for v in sk.coeffs]
        s2 = polymul_negacyclic_reference_big(s, s, q)
        digits = (q.bit_length() + base_bits - 1) // base_bits
        b_list, a_list = [], []
        for i in range(digits):
            a = self._uniform()
            e = self._gaussian()
            a_s = polymul_negacyclic_reference_big(a, s, q)
            factor = 1 << (base_bits * i)
            b = [(-int(asj) + int(ej) + factor * s2j) % q
                 for asj, ej, s2j in zip(a_s, e, s2)]
            b_list.append(b)
            a_list.append(a)
        return ToyBfvRelinKey(b=b_list, a=a_list, base_bits=base_bits)

    # ------------------------------------------------------------------
    def encrypt(self, slots, sk: ToyBfvSecretKey) -> ToyBfvCiphertext:
        ctx = self.ctx
        q = ctx.q_basis.modulus
        m = ctx.encode(slots)
        a = self._uniform()
        e = self._gaussian()
        s = [int(v) for v in sk.coeffs]
        a_s = polymul_negacyclic_reference_big(a, s, q)
        c0 = [(-int(asj) + int(ej) + ctx.delta * int(mj)) % q
              for asj, ej, mj in zip(a_s, e, m)]
        return ToyBfvCiphertext(c0=c0, c1=a)

    def decrypt(self, ct: ToyBfvCiphertext,
                sk: ToyBfvSecretKey) -> np.ndarray:
        ctx = self.ctx
        q = ctx.q_basis.modulus
        s = [int(v) for v in sk.coeffs]
        c1_s = polymul_negacyclic_reference_big(ct.c1, s, q)
        noisy = [(c0j + int(c1sj)) % q for c0j, c1sj in zip(ct.c0, c1_s)]
        m = [((ctx.t * v + q // 2) // q) % ctx.t for v in noisy]
        return ctx.decode(np.array(m, dtype=np.int64))

    # ------------------------------------------------------------------
    def add(self, x: ToyBfvCiphertext,
            y: ToyBfvCiphertext) -> ToyBfvCiphertext:
        q = self.ctx.q_basis.modulus
        return ToyBfvCiphertext(
            c0=[(a + b) % q for a, b in zip(x.c0, y.c0)],
            c1=[(a + b) % q for a, b in zip(x.c1, y.c1)])

    def multiply(self, x: ToyBfvCiphertext, y: ToyBfvCiphertext,
                 rk: ToyBfvRelinKey) -> ToyBfvCiphertext:
        """Tensor over the integers, scale by t/Q, relinearize."""
        ctx = self.ctx
        q = ctx.q_basis.modulus
        lift = self._centered
        x0, x1 = lift(x.c0), lift(x.c1)
        y0, y1 = lift(y.c0), lift(y.c1)
        d0 = self._scale_round(self._polymul_int(x0, y0))
        d1 = self._scale_round(
            [a + b for a, b in zip(self._polymul_int(x0, y1),
                                   self._polymul_int(x1, y0))])
        d2 = self._scale_round(self._polymul_int(x1, y1))
        ks0, ks1 = self._relin_apply(d2, rk)
        return ToyBfvCiphertext(
            c0=[(a + b) % q for a, b in zip(d0, ks0)],
            c1=[(a + b) % q for a, b in zip(d1, ks1)])

    # ------------------------------------------------------------------
    def _centered(self, coeffs: list[int]) -> list[int]:
        q = self.ctx.q_basis.modulus
        return [c - q if c > q // 2 else c for c in coeffs]

    def _polymul_int(self, a: list[int], b: list[int]) -> list[int]:
        """Exact negacyclic product over the integers."""
        n = self.ctx.n
        out = [0] * n
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                k = i + j
                term = ai * bj
                if k < n:
                    out[k] += term
                else:
                    out[k - n] -= term
        return out

    def _scale_round(self, coeffs: list[int]) -> list[int]:
        """round(t * c / Q) mod Q, the BFV invariant scaling."""
        ctx = self.ctx
        q = ctx.q_basis.modulus
        t = ctx.t
        out = []
        for c in coeffs:
            scaled = (2 * t * c + q) // (2 * q)   # round-half-up
            out.append(scaled % q)
        return out

    def _relin_apply(self, d2: list[int], rk: ToyBfvRelinKey):
        """Base-2^w digit decomposition MAC against the relin key."""
        ctx = self.ctx
        q = ctx.q_basis.modulus
        w = rk.base_bits
        digits = len(rk.b)
        mask = (1 << w) - 1
        ks0 = [0] * ctx.n
        ks1 = [0] * ctx.n
        remaining = [c % q for c in d2]
        for i in range(digits):
            digit = [c & mask for c in remaining]
            remaining = [c >> w for c in remaining]
            t0 = polymul_negacyclic_reference_big(digit, rk.b[i], q)
            t1 = polymul_negacyclic_reference_big(digit, rk.a[i], q)
            ks0 = [(a + b) % q for a, b in zip(ks0, t0)]
            ks1 = [(a + b) % q for a, b in zip(ks1, t1)]
        return ks0, ks1


def polymul_negacyclic_reference_big(a: list[int], b: list[int],
                                     q: int) -> list[int]:
    """Schoolbook negacyclic product with Python-int (big) coefficients."""
    n = len(a)
    out = [0] * n
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            k = i + j
            term = ai * bj
            if k < n:
                out[k] = (out[k] + term) % q
            else:
                out[k - n] = (out[k - n] - term) % q
    return out


# ======================================================================
# Toy BGV (single-pair key switch, per-coefficient /P rounding)
# ======================================================================
@dataclass(frozen=True)
class ToyBgvParams:
    """Functional BGV parameters (non-secure, test-sized)."""

    n: int = 2 ** 6
    t_bits: int = 17          # plaintext modulus bits (t = 1 mod 2n)
    t: int | None = None      # explicit plaintext modulus (overrides bits)
    q_bits: int = 28
    q_count: int = 10
    p_extra: int = 2          # P gets q_count + p_extra primes
    sigma: float = 3.2
    seed: int = 2025

    def __post_init__(self):
        if self.n & (self.n - 1):
            raise ValueError("n must be a power of two")


class ToyBgvContext:
    """Parameters, bases and the slot-packing NTT for toy BGV."""

    def __init__(self, params: ToyBgvParams):
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
        p_primes = find_ntt_primes(params.q_bits + 1, n,
                                   params.q_count + params.p_extra,
                                   exclude=(self.t,) + tuple(q_primes))
        self.q_basis = RnsBasis(q_primes)
        self.p_basis = RnsBasis(p_primes)
        self.qp_basis = self.q_basis.extend(self.p_basis)
        self.rng = np.random.default_rng(params.seed)
        self._pack = ntt_table(n, self.t)

    @property
    def n(self) -> int:
        return self.params.n

    def encode(self, slots) -> np.ndarray:
        slots = np.asarray(slots, dtype=np.int64) % self.t
        if slots.shape != (self.n,):
            raise ValueError(f"expected {self.n} slots")
        return self._pack.inverse(slots)

    def decode(self, coeffs: np.ndarray) -> np.ndarray:
        return self._pack.forward(np.asarray(coeffs, dtype=np.int64)
                                  % self.t)


@dataclass
class ToyBgvCiphertext:
    c0: RnsPolynomial
    c1: RnsPolynomial
    #: Accumulated plaintext factor mod t (see repro.schemes.bgv).
    scale_t: int = 1

    @property
    def basis(self) -> RnsBasis:
        return self.c0.basis

    @property
    def level(self) -> int:
        return len(self.c0.basis) - 1


@dataclass
class ToyBgvSecretKey:
    coeffs: np.ndarray

    def poly_ntt(self, basis: RnsBasis) -> RnsPolynomial:
        return RnsPolynomial.from_small_coeffs(basis, self.coeffs).to_ntt()


@dataclass
class ToyBgvRelinKey:
    b: RnsPolynomial   # -a*s + t*e + P*s^2 over QP (NTT)
    a: RnsPolynomial


@dataclass
class ToyBgvGaloisKey:
    b: RnsPolynomial   # -a*s + t*e + P*sigma(s) over QP (NTT)
    a: RnsPolynomial
    galois_elt: int


class ToyBgvScheme:
    """Keygen, encryption and homomorphic evaluation for toy BGV."""

    def __init__(self, context: ToyBgvContext):
        self.ctx = context

    # ------------------------------------------------------------------
    def gen_secret(self) -> ToyBgvSecretKey:
        ctx = self.ctx
        poly = RnsPolynomial.random_ternary(ctx.q_basis, ctx.n, ctx.rng)
        coeffs = np.array(poly.to_int_coeffs(signed=True), dtype=np.int64)
        return ToyBgvSecretKey(coeffs=coeffs)

    def _noise(self, basis: RnsBasis) -> RnsPolynomial:
        """t * e with e discrete Gaussian (BGV places noise at t*e)."""
        ctx = self.ctx
        e = RnsPolynomial.random_gaussian(basis, ctx.n, ctx.rng,
                                          ctx.params.sigma)
        return e.mul_scalar(ctx.t)

    def gen_relin(self, sk: ToyBgvSecretKey) -> ToyBgvRelinKey:
        ctx = self.ctx
        basis = ctx.qp_basis
        s = sk.poly_ntt(basis)
        a = RnsPolynomial.random_uniform(basis, ctx.n, ctx.rng).to_ntt()
        b = (-(a.pointwise_mul(s)) + self._noise(basis).to_ntt()
             + s.pointwise_mul(s).mul_scalar(ctx.p_basis.modulus))
        return ToyBgvRelinKey(b=b, a=a)

    def gen_galois(self, step: int,
                   sk: ToyBgvSecretKey) -> ToyBgvGaloisKey:
        ctx = self.ctx
        basis = ctx.qp_basis
        g = galois_element(step, ctx.n)
        s = sk.poly_ntt(basis)
        target = RnsPolynomial.from_small_coeffs(
            basis, sk.coeffs).apply_automorphism(g).to_ntt()
        a = RnsPolynomial.random_uniform(basis, ctx.n, ctx.rng).to_ntt()
        b = (-(a.pointwise_mul(s)) + self._noise(basis).to_ntt()
             + target.mul_scalar(ctx.p_basis.modulus))
        return ToyBgvGaloisKey(b=b, a=a, galois_elt=g)

    # ------------------------------------------------------------------
    def encrypt(self, slots, sk: ToyBgvSecretKey) -> ToyBgvCiphertext:
        ctx = self.ctx
        basis = ctx.q_basis
        m = RnsPolynomial.from_small_coeffs(basis,
                                            ctx.encode(slots)).to_ntt()
        a = RnsPolynomial.random_uniform(basis, ctx.n, ctx.rng).to_ntt()
        s = sk.poly_ntt(basis)
        c0 = -(a.pointwise_mul(s)) + self._noise(basis).to_ntt() + m
        return ToyBgvCiphertext(c0=c0, c1=a)

    def decrypt(self, ct: ToyBgvCiphertext,
                sk: ToyBgvSecretKey) -> np.ndarray:
        s = sk.poly_ntt(ct.basis)
        m = ct.c0 + ct.c1.pointwise_mul(s)
        coeffs = m.to_int_coeffs(signed=True)
        correction = pow(ct.scale_t, -1, self.ctx.t)
        reduced = np.array([c * correction % self.ctx.t for c in coeffs],
                           dtype=np.int64)
        return self.ctx.decode(reduced)

    def noise_budget_bits(self, ct: ToyBgvCiphertext,
                          sk: ToyBgvSecretKey) -> int:
        """log2(Q / (2 * |noise|)): bits of multiplicative headroom."""
        s = sk.poly_ntt(ct.basis)
        m = ct.c0 + ct.c1.pointwise_mul(s)
        coeffs = m.to_int_coeffs(signed=True)
        worst = max((abs(c) for c in coeffs), default=1)
        budget = ct.basis.modulus // (2 * max(worst, 1))
        return max(0, budget.bit_length() - 1)

    # ------------------------------------------------------------------
    def add(self, x: ToyBgvCiphertext,
            y: ToyBgvCiphertext) -> ToyBgvCiphertext:
        return ToyBgvCiphertext(c0=x.c0 + y.c0, c1=x.c1 + y.c1,
                                scale_t=x.scale_t)

    def add_plain(self, ct: ToyBgvCiphertext, slots) -> ToyBgvCiphertext:
        m = RnsPolynomial.from_small_coeffs(
            ct.basis, self.ctx.encode(slots)).to_ntt()
        if ct.scale_t != 1:
            m = m.mul_scalar(ct.scale_t)
        return ToyBgvCiphertext(c0=ct.c0 + m, c1=ct.c1.copy(),
                                scale_t=ct.scale_t)

    def mul_plain(self, ct: ToyBgvCiphertext, slots) -> ToyBgvCiphertext:
        m = RnsPolynomial.from_small_coeffs(
            ct.basis, self.ctx.encode(slots)).to_ntt()
        return ToyBgvCiphertext(c0=ct.c0.pointwise_mul(m),
                                c1=ct.c1.pointwise_mul(m),
                                scale_t=ct.scale_t)

    def multiply(self, x: ToyBgvCiphertext, y: ToyBgvCiphertext,
                 rk: ToyBgvRelinKey) -> ToyBgvCiphertext:
        """Tensor product then relinearization."""
        if x.basis != y.basis:
            raise ValueError("operand bases differ")
        d0 = x.c0.pointwise_mul(y.c0)
        d1 = x.c0.pointwise_mul(y.c1) + x.c1.pointwise_mul(y.c0)
        d2 = x.c1.pointwise_mul(y.c1)
        ks0, ks1 = self._key_switch(d2, rk.b, rk.a)
        return ToyBgvCiphertext(c0=d0 + ks0, c1=d1 + ks1,
                                scale_t=x.scale_t * y.scale_t % self.ctx.t)

    def mod_switch(self, ct: ToyBgvCiphertext, times: int = 1
                   ) -> ToyBgvCiphertext:
        """BGV modulus switching with per-coefficient big-int lifts."""
        t = self.ctx.t
        c0, c1 = ct.c0, ct.c1
        factor = ct.scale_t
        for _ in range(times):
            if len(c0.basis) < 2:
                raise ValueError("no limbs left to switch away")
            q_last = c0.basis.primes[-1]
            c0 = _toy_bgv_drop_limb(c0, t)
            c1 = _toy_bgv_drop_limb(c1, t)
            factor = factor * pow(q_last, -1, t) % t
        return ToyBgvCiphertext(c0=c0, c1=c1, scale_t=factor)

    # ------------------------------------------------------------------
    def _key_switch(self, d2: RnsPolynomial, kb: RnsPolynomial,
                    ka: RnsPolynomial):
        """Undecomposed key switch with t-divisible rounding."""
        ctx = self.ctx
        from repro.rns.bconv import mod_up

        basis = d2.basis
        ext = basis.extend(ctx.p_basis)
        lifted = mod_up(d2.to_coeff(), ext).to_ntt()
        w0 = lifted.pointwise_mul(self._restrict(kb, basis))
        w1 = lifted.pointwise_mul(self._restrict(ka, basis))
        return self._div_p(w0, basis), self._div_p(w1, basis)

    def _restrict(self, key_poly: RnsPolynomial,
                  q_basis: RnsBasis) -> RnsPolynomial:
        """Key rows for the current Q prefix plus all P limbs."""
        lq_full = len(self.ctx.q_basis)
        rows = np.concatenate([key_poly.data[:len(q_basis)],
                               key_poly.data[lq_full:]])
        return RnsPolynomial(q_basis.extend(self.ctx.p_basis), rows,
                             is_ntt=key_poly.is_ntt)

    def _div_p(self, w: RnsPolynomial,
               q_basis: RnsBasis | None = None) -> RnsPolynomial:
        """(w - delta)/P over Q, with delta = [w]_P lifted to 0 mod t."""
        ctx = self.ctx
        if q_basis is None:
            q_basis = ctx.q_basis
        lq = len(q_basis)
        w = w.to_coeff()
        p_part = RnsPolynomial(ctx.p_basis, w.data[lq:].copy(),
                               is_ntt=False)
        # Centered delta as exact integers (n is small for toy runs).
        delta = p_part.to_int_coeffs(signed=True)
        big_p = ctx.p_basis.modulus
        t = ctx.t
        p_inv_t = pow(big_p % t, -1, t)
        adjusted = []
        for d in delta:
            k = (-d * p_inv_t) % t
            if k > t // 2:
                k -= t
            adjusted.append(d + big_p * k)
        out = np.empty((lq, ctx.n), dtype=np.int64)
        for j, q in enumerate(q_basis.primes):
            inv = pow(big_p % q, -1, q)
            dmod = np.array([d % q for d in adjusted], dtype=np.int64)
            out[j] = (w.data[j] - dmod) % q * inv % q
        return RnsPolynomial(q_basis, out, is_ntt=False).to_ntt()


def _toy_bgv_drop_limb(poly: RnsPolynomial, t: int) -> RnsPolynomial:
    """One BGV modulus switch: ``(c - delta)/q_last`` with the
    correction ``delta = [c]_q_last`` lifted to a multiple of ``t``."""
    coeff = poly.to_coeff()
    q_last = coeff.basis.primes[-1]
    last = coeff.data[-1]
    centred = np.where(last > q_last // 2, last - q_last, last)
    q_inv_t = pow(q_last, -1, t)
    k = (-centred * q_inv_t) % t
    k = np.where(k > t // 2, k - t, k)
    new_basis = coeff.basis.prefix(len(coeff.basis) - 1)
    out = np.empty((len(new_basis), coeff.n), dtype=np.int64)
    for j, q in enumerate(new_basis.primes):
        inv = pow(q_last % q, -1, q)
        delta = (centred + q_last * k) % q
        out[j] = (coeff.data[j] - delta) % q * inv % q
    return RnsPolynomial(new_basis, out, is_ntt=False).to_ntt()
