"""BFV: scale-invariant exact integer FHE on the stacked RNS core.

The third scheme of EFFACT's generality claim (paper abstract and
section VI-D).  BFV encodes the plaintext at ``Delta = floor(Q/t)``;
its multiplication lifts both operand pairs to an extended basis
``Q + R`` (``R > n*t*Q`` so the integer tensor is representable),
tensors in the NTT domain, and rescales by ``t/Q`` with exact
round-to-nearest — all as residue-level kernels:

* the centred lift runs on the exact/centred BConv of
  :mod:`repro.rns.bconv` (``base_convert_centered_stack`` — one call
  for all four operand polynomials, the native ``bconv_exact`` when the
  library loaded), and the ``round(t*d/Q)`` rescale of all three tensor
  components is one call of the fused native ``bfv_scale_round``
  (``u = t*d``, exact ``Q -> R``, ``(u_R - cmod)*Q^-1``, exact ``R ->
  Q`` per column block), with :func:`_scale_round_numpy` as its numpy
  twin and fallback;
* relinearization is the shared hybrid key switch of
  :class:`repro.schemes.rns_core.RnsEvaluatorBase` at ``k = 1`` (digit
  lift through one ``(beta*E, N)`` NTT, digit-stacked Shoup key MACs,
  NTT-domain ModDown), unchanged from CKKS — BFV tolerates the
  fast-BConv ModDown overshoot as additive noise;
* additions, plaintext ops and rotations come from the base class.

``BfvScheme(ctx, stacked=False)`` evaluates with the per-polynomial
reference (:class:`~repro.schemes.reference.ReferenceBfvEvaluator`);
both are bitwise identical (``tests/test_rns_core_schemes.py``), and
both run the native exact kernels when they run, so
``tests/test_native_exact.py`` pins those against their numpy twins
directly.  Multiplication takes operands on ``ctx.q_full`` only and
names that basis otherwise.  The seed's big-int schoolbook
implementation survives in the test suite as ``tests/oracles/toy.py``
— the independent correctness oracle the port was validated against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..nttmath.batched import (
    require_canonical,
    require_shoup_bound,
    shoup_companion,
    verify_inputs,
)
from ..nttmath.primes import find_ntt_primes
from ..obs import TRACER
from ..rns.basis import RnsBasis
from ..rns.bconv import (
    _WEIGHT_CACHE,
    _conv_table,
    _lru,
    _shoup_kernel,
    _stack_to_wide,
    _wide_to_stack,
    base_convert_centered_stack,
    inverse_mod_col,
    reduce_mod_col,
)
from ..rns.poly import RnsPolynomial, ntt_table, stacked_engine
from .rns_core import (
    Ciphertext,
    KeyChain,
    RnsContext,
    RnsEvaluatorBase,
    RnsKeyGenerator,
    SecretKey,
    SwitchingKey,
    _require_ntt,
)

__all__ = [
    "BfvCiphertext",
    "BfvContext",
    "BfvEvaluator",
    "BfvParams",
    "BfvScheme",
]

#: BFV ciphertexts are plain stacked pairs; ``scale`` stays at 1.
BfvCiphertext = Ciphertext


@dataclass(frozen=True)
class BfvParams:
    """Functional BFV parameters (non-secure, test-sized)."""

    n: int = 2 ** 6
    t_bits: int = 17
    t: int | None = None      # explicit plaintext modulus (overrides bits)
    q_bits: int = 29
    q_count: int = 6
    dnum: int = 2
    sigma: float = 3.2
    seed: int = 2025

    def __post_init__(self):
        if self.n & (self.n - 1):
            raise ValueError("n must be a power of two")
        if self.q_bits > 30:
            raise ValueError("functional parameters require <= 31-bit "
                             "primes (q_bits + 1 for P/R)")

    @property
    def alpha(self) -> int:
        """Primes per key-switching digit: ceil(q_count/dnum)."""
        return math.ceil(self.q_count / self.dnum)

    @property
    def slots(self) -> int:
        """BFV packs one Z_t value per coefficient slot."""
        return self.n


class BfvContext(RnsContext):
    """Parameters, bases and the slot-packing NTT for BFV.

    Three prime chains hang off the plaintext modulus ``t``:

    * ``Q`` (``q_count`` primes) — the ciphertext modulus;
    * ``P`` (``alpha`` primes, each > any digit product) — the hybrid
      key-switching special modulus, exactly as in CKKS;
    * ``R`` (sized so ``R > 2*n*t*Q``) — the multiplication extension
      basis the scale-invariant tensor product lives on.
    """

    def __init__(self, params: BfvParams):
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
        taken = (self.t,) + tuple(q_primes)
        p_primes = find_ntt_primes(params.q_bits + 1, n, params.alpha,
                                   exclude=taken)
        self.p_basis = RnsBasis(p_primes)
        self._check_special_modulus()
        taken += tuple(p_primes)
        r_bits = params.q_bits + 1
        need = (self.q_full.modulus.bit_length() + self.t.bit_length()
                + n.bit_length() + 2)
        r_count = -(-need // (r_bits - 1))
        r_primes = find_ntt_primes(r_bits, n, r_count, exclude=taken)
        self.r_basis = RnsBasis(r_primes)
        self.key_basis = self.q_full.extend(self.p_basis)
        self.mul_basis = self.q_full.extend(self.r_basis)
        self.delta = self.q_full.modulus // self.t
        self.rng = np.random.default_rng(params.seed)
        self._pack = ntt_table(n, self.t)

    def _check_special_modulus(self) -> None:
        """P must exceed every digit product or key-switch noise
        explodes (the CKKS condition, shared by the hybrid keys)."""
        alpha = self.params.alpha
        for j in range(self.params.dnum):
            digit = self.q_full.primes[j * alpha:(j + 1) * alpha]
            if not digit:
                continue
            product = math.prod(digit)
            if self.p_basis.modulus <= product:
                raise ValueError(
                    f"special modulus P must exceed digit {j} product; "
                    f"raise dnum or shrink q_bits")

    # ------------------------------------------------------------------
    # SIMD packing: slot values in Z_t <-> plaintext polynomial
    # ------------------------------------------------------------------
    def encode(self, slots) -> np.ndarray:
        """Vector of n values in Z_t -> plaintext coefficients."""
        slots = np.asarray(slots, dtype=np.int64) % self.t
        if slots.shape != (self.n,):
            raise ValueError(f"expected {self.n} slots")
        return self._pack.inverse(slots)

    def decode(self, coeffs) -> np.ndarray:
        """Plaintext coefficients -> slot values in Z_t."""
        return self._pack.forward(np.asarray(coeffs, dtype=np.int64)
                                  % self.t)


class BfvEvaluator(RnsEvaluatorBase):
    """BFV evaluation: base-class ops plus scale-invariant multiply."""

    context: BfvContext

    def multiply(self, x: Ciphertext, y: Ciphertext, *,
                 key: SwitchingKey | None = None) -> Ciphertext:
        """Scale-invariant HMULT: centred lift to ``Q+R``, NTT-domain
        tensor, ``round(t*d/Q)`` rescale, hybrid relinearization under
        ``key`` (default: the chain's relinearization key).

        It runs one ``(4L, N)`` iNTT over both operand pairs, one
        centred BConv lifting all four polynomials to ``R``, one
        ``(4E, N)`` forward NTT, one ``(3E, N)`` iNTT over the tensor
        triple, one ``t/Q`` scale-round of the triple, and the shared
        key switch at ``k = 1`` — bitwise identical to the
        per-polynomial reference (``stacked=False``).  Both operands
        must be NTT-domain ciphertexts on ``ctx.q_full``; otherwise a
        ``ValueError`` naming the basis
        (:class:`~repro.schemes.rns_core.NttDomainError` for the
        domain) is raised before any kernel runs.
        """
        self._require_full_basis(x, y)
        key = self._relin_key(key)
        _require_ntt("multiply", x.is_ntt and y.is_ntt)
        ctx = self.context
        q, r, ext = ctx.q_full, ctx.r_basis, ctx.mul_basis
        lq, lr, le = len(q), len(r), len(ext)
        n = ctx.n
        # One (4Lq, N) iNTT covers both operand pairs.
        pairs = np.concatenate([x.pair(), y.pair()])
        coeff = stacked_engine(n, (q,) * 4).inverse(pairs)
        # Centred lift to R: one wide exact BConv for all four polys.
        r_rows = base_convert_centered_stack(coeff, q, r, 4)
        # Only the R rows go through the forward NTT: the Q rows of the
        # lifted stacks are ``forward(inverse(x)) == x`` — the original
        # NTT-domain ciphertext rows, reused verbatim (the same trick
        # the key-switch digit lift plays with its kept rows).
        r_ntt = stacked_engine(n, (r,) * 4).forward(r_rows)
        ntt = np.empty((4 * le, n), dtype=np.int64)
        for i in range(4):
            ntt[i * le:i * le + lq] = pairs[i * lq:(i + 1) * lq]
            ntt[i * le + lq:(i + 1) * le] = r_ntt[i * lr:(i + 1) * lr]
        x0, x1, y0, y1 = (ntt[i * le:(i + 1) * le] for i in range(4))
        e_col = ext.q_col
        d0 = x0 * y0 % e_col
        d2 = x1 * y1 % e_col
        d1 = (x0 * y1 % e_col + x1 * y0 % e_col) % e_col
        d_coeff = stacked_engine(n, (ext,) * 3).inverse(
            np.concatenate([d0, d1, d2]))
        dq = self._scale_round_stack(d_coeff, 3)
        d01 = stacked_engine(n, (q, q)).forward(dq[:2 * lq])
        # The ModDown tail adds d0/d1 into the key switch's halves.
        out, _ = self._key_switch_batch(dq[2 * lq:], key, lq - 1, 1,
                                        add=d01)
        return type(x).from_pair(q, out, x.scale, is_ntt=True)

    def _require_full_basis(self, x: Ciphertext, y: Ciphertext) -> None:
        """BFV multiplies on the full ciphertext basis only: the
        extension basis ``R`` and the scale-round constants are sized
        for ``ctx.q_full`` (and the native kernels size their reads
        from the context).  Raise the one ``ValueError`` naming that
        basis, before any kernel runs, for an operand elsewhere (say,
        after ``drop_level``)."""
        q = self.context.q_full
        for name, ct in (("x", x), ("y", y)):
            if ct.basis != q:
                raise ValueError(
                    f"BFV multiply: operand {name} lies on "
                    f"{len(ct.basis)} limbs {ct.basis.primes}; both "
                    f"operands must lie on the full ciphertext basis "
                    f"ctx.q_full ({len(q)} limbs {q.primes})")

    def _scale_round_stack(self, stack: np.ndarray, k: int) -> np.ndarray:
        """``round(t*d/Q) mod Q`` for ``k`` stacked ``Q+R`` tensor
        components (a ct-major ``(k*E, N)`` stack of canonical
        coefficient residues) as a ``(k*L_Q, N)`` stack.

        With the native library loaded and every modulus below
        ``2^31``, the C ``bfv_scale_round`` runs the whole tail per
        column block (``u = d*t``, exact ``Q -> R``, ``(u_R -
        cmod)*Q^-1``, exact ``R -> Q``), so no ``(E, k*N)``
        intermediate is written; otherwise :func:`_scale_round_numpy`.
        Both are bitwise identical, and row slices equal the ``k = 1``
        per-component calls.  Traced as one ``bfv.scale_round`` span
        naming the implementation; the fused kernel sits in one
        ``bconv.exact`` span and counts both of its conversions'
        ``bconv.rows``, as the numpy twin's two conversions do.  Under
        ``REPRO_VERIFY=1`` a non-canonical row raises
        :class:`~repro.nttmath.batched.NonCanonicalInputError` naming
        it, and the C entry checks the ``2^31`` bound.
        """
        ctx = self.context
        q, r, ext = ctx.q_full, ctx.r_basis, ctx.mul_basis
        lq, lr = len(q), len(r)
        n = stack.shape[1]
        if stack.shape[0] != k * len(ext):
            raise ValueError(f"expected a {k * len(ext)}-row tensor "
                             f"stack, got {stack.shape[0]}")
        lib = _shoup_kernel(q, r)
        if verify_inputs():
            require_canonical(stack, ext.q_col, "bfv_scale_round")
            if lib is not None:
                require_shoup_bound(ext.primes, "bfv_scale_round")
        tr = TRACER
        with tr.span("bfv.scale_round", k=k,
                     impl="numpy" if lib is None else "c"):
            if lib is None:
                return _scale_round_numpy(stack, ctx, k)
            out = np.empty((k * lq, n), dtype=np.int64)
            with tr.span("bconv.exact", rows_in=k * (lq + lr),
                         rows_out=k * lq, impl="c"):
                if lib.bfv_scale_round(out, np.ascontiguousarray(stack), k,
                                       lq, lr, n,
                                       *_scale_round_tables(ctx.t, q, r)):
                    raise MemoryError("native BFV scale-round kernel: out "
                                      "of memory")
            if tr.enabled:
                tr.count("bconv.rows", lq + lr)
        return out


def _scale_round_numpy(stack: np.ndarray, ctx: BfvContext,
                       k: int) -> np.ndarray:
    """The numpy twin of the native scale-round: ``(t*d - cmod(t*d,
    Q)) * Q^-1`` on the R limbs, then a centred exact conversion back
    to Q, all on ``(E, k*N)`` wide rows."""
    q, r, ext = ctx.q_full, ctx.r_basis, ctx.mul_basis
    lq = len(q)
    wide = _stack_to_wide(stack, len(ext), k)
    u = wide * reduce_mod_col(ctx.t, ext.primes) % ext.q_col
    cmod_r = base_convert_centered_stack(u[:lq], q, r, 1)
    qinv_r = inverse_mod_col(q.modulus, r.primes)
    res_r = (u[lq:] - cmod_r) % r.q_col * qinv_r % r.q_col
    return _wide_to_stack(base_convert_centered_stack(res_r, r, q, 1), k)


def _scale_round_tables(t: int, q: RnsBasis, r: RnsBasis) -> tuple:
    """The native scale-round's packed constants: the exact ``Q -> R``
    and ``R -> Q`` tables, then ``t mod e_i`` over the extended basis
    and ``Q^-1 mod r_i``, each with its Shoup companions.  Built on
    first use in the BConv weight LRU, never at keygen."""
    def build():
        ext = q.extend(r)
        tm = reduce_mod_col(t, ext.primes).astype(np.uint64)
        qinv = inverse_mod_col(q.modulus, r.primes).astype(np.uint64)
        return np.concatenate([
            tm, shoup_companion(tm, ext.q_col.astype(np.uint64)),
            qinv, shoup_companion(qinv, r.q_col.astype(np.uint64))]).ravel()

    aux = _lru(_WEIGHT_CACHE, ("bfv", t, q.primes, r.primes), build)
    return _conv_table(q, r), _conv_table(r, q), aux


class BfvScheme:
    """Keygen, encryption and evaluation for BFV on the RNS core."""

    def __init__(self, context: BfvContext, *, stacked: bool = True):
        self.ctx = context
        self.ev = BfvEvaluator(context, KeyChain(), stacked=stacked)
        self.keygen = RnsKeyGenerator(context)

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    def gen_secret(self) -> SecretKey:
        return self.keygen.gen_secret()

    def gen_relin(self, sk: SecretKey) -> SwitchingKey:
        key = self.keygen.gen_relin(sk)
        self.ev.keys.relin = key
        return key

    def gen_galois(self, step: int, sk: SecretKey) -> SwitchingKey:
        key = self.keygen.gen_galois(step, sk)
        self.ev.keys.galois[step] = key
        return key

    def gen_conjugation(self, sk: SecretKey) -> SwitchingKey:
        key = self.keygen.gen_conjugation(sk)
        self.ev.keys.conjugation = key
        return key

    # ------------------------------------------------------------------
    # Encrypt / decrypt (symmetric, sufficient for the workloads)
    # ------------------------------------------------------------------
    def encrypt(self, slots, sk: SecretKey) -> Ciphertext:
        ctx = self.ctx
        basis = ctx.q_full
        m = RnsPolynomial.from_small_coeffs(
            basis, ctx.encode(slots)).mul_scalar(ctx.delta).to_ntt()
        a = RnsPolynomial.random_uniform(basis, ctx.n, ctx.rng).to_ntt()
        e = RnsPolynomial.random_gaussian(basis, ctx.n, ctx.rng,
                                          ctx.params.sigma).to_ntt()
        s = sk.poly_ntt(basis)
        c0 = -(a.pointwise_mul(s)) + e + m
        return Ciphertext(c0=c0, c1=a, scale=1.0)

    def decrypt(self, ct: Ciphertext, sk: SecretKey) -> np.ndarray:
        ctx = self.ctx
        s = sk.poly_ntt(ct.basis)
        v = (ct.c0 + ct.c1.pointwise_mul(s)).to_coeff()
        big_q = ct.basis.modulus
        t = ctx.t
        vals = v.basis.compose_poly(v.data)
        m = [((2 * t * c + big_q) // (2 * big_q)) % t for c in vals]
        return ctx.decode(np.array(m, dtype=np.int64))

    # ------------------------------------------------------------------
    # Homomorphic operations (delegated to the shared evaluator)
    # ------------------------------------------------------------------
    def add(self, x: Ciphertext, y: Ciphertext) -> Ciphertext:
        return self.ev.add(x, y)

    def sub(self, x: Ciphertext, y: Ciphertext) -> Ciphertext:
        return self.ev.sub(x, y)

    def multiply(self, x: Ciphertext, y: Ciphertext,
                 rk: SwitchingKey | None = None) -> Ciphertext:
        """Multiply; an explicit ``rk`` relinearizes this call only
        (the evaluator's key chain is never written)."""
        return self.ev.multiply(x, y, key=rk)

    def rotate(self, ct: Ciphertext, step: int) -> Ciphertext:
        return self.ev.rotate(ct, step)

    def conjugate(self, ct: Ciphertext) -> Ciphertext:
        return self.ev.conjugate(ct)

    def sum_slots(self, ct: Ciphertext) -> Ciphertext:
        """Every slot becomes the sum over all ``n`` slots.

        ``log2(n/2)`` doubling rotate-and-adds fold each slot's
        ``<g>``-orbit (half the slots), and one conjugation+add merges
        the two orbits — the standard automorphism-orbit total sum.
        Requires Galois keys for steps ``2^k`` and the conjugation key.
        """
        n = self.ctx.n
        out = ct
        for k in range(int(math.log2(n // 2))):
            out = self.ev.add(out, self.ev.rotate(out, 1 << k))
        return self.ev.add(out, self.ev.conjugate(out))
