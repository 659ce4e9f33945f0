"""The per-polynomial reference evaluators: the differential oracle of
the production evaluator.

``CkksEvaluator(ctx, keys, stacked=False)``, ``BgvScheme(ctx,
stacked=False)`` and ``BfvScheme(ctx, stacked=False)`` construct these
subclasses of the production classes.  Every op runs one polynomial at
a time: per-digit ModUp and NTT, per-accumulator Shoup MACs, ModDown,
CKKS rescale, BGV modulus switching and the bootstrap's ModRaise in the
coefficient domain.  None of the stacked pipeline, the
``CiphertextBatch`` layout or the NTT-domain last-limb kernel runs
here, yet the results are bitwise identical, which the scheme suites
check.  Where the arithmetic allows, coefficient-domain ciphertexts are
accepted, which production rejects with
:class:`~repro.schemes.rns_core.NttDomainError`.  The module ships in
``src/`` because the benchmark harness checks every request against
it, as :func:`repro.compiler.exec_backend.execute_reference` ships for
plan replay.

The oracle is also independent of the native kernel library: every
public method of these classes, their own and the ones they inherit,
runs under :func:`repro.nttmath.native.numpy_kernels`, so the NTTs,
conversions and key-switch tails inside it are the numpy twins even
when the C library loaded, and a check of production against this
oracle compares C with numpy.
"""

from __future__ import annotations

import functools
import inspect

import numpy as np

from ..nttmath.native import numpy_kernels
from ..nttmath.ntt import galois_element
from ..rns.basis import RnsBasis
from ..rns.bconv import (
    base_convert_centered,
    inverse_mod_col,
    mod_down,
    mod_up,
    rescale_last,
)
from ..rns.poly import (
    RnsPolynomial,
    pointwise_mac_shoup,
    pointwise_mul_shoup,
    shoup_precompute,
)
from .bfv import BfvEvaluator
from .bgv import BgvCiphertext, BgvEvaluator
from .ckks.evaluator import CkksEvaluator
from .rns_core import (
    Ciphertext,
    Ciphertext3,
    Plaintext,
    RnsEvaluatorBase,
    SwitchingKey,
    _require_ntt,
)

__all__ = [
    "ReferenceBfvEvaluator",
    "ReferenceBgvEvaluator",
    "ReferenceCkksEvaluator",
    "ReferenceEvaluator",
    "reference_class",
]


def _numpy_only(method, origin: str):
    """``method`` run under :func:`numpy_kernels`; ``origin`` is
    ``"own"`` for a method of the wrapping class, ``"inherited"`` for a
    copy of a base class' method placed on it."""
    @functools.wraps(method)
    def run(*args, **kwargs):
        with numpy_kernels():
            return method(*args, **kwargs)

    run.numpy_only = origin
    return run


def _numpy_entry_points(cls: type) -> type:
    """``cls`` with every public method, inherited ones included, run
    under :func:`numpy_kernels`.  Each name resolves along the MRO as it
    would without the wrappers (skipping the ``"inherited"`` copies a
    reference base class holds, so a production override further along,
    such as CKKS's, is not shadowed by the copy ``ReferenceEvaluator``
    took of the generic method) and is wrapped once."""
    for name in dir(cls):
        if name.startswith("_"):
            continue
        for owner in cls.__mro__:
            attr = vars(owner).get(name)
            if (attr is not None
                    and getattr(attr, "numpy_only", None) != "inherited"):
                break
        if inspect.isfunction(attr) and not hasattr(attr, "numpy_only"):
            setattr(cls, name, _numpy_only(
                attr, "own" if owner is cls else "inherited"))
    return cls


@_numpy_entry_points
class ReferenceEvaluator(RnsEvaluatorBase):
    """The scheme-independent per-polynomial ops; the scheme subclasses
    below add CKKS rescale and ModRaise, BGV's exact ModDown and
    modulus switch, and BFV's multiply."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: Per-digit Shoup tables of each switching key used, keyed by
        #: ``id(key)`` (the entry holds the key, so the id stays its
        #: own); keys are static, so the precompute is paid once.
        self._shoup: dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # Levels, additions, scalars
    # ------------------------------------------------------------------
    def drop_level(self, ct: Ciphertext, level: int) -> Ciphertext:
        if level > ct.level:
            raise ValueError("cannot raise a ciphertext level by dropping")
        if level == ct.level:
            return ct
        basis = self.context.q_basis(level)
        return type(ct)(c0=ct.c0.drop_to(basis), c1=ct.c1.drop_to(basis),
                        scale=ct.scale)

    def _add_sub(self, x: Ciphertext, y: Ciphertext,
                 sign: int) -> Ciphertext:
        x, y = self._align(x, y)
        self._check_scales(x.scale, y.scale)
        if sign > 0:
            return type(x)(c0=x.c0 + y.c0, c1=x.c1 + y.c1, scale=x.scale)
        return type(x)(c0=x.c0 - y.c0, c1=x.c1 - y.c1, scale=x.scale)

    def negate(self, ct: Ciphertext) -> Ciphertext:
        return type(ct)(c0=-ct.c0, c1=-ct.c1, scale=ct.scale)

    def _add_sub_plain(self, ct: Ciphertext, pt: Plaintext,
                       sign: int) -> Ciphertext:
        self._check_scales(ct.scale, pt.scale)
        poly = self._match_plain(pt, ct)
        c0 = ct.c0 + poly if sign > 0 else ct.c0 - poly
        return type(ct)(c0=c0, c1=ct.c1.copy(), scale=ct.scale)

    def _mul_int(self, ct: Ciphertext, value: int,
                 scale: float) -> Ciphertext:
        return type(ct)(c0=ct.c0.mul_scalar(value),
                        c1=ct.c1.mul_scalar(value), scale=scale)

    # ------------------------------------------------------------------
    # Multiplication
    # ------------------------------------------------------------------
    def multiply_no_relin(self, x: Ciphertext,
                          y: Ciphertext) -> Ciphertext3:
        """The tensor ``(d0, d1, d2)``, decryptable under
        ``(1, s, s^2)``."""
        x, y = self._align(x, y)
        d0 = x.c0.pointwise_mul(y.c0)
        d1 = x.c0.pointwise_mul(y.c1) + x.c1.pointwise_mul(y.c0)
        d2 = x.c1.pointwise_mul(y.c1)
        return Ciphertext3(d0=d0, d1=d1, d2=d2, scale=x.scale * y.scale)

    def relinearize(self, ct3: Ciphertext3, *, out_cls: type | None = None,
                    key: SwitchingKey | None = None) -> Ciphertext:
        """Switch ``d2`` back to the secret key; ``key`` defaults to the
        chain's relinearization key."""
        key = self._relin_key(key)
        ks0, ks1 = self.key_switch(ct3.d2.to_coeff(), key)
        return (out_cls or Ciphertext)(c0=ct3.d0 + ks0, c1=ct3.d1 + ks1,
                                       scale=ct3.scale)

    def multiply(self, x: Ciphertext, y: Ciphertext, *,
                 key: SwitchingKey | None = None) -> Ciphertext:
        x, y = self._align(x, y)
        out = self.relinearize(self.multiply_no_relin(x, y),
                               out_cls=type(x), key=key)
        out.scale = self._mul_scale(x.scale, y.scale)
        return out

    def multiply_plain(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        _require_ntt("multiply_plain", ct.is_ntt)
        tables = pt.frozen_ntt_tables(ct.basis)
        return type(ct)(c0=pointwise_mul_shoup(ct.c0, tables),
                        c1=pointwise_mul_shoup(ct.c1, tables),
                        scale=ct.scale * pt.scale)

    # ------------------------------------------------------------------
    # Key switching, one digit and one accumulator at a time
    # ------------------------------------------------------------------
    def key_switch(self, d2: RnsPolynomial,
                   key: SwitchingKey) -> tuple[RnsPolynomial, RnsPolynomial]:
        if d2.is_ntt:
            raise ValueError("key_switch expects coefficient-domain input")
        ctx = self.context
        level = len(d2.basis) - 1
        ext = ctx.ext_basis(level)
        digits = list(self._decompose_and_lift(d2, level, ext))
        b_tables, a_tables = self._restricted_tables(key, level,
                                                     len(digits))
        acc0 = pointwise_mac_shoup(digits, b_tables, ext)
        acc1 = pointwise_mac_shoup(digits, a_tables, ext)
        return self._mod_down_pair(acc0, acc1, ctx.q_basis(level))

    def _mod_down_pair(self, acc0: RnsPolynomial, acc1: RnsPolynomial,
                       q_basis: RnsBasis
                       ) -> tuple[RnsPolynomial, RnsPolynomial]:
        """ModDown each key-switch accumulator in the coefficient
        domain."""
        p_basis = self.context.p_basis
        return tuple(mod_down(acc.to_coeff(), q_basis, p_basis).to_ntt()
                     for acc in (acc0, acc1))

    def _decompose_and_lift(self, d2: RnsPolynomial, level: int,
                            ext: RnsBasis):
        """Yield each digit of ``d2`` lifted (ModUp) to the ext basis,
        in the NTT domain."""
        ctx = self.context
        alpha = ctx.params.alpha
        for j in range(ctx.num_digits(level)):
            primes = ctx.digit_primes(j, level)
            rows = slice(j * alpha, j * alpha + len(primes))
            digit = RnsPolynomial(RnsBasis(primes), d2.data[rows].copy(),
                                  is_ntt=False)
            yield mod_up(digit, ext).to_ntt()

    def _restricted_tables(self, key: SwitchingKey, level: int,
                           count: int) -> tuple[list, list]:
        """Shoup tables for the first ``count`` digits of ``key``,
        restricted to the level's ext basis rows (q_0..q_level + P)."""
        hit = self._shoup.get(id(key))
        if hit is None:
            hit = self._shoup[id(key)] = (
                key, [shoup_precompute(p) for p in key.b],
                [shoup_precompute(p) for p in key.a])
        _, b_tables, a_tables = hit
        k = len(self.context.p_basis)

        def restrict(table):
            s_u, s_sh = table
            return (np.concatenate([s_u[:level + 1], s_u[-k:]]),
                    np.concatenate([s_sh[:level + 1], s_sh[-k:]]))

        return ([restrict(t) for t in b_tables[:count]],
                [restrict(t) for t in a_tables[:count]])

    # ------------------------------------------------------------------
    # Rotations
    # ------------------------------------------------------------------
    def _apply_galois(self, ct: Ciphertext, galois_elt: int,
                      key: SwitchingKey) -> Ciphertext:
        rc0 = ct.c0.apply_automorphism(galois_elt)
        rc1 = ct.c1.apply_automorphism(galois_elt)
        ks0, ks1 = self.key_switch(rc1.to_coeff(), key)
        return type(ct)(c0=rc0 + ks0, c1=ks1, scale=ct.scale)

    def rotate_hoisted(self, ct: Ciphertext,
                       steps) -> dict[int, Ciphertext]:
        """Hoisted rotations with per-digit automorphism gathers and
        per-accumulator key MACs."""
        ctx = self.context
        level = ct.level
        ext = ctx.ext_basis(level)
        lifted: list | None = None
        q_basis = ctx.q_basis(level)
        out: dict[int, Ciphertext] = {}
        for step in steps:
            if self._identity_step(step):
                out[step] = ct.copy()
                continue
            key = self.keys.galois.get(step)
            if key is None:
                raise ValueError(f"no Galois key for rotation step {step}")
            if lifted is None:
                lifted = list(self._decompose_and_lift(
                    ct.c1.to_coeff(), level, ext))
            g = galois_element(step, ctx.n)
            rotated = [digit.apply_automorphism(g) for digit in lifted]
            b_tables, a_tables = self._restricted_tables(
                key, level, len(rotated))
            acc0 = pointwise_mac_shoup(rotated, b_tables, ext)
            acc1 = pointwise_mac_shoup(rotated, a_tables, ext)
            ks0, ks1 = self._mod_down_pair(acc0, acc1, q_basis)
            rc0 = ct.c0.apply_automorphism(g)
            out[step] = type(ct)(c0=rc0 + ks0, c1=ks1, scale=ct.scale)
        return out


@_numpy_entry_points
class ReferenceCkksEvaluator(ReferenceEvaluator, CkksEvaluator):
    """CKKS: rescale and ModRaise through the coefficient domain."""

    def rescale(self, ct: Ciphertext) -> Ciphertext:
        q_last = ct.basis.primes[-1]
        c0 = rescale_last(ct.c0.to_coeff()).to_ntt()
        c1 = rescale_last(ct.c1.to_coeff()).to_ntt()
        return Ciphertext(c0=c0, c1=c1, scale=ct.scale / q_last)

    def mod_raise(self, ct: Ciphertext) -> Ciphertext:
        ctx = self.context
        if ct.level != 0:
            ct = self.drop_level(ct, 0)
        q0 = ct.basis.primes[0]
        top = ctx.q_basis(ctx.max_level)

        def raise_poly(poly: RnsPolynomial) -> RnsPolynomial:
            coeffs = np.asarray(poly.to_coeff().data[0], dtype=np.int64)
            centred = np.where(coeffs > q0 // 2, coeffs - q0, coeffs)
            return RnsPolynomial.from_small_coeffs(top, centred).to_ntt()

        return Ciphertext(c0=raise_poly(ct.c0), c1=raise_poly(ct.c1),
                          scale=ct.scale)


@_numpy_entry_points
class ReferenceBgvEvaluator(ReferenceEvaluator, BgvEvaluator):
    """BGV: the exact ``t``-corrected ModDown per accumulator and the
    modulus switch per polynomial, both in the coefficient domain."""

    def _mod_down_pair(self, acc0: RnsPolynomial, acc1: RnsPolynomial,
                       q_basis: RnsBasis
                       ) -> tuple[RnsPolynomial, RnsPolynomial]:
        return tuple(self._mod_down_exact(acc.to_coeff(), q_basis).to_ntt()
                     for acc in (acc0, acc1))

    def _mod_down_exact(self, poly: RnsPolynomial,
                        q_basis: RnsBasis) -> RnsPolynomial:
        lq = len(q_basis)
        delta = self._moddown_delta(poly.data[lq:], q_basis, 1)
        p_inv = inverse_mod_col(self.context.p_basis.modulus,
                                q_basis.primes)
        q_col = q_basis.q_col
        data = (poly.data[:lq] - delta) % q_col * p_inv % q_col
        return RnsPolynomial(q_basis, data, is_ntt=False)

    def mod_switch(self, ct: Ciphertext, times: int = 1) -> Ciphertext:
        t = self.context.t
        factor = int(ct.scale)
        out = ct
        for _ in range(times):
            if len(out.basis) < 2:
                raise ValueError("no limbs left to switch away")
            q_last = out.basis.primes[-1]
            out = BgvCiphertext(c0=self._mod_switch_poly(out.c0),
                                c1=self._mod_switch_poly(out.c1),
                                scale=1.0)
            factor = factor * pow(q_last, -1, t) % t
        out.scale = float(factor)
        return out

    def _mod_switch_poly(self, poly: RnsPolynomial) -> RnsPolynomial:
        coeff = poly.to_coeff()
        basis = coeff.basis
        q_last = basis.primes[-1]
        last = coeff.data[-1]
        centred = np.where(last > q_last // 2, last - q_last, last)
        delta = self._switch_delta(q_last)(centred)
        new_basis = basis.prefix(len(basis) - 1)
        inv_col = inverse_mod_col(q_last, new_basis.primes)
        q_col = new_basis.q_col
        data = (coeff.data[:-1] - delta[None, :] % q_col) \
            % q_col * inv_col % q_col
        return RnsPolynomial(new_basis, data, is_ntt=False).to_ntt()


@_numpy_entry_points
class ReferenceBfvEvaluator(ReferenceEvaluator, BfvEvaluator):
    """BFV: the scale-invariant multiply one polynomial and one tensor
    component at a time."""

    def multiply(self, x: Ciphertext, y: Ciphertext, *,
                 key: SwitchingKey | None = None) -> Ciphertext:
        self._require_full_basis(x, y)
        key = self._relin_key(key)
        ctx = self.context
        q, r, ext = ctx.q_full, ctx.r_basis, ctx.mul_basis
        lifted = []
        for poly in (x.c0, x.c1, y.c0, y.c1):
            c = poly.to_coeff()
            rr = base_convert_centered(c, r)
            data = np.concatenate([c.data, rr.data])
            lifted.append(RnsPolynomial(ext, data, is_ntt=False).to_ntt())
        x0, x1, y0, y1 = lifted
        d0 = x0.pointwise_mul(y0)
        d1 = x0.pointwise_mul(y1) + x1.pointwise_mul(y0)
        d2 = x1.pointwise_mul(y1)
        dq = [self._scale_round_stack(d.to_coeff().data, 1)
              for d in (d0, d1, d2)]
        ks0, ks1 = self.key_switch(RnsPolynomial(q, dq[2], is_ntt=False),
                                   key)
        c0 = RnsPolynomial(q, dq[0], is_ntt=False).to_ntt() + ks0
        c1 = RnsPolynomial(q, dq[1], is_ntt=False).to_ntt() + ks1
        return type(x)(c0=c0, c1=c1, scale=x.scale)


_REFERENCES = {
    RnsEvaluatorBase: ReferenceEvaluator,
    CkksEvaluator: ReferenceCkksEvaluator,
    BgvEvaluator: ReferenceBgvEvaluator,
    BfvEvaluator: ReferenceBfvEvaluator,
}


def reference_class(cls: type) -> type:
    """The reference evaluator class standing in for ``cls`` (``cls``
    itself when it already is one)."""
    if issubclass(cls, ReferenceEvaluator):
        return cls
    ref = _REFERENCES.get(cls)
    if ref is None:
        raise TypeError(f"{cls.__name__} has no per-polynomial reference "
                        f"evaluator")
    return ref
