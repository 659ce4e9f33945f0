"""Homomorphic evaluation for RNS-CKKS.

Every operation here decomposes into the residue-polynomial-level
kernels of paper Figure 1 (vector ModAdd/ModMult, NTT/iNTT,
automorphism, BConv) — the same decomposition
:mod:`repro.compiler.lowering` performs symbolically when compiling for
the EFFACT architecture.

The scheme-independent machinery — the ciphertext-batch layout, the
one stacked key-switch pipeline (digit lift through one ``(beta*E, N)``
NTT, Shoup MACs against digit-stacked key tables, NTT-domain ModDown),
plaintext Shoup-table caching, rotation hoisting — lives in
:class:`repro.schemes.rns_core.RnsEvaluatorBase`, which BFV and BGV
share.  This subclass adds only what is CKKS: approximate scale
tracking, rescaling by the last chain prime, and real/complex scalar
encoding.

A ciphertext is one ``(2L, N)`` residue stack
(:meth:`Ciphertext.pair`), and a single ciphertext is the zero-copy
``k = 1`` case of a :class:`~repro.schemes.rns_core.CiphertextBatch`.
Rotations, hoisted rotations, multiply/relinearize, plaintext
multiplies, rescales and the bootstrap's ModRaise run the ``batch_*``
kernels at ``k = 1`` on NTT-domain ciphertexts; additions and scalar
multiplies issue one pair-wide kernel.  Either way every step covers
both polynomials (and, inside key switching, all ``beta`` lifted
digits) in one batched kernel — the paper's
keep-the-NTT-pipeline-saturated dataflow applied across the full
ciphertext.  ``CkksEvaluator(ctx, keys, stacked=False)`` is the
per-polynomial reference
(:class:`~repro.schemes.reference.ReferenceCkksEvaluator`); both are
bitwise identical, and ``tests/test_stacked_evaluator.py`` pins every
operation differentially.
"""

from __future__ import annotations

import numpy as np

from ...rns.poly import stacked_engine
from ..rns_core import (
    CiphertextBatch,
    RnsEvaluatorBase,
    _as_batch,
    _require_ntt,
    switch_down_ntt,
)
from .ciphertext import Ciphertext
from .keys import CkksContext


class CkksEvaluator(RnsEvaluatorBase):
    """Stateless evaluator bound to a context and a key chain."""

    context: CkksContext

    # ------------------------------------------------------------------
    # Scale maintenance (the CKKS-specific piece)
    # ------------------------------------------------------------------
    def rescale(self, ct: Ciphertext) -> Ciphertext:
        """Divide by the last chain prime and drop one level.

        Runs :meth:`batch_rescale` at ``k = 1``: only the dropped limb
        of each half is iNTT'd (2 rows), its centred re-reductions are
        NTT'd back, and the subtract + q_last^-1 scaling fold in the
        NTT domain — the modulus-switch dataflow the IR lowering emits,
        bitwise identical to the coefficient round trip.
        """
        return self.batch_rescale(_as_batch(ct)).split()[0]

    def batch_rescale(self, batch: CiphertextBatch) -> CiphertextBatch:
        """Rescale ``k`` fused ciphertexts at once: the NTT-domain
        last-limb kernel
        (:func:`~repro.schemes.rns_core.switch_down_ntt`, identity
        correction) runs on all ``2k`` halves in one pass, bitwise
        identical to ``k`` reference rescales."""
        _require_ntt("rescale", batch.is_ntt)
        basis = batch.basis
        if len(basis) < 2:
            raise ValueError("cannot rescale a single-limb polynomial")
        q_last = basis.primes[-1]
        stack, new_basis = switch_down_ntt(batch.stack, basis, 2 * batch.k)
        return CiphertextBatch(basis=new_basis, stack=stack,
                               scales=[s / q_last for s in batch.scales],
                               is_ntt=True, ct_cls=batch.ct_cls)

    def mod_raise(self, ct: Ciphertext) -> Ciphertext:
        """Bootstrap ModRaise: reinterpret ``ct`` (dropped to level 0)
        at the full modulus chain.

        After the raise the underlying plaintext is ``m + q0 * I`` with
        a small integer polynomial ``I`` (bounded by the secret's
        1-norm), which EvalMod later removes.  Both halves lift through
        one broadcast decomposition and a single ``(2(L+1), N)``
        forward NTT.
        """
        _require_ntt("mod_raise", ct.is_ntt)
        ctx = self.context
        if ct.level != 0:
            ct = self.drop_level(ct, 0)
        q0 = ct.basis.primes[0]
        top = ctx.q_basis(ctx.max_level)
        pair = stacked_engine(ctx.n, (ct.basis,) * 2).inverse(ct.pair())
        # Level 0 means one limb per half: rows [0] is c0, [1] c1.
        centred = np.where(pair > q0 // 2, pair - q0, pair)
        lifted = (centred[:, None, :] % top.q_col).reshape(
            2 * len(top), ct.n)
        raised = stacked_engine(ctx.n, (top,) * 2).forward(lifted)
        return Ciphertext.from_pair(top, raised, ct.scale, is_ntt=True)

    def rescale_to(self, ct: Ciphertext, level: int,
                   target_scale: float) -> Ciphertext:
        """Bring ``ct`` down to ``level`` with *exactly* ``target_scale``.

        Multiplies by the integer constant closest to
        ``target_scale * q_{level+1} / ct.scale`` and rescales once, so
        the recorded scale is exact up to an integer-rounding error of
        ~2^-25 relative — the precision-preserving level alignment deep
        circuits (EvalMod) require.
        """
        if ct.level < level:
            raise ValueError("cannot raise a ciphertext level")
        if ct.level == level:
            if abs(ct.scale - target_scale) > 1e-6 * target_scale:
                raise ValueError(
                    f"same-level scale adjustment impossible: "
                    f"{ct.scale:g} -> {target_scale:g}")
            out = ct.copy()
            out.scale = target_scale
            return out
        ct = self.drop_level(ct, level + 1)
        q_next = ct.basis.primes[-1]
        constant = max(1, int(round(target_scale * q_next / ct.scale)))
        scaled = self._mul_int(ct, constant, ct.scale * constant)
        out = self.rescale(scaled)
        if abs(out.scale - target_scale) > 1e-6 * target_scale:
            raise ValueError("rescale_to drifted; scales incompatible")
        out.scale = target_scale
        return out

    # ------------------------------------------------------------------
    # Scalar encoding (CKKS approximates reals/complex)
    # ------------------------------------------------------------------
    def add_scalar(self, ct: Ciphertext, value: complex) -> Ciphertext:
        pt = self.context.encode(
            np.full(self.context.params.slots, value),
            level=ct.level, scale=ct.scale)
        return self.add_plain(ct, pt)

    def multiply_scalar(self, ct: Ciphertext, value: float,
                        scale: float | None = None) -> Ciphertext:
        """Multiply by a real constant encoded at ``scale``.

        The default scale is the ciphertext's last chain prime, so a
        following :meth:`rescale` restores the original scale *exactly*
        (the standard trick for keeping scales aligned across deep
        circuits such as EvalMod).
        """
        if scale is None:
            scale = float(ct.basis.primes[-1])
        encoded = int(round(value * scale))
        return self._mul_int(ct, encoded, ct.scale * scale)
