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

The evaluator runs in one of two modes:

* **stacked** (the default) — a ciphertext is one ``(2L, N)`` residue
  stack (:meth:`Ciphertext.pair`), and a single ciphertext is the
  zero-copy ``k = 1`` case of a
  :class:`~repro.schemes.rns_core.CiphertextBatch`.  Rotations,
  hoisted rotations, multiply/relinearize, plaintext multiplies and
  NTT-domain rescales run the ``batch_*`` kernels at ``k = 1``;
  additions and scalar multiplies issue one pair-wide kernel.  Either
  way every step covers both polynomials (and, inside key switching,
  all ``beta`` lifted digits) in one batched kernel — the paper's
  keep-the-NTT-pipeline-saturated dataflow applied across the full
  ciphertext.
* **legacy** (``stacked=False``) — the per-polynomial reference path.
  Both modes are bitwise identical; ``tests/test_stacked_evaluator.py``
  pins every operation differentially.
"""

from __future__ import annotations

import numpy as np

from ...rns.bconv import rescale_last, rescale_last_pair
from ..rns_core import CiphertextBatch, RnsEvaluatorBase, _as_batch
from .ciphertext import Ciphertext
from .keys import CkksContext, KeyChain


class CkksEvaluator(RnsEvaluatorBase):
    """Stateless evaluator bound to a context and a key chain."""

    def __init__(self, context: CkksContext, keys: KeyChain | None = None,
                 *, stacked: bool = True):
        super().__init__(context, keys, stacked=stacked)

    # ------------------------------------------------------------------
    # Scale maintenance (the CKKS-specific piece)
    # ------------------------------------------------------------------
    def rescale(self, ct: Ciphertext) -> Ciphertext:
        """Divide by the last chain prime and drop one level.

        An NTT-domain ciphertext on the stacked path is
        :meth:`batch_rescale` at ``k = 1``: only the dropped limb of
        each half is iNTT'd (2 rows), its centred re-reductions are
        NTT'd back, and the subtract + q_last^-1 scaling fold in the
        NTT domain — the modulus-switch dataflow the IR lowering emits,
        bitwise identical to the coefficient round trip.
        """
        q_last = ct.basis.primes[-1]
        if not self.stacked:
            c0 = rescale_last(ct.c0.to_coeff()).to_ntt()
            c1 = rescale_last(ct.c1.to_coeff()).to_ntt()
            return Ciphertext(c0=c0, c1=c1, scale=ct.scale / q_last)
        if ct.is_ntt:
            return self.batch_rescale(_as_batch(ct)).split()[0]
        basis = ct.basis
        if len(basis) < 2:
            raise ValueError("cannot rescale a single-limb polynomial")
        new_basis = basis.prefix(len(basis) - 1)
        down = rescale_last_pair(ct.pair(), basis)
        out = self._pair_engine(new_basis).forward(down)
        return Ciphertext.from_pair(new_basis, out, ct.scale / q_last,
                                    is_ntt=True)

    def batch_rescale(self, batch: CiphertextBatch) -> CiphertextBatch:
        """Rescale ``k`` fused ciphertexts at once: the NTT-domain
        last-limb kernel
        (:meth:`~repro.schemes.rns_core.StackedKernels.switch_down_ntt`,
        identity correction) runs on all ``2k`` halves in one pass,
        bitwise identical to ``k`` reference rescales."""
        if not batch.is_ntt:
            raise ValueError("batch_rescale expects an NTT-domain batch")
        basis = batch.basis
        if len(basis) < 2:
            raise ValueError("cannot rescale a single-limb polynomial")
        q_last = basis.primes[-1]
        stack, new_basis = self.kernels.switch_down_ntt(
            batch.stack, basis, 2 * batch.k)
        return CiphertextBatch(basis=new_basis, stack=stack,
                               scales=[s / q_last for s in batch.scales],
                               is_ntt=True, ct_cls=batch.ct_cls)

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
