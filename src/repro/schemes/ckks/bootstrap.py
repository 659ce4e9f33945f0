"""CKKS bootstrapping: ModRaise -> CoeffToSlot -> EvalMod -> SlotToCoeff.

The functional counterpart of the paper's headline benchmark.  The
paper runs fully-packed bootstrapping at N = 2^16 with L_boot = 15
(Table III); this module implements the same four-phase pipeline at
test scale so that every architectural claim (the iNTT-BConv-NTT
chains, the MatMul1D rotations of CtS/StC, the deep multiply tree of
EvalMod) corresponds to real executable arithmetic.

CoeffToSlot uses the exact inverse-embedding identity
``m = (2/N) Re(U^H v)`` with ``U[i][j] = zeta^(j * 5^i)``; EvalMod
approximates ``t mod q0`` by ``(q0 / 2 pi) sin(2 pi t / q0)`` evaluated
with the Chebyshev machinery of :mod:`.polyeval`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ciphertext import Ciphertext
from .evaluator import CkksEvaluator
from .keys import CkksContext
from .linear_transform import Diagonals, matvec_bsgs, required_rotations
from .polyeval import ChebyshevEvaluator, chebyshev_fit


@dataclass(frozen=True)
class BootstrapConfig:
    """Tuning knobs for functional bootstrapping."""

    k_range: int = 9          # bound K on the ModRaise integer I
    cheb_degree: int = 95     # degree of the sine approximation
    bsgs_n1: int | None = None

    def sine_target(self, q0: int, scale: float):
        """f(t) = (q0 / 2 pi Delta) * sin(2 pi (K+1) t) on t in [-1,1]."""
        amplitude = q0 / (2.0 * math.pi * scale)
        omega = 2.0 * math.pi * (self.k_range + 1)

        def f(t):
            return amplitude * np.sin(omega * t)

        return f


class CkksBootstrapper:
    """Recrypts a low-level ciphertext back to a high level."""

    def __init__(self, context: CkksContext, evaluator: CkksEvaluator,
                 config: BootstrapConfig | None = None):
        self.context = context
        self.ev = evaluator
        self.config = config or BootstrapConfig()
        self._build_transforms()
        coeffs = chebyshev_fit(
            self.config.sine_target(context.q_full.primes[0],
                                    context.params.scale),
            self.config.cheb_degree)
        self._cheb_coeffs = coeffs

    # ------------------------------------------------------------------
    # Linear-transform matrices
    # ------------------------------------------------------------------
    def _build_transforms(self) -> None:
        ctx = self.context
        n = ctx.n
        slots = ctx.params.slots
        two_n = 2 * n
        g = 1
        roots = np.empty(slots, dtype=np.int64)
        for i in range(slots):
            roots[i] = g
            g = g * 5 % two_n
        zeta = np.exp(1j * np.pi / n)
        j_low = np.arange(slots)
        j_high = np.arange(slots, n)
        # U0[i][j] = zeta^(j * g_i), U1[i][j] = zeta^((slots+j) * g_i)
        u0 = zeta ** (np.outer(roots, j_low) % two_n)
        u1 = zeta ** (np.outer(roots, j_high) % two_n)
        factor = 2.0 / n
        # CtS: z0 = (2/N) Re(U0^H v) = (1/N)(U0^H v + conj(U0^H) conj(v))
        self._cts_a0 = Diagonals.from_matrix(u0.conj().T * factor / 2)
        self._cts_a0c = Diagonals.from_matrix(u0.T * factor / 2)
        self._cts_a1 = Diagonals.from_matrix(u1.conj().T * factor / 2)
        self._cts_a1c = Diagonals.from_matrix(u1.T * factor / 2)
        # StC: v' = U0 z0 + U1 z1
        self._stc_u0 = Diagonals.from_matrix(u0)
        self._stc_u1 = Diagonals.from_matrix(u1)

    def required_rotations(self) -> set[int]:
        """Galois-key steps the caller must generate before use."""
        steps: set[int] = set()
        for diags in (self._cts_a0, self._cts_a0c, self._cts_a1,
                      self._cts_a1c, self._stc_u0, self._stc_u1):
            steps |= required_rotations(diags, self.config.bsgs_n1)
        return steps

    # ------------------------------------------------------------------
    # Phase 1: ModRaise
    # ------------------------------------------------------------------
    def mod_raise(self, ct: Ciphertext) -> Ciphertext:
        """Reinterpret a ciphertext, dropped to level 0, at the full
        modulus chain (:meth:`CkksEvaluator.mod_raise`)."""
        return self.ev.mod_raise(ct)

    # ------------------------------------------------------------------
    # Phase 2: CoeffToSlot
    # ------------------------------------------------------------------
    def coeff_to_slot(self, ct: Ciphertext) -> tuple[Ciphertext, Ciphertext]:
        """Move coefficients into slots: returns (low half, high half)."""
        ev = self.ev
        ct_conj = ev.conjugate(ct)
        n1 = self.config.bsgs_n1
        z0 = ev.add(matvec_bsgs(ev, ct, self._cts_a0, n1),
                    matvec_bsgs(ev, ct_conj, self._cts_a0c, n1))
        z1 = ev.add(matvec_bsgs(ev, ct, self._cts_a1, n1),
                    matvec_bsgs(ev, ct_conj, self._cts_a1c, n1))
        return ev.rescale(z0), ev.rescale(z1)

    # ------------------------------------------------------------------
    # Phase 3: EvalMod
    # ------------------------------------------------------------------
    def eval_mod(self, ct: Ciphertext) -> Ciphertext:
        """Approximate ``t mod q0`` on every slot.

        Slots hold ``t/Delta``; we scale by ``Delta/(q0 (K+1))`` to land
        in [-1, 1] and evaluate the fitted Chebyshev sine series.
        """
        ev = self.ev
        ctx = self.context
        q0 = ctx.q_full.primes[0]
        shrink = ctx.params.scale / (q0 * (self.config.k_range + 1))
        ct_t = ev.rescale(ev.multiply_scalar(ct, shrink))
        return ChebyshevEvaluator(ev, self._cheb_coeffs)(ct_t)

    # ------------------------------------------------------------------
    # Phase 4: SlotToCoeff
    # ------------------------------------------------------------------
    def slot_to_coeff(self, z0: Ciphertext, z1: Ciphertext) -> Ciphertext:
        ev = self.ev
        n1 = self.config.bsgs_n1
        out = ev.add(matvec_bsgs(ev, z0, self._stc_u0, n1),
                     matvec_bsgs(ev, z1, self._stc_u1, n1))
        return ev.rescale(out)

    # ------------------------------------------------------------------
    # Full pipeline
    # ------------------------------------------------------------------
    def bootstrap(self, ct: Ciphertext) -> Ciphertext:
        """Recrypt: returns an equivalent ciphertext at a high level.

        The output level is ``max_level`` minus the levels consumed by
        CtS (1), EvalMod's scaling + Chebyshev tree, and StC (1) —
        the functional analogue of ``L - L_boot`` in Table III.
        """
        raised = self.mod_raise(ct)
        z0, z1 = self.coeff_to_slot(raised)
        m0 = self.eval_mod(z0)
        m1 = self.eval_mod(z1)
        m0, m1 = _match_pair(self.ev, m0, m1)
        return self.slot_to_coeff(m0, m1)


def _match_pair(ev: CkksEvaluator, a: Ciphertext,
                b: Ciphertext) -> tuple[Ciphertext, Ciphertext]:
    """Align two EvalMod outputs to a common level and recorded scale."""
    level = min(a.level, b.level)
    a = ev.drop_level(a, level)
    b = ev.drop_level(b, level)
    if abs(a.scale / b.scale - 1.0) > 0.05:
        raise ValueError("EvalMod outputs diverged in scale")
    b = b.copy()
    b.scale = a.scale
    return a, b
