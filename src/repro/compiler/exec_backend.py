"""Fused-kernel execution backend: run a PackedProgram for real.

The cycle simulator (:mod:`repro.arch.simulator`) prices a scheduled
:class:`~repro.compiler.ir.PackedProgram`; this module *executes* one
against the batched NTT engine, producing actual residue polynomials.
The two share the instruction stream, so predicted cycles and executed
wall time describe the same object — and the executed outputs can be
cross-checked bitwise against :class:`repro.schemes.rns_core.
RnsEvaluatorBase`, which turns the whole compiler into a testable
artifact instead of a cost model.

One production engine and one oracle:

* :func:`execute_packed` is *planned*: a one-time
  :class:`~repro.compiler.exec_plan.ExecPlan` (cached in-process and
  in the ArtifactStore, keyed off the program fingerprint + bindings
  shape) precomputes every step boundary, gather/scatter index array,
  prime/immediate column, and slot-arena row assignment, so replay is
  a tight loop of native kernel calls or fancy-indexed vector
  expressions and stacked engine calls.  See
  :mod:`repro.compiler.exec_plan` for the architecture.
* :func:`execute_reference` is the oracle: a naive
  one-instruction-at-a-time interpreter over the list IR that shares
  no dispatch machinery with the plan, so agreement between the two is
  evidence, not tautology.  The fuzzer runs it on the *uncompiled*
  program; it also runs a compiled stream, spill stores and reloads
  included.

Exactness: every engine prime is below 2**31, so ``x * y`` of two
canonical residues fits in 62 bits and ``(x * y + z) % q`` is exact in
uint64 — no Shoup companions needed on this path.  All values are kept
canonical in ``[0, q)``; the NTT engine is Z_q-linear and its
forward/inverse round trip is bitwise (pinned by the tier-1 suite), so
both engines reproduce the evaluator's results bit for bit.

Lifetimes: the register allocator's ``slot_of`` is residual (entries
pop as values die), so it cannot serve as a vid->row map.  Plan build
instead derives every value's lifetime from use counts: a row is
recycled when its value's last use retires, spill STOREs (dest ``-1``)
copy to a dedicated spill row, and reload LOADs (no sources) restore
from it or rematerialize DRAM/const values by name (see
``build_exec_plan``).
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

import numpy as np

from ..core.isa import Opcode
from ..nttmath.batched import get_stacked_plan
from ..nttmath.ntt import conjugation_element, galois_element
from ..nttmath.primes import find_ntt_primes
from .exec_plan import get_exec_plan, plans_built, replay_plan
from .ir import PackedProgram, Program

__all__ = [
    "ExecBindings",
    "ExecutionResult",
    "execute_packed",
    "execute_reference",
    "synthesize_bindings",
]


# ----------------------------------------------------------------------
# Constant resolution
# ----------------------------------------------------------------------
# The lowering emits immediates as ids into Program.const_names; each
# name determines a scalar *per row prime* (the same id appears at many
# moduli).  The grammar below is the complete set HeLowering emits.
_NINV = re.compile(r"ninv\[(\d+)\]$")
_PINV = re.compile(r"pinv\[(\d+)\]$")
_KS_QHATINV = re.compile(r"ks(\d+)\.qhatinv\[(\d+)\]$")
_KS_QHAT = re.compile(r"ks(\d+)\.qhat\[(\d+)\]\[(\d+)\]$")
_MD_QHATINV = re.compile(r"md(\d+)\.qhatinv\[(\d+)\]$")
_MD_QHAT = re.compile(r"md(\d+)\.qhat\[(\d+)\]\[(\d+)\]$")
_RESCALE = re.compile(
    r"rescale\.(half|qinv|negqinv|halfqinv)\[(\d+)\](?:\[(\d+)\])?$")
_BC_QHATINV = re.compile(r"bc(\d+)to(\d+)\.qhatinv\[(\d+)\]$")
_BC_QHAT = re.compile(r"bc(\d+)to(\d+)\.qhat\[(\d+)\]\[(\d+)\]$")


def _hash_int(name: str) -> int:
    """Deterministic 63-bit integer from a name (synthesized operand)."""
    digest = hashlib.sha256(name.encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def _hash_array(name: str, n: int) -> np.ndarray:
    """Deterministic pseudo-random residue row for a DRAM name."""
    rng = np.random.default_rng(_hash_int(name))
    return rng.integers(0, 1 << 30, size=n, dtype=np.int64)


class ExecBindings:
    """Concrete operands for one execution: prime chain + DRAM arrays.

    ``q_primes`` is the full Q chain (``levels + 1`` primes in global
    chain order) and ``p_primes`` the special P chain; instruction
    ``modulus`` columns index this concatenation.  ``dram`` maps value
    names (``"ct.c0[3]"``, ``"relin.b[1][7]"``...) to ``(N,)`` arrays;
    missing names synthesize deterministically from their hash, so a
    timing run needs no setup.  ``scalars`` optionally pins named
    ``scalar[...]`` immediates to integers (reduced per row prime).
    """

    def __init__(self, q_primes, p_primes, n: int, *,
                 dram=None, scalars=None, strict: bool = False):
        self.q = [int(q) for q in q_primes]
        self.p = [int(p) for p in p_primes]
        self.n = int(n)
        self.dram: dict[str, np.ndarray] = dict(dram or {})
        self.scalars: dict[str, int] = dict(scalars or {})
        self.strict = strict
        self._const_cache: dict[tuple[str, int], int] = {}

    # -- prime chain ----------------------------------------------------
    def prime(self, index: int) -> int:
        nq = len(self.q)
        return self.q[index] if index < nq else self.p[index - nq]

    @property
    def p_product(self) -> int:
        prod = 1
        for p in self.p:
            prod *= p
        return prod

    # -- DRAM values ----------------------------------------------------
    def dram_source(self, name: str):
        """The bound value of a named DRAM value, as bound (any dtype
        or layout); a missing name synthesizes (and binds) its row, or
        raises :class:`KeyError` under ``strict``."""
        arr = self.dram.get(name)
        if arr is None:
            if self.strict:
                raise KeyError(f"no binding for DRAM value {name!r}")
            arr = _hash_array(name if name else "<anon>", self.n)
            self.dram[name] = arr
        return arr

    def dram_array(self, name: str, q: int) -> np.ndarray:
        """Canonical ``(N,)`` int64 row for a named DRAM value."""
        return np.remainder(self.dram_source(name), q).astype(
            np.int64, copy=False)

    # -- named constants ------------------------------------------------
    def const_value(self, name: str, q: int) -> int:
        key = (name, q)
        cached = self._const_cache.get(key)
        if cached is None:
            cached = self._resolve(name, q)
            self._const_cache[key] = cached
        return cached

    def _resolve(self, name: str, q: int) -> int:
        qs, ps = self.q, self.p
        if name.startswith("to_nm[") or name.startswith("to_sm["):
            # Montgomery-representation conversions are modeled as
            # explicit unit multiplies (section IV-D5's penalty): the
            # instruction count is real, the value is 1.
            return 1
        m = _NINV.match(name)
        if m:
            return pow(self.n, -1, self.prime(int(m.group(1))))
        m = _PINV.match(name)
        if m:
            return pow(self.p_product % q, -1, q)
        m = _KS_QHATINV.match(name)
        if m:
            l1, jj = int(m.group(1)), int(m.group(2))
            qt = self._digit_qhat(l1, jj)
            return pow(qt % qs[jj], -1, qs[jj])
        m = _KS_QHAT.match(name)
        if m:
            l1, jj = int(m.group(1)), int(m.group(2))
            return self._digit_qhat(l1, jj) % q
        m = _MD_QHATINV.match(name)
        if m:
            mm = int(m.group(2))
            phat = self.p_product // ps[mm]
            return pow(phat % ps[mm], -1, ps[mm])
        m = _MD_QHAT.match(name)
        if m:
            # ModDown folds its subtraction into the BConv weights:
            # the lowering emits `acc + corr`, so the weight is the
            # *negative* P-hat residue.
            mm = int(m.group(2))
            return (-(self.p_product // ps[mm])) % q
        m = _RESCALE.match(name)
        if m:
            kind, lvl = m.group(1), int(m.group(2))
            ql = qs[lvl]
            if kind == "half":
                return (ql // 2) % q
            qinv = pow(ql % q, -1, q)
            if kind == "qinv":
                return qinv
            if kind == "negqinv":
                return (-qinv) % q
            return (ql // 2) * qinv % q          # halfqinv
        m = _BC_QHATINV.match(name)
        if m:
            cnt, j = int(m.group(1)), int(m.group(3))
            qt = self._prefix_qhat(cnt, j)
            return pow(qt % qs[j], -1, qs[j])
        m = _BC_QHAT.match(name)
        if m:
            cnt, j = int(m.group(1)), int(m.group(3))
            return self._prefix_qhat(cnt, j) % q
        if name.startswith("scalar["):
            pinned = self.scalars.get(name)
            if pinned is not None:
                return pinned % q
            return _hash_int(name) % q
        # Unknown name (hand-built programs): deterministic scalar so
        # both engines agree without a registry entry.
        return _hash_int(name) % q

    def _digit_qhat(self, l1: int, jj: int) -> int:
        """Q-hat of chain prime ``jj`` within its key-switch digit at
        level basis size ``l1`` (digits are alpha-wide prefixes)."""
        alpha = len(self.p)
        if alpha == 0:
            raise ValueError("key-switch constants need a P chain")
        lo = (jj // alpha) * alpha
        hi = min(lo + alpha, l1)
        prod = 1
        for idx in range(lo, hi):
            if idx != jj:
                prod *= self.q[idx]
        return prod

    def _prefix_qhat(self, count: int, j: int) -> int:
        """Q-hat of prime ``j`` within the prefix basis q_0..q_{count-1}
        (the standalone ``bconv`` shape used by modulus raising)."""
        prod = 1
        for idx in range(count):
            if idx != j:
                prod *= self.q[idx]
        return prod

    # -- immediates -----------------------------------------------------
    def imm_value(self, imm: int, q: int, const_names, inv_merged) -> int:
        """Resolve an instruction immediate at row prime ``q``.

        Positive ids name registry constants; negative ids come from
        the constant-merge peephole and resolve recursively as the
        product of the two merged immediates (eq. 5's composition)."""
        if imm < 0:
            pair = inv_merged.get(imm)
            if pair is None:
                raise KeyError(f"merged immediate {imm} not in registry")
            a, b = pair
            return (self.imm_value(a, q, const_names, inv_merged)
                    * self.imm_value(b, q, const_names, inv_merged)) % q
        name = const_names.get(imm) if const_names else None
        if name is None:
            return _hash_int(f"const[{imm}]") % q
        return self.const_value(name, q)


def synthesize_bindings(packed, *, bits: int = 30) -> ExecBindings:
    """Deterministic bindings for a program: a fresh NTT-friendly prime
    chain sized from ``prime_meta`` (falling back to the largest
    modulus index used) plus hash-synthesized DRAM rows on demand."""
    meta = getattr(packed, "prime_meta", None)
    if meta is not None:
        q_count, p_count = meta
    else:
        mods = getattr(packed, "modulus", None)
        if isinstance(packed, Program):
            high = max((i.modulus for i in packed.instrs), default=0)
        else:
            high = int(mods.max()) if mods is not None and len(mods) else 0
        q_count, p_count = high + 1, 0
    primes = find_ntt_primes(bits, packed.n, q_count + p_count)
    return ExecBindings(primes[:q_count], primes[q_count:], packed.n)


# ----------------------------------------------------------------------
# Execution results
# ----------------------------------------------------------------------
@dataclass
class ExecutionResult:
    """Outputs plus the execution telemetry the sweep engine records."""

    outputs: dict[int, np.ndarray]
    wall_s: float
    instructions: int
    runs: int
    peak_buffers: int
    #: STORE rows executed (every STORE of a resident value: allocator
    #: spills and program stores alike).
    spill_stores: int = 0
    #: Source-less LOADs served from a stored copy: every reload of a
    #: value some STORE wrote earlier.  That includes a remat reload
    #: (the allocator reloading a clean value from its original
    #: address) of a value a *program* STORE wrote, so this can exceed
    #: ``AllocationStats.spill_reloads``, which counts only values the
    #: allocator itself spilled.
    spill_reloads: int = 0
    #: Whether this execution had to *build* its plan (False when the
    #: plan came from the in-process cache or the ArtifactStore).
    plan_built: bool = False
    #: ``{step label: [wall_s, instructions]}`` when the tracer was
    #: enabled (``REPRO_TRACE=1`` / ``--trace``); ``None`` otherwise.
    profile: dict[str, list] | None = None

    @property
    def mean_run_length(self) -> float:
        # Guarded: an empty instruction stream executes zero runs.
        return self.instructions / self.runs if self.runs else 0.0


# ----------------------------------------------------------------------
# The planned path (default): cached plan build + arena replay
# ----------------------------------------------------------------------
def execute_packed(target, bindings: ExecBindings | None = None
                   ) -> ExecutionResult:
    """Execute a scheduled packed program against the batched engine.

    ``target`` is a :class:`PackedProgram` or a ``CompiledProgram``.
    The stream is compiled once into a cached
    :class:`~repro.compiler.exec_plan.ExecPlan` (content-addressed off
    the program fingerprint + bindings shape, persisted through the
    ArtifactStore when one is active) and then *replayed* against a
    preallocated slot arena; ``wall_s`` covers replay only, which is
    what a steady-state serving loop would pay.  Returns the output
    residue rows keyed by value id, canonical in ``[0, q)``, bitwise
    identical to :func:`execute_reference`.
    """
    packed = getattr(target, "packed", target)
    if not isinstance(packed, PackedProgram):
        raise TypeError(f"cannot execute {type(target).__name__}")
    if bindings is None:
        bindings = synthesize_bindings(packed)
    built_before = plans_built()
    plan = get_exec_plan(packed, bindings)
    outputs, wall, prof = replay_plan(plan, bindings)
    return ExecutionResult(
        outputs=outputs, wall_s=wall, instructions=plan.instructions,
        runs=plan.runs, peak_buffers=plan.peak_live,
        spill_stores=plan.spill_stores,
        spill_reloads=plan.spill_reloads,
        plan_built=plans_built() > built_before, profile=prof)


# ----------------------------------------------------------------------
# Reference interpreter (the execution oracle)
# ----------------------------------------------------------------------
def execute_reference(program: Program,
                      bindings: ExecBindings | None = None
                      ) -> dict[int, np.ndarray]:
    """Naive one-instruction-at-a-time interpreter over the list IR.

    Deliberately shares no dispatch machinery with
    :func:`execute_packed` — no step grouping, no arena, no plan, one
    single-row stacked plan per prime — so agreement between the two
    is evidence about the planned dispatcher, not a tautology.
    """
    if bindings is None:
        bindings = synthesize_bindings(program)
    n = program.n
    const_names = getattr(program, "const_names", None) or {}
    inv_merged = {mid: pair for pair, mid
                  in (getattr(program, "merged_imms", None) or {}).items()}
    values: dict[int, np.ndarray] = {}
    spill: dict[int, np.ndarray] = {}
    engines: dict[int, object] = {}
    reload_source: dict[int, int] = {}
    for ins in program.instrs:
        if ins.op is Opcode.LOAD and ins.srcs:
            reload_source.setdefault(ins.dest, ins.srcs[0])

    def engine(q: int):
        eng = engines.get(q)
        if eng is None:
            eng = get_stacked_plan(n, ((q,),)).ntt
            engines[q] = eng
        return eng

    def fetch(vid: int, q: int) -> np.ndarray:
        arr = values.get(vid)
        if arr is not None:
            return arr
        value = program.values.get(vid)
        if value is not None and value.origin in ("dram", "const"):
            return bindings.dram_array(value.name, q)
        raise KeyError(f"value {vid} used before definition")

    for ins in program.instrs:
        q = bindings.prime(ins.modulus)
        qv = np.uint64(q)
        op = ins.op
        if op is Opcode.MMUL or op is Opcode.MMAD:
            x = fetch(ins.srcs[0], q).astype(np.uint64)
            if len(ins.srcs) == 2:
                y = fetch(ins.srcs[1], q).astype(np.uint64)
            else:
                y = np.uint64(bindings.imm_value(ins.imm, q, const_names,
                                                 inv_merged))
            res = (x * y if op is Opcode.MMUL else x + y) % qv
            values[ins.dest] = res.astype(np.int64)
        elif op is Opcode.MMAC:
            x = fetch(ins.srcs[0], q).astype(np.uint64)
            y = fetch(ins.srcs[1], q).astype(np.uint64)
            z = fetch(ins.srcs[2], q).astype(np.uint64)
            values[ins.dest] = ((x * y + z) % qv).astype(np.int64)
        elif op is Opcode.NTT:
            data = fetch(ins.srcs[0], q)[None, :]
            values[ins.dest] = engine(q).forward(data)[0]
        elif op is Opcode.INTT:
            data = fetch(ins.srcs[0], q)[None, :]
            values[ins.dest] = engine(q).inverse(
                data, scale_by_n_inv=False)[0]
        elif op is Opcode.AUTO:
            elt = (conjugation_element(n) if ins.imm == -1
                   else galois_element(ins.imm, n))
            data = fetch(ins.srcs[0], q)[None, :]
            values[ins.dest] = engine(q).automorphism_ntt(data, elt)[0]
        elif op is Opcode.VCOPY:
            values[ins.dest] = fetch(ins.srcs[0], q).copy()
        elif op is Opcode.LOAD:
            if ins.srcs:
                # A DRAM/const value, or (in a compiled stream) the
                # staging value a user-written LOAD now reads.
                values[ins.dest] = fetch(ins.srcs[0], q).copy()
            else:
                vid = ins.dest
                saved = spill.get(vid)
                if saved is not None:
                    values[vid] = saved.copy()
                    continue
                # Rematerialize from the DRAM origin, chasing
                # load-of-load chains (user LOAD -> staging LOAD).
                src = vid
                while src is not None \
                        and program.values[src].origin == "compute":
                    src = reload_source.get(src)
                if src is None:
                    raise KeyError(f"reload of unspilled value {vid}")
                values[vid] = bindings.dram_array(
                    program.values[src].name, q)
        elif op is Opcode.STORE:
            src = ins.srcs[0]
            arr = values.get(src)
            if arr is not None:
                spill[src] = arr.copy()
        elif op is Opcode.SCALAR:
            values[ins.dest] = np.full(n, ins.imm % q, dtype=np.int64)
        else:  # pragma: no cover - exhaustive over the ISA
            raise NotImplementedError(f"opcode {op} has no reference rule")

    return {vid: values[vid].copy() for vid in sorted(program.outputs)}
