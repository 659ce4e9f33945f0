"""Fused-kernel execution backend: run a PackedProgram for real.

The cycle simulator (:mod:`repro.sim.engine`) prices a scheduled
:class:`~repro.compiler.ir.PackedProgram`; this module *executes* one
against the batched NTT engine, producing actual residue polynomials.
The two share the instruction stream, so predicted cycles and executed
wall time describe the same object — and the executed outputs can be
cross-checked bitwise against :class:`repro.schemes.rns_core.
RnsEvaluatorBase`, which turns the whole compiler into a testable
artifact instead of a cost model.

The default :func:`execute_packed` path is *planned*: a one-time
:class:`~repro.compiler.exec_plan.ExecPlan` (cached in-process and in
the ArtifactStore, keyed off the program fingerprint + bindings
shape) precomputes every run boundary, gather/scatter index array,
prime/immediate column, and slot-arena row assignment, so replay is a
tight loop of fancy-indexed vector expressions and stacked engine
calls.  See :mod:`repro.compiler.exec_plan` for the architecture.

:func:`execute_interpreted` preserves the PR 6 run-vectorized
interpreter as an oracle: consecutive instructions with the same
shape (opcode, source arity, and for AUTO the Galois immediate) are
gathered into one ``(k, N)`` stack and issued as a single numpy
expression or one stacked NTT/iNTT/automorphism, with a dict-keyed
buffer pool recycled through use counts.  It shares no dispatch
machinery with the planned path, so agreement between the two (and
with :func:`execute_reference`) is evidence, not tautology.

Exactness: every engine prime is below 2**31, so ``x * y`` of two
canonical residues fits in 62 bits and ``(x * y + z) % q`` is exact in
uint64 — no Shoup companions needed on this path.  All values are kept
canonical in ``[0, q)``; the NTT engine is Z_q-linear and its
forward/inverse round trip is bitwise (pinned by the tier-1 suite), so
every engine here reproduces the evaluator's results bit for bit.

Buffers: the interpreter is vid-addressed, not slot-addressed — the
register allocator's ``slot_of`` is residual (entries pop as values
die), so it cannot serve as a vid->slot map.  Instead the buffer pool
is preallocated to the allocation's ``peak_slots_used`` and rows are
recycled through a free list as use counts hit zero; spill STOREs
(dest ``-1``) copy to a spill side table, reload LOADs (no sources)
restore from it or rematerialize DRAM/const values by name.  The
planned path applies the same lifetime rules statically to assign
arena rows (see ``build_exec_plan``).
"""

from __future__ import annotations

import hashlib
import re
import time
from dataclasses import dataclass, field

import numpy as np

from ..core.isa import Opcode
from ..nttmath.batched import get_stacked_plan
from ..nttmath.ntt import conjugation_element, galois_element
from ..nttmath.primes import find_ntt_primes
from .exec_plan import get_exec_plan, plans_built, replay_plan
from .ir import OP_INDEX, PackedProgram, Program

__all__ = [
    "ExecBindings",
    "ExecutionResult",
    "execute_interpreted",
    "execute_packed",
    "execute_reference",
    "synthesize_bindings",
]

_MMUL = OP_INDEX[Opcode.MMUL]
_MMAD = OP_INDEX[Opcode.MMAD]
_MMAC = OP_INDEX[Opcode.MMAC]
_NTT = OP_INDEX[Opcode.NTT]
_INTT = OP_INDEX[Opcode.INTT]
_AUTO = OP_INDEX[Opcode.AUTO]
_LOAD = OP_INDEX[Opcode.LOAD]
_STORE = OP_INDEX[Opcode.STORE]
_VCOPY = OP_INDEX[Opcode.VCOPY]
_SCALAR = OP_INDEX[Opcode.SCALAR]

_ELEMENTWISE = (_MMUL, _MMAD, _MMAC)

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
        # both interpreters agree without a registry entry.
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
    spill_stores: int = 0
    spill_reloads: int = 0
    #: Whether this execution had to *build* its plan (False when the
    #: plan came from the in-process cache or the ArtifactStore, and
    #: always False on the interpreted path).
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
    identical to :func:`execute_interpreted` and
    :func:`execute_reference`.
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
# The run-vectorized interpreter (PR 6; kept as an oracle)
# ----------------------------------------------------------------------
def execute_interpreted(target, bindings: ExecBindings | None = None
                        ) -> ExecutionResult:
    """Execute by re-deriving runs and buffers on every call.

    ``target`` is a :class:`PackedProgram` or a ``CompiledProgram``
    (whose allocation stats size the buffer pool).  Returns the output
    residue rows keyed by value id, canonical in ``[0, q)``.  This is
    the PR 6 engine, retained as a differential oracle for the planned
    path and as the baseline for the plan-speedup benchmark.
    """
    packed = getattr(target, "packed", target)
    if not isinstance(packed, PackedProgram):
        raise TypeError(f"cannot execute {type(target).__name__}")
    if bindings is None:
        bindings = synthesize_bindings(packed)

    n = packed.n
    stats = getattr(target, "stats", None)
    peak = getattr(getattr(stats, "alloc", None), "peak_slots_used", 0)

    op_l = packed.op.tolist()
    dest_l = packed.dest.tolist()
    nsrc_l = packed.n_srcs.tolist()
    srcs_l = packed.srcs.tolist()
    mod_l = packed.modulus.tolist()
    imm_l = packed.imm.tolist()
    origin_l = packed.val_origin.tolist()
    names = packed.val_names
    counts = packed.use_counts_array().tolist()
    const_names = packed.const_names or {}
    inv_merged = {mid: pair
                  for pair, mid in (packed.merged_imms or {}).items()}

    # First definition of each LOAD dest: the DRAM/const vid it reads.
    # Remat reloads (clean evictions of load results) re-read this.
    reload_source: dict[int, int] = {}
    for idx, op in enumerate(op_l):
        if op == _LOAD and nsrc_l[idx] == 1:
            reload_source.setdefault(dest_l[idx], srcs_l[idx][0])

    pool = [np.empty(n, dtype=np.int64) for _ in range(peak)]
    buffers: dict[int, np.ndarray] = {}
    spill: dict[int, np.ndarray] = {}
    plans: dict[tuple[int, ...], object] = {}
    live_peak = 0
    spill_stores = spill_reloads = 0
    run_count = 0

    def engine_for(primes: tuple[int, ...]):
        eng = plans.get(primes)
        if eng is None:
            eng = get_stacked_plan(n, tuple((q,) for q in primes)).ntt
            plans[primes] = eng
        return eng

    def define(vid: int) -> np.ndarray:
        buf = buffers.get(vid)
        if buf is None:
            buf = pool.pop() if pool else np.empty(n, dtype=np.int64)
            buffers[vid] = buf
        return buf

    def consume(vid: int) -> None:
        left = counts[vid] = counts[vid] - 1
        if left == 0:
            buf = buffers.pop(vid, None)
            if buf is not None:
                pool.append(buf)

    def fetch(vid: int, q: int) -> np.ndarray:
        buf = buffers.get(vid)
        if buf is not None:
            return buf
        if origin_l[vid] != 0:           # dram / const read in place
            return bindings.dram_array(names[vid], q)
        raise KeyError(
            f"value {vid} used before definition (op stream corrupt?)")

    rows = len(op_l)
    t0 = time.perf_counter()
    idx = 0
    while idx < rows:
        op = op_l[idx]

        if op in _ELEMENTWISE:
            # Grow a maximal same-shape run with no internal RAW edge.
            arity = nsrc_l[idx]
            run = [idx]
            run_dests = {dest_l[idx]}
            j = idx + 1
            while j < rows and op_l[j] == op and nsrc_l[j] == arity:
                if any(s in run_dests for s in srcs_l[j][:arity]):
                    break
                run.append(j)
                run_dests.add(dest_l[j])
                j += 1
            k = len(run)
            primes = [bindings.prime(mod_l[r]) for r in run]
            q_col = np.array(primes, dtype=np.uint64).reshape(k, 1)
            gathered = []
            for pos in range(arity):
                x = np.empty((k, n), dtype=np.uint64)
                for r, row in enumerate(run):
                    x[r] = fetch(srcs_l[row][pos], primes[r])
                gathered.append(x)
            if op == _MMAC:
                res = (gathered[0] * gathered[1] + gathered[2]) % q_col
            else:
                if arity == 2:
                    other = gathered[1]
                else:
                    imm_col = np.array(
                        [bindings.imm_value(imm_l[row], primes[r],
                                            const_names, inv_merged)
                         for r, row in enumerate(run)],
                        dtype=np.uint64).reshape(k, 1)
                    other = imm_col
                if op == _MMUL:
                    res = (gathered[0] * other) % q_col
                else:
                    res = (gathered[0] + other) % q_col
            res = res.astype(np.int64, copy=False)
            for r, row in enumerate(run):
                define(dest_l[row])[:] = res[r]
            for row in run:
                for s in srcs_l[row][:arity]:
                    consume(s)
            idx = j

        elif op in (_NTT, _INTT, _AUTO):
            imm0 = imm_l[idx]
            run = [idx]
            run_dests = {dest_l[idx]}
            j = idx + 1
            while j < rows and op_l[j] == op \
                    and (op != _AUTO or imm_l[j] == imm0):
                if srcs_l[j][0] in run_dests:
                    break
                run.append(j)
                run_dests.add(dest_l[j])
                j += 1
            k = len(run)
            primes = tuple(bindings.prime(mod_l[r]) for r in run)
            data = np.empty((k, n), dtype=np.int64)
            for r, row in enumerate(run):
                data[r] = fetch(srcs_l[row][0], primes[r])
            eng = engine_for(primes)
            if op == _NTT:
                out = eng.forward(data)
            elif op == _INTT:
                # IR iNTT is raw: the 1/N fold is an explicit multiply.
                out = eng.inverse(data, scale_by_n_inv=False)
            else:
                elt = (conjugation_element(n) if imm0 == -1
                       else galois_element(imm0, n))
                out = eng.automorphism_ntt(data, elt)
            for r, row in enumerate(run):
                define(dest_l[row])[:] = out[r]
            for row in run:
                consume(srcs_l[row][0])
            idx = j

        elif op == _LOAD:
            q = bindings.prime(mod_l[idx])
            vid = dest_l[idx]
            if nsrc_l[idx] == 1:
                # The source is either a DRAM/const value or — for a
                # user-written LOAD whose operand the legalizer routed
                # through a staging load — a live compute value.
                # ``fetch`` handles both.
                src = srcs_l[idx][0]
                define(vid)[:] = fetch(src, q)
                consume(src)
            else:
                # Reload: spilled copy, else rematerialize by name.
                saved = spill.get(vid)
                if saved is not None:
                    define(vid)[:] = saved
                    spill_reloads += 1
                elif origin_l[vid] != 0:
                    define(vid)[:] = bindings.dram_array(names[vid], q)
                else:
                    # Chase load-of-load chains (user LOAD -> staging
                    # LOAD -> dram value) down to the external origin.
                    src = reload_source.get(vid)
                    while src is not None and origin_l[src] == 0:
                        src = reload_source.get(src)
                    if src is None:
                        raise KeyError(
                            f"reload of value {vid}: never spilled and "
                            f"no DRAM origin to rematerialize")
                    define(vid)[:] = bindings.dram_array(names[src], q)
            run_count += 1
            idx += 1
            live_peak = max(live_peak, len(buffers))
            continue

        elif op == _STORE:
            src = srcs_l[idx][0]
            buf = buffers.get(src)
            if buf is not None:
                spill[src] = buf.copy()
                spill_stores += 1
            consume(src)
            run_count += 1
            idx += 1
            continue

        elif op == _VCOPY:
            q = bindings.prime(mod_l[idx])
            src = srcs_l[idx][0]
            value = fetch(src, q)
            define(dest_l[idx])[:] = value
            consume(src)
            run_count += 1
            idx += 1
            live_peak = max(live_peak, len(buffers))
            continue

        elif op == _SCALAR:
            q = bindings.prime(mod_l[idx])
            define(dest_l[idx]).fill(imm_l[idx] % q)
            run_count += 1
            idx += 1
            live_peak = max(live_peak, len(buffers))
            continue

        else:
            raise NotImplementedError(
                f"opcode {packed.op[idx]} has no execution rule")

        run_count += 1
        live_peak = max(live_peak, len(buffers))

    outputs: dict[int, np.ndarray] = {}
    for vid in packed.outputs.tolist():
        buf = buffers.get(vid)
        if buf is None:
            raise KeyError(f"output value {vid} was never materialized")
        outputs[vid] = buf.copy()
    wall = time.perf_counter() - t0

    return ExecutionResult(
        outputs=outputs, wall_s=wall, instructions=rows, runs=run_count,
        peak_buffers=live_peak, spill_stores=spill_stores,
        spill_reloads=spill_reloads)


# ----------------------------------------------------------------------
# Reference interpreter (the fuzzer's second oracle)
# ----------------------------------------------------------------------
def execute_reference(program: Program,
                      bindings: ExecBindings | None = None
                      ) -> dict[int, np.ndarray]:
    """Naive one-instruction-at-a-time interpreter over the list IR.

    Deliberately shares no dispatch machinery with
    :func:`execute_packed` or :func:`execute_interpreted` — no run
    grouping, no buffer pool, no plan, one single-row stacked plan per
    prime — so agreement between the engines is evidence about the
    vectorized dispatchers, not a tautology.
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
                src = ins.srcs[0]
                values[ins.dest] = bindings.dram_array(
                    program.values[src].name, q)
            else:
                vid = ins.dest
                saved = spill.get(vid)
                if saved is not None:
                    values[vid] = saved.copy()
                else:
                    value = program.values.get(vid)
                    if value is not None and value.origin != "compute":
                        values[vid] = bindings.dram_array(value.name, q)
                    elif vid in reload_source:
                        src = reload_source[vid]
                        values[vid] = bindings.dram_array(
                            program.values[src].name, q)
                    else:
                        raise KeyError(f"reload of unspilled value {vid}")
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
