"""Precompiled execution plans: build once, replay many times.

The instruction stream is *static* — the paper's whole premise — so
every per-execution analysis (step boundaries, prime columns, gather
indices, value lifetimes) is hoisted into a one-time
:class:`ExecPlan`:

* **Plan build** (:func:`build_exec_plan`) walks the scheduled stream
  once, deriving value lifetimes from use counts and following the
  stream's spill/reload/remat decisions, to assign every value a row
  in a single ``(arena_rows, N)`` uint32 **slot arena**, and emits a
  short list of vectorized steps carrying precomputed numpy index
  arrays:
  elementwise steps (``(x op y) % q_col`` over gathered arena rows,
  with MUL/ADD rows of equal arity merged into one masked step and
  MAC runs fused as ``(x*y+z) % q_col``), stacked NTT/iNTT/AUTO
  steps, arena row copies (VCOPY / spill stores / spill reloads /
  staging loads), batched named-DRAM loads, and scalar fills.  The
  sealed steps are then rescheduled by dataflow wavefronts
  (:func:`_merge_steps`) — build uses fresh SSA-style rows so only
  true RAW chains constrain the schedule — and finally renamed onto a
  compact arena by a linear-scan pass (:func:`_compact_rows`).
* **Plan replay** (:func:`replay_plan`) runs those steps in order.
  With the native library loaded (:mod:`repro.nttmath.native`), an
  untraced replay is one ``replay_steps`` call for the whole plan: it
  reads flat tables built from the plan at its first replay and never
  serialized (:class:`_ReplayTable`: one row per step, every step's
  lanes in one int64 array, the uint32 twiddles of the plan's distinct
  FFT primes, its distinct automorphism permutations, and the
  addresses of the bound DRAM rows), and runs each elementwise step,
  NTT / raw iNTT / automorphism, row copy, DRAM load and scalar fill
  straight over the arena.  A step the kernel must not run (below) is
  handed back: :func:`_exec_step` runs it with numpy — fancy-index
  gather → one vector expression or one stacked
  :class:`~repro.nttmath.batched.BatchedNTT` call → fancy-index
  scatter — and the kernel resumes at the next step.  Without the
  library every step runs that numpy body, which stays the oracle.  A
  traced replay makes the same calls and hands the kernel a buffer
  that receives each step's end time (``CLOCK_MONOTONIC``, the clock
  ``perf_counter`` reads), from which every step keeps its span.

The arena: every value a plan writes is a residue mod a chain prime
(elementwise results ``% q``, fills ``imm % q``, DRAM loads reduced
mod q, canonical NTT outputs), so with every prime below 2**31 each
fits a uint32, and the arena holds half the bytes an int64 one would:
replay is bound by the bytes it moves.  :func:`build_exec_plan` and
:func:`get_exec_plan` refuse a program over a prime outside
``[1, 2**31)`` with :class:`ArenaModulusError` before any step runs;
:func:`~repro.compiler.exec_backend.execute_reference` keeps its own
int64 values and takes any modulus.  :meth:`ExecPlan.arena` is
64-byte aligned, so each row of a ring degree of 16 or more starts on
a cache line; :func:`replay_plan` returns the outputs as int64 rows.

Exactness: the numpy body computes in uint64 over the gathered uint32
rows (``x * y + z < 2**64`` for any three uint32 values; mixing
int64 with uint64 would promote to float64), so it is exact for
*every* arena value, and replay is bitwise-identical to
``execute_reference`` (pinned by the fuzzer and oracle suites).  The
native steps equal the numpy expressions for every arena value and
every int64 DRAM value (exact uint64 products and sums, numpy's floor
modulo for DRAM rows, FFT inputs reduced mod q as the engine's
reducing entries do), so they need no precondition beyond the
lane-table rule: a step gets lanes (:func:`_ew_lanes`,
:func:`_fft_lanes`, :func:`_move_lanes`, :func:`_dram_lanes`,
:func:`_fill_lanes`) only when all its rows lie inside the arena and,
for steps that read arena rows, no two lanes write one row and no row
is both read and written by the step, which makes lane-by-lane
in-place execution equal numpy's gather-then-scatter.  Elementwise
and DRAM moduli must lie in ``[1, 2**32)`` and immediates in
``[0, 2**32)``, so every result the kernel writes fits the arena.
FFT lanes also need a table for every prime (NTT friendly and below
the native NTT rows' 2^30 bound), and a DRAM step runs in C only when
each binding is an aligned C-contiguous int64 row outside the arena.
The kernel re-checks every step before writing any of it and hands
back any it refuses.

Canonical-range fast path: plan steps only ever read residues below
2^31 over moduli below 2^31, so the kernel runs an elementwise or DRAM
lane over q in [2, 2^31) through a vectorized loop whenever every
value the lane reads (its rows and its immediate) lies in [0, 2^k),
k = q.bit_length(): products and MACs (below 2^(2k)) reduce by a
Barrett step with mu = floor(2^(2k) / q) and two conditional
subtractions, every factor of its three products below 2**32;
sums by two 32-bit conditional subtractions, DRAM rows by one.
The check rides in the same pass (the OR of every value read, shifted
right by k, is 0; a negative DRAM value sets bit 63).  A lane that
fails it is rerun by the exact loop (a uint64 reduction of the exact
value; floor modulo for DRAM rows), which overwrites its out row: safe
because the lane-table rule already keeps a step from reading a row it
writes.  So no plan has to prove its inputs canonical, and no table
carries a flag for it.  The multiplying lanes take the fast loop only
where the kernel's AVX-512 clone runs (``CANON_MUL()`` in ``ntt.c``):
GCC vectorizes each product as a full 64-bit multiply, which only
AVX-512 runs faster than the scalar exact loop (re-timed over the
uint32 arena: AVX2 0.8x, SSE2 0.45-0.55x of it).

Aliasing: a staging LOAD or VCOPY whose live source dies at that use
and whose dest is fresh just *transfers* the arena row — zero replay
cost.  This is safe because a copy-then-free would leave the same
bits in a row the dest exclusively owns.  Within a step,
gathers complete before scatters (fancy indexing copies), and the
compaction pass never hands a physical row to a new value while any
step still reads it, so replay order plus renaming can never alias a
live value.

Caching: plans are content-addressed off ``(program fingerprint,
names fingerprint, bindings token)`` — the structural hash alone is
not enough because the plan bakes in DRAM value *names* (which
``fingerprint()`` deliberately ignores) and the concrete prime chain
(which determines the precomputed immediate columns).  The
in-process cache is bounded and registered with
:func:`repro.nttmath.batched.clear_caches`; plans also persist
through the :class:`~repro.exp.store.ArtifactStore` (schema v3) so a
store-warm sweep point skips compile, simulate, *and* plan build.
"""

from __future__ import annotations

from collections import OrderedDict
from operator import attrgetter
from time import perf_counter

import numpy as np

from ..core.env import ENV_VERIFY, env_flag
from ..core.isa import Opcode
from ..nttmath import native
from ..nttmath.batched import (
    BatchedNTT,
    get_stacked_plan,
    ntt_automorphism_index,
    register_cache_clearer,
)
from ..nttmath.ntt import conjugation_element, galois_element
from ..obs import TRACER
from .ir import OP_INDEX, PackedProgram
from .verify import hazard_edges, raise_on, verify_plan

__all__ = [
    "ArenaModulusError",
    "ExecPlan",
    "PlanStep",
    "build_exec_plan",
    "clear_exec_plan_cache",
    "get_exec_plan",
    "plan_from_payload",
    "plan_to_payload",
    "plans_built",
    "replay_plan",
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
_FFT = (_NTT, _INTT, _AUTO)

#: Every prime a plan runs over lies below this bound, so each residue
#: fits the uint32 slot arena (:class:`ArenaModulusError`).
_ARENA_Q_BOUND = 1 << 31
#: Bytes the arena rows start on (a cache line).
_ARENA_ALIGN = 64


class ArenaModulusError(ValueError):
    """A program runs over a prime whose residues the uint32 slot arena
    cannot hold (outside ``[1, 2**31)``); raised at plan build, before
    any step runs.  ``prime`` is the modulus and ``index`` its index in
    the bindings' ``q + p`` chain."""

    def __init__(self, prime: int, index: int):
        super().__init__(
            f"prime {prime} (chain index {index}) lies outside "
            f"[1, 2**31): the uint32 slot arena of a planned replay "
            f"holds residues of moduli below 2**31 only "
            f"(execute_reference takes any modulus)")
        self.prime = prime
        self.index = index


#: Step kinds (stable small ints; persisted in store payloads).
K_EW = 0      # masked elementwise: (x*y | x+y | x*y+z) % q_col
K_FFT = 1     # stacked NTT / iNTT / automorphism
K_COPY = 2    # arena row copies (vcopy, spill store/reload, staging)
K_DRAM = 3    # batched named-DRAM loads into arena rows
K_FILL = 4    # scalar fills


class PlanStep:
    """One vectorized replay step; which fields are live depends on
    ``kind`` (see module docstring).  ``engine`` is derived lazily
    when numpy replays an FFT step and never serialized."""

    __slots__ = ("kind", "label", "n_instrs", "out", "a", "b", "c",
                 "q_col", "imm_col", "mask", "mul", "nsrc",
                 "fft", "elt", "primes", "engine",
                 "names", "qs", "vals")

    def __init__(self, kind: int, label: str, n_instrs: int = 0):
        self.kind = kind
        self.label = label
        self.n_instrs = n_instrs
        self.out = None       # dest rows: int64 array (or list pre-seal)
        self.a = None         # first-source rows
        self.b = None         # second-source rows (EW arity >= 2)
        self.c = None         # third-source rows (MAC)
        self.q_col = None     # (k, 1) int64 per-row primes (EW)
        self.imm_col = None   # (k, 1) int64 resolved immediates (EW/1)
        self.mask = None      # (k, 1) bool: True rows multiply (mixed)
        self.mul = None       # homogeneous EW: True=MMUL, False=MMAD
        self.nsrc = 0         # EW source arity
        self.fft = 0          # 0=NTT, 1=iNTT, 2=AUTO
        self.elt = 0          # Galois element (AUTO)
        self.primes = None    # per-row primes tuple (FFT engine key)
        self.engine = None    # lazily-resolved stacked NTT engine
        self.names = None     # DRAM value names (K_DRAM)
        self.qs = None        # per-entry reduction primes (K_DRAM)
        self.vals = None      # (k, 1) int64 fill values (K_FILL)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"PlanStep({self.label!r}, kind={self.kind}, "
                f"instrs={self.n_instrs})")


class ExecPlan:
    """A replayable vector program over a preallocated slot arena."""

    __slots__ = ("n", "key", "steps", "arena_rows", "instructions",
                 "runs", "peak_live", "spill_stores", "spill_reloads",
                 "output_rows", "free_instrs", "_arena", "_table",
                 "_traffic")

    def __init__(self, n: int):
        self.n = n
        self.key = None
        self.steps: list[PlanStep] = []
        self.arena_rows = 0
        self.instructions = 0
        self.runs = 0
        self.peak_live = 0
        self.spill_stores = 0
        self.spill_reloads = 0
        #: ``[(vid, arena_row), ...]`` for the program outputs.
        self.output_rows: list[tuple[int, int]] = []
        #: Instructions that cost nothing at replay (aliased loads,
        #: stores of never-materialized values), by label.
        self.free_instrs: dict[str, int] = {}
        self._arena = None
        #: The native replay tables, built at first native replay.
        self._table = None
        #: (rows read, rows written) per replay (:func:`_row_traffic`).
        self._traffic = None

    def arena(self) -> np.ndarray:
        """The plan's reusable ``(arena_rows, N)`` uint32 scratch, its
        first row on a 64-byte boundary."""
        if self._arena is None or self._arena.shape[0] < self.arena_rows:
            size = self.arena_rows * self.n * 4
            block = np.empty(size + _ARENA_ALIGN, dtype=np.uint8)
            off = -native.address(block) % _ARENA_ALIGN
            self._arena = block[off:off + size].view(np.uint32).reshape(
                self.arena_rows, self.n)
        return self._arena

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"ExecPlan({self.instructions} instrs -> "
                f"{len(self.steps)} steps, arena={self.arena_rows})")


# ----------------------------------------------------------------------
# Plan build
# ----------------------------------------------------------------------
def _check_arena_moduli(packed: PackedProgram, bindings) -> None:
    """Raise :class:`ArenaModulusError` for the first chain prime the
    program runs over that lies outside ``[1, 2**31)``."""
    for index in np.unique(packed.modulus).tolist():
        q = bindings.prime(index)
        if not 1 <= q < _ARENA_Q_BOUND:
            raise ArenaModulusError(q, index)


def build_exec_plan(packed: PackedProgram, bindings) -> ExecPlan:
    """Walk the scheduled stream once and emit a replayable plan.

    Values live until their use count reaches zero; spill STOREs copy
    to a dedicated spill row, source-less reload LOADs restore from it
    or rematerialize from the value's DRAM origin, and DRAM operands
    are fetched in place and re-reduced at each use-site prime, so
    replay is bitwise-identical to :func:`~repro.compiler.exec_backend.
    execute_reference`.  Raises :class:`ArenaModulusError` when a prime
    the program runs over lies outside ``[1, 2**31)``.
    """
    if not isinstance(packed, PackedProgram):
        raise TypeError(f"cannot plan {type(packed).__name__}")
    _check_arena_moduli(packed, bindings)
    n = packed.n
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

    reload_source: dict[int, int] = {}
    for i, op in enumerate(op_l):
        if op == _LOAD and nsrc_l[i] == 1:
            reload_source.setdefault(dest_l[i], srcs_l[i][0])

    plan = ExecPlan(n)
    steps = plan.steps
    slot: dict[int, int] = {}        # vid -> virtual row
    # Build-time rows are *virtual* and never recycled: a fresh row per
    # write keeps the step dependency DAG free of WAR/WAW edges from
    # row reuse, so the wavefront scheduler (_merge_steps) reaches full
    # dataflow width.  _compact_rows renames the merged schedule back
    # onto a small physical arena afterwards.
    spill_row: dict[int, int] = {}   # vid -> dedicated spill row
    spilled: set[int] = set()        # vids with a live spill copy
    hi = 0                           # virtual-row high-water mark
    peak_live = 0

    def alloc() -> int:
        nonlocal hi
        row = hi
        hi += 1
        return row

    def define(vid: int) -> int:
        nonlocal peak_live
        row = slot.get(vid)
        if row is None:
            row = alloc()
            slot[vid] = row
            if len(slot) > peak_live:
                peak_live = len(slot)
        return row

    def consume(vid: int) -> None:
        left = counts[vid] = counts[vid] - 1
        if left == 0:
            slot.pop(vid, None)

    def count_free(label: str) -> None:
        plan.free_instrs[label] = plan.free_instrs.get(label, 0) + 1

    # -- mergeable trailing step (COPY / DRAM / FILL singles) ----------
    open_step: list = [None]
    open_srcs: set[int] = set()
    open_dsts: set[int] = set()

    def close_open() -> None:
        open_step[0] = None
        open_srcs.clear()
        open_dsts.clear()

    def emit_copy(src_row: int, dst_row: int, label: str) -> None:
        st = open_step[0]
        if (st is None or st.kind != K_COPY or st.label != label
                or src_row in open_dsts or dst_row in open_dsts
                or dst_row in open_srcs):
            close_open()
            st = PlanStep(K_COPY, label)
            st.a, st.out = [], []
            steps.append(st)
            open_step[0] = st
        st.a.append(src_row)
        st.out.append(dst_row)
        st.n_instrs += 1
        open_srcs.add(src_row)
        open_dsts.add(dst_row)

    def emit_dram(dst_row: int, name: str, q: int, label: str) -> None:
        st = open_step[0]
        if (st is None or st.kind != K_DRAM or st.label != label
                or dst_row in open_dsts or dst_row in open_srcs):
            close_open()
            st = PlanStep(K_DRAM, label)
            st.out, st.names, st.qs = [], [], []
            steps.append(st)
            open_step[0] = st
        st.out.append(dst_row)
        st.names.append(name)
        st.qs.append(q)
        st.n_instrs += 1
        open_dsts.add(dst_row)

    def emit_fill(dst_row: int, value: int) -> None:
        st = open_step[0]
        if (st is None or st.kind != K_FILL
                or dst_row in open_dsts or dst_row in open_srcs):
            close_open()
            st = PlanStep(K_FILL, "scalar")
            st.out, st.vals = [], []
            steps.append(st)
            open_step[0] = st
        st.out.append(dst_row)
        st.vals.append(value)
        st.n_instrs += 1
        open_dsts.add(dst_row)

    # -- run assembly (elementwise and FFT) ----------------------------
    def source_rows(run, primes, arity):
        """Arena rows for every source of a run, materializing DRAM
        values into per-step temp rows (deduped by ``(vid, q)`` —
        in-place fetches re-reduce at the use-site prime, so the same
        vid at two moduli is two different arrays)."""
        dram_cache: dict[tuple[int, int], int] = {}
        dram_entries: list[tuple[int, str, int]] = []
        cols = [[0] * len(run) for _ in range(arity)]
        for r, row in enumerate(run):
            q = primes[r]
            ss = srcs_l[row]
            for pos in range(arity):
                vid = ss[pos]
                rr = slot.get(vid)
                if rr is None:
                    if origin_l[vid] != 0:
                        ck = (vid, q)
                        rr = dram_cache.get(ck)
                        if rr is None:
                            rr = alloc()
                            dram_cache[ck] = rr
                            dram_entries.append((rr, names[vid], q))
                    else:
                        raise KeyError(
                            f"value {vid} used before definition "
                            f"(op stream corrupt?)")
                cols[pos][r] = rr
        return cols, dram_entries

    def flush_run_dram(dram_entries) -> None:
        if not dram_entries:
            return
        st = PlanStep(K_DRAM, "load-dram")
        st.out = [row for row, _, _ in dram_entries]
        st.names = [name for _, name, _ in dram_entries]
        st.qs = [q for _, _, q in dram_entries]
        steps.append(st)

    rows = len(op_l)
    idx = 0
    while idx < rows:
        op = op_l[idx]

        if op in _ELEMENTWISE:
            # Grow a maximal equal-arity run with no internal RAW edge.
            # MMUL and MMAD rows merge freely (a mask column picks the
            # expression); MMAC rows (arity 3) merge with each other.
            arity = nsrc_l[idx]
            run = [idx]
            run_dests = {dest_l[idx]}
            j = idx + 1
            while j < rows and op_l[j] in _ELEMENTWISE \
                    and nsrc_l[j] == arity:
                if any(s in run_dests for s in srcs_l[j][:arity]):
                    break
                run.append(j)
                run_dests.add(dest_l[j])
                j += 1
            close_open()
            k = len(run)
            primes = [bindings.prime(mod_l[r]) for r in run]
            cols, dram_entries = source_rows(run, primes, arity)
            st = PlanStep(K_EW, "", n_instrs=k)
            st.nsrc = arity
            st.q_col = np.array(primes, dtype=np.int64).reshape(k, 1)
            if arity == 1:
                st.imm_col = np.array(
                    [bindings.imm_value(imm_l[row], primes[r],
                                        const_names, inv_merged)
                     for r, row in enumerate(run)],
                    dtype=np.int64).reshape(k, 1)
            ops = [op_l[r] for r in run]
            if arity == 3:
                st.label = "mmac"
            else:
                muls = [o == _MMUL for o in ops]
                if all(muls):
                    st.mul, st.label = True, "mmul"
                elif not any(muls):
                    st.mul, st.label = False, "mmad"
                else:
                    st.mask = np.array(muls, dtype=bool).reshape(k, 1)
                    st.label = "mmul+mmad"
            st.out = np.array([define(dest_l[r]) for r in run],
                              dtype=np.int64)
            st.a = np.array(cols[0], dtype=np.int64)
            if arity >= 2:
                st.b = np.array(cols[1], dtype=np.int64)
            if arity == 3:
                st.c = np.array(cols[2], dtype=np.int64)
            for row in run:
                for s in srcs_l[row][:arity]:
                    consume(s)
            flush_run_dram(dram_entries)
            steps.append(st)
            idx = j

        elif op in _FFT:
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
            close_open()
            k = len(run)
            primes = [bindings.prime(mod_l[r]) for r in run]
            cols, dram_entries = source_rows(run, primes, 1)
            st = PlanStep(K_FFT, "", n_instrs=k)
            st.primes = tuple(primes)
            if op == _NTT:
                st.fft, st.label = 0, "ntt"
            elif op == _INTT:
                st.fft, st.label = 1, "intt"
            else:
                st.fft, st.label = 2, "auto"
                st.elt = (conjugation_element(n) if imm0 == -1
                          else galois_element(imm0, n))
            st.out = np.array([define(dest_l[r]) for r in run],
                              dtype=np.int64)
            st.a = np.array(cols[0], dtype=np.int64)
            for row in run:
                consume(srcs_l[row][0])
            flush_run_dram(dram_entries)
            steps.append(st)
            idx = j

        elif op == _LOAD:
            q = bindings.prime(mod_l[idx])
            vid = dest_l[idx]
            if nsrc_l[idx] == 1:
                src = srcs_l[idx][0]
                src_r = slot.get(src)
                if src_r is not None:
                    # Live compute value (staging load).  If this is
                    # its last use and the dest is fresh, transfer the
                    # arena row instead of copying.
                    if counts[src] == 1 and vid != src \
                            and slot.get(vid) is None:
                        slot[vid] = slot.pop(src)
                        counts[src] = 0
                        count_free("load (aliased)")
                    else:
                        emit_copy(src_r, define(vid), "load-copy")
                        consume(src)
                elif origin_l[src] != 0:
                    emit_dram(define(vid), names[src], q, "load-dram")
                    consume(src)
                else:
                    raise KeyError(
                        f"value {src} used before definition "
                        f"(op stream corrupt?)")
            else:
                # Reload: spilled copy, else rematerialize by name.
                if vid in spilled:
                    emit_copy(spill_row[vid], define(vid),
                              "spill-reload")
                    plan.spill_reloads += 1
                elif origin_l[vid] != 0:
                    emit_dram(define(vid), names[vid], q, "remat")
                else:
                    src = reload_source.get(vid)
                    while src is not None and origin_l[src] == 0:
                        src = reload_source.get(src)
                    if src is None:
                        raise KeyError(
                            f"reload of value {vid}: never spilled and "
                            f"no DRAM origin to rematerialize")
                    emit_dram(define(vid), names[src], q, "remat")
            idx += 1

        elif op == _STORE:
            src = srcs_l[idx][0]
            src_r = slot.get(src)
            if src_r is not None:
                sp = spill_row.get(src)
                if sp is None:
                    sp = alloc()       # dedicated, never recycled
                    spill_row[src] = sp
                emit_copy(src_r, sp, "spill-store")
                spilled.add(src)
                plan.spill_stores += 1
            else:
                count_free("store (no-op)")
            consume(src)
            idx += 1

        elif op == _VCOPY:
            q = bindings.prime(mod_l[idx])
            src = srcs_l[idx][0]
            vid = dest_l[idx]
            src_r = slot.get(src)
            if src_r is not None:
                if counts[src] == 1 and vid != src \
                        and slot.get(vid) is None:
                    slot[vid] = slot.pop(src)
                    counts[src] = 0
                    count_free("vcopy (aliased)")
                else:
                    emit_copy(src_r, define(vid), "vcopy")
                    consume(src)
            elif origin_l[src] != 0:
                emit_dram(define(vid), names[src], q, "load-dram")
                consume(src)
            else:
                raise KeyError(
                    f"value {src} used before definition "
                    f"(op stream corrupt?)")
            idx += 1

        elif op == _SCALAR:
            q = bindings.prime(mod_l[idx])
            emit_fill(define(dest_l[idx]), imm_l[idx] % q)
            idx += 1

        else:
            raise NotImplementedError(
                f"opcode {packed.op[idx]} has no execution rule")

    close_open()

    for vid in packed.outputs.tolist():
        row = slot.get(vid)
        if row is None:
            raise KeyError(f"output value {vid} was never materialized")
        plan.output_rows.append((vid, row))

    # Seal: list payloads become index arrays.
    for st in steps:
        if st.kind in (K_COPY, K_FILL):
            st.out = np.array(st.out, dtype=np.int64)
            if st.kind == K_COPY:
                st.a = np.array(st.a, dtype=np.int64)
            else:
                st.vals = np.array(st.vals,
                                   dtype=np.int64).reshape(-1, 1)
        elif st.kind == K_DRAM:
            st.out = [int(r) for r in st.out]

    plan.steps = _merge_steps(steps)
    plan.instructions = rows
    plan.runs = len(plan.steps)
    plan.peak_live = peak_live
    _compact_rows(plan, hi)
    return plan


# ----------------------------------------------------------------------
# Step merging (wavefront scheduling over the step dependency DAG)
# ----------------------------------------------------------------------
def _step_rows(st: PlanStep) -> tuple[set[int], set[int]]:
    """``(reads, writes)`` arena-row sets of a sealed step."""
    if st.kind == K_EW:
        reads = set(st.a.tolist())
        if st.b is not None:
            reads.update(st.b.tolist())
        if st.c is not None:
            reads.update(st.c.tolist())
        return reads, set(st.out.tolist())
    if st.kind in (K_FFT, K_COPY):
        return set(st.a.tolist()), set(st.out.tolist())
    if st.kind == K_DRAM:
        return set(), set(st.out)
    return set(), set(st.out.tolist())            # K_FILL


def _ew_mask(st: PlanStep) -> np.ndarray:
    if st.mask is not None:
        return st.mask
    return np.full((len(st.out), 1), bool(st.mul), dtype=bool)


def _merge_into(dst: PlanStep, src: PlanStep) -> None:
    """Append ``src``'s rows to ``dst`` (same kind, compatible)."""
    if dst.kind == K_EW and dst.nsrc < 3 and dst.mul != src.mul:
        # Mixed MUL/ADD: switch to the masked expression.
        dst.mask = np.vstack((_ew_mask(dst), _ew_mask(src)))
        dst.mul = None
        dst.label = "mmul+mmad"
    elif dst.kind == K_EW and dst.mask is not None:
        dst.mask = np.vstack((dst.mask, _ew_mask(src)))
    if dst.kind == K_DRAM:
        dst.out = dst.out + src.out
        dst.names = dst.names + src.names
        dst.qs = dst.qs + src.qs
    else:
        dst.out = np.concatenate((dst.out, src.out))
        if dst.a is not None:
            dst.a = np.concatenate((dst.a, src.a))
        if dst.b is not None:
            dst.b = np.concatenate((dst.b, src.b))
        if dst.c is not None:
            dst.c = np.concatenate((dst.c, src.c))
        if dst.q_col is not None:
            dst.q_col = np.vstack((dst.q_col, src.q_col))
        if dst.imm_col is not None:
            dst.imm_col = np.vstack((dst.imm_col, src.imm_col))
        if dst.vals is not None:
            dst.vals = np.vstack((dst.vals, src.vals))
        if dst.kind == K_FFT:
            dst.primes = dst.primes + src.primes
            dst.engine = None                     # key changed
    dst.n_instrs += src.n_instrs


def _class_key(st: PlanStep):
    if st.kind == K_EW:
        return (K_EW, st.nsrc)
    if st.kind == K_FFT:
        return (K_FFT, st.fft, st.elt)
    if st.kind in (K_COPY, K_DRAM):
        return (st.kind, st.label)
    return (K_FILL,)


def _merge_steps(steps: list[PlanStep]) -> list[PlanStep]:
    """Reschedule the sealed stream by dataflow wavefronts and merge
    each wavefront's compatible steps — run growth that in-order
    execution cannot do.

    Scheduled streams interleave, say, one NTT per conv diagonal with
    the MAC that consumes it; in program order every NTT run has length
    one, and a local hoisting pass cannot widen it either, because an
    NTT can never move above the rotation that produced its input even
    though its merge target sits further up.  Replay order only has to
    respect dataflow, which on a sealed plan is fully visible as
    arena-row read/write sets.  So build the step dependency DAG
    (RAW/WAR/WAW edges via last-writer/reader tracking per row), then
    list-schedule it in wavefronts: every step whose predecessors have
    all executed is *ready*, and ready steps are pairwise independent
    by construction — any row conflict between two steps puts an edge
    between them.  Each wavefront emits one merged step per
    compatibility class.  The payoff is wide stacked FFT calls, one
    big up-front DRAM gather, and long masked elementwise steps
    instead of hundreds of single-row dispatches; only genuinely
    serial chains (MAC accumulators) stay narrow.
    """
    nsteps = len(steps)
    preds = [0] * nsteps
    succs: list[list[int]] = [[] for _ in range(nsteps)]

    def edge(a: int, b: int) -> None:
        # Duplicate edges are fine: each one both increments the
        # predecessor count and later decrements it once.
        succs[a].append(b)
        preds[b] += 1

    # RAW/WAW/WAR edges from last-writer/reader tracking; the
    # machinery is shared with the static verifier (verify.py) so the
    # scheduler's notion of a hazard and the verifier's cannot drift.
    hazard_edges((_step_rows(st) for st in steps), edge)

    # Greedy class-batched emission.  A plain ASAP wavefront sweep
    # (emit every ready class each round) splits same-class steps that
    # sit at different dataflow depths into separate rounds.  Instead,
    # keep ready steps pooled by class and emit ONE class per round:
    # unemitted classes keep accumulating members as other emissions
    # unlock their predecessors.  Prefer a class with no unscheduled
    # members left (emitting it can't lose future width), else the
    # widest ready class.  Any emission order is safe: a ready step's
    # predecessors are all emitted, and two ready steps are always
    # pairwise independent — a dependency between them would keep the
    # successor's predecessor count nonzero while the other waits in
    # the pool.
    remaining: dict[tuple, int] = {}
    for st in steps:
        k = _class_key(st)
        remaining[k] = remaining.get(k, 0) + 1
    merged: list[PlanStep] = []
    pools: OrderedDict[tuple, list[int]] = OrderedDict()
    for i in range(nsteps):
        if preds[i] == 0:
            pools.setdefault(_class_key(steps[i]), []).append(i)
    scheduled = 0
    while pools:
        key = max(pools, key=lambda k: (len(pools[k]) == remaining[k],
                                        len(pools[k]),
                                        -min(pools[k])))
        members = sorted(pools.pop(key))           # program order
        remaining[key] -= len(members)
        base = steps[members[0]]
        for j in members[1:]:
            _merge_into(base, steps[j])
        merged.append(base)
        scheduled += len(members)
        for i in members:
            for s in succs[i]:
                preds[s] -= 1
                if preds[s] == 0:
                    pools.setdefault(_class_key(steps[s]),
                                     []).append(s)
    if scheduled != nsteps:                        # pragma: no cover
        raise AssertionError(
            f"step scheduler dropped {nsteps - scheduled} steps "
            f"(dependency cycle in the plan DAG?)")
    return merged


def _compact_rows(plan: ExecPlan, virtual_rows: int) -> None:
    """Rename the merged schedule's virtual rows onto a compact arena.

    Build allocates a fresh virtual row per write so the scheduler
    sees only true dependencies; in the final step order each virtual
    row is live from its defining step to its last referencing step,
    and a linear scan reassigns physical rows from a free pool.  A
    virtual row keeps one physical row for its entire life (nothing
    references it after release), so the rename is a single global map
    applied vectorized to every index array.  Writes allocate before
    this step's releases are pooled, so a physical row freed by a step
    can never be scribbled on by that same step.
    """
    last_use = [-1] * virtual_rows
    step_rows: list[tuple[set[int], set[int]]] = []
    for i, st in enumerate(plan.steps):
        reads, writes = _step_rows(st)
        step_rows.append((reads, writes))
        for x in reads:
            last_use[x] = i
        for x in writes:
            last_use[x] = i
    for _, row in plan.output_rows:
        last_use[row] = len(plan.steps)      # pinned past the end
    remap = np.full(virtual_rows, -1, dtype=np.int64)
    pool: list[int] = []
    hi = 0
    for i, (reads, writes) in enumerate(step_rows):
        for x in sorted(writes):
            if remap[x] < 0:
                if pool:
                    remap[x] = pool.pop()
                else:
                    remap[x] = hi
                    hi += 1
        for x in sorted(reads | writes):
            if last_use[x] == i:
                pool.append(int(remap[x]))
    for st in plan.steps:
        if st.kind == K_DRAM:
            st.out = [int(remap[r]) for r in st.out]
        else:
            st.out = remap[st.out]
            if st.a is not None:
                st.a = remap[st.a]
            if st.b is not None:
                st.b = remap[st.b]
            if st.c is not None:
                st.c = remap[st.c]
    plan.output_rows = [(vid, int(remap[row]))
                        for vid, row in plan.output_rows]
    plan.arena_rows = hi


# ----------------------------------------------------------------------
# Plan replay
# ----------------------------------------------------------------------
_I64 = np.dtype(np.int64)
#: Elementwise and DRAM lanes run in C only over moduli below this
#: bound, and elementwise immediates only below it: every result the
#: kernel writes then fits the uint32 arena.
_LANE_BOUND = 1 << 32
#: Step kind of a ``replay_steps`` table row that numpy runs.
_K_NUMPY = -1
#: ``replay_steps`` FFT steps run only moduli below this bound (the
#: lazy ``[0, 4q)`` butterflies of the native NTT rows).
_FFT_Q_BOUND = 1 << 30
#: What a bound DRAM array must keep for its cached address to stay
#: valid (see :meth:`_ReplayTable.sources`).
_ROW_FORM = attrgetter("dtype", "shape")


def _index_rows(arr, rows: int) -> np.ndarray | None:
    """``arr`` as a 1-D int64 row-index array when every entry lies in
    ``[0, rows)``, else ``None``."""
    arr = np.asarray(arr)
    if arr.ndim != 1 or arr.dtype.kind not in "iu":
        return None
    if arr.size and (arr.min() < 0 or arr.max() >= rows):
        return None
    return arr.astype(np.int64, copy=False)


def _in_place_ok(out: np.ndarray, reads: list[np.ndarray]) -> bool:
    """Lane-by-lane in-place execution equals numpy's gather-then-
    scatter: no two lanes write one row and no row is both read and
    written by the step."""
    return (np.unique(out).size == out.size
            and not np.intersect1d(out, np.concatenate(reads)).size)


def _ew_lanes(st: PlanStep, rows: int):
    """The K_EW step's lanes, or ``False``.

    One ``(k, 6)`` int64 row per lane: out, a, b, c (the MAC addend
    row, else 1 to multiply and 0 to add), q, immediate (see
    ``ew_step`` in ``nttmath/native/ntt.c``).  Built only when every
    row lies in ``[0, rows)`` with :func:`_in_place_ok`, and q, the
    immediates and the mask are ``(k, 1)`` columns, q and the
    immediates int64 with every q in ``[1, 2**32)`` and every
    immediate in ``[0, 2**32)``."""
    nsrc = st.nsrc
    if nsrc not in (1, 2, 3):
        return False
    cols = [_index_rows(st.out, rows), _index_rows(st.a, rows)]
    if nsrc >= 2:
        cols.append(_index_rows(st.b, rows))
    if nsrc == 3:
        cols.append(_index_rows(st.c, rows))
    out = cols[0]
    if any(c is None or c.shape != out.shape for c in cols):
        return False
    k = out.size
    q = np.asarray(st.q_col)
    if (q.dtype != _I64 or q.shape != (k, 1)
            or (k and (q.min() < 1 or q.max() >= _LANE_BOUND))):
        return False
    if not _in_place_ok(out, cols[1:]):
        return False
    lanes = np.zeros((k, 6), dtype=np.int64)
    for j, col in enumerate(cols):
        lanes[:, j] = col
    if nsrc < 3:
        mask = np.asarray(_ew_mask(st))
        if mask.shape != (k, 1):
            return False
        lanes[:, 3] = mask[:, 0] != 0
    lanes[:, 4] = q[:, 0]
    if nsrc == 1:
        imm = np.asarray(st.imm_col)
        if (imm.dtype != _I64 or imm.shape != (k, 1)
                or (k and (imm.min() < 0 or imm.max() >= _LANE_BOUND))):
            return False
        lanes[:, 5] = imm[:, 0]
    return lanes


def _move_lanes(st: PlanStep, rows: int):
    """``(k, 2)`` int64 rows of (in, out) for a K_FFT or K_COPY step,
    or ``False`` unless every row lies in ``[0, rows)`` with
    :func:`_in_place_ok`."""
    out = _index_rows(st.out, rows)
    src = _index_rows(st.a, rows)
    if (out is None or src is None or src.shape != out.shape
            or not _in_place_ok(out, [src])):
        return False
    return np.stack((src, out), axis=1)


def _fft_lanes(st: PlanStep, rows: int, prime_index: dict):
    """The K_FFT step's lanes — ``(k, 3)`` int64 rows of (in, out,
    prime), the prime an index into the plan's FFT tables — or
    ``False`` unless :func:`_move_lanes` holds and, for a transform,
    every lane's prime has a table (``prime_index``).  An automorphism
    is a permutation copy that reads no prime, so its prime column is
    0 whatever its moduli."""
    moves = _move_lanes(st, rows)
    if moves is False or len(st.primes) != moves.shape[0]:
        return False
    if st.fft == 2:
        index = [0] * len(st.primes)
    else:
        try:
            index = [prime_index[q] for q in st.primes]
        except KeyError:
            return False
    return np.column_stack((moves, np.array(index, dtype=np.int64)))


def _dram_lanes(st: PlanStep, rows: int, source_index: dict):
    """The K_DRAM step's lanes — ``(k, 3)`` int64 rows of (out, q,
    source), the source an index into the plan's DRAM names — or
    ``False`` unless the out rows are distinct and inside ``[0, rows)``
    and every q is an integer in ``[1, 2**32)``."""
    out = _index_rows(st.out, rows)
    if (out is None or np.unique(out).size != out.size
            or len(st.qs) != out.size or len(st.names) != out.size
            or not all(isinstance(q, (int, np.integer))
                       and 1 <= q < _LANE_BOUND for q in st.qs)):
        return False
    src = [source_index.setdefault(name, len(source_index))
           for name in st.names]
    return np.stack((out, np.array(st.qs, dtype=np.int64),
                     np.array(src, dtype=np.int64)), axis=1)


def _fill_lanes(st: PlanStep, rows: int):
    """The K_FILL step's lanes — ``(k, 2)`` int64 rows of (out, value)
    — or ``False`` unless every row lies in ``[0, rows)`` and the
    values are a ``(k, 1)`` int64 column.  Lanes run in order, so a
    repeated row ends with the last value, as numpy's scatter does,
    and each value lands as its low 32 bits, as numpy's cast to the
    uint32 arena does."""
    out = _index_rows(st.out, rows)
    vals = np.asarray(st.vals)
    if out is None or vals.dtype != _I64 or vals.shape != (out.size, 1):
        return False
    return np.stack((out, vals[:, 0]), axis=1)


def _fft_tables(n: int, primes) -> tuple[dict, np.ndarray, np.ndarray]:
    """``(prime_index, q, tw)`` for ``replay_steps``: the moduli of
    ``primes`` that the native rows can run (NTT friendly for ``n`` and
    below 2^30), their ``(P,)`` uint64 column and ``(P, 4, n)`` uint32
    twiddles (forward, forward Shoup, inverse, inverse Shoup), each row
    the one the stacked engine would gather for that prime."""
    index: dict[int, int] = {}
    tables = []
    for q in sorted(set(primes)):
        if not 2 <= q < _FFT_Q_BOUND:
            continue
        try:
            eng = BatchedNTT(n, (q,))
        except (ValueError, ArithmeticError):
            continue                 # numpy raises at the step itself
        index[q] = len(tables)
        tables.append(np.stack((eng._psi_u[0], eng._psi_sh[0],
                                eng._psi_inv_u[0], eng._psi_inv_sh[0])))
    tw = (np.stack(tables) if tables
          else np.zeros((0, 4, n), dtype=np.uint32))
    return index, np.array(list(index), dtype=np.uint64), tw


class _ReplayTable:
    """The flat tables ``replay_steps`` reads (layout in
    ``nttmath/native/ntt.c``), built from a plan at its first native
    replay over an arena of ``rows`` rows and never serialized.

    A step gets a lane table under the rules of :func:`_ew_lanes`,
    :func:`_fft_lanes`, :func:`_move_lanes`, :func:`_dram_lanes` and
    :func:`_fill_lanes`; a step without one is a ``_K_NUMPY`` row,
    which replay runs with numpy before the kernel resumes after it."""

    __slots__ = ("rows", "steps", "lanes", "q", "tw", "perms", "names",
                 "_src_key", "_src", "_bound")

    def __init__(self, plan: "ExecPlan", rows: int):
        n = plan.n
        self.rows = rows
        prime_index, self.q, self.tw = _fft_tables(
            n, (q for st in plan.steps if st.kind == K_FFT and st.fft != 2
                for q in st.primes))
        elts = sorted({st.elt for st in plan.steps
                       if st.kind == K_FFT and st.fft == 2})
        perm_index = {elt: i for i, elt in enumerate(elts)}
        self.perms = np.zeros((len(elts), n), dtype=np.int64)
        for elt, i in perm_index.items():
            self.perms[i] = ntt_automorphism_index(n, elt)
        source_index: dict[str, int] = {}
        table = np.zeros((len(plan.steps), 5), dtype=np.int64)
        parts = []
        off = 0
        for i, st in enumerate(plan.steps):
            kind, arg, aux = st.kind, 0, 0
            if kind == K_EW:
                lanes, arg = _ew_lanes(st, rows), st.nsrc
            elif kind == K_FFT:
                lanes, arg = _fft_lanes(st, rows, prime_index), st.fft
                aux = perm_index.get(st.elt, 0)
            elif kind == K_COPY:
                lanes = _move_lanes(st, rows)
            elif kind == K_DRAM:
                lanes = _dram_lanes(st, rows, source_index)
            elif kind == K_FILL:
                lanes = _fill_lanes(st, rows)
            else:
                lanes = False
            if lanes is False:
                table[i, 0] = _K_NUMPY
                continue
            table[i] = (kind, arg, lanes.shape[0], off, aux)
            parts.append(lanes.ravel())
            off += lanes.size
        self.steps = table
        self.lanes = (np.concatenate(parts) if parts
                      else np.zeros(0, dtype=np.int64))
        self.names = list(source_index)
        self._src_key = self._src = self._bound = None

    def sources(self, bindings, arena: np.ndarray) -> np.ndarray:
        """The ``(len(names),)`` uintp addresses of the DRAM rows bound
        now, 0 for a name the kernel must not read: a binding that is
        not an aligned C-contiguous int64 ``(N,)`` array, one that
        shares memory with the arena, or a name strict bindings lack
        (its step then runs numpy, which raises there).

        The addresses are reused while the same array objects, of the
        same dtype and shape, are bound over the same arena (the table
        holds them, so their ids cannot be reissued)."""
        if not self.names:
            return np.zeros(0, dtype=np.uintp)
        lo = native.address(arena)
        dram = bindings.dram
        try:
            arrays = [dram[name] for name in self.names]
        except KeyError:
            pass
        else:
            key = self._key(lo, arena, arrays)
            if key is not None and key == self._src_key:
                return self._src
        n = arena.shape[1]
        hi = lo + arena.nbytes
        ptrs = np.zeros(len(self.names), dtype=np.uintp)
        arrays = []
        for i, name in enumerate(self.names):
            try:
                arr = bindings.dram_source(name)
            except KeyError:
                continue
            arrays.append(arr)
            if (type(arr) is np.ndarray and arr.dtype == _I64
                    and arr.shape == (n,) and arr.flags.c_contiguous
                    and arr.flags.aligned):
                ptr = native.address(arr)
                if not (ptr < hi and ptr + arr.nbytes > lo):
                    ptrs[i] = ptr
        if len(arrays) == len(self.names):
            self._src_key = self._key(lo, arena, arrays)
            self._src, self._bound = ptrs, arrays
        return ptrs

    @staticmethod
    def _key(lo: int, arena: np.ndarray, arrays: list) -> tuple | None:
        """What the cached addresses depend on; ``None`` (never cached)
        when a binding is not array-like."""
        try:
            forms = list(map(_ROW_FORM, arrays))
        except AttributeError:
            return None
        return lo, arena.nbytes, list(map(id, arrays)), forms


def _replay_table(plan: "ExecPlan", rows: int) -> _ReplayTable:
    """The plan's :class:`_ReplayTable` for an arena of ``rows`` rows,
    built on first use."""
    table = plan._table
    if table is None or table.rows != rows:
        table = plan._table = _ReplayTable(plan, rows)
    return table


def _exec_step(st: PlanStep, arena: np.ndarray, bindings,
               n: int) -> None:
    """Run one step with numpy: gather, one vector expression or one
    stacked engine call, scatter.  The fallback for a step
    ``replay_steps`` does not run, and its oracle.

    Elementwise steps gather uint32 rows and compute in uint64, exact
    for every uint32 value (an int64 operand would promote the
    expression to float64); the uint32 arena takes each result as its
    low 32 bits, the result itself for any q up to 2**32."""
    kind = st.kind
    if kind == K_EW:
        x = arena[st.a].astype(np.uint64)
        q = st.q_col.astype(np.uint64)
        if st.nsrc == 3:
            res = (x * arena[st.b] + arena[st.c]) % q
        else:
            y = (arena[st.b] if st.nsrc == 2
                 else st.imm_col.astype(np.uint64))
            if st.mask is not None:
                res = np.where(st.mask, x * y, x + y) % q
            elif st.mul:
                res = (x * y) % q
            else:
                res = (x + y) % q
        arena[st.out] = res
    elif kind == K_FFT:
        eng = st.engine
        if eng is None:
            eng = get_stacked_plan(
                n, tuple((q,) for q in st.primes)).ntt
            st.engine = eng
        data = arena[st.a]
        if st.fft == 0:
            out = eng.forward(data)
        elif st.fft == 1:
            # IR iNTT is raw: the 1/N fold is an explicit multiply.
            out = eng.inverse(data, scale_by_n_inv=False)
        else:
            out = eng.automorphism_ntt(data, st.elt)
        arena[st.out] = out
    elif kind == K_COPY:
        arena[st.out] = arena[st.a]
    elif kind == K_DRAM:
        out, names, qs = st.out, st.names, st.qs
        for i in range(len(out)):
            arena[out[i]] = bindings.dram_array(names[i], qs[i])
    else:                                       # K_FILL
        arena[st.out] = st.vals


def _bind_native(lib, table: _ReplayTable, arena: np.ndarray, bindings,
                 ends: np.ndarray | None = None):
    """``replay_steps`` bound to the plan's tables, the arena, the DRAM
    rows bound now (:func:`repro.nttmath.native.bind`) and, for a
    traced replay, the int64 buffer ``ends`` that receives each step's
    end time: call it through :func:`_native_steps`."""
    src = table.sources(bindings, arena)
    return native.bind(
        lib, "replay_steps", arena, arena.shape[0], arena.shape[1],
        table.steps, table.steps.shape[0], table.lanes, table.lanes.size,
        table.q, table.tw, table.q.size, table.perms, table.perms.shape[0],
        src, src.size, ends)


def _native_steps(call, start: int, stop: int) -> int:
    """Run steps ``[start, stop)`` through a bound ``replay_steps``:
    the index of the first step it did not run."""
    done = call(start, stop)
    if done < 0:
        raise MemoryError("native replay kernel: out of memory")
    return done


def _replay_steps(plan: "ExecPlan", arena: np.ndarray, bindings,
                  start: int = 0, stop: int | None = None,
                  bounds: list | None = None) -> None:
    """Run the plan's steps ``[start, stop)``: one ``replay_steps``
    call over the whole range when the kernels loaded, each step it
    refuses run by :func:`_exec_step` before the kernel resumes at the
    next one; every step by :func:`_exec_step` without the library.

    Untraced (``bounds`` is ``None``) it reads no clock.  A traced
    replay passes a list that receives when each step ended:
    ``(start, ends)`` for a native run from step ``start``, whose int64
    ``ends`` the kernel wrote (each step's ``CLOCK_MONOTONIC`` end in
    nanoseconds, the clock ``perf_counter`` reads), and ``(index,
    end)`` for a step it handed back, run numpy before one
    ``perf_counter`` read.  :func:`_emit_steps` turns ``bounds`` into
    spans afterwards, outside the timed window."""
    steps = plan.steps
    stop = len(steps) if stop is None else stop
    lib = native.kernel()
    if lib is not None:
        ends = None if bounds is None else np.empty(stop - start,
                                                    dtype=np.int64)
        call = _bind_native(lib, _replay_table(plan, arena.shape[0]),
                            arena, bindings, ends)
    while start < stop:
        done = start
        if lib is not None:
            done = _native_steps(call, start, stop)
            if bounds is not None:
                bounds.append((start, ends[:done - start].copy()))
        if done < stop:
            _exec_step(steps[done], arena, bindings, plan.n)
            if bounds is not None:
                bounds.append((done, perf_counter()))
        start = done + 1


#: Span and row counter per K_FFT ``fft`` code: the names the engine's
#: own calls emit.
_FFT_TRACE = (("ntt.forward", "ntt.rows"), ("ntt.inverse", "intt.rows"),
              ("ntt.automorphism", "auto.rows"))


def _step_row_traffic(st: PlanStep) -> tuple[int, int]:
    """(rows read from the arena, rows written to it) for one step."""
    if st.kind == K_DRAM:
        return 0, len(st.out)
    written = int(st.out.size)
    read = 0
    if st.a is not None:
        read += int(st.a.size)
    if st.b is not None:
        read += int(st.b.size)
    if st.c is not None:
        read += int(st.c.size)
    return read, written


def _row_traffic(plan: "ExecPlan") -> tuple[int, int]:
    """(rows read, rows written) by one replay of the plan, summed
    over its steps once."""
    if plan._traffic is None:
        per_step = [_step_row_traffic(st) for st in plan.steps]
        plan._traffic = (sum(r for r, _ in per_step),
                         sum(w for _, w in per_step))
    return plan._traffic


def _emit_steps(plan: "ExecPlan", bounds: list, prof: dict,
                prev: float) -> None:
    """The ``replay.<label>`` spans of the steps ``bounds`` times (see
    :func:`_replay_steps`), each timed boundary to boundary from
    ``prev`` into ``prof`` (so the first step's span also holds the
    table lookup), plus, for a native FFT step, the engine's own span
    and row counter, so trace totals do not depend on which
    implementation ran (a numpy step's engine call emitted its own)."""
    tr = TRACER
    n = plan.n
    steps = plan.steps
    timed = []
    for start, ends in bounds:
        if isinstance(ends, float):
            timed.append((steps[start], ends, False))
        else:
            timed.extend((steps[start + i], end, True) for i, end
                         in enumerate((ends / 1e9).tolist()))
    for st, end, ran_native in timed:
        dt = end - prev
        if ran_native and st.kind == K_FFT:
            span, counter = _FFT_TRACE[st.fft]
            k = int(st.out.size)
            attrs = ({"limbs": k, "elt": st.elt, "impl": "c"}
                     if st.fft == 2 else
                     {"limbs": k, "n": n, "tiles": 1, "impl": "c"})
            tr.emit(span, prev, dt, attrs)
            tr.count(counter, k)
        tr.emit("replay." + st.label, prev, dt, None)
        prev = end
        acc = prof.get(st.label)
        if acc is None:
            prof[st.label] = [dt, st.n_instrs]
        else:
            acc[0] += dt
            acc[1] += st.n_instrs


def replay_plan(plan: ExecPlan, bindings):
    """Execute a plan; returns ``(outputs, wall_s, profile_dict)``.

    ``profile_dict`` is ``None`` unless the global tracer is enabled,
    in which case it maps a step label to ``[wall_s, instructions]``.
    One step loop, :func:`_replay_steps`, in two modes:

    * bare: one ``replay_steps`` call for the whole plan (numpy for the
      steps it leaves), no clock reads;
    * traced: the same kernel calls, with one clock read **per step
      boundary** (the kernel's own, into a buffer, for the steps it
      runs), so each span's duration runs boundary-to-boundary and
      the ``replay.*`` spans tile the loop with no gaps between steps;
      the spans are emitted once the outputs are copied and ``wall_s``
      read, so that bookkeeping (a few microseconds per step) lies
      outside the timed window and the outer span, which the step
      spans then cover up to the output copies.  Per-step spans land as
      ``replay.<label>`` under an outer ``replay`` span (its ``impl``
      attribute says whether the native kernels were loaded, ``"c"``,
      or every step ran numpy, ``"numpy"``), and arena gather/scatter
      traffic feeds the ``exec.bytes_*`` counters: rows read and
      written times the bytes of an arena row.  The ``replay`` scope
      closes even when a step raises.

    The outputs are int64 ``(N,)`` copies of their arena rows.
    """
    arena = plan.arena()
    n = plan.n
    prof: dict[str, list] | None = None
    tr = TRACER
    t0 = perf_counter()
    if tr.enabled:
        prof = {}
        bounds: list = []
        tr.push("replay")
        try:
            _replay_steps(plan, arena, bindings, bounds=bounds)
            outputs = {vid: arena[row].astype(np.int64)
                       for vid, row in plan.output_rows}
            wall = perf_counter() - t0
        finally:
            _emit_steps(plan, bounds, prof, t0)
            tr.pop()
        tr.emit("replay", t0, wall,
                {"steps": len(plan.steps),
                 "instrs": plan.instructions,
                 "impl": "numpy" if native.kernel() is None else "c"})
        rows_read, rows_written = _row_traffic(plan)
        row_bytes = n * arena.itemsize
        tr.count("exec.bytes_gathered", rows_read * row_bytes)
        tr.count("exec.bytes_scattered", rows_written * row_bytes)
        if plan.spill_reloads:
            tr.count("exec.spill_reloads", plan.spill_reloads)
        for label, count in plan.free_instrs.items():
            acc = prof.get(label)
            if acc is None:
                prof[label] = [0.0, count]
            else:
                acc[1] += count
    else:
        _replay_steps(plan, arena, bindings)
        outputs = {vid: arena[row].astype(np.int64)
                   for vid, row in plan.output_rows}
        wall = perf_counter() - t0
    return outputs, wall, prof


# ----------------------------------------------------------------------
# Content-addressed plan cache (in-process, bounded, store-backed)
# ----------------------------------------------------------------------
#: In-memory LRU bound; plans are index arrays (small next to the
#: arena), but sweeps iterate many compile variants.
PLAN_CACHE_MAX = 16

_PLAN_CACHE: OrderedDict[tuple, ExecPlan] = OrderedDict()
_PLANS_BUILT = 0


def plans_built() -> int:
    """Process-global count of plans actually *built* (store hits and
    in-memory hits do not count) — the sweep engine differences this
    around each point to report plan-warmth."""
    return _PLANS_BUILT


def clear_exec_plan_cache() -> None:
    _PLAN_CACHE.clear()


register_cache_clearer(clear_exec_plan_cache)


def _persistent_store():
    """The active ArtifactStore, if any (imported lazily: ``exp``
    depends on ``compiler``, not the reverse)."""
    try:
        from ..exp.store import active_store
    except ImportError:  # pragma: no cover - exp is part of the tree
        return None
    return active_store()


def bindings_token(bindings) -> str:
    """Canonical identity of what a plan bakes in from its bindings:
    the ring degree, the concrete prime chains (they determine q/imm
    columns and engine keys), and pinned scalar immediates.  DRAM
    arrays are *not* included — replay reads them live."""
    scalars = ",".join(f"{k}={v}"
                       for k, v in sorted(bindings.scalars.items()))
    return (f"n={bindings.n}"
            f"|q={','.join(str(q) for q in bindings.q)}"
            f"|p={','.join(str(p) for p in bindings.p)}"
            f"|s={scalars}")


def get_exec_plan(target, bindings) -> ExecPlan:
    """The cached plan for ``(target, bindings)``; builds (and
    persists) on miss.  ``target`` is a PackedProgram or a
    CompiledProgram.  A miss first raises :class:`ArenaModulusError`
    for a prime outside ``[1, 2**31)`` (a hit's key names the same
    primes as the checked build)."""
    global _PLANS_BUILT
    packed = getattr(target, "packed", target)
    if not isinstance(packed, PackedProgram):
        raise TypeError(f"cannot execute {type(target).__name__}")
    key = (packed.fingerprint(), packed.names_fingerprint(),
           bindings_token(bindings))
    plan = _PLAN_CACHE.get(key)
    if plan is not None:
        _PLAN_CACHE.move_to_end(key)
        return plan
    _check_arena_moduli(packed, bindings)
    store = _persistent_store()
    if store is not None:
        plan = store.get_plan(*key)
    if plan is None:
        with TRACER.span("plan.build"):
            plan = build_exec_plan(packed, bindings)
        _PLANS_BUILT += 1
        TRACER.count("exec.plans_built")
        if env_flag(ENV_VERIFY):
            raise_on(verify_plan(plan))
        if store is not None:
            store.put_plan(*key, plan)
    plan.key = key
    _PLAN_CACHE[key] = plan
    while len(_PLAN_CACHE) > PLAN_CACHE_MAX:
        _PLAN_CACHE.popitem(last=False)
    return plan


# ----------------------------------------------------------------------
# Store payloads
# ----------------------------------------------------------------------
#: Per-kind scalar fields serialized into the step records.
def plan_to_payload(plan: ExecPlan) -> tuple[dict, dict]:
    """``(meta, arrays)`` for npz persistence.  Index/column arrays
    are concatenated into two flat int64 vectors (``idx`` carries row
    indices, ``col`` carries primes/immediates/masks/fills); each step
    record stores offsets into them.  DRAM names stay in the JSON
    meta; engines are re-resolved lazily on load."""
    idx_parts: list[np.ndarray] = []
    col_parts: list[np.ndarray] = []
    offsets = [0, 0]

    def put(parts, pos, arr):
        arr = np.ascontiguousarray(arr, dtype=np.int64).ravel()
        parts.append(arr)
        off = offsets[pos]
        offsets[pos] = off + arr.size
        return [off, int(arr.size)]

    put_idx = lambda arr: put(idx_parts, 0, arr)   # noqa: E731
    put_col = lambda arr: put(col_parts, 1, arr)   # noqa: E731

    recs = []
    for st in plan.steps:
        rec: dict = {"k": st.kind, "l": st.label, "i": st.n_instrs}
        if st.kind == K_EW:
            rec["o"] = put_idx(st.out)
            rec["a"] = put_idx(st.a)
            rec["ns"] = st.nsrc
            if st.b is not None:
                rec["b"] = put_idx(st.b)
            if st.c is not None:
                rec["c"] = put_idx(st.c)
            rec["q"] = put_col(st.q_col)
            if st.imm_col is not None:
                rec["m"] = put_col(st.imm_col)
            if st.mask is not None:
                rec["msk"] = put_col(st.mask.astype(np.int64))
            if st.mul is not None:
                rec["mul"] = bool(st.mul)
        elif st.kind == K_FFT:
            rec["o"] = put_idx(st.out)
            rec["a"] = put_idx(st.a)
            rec["f"] = st.fft
            rec["e"] = st.elt
            rec["p"] = put_col(np.array(st.primes, dtype=np.int64))
        elif st.kind == K_COPY:
            rec["o"] = put_idx(st.out)
            rec["a"] = put_idx(st.a)
        elif st.kind == K_DRAM:
            rec["o"] = list(st.out)
            rec["nm"] = list(st.names)
            rec["qs"] = [int(q) for q in st.qs]
        else:                                   # K_FILL
            rec["o"] = put_idx(st.out)
            rec["v"] = put_col(st.vals)
        recs.append(rec)

    meta = {
        "n": plan.n,
        "arena_rows": plan.arena_rows,
        "instructions": plan.instructions,
        "runs": plan.runs,
        "peak_live": plan.peak_live,
        "spill_stores": plan.spill_stores,
        "spill_reloads": plan.spill_reloads,
        "outputs": [[int(v), int(r)] for v, r in plan.output_rows],
        "free_instrs": dict(plan.free_instrs),
        "steps": recs,
    }
    empty = np.zeros(0, dtype=np.int64)
    arrays = {
        "idx": np.concatenate(idx_parts) if idx_parts else empty,
        "col": np.concatenate(col_parts) if col_parts else empty,
    }
    return meta, arrays


def plan_from_payload(meta: dict, idx: np.ndarray,
                      col: np.ndarray) -> ExecPlan:
    """Inverse of :func:`plan_to_payload`."""
    plan = ExecPlan(int(meta["n"]))
    plan.arena_rows = int(meta["arena_rows"])
    plan.instructions = int(meta["instructions"])
    plan.runs = int(meta["runs"])
    plan.peak_live = int(meta["peak_live"])
    plan.spill_stores = int(meta["spill_stores"])
    plan.spill_reloads = int(meta["spill_reloads"])
    plan.output_rows = [(int(v), int(r)) for v, r in meta["outputs"]]
    plan.free_instrs = {str(k): int(v)
                        for k, v in meta["free_instrs"].items()}

    def take(parts, spec):
        off, size = spec
        return parts[off:off + size]

    for rec in meta["steps"]:
        st = PlanStep(int(rec["k"]), str(rec["l"]), int(rec["i"]))
        kind = st.kind
        if kind == K_EW:
            k = st.n_instrs
            st.out = take(idx, rec["o"])
            st.a = take(idx, rec["a"])
            st.nsrc = int(rec["ns"])
            if "b" in rec:
                st.b = take(idx, rec["b"])
            if "c" in rec:
                st.c = take(idx, rec["c"])
            st.q_col = take(col, rec["q"]).reshape(k, 1)
            if "m" in rec:
                st.imm_col = take(col, rec["m"]).reshape(k, 1)
            if "msk" in rec:
                st.mask = take(col, rec["msk"]).astype(bool) \
                    .reshape(k, 1)
            if "mul" in rec:
                st.mul = bool(rec["mul"])
        elif kind == K_FFT:
            st.out = take(idx, rec["o"])
            st.a = take(idx, rec["a"])
            st.fft = int(rec["f"])
            st.elt = int(rec["e"])
            st.primes = tuple(int(q)
                              for q in take(col, rec["p"]).tolist())
        elif kind == K_COPY:
            st.out = take(idx, rec["o"])
            st.a = take(idx, rec["a"])
        elif kind == K_DRAM:
            st.out = [int(r) for r in rec["o"]]
            st.names = [str(nm) for nm in rec["nm"]]
            st.qs = [int(q) for q in rec["qs"]]
        else:                                   # K_FILL
            st.out = take(idx, rec["o"])
            st.vals = take(col, rec["v"]).reshape(-1, 1)
        plan.steps.append(st)
    return plan
