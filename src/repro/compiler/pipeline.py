"""The full compiler pipeline (paper Figure: section IV-B).

parse/lower -> code optimization (copy prop, const merge, CSE, DCE)
-> MAC fusion -> memory legalization -> streaming merge -> static
scheduling -> linear-scan SRAM allocation -> codegen.

Every stage can be toggled, which is how the sensitivity study
(Figure 11) builds its baseline / MAD-enhanced / streaming / full
configurations from one program.

The pipeline is orchestrated by an explicit
:class:`~repro.compiler.passes.registry.PassManager` over the
registered-pass table (:mod:`repro.compiler.passes.registry`), with
per-pass instrumentation (instruction counts, wall time, tracer
spans) recorded through the manager's single ``stage()`` timing path
onto :class:`CompileStats`.  Every pass runs vectorized over a
:class:`~repro.compiler.ir.PackedProgram`; the seed list-of-``Instr``
pipeline it was derived from is a test-only oracle
(``tests/oracles``), pinned bit-identical in programs, statistics and
schedules by the differential suite.

Sweeps (Figure 10/11, the SRAM DSE) recompile the same workload for
every hardware point; :func:`compile_packed_cached` memoizes compiles
in a content-addressed cache keyed by ``(program fingerprint,
CompileOptions)`` so each distinct configuration is compiled exactly
once per process.  ``clear_compile_cache()`` is the explicit escape
hatch (also hooked into :func:`repro.nttmath.batched.clear_caches`).
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass, field

from ..core.env import ENV_VERIFY, env_flag
from ..nttmath.batched import register_cache_clearer
from ..obs import TRACER
from . import packed_passes  # noqa: F401  (registers the packed halves)
from .ir import PackedProgram, Program
from .passes.registry import (  # noqa: F401  (re-exported: store.py et al.)
    PASS_REGISTRY,
    PassManager,
    PassRecord,
)
from .regalloc import AllocationStats, allocate_packed
from .scheduler import apply_schedule_packed, schedule_packed


@dataclass(frozen=True)
class CompileOptions:
    """Pipeline toggles plus the SRAM budget."""

    sram_bytes: int = 27 * 2 ** 20
    code_opt: bool = True           # copy prop + const merge + CSE + DCE
    mac_fusion: bool = True         # circuit-level NTT reuse scheme
    streaming: bool = True          # streaming memory access
    scheduling: str = "list"        # "list" | "naive"
    band_size: int = 32            # list-scheduling locality band
    forward_window: int = 64        # FU-to-FU forwarding distance
    reuse_window: int = 256         # DRAM-value SRAM-reuse distance
    prefetch_distance: int = 12     # load hoisting to hide HBM latency
    reserve_slots: int = 0
    #: Run the static verifier suites (:mod:`repro.compiler.verify`)
    #: as extra pipeline stages; ``REPRO_VERIFY=1`` forces them on
    #: without touching compile-cache/store keys.
    verify: bool = False


def _verify_enabled(options: CompileOptions) -> bool:
    return options.verify or env_flag(ENV_VERIFY)


@dataclass
class CompileStats:
    """Everything the evaluation section reads off a compilation."""

    instrs_before_opt: int = 0
    instrs_after_opt: int = 0
    copies_removed: int = 0
    consts_merged: int = 0
    cse_removed: int = 0
    dead_removed: int = 0
    macs_fused: int = 0
    loads_inserted: int = 0
    streaming_loads: int = 0
    forwarded_values: int = 0
    mix_before: Counter = field(default_factory=Counter)
    mix_after: Counter = field(default_factory=Counter)
    alloc: AllocationStats = field(default_factory=AllocationStats)
    pass_records: list[PassRecord] = field(default_factory=list)

    @property
    def code_opt_fraction(self) -> float:
        """Fraction of instructions the code optimizer eliminated
        (the paper reports 12.9% for fully-packed bootstrapping)."""
        if self.instrs_before_opt == 0:
            return 0.0
        return 1.0 - self.instrs_after_opt / self.instrs_before_opt

    @property
    def compile_wall_s(self) -> float:
        return sum(r.wall_s for r in self.pass_records)


class CompiledProgram:
    """A compiled program plus its options and statistics.

    ``packed`` is the compiled stream; the ``program`` view
    materializes lazily from it, so cache-served sweep consumers
    (which simulate straight off the packed columns) never pay for
    ``Instr`` object construction.
    """

    __slots__ = ("_program", "packed", "options", "stats")

    def __init__(self, *, packed: PackedProgram, options: CompileOptions,
                 stats: CompileStats, program: Program | None = None):
        self._program = program
        self.packed = packed
        self.options = options
        self.stats = stats

    @property
    def program(self) -> Program:
        if self._program is None:
            self._program = self.packed.to_program()
        return self._program

    @property
    def dram_bytes(self) -> int:
        return self.stats.alloc.dram_total_bytes

    def __repr__(self) -> str:
        return f"CompiledProgram({self.packed!r})"


#: Compilations actually executed in this process (cache- or
#: store-served results do not increment it); the sweep engine reads
#: deltas around each point to prove warm sweeps compile nothing.
_COMPILES_EXECUTED = 0


def compiles_executed() -> int:
    """Process-wide number of pass-pipeline runs actually executed."""
    return _COMPILES_EXECUTED


def _compile_packed_ir(packed: PackedProgram,
                       options: CompileOptions) -> CompileStats:
    """Run the pass sequence in place on ``packed``."""
    global _COMPILES_EXECUTED
    _COMPILES_EXECUTED += 1
    TRACER.count("compile.executed")
    pm = PassManager()
    stats = CompileStats()
    verify_on = _verify_enabled(options)
    with TRACER.span("compile"):
        stats.instrs_before_opt = len(packed)
        stats.mix_before = packed.instruction_mix()
        if verify_on:
            pm.run("verify-ir", packed)

        if options.code_opt:
            stats.copies_removed = pm.run("copy-prop", packed)
            # The merged-constant registry rides on the program so the
            # execution backend can resolve the synthetic negative imm
            # ids back to their (c1, c2) factor pairs.
            if packed.merged_imms is None:
                packed.merged_imms = {}
            stats.consts_merged = pm.run("const-merge", packed,
                                         packed.merged_imms)
            stats.cse_removed = pm.run("cse", packed)
            stats.dead_removed = pm.run("dce", packed)
        stats.instrs_after_opt = len(packed)
        stats.mix_after = packed.instruction_mix()

        if options.mac_fusion:
            stats.macs_fused = pm.run("mac-fuse", packed)

        stats.loads_inserted = pm.run(
            "insert-loads", packed, reuse_window=options.reuse_window,
            prefetch_distance=options.prefetch_distance)
        if options.streaming or options.forward_window > 0:
            stats.streaming_loads, stats.forwarded_values = pm.run(
                "mark-streaming", packed,
                streaming_loads_enabled=options.streaming,
                forwarding_enabled=options.forward_window > 0)

        pre_sched = packed.copy() if verify_on else None
        with pm.stage("schedule", packed, detail=options.scheduling):
            order = schedule_packed(packed, policy=options.scheduling,
                                    band_size=options.band_size)
            apply_schedule_packed(packed, order)
        if verify_on:
            pm.run("verify-schedule", packed, pre_sched, order)

        with pm.stage("regalloc", packed):
            stats.alloc = allocate_packed(
                packed, sram_bytes=options.sram_bytes,
                forward_window=options.forward_window,
                reserve_slots=options.reserve_slots)
        if verify_on:
            pm.run("verify-regalloc", packed,
                   sram_bytes=options.sram_bytes,
                   forward_window=options.forward_window,
                   reserve_slots=options.reserve_slots)

    stats.pass_records = pm.records
    return stats


def compile_program(program: Program,
                    options: CompileOptions | None = None
                    ) -> CompiledProgram:
    """Run the pipeline on ``program``: pack it, compile the columns,
    and write the result back into ``program`` in place."""
    options = options or CompileOptions()
    packed = PackedProgram.from_program(program)
    stats = _compile_packed_ir(packed, options)
    packed.write_back(program)
    return CompiledProgram(packed=packed, options=options, stats=stats,
                           program=program)


def compile_packed(packed: PackedProgram,
                   options: CompileOptions | None = None
                   ) -> CompiledProgram:
    """Compile a packed program in place (no ``Instr`` materialization;
    ``.program`` stays lazy)."""
    options = options or CompileOptions()
    stats = _compile_packed_ir(packed, options)
    return CompiledProgram(options=options, stats=stats, packed=packed)


# ----------------------------------------------------------------------
# Content-addressed compile cache
# ----------------------------------------------------------------------
#: Upper bound on cached compilations.  Bootstrap-scale entries hold
#: tens of MB of packed columns, so the bound stays modest — but it
#: must cover the largest shipped sweep (Figure 10: three workloads
#: across four scaled configurations = 12 points) with headroom, or
#: the LRU would thrash and repeat sweeps would never be compile-free.
COMPILE_CACHE_MAX = 16


@dataclass
class CompileCacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0


def _persistent_store():
    """The active disk-backed artifact store, or None.

    Imported lazily: :mod:`repro.exp.store` depends on this module, so
    the import must not run until both are fully initialized.
    """
    from ..exp.store import active_store
    return active_store()


_COMPILE_CACHE: "OrderedDict[tuple[str, CompileOptions], CompiledProgram]" \
    = OrderedDict()
_CACHE_STATS = CompileCacheStats()


def compile_packed_cached(template: PackedProgram,
                          options: CompileOptions | None = None, *,
                          fingerprint: str | None = None
                          ) -> CompiledProgram:
    """Compile ``template`` through the content-addressed cache.

    The cache key is ``(template.fingerprint(), options)``; the
    template itself is never mutated (a column copy is compiled), so a
    workload segment can hand the same packed template to every sweep
    point and each distinct ``CompileOptions`` is compiled once.
    Cached :class:`CompiledProgram` objects are shared — treat them as
    immutable.

    When a persistent artifact store is active (``REPRO_STORE_DIR`` or
    :func:`repro.exp.store.using_store`), in-memory misses consult the
    disk store before compiling, and fresh compilations are written
    back — warm sweeps skip the pass pipeline entirely, across
    processes.
    """
    options = options or CompileOptions()
    if fingerprint is None:
        fingerprint = template.fingerprint()
    key = (fingerprint, options)
    hit = _COMPILE_CACHE.get(key)
    if hit is not None:
        _COMPILE_CACHE.move_to_end(key)
        _CACHE_STATS.hits += 1
        TRACER.count("compile.cache.hits")
        return hit
    _CACHE_STATS.misses += 1
    TRACER.count("compile.cache.misses")
    store = _persistent_store()
    compiled = None
    if store is not None:
        compiled = store.get_compiled(fingerprint, options)
    if compiled is None:
        compiled = compile_packed(template.copy(), options)
        if store is not None:
            store.put_compiled(fingerprint, options, compiled)
    _COMPILE_CACHE[key] = compiled
    while len(_COMPILE_CACHE) > COMPILE_CACHE_MAX:
        _COMPILE_CACHE.popitem(last=False)
        _CACHE_STATS.evictions += 1
    return compiled


def compile_cache_stats() -> CompileCacheStats:
    """Hit/miss/eviction counters (process-wide)."""
    return _CACHE_STATS


def compile_cache_size() -> int:
    return len(_COMPILE_CACHE)


def clear_compile_cache() -> None:
    """Drop every cached compilation and reset the counters."""
    _COMPILE_CACHE.clear()
    _CACHE_STATS.hits = _CACHE_STATS.misses = _CACHE_STATS.evictions = 0


# One global escape hatch: clearing the numeric plan caches also drops
# compiled programs.
register_cache_clearer(clear_compile_cache)
