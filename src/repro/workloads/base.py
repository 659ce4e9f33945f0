"""Workload framework: segmented IR programs for the simulator.

Real applications repeat large phases (bootstrapping inside ResNet-20,
HELR's per-iteration gradient step).  A :class:`Workload` is a list of
``(builder, repeat)`` segments: the harness builds + compiles each
distinct segment once per hardware configuration and multiplies, which
keeps memory bounded at paper scale while preserving per-phase timing
fidelity.  Segments carry *builders* (not programs) because the
compiler pipeline mutates programs in place.

Each segment owns a packed IR *template* built once per process; its
content hash (:meth:`Segment.fingerprint`) keys the pipeline's
content-addressed compile cache, so sensitivity/scalability/DSE sweeps
that revisit the same ``(workload, CompileOptions)`` point — or rebuild
an identical workload object — compile each distinct configuration
exactly once and only re-run the (hardware-dependent) simulation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from ..arch.simulator import SimulationResult, simulate
from ..compiler.ir import PackedProgram, Program
from ..compiler.pipeline import (
    CompiledProgram,
    CompileOptions,
    compile_packed,
    compile_packed_cached,
)
from ..core.config import HardwareConfig
from ..exp.store import active_store
from ..obs import TRACER

#: The engines :func:`run_workload` (and the sweeps that call it)
#: accept: ``"packed"`` compiles and simulates; ``"exec"`` also runs
#: the compiled program on the batched NTT engine.
RUN_ENGINES = ("packed", "exec")


@dataclass
class Segment:
    """One repeated program phase; ``builder`` returns a fresh IR."""

    builder: Callable[[], Program]
    repeat: int = 1
    _mix_cache: Counter | None = field(default=None, repr=False)
    _template: PackedProgram | None = field(default=None, repr=False)
    _fingerprint: str | None = field(default=None, repr=False)

    def fresh_program(self) -> Program:
        return self.builder()

    def packed_template(self) -> PackedProgram:
        """The segment's packed pre-compile IR, built once per process.
        Callers must not mutate it — compile through
        :func:`~repro.compiler.pipeline.compile_packed_cached` (which
        copies) or take ``.copy()`` first."""
        if self._template is None:
            self._template = PackedProgram.from_program(self.builder())
        return self._template

    def fingerprint(self) -> str:
        """Content hash of the built IR (the compile-cache key half)."""
        if self._fingerprint is None:
            self._fingerprint = self.packed_template().fingerprint()
        return self._fingerprint

    def instruction_mix(self) -> Counter:
        if self._mix_cache is None:
            self._mix_cache = self.packed_template().instruction_mix()
        return self._mix_cache


@dataclass
class Workload:
    """A named application as a sequence of repeated IR segments."""

    name: str
    segments: list[Segment]
    #: Slots and amortization denominator for T_A.S.-style metrics.
    slots: int = 0
    amortization_levels: int = 1

    def instruction_mix(self) -> Counter:
        mix: Counter = Counter()
        for seg in self.segments:
            for tag, count in seg.instruction_mix().items():
                mix[tag] += count * seg.repeat
        return mix


@dataclass
class WorkloadRun:
    """Compiled + simulated workload on one hardware configuration."""

    workload: Workload
    config: HardwareConfig
    segment_results: list[tuple[SimulationResult, int]]
    #: Per-segment compilations; ``None`` for segments served whole
    #: from the persistent artifact store (no compile ran).
    compiled: list[CompiledProgram | None] = field(default_factory=list)
    #: Per-segment :class:`~repro.compiler.exec_backend.ExecutionResult`
    #: when run with ``engine="exec"``; empty otherwise.
    executed: list = field(default_factory=list)

    @property
    def cycles(self) -> int:
        return sum(r.cycles * rep for r, rep in self.segment_results)

    @property
    def runtime_ms(self) -> float:
        return self.cycles / (self.config.freq_ghz * 1e9) * 1e3

    @property
    def dram_bytes(self) -> int:
        return sum(r.dram_bytes * rep for r, rep in self.segment_results)

    @property
    def executed_wall_s(self) -> float:
        """Measured execution wall time (repeat-weighted, like
        :attr:`cycles`); only meaningful after ``engine="exec"``."""
        if not self.executed:
            raise ValueError(
                "workload was not executed (use engine='exec')")
        return sum(e.wall_s * rep for e, (_, rep)
                   in zip(self.executed, self.segment_results))

    @property
    def plans_built(self) -> int:
        """How many segments had to *build* their execution plan
        (zero on a plan-warm run: every plan came from the in-process
        cache or the artifact store)."""
        return sum(1 for e in self.executed
                   if getattr(e, "plan_built", False))

    @property
    def executed_profile(self) -> dict[str, list] | None:
        """Aggregated per-step-label ``[wall_s, instructions]``
        breakdown (repeat-weighted) when the run was executed with the
        tracer enabled (``REPRO_TRACE=1`` / ``--trace``); ``None``
        otherwise."""
        prof: dict[str, list] = {}
        for e, (_, rep) in zip(self.executed, self.segment_results):
            sub = getattr(e, "profile", None)
            if not sub:
                continue
            for label, (wall, instrs) in sub.items():
                acc = prof.setdefault(label, [0.0, 0])
                acc[0] += wall * rep
                acc[1] += instrs * rep
        return prof or None

    @property
    def predicted_s(self) -> float:
        """Simulated accelerator runtime in seconds, for side-by-side
        predicted-vs-executed reporting."""
        return self.runtime_ms / 1e3

    @property
    def amortized_us_per_slot(self) -> float:
        """T_A.S.: runtime / (slots * remaining levels) (paper VI-B)."""
        denom = self.workload.slots * self.workload.amortization_levels
        if denom == 0:
            raise ValueError("workload has no amortization parameters")
        return self.runtime_ms * 1e3 / denom

    def utilization(self, unit: str) -> float:
        busy = sum(r.unit_busy.get(unit, 0) * rep
                   for r, rep in self.segment_results)
        total = self.cycles
        if total == 0:
            return 0.0
        return busy / total


def run_workload(workload: Workload, config: HardwareConfig,
                 options: CompileOptions | None = None, *,
                 use_cache: bool = True,
                 engine: str = "packed") -> WorkloadRun:
    """Build + compile every segment for ``config`` and simulate.

    Compilation goes through the content-addressed compile cache keyed
    by ``(segment fingerprint, options)`` — sweeps over hardware points
    share compiled programs whenever the options coincide — and
    simulation runs directly over the packed columns.
    ``use_cache=False`` forces a fresh compile.  ``engine`` is
    ``"packed"`` (default) or ``"exec"``; anything else raises
    :class:`ValueError` before any compile.

    ``engine="exec"`` compiles exactly like the packed engine (same
    compile cache) and *additionally runs the scheduled program* on
    the batched NTT engine against synthesized bindings, so the run
    carries measured wall time (:attr:`WorkloadRun.executed_wall_s`)
    next to the simulator's predicted cycles.  The simulation-result
    store shortcut is skipped — execution needs the compiled program.

    When a persistent artifact store is active (``REPRO_STORE_DIR`` or
    :func:`repro.exp.store.using_store`) and caching is on, each
    segment first consults the store for a ``(fingerprint, options,
    config)`` :class:`SimulationResult`: a hit skips both compile and
    simulate for that segment (its ``compiled`` slot is ``None``);
    fresh simulations are written back for the next process.
    """
    if engine not in RUN_ENGINES:
        raise ValueError(f"unknown engine {engine!r}: run_workload "
                         f"takes one of {RUN_ENGINES}")
    if options is None:
        options = CompileOptions(sram_bytes=config.sram_bytes)
    store = active_store() if (use_cache and engine == "packed") else None
    results = []
    compiled = []
    executed = []
    for index, seg in enumerate(workload.segments):
        with TRACER.span("workload.segment", workload=workload.name,
                         segment=index, repeat=seg.repeat):
            if store is not None:
                res = store.get_sim(seg.fingerprint(), options, config)
                if res is not None:
                    results.append((res, seg.repeat))
                    compiled.append(None)
                    continue
            if use_cache:
                cp = compile_packed_cached(
                    seg.packed_template(), options,
                    fingerprint=seg.fingerprint())
            else:
                cp = compile_packed(seg.packed_template().copy(), options)
            res = simulate(cp.packed, config)
            if store is not None:
                store.put_sim(seg.fingerprint(), options, config, res)
            if engine == "exec":
                from ..compiler.exec_backend import (
                    execute_packed,
                    synthesize_bindings,
                )
                executed.append(execute_packed(
                    cp, synthesize_bindings(cp.packed)))
            results.append((res, seg.repeat))
            compiled.append(cp)
    return WorkloadRun(workload=workload, config=config,
                       segment_results=results, compiled=compiled,
                       executed=executed)
