"""The seed compile pipeline over a list-of-``Instr`` :class:`Program`.

:func:`compile_reference` runs the same stage sequence as
:func:`repro.compiler.pipeline.compile_program` — code optimization,
MAC fusion, load insertion, streaming marks, scheduling, allocation —
with the oracle implementations of this package, timing every stage
through the production ``PassManager.stage`` path, so stage names,
statistics and the compiled stream can be compared one to one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.ir import Program
from repro.compiler.passes.registry import PassManager
from repro.compiler.pipeline import CompileOptions, CompileStats

from .passes import (
    eliminate_common_subexpressions,
    eliminate_dead_code,
    fuse_mac,
    insert_loads,
    mark_streaming,
    merge_constant_multiplies,
    propagate_copies,
)
from .regalloc import allocate
from .scheduler import apply_schedule, schedule


@dataclass
class ReferenceCompile:
    """The compiled list program plus its options and statistics."""

    program: Program
    options: CompileOptions
    stats: CompileStats


def compile_reference(program: Program,
                      options: CompileOptions | None = None
                      ) -> ReferenceCompile:
    """Compile ``program`` in place with the seed implementations."""
    options = options or CompileOptions()
    pm = PassManager()
    stats = CompileStats()

    def run(name, fn, *args, **kwargs):
        with pm.stage(name, program) as rec:
            rec.detail = fn(program, *args, **kwargs)
        return rec.detail

    stats.instrs_before_opt = len(program.instrs)
    stats.mix_before = program.instruction_mix()
    if options.code_opt:
        stats.copies_removed = run("copy-prop", propagate_copies)
        if program.merged_imms is None:
            program.merged_imms = {}
        stats.consts_merged = run("const-merge", merge_constant_multiplies,
                                  program.merged_imms)
        stats.cse_removed = run("cse", eliminate_common_subexpressions)
        stats.dead_removed = run("dce", eliminate_dead_code)
    stats.instrs_after_opt = len(program.instrs)
    stats.mix_after = program.instruction_mix()

    if options.mac_fusion:
        stats.macs_fused = run("mac-fuse", fuse_mac)

    stats.loads_inserted = run(
        "insert-loads", insert_loads, reuse_window=options.reuse_window,
        prefetch_distance=options.prefetch_distance)
    if options.streaming or options.forward_window > 0:
        stats.streaming_loads, stats.forwarded_values = run(
            "mark-streaming", mark_streaming,
            streaming_loads_enabled=options.streaming,
            forwarding_enabled=options.forward_window > 0)

    with pm.stage("schedule", program, detail=options.scheduling):
        apply_schedule(program, schedule(program,
                                         policy=options.scheduling,
                                         band_size=options.band_size))
    stats.alloc = run("regalloc", allocate, sram_bytes=options.sram_bytes,
                      forward_window=options.forward_window,
                      reserve_slots=options.reserve_slots)
    stats.pass_records = pm.records
    return ReferenceCompile(program=program, options=options, stats=stats)
