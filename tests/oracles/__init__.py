"""Test-only differential oracles for the compiler and simulator.

The production compiler runs vectorized passes over packed columns
(:mod:`repro.compiler.pipeline`) and the simulator runs its scoreboard
over the same columns.  This package keeps the seed implementations
they were derived from — straight-line walks over a list-of-``Instr``
:class:`~repro.compiler.ir.Program` that share none of the packed
machinery — so that bit-identical programs, statistics and cycle
counts between the two are evidence, not tautology.  The
differential suites (``tests/test_differential_compile.py``,
``tests/test_golden_schedule.py``,
``benchmarks/test_compiler_bench.py``) compare them.

The execution oracle is :func:`repro.compiler.exec_backend.
execute_reference`, which ships with the package because the
benchmark checks every replay against it.
"""

from .passes import (
    eliminate_common_subexpressions,
    eliminate_dead_code,
    fuse_mac,
    insert_loads,
    mark_streaming,
    merge_constant_multiplies,
    propagate_copies,
)
from .pipeline import ReferenceCompile, compile_reference
from .regalloc import allocate
from .scheduler import apply_schedule, memory_dependencies, schedule
from .simulator import simulate_reference

__all__ = [
    "ReferenceCompile",
    "allocate",
    "apply_schedule",
    "compile_reference",
    "eliminate_common_subexpressions",
    "eliminate_dead_code",
    "fuse_mac",
    "insert_loads",
    "mark_streaming",
    "memory_dependencies",
    "merge_constant_multiplies",
    "propagate_copies",
    "schedule",
    "simulate_reference",
]
