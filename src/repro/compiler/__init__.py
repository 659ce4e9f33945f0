"""EFFACT compiler backend: IR, lowering, passes, scheduling, codegen."""

from .codegen import generate
from .exec_backend import (
    ExecBindings,
    ExecutionResult,
    execute_packed,
    execute_reference,
    synthesize_bindings,
)
from .exec_plan import ExecPlan, build_exec_plan, get_exec_plan, plans_built
from .ir import Instr, Program, Value
from .lowering import (
    CtHandle,
    HeLowering,
    KeyHandle,
    LoweringParams,
    PtHandle,
)
from .pipeline import (
    CompiledProgram,
    CompileOptions,
    CompileStats,
    compile_program,
)
from .regalloc import AllocationStats, OutOfSlotsError

__all__ = [
    "AllocationStats",
    "CompileOptions",
    "CompileStats",
    "CompiledProgram",
    "CtHandle",
    "ExecBindings",
    "ExecPlan",
    "ExecutionResult",
    "HeLowering",
    "Instr",
    "KeyHandle",
    "LoweringParams",
    "OutOfSlotsError",
    "Program",
    "PtHandle",
    "Value",
    "build_exec_plan",
    "compile_program",
    "execute_packed",
    "execute_reference",
    "generate",
    "get_exec_plan",
    "plans_built",
    "synthesize_bindings",
]
