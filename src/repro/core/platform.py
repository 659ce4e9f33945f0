"""The EFFACT platform facade: compile + simulate in one call.

The top-level entry point a downstream user reaches for: give it a
hardware configuration and an IR program (or a lowering callback) and
get back compilation statistics, machine code, and a cycle-level
simulation result.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arch.area import AreaBreakdown, area_power
from ..arch.simulator import EffactSimulator, SimulationResult
from ..compiler.codegen import generate
from ..compiler.ir import Program
from ..compiler.pipeline import CompiledProgram, CompileOptions, \
    compile_program
from ..core.isa import MachineInstruction
from .config import ASIC_EFFACT, HardwareConfig


@dataclass
class ExecutionReport:
    """Everything one platform run produces."""

    compiled: CompiledProgram
    machine_code: list[MachineInstruction]
    simulation: SimulationResult

    @property
    def runtime_ms(self) -> float:
        return self.simulation.runtime_ms

    @property
    def dram_bytes(self) -> int:
        return self.simulation.dram_bytes


class EffactPlatform:
    """Compiler backend + architecture bound to one configuration."""

    def __init__(self, config: HardwareConfig = ASIC_EFFACT,
                 options: CompileOptions | None = None):
        self.config = config
        self.options = options or CompileOptions(
            sram_bytes=config.sram_bytes)
        self.simulator = EffactSimulator(config)

    def execute(self, program: Program) -> ExecutionReport:
        """Compile ``program`` for this configuration and simulate it."""
        compiled = compile_program(program, self.options)
        code = generate(compiled.program)
        simulation = self.simulator.run_packed(compiled.packed)
        return ExecutionReport(compiled=compiled, machine_code=code,
                               simulation=simulation)

    def area_power(self) -> AreaBreakdown:
        """Table IV-style area/power breakdown of this configuration."""
        return area_power(self.config)
