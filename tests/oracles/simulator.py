"""The seed scoreboard simulator over a list-of-``Instr`` program.

Walks ``program.instrs`` with dict-keyed operand-ready times and a
deque reorder window, accumulating busy/stall counters per
instruction.  :meth:`repro.arch.simulator.EffactSimulator.run_packed`
computes the same recurrence over packed columns and must agree with
it cycle for cycle.
"""

from __future__ import annotations

from collections import deque

from repro.arch.simulator import EffactSimulator, SimulationResult
from repro.arch.units import TimingModel
from repro.compiler.ir import Program
from repro.core.config import HardwareConfig
from repro.core.isa import Opcode


def simulate_reference(program: Program,
                       config: HardwareConfig) -> SimulationResult:
    """Scoreboard-simulate a compiled (allocated) list program."""
    timing = TimingModel(config, program.n)
    unit_free: dict[str, int] = {
        "mmul": 0, "madd": 0, "ntt": 0, "auto": 0,
        "hbm": 0, "sram": 0, "scalar": 0,
    }
    unit_busy: dict[str, int] = {k: 0 for k in unit_free}
    ready: dict[int, int] = {}
    window: deque[int] = deque()
    sram_free = 0
    dram_bytes = 0
    stall = 0
    finish = 0

    for ins in program.instrs:
        op = ins.op
        unit = timing.unit_for(op)
        dur = timing.cycles(op, streaming=ins.streaming)

        operand_ready = 0
        for s in ins.srcs:
            t = ready.get(s)
            if t is not None and t > operand_ready:
                operand_ready = t

        # Reorder window: cannot issue before the oldest in-flight
        # instruction in the window has started.
        window_gate = window[0] if len(window) >= config.ooo_window else 0
        start = max(operand_ready, unit_free[unit], window_gate)

        # SRAM port pressure: non-streaming operand traffic shares the
        # banked SRAM bandwidth.
        sram_bytes = timing.sram_bytes_touched(
            op, len(ins.srcs), streaming=ins.streaming)
        if sram_bytes:
            sram_dur = max(1, sram_bytes
                           // config.sram_bw_bytes_per_cycle)
            start = max(start, sram_free - dur)
            sram_free = max(sram_free, start) + sram_dur
            unit_busy["sram"] += sram_dur

        end = start + dur
        unit_free[unit] = end
        unit_busy[unit] += dur
        stall += max(0, start - operand_ready)

        if op in (Opcode.LOAD, Opcode.STORE):
            dram_bytes += program.n * 8

        if ins.dest is not None:
            ready[ins.dest] = end + EffactSimulator.PIPELINE_LATENCY
        window.append(start)
        if len(window) > config.ooo_window:
            window.popleft()
        finish = max(finish, end)

    return SimulationResult(
        config_name=config.name,
        program_name=program.name,
        cycles=finish,
        freq_ghz=config.freq_ghz,
        instructions=len(program.instrs),
        dram_bytes=dram_bytes,
        unit_busy=unit_busy,
        stall_cycles=stall,
    )
