"""Cycle-level simulator for the EFFACT architecture (paper Fig. 5).

Models the OoO scoreboard core issuing residue-level instructions to
four function-unit pools (ModAdd, ModMult, NTT, Auto), a multi-channel
HBM interface, SRAM bandwidth, and the streaming FIFO path.  Each pool
is a throughput server: per-instruction service time already folds in
the pool's lane count, so pool-level serialization models aggregate
throughput (the same abstraction the paper's own "cycle-accurate C++
simulator" takes for the Figure 10 study).

The scoreboard allows any instruction inside the reorder window to
start once its operands and its unit are free — dynamic scheduling on
top of the compiler's static schedule (section IV-D1: the OoO core lets
SRAM and the streaming FIFO compete for DRAM transfers instead of tying
DRAM to the slow fine-grained NTT).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..compiler.ir import OP_INDEX, PackedProgram, Program
from ..core.config import HardwareConfig
from ..core.isa import Opcode
from ..obs import TRACER
from .units import UNIT_NAMES, TimingModel

#: Count of scoreboard simulations actually executed in this process
#: (store-served results do not increment it) — the sweep engine reads
#: deltas around each point to prove warm sweeps simulate nothing.
_SIMULATIONS_EXECUTED = 0


def simulations_executed() -> int:
    """Process-wide number of simulator runs actually executed."""
    return _SIMULATIONS_EXECUTED


@dataclass
class SimulationResult:
    """Aggregate outcome of simulating one compiled program."""

    config_name: str
    program_name: str
    cycles: int
    freq_ghz: float
    instructions: int
    dram_bytes: int
    unit_busy: dict[str, int] = field(default_factory=dict)
    stall_cycles: int = 0

    @property
    def runtime_ms(self) -> float:
        return self.cycles / (self.freq_ghz * 1e9) * 1e3

    @property
    def runtime_us(self) -> float:
        return self.runtime_ms * 1e3

    def utilization(self, unit: str) -> float:
        if self.cycles == 0:
            return 0.0
        return self.unit_busy.get(unit, 0) / self.cycles

    @property
    def dram_bw_utilization(self) -> float:
        return self.utilization("hbm")

    def __repr__(self) -> str:
        return (f"SimulationResult({self.program_name} on "
                f"{self.config_name}: {self.cycles} cycles, "
                f"{self.runtime_ms:.3f} ms)")


class EffactSimulator:
    """Scoreboard simulator over a compiled (allocated) program."""

    #: Pipeline startup latency added to every instruction's completion
    #: (register/NoC hops); small against vector occupancies.
    PIPELINE_LATENCY = 4

    def __init__(self, config: HardwareConfig):
        self.config = config

    def run_packed(self, packed: PackedProgram) -> SimulationResult:
        """Scoreboard recurrence over packed columns.

        Service times, unit ids and SRAM traffic are precomputed as one
        vectorized gather per column; busy/stall/finish accounting is
        batched with ``bincount``/``max`` after the fact.  The only
        sequential piece left is the scoreboard recurrence itself
        (operand-ready / unit-free / reorder-window maxes), which runs
        as a tight loop over plain int lists.  Cycle-identical to the
        seed list scoreboard kept as a test-only oracle
        (``tests/oracles``), pinned by the differential suite.
        """
        global _SIMULATIONS_EXECUTED
        _SIMULATIONS_EXECUTED += 1
        TRACER.count("sim.executed")
        cfg = self.config
        timing = TimingModel(cfg, packed.n)
        nrows = packed.num_instrs
        durations, units = timing.op_tables()
        dur = np.array(durations, dtype=np.int64)[packed.op]
        unit = np.array(units, dtype=np.int64)[packed.op]

        n8 = packed.n * 8
        is_mem = ((packed.op == OP_INDEX[Opcode.LOAD])
                  | (packed.op == OP_INDEX[Opcode.STORE]))
        max_srcs = int(packed.n_srcs.max()) if nrows else 0
        sram_table = timing.sram_bytes_table(max_srcs)
        sram_bytes = sram_table[packed.streaming.astype(np.int64),
                                packed.op, packed.n_srcs]
        sram_dur = np.maximum(1, sram_bytes // cfg.sram_bw_bytes_per_cycle)
        sram_dur = np.where(sram_bytes == 0, 0, sram_dur)

        offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64),
             np.cumsum(packed.n_srcs)]).tolist()
        flat = packed.srcs[packed.srcs >= 0].tolist()
        dur_l = dur.tolist()
        unit_l = unit.tolist()
        sram_l = sram_dur.tolist()
        dest_l = packed.dest.tolist()

        ready = [0] * packed.num_values
        unit_free = [0] * len(UNIT_NAMES)
        starts = [0] * nrows
        op_ready = [0] * nrows
        window = cfg.ooo_window
        sram_free = 0
        sram_busy = 0
        latency = self.PIPELINE_LATENCY
        for i in range(nrows):
            opr = 0
            for s in flat[offsets[i]:offsets[i + 1]]:
                t = ready[s]
                if t > opr:
                    opr = t
            u = unit_l[i]
            d = dur_l[i]
            start = opr
            t = unit_free[u]
            if t > start:
                start = t
            if i >= window:
                t = starts[i - window]
                if t > start:
                    start = t
            sd = sram_l[i]
            if sd:
                t = sram_free - d
                if t > start:
                    start = t
                sram_free = (sram_free if sram_free > start
                             else start) + sd
                sram_busy += sd
            end = start + d
            unit_free[u] = end
            dst = dest_l[i]
            if dst >= 0:
                ready[dst] = end + latency
            starts[i] = start
            op_ready[i] = opr

        starts_a = np.array(starts, dtype=np.int64)
        ends = starts_a + dur
        finish = int(ends.max()) if nrows else 0
        stall = int(np.maximum(
            starts_a - np.array(op_ready, dtype=np.int64), 0).sum())
        busy_counts = np.bincount(unit, weights=dur,
                                  minlength=len(UNIT_NAMES)).astype(np.int64)
        unit_busy = {name: int(busy_counts[i])
                     for i, name in enumerate(UNIT_NAMES)}
        unit_busy["sram"] += sram_busy
        dram_bytes = int(np.count_nonzero(is_mem)) * n8

        return SimulationResult(
            config_name=cfg.name,
            program_name=packed.name,
            cycles=finish,
            freq_ghz=cfg.freq_ghz,
            instructions=nrows,
            dram_bytes=dram_bytes,
            unit_busy=unit_busy,
            stall_cycles=stall,
        )


def simulate(program: Program | PackedProgram,
             config: HardwareConfig) -> SimulationResult:
    """Simulate a compiled program; a list :class:`Program` is packed
    once first."""
    if not isinstance(program, PackedProgram):
        program = PackedProgram.from_program(program)
    with TRACER.span("sim.scoreboard", config=config.name):
        return EffactSimulator(config).run_packed(program)
