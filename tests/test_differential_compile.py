"""Differential suite: the packed compiler is bit-identical to the seed.

Every acceptance-relevant surface is compared between
``compile_program`` and the test-only seed pipeline
``oracles.compile_reference`` across an option grid that exercises both scheduling policies, streaming
on/off, MAC fusion on/off, zero reuse/forward windows, and an SRAM
budget small enough to force the spilling allocator: instruction
streams, value tables, outputs, per-pass statistics, slot assignments,
forwarding sets, and cycle-level simulation results (the packed
scoreboard against the oracle list scoreboard).
"""

import dataclasses

import pytest

import oracles
from repro.arch.simulator import simulate
from repro.compiler.ir import PackedProgram, Program
from repro.compiler.lowering import HeLowering, LoweringParams
from repro.compiler.pipeline import CompileOptions, compile_program
from repro.compiler.scheduler import schedule_packed
from repro.core.config import ASIC_EFFACT
from repro.core.isa import Opcode

LIMB = 2 ** 10 * 8


def _he_program():
    lp = LoweringParams(n=2 ** 10, levels=6, dnum=3)
    low = HeLowering(lp)
    ct = low.fresh_ciphertext(6)
    out = low.matmul_bsgs(ct, diag_count=6)
    return low.finish(low.rescale(low.hmult(
        out, out, low.switching_key("relin"))))


def _rotation_program():
    lp = LoweringParams(n=2 ** 10, levels=5, dnum=2)
    low = HeLowering(lp)
    ct = low.fresh_ciphertext(5)
    out = low.rotate(ct, step=3)
    out = low.hadd(out, low.rotate(ct, step=5))
    return low.finish(low.rescale(low.hmult(
        out, out, low.switching_key("relin"))))


def every_opcode_program():
    """A program containing every single Opcode (satellite coverage)."""
    p = Program(2 ** 10, name="all-ops")
    a = p.dram_value("a")
    c = p.const_value("c")
    la, lc = p.load(a), p.load(c)
    m = p.emit(Opcode.MMUL, (la, lc), tag="mult")
    ad = p.emit(Opcode.MMAD, (m, la), tag="add")
    mac = p.emit(Opcode.MMAC, (m, ad, la), tag="mult")
    nt = p.emit(Opcode.NTT, (mac,), tag="ntt")
    it = p.emit(Opcode.INTT, (nt,), tag="intt")
    au = p.emit(Opcode.AUTO, (it,), imm=3, tag="auto")
    vc = p.emit(Opcode.VCOPY, (au,), tag="other")
    sc = p.emit(Opcode.SCALAR, (), tag="other")
    assert sc is not None
    p.store(vc)
    p.mark_output(au)
    return p


BUILDERS = {
    "he": _he_program,
    "rotations": _rotation_program,
    "all-ops": every_opcode_program,
}

OPTION_GRID = [
    CompileOptions(sram_bytes=LIMB * 64),
    CompileOptions(sram_bytes=LIMB * 64, scheduling="naive"),
    CompileOptions(sram_bytes=LIMB * 16),               # forces spills
    CompileOptions(sram_bytes=LIMB * 64, streaming=False),
    CompileOptions(sram_bytes=LIMB * 64, mac_fusion=False),
    CompileOptions(sram_bytes=LIMB * 64, code_opt=False),
    CompileOptions(sram_bytes=LIMB * 64, forward_window=0,
                   reuse_window=0, prefetch_distance=0),
    CompileOptions(sram_bytes=LIMB * 32, band_size=8,
                   prefetch_distance=24),
]

_STAT_FIELDS = [f.name for f in dataclasses.fields(
    __import__("repro.compiler.pipeline", fromlist=["CompileStats"])
    .CompileStats) if f.name != "pass_records"]


def _assert_identical(ref, new):
    p, q = ref.program, new.program
    assert len(p.instrs) == len(q.instrs)
    for i, (a, b) in enumerate(zip(p.instrs, q.instrs)):
        assert (a.op, a.dest, a.srcs, a.modulus, a.imm, a.tag,
                a.streaming) == (b.op, b.dest, b.srcs, b.modulus, b.imm,
                                 b.tag, b.streaming), i
    assert p.outputs == q.outputs
    for name in _STAT_FIELDS:
        left, right = getattr(ref.stats, name), getattr(new.stats, name)
        if name == "alloc":
            assert dataclasses.asdict(left) == dataclasses.asdict(right)
        else:
            assert left == right, name
    assert getattr(p, "forwarded", set()) == getattr(q, "forwarded",
                                                     set())
    assert p.slot_of == q.slot_of
    r1 = oracles.simulate_reference(p, ASIC_EFFACT)
    r2 = simulate(new.packed, ASIC_EFFACT)
    assert (r1.cycles, r1.dram_bytes, r1.stall_cycles, r1.instructions,
            r1.unit_busy) == (r2.cycles, r2.dram_bytes, r2.stall_cycles,
                              r2.instructions, r2.unit_busy)


@pytest.mark.parametrize("name", sorted(BUILDERS))
@pytest.mark.parametrize("idx", range(len(OPTION_GRID)))
def test_engines_bit_identical(name, idx):
    options = OPTION_GRID[idx]
    ref = oracles.compile_reference(BUILDERS[name](), options)
    new = compile_program(BUILDERS[name](), options)
    _assert_identical(ref, new)


@pytest.mark.parametrize("band", [1, 8, 32, 256, 10 ** 9])
def test_schedules_bit_identical(band):
    p = _he_program()
    packed = PackedProgram.from_program(p)
    ref = oracles.schedule(p, policy="list", band_size=band)
    got = schedule_packed(packed, policy="list", band_size=band)
    assert ref == got.tolist()
    assert schedule_packed(packed, policy="naive").tolist() == \
        oracles.schedule(p, policy="naive")


def test_pass_records_instrumented():
    cp = compile_program(_he_program(),
                         CompileOptions(sram_bytes=LIMB * 64))
    # The opt-in verify-* stages (REPRO_VERIFY=1 in the ambient
    # environment) are extras; the transformation pipeline itself
    # must be exactly this sequence, and the oracle pipeline times
    # the same stages.
    names = [r.name for r in cp.stats.pass_records
             if not r.name.startswith("verify")]
    assert names == ["copy-prop", "const-merge", "cse", "dce",
                     "mac-fuse", "insert-loads", "mark-streaming",
                     "schedule", "regalloc"]
    ref = oracles.compile_reference(_he_program(),
                                    CompileOptions(sram_bytes=LIMB * 64))
    assert [r.name for r in ref.stats.pass_records] == names
    assert all(r.wall_s >= 0 for r in cp.stats.pass_records)
    transform = [r for r in cp.stats.pass_records
                 if not r.name.startswith("verify")]
    assert transform[0].instrs_removed == cp.stats.copies_removed
    assert cp.stats.compile_wall_s > 0
