"""Linear-scan SRAM allocation with spilling."""

import dataclasses

import pytest

import oracles
from repro.compiler.ir import PackedProgram
from repro.compiler.lowering import HeLowering, LoweringParams
from repro.compiler.packed_passes import (
    insert_loads_packed,
    mark_streaming_packed,
)
from repro.compiler.regalloc import OutOfSlotsError, allocate_packed
from repro.compiler.scheduler import apply_schedule_packed, schedule_packed
from repro.core.isa import Opcode

LP = LoweringParams(n=2 ** 10, levels=5, dnum=2)
LIMB = LP.limb_bytes


def _lowered():
    low = HeLowering(LP)
    x, y = low.fresh_ciphertext(5), low.fresh_ciphertext(5)
    out = low.rescale(low.hmult(x, y, low.switching_key("relin")))
    return low.finish(out)


def _prepared_program(streaming=True):
    """The list program, legalized and scheduled by the oracles."""
    p = _lowered()
    oracles.insert_loads(p)
    if streaming:
        oracles.mark_streaming(p)
    oracles.apply_schedule(p, oracles.schedule(p))
    return p


def _prepared_packed(streaming=True):
    packed = PackedProgram.from_program(_lowered())
    insert_loads_packed(packed)
    if streaming:
        mark_streaming_packed(packed)
    apply_schedule_packed(packed, schedule_packed(packed))
    return packed


def allocate(streaming=True, *, sram_bytes):
    """Allocate a prepared program; returns the allocated list
    program and the statistics."""
    packed = _prepared_packed(streaming)
    stats = allocate_packed(packed, sram_bytes=sram_bytes)
    return packed.to_program(), stats


def _check_allocation_valid(p):
    """Every non-streaming operand must be slot-resident at its use."""
    slot_of = {}
    streaming_dests = set()
    for ins in p.instrs:
        for s in ins.srcs:
            origin = p.values[s].origin if s in p.values else "compute"
            if origin in ("dram", "const"):
                continue
            resident = s in slot_of or s in streaming_dests \
                or s in getattr(p, "forwarded", set())
            assert resident, f"operand {s} not resident"
        if ins.dest is not None:
            if ins.op is Opcode.LOAD and ins.streaming:
                streaming_dests.add(ins.dest)
            else:
                slot_of[ins.dest] = p.slot_of.get(ins.dest)


def test_ample_sram_no_spills():
    _p, stats = allocate(sram_bytes=LIMB * 4096)
    assert stats.spill_stores == 0
    assert stats.spill_reloads == 0


def test_tight_sram_spills_but_stays_correct():
    p, stats = allocate(sram_bytes=LIMB * 16)
    assert stats.spill_reloads + stats.remat_reloads > 0
    assert stats.dram_load_bytes > 0
    _check_allocation_valid(p)


def test_dram_accounting_consistent():
    p, stats = allocate(sram_bytes=LIMB * 24)
    loads = sum(1 for i in p.instrs if i.op is Opcode.LOAD)
    stores = sum(1 for i in p.instrs if i.op is Opcode.STORE)
    assert stats.dram_load_bytes == loads * LIMB
    assert stats.dram_store_bytes == stores * LIMB


def test_smaller_sram_more_traffic():
    traffic = []
    for slots in (16, 64, 4096):
        _p, stats = allocate(sram_bytes=LIMB * slots)
        traffic.append(stats.dram_total_bytes)
    assert traffic[0] >= traffic[1] >= traffic[2]


def test_streaming_reduces_pressure():
    _p, s1 = allocate(streaming=True, sram_bytes=LIMB * 16)
    _p, s2 = allocate(streaming=False, sram_bytes=LIMB * 16)
    assert s1.dram_total_bytes <= s2.dram_total_bytes


def test_out_of_slots_raises():
    with pytest.raises(OutOfSlotsError):
        allocate(sram_bytes=LIMB * 4)


def test_peak_slots_bounded():
    _p, stats = allocate(sram_bytes=LIMB * 32)
    assert stats.peak_slots_used <= stats.slot_count


# ----------------------------------------------------------------------
# Packed spilling path vs the oracle scan (bit-identical)
# ----------------------------------------------------------------------
def _tags_of(packed):
    return [packed.tags[t] for t in packed.tag_id]


@pytest.mark.parametrize("slots,streaming", [(16, True), (24, True),
                                             (16, False)])
def test_packed_spilling_matches_reference_bitwise(slots, streaming):
    """Forced-spill fixture: the columnar spilling allocator must
    reproduce the oracle linear scan exactly — instruction stream,
    spill map, and every statistic."""
    p_ref = _prepared_program(streaming=streaming)
    packed = PackedProgram.from_program(_prepared_program(
        streaming=streaming))
    stats_ref = oracles.allocate(p_ref, sram_bytes=LIMB * slots)
    stats_packed = allocate_packed(packed, sram_bytes=LIMB * slots)
    assert stats_ref.spill_stores > 0 or stats_ref.spill_reloads > 0 \
        or stats_ref.remat_reloads > 0, "fixture no longer spills"

    assert dataclasses.asdict(stats_ref) == dataclasses.asdict(
        stats_packed)
    assert p_ref.slot_of == packed.slot_of

    repacked = PackedProgram.from_program(p_ref)
    assert len(packed.op) == len(repacked.op)
    for attr in ("op", "dest", "n_srcs", "modulus", "imm", "streaming"):
        assert (getattr(packed, attr) == getattr(repacked, attr)).all(), \
            attr
    width = min(packed.srcs.shape[1], repacked.srcs.shape[1])
    assert (packed.srcs[:, :width] == repacked.srcs[:, :width]).all()
    assert _tags_of(packed) == _tags_of(repacked)


def test_packed_spilling_round_trips_to_program():
    """The scattered columns must still form a valid program."""
    program, _stats = allocate(sram_bytes=LIMB * 16)
    _check_allocation_valid(program)
