"""Mutation tests for the static verifier suites.

Each verifier check gets a *mutation test*: start from a known-good
artifact (packed IR, schedule, allocated stream, exec plan), corrupt
exactly the property the check guards, and assert the suite reports
that check id at the offending instruction/step index.  Positive tests
pin the clean path: real compiles with ``CompileOptions(verify=True)``
(and ``REPRO_VERIFY=1``) run all three pipeline stages and pass.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compiler.exec_backend import synthesize_bindings
from repro.compiler.exec_plan import K_DRAM, build_exec_plan
from repro.compiler.ir import OP_INDEX, PackedProgram, Program
from repro.compiler.pipeline import CompileOptions, compile_packed
from repro.compiler.verify import (
    Diagnostic,
    VerifyError,
    raise_on,
    verify_ir,
    verify_plan,
    verify_regalloc,
    verify_schedule,
)
from repro.core.isa import Opcode

N = 64
LIMB = N * 8

_LOAD = OP_INDEX[Opcode.LOAD]
_STORE = OP_INDEX[Opcode.STORE]


def small_packed() -> PackedProgram:
    """LOAD a, LOAD b, MMUL, MMAD, NTT, STORE — one row per shape."""
    prog = Program(N, name="verify-fixture")
    a = prog.dram_value("in[0]")
    b = prog.dram_value("in[1]")
    la = prog.load(a, modulus=0)                       # row 0
    lb = prog.load(b, modulus=1)                       # row 1
    m = prog.emit(Opcode.MMUL, (la, lb), modulus=0)    # row 2
    s = prog.emit(Opcode.MMAD, (m, la), modulus=0)     # row 3
    t = prog.emit(Opcode.NTT, (s,), modulus=0)         # row 4
    prog.mark_output(t)
    prog.store(t, modulus=0)                           # row 5
    return PackedProgram.from_program(prog)


def wide_packed(k: int = 12) -> PackedProgram:
    """``k`` loads all live until a reduction tail (capacity fodder)."""
    prog = Program(N, name="verify-wide")
    vals = [prog.load(prog.dram_value(f"w[{i}]")) for i in range(k)]
    acc = vals[0]
    for v in vals[1:]:
        acc = prog.emit(Opcode.MMUL, (acc, v))
    prog.mark_output(acc)
    prog.store(acc)
    return PackedProgram.from_program(prog)


def checks_of(diags: list[Diagnostic]) -> set[str]:
    return {d.check for d in diags}


def find(diags, check: str) -> list[Diagnostic]:
    return [d for d in diags if d.check == check]


def assert_flagged(diags, suite: str, check: str,
                   index: int | None = None) -> None:
    hits = [d for d in diags if d.suite == suite and d.check == check]
    assert hits, (f"expected a {suite}/{check} diagnostic, got "
                  f"{[str(d) for d in diags]}")
    if index is not None:
        assert any(d.index == index for d in hits), \
            f"no {check} diagnostic at index {index}: " \
            f"{[str(d) for d in hits]}"


# ----------------------------------------------------------------------
# Suite (a): IR mutations
# ----------------------------------------------------------------------
def test_ir_clean_baseline():
    assert verify_ir(small_packed()) == []


def test_ir_column_shape():
    p = small_packed()
    p.dest = p.dest[:-1]
    assert_flagged(verify_ir(p), "ir", "column-shape", -1)


def test_ir_opcode_range():
    p = small_packed()
    p.op[2] = 99
    assert_flagged(verify_ir(p), "ir", "opcode-range", 2)


def test_ir_arity():
    p = small_packed()
    p.n_srcs[4] = 2                     # binary NTT is illegal
    p.srcs[4, 1] = 0
    assert_flagged(verify_ir(p), "ir", "arity", 4)


def test_ir_arity_nullary_load_pre_regalloc_only():
    p = small_packed()
    p.n_srcs[0] = 0
    p.srcs[0] = -1
    diags = verify_ir(p)
    assert_flagged(diags, "ir", "arity", 0)
    assert "before register allocation" in find(diags, "arity")[0].message
    assert verify_ir(p, allow_reloads=True) == []


def test_ir_dest_legality_store_defines():
    p = small_packed()
    p.dest[5] = 0                       # STORE must keep dest == -1
    assert_flagged(verify_ir(p), "ir", "dest-legality", 5)


def test_ir_dest_legality_out_of_table():
    p = small_packed()
    p.dest[2] = p.num_values + 7
    assert_flagged(verify_ir(p), "ir", "dest-legality", 2)


def test_ir_src_padding():
    p = small_packed()
    p.srcs[4, 1] = 0                    # beyond n_srcs=1, must be -1
    assert_flagged(verify_ir(p), "ir", "src-padding", 4)


def test_ir_src_range():
    p = small_packed()
    p.srcs[2, 0] = p.num_values + 3
    assert_flagged(verify_ir(p), "ir", "src-range", 2)


def test_ir_origin_code():
    p = small_packed()
    p.val_origin[0] = 7
    assert_flagged(verify_ir(p), "ir", "origin-code", 0)


def test_ir_dram_address():
    p = small_packed()
    dram = int(np.nonzero(p.val_origin == 1)[0][0])
    p.val_address[dram] = -1
    assert_flagged(verify_ir(p), "ir", "dram-address", dram)


def test_ir_multiple_def():
    p = small_packed()
    p.dest[4] = p.dest[2]               # NTT re-defines MMUL's value
    assert_flagged(verify_ir(p), "ir", "multiple-def", 4)


def test_ir_def_of_input():
    p = small_packed()
    dram = int(np.nonzero(p.val_origin == 1)[0][0])
    p.dest[2] = dram
    assert_flagged(verify_ir(p), "ir", "def-of-input", 2)


def test_ir_def_before_use():
    p = small_packed()
    p.srcs[2, 0] = p.dest[4]            # MMUL reads the NTT result
    assert_flagged(verify_ir(p), "ir", "def-before-use", 2)


def test_ir_output_defined():
    p = small_packed()
    p.dest[4] = p.dest[2]               # program output never defined
    assert_flagged(verify_ir(p), "ir", "output-defined")


def test_ir_output_range():
    p = small_packed()
    p.outputs = np.array([p.num_values + 1], dtype=np.int64)
    assert_flagged(verify_ir(p), "ir", "output-range")


def test_ir_modulus_negative():
    p = small_packed()
    p.modulus[3] = -1
    assert_flagged(verify_ir(p), "ir", "modulus-range", 3)


def test_ir_modulus_beyond_prime_chain():
    p = small_packed()
    p.prime_meta = (1, 1)
    p.modulus[3] = 5
    assert_flagged(verify_ir(p), "ir", "modulus-range", 3)


def test_ir_merged_imm():
    p = small_packed()
    p.n_srcs[2] = 1                     # MMUL by merged constant
    p.srcs[2, 1] = -1
    p.imm[2] = -7                       # ...not in any registry
    assert_flagged(verify_ir(p), "ir", "merged-imm", 2)
    p.merged_imms = {(0, 1): -7}
    assert verify_ir(p) == []


def test_ir_streaming_flag():
    p = small_packed()
    p.streaming[2] = True               # MMUL cannot stream
    assert_flagged(verify_ir(p), "ir", "streaming-flag", 2)


def test_ir_suppression_cap():
    # Corrupting every opcode of a large program must not flood the
    # report: MAX_PER_CHECK diagnostics plus a suppression summary.
    from repro.compiler.verify import MAX_PER_CHECK

    p = wide_packed(40)
    p.op[:] = 99
    diags = find(verify_ir(p), "opcode-range")
    assert len(diags) == MAX_PER_CHECK + 1
    assert diags[-1].index == -1
    assert "suppressed" in diags[-1].message


# ----------------------------------------------------------------------
# Suite (b): schedule mutations
# ----------------------------------------------------------------------
def test_schedule_clean_identity():
    p = small_packed()
    order = np.arange(p.num_instrs)
    assert verify_schedule(p, order, p.copy()) == []


def test_schedule_order_length():
    p = small_packed()
    diags = verify_schedule(p, np.arange(p.num_instrs - 1))
    assert_flagged(diags, "schedule", "order-length", -1)


def test_schedule_order_permutation():
    p = small_packed()
    diags = verify_schedule(p, np.zeros(p.num_instrs, dtype=np.int64))
    assert_flagged(diags, "schedule", "order-permutation", -1)


def test_schedule_dataflow():
    p = small_packed()
    order = np.arange(p.num_instrs)
    order[[0, 2]] = order[[2, 0]]       # MMUL before its LOAD operand
    assert_flagged(verify_schedule(p, order), "schedule",
                   "dataflow", 2)


def test_schedule_memory_hazard():
    # STORE then reload of the same DRAM address must stay ordered:
    # this hazard is invisible to value-level tracking (all three
    # rows only *read* the dram value id) and comes from the alias
    # analysis.
    prog = Program(N)
    d = prog.dram_value("x")
    v1 = prog.load(d)                   # row 0
    prog.store(d)                       # row 1: writes d's address
    v2 = prog.load(d)                   # row 2: must stay after row 1
    prog.mark_output(prog.emit(Opcode.MMUL, (v1, v2)))
    p = PackedProgram.from_program(prog)
    order = np.arange(p.num_instrs)
    assert verify_schedule(p, order) == []
    order[[1, 2]] = order[[2, 1]]       # reload hoisted above store
    assert_flagged(verify_schedule(p, order), "schedule",
                   "dataflow", 2)


def test_schedule_stream_mismatch():
    p = small_packed()
    order = np.arange(p.num_instrs)
    post = p.copy()
    post.modulus[1] += 1                # scheduler must not rewrite
    assert_flagged(verify_schedule(p, order, post), "schedule",
                   "stream-mismatch", 1)


# ----------------------------------------------------------------------
# Suite (b): regalloc mutations
# ----------------------------------------------------------------------
def _allocated(options: CompileOptions | None = None):
    # ``slot_of`` is residual (values still slot-resident at program
    # end), so the fixture needs two live-out values; forwarding and
    # streaming off so they actually occupy SRAM slots.
    options = options or CompileOptions(sram_bytes=LIMB * 64,
                                        streaming=False,
                                        forward_window=0)
    prog = Program(N, name="verify-two-outs")
    a = prog.load(prog.dram_value("a"))
    b = prog.load(prog.dram_value("b"))
    x = prog.emit(Opcode.MMUL, (a, b))
    y = prog.emit(Opcode.MMAD, (x, a))
    prog.mark_output(x)
    prog.mark_output(y)
    prog.store(x)
    prog.store(y)
    packed = PackedProgram.from_program(prog)
    compiled = compile_packed(packed, options)
    return compiled.packed, options


def test_regalloc_clean_baseline():
    packed, options = _allocated()
    assert verify_regalloc(packed,
                           sram_bytes=options.sram_bytes) == []
    assert packed.slot_of              # mutation fodder below


def test_regalloc_slot_range():
    packed, options = _allocated()
    vid = next(iter(packed.slot_of))
    packed.slot_of[vid] = 10 ** 6
    assert_flagged(
        verify_regalloc(packed, sram_bytes=options.sram_bytes),
        "regalloc", "slot-range", vid)


def test_regalloc_slot_collision():
    packed, options = _allocated()
    vids = sorted(packed.slot_of)
    assert len(vids) >= 2
    packed.slot_of[vids[1]] = packed.slot_of[vids[0]]
    assert_flagged(
        verify_regalloc(packed, sram_bytes=options.sram_bytes),
        "regalloc", "slot-collision", vids[1])


def test_regalloc_reload_chain():
    p = small_packed()
    # Turn the NTT row into a nullary reload of the MMUL result,
    # which was never spilled: reading garbage from DRAM.
    p.op[4] = _LOAD
    p.n_srcs[4] = 0
    p.srcs[4] = -1
    p.dest[4] = p.dest[2]
    assert_flagged(verify_regalloc(p, sram_bytes=LIMB * 64),
                   "regalloc", "reload-chain", 4)


def test_regalloc_reload_chain_accepts_spilled():
    p = small_packed()
    # Same mutation, but with a spill STORE of the value first (the
    # MMAD row becomes the store), forming a legal chain.
    p.op[3] = _STORE
    p.dest[3] = -1
    p.n_srcs[3] = 1
    p.srcs[3] = -1
    p.srcs[3, 0] = p.dest[2]
    p.op[4] = _LOAD
    p.n_srcs[4] = 0
    p.srcs[4] = -1
    p.dest[4] = p.dest[2]
    diags = verify_regalloc(p, sram_bytes=LIMB * 64)
    assert not find(diags, "reload-chain")


def test_regalloc_streaming_single_use():
    p = small_packed()
    p.streaming[0] = True               # row 0's dest has two uses
    assert_flagged(verify_regalloc(p, sram_bytes=LIMB * 64),
                   "regalloc", "streaming-single-use", 0)


def test_regalloc_capacity():
    p = wide_packed(12)                 # 12 simultaneously-live loads
    diags = verify_regalloc(p, sram_bytes=LIMB * 8)
    assert_flagged(diags, "regalloc", "capacity")
    assert verify_regalloc(p, sram_bytes=LIMB * 64) == []


# ----------------------------------------------------------------------
# Suite (c): plan mutations
# ----------------------------------------------------------------------
def parallel_packed(k: int = 8) -> PackedProgram:
    """``k`` independent MMULs (merge into one wide vector step);
    every product is an output so nothing MAC-fuses them serial."""
    prog = Program(N, name="verify-parallel")
    loads = [prog.load(prog.dram_value(f"p[{i}]")) for i in range(k)]
    for i in range(k):
        prod = prog.emit(Opcode.MMUL, (loads[i], loads[(i + 1) % k]))
        prog.mark_output(prod)
        prog.store(prod)
    return PackedProgram.from_program(prog)


def _plan():
    compiled = compile_packed(parallel_packed().copy(),
                              CompileOptions())
    bindings = synthesize_bindings(compiled.packed)
    return build_exec_plan(compiled.packed, bindings)


def _vector_step(plan):
    for si, st in enumerate(plan.steps):
        if st.kind != K_DRAM and st.a is not None and len(st.out) >= 2:
            return si, st
    pytest.skip("no mutable vector step in the tiny plan")


def test_plan_clean_baseline():
    assert verify_plan(_plan()) == []


def test_plan_step_shape():
    plan = _plan()
    si, st = _vector_step(plan)
    st.a = st.a[:-1]
    assert_flagged(verify_plan(plan), "plan", "step-shape", si)


def test_plan_index_bounds():
    plan = _plan()
    si, st = _vector_step(plan)
    st.out = st.out.copy()
    st.out[0] = plan.arena_rows + 5
    assert_flagged(verify_plan(plan), "plan", "index-bounds", si)


def test_plan_write_race():
    plan = _plan()
    si, st = _vector_step(plan)
    st.out = st.out.copy()
    st.out[1] = st.out[0]               # two lanes, one arena row
    assert_flagged(verify_plan(plan), "plan", "write-race", si)


def test_plan_read_write_overlap():
    plan = _plan()
    si, st = _vector_step(plan)
    st.a = st.a.copy()
    st.a[0] = st.out[0]
    assert_flagged(verify_plan(plan), "plan", "read-write-overlap", si)


def test_plan_read_unwritten():
    plan = _plan()
    # Drop the first writing step: someone downstream now reads rows
    # nothing ever wrote.
    del plan.steps[0]
    assert_flagged(verify_plan(plan), "plan", "read-unwritten")


def test_plan_output_rows():
    plan = _plan()
    assert plan.output_rows
    vid, _row = plan.output_rows[0]
    plan.output_rows[0] = (vid, plan.arena_rows + 1)
    assert_flagged(verify_plan(plan), "plan", "output-rows", -1)


def test_plan_accounting():
    plan = _plan()
    plan.instructions += 1
    assert_flagged(verify_plan(plan), "plan", "accounting", -1)


# ----------------------------------------------------------------------
# Error type and reporting
# ----------------------------------------------------------------------
def test_raise_on_formats_diagnostics():
    p = small_packed()
    p.op[2] = 99
    with pytest.raises(VerifyError) as exc:
        raise_on(verify_ir(p))
    err = exc.value
    assert err.diagnostics
    assert "[ir/opcode-range @2]" in str(err)


def test_raise_on_clean_is_noop():
    raise_on([])


# ----------------------------------------------------------------------
# Pipeline integration (positive path)
# ----------------------------------------------------------------------
VERIFY_STAGES = ["verify-ir", "verify-schedule", "verify-regalloc"]


def _verify_records(stats):
    return [r.name for r in stats.pass_records
            if r.name.startswith("verify")]


def test_pipeline_runs_verify_stages_when_enabled():
    compiled = compile_packed(small_packed(),
                              CompileOptions(verify=True))
    assert _verify_records(compiled.stats) == VERIFY_STAGES


def test_pipeline_skips_verify_stages_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_VERIFY", raising=False)
    compiled = compile_packed(small_packed(), CompileOptions())
    assert _verify_records(compiled.stats) == []


def test_pipeline_verify_survives_spilling():
    options = CompileOptions(sram_bytes=LIMB * 10, verify=True)
    compiled = compile_packed(parallel_packed(12).copy(), options)
    assert _verify_records(compiled.stats) == VERIFY_STAGES
    alloc = compiled.stats.alloc
    assert alloc.spill_stores + alloc.spill_reloads \
        + alloc.remat_reloads > 0


def test_pipeline_env_flag_enables_verify(monkeypatch):
    monkeypatch.setenv("REPRO_VERIFY", "1")
    compiled = compile_packed(small_packed(), CompileOptions())
    assert _verify_records(compiled.stats) == VERIFY_STAGES


def test_reference_engine_runs_verify_stages():
    from repro.compiler.pipeline import compile_program

    prog = Program(N, name="ref-verify")
    a = prog.dram_value("in")
    la = prog.load(a)
    out = prog.emit(Opcode.MMUL, (la, la))
    prog.mark_output(out)
    prog.store(out)
    compiled = compile_program(prog, CompileOptions(verify=True))
    assert _verify_records(compiled.stats) == VERIFY_STAGES
