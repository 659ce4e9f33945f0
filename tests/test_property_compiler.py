"""Property-based compiler tests: random programs through the passes.

Hypothesis generates random straight-line SSA programs; every pass must
preserve SSA well-formedness, never invent uses of undefined values,
and be idempotent where expected.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.ir import PackedProgram, Program
from repro.compiler.pipeline import CompileOptions, compile_program
from repro.compiler.scheduler import schedule_packed
from repro.core.isa import Opcode

from test_passes import (
    eliminate_common_subexpressions,
    eliminate_dead_code,
    fuse_mac,
    merge_constant_multiplies,
    propagate_copies,
)

_OPS = [Opcode.MMUL, Opcode.MMAD, Opcode.NTT, Opcode.INTT, Opcode.AUTO,
        Opcode.VCOPY]


@st.composite
def random_program(draw):
    """A random straight-line SSA program over 4 DRAM inputs."""
    p = Program(64, name="random")
    values = [p.dram_value(f"in{i}") for i in range(4)]
    length = draw(st.integers(min_value=1, max_value=40))
    for _ in range(length):
        op = draw(st.sampled_from(_OPS))
        modulus = draw(st.integers(min_value=0, max_value=3))
        if op in (Opcode.MMUL, Opcode.MMAD):
            two_operand = draw(st.booleans())
            if two_operand:
                srcs = (draw(st.sampled_from(values)),
                        draw(st.sampled_from(values)))
                imm = 0
            else:
                srcs = (draw(st.sampled_from(values)),)
                imm = draw(st.integers(min_value=1, max_value=5))
            tag = "mult" if op is Opcode.MMUL else "add"
            dest = p.emit(op, srcs, modulus=modulus, imm=imm, tag=tag)
        else:
            srcs = (draw(st.sampled_from(values)),)
            dest = p.emit(op, srcs, modulus=modulus,
                          tag=op.value)
        values.append(dest)
    n_outputs = draw(st.integers(min_value=1, max_value=3))
    for _ in range(n_outputs):
        p.mark_output(draw(st.sampled_from(values)))
    return p


@given(random_program())
@settings(max_examples=60, deadline=None)
def test_passes_preserve_ssa(p):
    propagate_copies(p)
    p.validate()
    merge_constant_multiplies(p)
    p.validate()
    eliminate_common_subexpressions(p)
    p.validate()
    eliminate_dead_code(p)
    p.validate()
    fuse_mac(p)
    p.validate()


@given(random_program())
@settings(max_examples=40, deadline=None)
def test_dce_idempotent(p):
    eliminate_dead_code(p)
    assert eliminate_dead_code(p) == 0


@given(random_program())
@settings(max_examples=40, deadline=None)
def test_cse_idempotent(p):
    propagate_copies(p)
    eliminate_common_subexpressions(p)
    assert eliminate_common_subexpressions(p) == 0


@given(random_program())
@settings(max_examples=40, deadline=None)
def test_schedule_is_permutation(p):
    propagate_copies(p)
    order = schedule_packed(PackedProgram.from_program(p), policy="list")
    assert sorted(order.tolist()) == list(range(len(p.instrs)))


@given(random_program())
@settings(max_examples=25, deadline=None)
def test_full_pipeline_never_crashes(p):
    result = compile_program(p, CompileOptions(
        sram_bytes=64 * p.limb_bytes))
    # Outputs must survive the whole pipeline.
    defined = {i.dest for i in result.program.instrs
               if i.dest is not None}
    defined |= {v for v, val in result.program.values.items()
                if val.origin in ("dram", "const")}
    for out in result.program.outputs:
        assert out in defined


@given(random_program())
@settings(max_examples=25, deadline=None)
def test_opt_never_grows_program(p):
    before = len(p.instrs)
    propagate_copies(p)
    merge_constant_multiplies(p)
    eliminate_common_subexpressions(p)
    eliminate_dead_code(p)
    assert len(p.instrs) <= before
