"""Compiler optimization passes on hand-built programs.

Each pass is the production packed implementation, run on a hand-built
list program through :func:`on_program` so the assertions can read
the ``Instr`` list.
"""

import functools

from repro.compiler import packed_passes
from repro.compiler.ir import PackedProgram, Program
from repro.core.isa import Opcode


def on_program(packed_pass):
    """Adapt a packed pass to a list :class:`Program`: pack, run the
    pass, and write the result back in place."""
    @functools.wraps(packed_pass)
    def run(program, *args, **kwargs):
        packed = PackedProgram.from_program(program)
        result = packed_pass(packed, *args, **kwargs)
        packed.write_back(program)
        return result
    return run


propagate_copies = on_program(packed_passes.propagate_copies_packed)
merge_constant_multiplies = on_program(
    packed_passes.merge_constant_multiplies_packed)
eliminate_common_subexpressions = on_program(
    packed_passes.eliminate_common_subexpressions_packed)
eliminate_dead_code = on_program(packed_passes.eliminate_dead_code_packed)
fuse_mac = on_program(packed_passes.fuse_mac_packed)
insert_loads = on_program(packed_passes.insert_loads_packed)
mark_streaming = on_program(packed_passes.mark_streaming_packed)


def test_copy_propagation():
    p = Program(64)
    a = p.dram_value("a")
    c1 = p.emit(Opcode.VCOPY, (a,), tag="mem")
    c2 = p.emit(Opcode.VCOPY, (c1,), tag="mem")
    r = p.emit(Opcode.MMUL, (c2, c2), tag="mult")
    p.mark_output(r)
    removed = propagate_copies(p)
    assert removed == 2
    assert p.instrs[0].srcs == (a, a)
    p.validate()


def test_const_merge_chain():
    """(x*c1)*c2 -> x*(c1*c2): the eq.5 computation merge."""
    p = Program(64)
    x = p.dram_value("x")
    m1 = p.emit(Opcode.MMUL, (x,), imm=11, tag="mult")
    m2 = p.emit(Opcode.MMUL, (m1,), imm=12, tag="bc_mult")
    p.mark_output(m2)
    removed = merge_constant_multiplies(p)
    assert removed == 1
    assert len(p.instrs) == 1
    assert p.instrs[0].srcs == (x,)
    assert p.instrs[0].tag == "bc_mult"   # BConv identity wins


def test_const_merge_respects_multi_use():
    p = Program(64)
    x = p.dram_value("x")
    m1 = p.emit(Opcode.MMUL, (x,), imm=11, tag="mult")
    m2 = p.emit(Opcode.MMUL, (m1,), imm=12, tag="mult")
    other = p.emit(Opcode.MMAD, (m1, m2), tag="add")
    p.mark_output(other)
    assert merge_constant_multiplies(p) == 0


def test_const_merge_triple_chain():
    p = Program(64)
    x = p.dram_value("x")
    v = x
    for imm in (3, 4, 5):
        v = p.emit(Opcode.MMUL, (v,), imm=imm, tag="mult")
    p.mark_output(v)
    assert merge_constant_multiplies(p) == 2
    assert len(p.instrs) == 1


def test_cse_merges_identical_ops():
    p = Program(64)
    a, b = p.dram_value(), p.dram_value()
    s1 = p.emit(Opcode.MMAD, (a, b), modulus=1, tag="add")
    s2 = p.emit(Opcode.MMAD, (b, a), modulus=1, tag="add")  # commutative
    r = p.emit(Opcode.MMUL, (s1, s2), tag="mult")
    p.mark_output(r)
    assert eliminate_common_subexpressions(p) == 1
    assert p.instrs[-1].srcs == (s1, s1)


def test_cse_respects_modulus_and_imm():
    p = Program(64)
    a = p.dram_value()
    v1 = p.emit(Opcode.MMUL, (a,), modulus=0, imm=7, tag="mult")
    v2 = p.emit(Opcode.MMUL, (a,), modulus=1, imm=7, tag="mult")
    v3 = p.emit(Opcode.MMUL, (a,), modulus=0, imm=8, tag="mult")
    for v in (v1, v2, v3):
        p.mark_output(v)
    assert eliminate_common_subexpressions(p) == 0


def test_dce_removes_unused():
    p = Program(64)
    a = p.dram_value()
    used = p.emit(Opcode.MMUL, (a, a), tag="mult")
    p.emit(Opcode.MMAD, (a, a), tag="add")   # dead
    p.mark_output(used)
    assert eliminate_dead_code(p) == 1
    assert len(p.instrs) == 1


def test_dce_keeps_stores():
    p = Program(64)
    a = p.dram_value()
    v = p.emit(Opcode.MMUL, (a, a), tag="mult")
    p.store(v)
    assert eliminate_dead_code(p) == 0


def test_mac_fusion():
    p = Program(64)
    a, b, c = (p.dram_value() for _ in range(3))
    prod = p.emit(Opcode.MMUL, (a, b), tag="mult")
    acc = p.emit(Opcode.MMAD, (prod, c), tag="add")
    p.mark_output(acc)
    assert fuse_mac(p) == 1
    assert len(p.instrs) == 1
    assert p.instrs[0].op is Opcode.MMAC
    assert p.instrs[0].srcs == (a, b, c)


def test_mac_fusion_skips_multiuse_product():
    p = Program(64)
    a, b, c = (p.dram_value() for _ in range(3))
    prod = p.emit(Opcode.MMUL, (a, b), tag="mult")
    acc = p.emit(Opcode.MMAD, (prod, c), tag="add")
    p.mark_output(prod)
    p.mark_output(acc)
    assert fuse_mac(p) == 0


def test_mac_fusion_skips_const_mult():
    p = Program(64)
    a, c = p.dram_value(), p.dram_value()
    prod = p.emit(Opcode.MMUL, (a,), imm=5, tag="mult")
    acc = p.emit(Opcode.MMAD, (prod, c), tag="add")
    p.mark_output(acc)
    assert fuse_mac(p) == 0


def test_insert_loads_single_and_reuse():
    p = Program(64)
    a = p.dram_value()
    r1 = p.emit(Opcode.MMUL, (a, a), tag="mult")
    r2 = p.emit(Opcode.MMAD, (a, r1), tag="add")
    p.mark_output(r2)
    inserted = insert_loads(p, reuse_window=256, prefetch_distance=0)
    assert inserted == 1     # close together -> one cached load
    p.validate()


def test_insert_loads_far_apart_reloads():
    p = Program(64)
    a = p.dram_value()
    v = p.emit(Opcode.MMUL, (a, a), tag="mult")
    for _ in range(50):
        v = p.emit(Opcode.MMUL, (v, v), tag="mult")
    out = p.emit(Opcode.MMAD, (v, a), tag="add")
    p.mark_output(out)
    inserted = insert_loads(p, reuse_window=10, prefetch_distance=0)
    assert inserted == 2     # second use beyond the reuse window


def test_mark_streaming_single_consumer():
    p = Program(64)
    a, b = p.dram_value(), p.dram_value()
    r = p.emit(Opcode.MMUL, (a, b), tag="mult")
    r2 = p.emit(Opcode.MMUL, (r, r), tag="mult")
    p.mark_output(r2)
    insert_loads(p, prefetch_distance=0)
    streams, forwarded = mark_streaming(p)
    assert streams == 2      # both loads single-consumer
    assert forwarded == 0    # r is used twice, r2 is an output
