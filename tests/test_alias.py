"""Alias analysis: memory ordering edges."""

import oracles
from repro.compiler.alias import memory_dependencies_packed
from repro.compiler.ir import PackedProgram, Program
from repro.core.isa import Opcode


def memory_dependencies(program):
    """The production edge arrays as a list of pairs, checked against
    the list-walk oracle."""
    e_from, e_to = memory_dependencies_packed(
        PackedProgram.from_program(program))
    edges = list(zip(e_from.tolist(), e_to.tolist()))
    assert edges == oracles.memory_dependencies(program)
    return edges


def _program_with_aliasing():
    p = Program(64)
    a = p.dram_value("a")     # one DRAM address
    l1 = p.load(a)
    v = p.emit(Opcode.MMUL, (l1, l1), tag="mult")
    # Store back to the same logical address by reusing the value id.
    p.instrs.append(type(p.instrs[0])(op=Opcode.STORE, dest=None,
                                      srcs=(a,), tag="mem"))
    l2 = p.load(a)
    p.mark_output(v)
    return p


def test_store_load_edge():
    p = _program_with_aliasing()
    edges = memory_dependencies(p)
    # load(0) -> store(2), store(2) -> load(3)
    assert (0, 2) in edges
    assert (2, 3) in edges


def test_no_edges_between_distinct_addresses():
    p = Program(64)
    a, b = p.dram_value(), p.dram_value()
    p.load(a)
    p.load(b)
    assert memory_dependencies(p) == []


def test_store_store_ordering():
    p = Program(64)
    a = p.dram_value()
    from repro.compiler.ir import Instr

    p.instrs.append(Instr(op=Opcode.STORE, dest=None, srcs=(a,),
                          tag="mem"))
    p.instrs.append(Instr(op=Opcode.STORE, dest=None, srcs=(a,),
                          tag="mem"))
    assert (0, 1) in memory_dependencies(p)
