"""HE-primitive lowering: instruction structure and counts."""

import math

import pytest

from repro.compiler.lowering import HeLowering, LoweringParams
from repro.core.isa import Opcode

LP = LoweringParams(n=2 ** 12, levels=8, dnum=4)


def test_alpha_and_digits():
    assert LP.alpha == math.ceil(9 / 4)
    low = HeLowering(LP)
    assert low.num_digits(8) == math.ceil(9 / LP.alpha)
    assert low.num_digits(2) == 1


def test_hadd_counts():
    low = HeLowering(LP)
    x, y = low.fresh_ciphertext(8), low.fresh_ciphertext(8)
    low.hadd(x, y)
    assert low.program.count(Opcode.MMAD) == 2 * 9


def test_bconv_instruction_structure():
    """BConv lowers to MULT/ADD only (no dedicated unit, section III-1)."""
    low = HeLowering(LP)
    limbs = [low.program.dram_value() for _ in range(3)]
    out = low.bconv(limbs, 5)
    assert len(out) == 5
    ops = {ins.op for ins in low.program.instrs}
    assert ops <= {Opcode.MMUL, Opcode.MMAD}
    mix = low.program.instruction_mix()
    # per eq.3: 3 prep + 5*3 products, 5*2 accumulations
    assert mix["bc_mult"] == 3 + 15
    assert mix["bc_add"] == 10


def test_keyswitch_produces_both_components():
    low = HeLowering(LP)
    ct = low.fresh_ciphertext(8)
    key = low.switching_key("k")
    ks0, ks1 = low.key_switch(ct.c1, 8, key)
    assert len(ks0) == len(ks1) == 9
    assert low.program.count(Opcode.NTT) > 0
    assert low.program.count(Opcode.INTT) > 0


def test_hmult_level_preserved_and_rescale_drops():
    low = HeLowering(LP)
    x, y = low.fresh_ciphertext(8), low.fresh_ciphertext(8)
    prod = low.hmult(x, y, low.switching_key("relin"))
    assert prod.level == 8
    dropped = low.rescale(prod)
    assert dropped.level == 7
    assert len(dropped.c0) == 8


def test_rotation_includes_automorphism():
    low = HeLowering(LP)
    ct = low.fresh_ciphertext(4)
    rotated = low.rotate(ct, 3)
    autos = [i for i in low.program.instrs if i.op is Opcode.AUTO]
    assert autos and all(i.imm == 3 for i in autos)
    assert rotated.level == 4


def test_hoisted_rotations_share_decomposition():
    """Hoisted steps emit identical decompose/BConv/NTT chains that CSE
    later collapses; verify the redundancy exists pre-CSE."""
    from repro.compiler.ir import PackedProgram
    from repro.compiler.packed_passes import (
        eliminate_common_subexpressions_packed,
    )

    low = HeLowering(LP)
    ct = low.fresh_ciphertext(6)
    low.hoisted_rotations(ct, [1, 2, 3])
    low.program.validate()
    removed = eliminate_common_subexpressions_packed(
        PackedProgram.from_program(low.program))
    assert removed > 100


def test_matmul_bsgs_structure():
    low = HeLowering(LP)
    ct = low.fresh_ciphertext(6)
    out = low.matmul_bsgs(ct, diag_count=8)
    assert out.level == 5     # one level consumed
    assert low.program.count(Opcode.AUTO) > 0


def test_switching_key_cached():
    low = HeLowering(LP)
    k1 = low.switching_key("galois[1]")
    k2 = low.switching_key("galois[1]")
    assert k1 is k2


def test_finish_validates_and_marks_outputs():
    low = HeLowering(LP)
    ct = low.fresh_ciphertext(3)
    out = low.hadd(ct, ct)
    prog = low.finish(out)
    assert len(prog.outputs) == 8
