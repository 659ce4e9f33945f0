"""Static scheduling: topological validity and policies."""

import pytest

import oracles
from repro.compiler.ir import PackedProgram, Program
from repro.compiler.lowering import HeLowering, LoweringParams
from repro.compiler.scheduler import apply_schedule_packed, schedule_packed
from repro.core.isa import Opcode


def schedule(program, **kwargs) -> list[int]:
    return schedule_packed(PackedProgram.from_program(program),
                           **kwargs).tolist()


def _sample_program():
    lp = LoweringParams(n=2 ** 10, levels=5, dnum=2)
    low = HeLowering(lp)
    x, y = low.fresh_ciphertext(5), low.fresh_ciphertext(5)
    out = low.rescale(low.hmult(x, y, low.switching_key("relin")))
    return low.finish(out)


def _is_topological(program, order):
    position = {idx: i for i, idx in enumerate(order)}
    producer = {}
    for idx, ins in enumerate(program.instrs):
        if ins.dest is not None:
            producer[ins.dest] = idx
    for idx, ins in enumerate(program.instrs):
        for s in ins.srcs:
            p = producer.get(s)
            if p is not None and p != idx:
                if position[p] >= position[idx]:
                    return False
    return True


def test_naive_schedule_is_identity():
    p = _sample_program()
    assert schedule(p, policy="naive") == list(range(len(p.instrs)))


def test_list_schedule_topological():
    p = _sample_program()
    order = schedule(p, policy="list")
    assert sorted(order) == list(range(len(p.instrs)))
    assert _is_topological(p, order)


@pytest.mark.parametrize("band", [16, 256, 10 ** 9])
def test_band_sizes_stay_topological(band):
    p = _sample_program()
    order = schedule(p, policy="list", band_size=band)
    assert _is_topological(p, order)


def test_apply_schedule_reorders():
    p = _sample_program()
    packed = PackedProgram.from_program(p)
    order = schedule_packed(packed, policy="list")
    first = p.instrs[order[0]]
    apply_schedule_packed(packed, order)
    scheduled = packed.to_program()
    assert scheduled.instrs[0] == first
    scheduled.validate()


def test_unknown_policy_rejected():
    p = _sample_program()
    with pytest.raises(ValueError):
        schedule(p, policy="magic")


def _every_opcode_program():
    p = Program(2 ** 10, name="all-ops")
    a, c = p.dram_value("a"), p.const_value("c")
    la, lc = p.load(a), p.load(c)
    m = p.emit(Opcode.MMUL, (la, lc), tag="mult")
    ad = p.emit(Opcode.MMAD, (m, la), tag="add")
    mac = p.emit(Opcode.MMAC, (m, ad, la), tag="mult")
    nt = p.emit(Opcode.NTT, (mac,), tag="ntt")
    it = p.emit(Opcode.INTT, (nt,), tag="intt")
    au = p.emit(Opcode.AUTO, (it,), imm=3, tag="auto")
    vc = p.emit(Opcode.VCOPY, (au,), tag="other")
    p.emit(Opcode.SCALAR, (), tag="other")
    p.store(vc)
    p.mark_output(au)
    return p


@pytest.mark.parametrize("policy", ["naive", "list"])
def test_every_opcode_schedules(policy):
    """A program containing every Opcode schedules cleanly on the
    production scheduler and the oracle (no KeyError from the latency
    table)."""
    p = _every_opcode_program()
    assert {i.op for i in p.instrs} == set(Opcode)
    ref = oracles.schedule(p, policy=policy, band_size=32)
    assert sorted(ref) == list(range(len(p.instrs)))
    assert _is_topological(p, ref)
    packed = schedule_packed(PackedProgram.from_program(p),
                             policy=policy, band_size=32)
    assert packed.tolist() == ref


def test_latency_weight_lookup_is_defaulted(monkeypatch):
    """Opcodes missing from _LATENCY_WEIGHT fall back to the default
    weight instead of raising KeyError."""
    from repro.compiler import scheduler as sched_mod
    from repro.compiler.scheduler import latency_weight
    trimmed = dict(sched_mod._LATENCY_WEIGHT)
    del trimmed[Opcode.MMAC]
    del trimmed[Opcode.SCALAR]
    monkeypatch.setattr(sched_mod, "_LATENCY_WEIGHT", trimmed)
    assert latency_weight(Opcode.MMAC) == sched_mod._DEFAULT_LATENCY_WEIGHT
    p = _every_opcode_program()
    ref = oracles.schedule(p, policy="list", band_size=32)
    assert _is_topological(p, ref)
    packed = schedule_packed(PackedProgram.from_program(p),
                             policy="list", band_size=32)
    assert packed.tolist() == ref
