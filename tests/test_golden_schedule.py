"""Golden determinism pins: schedules, cycle counts, allocation.

The constants below were captured from the seed (pre-packed-IR)
implementations on a small fixed program, across both scheduling
policies and a spilling SRAM budget.  They pin scheduler/simulator
determinism for every future engine rewrite: any change to schedule
order, spill placement, slot assignment or the scoreboard recurrence
shows up as a golden mismatch — on *both* the production compile and
the seed pipeline kept as ``oracles.compile_reference`` (simulated on
the oracle list scoreboard), which must also agree with each other
(see ``test_differential_compile``).
"""

import hashlib

import pytest

import oracles
from repro.arch.simulator import simulate
from repro.compiler.ir import PackedProgram
from repro.compiler.lowering import HeLowering, LoweringParams
from repro.compiler.pipeline import CompileOptions, compile_program
from repro.compiler.scheduler import schedule_packed
from repro.core.config import ASIC_EFFACT

ENGINES = ("reference", "packed")


def _compile(engine, program, options):
    """``(compiled list program, stats, simulation)`` from the oracle
    pipeline and scoreboard (``"reference"``) or production."""
    if engine == "reference":
        cp = oracles.compile_reference(program, options)
        return cp.program, cp.stats, oracles.simulate_reference(
            cp.program, ASIC_EFFACT)
    cp = compile_program(program, options)
    return cp.program, cp.stats, simulate(cp.packed, ASIC_EFFACT)


def _small_program():
    lp = LoweringParams(n=2 ** 10, levels=5, dnum=2)
    low = HeLowering(lp)
    ct = low.fresh_ciphertext(5, "ct")
    out = low.matmul_bsgs(ct, diag_count=4, name="mm")
    out = low.rescale(low.hmult(out, out, low.switching_key("relin")))
    return low.finish(out)


def _order_sha(order) -> str:
    return hashlib.sha256(
        ",".join(map(str, order)).encode()).hexdigest()[:16]


def _instr_sha(program) -> str:
    return hashlib.sha256("|".join(
        f"{i.op.value}:{i.dest}:{i.srcs}:{i.modulus}:{i.imm}:"
        f"{i.streaming}" for i in program.instrs
    ).encode()).hexdigest()[:16]


# Recaptured for the execution backend: lowering now assigns *global*
# prime-chain columns (P limbs address their own primes instead of
# aliasing Q columns) and multiplies iNTT results by per-prime ninv
# constants, so the raw stream grew and every downstream sha moved.
# Both engines were verified to agree on every value below before
# pinning.
GOLDEN_RAW_INSTRS = 1178
GOLDEN_ORDERS = {
    "naive": ("362ea774f042d738", list(range(12))),
    "list": ("33432328a3193fb4", [0, 2, 6, 8, 4, 10, 1, 3, 7, 9, 5, 11]),
}
#: policy -> (instrs, cycles, dram_bytes, stall, peak_slots, instr sha)
GOLDEN_COMPILED = {
    "naive": (1150, 3451, 1196032, 241244, 43, "dbbef174b7d44f6e"),
    "list": (1150, 2644, 1196032, 198664, 48, "3316796a74536bf2"),
}
GOLDEN_UNIT_BUSY = {"auto": 36, "hbm": 584, "madd": 240, "mmul": 486,
                    "ntt": 886, "scalar": 0, "sram": 1040}
#: (instrs, cycles, dram, spill_stores, spill_reloads, remat_reloads,
#:  peak, load_bytes, store_bytes, instr sha, slot sha)
GOLDEN_SPILL = (1351, 3394, 2842624, 45, 90, 66, 16, 2473984, 368640,
                "c7c730bbb8a142c0", "bc070a9b2817e772")


@pytest.mark.parametrize("policy", ["naive", "list"])
def test_raw_schedule_orders_pinned(policy):
    p = _small_program()
    assert len(p.instrs) == GOLDEN_RAW_INSTRS
    sha, head = GOLDEN_ORDERS[policy]
    ref = oracles.schedule(p, policy=policy, band_size=32)
    assert _order_sha(ref) == sha
    assert ref[:12] == head
    packed = schedule_packed(PackedProgram.from_program(p),
                             policy=policy, band_size=32)
    assert packed.tolist() == ref


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("policy", ["naive", "list"])
def test_compiled_cycle_counts_pinned(engine, policy):
    p = _small_program()
    options = CompileOptions(sram_bytes=p.limb_bytes * 64,
                             scheduling=policy)
    program, stats, res = _compile(engine, p, options)
    instrs, cycles, dram, stall, peak, sha = GOLDEN_COMPILED[policy]
    assert len(program.instrs) == instrs
    assert res.cycles == cycles
    assert res.dram_bytes == dram
    assert res.stall_cycles == stall
    assert stats.alloc.peak_slots_used == peak
    assert _instr_sha(program) == sha
    assert res.unit_busy == GOLDEN_UNIT_BUSY


@pytest.mark.parametrize("engine", ENGINES)
def test_spilling_allocation_pinned(engine):
    p = _small_program()
    options = CompileOptions(sram_bytes=p.limb_bytes * 16)
    program, stats, res = _compile(engine, p, options)
    (instrs, cycles, dram, stores, reloads, remats, peak, load_b,
     store_b, sha, slot_sha) = GOLDEN_SPILL
    alloc = stats.alloc
    assert len(program.instrs) == instrs
    assert res.cycles == cycles
    assert res.dram_bytes == dram
    assert (alloc.spill_stores, alloc.spill_reloads,
            alloc.remat_reloads) == (stores, reloads, remats)
    assert alloc.peak_slots_used == peak
    assert (alloc.dram_load_bytes, alloc.dram_store_bytes) == \
        (load_b, store_b)
    assert _instr_sha(program) == sha
    slot_digest = hashlib.sha256(",".join(
        f"{k}:{v}" for k, v in sorted(program.slot_of.items())
    ).encode()).hexdigest()[:16]
    assert slot_digest == slot_sha


def test_compiles_are_deterministic_across_runs():
    shas = {_instr_sha(compile_program(
        _small_program(),
        CompileOptions(sram_bytes=2 ** 10 * 8 * 64)).program)
        for _ in range(3)}
    assert len(shas) == 1
