"""Differential fuzzing of the compiler against the execution oracle.

Random small :class:`Program`\\ s — every ISA opcode reachable — are
compiled with each optimization pass toggled on and off, plus a
spill-forcing SRAM squeeze, and executed by planned replay, once on
the native kernels and once on numpy.
Every variant must produce outputs bitwise identical to the naive
instruction-at-a-time reference interpreter running the *uncompiled*
program, and therefore to each other: any pass that changes a single
residue of any output, any scheduling reorder that breaks a data
dependency, and any replay dispatch bug shows up as a mismatch.

All arithmetic is exact (mod-q in uint64, primes < 2^31), so equality
is exact equality — no tolerances, no flaky thresholds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compiler.exec_backend import (
    execute_packed,
    execute_reference,
    synthesize_bindings,
)
from repro.compiler.ir import PackedProgram, Program
from repro.compiler.pipeline import CompileOptions, compile_packed
from repro.core.isa import Opcode

N_RING = 64

#: Each optimization pass individually off, everything off, and a
#: 10-slot SRAM that forces the allocator through spill/reload/remat.
VARIANTS = {
    "all-on": CompileOptions(),
    "no-code-opt": CompileOptions(code_opt=False),
    "no-mac-fusion": CompileOptions(mac_fusion=False),
    "no-streaming": CompileOptions(streaming=False),
    "naive-schedule": CompileOptions(scheduling="naive"),
    "all-off": CompileOptions(code_opt=False, mac_fusion=False,
                              streaming=False, scheduling="naive"),
    "spilling": CompileOptions(sram_bytes=N_RING * 8 * 10),
}

SEEDS = list(range(8))


@pytest.fixture(autouse=True)
def _static_verify(monkeypatch):
    """Run every fuzz compile (and plan build) through the static
    verifier: the corpus doubles as the verifier's no-false-positive
    proof across all pass combinations, including spilling."""
    monkeypatch.setenv("REPRO_VERIFY", "1")


def random_program(seed: int) -> Program:
    """A random SSA program over 2-3 moduli using the whole ISA.

    Generation keeps a pool of live values and appends ops whose
    sources draw from it; mul-then-add chains are emitted deliberately
    as MAC-fusion fodder, and MMAC also appears directly so coverage
    does not depend on the fuser.
    """
    rng = np.random.default_rng(seed)
    moduli = int(rng.integers(2, 4))
    prog = Program(N_RING, name=f"fuzz{seed}")
    prog.const_names = {1: "fuzz.c1", 2: "fuzz.c2", 3: "fuzz.c3"}

    def mod() -> int:
        return int(rng.integers(moduli))

    live: list[int] = []
    for i in range(int(rng.integers(3, 6))):
        d = prog.dram_value(f"fuzz.in[{i}]")
        live.append(prog.load(d, modulus=mod()))

    def pick() -> int:
        return live[int(rng.integers(len(live)))]

    ops = ("mmul2", "mmul1", "mmad2", "mmad1", "mmac", "mulchain",
           "ntt", "intt", "auto", "vcopy", "scalar", "load", "store")
    for _ in range(int(rng.integers(30, 60))):
        kind = ops[int(rng.integers(len(ops)))]
        j = mod()
        if kind == "mmul2":
            live.append(prog.emit(Opcode.MMUL, (pick(), pick()),
                                  modulus=j, tag="mult"))
        elif kind == "mmul1":
            live.append(prog.emit(Opcode.MMUL, (pick(),), modulus=j,
                                  imm=int(rng.integers(1, 4)),
                                  tag="mult"))
        elif kind == "mmad2":
            live.append(prog.emit(Opcode.MMAD, (pick(), pick()),
                                  modulus=j, tag="add"))
        elif kind == "mmad1":
            live.append(prog.emit(Opcode.MMAD, (pick(),), modulus=j,
                                  imm=int(rng.integers(1, 4)),
                                  tag="add"))
        elif kind == "mmac":
            live.append(prog.emit(Opcode.MMAC,
                                  (pick(), pick(), pick()),
                                  modulus=j, tag="mult"))
        elif kind == "mulchain":
            t = prog.emit(Opcode.MMUL, (pick(), pick()), modulus=j,
                          tag="mult")
            live.append(prog.emit(Opcode.MMAD, (t, pick()), modulus=j,
                                  tag="add"))
        elif kind == "ntt":
            live.append(prog.emit(Opcode.NTT, (pick(),), modulus=j,
                                  tag="ntt"))
        elif kind == "intt":
            live.append(prog.emit(Opcode.INTT, (pick(),), modulus=j,
                                  tag="ntt"))
        elif kind == "auto":
            steps = (-1, 1, 2, 3, 5)
            live.append(prog.emit(
                Opcode.AUTO, (pick(),), modulus=j,
                imm=steps[int(rng.integers(len(steps)))], tag="auto"))
        elif kind == "vcopy":
            live.append(prog.emit(Opcode.VCOPY, (pick(),), modulus=j,
                                  tag="other"))
        elif kind == "scalar":
            live.append(prog.emit(Opcode.SCALAR, (), modulus=j,
                                  imm=int(rng.integers(1, 1 << 20)),
                                  tag="other"))
        elif kind == "load":
            d = prog.dram_value(f"fuzz.extra[{len(prog.values)}]")
            live.append(prog.load(d, modulus=j))
        elif kind == "store":
            prog.store(pick(), modulus=j)
    # Outputs: the program tail plus a few random intermediates, each
    # pinned through an MMAD with a unique immediate.  A raw chosen vid
    # could be a VCOPY dest or a CSE duplicate, and the passes would
    # (correctly) forward the output to its canonical representative —
    # the pin keeps original-vid keying stable across every variant so
    # the differential comparison can align outputs.
    # A dozen pins keeps enough values live to the program tail that
    # the 10-slot 'spilling' variant genuinely exceeds SRAM.
    chosen = list(dict.fromkeys(live[-3:] + [pick() for _ in range(12)]))
    for i, vid in enumerate(chosen):
        prog.const_names[100 + i] = f"fuzz.pin[{i}]"
        prog.mark_output(prog.emit(Opcode.MMAD, (vid,), modulus=mod(),
                                   imm=100 + i, tag="add"))
    prog.validate()
    return prog


@pytest.mark.parametrize("seed", SEEDS)
def test_all_compile_variants_match_reference_oracle(seed, each_impl):
    prog = random_program(seed)
    packed = PackedProgram.from_program(prog)
    bindings = synthesize_bindings(packed)
    oracle = execute_reference(prog, bindings)
    assert oracle, "fuzz program produced no outputs"
    for label, options in VARIANTS.items():
        compiled = compile_packed(packed.copy(), options)
        # Planned replay pins against the reference oracle on the
        # native kernels and on numpy.
        for impl in each_impl():
            where = f"seed {seed}, variant {label}, {impl}"
            result = execute_packed(compiled, bindings)
            assert set(result.outputs) == set(oracle), \
                f"{where}: output set changed"
            for vid in oracle:
                np.testing.assert_array_equal(
                    result.outputs[vid], oracle[vid],
                    err_msg=f"{where}, output {vid}")


def test_fuzz_corpus_reaches_every_opcode():
    """The generator + pass pipeline together must exercise the whole
    ISA (MMAC additionally via the fuser, LOAD/STORE additionally via
    the spilling allocator), or the differential net has holes."""
    seen: set[int] = set()
    for seed in SEEDS:
        packed = PackedProgram.from_program(random_program(seed))
        for options in (CompileOptions(),
                        VARIANTS["spilling"],
                        VARIANTS["all-off"]):
            compiled = compile_packed(packed.copy(), options)
            seen.update(np.unique(compiled.packed.op).tolist())
    missing = [op.name for i, op in enumerate(Opcode) if i not in seen]
    assert not missing, f"fuzz corpus never emitted: {missing}"


def test_spilling_variant_actually_spills():
    """Guard the guard: the SRAM squeeze must exercise the allocator's
    spill path, or the 'spilling' variant silently degenerates into a
    repeat of 'all-on'."""
    spilled = 0
    for seed in SEEDS:
        packed = PackedProgram.from_program(random_program(seed))
        compiled = compile_packed(packed.copy(), VARIANTS["spilling"])
        spilled += compiled.stats.alloc.spill_stores
    assert spilled > 0, "no fuzz seed ever spilled; shrink sram_bytes"
