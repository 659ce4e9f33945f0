"""Precompiled execution plans: differentials, caching, persistence.

The planned replay path (:mod:`repro.compiler.exec_plan`) is the
engine behind ``execute_packed``; these tests pin it bitwise against
the naive reference interpreter (on the uncompiled program and on the
compiled stream) over the fuzz corpus — including spill-forced
compiles — pin its spill accounting and step merging to counts read
off the compiled stream, and cover the plan-specific machinery the
fuzzer cannot see: cache identity, ``clear_caches()`` integration,
bindings-shape keying, artifact-store persistence, the store payload
round trip, and the per-step profile the tracer fills.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.compiler.exec_backend import (
    ExecBindings,
    execute_packed,
    execute_reference,
    synthesize_bindings,
)
from repro.compiler.exec_plan import (
    bindings_token,
    build_exec_plan,
    clear_exec_plan_cache,
    get_exec_plan,
    plan_from_payload,
    plan_to_payload,
    plans_built,
    replay_plan,
)
from repro.compiler.ir import OP_INDEX, PackedProgram, Program
from repro.compiler.pipeline import CompileOptions, compile_packed
from repro.core.isa import Opcode
from repro.exp.store import ArtifactStore, using_store
from repro.nttmath.batched import clear_caches
from repro.nttmath.primes import find_ntt_primes

from test_exec_fuzz import N_RING, VARIANTS, random_program
from tiny_ir import TINY_SRAM, tiny_builder


_LOAD, _STORE = OP_INDEX[Opcode.LOAD], OP_INDEX[Opcode.STORE]


@pytest.fixture()
def compiled():
    packed = PackedProgram.from_program(random_program(3))
    return compile_packed(packed.copy(), CompileOptions())


def _assert_outputs_equal(outputs, oracle):
    assert set(outputs) == set(oracle)
    for vid in oracle:
        np.testing.assert_array_equal(outputs[vid], oracle[vid])


def _stream_spill_counts(packed) -> tuple[int, int]:
    """``(STORE rows, source-less LOADs of a vid STOREd earlier)``."""
    stored: set[int] = set()
    reloads = 0
    for op, dest, n_srcs, src0 in zip(packed.op.tolist(),
                                      packed.dest.tolist(),
                                      packed.n_srcs.tolist(),
                                      packed.srcs[:, 0].tolist()):
        if op == _STORE:
            stored.add(src0)
        elif op == _LOAD and n_srcs == 0 and dest in stored:
            reloads += 1
    return int(np.count_nonzero(packed.op == _STORE)), reloads


# ----------------------------------------------------------------------
# Differentials
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("variant", ["all-on", "spilling"])
def test_planned_replay_matches_both_oracles(seed, variant):
    prog = random_program(seed)
    packed = PackedProgram.from_program(prog)
    bindings = synthesize_bindings(packed)
    oracle = execute_reference(prog, bindings)
    compiled = compile_packed(packed.copy(), VARIANTS[variant])
    planned = execute_packed(compiled, bindings)
    # The uncompiled program and the compiled stream (spill stores and
    # reloads included) must agree under the oracle too.
    _assert_outputs_equal(planned.outputs, oracle)
    _assert_outputs_equal(planned.outputs,
                          execute_reference(compiled.program, bindings))


def test_spill_forced_plan_records_spills_and_matches():
    """The plan's spill accounting must match the compiled stream, not
    just its outputs — a plan that silently dropped a spill would
    still pass the output check whenever the value was
    rematerializable.  Every STORE row is a spill store, and every
    source-less LOAD of a value some STORE wrote is a spill reload."""
    prog = random_program(1)
    packed = PackedProgram.from_program(prog)
    bindings = synthesize_bindings(packed)
    compiled = compile_packed(packed.copy(), VARIANTS["spilling"])
    planned = execute_packed(compiled, bindings)
    stores, reloads = _stream_spill_counts(compiled.packed)
    assert planned.spill_stores == stores
    assert planned.spill_reloads == reloads
    assert planned.spill_stores > 0, \
        "spilling variant did not spill; shrink sram_bytes"
    _assert_outputs_equal(planned.outputs,
                          execute_reference(prog, bindings))


def test_spill_reload_counters_count_different_things():
    """Replay counts every reload served from a stored copy; the
    allocator counts only values it spilled.  On this seed the one
    reload is a remat reload of a value a program STORE wrote, so the
    two disagree by design (see the field docs); neither is wrong."""
    packed = PackedProgram.from_program(random_program(1))
    compiled = compile_packed(packed.copy(), VARIANTS["spilling"])
    planned = execute_packed(compiled)
    alloc = compiled.stats.alloc
    assert (planned.spill_reloads, alloc.spill_reloads,
            alloc.remat_reloads) == (1, 0, 1)


def test_plan_merges_runs_at_least_as_well_as_interpreter(compiled):
    """Masked MUL/ADD merging, trailing-single coalescing and wavefront
    rescheduling mean the plan can never have *more* steps than the
    compiled stream has maximal same-opcode segments (the runs an
    in-order executor would issue)."""
    planned = execute_packed(compiled)
    op = compiled.packed.op
    segments = 1 + int(np.count_nonzero(op[1:] != op[:-1]))
    assert planned.instructions == len(op)
    assert planned.runs <= segments


# ----------------------------------------------------------------------
# Empty programs (regression: ZeroDivisionError in mean_run_length)
# ----------------------------------------------------------------------
def test_empty_program_executes_on_both_engines():
    prog = Program(N_RING, name="empty")
    compiled = compile_packed(PackedProgram.from_program(prog),
                              CompileOptions())
    result = execute_packed(compiled)
    assert result.outputs == {} == execute_reference(prog)
    assert result.instructions == 0
    assert result.runs == 0
    assert result.mean_run_length == 0.0   # guarded, no ZeroDivision


# ----------------------------------------------------------------------
# In-process cache
# ----------------------------------------------------------------------
def test_plan_cache_returns_identical_object(compiled):
    # Plans are content-addressed, so an earlier test in the same
    # process may already have warmed this program's entry.
    clear_exec_plan_cache()
    bindings = synthesize_bindings(compiled.packed)
    built0 = plans_built()
    p1 = get_exec_plan(compiled, bindings)
    p2 = get_exec_plan(compiled, bindings)
    assert p1 is p2
    assert plans_built() - built0 == 1


def test_plan_built_flag_reports_warmth(compiled):
    clear_exec_plan_cache()
    bindings = synthesize_bindings(compiled.packed)
    cold = execute_packed(compiled, bindings)
    warm = execute_packed(compiled, bindings)
    assert cold.plan_built is True
    assert warm.plan_built is False


def test_clear_caches_drops_plans(compiled):
    bindings = synthesize_bindings(compiled.packed)
    p1 = get_exec_plan(compiled, bindings)
    clear_caches()
    built0 = plans_built()
    p2 = get_exec_plan(compiled, bindings)
    assert p2 is not p1
    assert plans_built() - built0 == 1


def test_different_bindings_shape_keys_different_plans(compiled):
    """The plan bakes in the concrete prime chain (q/imm columns,
    engine keys), so a different chain must miss the cache — and both
    plans must replay correctly against their own bindings."""
    packed = compiled.packed
    b1 = synthesize_bindings(packed)
    q_count, p_count = len(b1.q), len(b1.p)
    alt = find_ntt_primes(28, packed.n, q_count + p_count)
    b2 = ExecBindings(alt[:q_count], alt[q_count:], packed.n)
    assert bindings_token(b1) != bindings_token(b2)
    p1 = get_exec_plan(compiled, b1)
    p2 = get_exec_plan(compiled, b2)
    assert p1 is not p2
    for bindings, plan in ((b1, p1), (b2, p2)):
        outputs, _, _ = replay_plan(plan, bindings)
        _assert_outputs_equal(
            outputs, execute_reference(compiled.program, bindings))


# ----------------------------------------------------------------------
# Store persistence
# ----------------------------------------------------------------------
def test_plan_persists_through_artifact_store(tmp_path, compiled):
    bindings = synthesize_bindings(compiled.packed)
    store = ArtifactStore(tmp_path / "store")
    with using_store(store):
        clear_exec_plan_cache()
        first = execute_packed(compiled, bindings)
        assert first.plan_built is True
        assert store.stats.plan_stores == 1
        # Drop the in-process cache: the next execution must be served
        # from disk (no rebuild), as a fresh process would be.
        clear_exec_plan_cache()
        built0 = plans_built()
        second = execute_packed(compiled, bindings)
    assert second.plan_built is False
    assert plans_built() == built0
    assert store.stats.plan_hits == 1
    for vid in first.outputs:
        np.testing.assert_array_equal(second.outputs[vid],
                                      first.outputs[vid])


@pytest.mark.parametrize("variant", ["all-on", "spilling", "all-off"])
def test_plan_payload_round_trip(variant):
    """npz/JSON serialization must reconstruct a bitwise-equivalent
    plan, counters included."""
    packed = PackedProgram.from_program(random_program(5))
    bindings = synthesize_bindings(packed)
    compiled = compile_packed(packed.copy(), VARIANTS[variant])
    plan = build_exec_plan(compiled.packed, bindings)
    meta, arrays = plan_to_payload(plan)
    restored = plan_from_payload(meta, arrays["idx"], arrays["col"])
    assert restored.instructions == plan.instructions
    assert restored.runs == plan.runs
    assert restored.arena_rows == plan.arena_rows
    assert restored.peak_live == plan.peak_live
    assert restored.spill_stores == plan.spill_stores
    assert restored.spill_reloads == plan.spill_reloads
    assert restored.free_instrs == plan.free_instrs
    assert restored.output_rows == plan.output_rows
    out1, _, _ = replay_plan(plan, bindings)
    out2, _, _ = replay_plan(restored, bindings)
    assert set(out1) == set(out2)
    for vid in out1:
        np.testing.assert_array_equal(out1[vid], out2[vid])


# ----------------------------------------------------------------------
# Profiling
# ----------------------------------------------------------------------
def test_traced_profile_breaks_down_every_instruction(compiled):
    was = obs.TRACER.enabled
    obs.TRACER.enabled = True
    try:
        result = execute_packed(compiled)
    finally:
        obs.TRACER.enabled = was
        obs.TRACER.drain()
    assert result.profile is not None
    assert all(wall >= 0.0 for wall, _ in result.profile.values())
    # Every instruction is attributed to exactly one step label
    # (replay-free instructions — aliased loads, no-op stores — are
    # merged in at zero wall time).
    assert sum(instrs for _, instrs in result.profile.values()) \
        == result.instructions


def test_profile_off_by_default(compiled):
    assert execute_packed(compiled).profile is None


def test_traced_replay_that_raises_closes_its_scope(ntt_impl):
    """A step that raises mid-replay (a strict binding missing its DRAM
    row) must not leave the ``replay`` scope open: later spans would
    all nest under it."""
    packed = PackedProgram.from_program(tiny_builder(levels=4, diag=3)())
    compiled = compile_packed(packed, CompileOptions(sram_bytes=TINY_SRAM))
    synth = synthesize_bindings(compiled.packed)
    strict = ExecBindings(synth.q, synth.p, synth.n, strict=True)
    was = obs.TRACER.enabled
    obs.TRACER.drain()
    obs.TRACER.enabled = True
    try:
        with pytest.raises(KeyError, match="no binding"):
            execute_packed(compiled, strict)
        assert obs.TRACER.depth() == 0
        with obs.TRACER.span("after"):
            pass
        events, _ = obs.TRACER.drain()
    finally:
        obs.TRACER.enabled = was
        obs.TRACER.drain()
    assert events[-1][obs.EV_PATH] == ("after",)
