"""Execution-backend benchmark: optimization passes are real.

The simulator has always *predicted* that CSE and MAC fusion help; the
execution backend lets us measure it.  This benchmark compiles the
ResNet conv block twice — all passes on, and with CSE (``code_opt``)
plus MAC fusion off — executes both on the batched engine, asserts the
outputs are bitwise identical, and guards a >1.0x executed-wall-time
speedup floor for the optimized compile.

Measured on the reference runner (2026-08-07, ``n=4096``, levels=7,
dnum=4, 8 conv diagonals): all-on 0.33-0.34 s / 4225 instrs vs.
pass-off 0.43 s / 5769 instrs — **1.25-1.33x** executed speedup across
runs.  The guard floor is deliberately just above
parity so noisy shared runners do not flake; the point it pins is the
*direction*: turning the passes off must never be faster.

``execute_packed`` replays a precompiled
:class:`~repro.compiler.exec_plan.ExecPlan`; the dblookup profile
test pins *why* MAC fusion is executed-time neutral.

Environment knobs: ``REPRO_BENCH_EXEC_N`` (ring degree, default 4096),
``REPRO_BENCH_EXEC_MIN_SPEEDUP`` (default 1.0).
"""

import numpy as np

from repro import obs
from repro.compiler.exec_backend import execute_packed, synthesize_bindings
from repro.compiler.ir import PackedProgram
from repro.compiler.lowering import LoweringParams
from repro.compiler.pipeline import CompileOptions, compile_packed
from repro.core.env import env_float, env_int
from repro.workloads.dblookup import build_dblookup_program
from repro.workloads.resnet import ResNetShape, build_conv_block

EXEC_N = env_int("REPRO_BENCH_EXEC_N", 4096, minimum=1)
MIN_SPEEDUP = env_float("REPRO_BENCH_EXEC_MIN_SPEEDUP", 1.0)
REPEATS = 3
#: Bound on fused over unfused best-of-N executed wall on dblookup
#: when the C NTT kernel runs (measured ~0.97).
FUSION_NEUTRAL_BOUND = 1.10


def _best_exec_time(compiled, bindings):
    """Best-of-N wall time (plus the first run's result for checking);
    best-of filters scheduler jitter on shared runners."""
    result = execute_packed(compiled, bindings)
    best = result.wall_s
    for _ in range(REPEATS - 1):
        best = min(best, execute_packed(compiled, bindings).wall_s)
    return best, result


def test_cse_and_mac_fusion_reduce_executed_wall_time():
    lp = LoweringParams(n=EXEC_N, levels=7, dnum=4, log_q=30)
    shape = ResNetShape(conv_diagonals=8, start_level=7)
    packed = PackedProgram.from_program(
        build_conv_block(lp, shape, name="conv-bench"))
    bindings = synthesize_bindings(packed)

    on = compile_packed(packed.copy(), CompileOptions())
    off = compile_packed(packed.copy(),
                         CompileOptions(code_opt=False, mac_fusion=False))
    assert on.packed.num_instrs < off.packed.num_instrs, \
        "passes removed no instructions; benchmark is measuring nothing"

    t_on, r_on = _best_exec_time(on, bindings)
    t_off, r_off = _best_exec_time(off, bindings)

    # The differential property rides along for free: both compiles of
    # the same program must agree bitwise on every output.
    assert set(r_on.outputs) == set(r_off.outputs)
    for vid in r_on.outputs:
        np.testing.assert_array_equal(r_on.outputs[vid],
                                      r_off.outputs[vid])

    speedup = t_off / t_on
    print(f"\nexec conv block n={EXEC_N}: "
          f"all-on {t_on:.3f}s/{on.packed.num_instrs} instrs, "
          f"pass-off {t_off:.3f}s/{off.packed.num_instrs} instrs "
          f"-> {speedup:.2f}x")
    assert speedup > MIN_SPEEDUP, (
        f"CSE+MAC-fuse executed speedup {speedup:.2f}x is under the "
        f"{MIN_SPEEDUP:.2f}x floor (all-on {t_on:.3f}s vs pass-off "
        f"{t_off:.3f}s): the optimization passes are no longer real "
        f"on the execution backend")


def test_exec_instruction_timing_breakdown_reported():
    """The backend's per-run accounting must cover the whole stream:
    instruction count in the result equals the compiled stream length
    (nothing silently skipped), and wall time is positive."""
    lp = LoweringParams(n=min(EXEC_N, 2048), levels=5, dnum=2,
                        log_q=30)
    shape = ResNetShape(conv_diagonals=4, start_level=5)
    packed = PackedProgram.from_program(
        build_conv_block(lp, shape, name="conv-acct"))
    compiled = compile_packed(packed.copy(), CompileOptions())
    result = execute_packed(compiled, synthesize_bindings(packed))
    assert result.instructions == compiled.packed.num_instrs
    assert result.wall_s > 0


def test_mac_fusion_is_executed_time_neutral_on_dblookup(ntt_impl):
    """MAC fusion removes instructions but not executed wall time on
    dblookup — and the per-step profile shows why.

    Measured on the reference runner (2026-08-07, ``n=2048``,
    levels=7, dnum=2, 8 squarings): fusion drops 9616 -> 9120
    instructions (-5%, all elementwise), yet executed wall is flat
    (0.377s vs 0.374s, <1%), because the NTT-family steps
    (ntt/intt/auto) are **66-67%** of replay wall in *both* compiles
    and fusion touches none of them; the elementwise share it does
    shave is ~30% and the masked merged steps already amortize those
    rows.  The assertion pins the structural fact (NTT-family wall
    strictly dominates elementwise wall in both compiles), not the
    noisy ratio.

    That explanation is a property of the numpy kernels, which is
    what the ``numpy`` run asserts.  On the native kernels (the C NTT
    and the C elementwise replay steps) the NTT family falls to ~40-45%
    of replay wall, so the ``native`` run asserts the neutrality
    itself: fused best-of-N executed wall within
    ``FUSION_NEUTRAL_BOUND`` of unfused.  There each elementwise row
    costs about as much as each NTT row, so the rows fusion removes
    can show (measured best of 3, traced, 2-vCPU VM: fused 0.79-0.95x
    of unfused across runs).
    """
    lp = LoweringParams(n=2048, levels=7, dnum=2, log_q=30)
    packed = PackedProgram.from_program(
        build_dblookup_program(lp, squarings=8, name="db-neutral"))
    bindings = synthesize_bindings(packed)

    # The tracer fills each result's per-step-label profile.
    walls, results = {}, {}
    was = obs.TRACER.enabled
    obs.TRACER.enabled = True
    try:
        for fuse in (True, False):
            compiled = compile_packed(packed.copy(),
                                      CompileOptions(mac_fusion=fuse))
            walls[fuse], results[fuse] = _best_exec_time(compiled,
                                                         bindings)
    finally:
        obs.TRACER.enabled = was
        obs.TRACER.drain()
    fused, plain = results[True], results[False]

    assert fused.instructions < plain.instructions, \
        "MAC fusion removed no instructions on dblookup"
    for vid in plain.outputs:
        np.testing.assert_array_equal(fused.outputs[vid],
                                      plain.outputs[vid])

    for label, result in (("fused", fused), ("unfused", plain)):
        ntt_wall = sum(w for lbl, (w, _) in result.profile.items()
                       if lbl in ("ntt", "intt", "auto"))
        ew_wall = sum(w for lbl, (w, _) in result.profile.items()
                      if lbl.startswith("mm"))
        total = sum(w for w, _ in result.profile.values())
        print(f"\ndblookup {label} ({ntt_impl}): {result.instructions} "
              f"instrs, ntt-family {ntt_wall / total:.0%}, "
              f"elementwise {ew_wall / total:.0%} of replay wall")
        if ntt_impl == "numpy":
            assert ntt_wall > ew_wall, (
                f"{label}: NTT-family wall {ntt_wall:.4f}s no longer "
                f"dominates elementwise {ew_wall:.4f}s; the MAC-fusion "
                f"neutrality explanation does not hold")
    ratio = walls[True] / walls[False]
    print(f"dblookup ({ntt_impl}): fused {walls[True]:.4f}s vs unfused "
          f"{walls[False]:.4f}s executed wall ({ratio:.2f}x)")
    if ntt_impl == "native":
        assert ratio <= FUSION_NEUTRAL_BOUND, (
            f"MAC fusion made executed wall {ratio:.2f}x of unfused on "
            f"the C NTT kernel, over the {FUSION_NEUTRAL_BOUND:.2f}x "
            f"bound: fusion is no longer time neutral")
