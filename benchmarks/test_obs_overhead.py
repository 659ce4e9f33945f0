"""Telemetry overhead guard: the disabled tracer must be free.

Every hot path (``replay_plan``, the batched NTT engine, the compile
pipeline) carries tracing hooks that are supposed to cost one branch
when the tracer is off.  This benchmark pins that claim on the
conv-block replay at ``n=512`` (where dispatch — and therefore any
instrumentation — is the largest relative share of the wall time):

* **asserted**: disabled-tracer ``replay_plan`` vs. a bare call of the
  same step runner (one native call over the whole plan, numpy when
  the kernels are unavailable) with no clock reads and no tracer
  branches, best-of-N, within ``REPRO_BENCH_OBS_MAX_OVERHEAD``
  (default 2%, with floor slack for sub-millisecond noise);
* **reported only**: the same replay with the tracer *enabled* — the
  boundary-timestamp span loop makes one native call, one
  ``perf_counter`` read and one tuple append per step where the bare
  runner makes one call per plan; measured on a shared 2-vCPU x86-64
  host (n=512, 901 steps) at 1.3-2.6x bare over five runs, which is
  the price of a full per-step timeline and deliberately not asserted
  (it scales with steps/wall, which shrinks as n grows).

Environment knobs: ``REPRO_BENCH_OBS_MAX_OVERHEAD`` (fractional
ceiling, default 0.02),
``REPRO_BENCH_OBS_REPEATS`` (default 7).
"""

from time import perf_counter

import numpy as np

from repro import obs
from repro.compiler.exec_backend import synthesize_bindings
from repro.compiler.exec_plan import _replay_steps, get_exec_plan, replay_plan
from repro.compiler.ir import PackedProgram
from repro.compiler.lowering import LoweringParams
from repro.compiler.pipeline import CompileOptions, compile_packed
from repro.core.env import env_float, env_int
from repro.nttmath.batched import clear_caches
from repro.workloads.resnet import ResNetShape, build_conv_block

#: Ring degree: small, so dispatch dominates the replay wall.
PLAN_N = 512
MAX_OVERHEAD = env_float("REPRO_BENCH_OBS_MAX_OVERHEAD", 0.02)
REPEATS = env_int("REPRO_BENCH_OBS_REPEATS", 7, minimum=1)
#: Absolute slack floor so a 2% bound on a ~100 ms replay does not
#: flake on a single scheduler tick.
SLACK_S = 2e-3


def _bare_replay(plan, bindings):
    """The un-instrumented lower bound: same steps, same output copy,
    no tracer branch and no clock read around them."""
    arena = plan.arena()
    t0 = perf_counter()
    _replay_steps(plan, arena, bindings)
    outputs = {vid: arena[row].copy() for vid, row in plan.output_rows}
    return outputs, perf_counter() - t0


def _best(fn, *args):
    best = fn(*args)[1]
    for _ in range(REPEATS - 1):
        best = min(best, fn(*args)[1])
    return best


def test_disabled_tracer_overhead_on_replay():
    lp = LoweringParams(n=PLAN_N, levels=7, dnum=4, log_q=30)
    shape = ResNetShape(conv_diagonals=8, start_level=7)
    packed = PackedProgram.from_program(
        build_conv_block(lp, shape, name="conv-obs-bench"))
    compiled = compile_packed(packed.copy(), CompileOptions())
    bindings = synthesize_bindings(packed)

    clear_caches()
    plan = get_exec_plan(compiled.packed, bindings)
    assert not obs.TRACER.enabled, \
        "benchmark needs the tracer off (is REPRO_TRACE set?)"

    # Warm NTT engines, gather tables, and allocator pools once.
    base_out, _ = _bare_replay(plan, bindings)
    replay_out, _, _ = replay_plan(plan, bindings)
    for vid in base_out:
        np.testing.assert_array_equal(base_out[vid], replay_out[vid])

    t_bare = _best(_bare_replay, plan, bindings)
    t_off = _best(replay_plan, plan, bindings)

    overhead = t_off / t_bare - 1.0
    bound = max(MAX_OVERHEAD, SLACK_S / t_bare)

    # Reported, not asserted: the enabled-tracer cost.
    obs.TRACER.enabled = True
    try:
        t_on = _best(replay_plan, plan, bindings)
    finally:
        obs.TRACER.enabled = False
        obs.TRACER.drain()

    print(f"\nobs overhead n={PLAN_N} ({len(plan.steps)} steps): "
          f"bare {t_bare * 1e3:.2f}ms, disabled {t_off * 1e3:.2f}ms "
          f"({overhead:+.1%}), enabled {t_on * 1e3:.2f}ms "
          f"({t_on / t_bare - 1.0:+.1%}, informational)")
    assert overhead <= bound, (
        f"disabled-tracer replay overhead {overhead:.1%} exceeds the "
        f"{bound:.1%} ceiling (bare {t_bare * 1e3:.2f}ms vs disabled "
        f"{t_off * 1e3:.2f}ms): the off-path is no longer one branch "
        f"per span")
