"""Compile+simulate smoke benchmark: packed compiler vs the seed path.

Times the full pipeline (all passes, scheduling, allocation) plus the
cycle-level simulation of the fully-packed bootstrapping workload at a
reduced ring degree, on the production compiler and on the seed list
pipeline and scoreboard kept as test-only oracles (``tests/oracles``),
asserting:

* cycle-count (and DRAM/unit accounting) equality between the packed
  and the oracle paths, and
* a >= 5x end-to-end compile+simulate speedup for the packed compiler
  (scaled by ``REPRO_BENCH_SPEEDUP_SLACK`` on noisy shared runners),
* compile-cache hits across a Figure 11-style repeat sweep.

Environment knobs: ``REPRO_BENCH_COMPILE_N`` (ring degree, default
4096), ``REPRO_BENCH_COMPILE_MIN_SPEEDUP`` (default 5.0),
``REPRO_BENCH_SPEEDUP_SLACK`` (default 1.0).
"""

import time

import pytest

import oracles
from repro.arch.simulator import simulate
from repro.compiler.ir import PackedProgram
from repro.compiler.lowering import LoweringParams
from repro.compiler.pipeline import (
    CompileOptions,
    clear_compile_cache,
    compile_cache_stats,
    compile_packed,
)
from repro.core.config import ASIC_EFFACT
from repro.core.env import env_float, env_int
from repro.schemes.ckks.params import PAPER_BOOT_FULL
from repro.workloads.base import Segment, Workload, run_workload
from repro.workloads.bootstrap_workload import build_bootstrap_program

COMPILE_N = env_int("REPRO_BENCH_COMPILE_N", 4096, minimum=1)
MIN_SPEEDUP = env_float("REPRO_BENCH_COMPILE_MIN_SPEEDUP", 5.0)
SLACK = env_float("REPRO_BENCH_SPEEDUP_SLACK", 1.0)


def _bootstrap_params():
    boot = PAPER_BOOT_FULL
    lp = LoweringParams(n=COMPILE_N, levels=boot.levels, dnum=boot.dnum,
                        log_q=boot.log_q)
    return lp, boot


def test_packed_compile_simulate_speedup():
    """Tentpole acceptance: >= 5x end-to-end on bootstrap-scale IR,
    cycle counts identical to the unpacked path."""
    lp, boot = _bootstrap_params()
    options = CompileOptions(sram_bytes=ASIC_EFFACT.sram_bytes)

    segment = Segment(builder=lambda: build_bootstrap_program(lp, boot))
    template = segment.packed_template()   # built once, like sweeps do

    t0 = time.perf_counter()
    ref_cp = oracles.compile_reference(build_bootstrap_program(lp, boot),
                                       options)
    ref_res = oracles.simulate_reference(ref_cp.program, ASIC_EFFACT)
    t_ref = time.perf_counter() - t0

    t0 = time.perf_counter()
    new_cp = compile_packed(template.copy(), options)
    new_res = simulate(new_cp.packed, ASIC_EFFACT)
    t_new = time.perf_counter() - t0

    assert new_res.cycles == ref_res.cycles
    assert new_res.dram_bytes == ref_res.dram_bytes
    assert new_res.unit_busy == ref_res.unit_busy
    assert new_res.instructions == ref_res.instructions

    speedup = t_ref / t_new
    print(f"\n[compiler-bench] n={COMPILE_N} "
          f"instrs={new_res.instructions} "
          f"reference={t_ref:.2f}s packed={t_new:.2f}s "
          f"speedup={speedup:.1f}x (floor {MIN_SPEEDUP * SLACK:.1f}x)")
    for record in new_cp.stats.pass_records:
        print(f"[compiler-bench]   {record.name:15s} "
              f"{record.wall_s * 1e3:7.1f} ms "
              f"{record.instrs_before} -> {record.instrs_after}")
    assert speedup >= MIN_SPEEDUP * SLACK, (
        f"packed compile+simulate speedup {speedup:.2f}x below floor "
        f"{MIN_SPEEDUP * SLACK:.2f}x")


def test_sweep_reuses_compile_cache():
    """A Figure 11-style repeat visits each (workload, options) point
    once; the second full sweep is compile-free."""
    lp, boot = _bootstrap_params()
    workload = Workload(
        name="bootstrap-bench",
        segments=[Segment(builder=lambda: build_bootstrap_program(
            lp, boot, detail=0.25))])
    from repro.analysis.sensitivity import _step_options
    steps = _step_options(ASIC_EFFACT.sram_bytes)

    clear_compile_cache()
    t0 = time.perf_counter()
    for _name, options, _mac in steps:
        run_workload(workload, ASIC_EFFACT, options)
    cold = time.perf_counter() - t0
    assert compile_cache_stats().misses == len(steps)

    t0 = time.perf_counter()
    for _name, options, _mac in steps:
        run_workload(workload, ASIC_EFFACT, options)
    warm = time.perf_counter() - t0
    stats = compile_cache_stats()
    assert stats.misses == len(steps)
    assert stats.hits == len(steps)
    print(f"\n[compiler-bench] fig11-style sweep: cold={cold:.2f}s "
          f"warm={warm:.2f}s ({cold / max(warm, 1e-9):.1f}x)")
    assert warm < cold
    clear_compile_cache()


@pytest.mark.slow
def test_spilling_configs_match_reference():
    """Small-SRAM (spilling) compiles stay identical too, at scale."""
    lp, boot = _bootstrap_params()
    options = CompileOptions(sram_bytes=lp.limb_bytes * 40)
    ref_cp = oracles.compile_reference(
        build_bootstrap_program(lp, boot, detail=0.25), options)
    new_cp = compile_packed(PackedProgram.from_program(
        build_bootstrap_program(lp, boot, detail=0.25)), options)
    assert new_cp.stats.alloc.spill_stores == \
        ref_cp.stats.alloc.spill_stores
    assert new_cp.stats.alloc.spill_stores > 0
    assert simulate(new_cp.packed, ASIC_EFFACT).cycles == \
        oracles.simulate_reference(ref_cp.program, ASIC_EFFACT).cycles
