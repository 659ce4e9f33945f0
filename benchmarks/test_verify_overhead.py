"""Static-verifier cost: flag-off compiles are untouched, flag-on
cost is bounded and reported.

The verifier is opt-in, so the load-bearing assertion is the first
one: a default compile runs *zero* verify stages — not "fast verify
stages", none.  The timing comparison then reports what turning the
suites on costs on a real mid-size workload segment, and asserts it
stays within an order of magnitude of the base compile (the suites
are vectorized column scans, not per-instruction Python loops).
"""

from __future__ import annotations

import time

from repro.analysis import format_table
from repro.compiler.pipeline import CompileOptions, compile_packed
from repro.core.env import env_float, env_int
from repro.workloads import bfv_dotproduct_workload

VERIFY_N = env_int("REPRO_BENCH_VERIFY_N", 4096, minimum=1)
REPEATS = env_int("REPRO_BENCH_VERIFY_REPEATS", 3, minimum=1)
#: Verify-on compile wall bound, as a multiple of verify-off.  The
#: suites re-walk every instruction a handful of times; 10x leaves
#: noise headroom while still catching an accidental O(n^2) check.
MAX_OVERHEAD = env_float("REPRO_BENCH_VERIFY_MAX", 10.0)


def _segment_template():
    workload = bfv_dotproduct_workload(n=VERIFY_N)
    return workload.segments[0].packed_template()


def _best_compile(template, options) -> tuple[float, object]:
    best, compiled = float("inf"), None
    for _ in range(REPEATS):
        fresh = template.copy()
        t0 = time.perf_counter()
        compiled = compile_packed(fresh, options)
        best = min(best, time.perf_counter() - t0)
    return best, compiled


def test_verify_off_adds_no_stages_and_on_is_bounded():
    template = _segment_template()

    off_s, off = _best_compile(template, CompileOptions())
    off_stages = [r.name for r in off.stats.pass_records
                  if r.name.startswith("verify")]
    assert off_stages == [], \
        f"default compile ran verifier stages: {off_stages}"

    on_s, on = _best_compile(template, CompileOptions(verify=True))
    on_stages = [r.name for r in on.stats.pass_records
                 if r.name.startswith("verify")]
    assert on_stages == ["verify-ir", "verify-schedule",
                         "verify-regalloc"]
    verify_s = sum(r.wall_s for r in on.stats.pass_records
                   if r.name.startswith("verify"))

    rows = [
        ("verify off", f"{off_s * 1e3:.1f}", "-"),
        ("verify on", f"{on_s * 1e3:.1f}",
         f"{verify_s * 1e3:.1f}"),
    ]
    print()
    print(format_table(
        ("compile", "wall (ms)", "verify stages (ms)"), rows,
        title=f"Static-verifier overhead "
              f"(bfv_dotproduct, n={VERIFY_N}, "
              f"{template.num_instrs} instrs)"))
    assert on_s <= off_s * MAX_OVERHEAD, \
        f"verify-on compile {on_s:.3f}s vs off {off_s:.3f}s " \
        f"(> {MAX_OVERHEAD:.0f}x)"
