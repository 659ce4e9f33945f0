"""Experiment-store timing study: cold vs store-warm sweeps.

Runs a Fig 4-style SRAM sweep twice against a fresh artifact store and
records the warm/cold wall-time ratio — the warm pass must execute
zero compiles and zero simulations (every point served from disk) and
be measurably faster.
"""

from repro.analysis.dse import sram_variants
from repro.analysis.report import format_table
from repro.compiler.pipeline import clear_compile_cache
from repro.core.config import ASIC_EFFACT
from repro.core.env import env_float
from repro.exp.store import ArtifactStore
from repro.exp.sweep import SweepSpec, WorkloadSpec, run_sweep

#: Shared-runner slack on the warm/cold speedup floor.
SPEEDUP_SLACK = env_float("REPRO_BENCH_SPEEDUP_SLACK", 1.0)


def test_store_warm_sweep(tmp_path, bench_n, bench_detail):
    scale = bench_n / 2 ** 16
    sizes = tuple(mb * scale for mb in (13.5, 27, 54))
    spec = SweepSpec(
        name="fig4-store",
        workloads=(WorkloadSpec.make("bootstrap", n=bench_n,
                                     detail=bench_detail),),
        variants=sram_variants(ASIC_EFFACT, sizes))
    store = ArtifactStore(tmp_path / "store")

    cold = run_sweep(spec, store=store)
    clear_compile_cache()           # memory cold: only the disk is warm
    warm = run_sweep(spec, store=store)

    print()
    print(format_table(
        ["pass", "wall s", "compiles", "simulations"],
        [["cold", f"{cold.wall_s:.2f}", cold.total_compiles,
          cold.total_simulations],
         ["warm", f"{warm.wall_s:.2f}", warm.total_compiles,
          warm.total_simulations]],
        title=f"Artifact store: cold vs warm Fig4 sweep "
              f"({len(sizes)} points, n={bench_n})"))

    assert cold.total_compiles == len(sizes)
    assert cold.total_simulations == len(sizes)
    assert warm.warm, "warm sweep must hit the store for every point"
    assert all(a.same_outcome(b)
               for a, b in zip(cold.points, warm.points))
    # Like the other benches, SLACK < 1 *relaxes* the floor (warm must
    # be >= 2x * SLACK faster than cold).
    assert cold.wall_s / warm.wall_s >= 2.0 * SPEEDUP_SLACK, \
        f"warm sweep not faster: {warm.wall_s:.2f}s vs {cold.wall_s:.2f}s"
