"""Unified paper-figure drivers on the sweep engine, plus the tables
the ``python -m repro`` CLI prints.

Each scenario (Fig 4 SRAM DSE, Fig 10 scalability, Fig 11 sensitivity
ladder, Table VII) is a ~10-line :class:`~repro.exp.sweep.SweepSpec`
built from declarative :class:`~repro.exp.sweep.WorkloadSpec` axes —
picklable, so ``--jobs N`` fans the grid across processes — and a
folding step that reuses the legacy :mod:`repro.analysis` record types
and :func:`repro.analysis.report.format_table` formatting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.dse import (
    DEFAULT_SWEEP_MB,
    dse_point,
    knee_point,
    sram_variants,
)
from ..analysis.performance import (
    baseline_rows,
    fold_table7_rows,
    paper_effact_rows,
    table7_workloads,
)
from ..analysis.report import format_table
from ..analysis.scalability import scale_points, scaling_variants
from ..analysis.sensitivity import FIG11_CONFIG, ladder_steps, \
    ladder_variants
from ..core.config import (
    ASIC_EFFACT,
    EFFACT_54,
    EFFACT_108,
    EFFACT_162,
    FPGA_EFFACT,
    SCALABILITY_CONFIGS,
    HardwareConfig,
)
from .store import ArtifactStore
from .sweep import (
    SweepResult,
    SweepSpec,
    Variant,
    WorkloadSpec,
    run_sweep,
)

#: Named hardware points the generic ``sweep`` scenario accepts.
NAMED_CONFIGS: dict[str, HardwareConfig] = {
    c.name: c for c in (ASIC_EFFACT, FPGA_EFFACT, EFFACT_54,
                        EFFACT_108, EFFACT_162)
}

#: Paper ring degree; reduced-N runs scale the Fig 4 MB axis with the
#: limb size, exactly as the benchmark tier does.
PAPER_N = 2 ** 16


def _spec_name(base: str, **params) -> str:
    """Sweep-spec name including the parameterization, so the store's
    resumption check compares like with like: ``fig4`` at ``--n 4096``
    and at ``--n 8192`` are different grids with different names, not a
    mismatch.  Defaults are elided to keep the common name short."""
    parts = [f"{k}={v}" for k, v in sorted(params.items())
             if v is not None and v != 1.0]
    return f"{base}[{','.join(parts)}]" if parts else base


@dataclass
class ScenarioReport:
    """What one scenario hands back to the CLI."""

    title: str
    table: str
    sweep: SweepResult
    rows: list = field(default_factory=list)


def _workload_kwargs(n: int | None, detail: float) -> dict:
    kwargs: dict = {"detail": detail}
    if n is not None:
        kwargs["n"] = n
    return kwargs


def workload_axis(workloads: list[str], *, n: int | None = None,
                  detail: float = 1.0) -> list[WorkloadSpec]:
    """Named workloads as buildable :class:`WorkloadSpec` entries,
    with the per-workload kwargs quirks applied (shared by the sweep
    scenarios and ``python -m repro verify``)."""
    axis = []
    for name in workloads:
        kwargs = _workload_kwargs(n, detail)
        if name == "dblookup":
            # DB-lookup has no detail knob and its own N ceiling.
            kwargs = {"n": min(n, 2 ** 14)} if n else {}
        axis.append(WorkloadSpec.make(name, **kwargs))
    return axis


# ----------------------------------------------------------------------
# Scenario: Figure 4 (SRAM DSE)
# ----------------------------------------------------------------------
def fig4_spec(*, n: int | None = None, detail: float = 1.0,
              sizes_mb=None) -> tuple[SweepSpec, tuple[float, ...]]:
    if sizes_mb is None:
        scale = 1.0 if n is None else n / PAPER_N
        sizes_mb = tuple(mb * scale for mb in DEFAULT_SWEEP_MB)
    spec = SweepSpec(
        name=_spec_name("fig4", n=n, detail=detail),
        workloads=(WorkloadSpec.make("bootstrap",
                                     **_workload_kwargs(n, detail)),),
        variants=sram_variants(ASIC_EFFACT, sizes_mb))
    return spec, tuple(sizes_mb)


def run_fig4(*, n: int | None = None, detail: float = 1.0, jobs: int = 1,
             store: "ArtifactStore | str | None" = None,
             progress=None, verify_spec: bool = True) -> ScenarioReport:
    spec, sizes_mb = fig4_spec(n=n, detail=detail)
    sweep = run_sweep(spec, jobs=jobs, store=store, progress=progress,
                      verify_spec=verify_spec)
    points = [dse_point(p, mb) for p, mb in zip(sweep.points, sizes_mb)]
    knee = knee_point(points)
    table = format_table(
        ["SRAM MB", "runtime ms", "DRAM BW", "NTT util", "MUL/ADD util",
         "DRAM GiB", "knee"],
        [[f"{p.sram_mb:.1f}", f"{p.runtime_ms:.2f}",
          f"{p.dram_bw_utilization:.1%}", f"{p.ntt_utilization:.1%}",
          f"{p.mult_add_utilization:.1%}",
          f"{p.dram_bytes / 2 ** 30:.2f}",
          "<--" if p is knee else ""] for p in points],
        title="Figure 4: SRAM size DSE (paper: turning points at 27MB"
              " and 54MB)")
    return ScenarioReport(title="fig4", table=table, sweep=sweep,
                          rows=points)


# ----------------------------------------------------------------------
# Scenario: Figure 10 (scalability)
# ----------------------------------------------------------------------
def fig10_spec(*, n: int | None = None,
               detail: float = 1.0) -> SweepSpec:
    kwargs = _workload_kwargs(n, detail)
    return SweepSpec(
        name=_spec_name("fig10", n=n, detail=detail),
        workloads=(WorkloadSpec.make("bootstrap", **kwargs),
                   WorkloadSpec.make("helr", **kwargs),
                   WorkloadSpec.make("resnet", **kwargs)),
        variants=scaling_variants(SCALABILITY_CONFIGS))


def run_fig10(*, n: int | None = None, detail: float = 1.0,
              jobs: int = 1,
              store: "ArtifactStore | str | None" = None,
              progress=None, verify_spec: bool = True) -> ScenarioReport:
    spec = fig10_spec(n=n, detail=detail)
    sweep = run_sweep(spec, jobs=jobs, store=store, progress=progress,
                      verify_spec=verify_spec)
    points = scale_points(sweep.points, len(SCALABILITY_CONFIGS))
    table = format_table(
        ["workload", "config", "runtime ms", "speedup"],
        [[p.workload_name, p.config_name, f"{p.runtime_ms:.2f}",
          f"{p.speedup_over_base:.2f}x"] for p in points],
        title="Figure 10: scalability (EFFACT-27/-54/-108/-162)")
    return ScenarioReport(title="fig10", table=table, sweep=sweep,
                          rows=points)


# ----------------------------------------------------------------------
# Scenario: Figure 11 (sensitivity ladder)
# ----------------------------------------------------------------------
def fig11_spec(*, n: int | None = None,
               detail: float = 1.0) -> SweepSpec:
    return SweepSpec(
        name=_spec_name("fig11", n=n, detail=detail),
        workloads=(WorkloadSpec.make("bootstrap",
                                     **_workload_kwargs(n, detail)),),
        variants=ladder_variants(FIG11_CONFIG))


def run_fig11(*, n: int | None = None, detail: float = 1.0,
              jobs: int = 1,
              store: "ArtifactStore | str | None" = None,
              progress=None, verify_spec: bool = True) -> ScenarioReport:
    spec = fig11_spec(n=n, detail=detail)
    sweep = run_sweep(spec, jobs=jobs, store=store, progress=progress,
                      verify_spec=verify_spec)
    steps = ladder_steps(sweep.points)
    table = format_table(
        ["configuration", "runtime ms", "DRAM GB", "speedup",
         "DRAM vs base"],
        [[s.name, f"{s.runtime_ms:.1f}", f"{s.dram_gb:.2f}",
          f"{s.speedup_over_baseline:.2f}x",
          f"{s.dram_ratio_to_baseline:.2f}x"] for s in steps],
        title="Figure 11: incremental optimizations (paper: MAD 1.24x;"
              " +streaming -42% DRAM/-31% time; +reuse 1.1x)")
    return ScenarioReport(title="fig11", table=table, sweep=sweep,
                          rows=steps)


# ----------------------------------------------------------------------
# Scenario: Table VII (performance vs baselines)
# ----------------------------------------------------------------------
def tab7_spec(*, n: int | None = None, detail: float = 1.0,
              include_fpga: bool = True) -> SweepSpec:
    configs = (FPGA_EFFACT, ASIC_EFFACT) if include_fpga \
        else (ASIC_EFFACT,)
    return SweepSpec(
        name=_spec_name("tab7", n=n, detail=detail,
                        configs="+".join(c.name for c in configs)
                        if not include_fpga else None),
        workloads=table7_workloads(n=n, detail=detail),
        variants=tuple(Variant(label=c.name, config=c) for c in configs))


def run_tab7(*, n: int | None = None, detail: float = 1.0,
             jobs: int = 1,
             store: "ArtifactStore | str | None" = None,
             progress=None, verify_spec: bool = True) -> ScenarioReport:
    spec = tab7_spec(n=n, detail=detail)
    sweep = run_sweep(spec, jobs=jobs, store=store, progress=progress,
                      verify_spec=verify_spec)
    rows = baseline_rows()
    rows.extend(fold_table7_rows(
        sweep.points, [v.config.name for v in spec.variants]))
    rows.extend(paper_effact_rows())
    table = format_table(
        ["design", "boot T_A.S. us", "HELR ms", "ResNet ms",
         "DBLookup ms", "source"],
        [[r.name, r.boot_amortized_us, r.helr_iter_ms, r.resnet_ms,
          r.dblookup_ms, "sim" if r.simulated else "published"]
         for r in rows],
        title="Table VII: performance on benchmarks")
    return ScenarioReport(title="tab7", table=table, sweep=sweep,
                          rows=rows)


def _aggregate_profile(points) -> list[list[str]]:
    """Fold per-point ``executed_profile`` dicts (step label ->
    ``[wall_s, instructions]``) into table rows sorted by wall time;
    empty when no point executed with the tracer enabled."""
    agg: dict[str, list] = {}
    for p in points:
        for label, (wall, instrs) in (p.executed_profile or {}).items():
            acc = agg.setdefault(label, [0.0, 0])
            acc[0] += wall
            acc[1] += instrs
    if not agg:
        return []
    total = sum(w for w, _ in agg.values()) or 1.0
    return [[label, f"{wall:.4f}", str(instrs), f"{wall / total:.1%}"]
            for label, (wall, instrs)
            in sorted(agg.items(), key=lambda kv: -kv[1][0])]


# ----------------------------------------------------------------------
# Scenario: generic sweep (named axes from the command line)
# ----------------------------------------------------------------------
def generic_spec(workloads: list[str], configs: list[str], *,
                 n: int | None = None, detail: float = 1.0,
                 engine: str = "packed") -> SweepSpec:
    wl_axis = workload_axis(workloads, n=n, detail=detail)
    variants = []
    for name in configs:
        try:
            config = NAMED_CONFIGS[name]
        except KeyError:
            raise KeyError(
                f"unknown config {name!r}; known: "
                f"{sorted(NAMED_CONFIGS)}") from None
        variants.append(Variant(label=name, config=config))
    return SweepSpec(
        name=_spec_name("sweep", workloads="+".join(workloads),
                        configs="+".join(configs), n=n, detail=detail,
                        engine=None if engine == "packed" else engine),
        workloads=tuple(wl_axis), variants=tuple(variants),
        engine=engine)


def run_generic(workloads: list[str], configs: list[str], *,
                n: int | None = None, detail: float = 1.0,
                jobs: int = 1,
                store: "ArtifactStore | str | None" = None,
                progress=None, verify_spec: bool = True,
                engine: str = "packed") -> ScenarioReport:
    spec = generic_spec(workloads, configs, n=n, detail=detail,
                        engine=engine)
    sweep = run_sweep(spec, jobs=jobs, store=store, progress=progress,
                      verify_spec=verify_spec)
    if engine == "exec":
        # Predicted (simulated accelerator) vs. executed (measured
        # batched-engine wall clock) vs. span-attributed wall (the sum
        # of the tracer's per-step replay spans — "cover" is its share
        # of the executed wall, blank when tracing was off); "plans"
        # shows how many execution plans the point had to *build* (0
        # on a plan-warm point replaying cached/persisted plans).
        def span_cells(p):
            prof = p.executed_profile
            if not prof or p.executed_wall_s is None:
                return ["-", "-"]
            span_s = sum(wall for wall, _ in prof.values())
            cover = span_s / p.executed_wall_s if p.executed_wall_s \
                else 0.0
            return [f"{span_s:.2f}", f"{cover:.0%}"]

        table = format_table(
            ["point", "predicted cycles", "predicted ms",
             "executed s", "span s", "cover", "instrs", "plans"],
            [[p.label, p.cycles, f"{p.runtime_ms:.2f}",
              "-" if p.executed_wall_s is None
              else f"{p.executed_wall_s:.2f}",
              *span_cells(p),
              p.executed_instructions, p.plans_built]
             for p in sweep.points],
            title=f"Sweep (executed): {len(sweep.points)} points")
        profile = _aggregate_profile(sweep.points)
        if profile:
            table += "\n\n" + format_table(
                ["step kind", "wall s", "instrs", "share"],
                profile,
                title="Executed per-step profile (tracer)")
    else:
        table = format_table(
            ["point", "cycles", "runtime ms", "DRAM GiB", "wall s"],
            [[p.label, p.cycles, f"{p.runtime_ms:.2f}",
              f"{p.dram_bytes / 2 ** 30:.2f}", f"{p.wall_s:.2f}"]
             for p in sweep.points],
            title=f"Sweep: {len(sweep.points)} points")
    return ScenarioReport(title="sweep", table=table, sweep=sweep,
                          rows=list(sweep.points))


SCENARIOS = {
    "fig4": run_fig4,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "tab7": run_tab7,
}
