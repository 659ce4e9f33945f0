"""Declarative sweep engine over (workload, hardware, options) grids.

Every paper artifact — the Fig. 4 SRAM DSE, the Fig. 10 scalability
curves, the Fig. 11 optimization ladder, Table VII — is a cross
product of named axes.  A :class:`SweepSpec` states the grid once; the
engine executes its points serially or across a
``ProcessPoolExecutor``, memoizing each point against the persistent
artifact store (:mod:`repro.exp.store`) so warm sweeps execute zero
compiles and zero simulations, in any process.

Parallel execution needs picklable point descriptions, so workload
axes are declarative :class:`WorkloadSpec` entries (a registered
factory name plus kwargs); the serial path additionally accepts
in-memory :class:`~repro.workloads.base.Workload` objects, which is
how the legacy ``repro.analysis`` drivers ride the engine without
changing their signatures.

Results come back as :class:`PointResult` records in deterministic
point order (never completion order), each carrying the simulated
aggregates plus per-point timing and executed-work counters — the
evidence that a warm sweep recomputed nothing.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable

from ..arch.simulator import simulations_executed
from ..arch.units import UNIT_NAMES
from ..compiler.exec_plan import plans_built
from ..compiler.pipeline import CompileOptions, compiles_executed
from ..core.env import env_str
from ..core.config import HardwareConfig
from ..obs import TRACER
from ..workloads import (
    bfv_dotproduct_workload,
    bootstrap_workload,
    ckks_batch_rotate_workload,
    dblookup_workload,
    helr_workload,
    resnet_workload,
)
from ..workloads.base import Workload, run_workload
from .store import (
    ArtifactStore,
    StoreStats,
    active_store,
    config_token,
    options_token,
    using_store,
)

#: Factory registry backing :class:`WorkloadSpec`.  Worker processes
#: resolve specs against their own copy (inherited via fork, or
#: re-imported under spawn for the built-ins below); tests register
#: extra factories with :func:`register_workload`.
_WORKLOAD_FACTORIES: dict[str, Callable[..., Workload]] = {
    "bootstrap": bootstrap_workload,
    "helr": helr_workload,
    "resnet": resnet_workload,
    "dblookup": dblookup_workload,
    "bfv_dotproduct": bfv_dotproduct_workload,
    "ckks_batch_rotate": ckks_batch_rotate_workload,
}


#: Worker-side record of registry entries the parent could not ship
#: (factory name -> pickle failure), so a failing point can say *why*
#: the factory is missing instead of claiming it was never registered.
_UNSHIPPABLE: dict[str, str] = {}


class UnshippableFactoryWarning(UserWarning):
    """A registered workload factory could not be pickled and was not
    shipped to the sweep worker pool."""


def register_workload(name: str, factory: Callable[..., Workload]) -> None:
    """Expose ``factory`` to declarative sweeps as ``name``."""
    _WORKLOAD_FACTORIES[name] = factory


def workload_names() -> tuple[str, ...]:
    return tuple(sorted(_WORKLOAD_FACTORIES))


@dataclass(frozen=True)
class WorkloadSpec:
    """A picklable workload description: factory name + kwargs."""

    factory: str
    kwargs: tuple[tuple[str, object], ...] = ()

    @classmethod
    def make(cls, factory: str, **kwargs) -> "WorkloadSpec":
        return cls(factory, tuple(sorted(kwargs.items())))

    def build(self) -> Workload:
        try:
            fn = _WORKLOAD_FACTORIES[self.factory]
        except KeyError:
            reason = _UNSHIPPABLE.get(self.factory)
            if reason is not None:
                raise KeyError(
                    f"workload factory {self.factory!r} is registered "
                    f"in the parent process but could not be shipped "
                    f"to this sweep worker ({reason}); register an "
                    f"importable (module-level) factory for parallel "
                    f"sweeps") from None
            raise KeyError(
                f"unknown workload factory {self.factory!r}; "
                f"registered: {workload_names()}") from None
        return fn(**dict(self.kwargs))

    @property
    def label(self) -> str:
        return self.factory


@dataclass(frozen=True)
class Variant:
    """One hardware/compile point of the sweep's non-workload axis."""

    label: str
    config: HardwareConfig
    options: CompileOptions | None = None      # None -> from config


@dataclass(frozen=True)
class SweepPoint:
    """One fully-specified grid point (cross of workload x variant)."""

    index: int
    label: str
    workload: object                # WorkloadSpec | Workload
    config: HardwareConfig
    options: CompileOptions | None
    use_cache: bool = True
    engine: str = "packed"          # "exec" also runs the program

    @property
    def parallel_safe(self) -> bool:
        return isinstance(self.workload, WorkloadSpec)


@dataclass
class SweepSpec:
    """Named axes; ``points()`` materializes the ordered grid."""

    name: str
    workloads: tuple            # of WorkloadSpec (or Workload: serial)
    variants: tuple[Variant, ...]
    use_cache: bool = True
    #: ``"exec"`` additionally executes every compiled point on the
    #: batched engine, so results carry measured wall time next to the
    #: simulator's predicted cycles.
    engine: str = "packed"

    def points(self) -> list[SweepPoint]:
        pts: list[SweepPoint] = []
        for workload in self.workloads:
            wl_label = (workload.label if isinstance(workload, WorkloadSpec)
                        else workload.name)
            for variant in self.variants:
                pts.append(SweepPoint(
                    index=len(pts),
                    label=f"{wl_label}/{variant.label}",
                    workload=workload,
                    config=variant.config,
                    options=variant.options,
                    use_cache=self.use_cache,
                    engine=self.engine))
        return pts


class SweepSpecMismatch(ValueError):
    """A sweep tried to resume against a store whose persisted grid for
    the same sweep name differs — the points on disk belong to another
    grid, so silently mixing them would corrupt the result set."""


def spec_grid_token(name: str, points: list[SweepPoint]) -> dict:
    """Canonical JSON-shaped description of a sweep grid.

    Persisted next to the sweep's points in the :class:`ArtifactStore`
    (``v1/spec/``) so a restarted sweep can verify it is resuming the
    *same* grid: per point, the workload spec (factory + kwargs, or the
    in-memory workload's name), the canonical ``CompileOptions`` /
    ``HardwareConfig`` tokens, and the cache mode.
    """
    pts = []
    for p in points:
        if isinstance(p.workload, WorkloadSpec):
            workload = {"factory": p.workload.factory,
                        "kwargs": [[k, repr(v)]
                                   for k, v in p.workload.kwargs]}
        else:
            # In-memory workloads have no declarative identity; their
            # segment content fingerprints (already needed to execute
            # the point) distinguish same-named grids built from
            # different parameters.
            workload = {"inline": getattr(p.workload, "name",
                                          str(p.workload)),
                        "fingerprints": [
                            seg.fingerprint() for seg in
                            getattr(p.workload, "segments", [])]}
        pts.append({
            "label": p.label,
            "workload": workload,
            "options": None if p.options is None
            else options_token(p.options),
            "config": config_token(p.config),
            "use_cache": bool(p.use_cache),
            "engine": p.engine,
        })
    return {"name": name, "points": pts}


def _verify_spec(store: ArtifactStore, name: str,
                 points: list[SweepPoint]) -> None:
    """Refuse to resume a different grid under the same sweep name."""
    grid = spec_grid_token(name, points)
    prior = store.get_spec(name)
    if prior is None:
        store.put_spec(name, grid)
        return
    if prior == grid:
        return
    prior_pts = prior.get("points", [])
    detail = f"{len(prior_pts)} point(s) on disk vs {len(grid['points'])}"
    for old, new in zip(prior_pts, grid["points"]):
        if old != new:
            detail = (f"first mismatch at point {old.get('label')!r} "
                      f"vs {new.get('label')!r}")
            break
    raise SweepSpecMismatch(
        f"sweep {name!r} does not match the grid persisted in "
        f"{store.root} ({detail}); refusing to resume a different "
        f"grid — use a fresh store (or sweep name), or pass "
        f"verify_spec=False to overwrite the recorded grid")


@dataclass
class PointResult:
    """Aggregates of one simulated point plus execution accounting."""

    index: int
    label: str
    workload_name: str
    config_name: str
    cycles: int
    runtime_ms: float
    dram_bytes: int
    utilization: dict[str, float]
    amortized_us_per_slot: float | None
    wall_s: float
    #: Pass-pipeline runs / scoreboard runs this point actually
    #: executed (0 on a store-warm point).
    compiles: int = 0
    simulations: int = 0
    store_compile_hits: int = 0
    store_sim_hits: int = 0
    #: Measured execution wall seconds (repeat-weighted) and executed
    #: instruction count when the point ran with ``engine="exec"``;
    #: ``None``/0 on simulate-only points.  Together with ``cycles``
    #: (predicted) these let fig-style artifacts report predicted vs.
    #: executed side by side.
    executed_wall_s: float | None = None
    executed_instructions: int = 0
    #: Execution-plan builds this point performed (0 when every
    #: ``engine="exec"`` segment replayed a cached/persisted plan) and
    #: plans served from the persistent store.
    plans_built: int = 0
    store_plan_hits: int = 0
    #: Aggregated per-step-label ``[wall_s, instructions]`` breakdown
    #: when the point executed with the tracer enabled.
    executed_profile: dict | None = None
    #: Tracer events/counters drained in a sweep worker process and
    #: shipped home with the result; the parent ingests them into its
    #: own tracer and nulls these fields (they exist only in transit).
    trace_events: list | None = None
    trace_counters: dict | None = None

    @property
    def warm(self) -> bool:
        return self.compiles == 0 and self.simulations == 0

    def same_outcome(self, other: "PointResult") -> bool:
        """Simulation-outcome equality (ignores timing/provenance)."""
        return (self.label == other.label
                and self.cycles == other.cycles
                and self.runtime_ms == other.runtime_ms
                and self.dram_bytes == other.dram_bytes
                and self.utilization == other.utilization
                and self.amortized_us_per_slot
                == other.amortized_us_per_slot)


@dataclass
class SweepResult:
    """All point results (in point order) plus sweep-level accounting."""

    name: str
    points: list[PointResult]
    wall_s: float
    jobs: int
    store_dir: str | None = None

    @property
    def total_compiles(self) -> int:
        return sum(p.compiles for p in self.points)

    @property
    def total_simulations(self) -> int:
        return sum(p.simulations for p in self.points)

    @property
    def total_plans_built(self) -> int:
        return sum(p.plans_built for p in self.points)

    @property
    def warm(self) -> bool:
        return self.total_compiles == 0 and self.total_simulations == 0

    def by_label(self) -> dict[str, PointResult]:
        return {p.label: p for p in self.points}


def _execute_point(point: SweepPoint, workload: Workload) -> PointResult:
    """Compile+simulate one point (store-memoized inside run_workload)
    and fold the outcome into a picklable record."""
    store = active_store()
    if store is not None:
        hits0 = (store.stats.compile_hits, store.stats.sim_hits,
                 store.stats.plan_hits)
    compiles0 = compiles_executed()
    sims0 = simulations_executed()
    plans0 = plans_built()
    t0 = time.perf_counter()
    with TRACER.span("sweep.point", label=point.label,
                     engine=getattr(point, "engine", "packed")):
        run = run_workload(workload, point.config, point.options,
                           use_cache=point.use_cache,
                           engine=getattr(point, "engine", "packed"))
    wall = time.perf_counter() - t0
    try:
        amortized = run.amortized_us_per_slot
    except ValueError:
        amortized = None
    result = PointResult(
        index=point.index,
        label=point.label,
        workload_name=workload.name,
        config_name=point.config.name,
        cycles=run.cycles,
        runtime_ms=run.runtime_ms,
        dram_bytes=run.dram_bytes,
        utilization={u: run.utilization(u) for u in UNIT_NAMES},
        amortized_us_per_slot=amortized,
        wall_s=wall,
        compiles=compiles_executed() - compiles0,
        simulations=simulations_executed() - sims0,
    )
    if run.executed:
        result.executed_wall_s = run.executed_wall_s
        result.executed_instructions = sum(
            e.instructions * rep for e, (_, rep)
            in zip(run.executed, run.segment_results))
        result.plans_built = plans_built() - plans0
        result.executed_profile = run.executed_profile
    if store is not None:
        result.store_compile_hits = store.stats.compile_hits - hits0[0]
        result.store_sim_hits = store.stats.sim_hits - hits0[1]
        result.store_plan_hits = store.stats.plan_hits - hits0[2]
    return result


def _build_workload(point: SweepPoint) -> Workload:
    if isinstance(point.workload, WorkloadSpec):
        return point.workload.build()
    return point.workload


def _point_worker(point: SweepPoint,
                  store_args: tuple[str, int] | None) -> PointResult:
    """Module-level task for the process pool; ``store_args`` carries
    ``(root, max_bytes)`` so workers honor the caller's size bound."""
    workload = _build_workload(point)
    if store_args is not None:
        root, max_bytes = store_args
        with using_store(ArtifactStore(root, max_bytes=max_bytes)):
            result = _execute_point(point, workload)
    else:
        result = _execute_point(point, workload)
    if TRACER.enabled:
        # Ship this point's spans/counters home with the result; the
        # parent ingests them onto its own timeline (perf_counter is
        # system-wide monotonic on Linux, so timestamps line up).
        result.trace_events, result.trace_counters = TRACER.drain()
    return result


#: Environment override for the pool start method (e.g. ``spawn`` in
#: CI to exercise the no-fork path Windows/macOS default to).
ENV_START_METHOD = "REPRO_SWEEP_START_METHOD"


def _pool_context(start_method: str | None = None):
    """Multiprocessing context for the worker pool.

    Resolution: explicit ``start_method`` argument, then the
    ``REPRO_SWEEP_START_METHOD`` environment variable, then fork when
    available (cheapest: workers inherit all process state).  Workers
    no longer *depend* on fork inheritance — the pool initializer ships
    the workload-factory registry — so any method is correct.
    """
    methods = multiprocessing.get_all_start_methods()
    requested = start_method or env_str(ENV_START_METHOD)
    if requested:
        if requested not in methods:
            raise ValueError(
                f"start method {requested!r} is not available on this "
                f"platform; choose from {methods}")
        return multiprocessing.get_context(requested)
    return multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0])


def _shippable_factories() -> tuple[dict[str, Callable[..., Workload]],
                                    dict[str, str]]:
    """Split the registry into (shippable, unshippable) for a worker
    pool: factories are pickled by reference (module + qualname), so
    anything unimportable-by-name (lambdas, locals) cannot ship.

    Each unshippable entry raises an :class:`UnshippableFactoryWarning`
    at pool construction instead of vanishing silently — under fork the
    worker still inherits it, but under spawn every point using it will
    fail, and the old silent drop made that failure claim the factory
    was never registered at all.
    """
    out: dict[str, Callable[..., Workload]] = {}
    unshippable: dict[str, str] = {}
    for name, factory in _WORKLOAD_FACTORIES.items():
        try:
            pickle.dumps(factory)
        except Exception as exc:
            reason = f"{type(exc).__name__}: {exc}"
            unshippable[name] = reason
            warnings.warn(
                f"workload factory {name!r} cannot be pickled and was "
                f"not shipped to sweep workers ({reason}); points "
                f"using it will fail under the spawn start method",
                UnshippableFactoryWarning, stacklevel=3)
            continue
        out[name] = factory
    return out, unshippable


def _init_worker(factories: dict[str, Callable[..., Workload]],
                 unshippable: dict[str, str] | None = None,
                 trace: bool = False) -> None:
    """Pool initializer: merge the parent's registry into the worker.

    Under ``spawn`` (fork unavailable or requested explicitly) a worker
    re-imports this module and would otherwise see only the built-in
    factories — every :func:`register_workload`-ed spec would fail with
    an unregistered-spec error.  Names the parent knew but could not
    pickle ride along so the worker's failure names the real cause.
    ``trace`` ships the parent tracer's enabled flag (the CLI enables
    tracing programmatically, which ``spawn`` workers would not see).
    """
    _WORKLOAD_FACTORIES.update(factories)
    if unshippable:
        _UNSHIPPABLE.update(unshippable)
    if trace:
        TRACER.enabled = True


def run_sweep(spec, *, jobs: int = 1,
              store: "ArtifactStore | str | None" = None,
              progress: Callable[[PointResult], None] | None = None,
              start_method: str | None = None,
              verify_spec: bool = True) -> SweepResult:
    """Execute every point of ``spec`` (a :class:`SweepSpec` or a list
    of :class:`SweepPoint`) and return ordered results.

    ``jobs=1`` runs serially in-process (full debuggability: no
    pickling, workloads may be in-memory objects, pdb works).
    ``jobs>1`` fans points out over a ``ProcessPoolExecutor``; each
    worker memoizes against ``store`` (defaulting to the active store,
    e.g. ``REPRO_STORE_DIR``), so grids larger than the worker count
    never recompute a point another worker already persisted — and a
    repeat sweep executes nothing at all.  Workers receive the
    caller's workload-factory registry through the pool initializer,
    so registered factories resolve under any multiprocessing start
    method (``start_method`` / ``REPRO_SWEEP_START_METHOD`` override
    the fork-preferred default).

    ``progress`` (if given) is called with each :class:`PointResult`
    as it completes — completion order, not point order.

    When a store is active, the sweep's canonical grid is persisted
    next to its points (``v1/spec/``) and re-checked on every run:
    resuming the same name against a *different* grid raises
    :class:`SweepSpecMismatch` instead of silently mixing result sets.
    ``verify_spec=False`` skips the check and records the new grid.
    """
    if isinstance(spec, SweepSpec):
        name, points = spec.name, spec.points()
    else:
        name, points = "sweep", list(spec)
    if store is None:
        store = active_store()
    elif not isinstance(store, ArtifactStore):
        store = ArtifactStore(store)
    store_args = None if store is None \
        else (str(store.root), store.max_bytes)
    # Only named SweepSpecs carry a resumable identity; ad-hoc point
    # lists all share the fallback name and are never cross-checked.
    if store is not None and isinstance(spec, SweepSpec):
        if verify_spec:
            _verify_spec(store, name, points)
        else:
            store.put_spec(name, spec_grid_token(name, points))

    t0 = time.perf_counter()
    results: list[PointResult | None] = [None] * len(points)
    if jobs <= 1 or len(points) <= 1:
        built: dict[object, Workload] = {}
        with using_store(store):
            for point in points:
                key = (point.workload
                       if isinstance(point.workload, WorkloadSpec)
                       else id(point.workload))
                workload = built.get(key)
                if workload is None:
                    workload = _build_workload(point)
                    built[key] = workload
                result = _execute_point(point, workload)
                results[point.index] = result
                if progress is not None:
                    progress(result)
    else:
        unpicklable = [p.label for p in points if not p.parallel_safe]
        if unpicklable:
            raise ValueError(
                "parallel sweeps need declarative WorkloadSpec axes; "
                f"in-memory workloads at: {unpicklable}")
        shippable, unshippable = _shippable_factories()
        with ProcessPoolExecutor(max_workers=jobs,
                                 mp_context=_pool_context(start_method),
                                 initializer=_init_worker,
                                 initargs=(shippable, unshippable,
                                           TRACER.enabled)
                                 ) as pool:
            futures = {pool.submit(_point_worker, p, store_args): p
                       for p in points}
            pending = set(futures)
            while pending:
                done, pending = wait(pending,
                                     return_when=FIRST_COMPLETED)
                for future in done:
                    result = future.result()
                    if result.trace_events or result.trace_counters:
                        TRACER.ingest(result.trace_events or [],
                                      result.trace_counters)
                        result.trace_events = None
                        result.trace_counters = None
                    results[result.index] = result
                    if progress is not None:
                        progress(result)
    assert all(r is not None for r in results)
    return SweepResult(name=name, points=results,
                       wall_s=time.perf_counter() - t0, jobs=jobs,
                       store_dir=None if store is None
                       else str(store.root))
