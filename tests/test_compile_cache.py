"""The content-addressed compile cache and workload fingerprints."""

import pytest

import oracles
from repro.compiler.pipeline import (
    COMPILE_CACHE_MAX,
    CompileOptions,
    clear_compile_cache,
    compile_cache_size,
    compile_cache_stats,
    compile_packed_cached,
    compiles_executed,
)
from repro.core.config import ASIC_EFFACT
from repro.workloads.base import Segment, Workload, run_workload
from tiny_ir import (
    TINY_SRAM,
    tiny_builder as _builder,
    tiny_template as _template,
)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_compile_cache()
    yield
    clear_compile_cache()


OPTS = CompileOptions(sram_bytes=TINY_SRAM)


def test_hit_on_identical_point():
    template = _template()
    first = compile_packed_cached(template, OPTS)
    second = compile_packed_cached(template, OPTS)
    assert second is first
    stats = compile_cache_stats()
    assert (stats.hits, stats.misses) == (1, 1)


def test_content_addressing_spans_rebuilt_programs():
    """Two independently built but identical programs share an entry."""
    first = compile_packed_cached(_template(), OPTS)
    second = compile_packed_cached(_template(), OPTS)
    assert second is first
    assert compile_cache_size() == 1


def test_distinct_options_or_programs_miss():
    template = _template()
    a = compile_packed_cached(template, OPTS)
    b = compile_packed_cached(
        template, CompileOptions(sram_bytes=OPTS.sram_bytes,
                                 scheduling="naive"))
    c = compile_packed_cached(_template(diag=6), OPTS)
    assert a is not b and a is not c
    assert compile_cache_stats().misses == 3


def test_template_not_mutated_by_compile():
    template = _template()
    before = template.fingerprint()
    compile_packed_cached(template, OPTS)
    assert template.fingerprint() == before


def test_lru_bound_and_clear():
    for diag in range(COMPILE_CACHE_MAX + 3):
        compile_packed_cached(_template(diag=diag + 1), OPTS)
    assert compile_cache_size() == COMPILE_CACHE_MAX
    assert compile_cache_stats().evictions == 3
    clear_compile_cache()
    assert compile_cache_size() == 0
    assert compile_cache_stats().misses == 0


def test_clear_caches_escape_hatch_drops_compiles():
    from repro.nttmath.batched import clear_caches
    compile_packed_cached(_template(), OPTS)
    assert compile_cache_size() == 1
    clear_caches()
    assert compile_cache_size() == 0


def test_segment_fingerprint_stable_across_instances():
    s1 = Segment(builder=_builder())
    s2 = Segment(builder=_builder())
    assert s1.fingerprint() == s2.fingerprint()
    assert s1.instruction_mix() == s2.instruction_mix()


def test_run_workload_shares_compiles_across_configs():
    """Sweep points with identical (fingerprint, options) compile once;
    only the hardware-dependent simulation reruns."""
    workload = Workload(name="w", segments=[Segment(builder=_builder())])
    options = OPTS
    run_a = run_workload(workload, ASIC_EFFACT, options)
    misses_after_first = compile_cache_stats().misses
    run_b = run_workload(workload, ASIC_EFFACT.scaled(2, "big"), options)
    stats = compile_cache_stats()
    assert misses_after_first == 1
    assert stats.misses == 1 and stats.hits == 1
    assert run_b.compiled[0] is run_a.compiled[0]
    # Different hardware still simulates independently.
    assert run_b.cycles < run_a.cycles


def test_fig11_style_sweep_hits_cache_on_repeat():
    """A Figure 11-style ladder compiles each rung once; re-running the
    whole sweep is all cache hits."""
    from repro.analysis.sensitivity import _step_options
    workload = Workload(name="w", segments=[Segment(builder=_builder())])
    steps = _step_options(OPTS.sram_bytes)
    for _name, options, _mac in steps:
        run_workload(workload, ASIC_EFFACT, options)
    stats = compile_cache_stats()
    assert stats.misses == len(steps)
    for _name, options, _mac in steps:
        run_workload(workload, ASIC_EFFACT, options)
    stats = compile_cache_stats()
    assert stats.misses == len(steps)
    assert stats.hits == len(steps)


def test_use_cache_false_bypasses():
    workload = Workload(name="w", segments=[Segment(builder=_builder())])
    run_workload(workload, ASIC_EFFACT, OPTS, use_cache=False)
    stats = compile_cache_stats()
    assert (stats.hits, stats.misses) == (0, 0)


def test_reference_engine_matches_cached_cycles():
    """A cache-served run matches the oracle pipeline and scoreboard
    on every segment."""
    workload = Workload(name="w", segments=[Segment(builder=_builder())])
    packed_run = run_workload(workload, ASIC_EFFACT, OPTS)
    refs = [(oracles.simulate_reference(
        oracles.compile_reference(seg.fresh_program(), OPTS).program,
        ASIC_EFFACT), seg.repeat) for seg in workload.segments]
    assert packed_run.cycles == sum(r.cycles * k for r, k in refs)
    assert packed_run.dram_bytes == sum(r.dram_bytes * k for r, k in refs)


@pytest.mark.parametrize("engine", ["reference", "magic"])
def test_run_workload_rejects_unknown_engine(engine):
    """Only "packed" and "exec" run; anything else is a named error
    raised before any segment compiles."""
    workload = Workload(name="w", segments=[Segment(builder=_builder())])
    before = compiles_executed()
    with pytest.raises(ValueError, match="'packed', 'exec'"):
        run_workload(workload, ASIC_EFFACT, OPTS, engine=engine)
    assert compiles_executed() == before
    assert compile_cache_stats().misses == 0
