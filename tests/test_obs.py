"""Telemetry core: tracer semantics, exporters, and end-to-end wiring.

Covers the disabled-mode no-op contract, nested span paths, unbalanced
span errors, thread-safety, the ``clear_caches()`` counter-reset hook,
the Chrome trace-event JSON round trip, cross-process merge from a
spawn-context sweep, and the replay-span coverage guarantee on the exec
engine.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro import obs
from repro.compiler.exec_backend import execute_packed
from repro.compiler.ir import PackedProgram
from repro.compiler.pipeline import (
    CompileOptions,
    clear_compile_cache,
    compile_packed,
)
from repro.exp.sweep import (
    SweepSpec,
    Variant,
    WorkloadSpec,
    register_workload,
    run_sweep,
)
from repro.nttmath.batched import clear_caches
from repro.obs import (
    EV_ATTRS,
    EV_NAME,
    EV_PATH,
    EV_PID,
    EV_TID,
    SpanError,
    Tracer,
    chrome_trace,
    text_report,
    validate_chrome_trace,
)
from tiny_ir import TINY_SRAM, tiny_builder, tiny_workload

register_workload("obs-tiny", tiny_workload)


@pytest.fixture(autouse=True)
def _hermetic_global_tracer():
    """Tests must not leak state through the process-global tracer."""
    was = obs.TRACER.enabled
    obs.TRACER.drain()
    yield
    obs.TRACER.enabled = was
    obs.TRACER.drain()


def _names(events):
    return [ev[EV_NAME] for ev in events]


# ----------------------------------------------------------------------
# Disabled-mode contract
# ----------------------------------------------------------------------
def test_disabled_tracer_is_inert():
    tr = Tracer(enabled=False)
    with tr.span("outer", key="value"):
        tr.begin("inner")
        assert tr.end("inner") == 0.0
    assert tr.events() == []
    assert tr.depth() == 0


def test_disabled_span_is_the_shared_null_object():
    tr = Tracer(enabled=False)
    assert tr.span("a") is tr.span("b")


def test_counters_work_even_when_disabled():
    tr = Tracer(enabled=False)
    tr.count("widgets", 3)
    tr.count("widgets")
    assert tr.counters() == {"widgets": 4}


# ----------------------------------------------------------------------
# Span semantics
# ----------------------------------------------------------------------
def test_nested_spans_record_full_paths():
    tr = Tracer(enabled=True)
    with tr.span("compile"):
        with tr.span("cse", instrs=7):
            pass
        with tr.span("dce"):
            pass
    paths = [ev[EV_PATH] for ev in tr.events()]
    assert ("compile", "cse") in paths
    assert ("compile", "dce") in paths
    assert ("compile",) in paths
    # Children are emitted before the enclosing span closes.
    assert _names(tr.events())[-1] == "compile"
    cse = next(ev for ev in tr.events() if ev[EV_NAME] == "cse")
    assert cse[EV_ATTRS] == {"instrs": 7}


def test_end_with_wrong_name_raises_and_keeps_stack():
    tr = Tracer(enabled=True)
    tr.begin("outer")
    tr.begin("inner")
    with pytest.raises(SpanError):
        tr.end("outer")
    # The mismatched end must not have corrupted the stack.
    assert tr.depth() == 2
    tr.end("inner")
    tr.end("outer")
    assert tr.depth() == 0


def test_end_on_empty_stack_raises():
    tr = Tracer(enabled=True)
    with pytest.raises(SpanError):
        tr.end("never-opened")


def test_span_exits_cleanly_on_exception():
    tr = Tracer(enabled=True)
    with pytest.raises(RuntimeError):
        with tr.span("doomed"):
            raise RuntimeError("boom")
    assert tr.depth() == 0
    assert _names(tr.events()) == ["doomed"]


def test_thread_safety_per_thread_stacks():
    tr = Tracer(enabled=True)
    spans_per_thread = 50
    errors = []

    def worker(tag):
        try:
            for i in range(spans_per_thread):
                with tr.span(f"outer-{tag}"):
                    with tr.span(f"inner-{tag}", i=i):
                        pass
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(t,))
               for t in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    events = tr.events()
    assert len(events) == 8 * spans_per_thread * 2
    # Nesting never crosses threads: every inner span's recorded
    # parent is its own thread's outer span.
    for ev in events:
        if ev[EV_NAME].startswith("inner-"):
            tag = ev[EV_NAME].split("-")[1]
            assert ev[EV_PATH] == (f"outer-{tag}", f"inner-{tag}")


def test_event_cap_increments_drop_counter():
    tr = Tracer(enabled=True)
    tr._events = [None] * obs.MAX_EVENTS  # simulate a full buffer
    tr.emit("late", 0.0, 0.0)
    assert len(tr.events()) == obs.MAX_EVENTS
    assert tr.counters()["obs.dropped"] == 1


# ----------------------------------------------------------------------
# Counters, drain/ingest, clear_caches() integration
# ----------------------------------------------------------------------
def test_clear_caches_resets_counters_but_keeps_events():
    obs.TRACER.enabled = True
    try:
        with obs.TRACER.span("kept"):
            pass
        obs.TRACER.count("ntt.rows", 12)
        clear_caches()
    finally:
        obs.TRACER.enabled = False
    assert obs.TRACER.counters() == {}
    assert _names(obs.TRACER.events()) == ["kept"]


def test_drain_and_ingest_round_trip():
    src = Tracer(enabled=True)
    with src.span("work"):
        pass
    src.count("jobs", 2)
    events, counters = src.drain()
    assert src.events() == [] and src.counters() == {}
    dst = Tracer(enabled=True)
    dst.count("jobs", 1)
    dst.ingest(events, counters)
    assert _names(dst.events()) == ["work"]
    assert dst.counters() == {"jobs": 3}


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def _sample_events():
    tr = Tracer(enabled=True)
    with tr.span("compile", engine="packed"):
        with tr.span("cse"):
            pass
    with tr.span("replay", steps=3):
        pass
    return tr.events()


def test_chrome_trace_round_trips_and_validates():
    events = _sample_events()
    doc = chrome_trace(events, {"ntt.rows": 5}, main_pid=events[0][EV_PID])
    reloaded = json.loads(json.dumps(doc))
    validate_chrome_trace(reloaded)
    complete = [ev for ev in reloaded["traceEvents"]
                if ev["ph"] == "X"]
    assert {ev["name"] for ev in complete} == {"compile", "cse",
                                              "replay"}
    meta = [ev for ev in reloaded["traceEvents"] if ev["ph"] == "M"]
    assert any(ev["args"]["name"] == "repro (main)" for ev in meta)
    assert reloaded["counters"] == {"ntt.rows": 5}
    # Timestamps are normalized to the earliest event.
    assert min(ev["ts"] for ev in complete) == 0
    cse = next(ev for ev in complete if ev["name"] == "cse")
    assert "args" not in cse  # attrs omitted -> no args payload
    assert cse["cat"] == "compile"


@pytest.mark.parametrize("doc", [
    [],
    {"traceEvents": "nope"},
    {"traceEvents": [{"ph": "X", "name": "a", "ts": -1.0, "dur": 0,
                      "pid": 1, "tid": 1}]},
    {"traceEvents": [{"ph": "Z", "name": "a"}]},
    {"traceEvents": [], "counters": {"a": "many"}},
])
def test_validate_chrome_trace_rejects_malformed(doc):
    with pytest.raises(ValueError):
        validate_chrome_trace(doc)


def test_text_report_indents_by_depth_and_lists_counters():
    report = text_report(_sample_events(), {"ntt.rows": 5})
    lines = report.splitlines()
    compile_line = next(l for l in lines if "compile" in l)
    cse_line = next(l for l in lines if "cse" in l)
    assert not compile_line.startswith(" ")
    assert cse_line.startswith("  ")
    assert any("ntt.rows" in l and "5" in l for l in lines)


# ----------------------------------------------------------------------
# End-to-end: exec replay coverage and NTT attribution
# ----------------------------------------------------------------------
def test_replay_spans_cover_executed_wall_with_ntt_attribution():
    packed = PackedProgram.from_program(tiny_builder(levels=4, diag=3)())
    cp = compile_packed(packed, CompileOptions(sram_bytes=TINY_SRAM))
    obs.TRACER.enabled = True
    try:
        result = execute_packed(cp)
        events, counters = obs.TRACER.drain()
    finally:
        obs.TRACER.enabled = False
    outer = [ev for ev in events if ev[EV_NAME] == "replay"]
    assert len(outer) == 1
    steps = [ev for ev in events
             if ev[EV_NAME].startswith("replay.")]
    covered = sum(ev[obs.EV_DUR] for ev in steps)
    assert covered >= 0.95 * result.wall_s
    # NTT-family work is separately attributable, in spans and rows.
    labels = {ev[EV_NAME] for ev in steps}
    assert labels & {"replay.ntt", "replay.intt", "replay.auto"}
    assert counters.get("ntt.rows", 0) > 0
    # The tracer doubles as the profile source.
    assert result.profile is not None


# ----------------------------------------------------------------------
# Cross-process merge (spawn-context sweep)
# ----------------------------------------------------------------------
def test_spawn_sweep_merges_worker_traces(tmp_path):
    clear_compile_cache()
    spec = SweepSpec(
        name="obs-spawn",
        workloads=(WorkloadSpec.make("obs-tiny", levels=4, diag=3),),
        variants=tuple(
            Variant(label=f"v{i}",
                    config=_cfg(i),
                    options=CompileOptions(sram_bytes=TINY_SRAM))
            for i in range(2)))
    obs.TRACER.enabled = True
    try:
        result = run_sweep(spec, jobs=2, store=tmp_path / "s",
                           start_method="spawn")
        events, counters = obs.TRACER.drain()
    finally:
        obs.TRACER.enabled = False
    assert len(result.points) == 2
    point_spans = [ev for ev in events if ev[EV_NAME] == "sweep.point"]
    assert len(point_spans) == len(result.points)
    # Spawn workers are separate processes; their events arrive with
    # foreign pids and merge into one valid multi-process trace.
    import os
    pids = {ev[EV_PID] for ev in events}
    assert pids - {os.getpid()}
    assert counters.get("compile.executed", 0) >= 1
    validate_chrome_trace(chrome_trace(events, counters,
                                       main_pid=os.getpid()))


def _cfg(i):
    from dataclasses import replace

    from repro.core.config import ASIC_EFFACT
    return replace(ASIC_EFFACT, name=f"obs-cfg{i}",
                   sram_bytes=TINY_SRAM * (i + 1))
