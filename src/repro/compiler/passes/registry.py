"""The registered-pass table and the ``PassManager`` that runs it.

Every compiler pass registers here under a stable name, mapped to its
implementation over a :class:`~repro.compiler.ir.PackedProgram`
(:mod:`repro.compiler.packed_passes` and the verifier stages in
:mod:`.verify_pass`) plus a one-line description.

:class:`PassManager` lives here too (next to the registry it drives);
its single timing path is the :meth:`PassManager.stage` context
manager, which both appends a :class:`PassRecord` and emits a
``compile.<pass>`` tracer span — registry-dispatched passes and the
pipeline's scheduling/allocation stages share it, so instruction
counts and wall time are measured exactly once, in one place.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from ...obs import TRACER


@dataclass
class PassSpec:
    """One named pass and its packed implementation."""

    name: str
    run: Callable
    description: str = ""


PASS_REGISTRY: dict[str, PassSpec] = {}


def register_pass(name: str, run: Callable, *,
                  description: str = "") -> PassSpec:
    """Register (or replace) the implementation of pass ``name``."""
    spec = PASS_REGISTRY[name] = PassSpec(name, run, description)
    return spec


@dataclass
class PassRecord:
    """Per-pass instrumentation the :class:`PassManager` collects."""

    name: str
    wall_s: float
    instrs_before: int
    instrs_after: int
    detail: object = None           # the pass' own return value

    @property
    def instrs_removed(self) -> int:
        return self.instrs_before - self.instrs_after


class PassManager:
    """Runs registered passes, recording per-pass instruction counts
    and wall time (and, when tracing is enabled, a ``compile.<pass>``
    span per stage)."""

    def __init__(self):
        self.records: list[PassRecord] = []

    @contextmanager
    def stage(self, name: str, ir, detail=None):
        """The one timing path for every pipeline stage.

        Yields the mutable :class:`PassRecord` (set ``.detail`` inside
        the block to capture a stage's return value); on exit fills in
        wall time and the after-count from ``len(ir)``, appends the
        record, and closes the stage's tracer span."""
        rec = PassRecord(name=name, wall_s=0.0, instrs_before=len(ir),
                         instrs_after=0, detail=detail)
        tr = TRACER
        tracing = tr.enabled
        if tracing:
            tr.begin("compile." + name)
        t0 = time.perf_counter()
        try:
            yield rec
        finally:
            rec.wall_s = time.perf_counter() - t0
            rec.instrs_after = len(ir)
            if tracing:
                tr.end("compile." + name,
                       {"instrs_before": rec.instrs_before,
                        "instrs_after": rec.instrs_after})
            self.records.append(rec)

    def run(self, name: str, ir, *args, **kwargs):
        fn = PASS_REGISTRY[name].run
        with self.stage(name, ir) as rec:
            rec.detail = fn(ir, *args, **kwargs)
        return rec.detail
