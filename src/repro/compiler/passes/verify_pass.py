"""Registered verifier stages (``verify-ir`` / ``verify-schedule`` /
``verify-regalloc``).

Thin adapters from the :class:`~repro.compiler.passes.registry.
PassManager` calling convention onto the pure suite functions in
:mod:`repro.compiler.verify`: each stage runs its suite and raises
:class:`~repro.compiler.verify.VerifyError` on any diagnostic, so a
corrupted compile aborts at the first stage that can see the damage
(with the offending instruction index in the message) instead of as a
bitwise mismatch at execute time.

The stages are opt-in: the pipeline wires them in when
``CompileOptions(verify=True)`` or ``REPRO_VERIFY=1`` (see
:mod:`repro.core.env`).  Their wall time lands in
``CompileStats.pass_records`` like every other stage, so the
flag-off/flag-on cost is directly measurable
(``benchmarks/test_verify_overhead.py`` pins flag-off to zero added
stages).
"""

from __future__ import annotations

from ..ir import PackedProgram
from ..verify import (
    raise_on,
    verify_ir,
    verify_regalloc,
    verify_schedule,
)
from .registry import register_pass


def verify_ir_pass(packed: PackedProgram, *,
                   allow_reloads: bool = False) -> int:
    """Raise on IR corruption; returns 0 (diagnostics are fatal)."""
    raise_on(verify_ir(packed, allow_reloads=allow_reloads))
    return 0


def verify_schedule_pass(packed: PackedProgram, pre: PackedProgram,
                         order) -> int:
    """``packed`` is the scheduled stream, ``pre`` the pre-schedule
    snapshot the pipeline kept while verification is on."""
    raise_on(verify_schedule(pre, order, packed))
    return 0


def verify_regalloc_pass(packed: PackedProgram, *, sram_bytes: int,
                         forward_window: int = 64,
                         reserve_slots: int = 0) -> int:
    """Post-allocation stream checks, plus a re-run of the IR suite
    in the post-regalloc dialect (spill reloads legal)."""
    diags = verify_ir(packed, allow_reloads=True)
    diags += verify_regalloc(packed, sram_bytes=sram_bytes,
                             forward_window=forward_window,
                             reserve_slots=reserve_slots)
    raise_on(diags)
    return 0


register_pass("verify-ir", verify_ir_pass,
              description="static IR well-formedness (SSA, arity, "
                          "const/prime tables)")
register_pass("verify-schedule", verify_schedule_pass,
              description="scheduled stream preserves every "
                          "RAW/WAR/WAW hazard")
register_pass("verify-regalloc", verify_regalloc_pass,
              description="slot assignment, spill/remat chains, "
                          "capacity")
