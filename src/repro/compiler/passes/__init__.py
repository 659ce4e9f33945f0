"""Compiler optimization passes (paper section IV-B1).

The pipeline mirrors the paper's compiler backend: copy propagation,
constant propagation / computation merge (the peephole that reproduces
eq. 5's merged BConv), partial redundancy elimination (value-numbering
CSE for the straight-line programs FHE traces produce), dead code
elimination, MAC fusion for the circuit-level NTT reuse scheme, memory
legalization, and streaming instruction merging.  The implementations
live in :mod:`repro.compiler.packed_passes`; this package holds the
registered-pass table they fill and the verifier stages.
"""

from .registry import PASS_REGISTRY, PassSpec, register_pass
from .verify_pass import (
    verify_ir_pass,
    verify_regalloc_pass,
    verify_schedule_pass,
)

__all__ = [
    "PASS_REGISTRY",
    "PassSpec",
    "register_pass",
    "verify_ir_pass",
    "verify_regalloc_pass",
    "verify_schedule_pass",
]
