"""The seed compiler passes over a list-of-``Instr`` :class:`Program`.

One function per registered production pass (the packed twins in
:mod:`repro.compiler.packed_passes`), each a direct transcription of
the paper's section IV-B description with no vectorization: copy
propagation, constant-multiply merging (eq. 5), value-numbering CSE,
dead code elimination, MAC fusion (section IV-D3), load insertion
with prefetch hoisting, and streaming/forwarding marks (section
IV-B3).  Return values match the packed twins exactly.
"""

from __future__ import annotations

from repro.compiler.ir import Instr, Program
from repro.core.isa import Opcode

_MERGEABLE_TAGS = {"mult", "bc_mult"}
_PURE_OPS = {Opcode.MMUL, Opcode.MMAD, Opcode.MMAC, Opcode.NTT,
             Opcode.INTT, Opcode.AUTO}
_SIDE_EFFECT_OPS = {Opcode.STORE, Opcode.SCALAR}


def propagate_copies(program: Program) -> int:
    """Rewrite uses of VCOPY results to the copy source and drop the
    copies.  Returns the number of instructions removed."""
    replacement: dict[int, int] = {}
    kept = []
    removed = 0
    for ins in program.instrs:
        srcs = tuple(replacement.get(s, s) for s in ins.srcs)
        if ins.op is Opcode.VCOPY:
            assert ins.dest is not None
            replacement[ins.dest] = srcs[0]
            removed += 1
            continue
        ins.srcs = srcs
        kept.append(ins)
    program.instrs = kept
    program.outputs = {replacement.get(v, v) for v in program.outputs}
    return removed


def _is_const_mul(ins) -> bool:
    return (ins.op is Opcode.MMUL and len(ins.srcs) == 1
            and ins.imm != 0 and ins.tag in _MERGEABLE_TAGS)


def merge_constant_multiplies(program: Program,
                              const_registry: dict | None = None) -> int:
    """Fuse consecutive single-use constant multiplies.

    ``const_registry`` maps constant-id pairs to merged ids so repeated
    merges of the same constants share one pre-computed table entry.
    Returns the number of instructions eliminated.
    """
    if const_registry is None:
        const_registry = {}
    use_counts = program.use_counts()
    producer: dict[int, int] = {}
    for idx, ins in enumerate(program.instrs):
        if ins.dest is not None:
            producer[ins.dest] = idx

    removed_indices: set[int] = set()
    removed = 0
    replacement: dict[int, int] = {}
    for idx, ins in enumerate(program.instrs):
        if not _is_const_mul(ins):
            continue
        src = replacement.get(ins.srcs[0], ins.srcs[0])
        ins.srcs = (src,)
        prev_idx = producer.get(src)
        if prev_idx is None or prev_idx in removed_indices:
            continue
        prev = program.instrs[prev_idx]
        if not _is_const_mul(prev):
            continue
        if use_counts[src] != 1 or src in program.outputs:
            continue
        if prev.modulus != ins.modulus:
            continue
        # Fold: dest = (x * c1) * c2  ->  dest = x * (c1*c2)
        key = (prev.imm, ins.imm)
        if key not in const_registry:
            const_registry[key] = -(len(const_registry) + 1)
        ins.srcs = prev.srcs
        ins.imm = const_registry[key]
        # The merged multiply belongs to BConv when either side did.
        if "bc" in (prev.tag, ins.tag) or "bc_mult" in (prev.tag, ins.tag):
            ins.tag = "bc_mult"
        removed_indices.add(prev_idx)
        removed += 1
    if removed_indices:
        program.instrs = [ins for i, ins in enumerate(program.instrs)
                          if i not in removed_indices]
    return removed


def eliminate_common_subexpressions(program: Program) -> int:
    """Value-numbering CSE; returns instructions removed."""
    table: dict[tuple, int] = {}
    replacement: dict[int, int] = {}
    kept = []
    removed = 0
    for ins in program.instrs:
        ins.srcs = tuple(replacement.get(s, s) for s in ins.srcs)
        if ins.op not in _PURE_OPS:
            kept.append(ins)
            continue
        # MMAD/MMUL on two operands are commutative.
        srcs = ins.srcs
        if ins.op in (Opcode.MMUL, Opcode.MMAD) and len(srcs) == 2:
            srcs = tuple(sorted(srcs))
        key = (ins.op, srcs, ins.modulus, ins.imm)
        hit = table.get(key)
        if hit is not None:
            assert ins.dest is not None
            replacement[ins.dest] = hit
            removed += 1
            continue
        if ins.dest is not None:
            table[key] = ins.dest
        kept.append(ins)
    program.instrs = kept
    program.outputs = {replacement.get(v, v) for v in program.outputs}
    return removed


def eliminate_dead_code(program: Program) -> int:
    """Backward liveness sweep; returns instructions removed."""
    live: set[int] = set(program.outputs)
    keep_flags = [False] * len(program.instrs)
    for idx in range(len(program.instrs) - 1, -1, -1):
        ins = program.instrs[idx]
        needed = (ins.op in _SIDE_EFFECT_OPS
                  or (ins.dest is not None and ins.dest in live))
        if not needed:
            continue
        keep_flags[idx] = True
        live.update(ins.srcs)
    removed = keep_flags.count(False)
    if removed:
        program.instrs = [ins for ins, keep in zip(program.instrs,
                                                   keep_flags) if keep]
    return removed


def fuse_mac(program: Program) -> int:
    """Fuse MMUL+MMAD pairs into MMAC; returns pairs fused."""
    use_counts = program.use_counts()
    producer: dict[int, int] = {}
    for idx, ins in enumerate(program.instrs):
        if ins.dest is not None:
            producer[ins.dest] = idx
    removed_indices: set[int] = set()
    fused = 0
    for ins in program.instrs:
        if ins.op is not Opcode.MMAD or len(ins.srcs) != 2:
            continue
        for pos, src in enumerate(ins.srcs):
            prev_idx = producer.get(src)
            if prev_idx is None or prev_idx in removed_indices:
                continue
            prev = program.instrs[prev_idx]
            if prev.op is not Opcode.MMUL or len(prev.srcs) != 2:
                continue
            if prev.imm != 0:
                continue
            if use_counts[src] != 1 or src in program.outputs:
                continue
            if prev.modulus != ins.modulus:
                continue
            other = ins.srcs[1 - pos]
            ins.op = Opcode.MMAC
            ins.srcs = (prev.srcs[0], prev.srcs[1], other)
            removed_indices.add(prev_idx)
            fused += 1
            break
    if removed_indices:
        program.instrs = [ins for i, ins in enumerate(program.instrs)
                          if i not in removed_indices]
    return fused


def insert_loads(program: Program, *, reuse_window: int = 256,
                 prefetch_distance: int = 12) -> int:
    """Insert LOADs for DRAM/const operands and rewrite uses.

    A use within ``reuse_window`` instructions of the previous load of
    the same value reuses it; a use farther away gets a fresh load.
    Loads are then hoisted ``prefetch_distance`` instructions ahead of
    their first consumer.  Returns the number of loads inserted.
    """
    last_load: dict[int, tuple[int, int]] = {}   # vid -> (pos, dest)
    new_instrs = []
    inserted = 0
    for ins in program.instrs:
        new_srcs = []
        for s in ins.srcs:
            value = program.values[s]
            if value.origin in ("dram", "const"):
                pos = len(new_instrs)
                cached = last_load.get(s)
                if cached is not None and pos - cached[0] <= reuse_window:
                    new_srcs.append(cached[1])
                    continue
                dest = program.new_value("compute",
                                         f"load({value.name})")
                new_instrs.append(Instr(op=Opcode.LOAD, dest=dest,
                                        srcs=(s,), modulus=ins.modulus,
                                        tag="mem"))
                last_load[s] = (pos, dest)
                inserted += 1
                new_srcs.append(dest)
            else:
                new_srcs.append(s)
        ins.srcs = tuple(new_srcs)
        new_instrs.append(ins)
    if prefetch_distance > 0:
        new_instrs = _hoist_loads(program, new_instrs, prefetch_distance)
    program.instrs = new_instrs
    return inserted


def _hoist_loads(program: Program, instrs: list, distance: int) -> list:
    """Move each LOAD ``distance`` slots earlier, but never above an
    instruction that defines one of its compute-origin sources (a
    user-written LOAD may read a staging value)."""
    out: list = []
    for ins in instrs:
        if ins.op is Opcode.LOAD:
            position = max(0, len(out) - distance)
            deps = {s for s in ins.srcs
                    if program.values[s].origin == "compute"}
            if deps:
                for r in range(len(out) - 1, position - 1, -1):
                    if out[r].dest in deps:
                        position = r + 1
                        break
            out.insert(position, ins)
        else:
            out.append(ins)
    return out


def mark_streaming(program: Program, *, streaming_loads_enabled: bool = True,
                   forwarding_enabled: bool = True) -> tuple[int, int]:
    """Mark single-consumer loads as streaming and record FU-to-FU
    forwarded values in ``program.forwarded``.

    Returns ``(streaming_loads, forwarded_values)``.
    """
    use_counts = program.use_counts()
    streaming_loads = 0
    forwarded = 0
    program_forwarded: set[int] = set()
    for ins in program.instrs:
        if ins.dest is None:
            continue
        single_use = (use_counts[ins.dest] == 1
                      and ins.dest not in program.outputs)
        if ins.op is Opcode.LOAD and single_use and streaming_loads_enabled:
            ins.streaming = True
            streaming_loads += 1
        elif ins.op not in (Opcode.LOAD, Opcode.STORE) and single_use \
                and forwarding_enabled:
            program_forwarded.add(ins.dest)
            forwarded += 1
    program.forwarded = program_forwarded  # type: ignore[attr-defined]
    return streaming_loads, forwarded
