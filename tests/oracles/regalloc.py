"""The seed linear-scan SRAM allocator over a scheduled :class:`Program`.

Per-value Python use lists and a lazy-deletion victim heap, with the
same eviction heuristics (furthest next use, clean values biased by
``clean_bonus``) as :func:`repro.compiler.regalloc.allocate_packed`,
which must reproduce its instruction stream, spill map and every
statistic bit for bit.
"""

from __future__ import annotations

import heapq

from repro.compiler.ir import Instr, Program
from repro.compiler.regalloc import AllocationStats, OutOfSlotsError, \
    slot_budget
from repro.core.isa import Opcode


def allocate(program: Program, *, sram_bytes: int,
             forward_window: int = 64,
             reserve_slots: int = 0) -> AllocationStats:
    """Linear-scan allocation over the (already scheduled) program.

    Rewrites ``program.instrs`` in place, inserting spill stores and
    reloads, and records slot assignments in ``program.slot_of``
    (value id -> slot).  Returns traffic statistics.
    """
    limb_bytes = program.limb_bytes
    slot_count = slot_budget(sram_bytes, limb_bytes, reserve_slots)

    instrs = program.instrs
    forwarded: set[int] = getattr(program, "forwarded", set())

    # Use positions per value in scheduled order.
    use_positions: dict[int, list[int]] = {}
    for idx, ins in enumerate(instrs):
        for s in ins.srcs:
            use_positions.setdefault(s, []).append(idx)
    for vid in program.outputs:
        use_positions.setdefault(vid, []).append(len(instrs))

    def_position: dict[int, int] = {}
    for idx, ins in enumerate(instrs):
        if ins.dest is not None:
            def_position[ins.dest] = idx

    # Values that never need a slot: streaming-load destinations and
    # forwarded single-use values whose consumer is near the producer.
    slotless: set[int] = set()
    for idx, ins in enumerate(instrs):
        if ins.dest is None:
            continue
        uses = use_positions.get(ins.dest, [])
        if ins.op is Opcode.LOAD and ins.streaming and len(uses) == 1:
            slotless.add(ins.dest)
        elif (ins.dest in forwarded and len(uses) == 1
              and uses[0] - idx <= forward_window):
            slotless.add(ins.dest)

    stats = AllocationStats(slot_count=slot_count)
    free_slots = list(range(slot_count - 1, -1, -1))
    slot_of: dict[int, int] = {}
    next_use_ptr: dict[int, int] = {}
    spilled_dirty: set[int] = set()     # spilled compute values
    evicted: set[int] = set()
    victim_heap: list[tuple[int, int]] = []   # (-effective_next_use, vid)

    # Evicting a value that already has a DRAM copy costs one reload;
    # evicting a dirty compute value costs a store plus a reload.  Bias
    # victim selection toward clean values.
    clean_bonus = 1536

    def _is_clean(vid: int) -> bool:
        if program.values[vid].origin in ("dram", "const"):
            return True
        if vid in spilled_dirty:
            return True
        pos = def_position.get(vid)
        return pos is not None and instrs[pos].op is Opcode.LOAD

    out: list[Instr] = []
    program.slot_of = slot_of  # type: ignore[attr-defined]

    def next_use(vid: int, after: int) -> int:
        uses = use_positions.get(vid, [])
        ptr = next_use_ptr.get(vid, 0)
        while ptr < len(uses) and uses[ptr] < after:
            ptr += 1
        next_use_ptr[vid] = ptr
        return uses[ptr] if ptr < len(uses) else 1 << 60

    def assign_slot(vid: int, idx: int, pinned: set[int]) -> None:
        if not free_slots:
            _evict(idx, pinned)
        slot_of[vid] = free_slots.pop()
        stats.peak_slots_used = max(stats.peak_slots_used, len(slot_of))
        key = next_use(vid, idx) + (clean_bonus if _is_clean(vid) else 0)
        heapq.heappush(victim_heap, (-key, vid))

    def _evict(idx: int, pinned: set[int]) -> None:
        deferred: list[tuple[int, int]] = []
        try:
            _evict_inner(idx, pinned, deferred)
        finally:
            for entry in deferred:
                heapq.heappush(victim_heap, entry)

    def _evict_inner(idx: int, pinned: set[int],
                     deferred: list[tuple[int, int]]) -> None:
        while victim_heap:
            neg_nu, vid = heapq.heappop(victim_heap)
            if vid not in slot_of:
                continue
            if vid in pinned:
                # This value just cannot be the victim for the current
                # instruction; keep its entry.
                deferred.append((neg_nu, vid))
                continue
            fresh = next_use(vid, idx) + (clean_bonus if _is_clean(vid)
                                          else 0)
            if -neg_nu != fresh:
                # Stale entry; reinsert with the fresh key.
                heapq.heappush(victim_heap, (-fresh, vid))
                continue
            free_slots.append(slot_of.pop(vid))
            if next_use(vid, idx) < (1 << 60):
                origin = program.values[vid].origin
                producer_ins = instrs[def_position[vid]] \
                    if vid in def_position else None
                remat = (producer_ins is not None
                         and producer_ins.op is Opcode.LOAD)
                if not (remat or origin in ("dram", "const")
                        or vid in spilled_dirty):
                    out.append(Instr(op=Opcode.STORE, dest=None,
                                     srcs=(vid,), tag="mem"))
                    stats.spill_stores += 1
                    stats.dram_store_bytes += limb_bytes
                    spilled_dirty.add(vid)
                # Otherwise clean in DRAM already: reload, no store.
                evicted.add(vid)
            return
        raise OutOfSlotsError("all SRAM slots pinned by one instruction")

    for idx, ins in enumerate(instrs):
        pinned: set[int] = set()
        # Ensure operands are resident (or slotless/streamed).
        for s in ins.srcs:
            if s in slotless or program.values[s].origin in ("dram",
                                                             "const"):
                continue
            if s in slot_of:
                pinned.add(s)
                continue
            if s in evicted:
                # Reload: rematerialize or read back the spill.
                evicted.discard(s)
                if s in spilled_dirty:
                    stats.spill_reloads += 1
                else:
                    stats.remat_reloads += 1
                stats.dram_load_bytes += limb_bytes
                out.append(Instr(op=Opcode.LOAD, dest=s, srcs=(),
                                 modulus=ins.modulus, tag="mem"))
                assign_slot(s, idx, pinned)
                pinned.add(s)
                continue
            raise ValueError(f"operand {s} neither resident nor spilled")
        # Account DRAM traffic of explicit loads and output stores.
        if ins.op is Opcode.LOAD:
            stats.dram_load_bytes += limb_bytes
            if ins.streaming:
                stats.streaming_loads += 1
        elif ins.op is Opcode.STORE:
            stats.dram_store_bytes += limb_bytes
        out.append(ins)
        # Free slots of values at their last use.
        for s in ins.srcs:
            if s in slot_of and next_use(s, idx + 1) >= (1 << 60):
                free_slots.append(slot_of.pop(s))
        # Allocate the destination.
        if ins.dest is not None and ins.dest not in slotless:
            if use_positions.get(ins.dest):
                assign_slot(ins.dest, idx, pinned | {ins.dest})
    stats.forwarded_values = len(slotless & forwarded)
    program.instrs = out
    return stats
