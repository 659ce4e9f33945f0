"""Linear-scan SRAM allocation with HBM spilling (paper section IV-B2).

"We can split the on-chip SRAM into several parts which are the size of
one or two residue polynomials, and view each part as a register.
Thus, the linear register allocation algorithm can be adopted to
allocate on-chip SRAM and manage the HBM."

Values that the streaming pass marked (single-consumer loads, FU-to-FU
forwarded intermediates within a short schedule window) never occupy a
slot — they live in the streaming FIFO (section IV-C).  Evicted values
that came from DRAM are *rematerialized* (reloaded from their original
address, no store); evicted compute results are spilled with an
explicit ``StoreRes`` and reloaded on demand.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..core.isa import Opcode
from .ir import OP_INDEX, PackedProgram


@dataclass
class AllocationStats:
    """Spill/traffic accounting the sensitivity study reads."""

    slot_count: int = 0
    spill_stores: int = 0
    #: Reloads of values this allocator spilled (a dirty compute value
    #: stored by an inserted STORE and read back).  A reload of a clean
    #: value counts in ``remat_reloads``.  Replay's
    #: ``ExecutionResult.spill_reloads`` counts something else — every
    #: reload served from a stored copy, including a remat reload of a
    #: value a *program* STORE wrote — so the two may differ.
    spill_reloads: int = 0
    remat_reloads: int = 0
    streaming_loads: int = 0
    forwarded_values: int = 0
    peak_slots_used: int = 0
    dram_load_bytes: int = 0
    dram_store_bytes: int = 0

    @property
    def dram_total_bytes(self) -> int:
        return self.dram_load_bytes + self.dram_store_bytes


class OutOfSlotsError(RuntimeError):
    """SRAM too small to hold even one instruction's working set."""


_LOAD_CODE = OP_INDEX[Opcode.LOAD]
_STORE_CODE = OP_INDEX[Opcode.STORE]


def slot_budget(sram_bytes: int, limb_bytes: int,
                reserve_slots: int = 0) -> int:
    """Residue slots an SRAM budget buys ("view each part as a
    register").  Raises :class:`OutOfSlotsError` below the minimum the
    allocator needs; shared with the static verifier so both agree on
    capacity."""
    slot_count = sram_bytes // limb_bytes - reserve_slots
    if slot_count < 8:
        raise OutOfSlotsError(
            f"{sram_bytes} bytes of SRAM hold only {slot_count} residue "
            f"slots; need at least 8")
    return slot_count


def value_usage(packed: PackedProgram):
    """Vectorized per-value usage summary over the (scheduled) stream:
    ``(uses_cnt, last_use, def_row, rows, svals)``, where ``rows`` /
    ``svals`` are the flattened (row, source-vid) pairs in row-major
    source order.  Outputs count one extra use at sentinel position
    ``num_instrs`` (never freed).  Shared by the allocator and the
    static verifier so both agree on liveness."""
    n = packed.num_instrs
    nv = packed.num_values
    valid = packed.srcs >= 0
    rows, _cols = np.nonzero(valid)
    svals = packed.srcs[valid]

    uses_cnt = np.bincount(svals, minlength=nv)
    last_use = np.full(nv, -1, dtype=np.int64)
    if svals.size:
        uniq, first_in_rev = np.unique(svals[::-1], return_index=True)
        last_use[uniq] = rows[len(rows) - 1 - first_in_rev]
    if len(packed.outputs):
        uses_cnt[packed.outputs] += 1
        last_use[packed.outputs] = n          # sentinel: never freed

    dest = packed.dest
    has_dest = dest >= 0
    def_row = np.full(nv, -1, dtype=np.int64)
    def_row[dest[has_dest]] = np.nonzero(has_dest)[0]
    return uses_cnt, last_use, def_row, rows, svals


def slotless_mask(packed: PackedProgram, *, forward_window: int,
                  uses_cnt: np.ndarray, last_use: np.ndarray,
                  def_row: np.ndarray) -> np.ndarray:
    """Values that never occupy an SRAM slot: streaming single-use
    loads, and forwarded single-use intermediates whose consumer sits
    within the forwarding window of the producer."""
    nv = packed.num_values
    dest = packed.dest
    has_dest = dest >= 0
    forwarded = packed.forwarded if packed.forwarded is not None \
        else np.zeros(nv, dtype=bool)
    slotless = np.zeros(nv, dtype=bool)
    is_load = packed.op == _LOAD_CODE
    load_dests = dest[is_load & packed.streaming & has_dest]
    slotless[load_dests[uses_cnt[load_dests] == 1]] = True
    fwd_vals = np.nonzero(forwarded & (uses_cnt == 1)
                          & (def_row >= 0) & ~slotless)[0]
    near = last_use[fwd_vals] - def_row[fwd_vals] <= forward_window
    slotless[fwd_vals[near]] = True
    return slotless


def allocate_packed(packed: PackedProgram, *, sram_bytes: int,
                    forward_window: int = 64,
                    reserve_slots: int = 0) -> AllocationStats:
    """Linear-scan allocation over a packed (scheduled) program.

    Live intervals, slotless values and the peak-residency profile are
    computed as vectorized interval arrays.  When the peak fits the
    slot budget — every sweep at a sane SRAM size — no eviction can
    ever fire, the instruction stream is unchanged, and the only
    sequential piece left is the LIFO slot-id replay (plain int lists).
    If the peak overflows, the spilling linear scan
    (:func:`_allocate_spill_packed`) rewrites the stream with spill
    stores and reloads.  Records ``packed.slot_of`` (value id -> slot)
    and returns traffic statistics.
    """
    limb_bytes = packed.limb_bytes
    slot_count = slot_budget(sram_bytes, limb_bytes, reserve_slots)

    n = packed.num_instrs
    nv = packed.num_values
    uses_cnt, last_use, def_row, rows, svals = value_usage(packed)

    dest = packed.dest
    has_dest = dest >= 0
    is_load = packed.op == _LOAD_CODE

    forwarded = packed.forwarded if packed.forwarded is not None \
        else np.zeros(nv, dtype=bool)
    slotless = slotless_mask(packed, forward_window=forward_window,
                             uses_cnt=uses_cnt, last_use=last_use,
                             def_row=def_row)

    allocated = np.zeros(nv, dtype=bool)
    dvals = dest[has_dest]
    allocated[dvals] = ~slotless[dvals] & (uses_cnt[dvals] > 0)

    avids = np.nonzero(allocated)[0]
    alloc_rows = def_row[avids]
    row_order = np.argsort(alloc_rows)        # one dest per row: unique
    alloc_rows_sorted = alloc_rows[row_order]
    alloc_vals_sorted = avids[row_order]
    freed_vals = np.nonzero(allocated & (last_use < n))[0]
    alloc_per_row = np.bincount(alloc_rows, minlength=n + 1)[:n]
    free_per_row = np.bincount(last_use[freed_vals], minlength=n + 1)[:n]
    live = np.cumsum(alloc_per_row - free_per_row)
    peak = int(live[alloc_per_row > 0].max()) if alloc_rows.size else 0

    if peak > slot_count:
        # Spilling run: the columnar linear scan (bit-identical to the
        # seed list allocator in tests/oracles, pinned by
        # tests/test_regalloc.py).
        return _allocate_spill_packed(
            packed, slot_count=slot_count, limb_bytes=limb_bytes,
            slotless=slotless, forwarded=forwarded, uses_cnt=uses_cnt,
            def_row=def_row)

    # No-eviction fast path: instruction stream is untouched, traffic
    # statistics are pure column counts.
    stats = AllocationStats(slot_count=slot_count)
    stats.peak_slots_used = peak
    n_loads = int(np.count_nonzero(is_load))
    n_stores = packed.count(Opcode.STORE)
    stats.dram_load_bytes = n_loads * limb_bytes
    stats.dram_store_bytes = n_stores * limb_bytes
    stats.streaming_loads = int(np.count_nonzero(is_load
                                                 & packed.streaming))
    stats.forwarded_values = int(np.count_nonzero(slotless & forwarded))

    # Replay the LIFO free-list in event order to assign slot ids.
    # Free events follow source order within a row; first occurrence
    # wins, exactly as the spilling scan pops `slot_of` on first sight.
    free_candidate = allocated.copy()
    hit_mask = free_candidate[svals] & (last_use[svals] == rows)
    f_rows = rows[hit_mask].tolist()
    f_vals = svals[hit_mask].tolist()
    a_rows = alloc_rows_sorted.tolist()
    a_vals = alloc_vals_sorted.tolist()

    slot_of: dict[int, int] = {}
    free_slots = list(range(slot_count - 1, -1, -1))
    fi, ai = 0, 0
    fn, an = len(f_rows), len(a_rows)
    while fi < fn or ai < an:
        if ai >= an or (fi < fn and f_rows[fi] <= a_rows[ai]):
            slot = slot_of.pop(f_vals[fi], None)
            if slot is not None:
                free_slots.append(slot)
            fi += 1
        else:
            slot_of[a_vals[ai]] = free_slots.pop()
            ai += 1
    packed.slot_of = slot_of
    return stats


def _allocate_spill_packed(packed: PackedProgram, *, slot_count: int,
                           limb_bytes: int, slotless: np.ndarray,
                           forwarded: np.ndarray, uses_cnt: np.ndarray,
                           def_row: np.ndarray) -> AllocationStats:
    """The spilling linear scan on packed columns.

    When no slot is free, the resident value with the furthest next
    use is evicted, with clean values (DRAM/const origin, load results,
    already-spilled copies) biased by ``clean_bonus`` since they cost a
    reload only.  A dirty compute victim gets an explicit ``STORE``; a
    later use reloads it with a source-less ``LOAD`` (a spill reload,
    or a remat reload when the value is clean).  Use positions live in
    one CSR-style ``(starts, rows)`` pair, cleanliness/def lookups are
    column reads, and the rewritten instruction stream is assembled by
    scattering the original columns around the (few) synthetic
    LOAD/STOREs.  Spill maps, instruction streams and every statistic
    are bit-identical to the seed list allocator (``tests/oracles``),
    pinned by the forced-spill differential in
    ``tests/test_regalloc.py``.
    """
    n = packed.num_instrs
    nv = packed.num_values
    INF = 1 << 60

    # CSR use positions per value, in (row, source-slot) order.
    valid = packed.srcs >= 0
    rows, _cols = np.nonzero(valid)
    svals = packed.srcs[valid]
    order = np.argsort(svals, kind="stable")
    u_rows = rows[order].tolist()
    starts = np.searchsorted(svals[order], np.arange(nv + 1)).tolist()
    out_mask = np.zeros(nv, dtype=bool)
    if len(packed.outputs):
        out_mask[packed.outputs] = True
    out_mask_l = out_mask.tolist()

    origin_l = packed.val_origin.tolist()          # 0=compute else clean
    def_row_l = def_row.tolist()
    op_l = packed.op.tolist()
    is_load_l = (packed.op == _LOAD_CODE).tolist()
    streaming_l = packed.streaming.tolist()
    dest_l = packed.dest.tolist()
    modulus_l = packed.modulus.tolist()
    n_srcs_l = packed.n_srcs.tolist()
    srcs_rows = packed.srcs.tolist()
    slotless_l = slotless.tolist()
    has_use_l = (uses_cnt > 0).tolist()

    stats = AllocationStats(slot_count=slot_count)
    free_slots = list(range(slot_count - 1, -1, -1))
    slot_of: dict[int, int] = {}
    ptr = starts[:nv]                              # next-use cursors
    spilled_dirty = [False] * nv
    evicted = [False] * nv
    victim_heap: list[tuple[int, int]] = []
    clean_bonus = 1536

    def next_use(vid: int, after: int) -> int:
        p = ptr[vid]
        end = starts[vid + 1]
        while p < end and u_rows[p] < after:
            p += 1
        ptr[vid] = p
        if p < end:
            return u_rows[p]
        return n if out_mask_l[vid] else INF

    def is_clean(vid: int) -> bool:
        if origin_l[vid] != 0 or spilled_dirty[vid]:
            return True
        pos = def_row_l[vid]
        return pos >= 0 and is_load_l[pos]

    #: Per-original-instruction synthetic ops, split by whether they
    #: are emitted before (operand reloads + their
    #: evictions) or after (destination-assignment evictions) the
    #: instruction.  Entries: ("L", vid, modulus) or ("S", vid).
    pre: dict[int, list] = {}
    post: dict[int, list] = {}

    def assign_slot(vid: int, idx: int, pinned: set[int],
                    emit: list) -> None:
        if free_slots:
            slot_of[vid] = free_slots.pop()
        else:
            _evict(idx, pinned, emit)
            slot_of[vid] = free_slots.pop()
        stats.peak_slots_used = max(stats.peak_slots_used, len(slot_of))
        key = next_use(vid, idx) + (clean_bonus if is_clean(vid) else 0)
        heapq.heappush(victim_heap, (-key, vid))

    def _evict(idx: int, pinned: set[int], emit: list) -> None:
        deferred: list[tuple[int, int]] = []
        try:
            _evict_inner(idx, pinned, emit, deferred)
        finally:
            for entry in deferred:
                heapq.heappush(victim_heap, entry)

    def _evict_inner(idx: int, pinned: set[int], emit: list,
                     deferred: list) -> None:
        while victim_heap:
            neg_nu, vid = heapq.heappop(victim_heap)
            if vid not in slot_of:
                continue
            if vid in pinned:
                deferred.append((neg_nu, vid))
                continue
            fresh = next_use(vid, idx) + (clean_bonus if is_clean(vid)
                                          else 0)
            if -neg_nu != fresh:
                heapq.heappush(victim_heap, (-fresh, vid))
                continue
            free_slots.append(slot_of.pop(vid))
            if next_use(vid, idx) < INF:
                pos = def_row_l[vid]
                remat = pos >= 0 and is_load_l[pos]
                if remat or origin_l[vid] != 0 or spilled_dirty[vid]:
                    evicted[vid] = True
                else:
                    emit.append(("S", vid))
                    stats.spill_stores += 1
                    stats.dram_store_bytes += limb_bytes
                    spilled_dirty[vid] = True
                    evicted[vid] = True
            return
        raise OutOfSlotsError("all SRAM slots pinned by one instruction")

    for idx in range(n):
        pinned: set[int] = set()
        cur = srcs_rows[idx][:n_srcs_l[idx]]
        for s in cur:
            if slotless_l[s] or origin_l[s] != 0:
                continue
            if s in slot_of:
                pinned.add(s)
                continue
            if evicted[s]:
                evicted[s] = False
                if spilled_dirty[s]:
                    stats.spill_reloads += 1
                else:
                    stats.remat_reloads += 1
                stats.dram_load_bytes += limb_bytes
                emit = pre.setdefault(idx, [])
                emit.append(("L", s, modulus_l[idx]))
                assign_slot(s, idx, pinned, emit)
                pinned.add(s)
                continue
            raise ValueError(f"operand {s} neither resident nor spilled")
        if is_load_l[idx]:
            stats.dram_load_bytes += limb_bytes
            if streaming_l[idx]:
                stats.streaming_loads += 1
        elif op_l[idx] == _STORE_CODE:
            stats.dram_store_bytes += limb_bytes
        for s in cur:
            if s in slot_of and next_use(s, idx + 1) >= INF:
                free_slots.append(slot_of.pop(s))
        d = dest_l[idx]
        if d >= 0 and not slotless_l[d] and (has_use_l[d]
                                             or out_mask_l[d]):
            assign_slot(d, idx, pinned | {d}, post.setdefault(idx, []))

    stats.forwarded_values = int(np.count_nonzero(slotless & forwarded))
    packed.slot_of = slot_of
    _scatter_spill_stream(packed, pre, post)
    return stats


def _scatter_spill_stream(packed: PackedProgram, pre: dict[int, list],
                          post: dict[int, list]) -> None:
    """Rebuild the instruction columns with the synthetic LOAD/STOREs
    scattered around the originals (pre entries before row ``idx``,
    post entries after), without materializing ``Instr`` objects."""
    if not pre and not post:
        return
    n = packed.num_instrs
    width = packed.srcs.shape[1]
    pre_cnt = np.zeros(n, dtype=np.int64)
    post_cnt = np.zeros(n, dtype=np.int64)
    for idx, entries in pre.items():
        pre_cnt[idx] = len(entries)
    for idx, entries in post.items():
        post_cnt[idx] = len(entries)
    ends = np.cumsum(1 + pre_cnt + post_cnt)
    orig_pos = ends - post_cnt - 1
    total = int(ends[-1])

    op = np.zeros(total, dtype=np.int16)
    dest = np.full(total, -1, dtype=np.int64)
    srcs = np.full((total, width), -1, dtype=np.int64)
    n_srcs = np.zeros(total, dtype=np.int64)
    modulus = np.zeros(total, dtype=np.int64)
    imm = np.zeros(total, dtype=np.int64)
    tag_id = np.zeros(total, dtype=np.int16)
    streaming = np.zeros(total, dtype=bool)

    op[orig_pos] = packed.op
    dest[orig_pos] = packed.dest
    srcs[orig_pos] = packed.srcs
    n_srcs[orig_pos] = packed.n_srcs
    modulus[orig_pos] = packed.modulus
    imm[orig_pos] = packed.imm
    tag_id[orig_pos] = packed.tag_id
    streaming[orig_pos] = packed.streaming

    mem_tag = packed.tag_code("mem")
    for idx_map, base_of in ((pre, lambda i: orig_pos[i] - pre_cnt[i]),
                             (post, lambda i: orig_pos[i] + 1)):
        for idx, entries in idx_map.items():
            row = int(base_of(idx))
            for entry in entries:
                if entry[0] == "L":
                    op[row] = _LOAD_CODE
                    dest[row] = entry[1]
                    modulus[row] = entry[2]
                else:
                    op[row] = _STORE_CODE
                    srcs[row, 0] = entry[1]
                    n_srcs[row] = 1
                tag_id[row] = mem_tag
                row += 1

    packed.op = op
    packed.dest = dest
    packed.srcs = srcs
    packed.n_srcs = n_srcs
    packed.modulus = modulus
    packed.imm = imm
    packed.tag_id = tag_id
    packed.streaming = streaming
