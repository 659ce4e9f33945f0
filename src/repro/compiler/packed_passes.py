"""The compiler passes over ``PackedProgram`` columns.

Each pass operates on packed numpy columns instead of a list of
``Instr`` objects.  The seed list-of-``Instr`` implementations they
were derived from live on as test-only oracles (``tests/oracles/``);
the differential suite in ``tests/test_differential_compile.py`` pins
bit-identical programs, statistics and pass return values.

The vectorization strategy mirrors PR 1's limb batching: whatever is
order-independent across the instruction axis (masks, use counts,
replacement maps, row filtering) becomes one numpy expression; the
passes whose semantics are inherently sequential (value-numbering CSE,
constant-chain merging, load placement) keep a Python loop, but only
over the *candidate* rows — located vectorized — and only over plain
``int`` lists, which removes the per-instruction attribute/dataclass
overhead of a list-of-objects walk.
"""

from __future__ import annotations

import numpy as np

from ..core.isa import Opcode
from .ir import OP_INDEX, PackedProgram

_MMUL = OP_INDEX[Opcode.MMUL]
_MMAD = OP_INDEX[Opcode.MMAD]
_MMAC = OP_INDEX[Opcode.MMAC]
_NTT = OP_INDEX[Opcode.NTT]
_INTT = OP_INDEX[Opcode.INTT]
_AUTO = OP_INDEX[Opcode.AUTO]
_LOAD = OP_INDEX[Opcode.LOAD]
_STORE = OP_INDEX[Opcode.STORE]
_VCOPY = OP_INDEX[Opcode.VCOPY]
_SCALAR = OP_INDEX[Opcode.SCALAR]

_PURE_CODES = (_MMUL, _MMAD, _MMAC, _NTT, _INTT, _AUTO)
_MERGEABLE_TAGS = ("mult", "bc_mult")


def _producer_array(packed: PackedProgram) -> np.ndarray:
    producer = np.full(packed.num_values, -1, dtype=np.int64)
    has_dest = packed.dest >= 0
    producer[packed.dest[has_dest]] = np.nonzero(has_dest)[0]
    return producer


# ----------------------------------------------------------------------
# Copy propagation
# ----------------------------------------------------------------------
def propagate_copies_packed(packed: PackedProgram) -> int:
    """VecCopy elimination (section IV-B1: the translator emits VCOPY
    when ModUp places a digit's own limbs into the extended basis).

    The copy map is a value-id permutation resolved by pointer
    jumping, then applied to every source column at once.  Returns
    the number of instructions removed."""
    vc = packed.op == _VCOPY
    removed = int(np.count_nonzero(vc))
    if not removed:
        return 0
    mapping = np.arange(packed.num_values, dtype=np.int64)
    mapping[packed.dest[vc]] = packed.srcs[vc, 0]
    while True:
        hopped = mapping[mapping]
        if np.array_equal(hopped, mapping):
            break
        mapping = hopped
    packed.keep_rows(~vc)
    packed.map_values(mapping)
    return removed


# ----------------------------------------------------------------------
# Constant-multiply merging
# ----------------------------------------------------------------------
def merge_constant_multiplies_packed(packed: PackedProgram,
                                     const_registry: dict | None = None
                                     ) -> int:
    """Compose chains of single-use scalar-constant MMULs into one
    multiply by a merged constant: ``(x*c1)*c2 -> x*(c1*c2)``.  This
    folds iNTT's 1/N into BConv's ``qhat_inv`` and the Montgomery
    conversions into their neighbours (eq. 5, section IV-D5).
    ``const_registry`` maps ``(c1, c2)`` pairs to merged negative ids;
    the result is tagged ``bc_mult`` when either side was.

    Candidate rows (single-source constant MMULs on mergeable tags)
    are located with one mask; the chain walk itself — whose registry
    ids must be assigned in stream order — runs as a narrow int-list
    loop over those rows only."""
    if const_registry is None:
        const_registry = {}
    use_counts = packed.use_counts_array()
    producer = _producer_array(packed)
    mergeable = np.zeros(max(1, len(packed.tags)), dtype=bool)
    for tag in _MERGEABLE_TAGS:
        code = packed._tag_index.get(tag)
        if code is not None:
            mergeable[code] = True
    cand_mask = ((packed.op == _MMUL) & (packed.n_srcs == 1)
                 & (packed.imm != 0) & mergeable[packed.tag_id])
    cand_rows = np.nonzero(cand_mask)[0]
    if not cand_rows.size:
        return 0

    bc_code = packed.tag_code("bc_mult")
    rows_l = cand_rows.tolist()
    pos_of = {row: k for k, row in enumerate(rows_l)}
    src0 = packed.srcs[cand_rows, 0].tolist()
    imm = packed.imm[cand_rows].tolist()
    is_bc = (packed.tag_id[cand_rows] == bc_code).tolist()
    mod = packed.modulus[cand_rows].tolist()
    uc = use_counts.tolist()
    prod = producer.tolist()
    out_set = set(packed.outputs.tolist())

    removed_rows: set[int] = set()
    removed = 0
    for k, row in enumerate(rows_l):
        src = src0[k]
        prev_row = prod[src]
        if prev_row < 0 or prev_row in removed_rows:
            continue
        pk = pos_of.get(prev_row)
        if pk is None:
            continue
        if uc[src] != 1 or src in out_set:
            continue
        if mod[pk] != mod[k]:
            continue
        key = (imm[pk], imm[k])
        if key not in const_registry:
            const_registry[key] = -(len(const_registry) + 1)
        src0[k] = src0[pk]
        imm[k] = const_registry[key]
        if is_bc[pk] or is_bc[k]:
            is_bc[k] = True
        removed_rows.add(prev_row)
        removed += 1
    if not removed:
        return 0
    packed.srcs[cand_rows, 0] = np.array(src0, dtype=np.int64)
    packed.imm[cand_rows] = np.array(imm, dtype=np.int64)
    packed.tag_id[cand_rows[np.array(is_bc)]] = bc_code
    keep = np.ones(packed.num_instrs, dtype=bool)
    keep[np.fromiter(removed_rows, dtype=np.int64,
                     count=len(removed_rows))] = False
    packed.keep_rows(keep)
    return removed


# ----------------------------------------------------------------------
# Common subexpression elimination
# ----------------------------------------------------------------------
def eliminate_common_subexpressions_packed(packed: PackedProgram) -> int:
    """Value-numbering CSE: two pure instructions with the same
    opcode, operands (commutative for two-operand MMUL/MMAD), modulus
    and immediate compute the same residue, so the second is dropped.
    Replacement cascades make the table walk
    inherently sequential, so the loop stays — but only over pure rows
    and plain int lists; the final source/output rewrite is one
    vectorized map."""
    pure_rows = np.nonzero(np.isin(packed.op, _PURE_CODES))[0]
    if not pure_rows.size:
        return 0
    op_l = packed.op[pure_rows].tolist()
    nsrc_l = packed.n_srcs[pure_rows].tolist()
    s0_l = packed.srcs[pure_rows, 0].tolist()
    s1_l = packed.srcs[pure_rows, 1].tolist()
    s2_l = packed.srcs[pure_rows, 2].tolist()
    mod_l = packed.modulus[pure_rows].tolist()
    imm_l = packed.imm[pure_rows].tolist()
    dest_l = packed.dest[pure_rows].tolist()
    rows_l = pure_rows.tolist()

    mapping = list(range(packed.num_values))
    table: dict[tuple, int] = {}
    table_get = table.get
    dup_rows: list[int] = []
    removed = 0
    for k in range(len(rows_l)):
        o = op_l[k]
        ns = nsrc_l[k]
        if ns == 2:
            a = mapping[s0_l[k]]
            b = mapping[s1_l[k]]
            if a > b and (o == _MMUL or o == _MMAD):
                a, b = b, a
            key = (o, a, b, mod_l[k], imm_l[k])
        elif ns == 1:
            key = (o, mapping[s0_l[k]], mod_l[k], imm_l[k])
        else:
            key = (o, mapping[s0_l[k]], mapping[s1_l[k]],
                   mapping[s2_l[k]], mod_l[k], imm_l[k])
        hit = table_get(key)
        if hit is None:
            table[key] = dest_l[k]
        else:
            mapping[dest_l[k]] = hit
            dup_rows.append(rows_l[k])
            removed += 1
    if not removed:
        return 0
    keep = np.ones(packed.num_instrs, dtype=bool)
    keep[np.array(dup_rows, dtype=np.int64)] = False
    packed.keep_rows(keep)
    packed.map_values(np.array(mapping, dtype=np.int64))
    return removed


# ----------------------------------------------------------------------
# Dead code elimination
# ----------------------------------------------------------------------
def eliminate_dead_code_packed(packed: PackedProgram) -> int:
    """Drop instructions whose results are unused (STORE and SCALAR
    are kept as side effects): backward liveness over a flat CSR
    source list."""
    n = packed.num_instrs
    side = ((packed.op == _STORE) | (packed.op == _SCALAR)).tolist()
    dest_l = packed.dest.tolist()
    offsets = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(packed.n_srcs)]).tolist()
    flat = packed.srcs[packed.srcs >= 0].tolist()
    live = bytearray(packed.num_values)
    for vid in packed.outputs.tolist():
        live[vid] = 1
    keep = [False] * n
    removed = 0
    for i in range(n - 1, -1, -1):
        dest = dest_l[i]
        if side[i] or (dest >= 0 and live[dest]):
            keep[i] = True
            for s in flat[offsets[i]:offsets[i + 1]]:
                live[s] = 1
        else:
            removed += 1
    if removed:
        packed.keep_rows(np.array(keep, dtype=bool))
    return removed


# ----------------------------------------------------------------------
# MAC fusion
# ----------------------------------------------------------------------
def fuse_mac_packed(packed: PackedProgram) -> int:
    """Fuse an ``MMUL`` whose single use is an ``MMAD`` into one
    ``MMAC``, which may run on a reconfigured NTT unit (section
    IV-D3).  Candidate masks are vectorized; the pairing walk runs
    over MMAD rows only.  Returns pairs fused."""
    mmad_rows = np.nonzero((packed.op == _MMAD)
                           & (packed.n_srcs == 2))[0]
    if not mmad_rows.size:
        return 0
    use_counts = packed.use_counts_array().tolist()
    producer = _producer_array(packed).tolist()
    out_set = set(packed.outputs.tolist())
    fusable = ((packed.op == _MMUL) & (packed.n_srcs == 2)
               & (packed.imm == 0)).tolist()
    s0_l = packed.srcs[:, 0].tolist()
    s1_l = packed.srcs[:, 1].tolist()
    mod_l = packed.modulus.tolist()

    removed_rows: set[int] = set()
    fused_rows: list[int] = []
    fused_srcs: list[tuple[int, int, int]] = []
    for i in mmad_rows.tolist():
        src = s0_l[i]
        other = s1_l[i]
        for _pos in (0, 1):
            prev_row = producer[src]
            if (prev_row >= 0 and prev_row not in removed_rows
                    and fusable[prev_row]
                    and use_counts[src] == 1 and src not in out_set
                    and mod_l[prev_row] == mod_l[i]):
                fused_rows.append(i)
                fused_srcs.append((s0_l[prev_row], s1_l[prev_row],
                                   other))
                removed_rows.add(prev_row)
                break
            src, other = other, src
    if not fused_rows:
        return 0
    rows = np.array(fused_rows, dtype=np.int64)
    packed.op[rows] = _MMAC
    packed.srcs[rows, :3] = np.array(fused_srcs, dtype=np.int64)
    packed.n_srcs[rows] = 3
    keep = np.ones(packed.num_instrs, dtype=bool)
    keep[np.fromiter(removed_rows, dtype=np.int64,
                     count=len(removed_rows))] = False
    packed.keep_rows(keep)
    return len(fused_rows)


# ----------------------------------------------------------------------
# Memory legalization
# ----------------------------------------------------------------------
def insert_loads_packed(packed: PackedProgram, *, reuse_window: int = 256,
                        prefetch_distance: int = 12) -> int:
    """Insert one LOAD per DRAM/const operand use and hoist it
    ``prefetch_distance`` slots ahead of its consumer.

    A use within ``reuse_window`` instructions of the previous load of
    the same value reuses it; a use farther away gets a fresh load, so
    far-apart re-reads of bulk data (keys, plaintext diagonals) become
    single-consumer loads the streaming pass turns into FIFO traffic.
    A non-streaming load holds an SRAM slot for its whole prefetch
    window (paper Figure 2c vs 2d).  Returns the loads inserted.

    DRAM/const operand slots are located with one mask over the source
    matrix; the placement walk (whose reuse window is measured in
    positions of the *output* stream) runs over those hits only.  The
    final instruction order is assembled as an index array and applied
    with a single column gather.
    """
    external = packed.val_origin != 0          # dram or const
    valid = packed.srcs >= 0
    ext_mask = np.zeros_like(valid)
    ext_mask[valid] = external[packed.srcs[valid]]
    hit_rows, hit_cols = np.nonzero(ext_mask)  # row-major == seed order

    n = packed.num_instrs
    src_mat = packed.srcs
    mod_l = packed.modulus.tolist()
    names = packed.val_names
    last_load: dict[int, tuple[int, int]] = {}
    new_names: list[str] = []
    loads: list[tuple[int, int, int, int]] = []   # (row, src, dest, mod)
    new_src: list[int] = []
    shift = 0
    next_vid = packed.num_values
    hits = zip(hit_rows.tolist(), hit_cols.tolist())
    src_pairs = src_mat[hit_rows, hit_cols].tolist()
    for (row, _col), src in zip(hits, src_pairs):
        pos = row + shift
        cached = last_load.get(src)
        if cached is not None and pos - cached[0] <= reuse_window:
            new_src.append(cached[1])
            continue
        dest = next_vid
        next_vid += 1
        new_names.append(f"load({names[src]})")
        loads.append((row, src, dest, mod_l[row]))
        last_load[src] = (pos, dest)
        shift += 1
        new_src.append(dest)
    inserted = len(loads)

    if hit_rows.size:
        packed.srcs[hit_rows, hit_cols] = np.array(new_src,
                                                   dtype=np.int64)

    # Assemble the merged order (original row i keeps id i; inserted
    # load k gets id n + k), emulating _hoist_loads inline: every LOAD
    # lands ``prefetch_distance`` slots before the current tail.
    #
    # A hoisted LOAD must still land *after* whatever defines its
    # sources.  Inserted staging loads only read DRAM/const values, but
    # an original (user-written) LOAD row may now read a staging value
    # defined at most ``prefetch_distance`` slots back — at the stream
    # head the ``max(0, ...)`` floor used to collapse both inserts to
    # position 0, emitting the consumer *before* its staging load.
    is_load = (packed.op == _LOAD).tolist()
    dest_l = packed.dest.tolist()
    nsrc_l = packed.n_srcs.tolist()
    nv = packed.num_values                     # staging vids are >= nv
    origin_compute = (packed.val_origin == 0).tolist()
    order: list[int] = []
    hoist = prefetch_distance > 0
    load_ptr = 0

    def hoisted_insert(ident: int, deps) -> None:
        pos = max(0, len(order) - prefetch_distance)
        if deps:
            for r in range(len(order) - 1, pos - 1, -1):
                oid = order[r]
                d = loads[oid - n][2] if oid >= n else dest_l[oid]
                if d in deps:
                    pos = r + 1
                    break
        order.insert(pos, ident)

    for i in range(n):
        while load_ptr < inserted and loads[load_ptr][0] == i:
            lid = n + load_ptr
            if hoist:
                hoisted_insert(lid, ())
            else:
                order.append(lid)
            load_ptr += 1
        if hoist and is_load[i]:
            deps = {s for s in src_mat[i][:nsrc_l[i]].tolist()
                    if s >= nv or (s >= 0 and origin_compute[s])}
            hoisted_insert(i, deps)
        else:
            order.append(i)
    if inserted:
        packed.append_values(inserted, names=new_names)
        width = packed.srcs.shape[1]
        block_srcs = np.full((inserted, width), -1, dtype=np.int64)
        arr = np.array(loads, dtype=np.int64)
        block_srcs[:, 0] = arr[:, 1]
        mem_code = packed.tag_code("mem")
        packed.op = np.concatenate(
            [packed.op, np.full(inserted, _LOAD, dtype=np.int16)])
        packed.dest = np.concatenate([packed.dest, arr[:, 2]])
        packed.srcs = np.concatenate([packed.srcs, block_srcs])
        packed.n_srcs = np.concatenate(
            [packed.n_srcs, np.ones(inserted, dtype=np.int64)])
        packed.modulus = np.concatenate([packed.modulus, arr[:, 3]])
        packed.imm = np.concatenate(
            [packed.imm, np.zeros(inserted, dtype=np.int64)])
        packed.tag_id = np.concatenate(
            [packed.tag_id, np.full(inserted, mem_code, dtype=np.int16)])
        packed.streaming = np.concatenate(
            [packed.streaming, np.zeros(inserted, dtype=bool)])
    if inserted or hoist:
        packed.permute_rows(np.array(order, dtype=np.int64))
    return inserted


def mark_streaming_packed(packed: PackedProgram, *,
                          streaming_loads_enabled: bool = True,
                          forwarding_enabled: bool = True
                          ) -> tuple[int, int]:
    """Mark single-consumer loads as streaming (section IV-B3: they
    bypass SRAM through the streaming FIFO) and record single-use
    compute results as FU-to-FU forwarded in ``packed.forwarded``.
    The two toggle independently so the sensitivity study can model
    MAD-enhanced (buffers only) versus EFFACT (buffers + streaming).
    Returns ``(streaming_loads, forwarded_values)``; fully
    vectorized."""
    use_counts = packed.use_counts_array()
    out_mask = np.zeros(packed.num_values, dtype=bool)
    if len(packed.outputs):
        out_mask[packed.outputs] = True
    has_dest = packed.dest >= 0
    single = np.zeros(packed.num_instrs, dtype=bool)
    dvals = packed.dest[has_dest]
    single[has_dest] = (use_counts[dvals] == 1) & ~out_mask[dvals]
    is_load = packed.op == _LOAD
    is_store = packed.op == _STORE
    stream_rows = is_load & single & streaming_loads_enabled
    packed.streaming = packed.streaming | stream_rows
    fwd_rows = (~is_load) & (~is_store) & single & forwarding_enabled
    forwarded = np.zeros(packed.num_values, dtype=bool)
    forwarded[packed.dest[fwd_rows]] = True
    packed.forwarded = forwarded
    return int(stream_rows.sum()), int(fwd_rows.sum())


# ----------------------------------------------------------------------
# Registry wiring
# ----------------------------------------------------------------------
from .passes.registry import register_pass  # noqa: E402

register_pass("copy-prop", propagate_copies_packed,
              description="eliminate VecCopy chains (section IV-B1)")
register_pass("const-merge", merge_constant_multiplies_packed,
              description="compose constant-multiply chains "
                          "(eq. 5 / section IV-D5)")
register_pass("cse", eliminate_common_subexpressions_packed,
              description="value-numbering common-subexpression "
                          "elimination")
register_pass("dce", eliminate_dead_code_packed,
              description="drop instructions whose results are unused")
register_pass("mac-fuse", fuse_mac_packed,
              description="fuse MMUL+MMAD into MMAC for circuit-level "
                          "NTT reuse (section IV-D3)")
register_pass("insert-loads", insert_loads_packed,
              description="materialize LoadRes staging + prefetch "
                          "hoisting")
register_pass("mark-streaming", mark_streaming_packed,
              description="merge single-consumer loads into streaming "
                          "ops; record FU-to-FU forwarding "
                          "(section IV-B3)")
