"""Static instruction scheduling (paper section IV-B2).

Global list scheduling over the SSA dependence graph: priorities are
longest-path-to-exit (critical path) with per-opcode latency weights,
ties broken by program order.  The paper contrasts this "excessive
static scheduling" with MAD's hand-tuned per-primitive data paths; the
sensitivity study (Figure 11) compares the same program under ``naive``
(translator order) and ``list`` scheduling.

List scheduling is *banded*: ready instructions drain in coarse
original-order bands of ``band_size``, with critical-path priority
inside a band.  Pure global priority order would interleave unrelated
subtrees and explode live ranges far beyond the few dozen residue-sized
SRAM slots a 27 MB configuration has; banding is the register-pressure
awareness of the paper's static scheduler.

:func:`schedule_packed` exploits a structural fact of this IR: every
dependence edge points forward in program order and latency weights
are >= 1, so critical-path priority *strictly decreases* along every
edge.  The banded priority order ``(band, -priority, index)`` is
therefore always topologically valid, which collapses the whole
ready-heap simulation into one ``np.lexsort`` over packed columns.
Priorities themselves come from a backward Kahn sweep whose
per-frontier relaxations are vectorized ``bincount`` / ``reduceat``
calls over a CSR adjacency.  The seed heap-based scheduler lives on as
a test-only oracle (``tests/oracles``) that must agree index for index.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..core.isa import Opcode
from .alias import memory_dependencies_packed
from .ir import OPCODES, PackedProgram

#: Rough latency weights for critical-path computation (cycles are
#: architecture-dependent; ratios are what matters for priorities).
_LATENCY_WEIGHT = {
    Opcode.MMUL: 1,
    Opcode.MMAD: 1,
    Opcode.MMAC: 1,
    Opcode.NTT: 16,
    Opcode.INTT: 16,
    Opcode.AUTO: 1,
    Opcode.LOAD: 8,
    Opcode.STORE: 8,
    Opcode.VCOPY: 1,
    Opcode.SCALAR: 1,
}

#: Weight for opcodes absent from the table.  Must stay >= 1: strict
#: priority decrease along edges is what lets ``schedule_packed``
#: replace the ready heap with a single lexsort.
_DEFAULT_LATENCY_WEIGHT = 1


def latency_weight(op: Opcode) -> int:
    """Priority weight for ``op`` (defaulted, never raises)."""
    return _LATENCY_WEIGHT.get(op, _DEFAULT_LATENCY_WEIGHT)


def _weight_table() -> np.ndarray:
    return np.array([latency_weight(op) for op in OPCODES], dtype=np.int64)


def _dependence_edges(packed: PackedProgram) -> tuple[np.ndarray, np.ndarray]:
    """All (earlier, later) dependence edges, duplicates preserved so
    edge counts are exact indegrees."""
    producer = np.full(packed.num_values, -1, dtype=np.int64)
    has_dest = packed.dest >= 0
    producer[packed.dest[has_dest]] = np.nonzero(has_dest)[0]

    valid = packed.srcs >= 0
    rows, _cols = np.nonzero(valid)            # row-major: src order kept
    preds = producer[packed.srcs[valid]]
    keep = (preds >= 0) & (preds != rows)
    e_from = preds[keep]
    e_to = rows[keep]

    mem_from, mem_to = memory_dependencies_packed(packed)
    if len(mem_from):
        e_from = np.concatenate([e_from, mem_from])
        e_to = np.concatenate([e_to, mem_to])
    return e_from, e_to


def _ranges_concat(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(s, s + c)`` for each (s, c) pair."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    excl = np.cumsum(counts) - counts
    return np.repeat(starts - excl, counts) + np.arange(total,
                                                        dtype=np.int64)


def critical_path_priorities(packed: PackedProgram,
                             e_from: np.ndarray,
                             e_to: np.ndarray) -> np.ndarray:
    """Exact longest-path-to-exit weights via a backward Kahn sweep.

    Each frontier step finalizes every node whose successors are all
    done, computing its priority with one segmented ``maximum.reduceat``
    over the outgoing-edge CSR — O(E) total work, with the Python loop
    running once per dependence *depth* instead of once per node.
    """
    n = packed.num_instrs
    weight = _weight_table()[packed.op]
    prio = weight.copy()
    if not len(e_from):
        return prio

    order = np.argsort(e_from, kind="stable")
    out_to = e_to[order]
    out_counts = np.bincount(e_from, minlength=n)
    out_ptr = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(out_counts)])

    in_counts = np.bincount(e_to, minlength=n)
    in_order = np.argsort(e_to, kind="stable")
    in_from = e_from[in_order]
    in_ptr = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(in_counts)])

    remaining = out_counts.copy()
    frontier = np.nonzero(remaining == 0)[0]   # exits: prio = weight
    finalized = np.count_nonzero(remaining == 0)
    while frontier.size:
        # Predecessors lose one outstanding successor per in-edge.
        eidx = _ranges_concat(in_ptr[frontier], in_counts[frontier])
        preds = in_from[eidx]
        if not preds.size:
            break
        cand, lost = np.unique(preds, return_counts=True)
        remaining[cand] -= lost
        newly = cand[remaining[cand] == 0]
        if newly.size:
            # All successors of ``newly`` are final: segmented max.
            oidx = _ranges_concat(out_ptr[newly], out_counts[newly])
            seg_starts = np.cumsum(out_counts[newly]) - out_counts[newly]
            seg_max = np.maximum.reduceat(prio[out_to[oidx]], seg_starts)
            prio[newly] = weight[newly] + seg_max
            finalized += newly.size
        frontier = newly
    if finalized != n:
        raise ValueError("dependence cycle detected in program")
    return prio


def schedule_packed(packed: PackedProgram, *, policy: str = "list",
                    band_size: int = 1024) -> np.ndarray:
    """Return a topologically-valid execution order as an index array.
    ``policy`` is ``"list"`` or ``"naive"``.

    Priorities use *forward* edges only — exactly what a reverse-index
    sweep computes, since a backward successor's priority is still
    zero when read.  Forward edges are also what makes the
    ``(band, -priority, index)`` order topologically valid, so the heap
    collapses to one lexsort.  Backward edges (a pre-existing load
    hoisted past the inserted load feeding it) are rare but legal; when
    present, an exact Kahn walk with the same keys takes over.
    """
    n = packed.num_instrs
    if policy == "naive":
        return np.arange(n, dtype=np.int64)
    if policy != "list":
        raise ValueError(f"unknown scheduling policy {policy!r}")
    e_from, e_to = _dependence_edges(packed)
    forward = e_to > e_from
    prio = critical_path_priorities(packed, e_from[forward],
                                    e_to[forward])
    idx = np.arange(n, dtype=np.int64)
    if not forward.all():
        return _heap_schedule(n, e_from, e_to, prio, band_size)
    return np.lexsort((idx, -prio, idx // band_size))


def _heap_schedule(n: int, e_from: np.ndarray, e_to: np.ndarray,
                   prio: np.ndarray, band_size: int) -> np.ndarray:
    """Exact ready-heap list scheduling with the same keys over edge
    arrays; used only when backward edges exist."""
    order_idx = np.argsort(e_from, kind="stable")
    succ_to = e_to[order_idx].tolist()
    counts = np.bincount(e_from, minlength=n)
    ptr = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(counts)]).tolist()
    indegree = np.bincount(e_to, minlength=n).tolist()
    prio_l = prio.tolist()
    ready = [(i // band_size, -prio_l[i], i)
             for i in range(n) if indegree[i] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        __, ___, idx = heapq.heappop(ready)
        order.append(idx)
        for succ in succ_to[ptr[idx]:ptr[idx + 1]]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(
                    ready, (succ // band_size, -prio_l[succ], succ))
    if len(order) != n:
        raise ValueError("dependence cycle detected in program")
    return np.array(order, dtype=np.int64)


def apply_schedule_packed(packed: PackedProgram,
                          order: np.ndarray) -> None:
    """Reorder the packed program in place according to ``order``."""
    packed.permute_rows(np.asarray(order, dtype=np.int64))
