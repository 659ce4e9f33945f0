"""The seed list scheduler and alias analysis over a :class:`Program`.

:func:`schedule` is the heap-based banded list scheduler that
:func:`repro.compiler.scheduler.schedule_packed` collapses into one
lexsort; :func:`memory_dependencies` is the address-ordered
store/load edge walk that
:func:`repro.compiler.alias.memory_dependencies_packed` filters
vectorized.  Both must agree with their packed twins index for index.
"""

from __future__ import annotations

import heapq
from collections import defaultdict

from repro.compiler.ir import Program
from repro.compiler.scheduler import latency_weight
from repro.core.isa import Opcode


def memory_dependencies(program: Program) -> list[tuple[int, int]]:
    """Extra (earlier_idx, later_idx) ordering edges for aliasing memory
    operations: store->load, load->store and store->store on the same
    address, in program order."""
    last_store: dict[int, int] = {}
    loads_since_store: dict[int, list[int]] = defaultdict(list)
    edges: list[tuple[int, int]] = []
    for idx, ins in enumerate(program.instrs):
        if ins.op not in (Opcode.LOAD, Opcode.STORE) or not ins.srcs:
            continue
        value = program.values.get(ins.srcs[0])
        addr = None if value is None else value.address
        if addr is None:
            continue
        if addr in last_store:
            edges.append((last_store[addr], idx))
        if ins.op is Opcode.LOAD:
            loads_since_store[addr].append(idx)
        else:
            for load_idx in loads_since_store[addr]:
                edges.append((load_idx, idx))
            loads_since_store[addr] = []
            last_store[addr] = idx
    return edges


def schedule(program: Program, *, policy: str = "list",
             band_size: int = 1024) -> list[int]:
    """Return a topologically-valid execution order (instruction
    indices).  ``policy`` is ``"list"`` or ``"naive"``.

    Ready instructions drain in original-order bands of ``band_size``,
    longest latency-weighted path to exit first inside a band, ties by
    index.
    """
    if policy == "naive":
        return list(range(len(program.instrs)))
    if policy != "list":
        raise ValueError(f"unknown scheduling policy {policy!r}")

    n = len(program.instrs)
    producer: dict[int, int] = {}
    for idx, ins in enumerate(program.instrs):
        if ins.dest is not None:
            producer[ins.dest] = idx

    successors: list[list[int]] = [[] for _ in range(n)]
    indegree = [0] * n
    for idx, ins in enumerate(program.instrs):
        for s in ins.srcs:
            p = producer.get(s)
            if p is not None and p != idx:
                successors[p].append(idx)
                indegree[idx] += 1
    for earlier, later in memory_dependencies(program):
        successors[earlier].append(later)
        indegree[later] += 1

    # Longest path to exit (reverse topological accumulation).
    priority = [0] * n
    for idx in range(n - 1, -1, -1):
        best = 0
        for succ in successors[idx]:
            if priority[succ] > best:
                best = priority[succ]
        priority[idx] = latency_weight(program.instrs[idx].op) + best

    ready = [(i // band_size, -priority[i], i)
             for i in range(n) if indegree[i] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        __, ___, idx = heapq.heappop(ready)
        order.append(idx)
        for succ in successors[idx]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(
                    ready, (succ // band_size, -priority[succ], succ))
    if len(order) != n:
        raise ValueError("dependence cycle detected in program")
    return order


def apply_schedule(program: Program, order: list[int]) -> None:
    """Reorder the program in place according to ``order``."""
    program.instrs = [program.instrs[i] for i in order]
