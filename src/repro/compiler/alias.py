"""Alias analysis for memory ordering (paper section IV-B2).

The IR is SSA over residues, so the only memory hazards are between
``LoadRes``/``StoreRes`` instructions touching the same DRAM address.
The paper chains such pairs before scheduling; we reproduce that as an
explicit dependence-edge computation the scheduler consumes.  Since the
translator assigns every logical operand a distinct address, programs
only alias through spill slots and explicit output stores — but the
analysis is conservative and address-based, as Andersen-style analysis
degenerates to in a flat address space.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from ..core.isa import Opcode
from .ir import OP_INDEX, PackedProgram


def memory_dependencies_packed(
        packed: PackedProgram) -> tuple[np.ndarray, np.ndarray]:
    """Extra ``(earlier, later)`` ordering edges for aliasing memory
    operations: store->load, load->store and store->store on the same
    address, in program order, as two index arrays.

    The candidate set (loads/stores whose first operand carries a DRAM
    address) is found with one mask over the packed columns; the
    ordering walk then only touches those rows.  Translator-assigned
    addresses are unique per logical operand, so for most programs the
    candidate set — and the returned edge list — is empty.
    """
    load_code = OP_INDEX[Opcode.LOAD]
    store_code = OP_INDEX[Opcode.STORE]
    mem = ((packed.op == load_code) | (packed.op == store_code)) \
        & (packed.n_srcs > 0)
    rows = np.nonzero(mem)[0]
    empty = np.zeros(0, dtype=np.int64)
    if not rows.size:
        return empty, empty
    addr = packed.val_address[packed.srcs[rows, 0]]
    tracked = addr >= 0
    rows = rows[tracked]
    if not rows.size:
        return empty, empty
    addr = addr[tracked]
    is_store = packed.op[rows] == store_code

    last_store: dict[int, int] = {}
    loads_since_store: dict[int, list[int]] = defaultdict(list)
    e_from: list[int] = []
    e_to: list[int] = []
    for idx, a, st in zip(rows.tolist(), addr.tolist(),
                          is_store.tolist()):
        if st:
            if a in last_store:
                e_from.append(last_store[a])
                e_to.append(idx)
            for load_idx in loads_since_store[a]:
                e_from.append(load_idx)
                e_to.append(idx)
            loads_since_store[a] = []
            last_store[a] = idx
        else:
            if a in last_store:
                e_from.append(last_store[a])
                e_to.append(idx)
            loads_since_store[a].append(idx)
    return (np.array(e_from, dtype=np.int64),
            np.array(e_to, dtype=np.int64))
