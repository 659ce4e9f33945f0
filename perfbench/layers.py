"""Per-layer attribution of a traced run.

Inputs are the tracer events and counters of the traced window (every
event nests under a ``bench.request`` span), the events of the traced
set-up, and what the workload recorded about its own objects.  Kernel
time is attributed exclusively: an NTT span counts once, to
``nttmath``, even when it runs inside a BConv span; a BConv span counts
to ``rns`` minus the NTT time inside it.  A layer's ``self_ms`` is its
benchmark span time minus the kernel time inside it.

Metrics of a layer a workload does not run read 0.

Op classes.  Both sides of the cost-model cross-check map onto five
classes:

=============  ==============================  ===========================
class          simulator opcodes               replay step labels
=============  ==============================  ===========================
ntt            NTT                             ntt
intt           INTT                            intt
auto           AUTO                            auto
elementwise    MMUL, MMAD, MMAC, SCALAR        mmul, mmad, mmac,
                                               mmul+mmad, scalar
memory         LOAD, STORE, VCOPY              load-dram, load-copy,
                                               remat, spill-store, vcopy
=============  ==============================  ===========================

The simulator side is each class's share of predicted busy cycles (the
per-instruction service times of ``arch.units.TimingModel``); the
replay side is each class's share of ``replay.<label>`` wall time.
"""

from __future__ import annotations

import numpy as np

from repro.obs.core import EV_ATTRS, EV_DUR, EV_NAME, EV_PATH

OP_CLASSES = ("ntt", "intt", "auto", "elementwise", "memory")

OPCODE_CLASS = {
    "ntt": "ntt", "intt": "intt", "auto": "auto",
    "mmul": "elementwise", "mmad": "elementwise", "mmac": "elementwise",
    "scalar": "elementwise",
    "load": "memory", "store": "memory", "vcopy": "memory",
}

#: Replay step labels (``compiler.exec_plan``), in report order.
REPLAY_LABELS = ("ntt", "intt", "auto", "mmul", "mmad", "mmac",
                 "mmul+mmad", "scalar", "load-dram", "load-copy", "remat",
                 "spill-store", "vcopy")

LABEL_CLASS = {"ntt": "ntt", "intt": "intt", "auto": "auto",
               "mmul": "elementwise", "mmad": "elementwise",
               "mmac": "elementwise", "mmul+mmad": "elementwise",
               "scalar": "elementwise", "load-dram": "memory",
               "load-copy": "memory", "remat": "memory",
               "spill-store": "memory", "vcopy": "memory"}

COMPILER_PASSES = ("copy-prop", "const-merge", "cse", "dce", "mac-fuse",
                   "insert-loads", "mark-streaming", "schedule",
                   "regalloc")

NTT_SPANS = {"ntt.forward": "fwd", "ntt.inverse": "inv",
             "ntt.automorphism": "auto"}
NTT_ROWS = {"fwd": "ntt.rows", "inv": "intt.rows", "auto": "auto.rows"}
BCONV_SPANS = frozenset(("bconv.fast", "bconv.exact", "bconv.merged"))

SCHEME_OPS = ("ckks.rotate_hoisted", "ckks.add", "ckks.multiply",
              "ckks.rescale", "bgv.multiply", "bgv.mod_switch",
              "bfv.multiply")
BATCH_OPS = ("rotate_hoisted", "add", "multiply", "rescale")


def metric_name(name: str) -> str:
    """Metric names allow letters, digits, ``_``, ``.`` and ``-``."""
    return name.replace("+", "_")


def cycle_by_class(packed_list, config) -> dict[str, int]:
    """Predicted busy cycles per op class, summed over compiled
    programs."""
    from repro.arch.units import TimingModel
    from repro.compiler.ir import OPCODES

    out = dict.fromkeys(OP_CLASSES, 0)
    for packed in packed_list:
        durations, _ = TimingModel(config, packed.n).op_tables()
        counts = np.bincount(packed.op, minlength=len(OPCODES))
        for op, count, dur in zip(OPCODES, counts.tolist(), durations):
            out[OPCODE_CLASS[op.value]] += count * dur
    return out


def shares(totals: dict[str, float]) -> dict[str, float]:
    whole = sum(totals.values())
    return {k: (v / whole if whole else 0.0) for k, v in totals.items()}


class _Kernels:
    """Exclusive kernel time of the events under one ancestor span."""

    def __init__(self, events):
        self.ntt = dict.fromkeys(NTT_SPANS.values(), 0.0)
        bconv = nested_ntt = 0.0
        for ev in events:
            name, path = ev[EV_NAME], ev[EV_PATH]
            ancestors = path[:-1]
            if name in NTT_SPANS:
                if any(a in NTT_SPANS for a in ancestors):
                    continue
                self.ntt[NTT_SPANS[name]] += ev[EV_DUR]
                if any(a in BCONV_SPANS for a in ancestors):
                    nested_ntt += ev[EV_DUR]
            elif name in BCONV_SPANS:
                if not any(a in BCONV_SPANS for a in ancestors):
                    bconv += ev[EV_DUR]
        self.bconv = bconv - nested_ntt

    @property
    def total(self) -> float:
        return sum(self.ntt.values()) + self.bconv


def _under(events, span: str):
    return [ev for ev in events if span in ev[EV_PATH][:-1]]


def _span_total(events, name: str) -> float:
    return sum(ev[EV_DUR] for ev in events if ev[EV_NAME] == name)


def per_layer(*, events, counters, setup_events, requests: int,
              untraced_ms: float, traced_ms: float, workload,
              arch_info: dict, compile_info: dict) -> dict[str, float]:
    """Every per-layer metric by name (``ms`` values are per request
    unless the name says otherwise; counts are per request)."""
    r = float(requests)
    m: dict[str, float] = {}
    request_s = _span_total(events, "bench.request")

    kern = _Kernels(events)
    rows = {k: counters.get(c, 0) / r for k, c in NTT_ROWS.items()}
    ntt_ms = sum(kern.ntt.values()) * 1e3
    for k in ("fwd", "inv", "auto"):
        m[f"nttmath.{k}_ms"] = kern.ntt[k] * 1e3 / r
        m[f"nttmath.{k}_rows"] = rows[k]
    total_rows = sum(rows.values()) * r
    m["nttmath.us_per_row"] = ntt_ms * 1e3 / total_rows if total_rows else 0.0
    m["nttmath.share"] = ntt_ms / 1e3 / request_s
    m["rns.bconv_ms"] = kern.bconv * 1e3 / r
    m["rns.bconv_rows"] = counters.get("bconv.rows", 0) / r
    m["rns.share"] = kern.bconv / request_s

    op_s = kernel_s = 0.0
    for op in SCHEME_OPS:
        span = "bench.schemes." + op
        dur = _span_total(events, span)
        m[f"schemes.{op}_ms"] = dur * 1e3 / r
        op_s += dur
        kernel_s += _Kernels(_under(events, span)).total
    m["schemes.keygen_s"] = workload.setup_detail.get("keygen_s", 0.0)
    m["schemes.self_ms"] = (op_s - kernel_s) * 1e3 / r

    op_s = kernel_s = 0.0
    for op in BATCH_OPS:
        span = "bench.batch." + op
        dur = _span_total(events, span)
        m[f"batch.{op}_ms"] = dur * 1e3 / r
        op_s += dur
        kernel_s += _Kernels(_under(events, span)).total
    m["batch.self_ms"] = (op_s - kernel_s) * 1e3 / r
    fuses = sum(1 for ev in events if ev[EV_NAME] == "batch.fuse")
    m["batch.k_mean"] = counters.get("batch.k", 0) / fuses if fuses else 0.0
    m["batch.rows"] = counters.get("batch.rows", 0) / r

    m["compiler.lower_ms"] = compile_info.get("lower_ms", 0.0)
    for name in COMPILER_PASSES:
        m[f"compiler.{name}_ms"] = compile_info.get("pass_ms", {}).get(
            name, 0.0)
    for key in ("instrs_lowered", "instrs_final", "cse_removed",
                "macs_fused", "spills"):
        m[f"compiler.{key}"] = compile_info.get(key, 0)

    sim_s = arch_info.get("simulate_s", 0.0)
    m["arch.simulate_ms"] = sim_s * 1e3
    m["arch.sim_instrs_per_s"] = (arch_info["sim_instrs"] / sim_s
                                  if sim_s else 0.0)
    m["arch.sim_cycles"] = arch_info.get("cycles", 0)
    m["arch.dram_bytes"] = arch_info.get("dram_bytes", 0)
    predicted = shares(arch_info.get("class_cycles",
                                     dict.fromkeys(OP_CLASSES, 0)))
    for cls in OP_CLASSES:
        m[f"arch.{cls}_cycle_share"] = predicted[cls]

    m["exec_plan.build_ms"] = _span_total(setup_events, "plan.build") * 1e3
    replays = [ev for ev in events if ev[EV_NAME] == "replay"]
    m["exec_plan.replay_ms"] = sum(ev[EV_DUR] for ev in replays) * 1e3 / r
    m["exec_plan.steps"] = sum((ev[EV_ATTRS] or {}).get("steps", 0)
                               for ev in replays) / r
    label_s = {lbl: _span_total(events, "replay." + lbl)
               for lbl in REPLAY_LABELS}
    for lbl in REPLAY_LABELS:
        m[f"exec_plan.replay.{metric_name(lbl)}_ms"] = label_s[lbl] * 1e3 / r
    m["exec_plan.bytes_gathered"] = counters.get("exec.bytes_gathered", 0) / r
    m["exec_plan.bytes_scattered"] = \
        counters.get("exec.bytes_scattered", 0) / r
    by_class = dict.fromkeys(OP_CLASSES, 0.0)
    for lbl, dur in label_s.items():
        by_class[LABEL_CLASS[lbl]] += dur
    executed = shares(by_class)
    for cls in OP_CLASSES:
        m[f"exec_plan.{cls}_wall_share"] = executed[cls]

    m["obs.span_coverage"] = _program_span_s(events) / request_s
    m["obs.trace_overhead_pct"] = (traced_ms - untraced_ms) / untraced_ms * 100
    m["schemes.ckks.precision_bits"] = workload.quality.get(
        "precision_bits", 0.0)
    return m


def _program_span_s(events) -> float:
    """Time under the outermost spans the program itself emits (every
    span not opened by the benchmark)."""
    total = 0.0
    for ev in events:
        if ev[EV_NAME].startswith("bench."):
            continue
        if all(a.startswith("bench.") for a in ev[EV_PATH][:-1]):
            total += ev[EV_DUR]
    return total


def cross_check(arch_info: dict, metrics: dict) -> list[list]:
    """Rows ``[class, predicted cycle share, executed wall share]``;
    empty unless the workload both simulates and replays."""
    if not (arch_info.get("class_cycles")
            and metrics["exec_plan.replay_ms"]):
        return []
    return [[cls, metrics[f"arch.{cls}_cycle_share"],
             metrics[f"exec_plan.{cls}_wall_share"]] for cls in OP_CLASSES]
