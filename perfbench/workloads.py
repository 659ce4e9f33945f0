"""The benchmark workloads.

Each workload drives the stack through its public entry points and
splits into the phases the harness times separately:

* ``setup()`` -- keygen/encryption, or lower + compile + plan build;
  timed as ``setup_s``;
* ``request()`` -- one closed-loop request; timed as latency;
* ``digest(out)`` -- a bitwise fingerprint of a request's output,
  taken outside the timed window;
* ``oracle()`` -- the expected digest and the correctness checks that
  do not depend on the fast path, computed once per run after timing.

Every call into a layer runs under a ``bench.<layer>.<op>`` span opened
from this file, so a traced run can attribute request time to layers
without spans inside the program.  With tracing off the spans are the
tracer's shared no-op context (one branch per call).

Inputs (messages, ciphertext DRAM rows, key randomness) come from the
seed the workload is built with.
"""

from __future__ import annotations

import hashlib
import math
import re
import time

import numpy as np

from repro.obs import TRACER
from repro.obs.core import EV_DUR, EV_NAME

from .layers import cycle_by_class

#: Rotation steps of the CKKS BSGS step (the ROADMAP evaluator point).
STEPS = (1, 2, 3, 4, 6, 8, 12, 16)
#: Ring degree and limb count of every kernel-bearing workload.
N = 4096
LIMBS = 8
#: Ciphertexts fused per op on ``eval-batch8``.
BATCH_K = 8

_CT_ROW = re.compile(r"^[\w-]+\.c[01]\[\d+\]$")


def _span(name: str):
    return TRACER.span("bench." + name)


def _hash_arrays(arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _ct_digest(cts) -> str:
    return _hash_arrays(ct.pair() for ct in cts)


def _precision_bits(got: np.ndarray, want: np.ndarray) -> float:
    err = float(np.max(np.abs(got - want)))
    return -math.log2(err) if err > 0 else 64.0


def _sub_seed(seed: int, tag: int) -> int:
    """A derived 31-bit seed (scheme params take plain ints)."""
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0]
               & 0x7FFFFFFF)


class Workload:
    """Interface the harness drives; see the module docstring."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        #: Timings of setup phases the per-layer report needs.
        self.setup_detail: dict[str, float] = {}
        #: Checks beyond the bitwise digest (e.g. decryptions).
        self.extra_checks: dict[str, bool] = {}
        #: Quality metrics computed by the oracle.
        self.quality: dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def request(self):
        raise NotImplementedError

    def digest(self, out) -> str:
        raise NotImplementedError

    def oracle(self) -> str:
        raise NotImplementedError

    def observe(self, out) -> None:
        """Traced runs: record what the per-layer report needs from a
        request's output (outside the timed window)."""

    def layer_info(self, events, requests: int) -> tuple[dict, dict]:
        """Traced runs: ``(compile_info, arch_info)`` for
        :func:`layers.per_layer`; empty for workloads without a
        compiler or simulator."""
        return {}, {}


# ----------------------------------------------------------------------
# Evaluator workloads
# ----------------------------------------------------------------------
class _CkksSetup:
    """CKKS context, keys and encryptor at n=4096, L=8, dnum=4."""

    def __init__(self, seed: int, timings: dict[str, float]):
        from repro.schemes.ckks import (
            CkksContext,
            CkksEvaluator,
            CkksParams,
            Decryptor,
            Encryptor,
            KeyGenerator,
        )
        params = CkksParams(n=N, levels=LIMBS - 1, dnum=4, scale_bits=25,
                            q0_bits=29, p_bits=30, seed=_sub_seed(seed, 1))
        self.ctx = CkksContext(params)
        t0 = time.perf_counter()
        keygen = KeyGenerator(self.ctx)
        self.sk = keygen.gen_secret()
        pk = keygen.gen_public(self.sk)
        keys = keygen.gen_keychain(self.sk, rotations=list(STEPS))
        timings["keygen_s"] = (timings.get("keygen_s", 0.0)
                               + time.perf_counter() - t0)
        self.keys = keys
        self.enc = Encryptor(self.ctx, pk)
        self.dec = Decryptor(self.ctx, self.sk)
        self.ev = CkksEvaluator(self.ctx, keys)
        self.rng = np.random.default_rng(_sub_seed(seed, 2))

    def message(self) -> np.ndarray:
        slots = self.ctx.params.slots
        return (self.rng.uniform(-1, 1, slots)
                + 1j * self.rng.uniform(-1, 1, slots))

    def encrypt(self, msg):
        return self.enc.encrypt(self.ctx.encode(msg))

    def reference_evaluator(self):
        """The ``stacked=False`` per-polynomial oracle evaluator."""
        return type(self.ev)(self.ctx, self.keys, stacked=False)

    def decrypt(self, ct) -> np.ndarray:
        return self.ctx.decode(self.dec.decrypt(ct))


def _ckks_step(ev, a, b):
    """The CKKS BSGS step: hoisted rotations, sum, multiply, rescale."""
    with _span("schemes.ckks.rotate_hoisted"):
        rots = ev.rotate_hoisted(a, list(STEPS))
    acc = rots[STEPS[0]]
    with _span("schemes.ckks.add"):
        for step in STEPS[1:]:
            acc = ev.add(acc, rots[step])
    with _span("schemes.ckks.multiply"):
        prod = ev.multiply(acc, b)
    with _span("schemes.ckks.rescale"):
        return ev.rescale(prod)


def _ckks_shadow(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Plaintext answer of :func:`_ckks_step`."""
    return sum(np.roll(x, -s) for s in STEPS) * y


class EvalPair(Workload):
    """Single-ciphertext evaluator: a CKKS BSGS step, a BGV squaring
    step (multiply + two modulus switches) and one BFV multiply."""

    name = "eval-pair"

    def setup(self) -> None:
        from repro.schemes.bfv import BfvContext, BfvParams, BfvScheme
        from repro.schemes.bgv import BgvContext, BgvParams, BgvScheme

        timings: dict[str, float] = {}
        ck = self.ckks = _CkksSetup(self.seed, timings)
        self.x, self.y = ck.message(), ck.message()
        self.a, self.b = ck.encrypt(self.x), ck.encrypt(self.y)

        rng = np.random.default_rng(_sub_seed(self.seed, 3))
        bgv_ctx = BgvContext(BgvParams(n=N, q_count=LIMBS, dnum=2, q_bits=28,
                                       seed=_sub_seed(self.seed, 4)))
        self.bgv = BgvScheme(bgv_ctx)
        t0 = time.perf_counter()
        self.bgv_sk = self.bgv.gen_secret()
        self.bgv.gen_relin(self.bgv_sk)
        timings["keygen_s"] += time.perf_counter() - t0
        self.bgv_m = [rng.integers(0, bgv_ctx.t, N) for _ in range(2)]
        self.bx, self.by = (self.bgv.encrypt(m, self.bgv_sk)
                            for m in self.bgv_m)

        bfv_ctx = BfvContext(BfvParams(n=N, q_count=LIMBS, dnum=4, q_bits=28,
                                       seed=_sub_seed(self.seed, 5)))
        self.bfv = BfvScheme(bfv_ctx)
        t0 = time.perf_counter()
        self.bfv_sk = self.bfv.gen_secret()
        self.bfv.gen_relin(self.bfv_sk)
        timings["keygen_s"] += time.perf_counter() - t0
        self.bfv_m = [rng.integers(0, bfv_ctx.t, N) for _ in range(2)]
        self.fx, self.fy = (self.bfv.encrypt(m, self.bfv_sk)
                            for m in self.bfv_m)
        self.setup_detail = timings

    def _run(self, ck_ev, bgv_ev, bfv_ev):
        ck = _ckks_step(ck_ev, self.a, self.b)
        with _span("schemes.bgv.multiply"):
            prod = bgv_ev.multiply(self.bx, self.by)
        with _span("schemes.bgv.mod_switch"):
            bg = bgv_ev.mod_switch(prod, 2)
        with _span("schemes.bfv.multiply"):
            bf = bfv_ev.multiply(self.fx, self.fy)
        return ck, bg, bf

    def request(self):
        return self._run(self.ckks.ev, self.bgv.ev, self.bfv.ev)

    def digest(self, out) -> str:
        return _ct_digest(out)

    def oracle(self) -> str:
        from repro.schemes.bfv import BfvScheme
        from repro.schemes.bgv import BgvScheme

        bgv_ref = BgvScheme(self.bgv.ctx, stacked=False)
        bgv_ref.ev.keys = self.bgv.ev.keys
        bfv_ref = BfvScheme(self.bfv.ctx, stacked=False)
        bfv_ref.ev.keys = self.bfv.ev.keys
        ck, bg, bf = self._run(self.ckks.reference_evaluator(),
                               bgv_ref.ev, bfv_ref.ev)

        got = self.ckks.decrypt(ck)
        self.quality["precision_bits"] = _precision_bits(
            got, _ckks_shadow(self.x, self.y))
        t = self.bgv.ctx.t
        self.extra_checks["bgv_decrypts"] = bool(np.array_equal(
            self.bgv.decrypt(bg, self.bgv_sk),
            self.bgv_m[0] * self.bgv_m[1] % t))
        t = self.bfv.ctx.t
        self.extra_checks["bfv_decrypts"] = bool(np.array_equal(
            self.bfv.decrypt(bf, self.bfv_sk),
            self.bfv_m[0] * self.bfv_m[1] % t))
        return _ct_digest((ck, bg, bf))


class EvalBatch8(Workload):
    """The CKKS step for 8 independent ciphertexts, each op submitted
    as 8 ``BatchRequest`` items through ``execute_batched``."""

    name = "eval-batch8"

    def setup(self) -> None:
        timings: dict[str, float] = {}
        ck = self.ckks = _CkksSetup(self.seed, timings)
        self.xs = [ck.message() for _ in range(BATCH_K)]
        self.ys = [ck.message() for _ in range(BATCH_K)]
        self.as_ = [ck.encrypt(m) for m in self.xs]
        self.bs = [ck.encrypt(m) for m in self.ys]
        self.setup_detail = timings

    def request(self):
        from repro.batch.coalesce import BatchRequest, execute_batched

        ev = self.ckks.ev
        with _span("batch.rotate_hoisted"):
            rots = execute_batched(ev, [BatchRequest("rotate_hoisted", a,
                                                     STEPS)
                                        for a in self.as_])
        acc = [r[STEPS[0]] for r in rots]
        with _span("batch.add"):
            for step in STEPS[1:]:
                acc = execute_batched(ev, [BatchRequest("add", c, r[step])
                                           for c, r in zip(acc, rots)])
        with _span("batch.multiply"):
            prod = execute_batched(ev, [BatchRequest("multiply", c, b)
                                        for c, b in zip(acc, self.bs)])
        with _span("batch.rescale"):
            return execute_batched(ev, [BatchRequest("rescale", c)
                                        for c in prod])

    def digest(self, out) -> str:
        return _ct_digest(out)

    def oracle(self) -> str:
        ref = self.ckks.reference_evaluator()
        outs = [_ckks_step(ref, a, b) for a, b in zip(self.as_, self.bs)]
        self.quality["precision_bits"] = min(
            _precision_bits(self.ckks.decrypt(ct), _ckks_shadow(x, y))
            for ct, x, y in zip(outs, self.xs, self.ys))
        return _ct_digest(outs)


# ----------------------------------------------------------------------
# Compiled-program workloads
# ----------------------------------------------------------------------
def _exec_programs():
    """``(label, builder)`` for the three replayed programs at n=4096,
    L=8 (levels 7), dnum=4."""
    from repro.compiler.lowering import LoweringParams
    from repro.workloads.bfv_dotproduct import build_bfv_dotproduct_program
    from repro.workloads.dblookup import build_dblookup_program
    from repro.workloads.resnet import ResNetShape, build_conv_block

    lp = LoweringParams(n=N, levels=LIMBS - 1, dnum=4, log_q=30)
    shape = ResNetShape(conv_diagonals=8, start_level=LIMBS - 1)
    return [
        ("resnet_conv", lambda: build_conv_block(lp, shape,
                                                 name="conv-block")),
        ("dblookup", lambda: build_dblookup_program(lp, squarings=8)),
        ("bfv_dotproduct", lambda: build_bfv_dotproduct_program(lp)),
    ]


class ExecReplay(Workload):
    """Planned slot-arena replay of three compiled programs."""

    name = "exec-replay"

    def setup(self) -> None:
        from repro.compiler.exec_backend import synthesize_bindings
        from repro.compiler.exec_plan import get_exec_plan
        from repro.compiler.ir import PackedProgram
        from repro.compiler.pipeline import CompileOptions, compile_packed

        rng = np.random.default_rng(_sub_seed(self.seed, 6))
        lower_s = 0.0
        self.programs = []
        for label, build in _exec_programs():
            t0 = time.perf_counter()
            with _span("compiler.lower"):
                program = build()
                packed = PackedProgram.from_program(program)
            lower_s += time.perf_counter() - t0
            with _span("compiler.compile"):
                compiled = compile_packed(packed.copy(), CompileOptions())
            bindings = synthesize_bindings(packed)
            for value in program.values.values():
                if value.origin == "dram" and _CT_ROW.match(value.name):
                    bindings.dram[value.name] = rng.integers(
                        0, 1 << 30, N, dtype=np.int64)
            with _span("exec_plan.build"):
                get_exec_plan(compiled, bindings)
            self.programs.append((label, program, compiled, bindings))
        self.setup_detail = {"lower_s": lower_s}

    def request(self):
        from repro.compiler.exec_backend import execute_packed

        out = []
        for label, _, compiled, bindings in self.programs:
            with _span("exec_plan.replay." + label):
                out.append(execute_packed(compiled, bindings).outputs)
        return out

    @staticmethod
    def _outputs_digest(outputs) -> str:
        return _hash_arrays(arr for outs in outputs
                            for _, arr in sorted(outs.items()))

    def digest(self, out) -> str:
        return self._outputs_digest(out)

    def oracle(self) -> str:
        from repro.compiler.exec_backend import execute_reference

        return self._outputs_digest(
            execute_reference(program, bindings)
            for _, program, _, bindings in self.programs)

    def layer_info(self, events, requests: int) -> tuple[dict, dict]:
        """Compile statistics of the set-up compiles, and one
        simulation of each compiled program for the cost-model
        cross-check."""
        from repro.arch.simulator import simulate
        from repro.core.config import ASIC_EFFACT

        compiled = [cp for _, _, cp, _ in self.programs]
        compile_info = _compile_info([cp.stats for cp in compiled])
        compile_info["instrs_final"] = sum(cp.packed.num_instrs
                                           for cp in compiled)
        compile_info["lower_ms"] = self.setup_detail["lower_s"] * 1e3
        packed = [cp.packed for cp in compiled]
        t0 = time.perf_counter()
        sims = [simulate(p, ASIC_EFFACT) for p in packed]
        arch_info = {"simulate_s": time.perf_counter() - t0,
                     "sim_instrs": sum(s.instructions for s in sims),
                     "cycles": sum(s.cycles for s in sims),
                     "dram_bytes": sum(s.dram_bytes for s in sims),
                     "class_cycles": cycle_by_class(packed, ASIC_EFFACT)}
        return compile_info, arch_info


class CompileSim(Workload):
    """Lower, compile and simulate the paper-scale fully-packed
    bootstrapping on ASIC-EFFACT with no caches.

    Runnable with ``--workload compile-sim`` for the paper-scale
    compiler/simulator layer split, but not listed in BENCHMARK.json:
    it is pure interpreter work (a fifth of it cyclic GC), and on a
    shared 2-vCPU host its run-to-run spread (24-38% of the median
    over ten seeds) exceeded the largest bound the benchmark may set.
    The compiler passes and the simulator stay measured on
    ``exec-replay``.
    """

    name = "compile-sim"

    def setup(self) -> None:
        """One cold lowering of the bootstrapping program (each request
        lowers afresh; this is what a first request would pay extra)."""
        from repro.workloads.bootstrap_workload import bootstrap_workload

        for seg in bootstrap_workload().segments:
            seg.packed_template()

    def request(self):
        from repro.core.config import ASIC_EFFACT
        from repro.workloads.base import run_workload
        from repro.workloads.bootstrap_workload import bootstrap_workload

        wl = bootstrap_workload()
        with _span("compiler.lower"):
            for seg in wl.segments:
                seg.packed_template()
        with _span("compiler.run_workload"):
            return run_workload(wl, ASIC_EFFACT, use_cache=False)

    def digest(self, out) -> str:
        fps = ",".join(cp.packed.fingerprint() for cp in out.compiled)
        return f"{fps}|cycles={out.cycles}"

    def oracle(self) -> str:
        """A verified compile: the ``compiler.verify`` suites run as
        pipeline stages and raise on any diagnostic; its fingerprint and
        cycles must equal every timed request's."""
        from repro.compiler.pipeline import CompileOptions
        from repro.compiler.verify import VerifyError
        from repro.core.config import ASIC_EFFACT
        from repro.workloads.base import run_workload
        from repro.workloads.bootstrap_workload import bootstrap_workload

        options = CompileOptions(sram_bytes=ASIC_EFFACT.sram_bytes,
                                 verify=True)
        try:
            run = run_workload(bootstrap_workload(), ASIC_EFFACT, options,
                               use_cache=False)
        except VerifyError:
            self.extra_checks["verify_suites"] = False
            return ""
        self.extra_checks["verify_suites"] = True
        self.quality["predicted_ms"] = run.runtime_ms
        return self.digest(run)

    def observe(self, out) -> None:
        if not hasattr(self, "_runs"):
            self._runs = []
            # Every request compiles the same program (the digests prove
            # it), so the op mix of the first is the op mix of all.
            self._class_cycles = cycle_by_class(
                [cp.packed for cp in out.compiled], out.config)
        self._runs.append((
            [cp.stats for cp in out.compiled],
            [cp.packed.num_instrs for cp in out.compiled],
            out.cycles, out.dram_bytes))

    def layer_info(self, events, requests: int) -> tuple[dict, dict]:
        stats, instrs, cycles, dram = self._runs[0]
        per_run = [_compile_info(s)["pass_ms"] for s, *_ in self._runs]
        compile_info = _compile_info(stats)
        compile_info["instrs_final"] = sum(instrs)
        compile_info["pass_ms"] = {
            name: sum(p[name] for p in per_run) / len(per_run)
            for name in per_run[0]}
        compile_info["lower_ms"] = sum(
            ev[EV_DUR] for ev in events
            if ev[EV_NAME] == "bench.compiler.lower") * 1e3 / requests
        sim_s = sum(ev[EV_DUR] for ev in events
                    if ev[EV_NAME] == "sim.scoreboard") / requests
        arch_info = {"simulate_s": sim_s, "sim_instrs": sum(instrs),
                     "cycles": cycles, "dram_bytes": dram,
                     "class_cycles": self._class_cycles}
        return compile_info, arch_info


def _compile_info(stats_list) -> dict:
    """Compiler counts summed over programs, and per-pass wall time in
    ms (from ``CompileStats.pass_records``)."""
    pass_ms: dict[str, float] = {}
    for stats in stats_list:
        for rec in stats.pass_records:
            pass_ms[rec.name] = pass_ms.get(rec.name, 0.0) + rec.wall_s * 1e3
    return {
        "pass_ms": pass_ms,
        "instrs_lowered": sum(s.instrs_before_opt for s in stats_list),
        "cse_removed": sum(s.cse_removed for s in stats_list),
        "macs_fused": sum(s.macs_fused for s in stats_list),
        "spills": sum(s.alloc.spill_stores for s in stats_list),
    }



WORKLOADS = {cls.name: cls
             for cls in (EvalPair, EvalBatch8, ExecReplay, CompileSim)}
