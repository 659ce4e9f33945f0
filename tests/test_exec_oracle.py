"""Bitwise cross-checks of the execution backend against the evaluator.

The exec backend runs compiled PackedPrograms against the batched NTT
engine; :class:`repro.schemes.rns_core.RnsEvaluatorBase` runs the same
homomorphic circuits natively.  Both are exact modular arithmetic over
the same prime chain, so their outputs must agree *bitwise* — any
difference is a bug in the lowering, an optimization pass, the
scheduler/allocator, or the interpreter itself.  Every execution runs
once per implementation of the native kernel library (the C replay and
NTT kernels, then numpy; :func:`execute_each`).

The workload-shaped programs (bfv_dotproduct, dblookup, the ResNet
conv block) are rebuilt inline so the test holds the ciphertext
handles, then fingerprint-pinned to the registered builders — proving
the instruction stream executed here is the registered workload's.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.compiler.exec_backend import (
    ExecBindings,
    execute_packed,
    execute_reference,
)
from repro.compiler.ir import PackedProgram
from repro.compiler.lowering import CtHandle, HeLowering, LoweringParams
from repro.compiler.pipeline import CompileOptions, compile_packed
from repro.rns.poly import RnsPolynomial
from repro.schemes.ckks import (
    CkksContext,
    CkksEvaluator,
    CkksParams,
    KeyGenerator,
)
from repro.schemes.rns_core import Ciphertext, Plaintext
from repro.workloads.bfv_dotproduct import build_bfv_dotproduct_program
from repro.workloads.dblookup import build_dblookup_program
from repro.workloads.resnet import ResNetShape, build_conv_block

N = 256
LEVELS = 7
DNUM = 4
LP = LoweringParams(n=N, levels=LEVELS, dnum=DNUM, log_q=30)

#: Every rotation step used by any circuit below.
ROTATIONS = (1, 2, 3, 4, 5, 8, 16, 32, 64)


class OracleEvaluator(CkksEvaluator):
    """Scale tracking is float bookkeeping, irrelevant to the residue
    dataflow being compared; the IR has no notion of scale at all."""

    def _check_scales(self, a: float, b: float) -> None:
        pass


@pytest.fixture(scope="module")
def oracle():
    params = CkksParams(n=N, levels=LEVELS, dnum=DNUM, q0_bits=30,
                        scale_bits=28, p_bits=30, seed=7)
    ctx = CkksContext(params)
    keygen = KeyGenerator(ctx)
    sk = keygen.gen_secret()
    keys = keygen.gen_keychain(sk, rotations=ROTATIONS)
    ev = OracleEvaluator(ctx, keys)
    rng = np.random.default_rng(0xE77EC)
    return ctx, ev, keys, rng


# ----------------------------------------------------------------------
# Helpers: random operands, bindings, execution, comparison
# ----------------------------------------------------------------------
def rand_poly(ctx, rng, level: int) -> RnsPolynomial:
    basis = ctx.q_basis(level)
    high = np.array(basis.primes, dtype=np.int64)[:, None]
    data = rng.integers(0, high, size=(len(basis), ctx.n), dtype=np.int64)
    return RnsPolynomial(basis, data, is_ntt=True)


def rand_ct(ctx, rng, level: int) -> Ciphertext:
    return Ciphertext(c0=rand_poly(ctx, rng, level),
                      c1=rand_poly(ctx, rng, level), scale=1.0)


def bind_ct(dram: dict, name: str, ct: Ciphertext) -> None:
    for j in range(len(ct.basis)):
        dram[f"{name}.c0[{j}]"] = ct.c0.data[j]
        dram[f"{name}.c1[{j}]"] = ct.c1.data[j]


def bind_key(dram: dict, name: str, key) -> None:
    for j, (b, a) in enumerate(zip(key.b, key.a)):
        for i in range(b.data.shape[0]):
            dram[f"{name}.b[{j}][{i}]"] = b.data[i]
            dram[f"{name}.a[{j}][{i}]"] = a.data[i]


def bind_pt(dram: dict, name: str, pt: Plaintext) -> None:
    for j in range(pt.poly.data.shape[0]):
        dram[f"{name}[{j}]"] = pt.poly.data[j]


def execute_each(compiled, bindings, impls):
    """``execute_packed`` once per native-library implementation
    (``impls`` is the ``each_impl`` fixture); every run must give the
    same output bits, and the first run's result is returned."""
    results = []
    for impl in impls():
        results.append((impl, execute_packed(compiled, bindings)))
    (_, first), *rest = results
    for impl, result in rest:
        assert set(result.outputs) == set(first.outputs)
        for vid, row in first.outputs.items():
            np.testing.assert_array_equal(result.outputs[vid], row,
                                          err_msg=f"{impl}: output {vid}")
    return first


def run_ir(ctx, program, dram, impls,
           options: CompileOptions | None = None):
    packed = PackedProgram.from_program(program)
    compiled = compile_packed(packed, options or CompileOptions())
    bindings = ExecBindings(ctx.q_full.primes, ctx.p_basis.primes,
                            ctx.n, dram=dram, strict=True)
    return execute_each(compiled, bindings, impls)


def assert_ct_equal(result, handle: CtHandle, ct: Ciphertext) -> None:
    assert len(handle.c0) == len(ct.basis)
    for j, vid in enumerate(handle.c0):
        np.testing.assert_array_equal(result.outputs[vid], ct.c0.data[j],
                                      err_msg=f"c0 limb {j}")
    for j, vid in enumerate(handle.c1):
        np.testing.assert_array_equal(result.outputs[vid], ct.c1.data[j],
                                      err_msg=f"c1 limb {j}")


# ----------------------------------------------------------------------
# CKKS primitives at two levels each
# ----------------------------------------------------------------------
@pytest.mark.parametrize("level,step", [(LEVELS, 3), (5, 5)])
def test_rotate_matches_evaluator(oracle, level, step, each_impl):
    ctx, ev, keys, rng = oracle
    low = HeLowering(LP, "rot")
    x = low.fresh_ciphertext(level, "x")
    out = low.rotate(x, step)
    program = low.finish(out)

    ct = rand_ct(ctx, rng, level)
    dram: dict = {}
    bind_ct(dram, "x", ct)
    bind_key(dram, f"galois[{step}]", keys.galois[step])

    result = run_ir(ctx, program, dram, each_impl)
    assert_ct_equal(result, out, ev.rotate(ct, step))


@pytest.mark.parametrize("level", [LEVELS, 4])
def test_multiply_rescale_matches_evaluator(oracle, level, each_impl):
    ctx, ev, keys, rng = oracle
    low = HeLowering(LP, "mul")
    x = low.fresh_ciphertext(level, "x")
    y = low.fresh_ciphertext(level, "y")
    relin = low.switching_key("relin")
    out = low.rescale(low.hmult(x, y, relin))
    program = low.finish(out)

    cx = rand_ct(ctx, rng, level)
    cy = rand_ct(ctx, rng, level)
    dram: dict = {}
    bind_ct(dram, "x", cx)
    bind_ct(dram, "y", cy)
    bind_key(dram, "relin", keys.relin)

    result = run_ir(ctx, program, dram, each_impl)
    assert_ct_equal(result, out, ev.rescale(ev.multiply(cx, cy)))


def test_conjugate_matches_evaluator(oracle, each_impl):
    ctx, ev, keys, rng = oracle
    low = HeLowering(LP, "conj")
    x = low.fresh_ciphertext(6, "x")
    out = low.conjugate(x)
    program = low.finish(out)

    ct = rand_ct(ctx, rng, 6)
    dram: dict = {}
    bind_ct(dram, "x", ct)
    bind_key(dram, "conjugation", keys.conjugation)

    result = run_ir(ctx, program, dram, each_impl)
    assert_ct_equal(result, out, ev.conjugate(ct))


# ----------------------------------------------------------------------
# Registered workload circuits
# ----------------------------------------------------------------------
def test_bfv_dotproduct_matches_evaluator(oracle, each_impl):
    """The registered bfv_dotproduct circuit, executed end to end.

    The circuit is scheme-generic residue arithmetic (one HMULT, a
    rotate-and-add tree, one conjugation), so the generic evaluator is
    its oracle; the inline rebuild is fingerprint-pinned to the
    registered builder.
    """
    ctx, ev, keys, rng = oracle
    low = HeLowering(LP, "bfv_dot")
    relin = low.switching_key("relin")
    x = low.fresh_ciphertext(LP.levels, "x")
    y = low.fresh_ciphertext(LP.levels, "y")
    out = low.hmult(x, y, relin)
    for k in range(int(math.log2(LP.n)) - 1):
        out = low.hadd(out, low.rotate(out, 1 << k))
    out = low.hadd(out, low.conjugate(out))
    program = low.finish(out)
    assert (PackedProgram.from_program(program).fingerprint()
            == PackedProgram.from_program(
                build_bfv_dotproduct_program(LP)).fingerprint())

    cx = rand_ct(ctx, rng, LP.levels)
    cy = rand_ct(ctx, rng, LP.levels)
    dram: dict = {}
    bind_ct(dram, "x", cx)
    bind_ct(dram, "y", cy)
    bind_key(dram, "relin", keys.relin)
    for k in range(int(math.log2(LP.n)) - 1):
        bind_key(dram, f"galois[{1 << k}]", keys.galois[1 << k])
    bind_key(dram, "conjugation", keys.conjugation)

    ct = ev.multiply(cx, cy)
    for k in range(int(math.log2(LP.n)) - 1):
        ct = ev.add(ct, ev.rotate(ct, 1 << k))
    expected = ev.add(ct, ev.conjugate(ct))

    result = run_ir(ctx, program, dram, each_impl)
    assert_ct_equal(result, out, expected)


def test_dblookup_matches_evaluator(oracle, each_impl):
    """The registered dblookup circuit (2 squaring rounds for speed)."""
    ctx, ev, keys, rng = oracle
    squarings = 2
    low = HeLowering(LP, "dblookup")
    relin = low.switching_key("relin")
    out = low.fresh_ciphertext(LP.levels, "keys")
    for _ in range(squarings):
        out = low.hmult(out, out, relin)
    payload = low.fresh_plaintext(out.level, "payload")
    out = low.mult_plain(out, payload)
    for k in range(int(math.log2(LP.n)) - 1):
        out = low.hadd(out, low.rotate(out, 1 << k))
    program = low.finish(out)
    assert (PackedProgram.from_program(program).fingerprint()
            == PackedProgram.from_program(build_dblookup_program(
                LP, squarings=squarings)).fingerprint())

    ct = rand_ct(ctx, rng, LP.levels)
    pt = Plaintext(poly=rand_poly(ctx, rng, LP.levels), scale=1.0)
    dram: dict = {}
    bind_ct(dram, "keys", ct)
    bind_pt(dram, "payload", pt)
    bind_key(dram, "relin", keys.relin)
    for k in range(int(math.log2(LP.n)) - 1):
        bind_key(dram, f"galois[{1 << k}]", keys.galois[1 << k])

    expected = ct
    for _ in range(squarings):
        expected = ev.multiply(expected, expected)
    expected = ev.multiply_plain(expected, pt)
    for k in range(int(math.log2(LP.n)) - 1):
        expected = ev.add(expected, ev.rotate(expected, 1 << k))

    result = run_ir(ctx, program, dram, each_impl)
    assert_ct_equal(result, out, expected)


def _mirror_matmul(ev, keys, ct, diag_count, pts):
    """Evaluator-side mirror of HeLowering.matmul_bsgs (same BSGS
    split, hoisted baby steps, giant-step rotations, final rescale)."""
    n1 = max(1, 2 ** round(math.log2(math.sqrt(diag_count))))
    n2 = math.ceil(diag_count / n1)
    rotated = ev.rotate_hoisted(ct, list(range(n1)))
    result = None
    produced = 0
    for b in range(n2):
        inner = None
        for k in range(n1):
            if produced >= diag_count:
                break
            produced += 1
            term = ev.multiply_plain(rotated[k], pts[(b, k)])
            inner = term if inner is None else ev.add(inner, term)
        if inner is None:
            break
        if b > 0:
            inner = ev.rotate(inner, b * n1)
        result = inner if result is None else ev.add(result, inner)
    return ev.rescale(result)


def test_resnet_conv_block_matches_evaluator(oracle, each_impl):
    """The registered ResNet conv block: two (matmul_bsgs -> square ->
    residual add) layers, spanning four levels of the chain."""
    ctx, ev, keys, rng = oracle
    shape = ResNetShape(conv_diagonals=6, start_level=LEVELS)
    name = "conv-block"
    low = HeLowering(LP, name)
    relin = low.switching_key("relin")
    out = low.fresh_ciphertext(shape.start_level, "act")
    for layer in range(2):
        out = low.matmul_bsgs(out, shape.conv_diagonals,
                              name=f"{name}.conv{layer}")
        sq = low.rescale(low.hmult(out, out, relin))
        skip = CtHandle(c0=out.c0[:sq.level + 1],
                        c1=out.c1[:sq.level + 1], level=sq.level)
        out = low.hadd(sq, skip)
    program = low.finish(out)
    assert (PackedProgram.from_program(program).fingerprint()
            == PackedProgram.from_program(
                build_conv_block(LP, shape, name=name)).fingerprint())

    n1 = max(1, 2 ** round(math.log2(math.sqrt(shape.conv_diagonals))))
    n2 = math.ceil(shape.conv_diagonals / n1)
    ct = rand_ct(ctx, rng, shape.start_level)
    dram: dict = {}
    bind_ct(dram, "act", ct)
    bind_key(dram, "relin", keys.relin)
    for step in list(range(1, n1)) + [b * n1 for b in range(1, n2)]:
        bind_key(dram, f"galois[{step}]", keys.galois[step])
    pts: dict = {}
    expected = ct
    for layer in range(2):
        produced = 0
        layer_pts = {}
        for b in range(n2):
            for k in range(n1):
                if produced >= shape.conv_diagonals:
                    break
                produced += 1
                pt = Plaintext(poly=rand_poly(ctx, rng, expected.level),
                               scale=1.0)
                layer_pts[(b, k)] = pt
                bind_pt(dram, f"{name}.conv{layer}.diag[{b}][{k}]", pt)
        expected = _mirror_matmul(ev, keys, expected,
                                  shape.conv_diagonals, layer_pts)
        sq = ev.rescale(ev.multiply(expected, expected))
        expected = ev.add(sq, ev.drop_level(expected, sq.level))

    result = run_ir(ctx, program, dram, each_impl)
    assert_ct_equal(result, out, expected)


# ----------------------------------------------------------------------
# The backend under compiler stress: spills and pass toggles
# ----------------------------------------------------------------------
def test_exec_bitwise_under_spills_and_pass_toggles(oracle, each_impl):
    """Spilling allocation and optimization toggles must not change a
    single output bit relative to the evaluator."""
    ctx, ev, keys, rng = oracle
    low = HeLowering(LP, "stress")
    x = low.fresh_ciphertext(LEVELS, "x")
    y = low.fresh_ciphertext(LEVELS, "y")
    relin = low.switching_key("relin")
    out = low.rescale(low.hmult(x, y, relin))
    program = low.finish(out)

    cx = rand_ct(ctx, rng, LEVELS)
    cy = rand_ct(ctx, rng, LEVELS)
    dram: dict = {}
    bind_ct(dram, "x", cx)
    bind_ct(dram, "y", cy)
    bind_key(dram, "relin", keys.relin)
    expected = ev.rescale(ev.multiply(cx, cy))

    spilly = CompileOptions(sram_bytes=N * 8 * 14)
    compiled = compile_packed(PackedProgram.from_program(program), spilly)
    assert compiled.stats.alloc.spill_stores > 0, \
        "test needs the spill path exercised; shrink sram_bytes"
    bindings = ExecBindings(ctx.q_full.primes, ctx.p_basis.primes,
                            ctx.n, dram=dram, strict=True)
    assert_ct_equal(execute_each(compiled, bindings, each_impl), out,
                    expected)

    for options in (CompileOptions(code_opt=False, mac_fusion=False),
                    CompileOptions(mac_fusion=False),
                    CompileOptions(streaming=False)):
        result = run_ir(ctx, program, dict(dram), each_impl, options)
        assert_ct_equal(result, out, expected)


def test_reference_interpreter_agrees_with_packed(oracle, each_impl):
    """The naive list-IR interpreter (the fuzzer's second oracle) must
    agree with the vectorized dispatcher on an uncompiled program."""
    ctx, ev, keys, rng = oracle
    low = HeLowering(LP, "ref")
    x = low.fresh_ciphertext(5, "x")
    out = low.rotate(x, 3)
    program = low.finish(out)

    ct = rand_ct(ctx, rng, 5)
    dram: dict = {}
    bind_ct(dram, "x", ct)
    bind_key(dram, "galois[3]", keys.galois[3])
    bindings = ExecBindings(ctx.q_full.primes, ctx.p_basis.primes,
                            ctx.n, dram=dram, strict=True)

    ref = execute_reference(program, bindings)
    packed = execute_each(
        compile_packed(PackedProgram.from_program(program),
                       CompileOptions()), bindings, each_impl)
    assert set(ref) == set(packed.outputs)
    for vid in ref:
        np.testing.assert_array_equal(ref[vid], packed.outputs[vid])
    expected = ev.rotate(ct, 3)
    assert_ct_equal(packed, out, expected)
