"""Whole-plan native replay against its numpy steps and the oracle.

``replay_steps`` (``nttmath/native/ntt.c``) runs a compiled plan's
elementwise, FFT, copy, DRAM and fill steps over the slot arena from
flat per-plan tables.  Each of its steps must equal the numpy body of
:func:`repro.compiler.exec_plan._exec_step` bit for bit on *every*
int64 input (wrapping products and sums, numpy's floor modulo, the
reducing NTT entries of :class:`~repro.nttmath.batched.BatchedNTT`),
not only on the canonical residues a plan produces.  The step tests run
one hand-built step as a one-step plan on two copies of one arena: once
as replay runs it, once with the library forced unavailable, which runs
the numpy oracle.  A step that breaks the lane-table rule (a row both
read and written, a row outside the arena, a modulus past the fused
NTT bound) must take the numpy path and give the same result, or the
same ``IndexError``; a table the kernel is handed directly must be
refused without a write.  The plan tests replay whole compiled
programs: C, numpy step by step and :func:`execute_reference` agree,
over sub-ranges too and around a step C leaves to numpy.
"""

from __future__ import annotations

import gc
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import obs
from repro.compiler import exec_plan
from repro.compiler.exec_backend import (
    ExecBindings,
    execute_packed,
    execute_reference,
    synthesize_bindings,
)
from repro.compiler.exec_plan import (
    K_COPY,
    K_DRAM,
    K_EW,
    K_FFT,
    K_FILL,
    ExecPlan,
    PlanStep,
    _fft_tables,
    _replay_steps,
    _replay_table,
    get_exec_plan,
    plan_from_payload,
    plan_to_payload,
)
from repro.compiler.ir import Opcode, PackedProgram, Program
from repro.compiler.lowering import LoweringParams
from repro.compiler.pipeline import CompileOptions, compile_packed
from repro.nttmath import native
from repro.nttmath.batched import get_plan, ntt_automorphism_index
from repro.nttmath.ntt import conjugation_element, galois_element
from repro.nttmath.primes import find_ntt_primes
from repro.workloads.bfv_dotproduct import build_bfv_dotproduct_program
from repro.workloads.dblookup import build_dblookup_program
from repro.workloads.resnet import ResNetShape, build_conv_block

from test_exec_fuzz import SEEDS, VARIANTS, random_program
from tiny_ir import TINY_SRAM, tiny_builder

N = 32
ROWS = 16
INT64_MIN = int(np.iinfo(np.int64).min)
INT64_MAX = int(np.iinfo(np.int64).max)
Q_MAX = 2 ** 31 - 1
#: Values that stress wrapping and the reduction's sign handling.
EXTREMES = np.array([INT64_MIN, INT64_MIN + 1, INT64_MAX, -1, 0, 1,
                     Q_MAX, Q_MAX + 1, -Q_MAX, 1 << 62, -(1 << 62)],
                    dtype=np.int64)

#: ``(nsrc, mode)`` of every elementwise step kind: MAC, and multiply,
#: add or per-lane masked mix with a row or an immediate operand.
EW_KINDS = [(3, "mac")] + [(nsrc, mode) for nsrc in (2, 1)
                           for mode in ("mul", "add", "masked")]

HYPO = settings(max_examples=30, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture
def lib():
    library = native.kernel()
    if library is None:
        pytest.skip("native kernels unavailable here")
    return library


def _values(rng, shape) -> np.ndarray:
    """Random int64 over the whole range, a quarter of them extremes
    and a quarter small values of either sign (some of them >= q)."""
    out = rng.integers(INT64_MIN, INT64_MAX, size=shape, dtype=np.int64,
                       endpoint=True)
    pick = rng.random(shape)
    extreme = pick < 0.25
    out[extreme] = rng.choice(EXTREMES, size=int(extreme.sum()))
    small = pick > 0.75
    out[small] = rng.integers(-2 * Q_MAX, 2 * Q_MAX, size=int(small.sum()))
    return out


def _moduli(rng, k: int, high: int = Q_MAX) -> np.ndarray:
    q = rng.integers(1, high, size=k, endpoint=True)
    edges = [1, 2, high][:k]
    q[:len(edges)] = edges
    return rng.permutation(q).astype(np.int64)


def _ew_step(rng, nsrc: int, mode: str, k: int = 5,
             high: int = Q_MAX) -> PlanStep:
    """A K_EW step writing ``k`` distinct rows from the other rows
    (sources may repeat, so ``a == b`` squares a row)."""
    rows = rng.permutation(ROWS).astype(np.int64)
    srcs = rows[k:]
    st = PlanStep(K_EW, mode, n_instrs=k)
    st.nsrc = nsrc
    st.out = rows[:k]
    st.a = rng.choice(srcs, k)
    if nsrc >= 2:
        st.b = rng.choice(srcs, k)
    if nsrc == 3:
        st.c = rng.choice(srcs, k)
    st.q_col = _moduli(rng, k, high).reshape(k, 1)
    if nsrc == 1:
        st.imm_col = _values(rng, (k, 1))
    if mode == "masked":
        st.mask = (np.arange(k) % 2 == 0).reshape(k, 1)
    elif nsrc < 3:
        st.mul = mode == "mul"
    return st


def _plan_of(*steps: PlanStep, n: int = N) -> ExecPlan:
    """A plan of hand-built steps over a ``ROWS``-row arena."""
    plan = ExecPlan(n)
    plan.steps = list(steps)
    plan.arena_rows = ROWS
    return plan


def _native(plan: ExecPlan, index: int = 0) -> bool:
    """Whether the plan's replay table gives step ``index`` to C."""
    return bool(plan._table.steps[index, 0] != exec_plan._K_NUMPY)


def _run_both(plan: ExecPlan, arena: np.ndarray, monkeypatch,
              bindings=None) -> tuple[np.ndarray, np.ndarray]:
    """The arena after the plan's steps as replay runs them, and after
    the numpy oracle."""
    got = arena.copy()
    _replay_steps(plan, got, bindings)
    want = arena.copy()
    with monkeypatch.context() as m:
        m.setattr(native, "_LIB", None)
        _replay_steps(plan, want, bindings)
    return got, want


def _one_step(lib, arena, kind, arg, lanes, *, aux=0, q=None, tw=None,
              perms=None, src=None, k=None, off=0) -> int:
    """``replay_steps`` over a hand-built one-step table: 1 when it ran
    the step, 0 when it refused it."""
    flat = np.ascontiguousarray(lanes, dtype=np.int64).ravel()
    k = len(lanes) if k is None else k
    steps = np.array([[kind, arg, k, off, aux]], dtype=np.int64)
    q = np.zeros(0, np.uint64) if q is None else q
    tw = np.zeros((0, 4, N), np.uint32) if tw is None else tw
    perms = np.zeros((0, N), np.int64) if perms is None else perms
    src = np.zeros(0, np.uintp) if src is None else src
    return lib.replay_steps(arena, arena.shape[0], N, steps, 1, flat,
                            flat.size, q, tw, q.size, perms, len(perms),
                            src, src.size, 0, 1)


# ----------------------------------------------------------------------
# Elementwise steps
# ----------------------------------------------------------------------
@pytest.mark.parametrize("nsrc,mode", EW_KINDS)
@given(seed=st.integers(0, 2 ** 32 - 1))
@HYPO
def test_ew_step_equals_numpy_on_any_int64(lib, monkeypatch, nsrc, mode,
                                           seed):
    rng = np.random.default_rng(seed)
    plan = _plan_of(_ew_step(rng, nsrc, mode))
    got, want = _run_both(plan, _values(rng, (ROWS, N)), monkeypatch)
    assert _native(plan), "the kernel did not run"
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("nsrc,mode", EW_KINDS)
def test_ew_step_equals_numpy_for_moduli_up_to_2_63(lib, monkeypatch,
                                                    nsrc, mode):
    """The Barrett path holds for every q the lane table admits, not
    only the 31-bit primes of real plans."""
    rng = np.random.default_rng(63)
    step = _ew_step(rng, nsrc, mode, k=6, high=INT64_MAX)
    step.q_col[:3, 0] = [INT64_MAX, (1 << 62) + 1, 3 << 61]
    plan = _plan_of(step)
    got, want = _run_both(plan, _values(rng, (ROWS, N)), monkeypatch)
    assert _native(plan)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("column,value", [
    (0, ROWS), (1, -1), (2, ROWS + 7),       # rows outside the arena
    (0, 1),                                  # out row == a row
    (4, 0),                                  # q below 1
])
def test_ew_step_rejects_a_bad_lane_without_writing(lib, column, value):
    arena = np.arange(ROWS * N, dtype=np.int64).reshape(ROWS, N)
    before = arena.copy()
    lanes = np.array([[2, 3, 4, 0, 97, 0], [5, 1, 6, 1, 97, 0]],
                     dtype=np.int64)
    assert _one_step(lib, arena.copy(), K_EW, 2, lanes) == 1
    lanes[1, column] = value
    assert _one_step(lib, arena, K_EW, 2, lanes) == 0
    assert _one_step(lib, arena, K_EW, 4, lanes[:1]) == 0   # bad nsrc
    np.testing.assert_array_equal(arena, before)


def test_ew_step_with_a_read_write_overlap_takes_numpy(lib, monkeypatch):
    """Lane 1 reads the row lane 0 writes: numpy reads it before any
    write, a lane-by-lane kernel would read the new value."""
    rng = np.random.default_rng(1)
    step = _ew_step(rng, 2, "mul")
    step.a = step.a.copy()
    step.a[1] = step.out[0]
    plan = _plan_of(step)
    got, want = _run_both(plan, _values(rng, (ROWS, N)), monkeypatch)
    assert not _native(plan)
    np.testing.assert_array_equal(got, want)
    # Handed to the kernel anyway, the step is refused.
    lanes = exec_plan._ew_lanes(step, 1 << 20)
    assert lanes is False
    raw = np.zeros((len(step.out), 6), dtype=np.int64)
    raw[:, 0], raw[:, 1], raw[:, 2] = step.out, step.a, step.b
    raw[:, 3], raw[:, 4] = 1, 97
    arena = _values(rng, (ROWS, N))
    before = arena.copy()
    assert _one_step(lib, arena, K_EW, 2, raw) == 0
    np.testing.assert_array_equal(arena, before)


@pytest.mark.parametrize("field", ["out", "a", "b", "c"])
def test_ew_step_with_an_out_of_arena_row_raises_as_numpy(lib, field):
    rng = np.random.default_rng(2)
    step = _ew_step(rng, 3, "mac")
    rows = getattr(step, field).copy()
    rows[0] = ROWS + 3
    setattr(step, field, rows)
    plan = _plan_of(step)
    with pytest.raises(IndexError):
        _replay_steps(plan, _values(rng, (ROWS, N)), None)
    assert not _native(plan)


def test_ew_step_with_a_negative_row_takes_numpy(lib, monkeypatch):
    """numpy reads row -1 as the last row; the kernel must not run."""
    rng = np.random.default_rng(3)
    step = _ew_step(rng, 1, "add", k=2)
    step.out = np.array([0, 1], dtype=np.int64)
    step.a = np.array([-1, 2], dtype=np.int64)
    plan = _plan_of(step)
    got, want = _run_both(plan, _values(rng, (ROWS, N)), monkeypatch)
    assert not _native(plan)
    np.testing.assert_array_equal(got, want)


# ----------------------------------------------------------------------
# DRAM steps
# ----------------------------------------------------------------------
def _dram_step(names, qs, rows) -> PlanStep:
    step = PlanStep(K_DRAM, "load-dram", n_instrs=len(names))
    step.out, step.names, step.qs = list(rows), list(names), list(qs)
    return step


def test_dram_rows_equal_numpy_for_any_binding(lib, monkeypatch):
    """int64 rows (read in place, extremes included, read-only too) and
    a missing name (synthesized and bound) run in C; a step that also
    binds other dtypes, strided views or lists runs numpy whole."""
    rng = np.random.default_rng(4)
    strided = _values(rng, (2 * N,))[::2]
    frozen = _values(rng, (N,))
    frozen.flags.writeable = False
    dram = {
        "i64": _values(rng, (N,)),
        "frozen": frozen,
        "i32": rng.integers(-2 ** 31, 2 ** 31 - 1, N, dtype=np.int32),
        "u64": rng.integers(0, 2 ** 64 - 1, N, dtype=np.uint64,
                            endpoint=True),
        "strided": strided,
        "list": [int(v) for v in _values(rng, (N,))],
    }
    assert not strided.flags.c_contiguous
    bindings = ExecBindings([97, Q_MAX], [], N, dram=dram)
    rows = rng.permutation(ROWS)
    in_place = _dram_step(["i64", "frozen", "missing", "i64"],
                          [97, Q_MAX, 97, 1], rows[:4])
    mixed = _dram_step(["i32", "u64", "strided", "list", "missing"],
                       [97, Q_MAX, 97, Q_MAX, Q_MAX], rows[4:9])
    plan = _plan_of(in_place, mixed)
    got, want = _run_both(plan, _values(rng, (ROWS, N)), monkeypatch,
                          bindings)
    assert _native(plan, 0) and _native(plan, 1)   # both have tables
    table = plan._table
    src = dict(zip(table.names, table.sources(bindings, got)))
    assert all(src[nm] for nm in ("i64", "frozen", "missing"))
    assert not any(src[nm] for nm in ("i32", "u64", "strided", "list"))
    assert "missing" in bindings.dram
    np.testing.assert_array_equal(got, want)


def test_dram_rows_strict_missing_name_raises(lib, monkeypatch):
    bindings = ExecBindings([97], [], N, dram={"x": np.arange(N)},
                            strict=True)
    plan = _plan_of(_dram_step(["x", "absent"], [97, 97], [0, 1]))
    for forced in (False, True):
        with monkeypatch.context() as m:
            if forced:
                m.setattr(native, "_LIB", None)
            with pytest.raises(KeyError, match="absent"):
                _replay_steps(plan, np.zeros((ROWS, N), np.int64),
                              bindings)


def test_dram_binding_inside_the_arena_takes_numpy(lib, monkeypatch):
    """A binding that views an arena row the same step writes: numpy
    reads it in row order, which the whole step then keeps."""
    rng = np.random.default_rng(5)
    arena = _values(rng, (ROWS, N))
    ext = _values(rng, (N,))
    plan = _plan_of(_dram_step(["ext", "own"], [97, 97], [3, 4]))
    results = []
    for forced in (False, True):
        work = arena.copy()
        bindings = ExecBindings([97], [], N,
                                dram={"own": work[3], "ext": ext})
        with monkeypatch.context() as m:
            if forced:
                m.setattr(native, "_LIB", None)
            _replay_steps(plan, work, bindings)
            if not forced:
                src = plan._table.sources(bindings, work)
                assert src.tolist() == [native.address(ext), 0]
        results.append(work)
    assert _native(plan)       # the table runs it; the binding does not
    np.testing.assert_array_equal(*results)


def test_dram_sources_follow_rebound_arrays(lib):
    """Cached addresses are reused only while the same arrays are
    bound: rebinding a name, or a binding that stops being an int64
    row, reaches the next replay."""
    rng = np.random.default_rng(9)
    first, second = _values(rng, (N,)), _values(rng, (N,))
    bindings = ExecBindings([97], [], N, dram={"x": first})
    plan = _plan_of(_dram_step(["x"], [97], [2]))
    arena = np.zeros((ROWS, N), dtype=np.int64)
    for bound in (first, second, second.astype(np.int32), first):
        bindings.dram["x"] = bound
        _replay_steps(plan, arena, bindings)
        np.testing.assert_array_equal(arena[2], np.remainder(bound, 97))


# ----------------------------------------------------------------------
# Copy and fill steps
# ----------------------------------------------------------------------
def test_copy_and_fill_steps_equal_numpy(lib, monkeypatch):
    """Copies of any int64 rows and fills of any int64 value (a row
    filled twice keeps the last value, as numpy's scatter does)."""
    rng = np.random.default_rng(10)
    rows = rng.permutation(ROWS).astype(np.int64)
    copy = PlanStep(K_COPY, "vcopy", n_instrs=4)
    copy.out, copy.a = rows[:4], rows[4:8]
    fill = PlanStep(K_FILL, "scalar", n_instrs=3)
    fill.out = np.array([rows[8], rows[9], rows[8]], dtype=np.int64)
    fill.vals = _values(rng, (3, 1))
    plan = _plan_of(copy, fill)
    got, want = _run_both(plan, _values(rng, (ROWS, N)), monkeypatch)
    assert _native(plan, 0) and _native(plan, 1)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("case", [
    "copy-in-outside", "copy-out-is-an-in", "copy-repeated-out",
    "dram-out-outside", "dram-q-below-1", "dram-source-outside",
    "dram-null-source", "fill-out-outside", "unknown-kind",
    "lanes-past-the-table", "negative-offset"])
def test_replay_steps_rejects_a_bad_step_without_writing(lib, case):
    arena = np.arange(ROWS * N, dtype=np.int64).reshape(ROWS, N) % 97
    before = arena.copy()
    row = np.arange(N, dtype=np.int64)
    src = np.array([native.address(row)], dtype=np.uintp)
    copy = np.array([[0, 5], [1, 6]], dtype=np.int64)
    dram = np.array([[3, 97, 0], [4, 97, 0]], dtype=np.int64)
    fill = np.array([[7, 11], [8, 12]], dtype=np.int64)
    kw = {}
    if case.startswith("copy"):
        kind, lanes = K_COPY, copy
        lanes[1] = {"copy-in-outside": [ROWS, 6],
                    "copy-out-is-an-in": [1, 0],
                    "copy-repeated-out": [1, 5]}[case]
    elif case.startswith("dram"):
        kind, lanes, kw = K_DRAM, dram, {"src": src}
        if case == "dram-out-outside":
            lanes[1, 0] = ROWS
        elif case == "dram-q-below-1":
            lanes[1, 1] = 0
        elif case == "dram-source-outside":
            lanes[1, 2] = 1
        else:
            kw["src"] = np.zeros(1, dtype=np.uintp)
    elif case == "fill-out-outside":
        kind, lanes = K_FILL, fill
        lanes[1, 0] = -1
    elif case == "unknown-kind":
        kind, lanes = 7, fill
    elif case == "lanes-past-the-table":
        kind, lanes, kw = K_FILL, fill, {"k": 3}
    else:
        kind, lanes, kw = K_FILL, fill, {"off": -2}
    assert _one_step(lib, arena, kind, 0, lanes, **kw) == 0
    np.testing.assert_array_equal(arena, before)


# ----------------------------------------------------------------------
# FFT steps
# ----------------------------------------------------------------------
#: NTT-friendly primes for N of several sizes up to the 2^30 bound of
#: the fused kernels, and one 31-bit prime beyond it.
FFT_PRIMES = (find_ntt_primes(30, N, 2) + find_ntt_primes(24, N, 1)
              + find_ntt_primes(17, N, 1))
WIDE_PRIME = find_ntt_primes(31, N, 1)[0]
#: ``(fft code, label)`` of every FFT step kind.
FFT_KINDS = [(0, "ntt"), (1, "intt"), (2, "auto")]


def _fft_values(rng, shape, q_max: int) -> np.ndarray:
    """``_values`` plus canonical residues (a plan's usual input) and
    values just past them (q, 2^32 + small)."""
    out = _values(rng, shape)
    pick = rng.random(shape)
    canon = pick < 0.3
    out[canon] = rng.integers(0, q_max, size=int(canon.sum()))
    near = pick > 0.9
    out[near] = rng.choice(np.array([q_max, q_max - 1, (1 << 32) + 5,
                                     (1 << 30), -(1 << 32)],
                                    dtype=np.int64),
                           size=int(near.sum()))
    return out


def _fft_step(rng, fft: int, k: int = 5, primes=FFT_PRIMES,
              elt: int | None = None) -> PlanStep:
    """A K_FFT step over ``k`` lanes with mixed per-lane primes, writing
    ``k`` distinct rows from the other rows (inputs may repeat)."""
    rows = rng.permutation(ROWS).astype(np.int64)
    st = PlanStep(K_FFT, FFT_KINDS[fft][1], n_instrs=k)
    st.fft = fft
    st.out = rows[:k]
    st.a = rng.choice(rows[k:], k)
    st.primes = tuple(int(q) for q in rng.choice(primes, k))
    if fft == 2:
        st.elt = galois_element(3, N) if elt is None else elt
    return st


@pytest.mark.parametrize("fft,label", FFT_KINDS)
@given(seed=st.integers(0, 2 ** 32 - 1))
@HYPO
def test_fft_rows_equal_batched_ntt_on_any_int64(lib, monkeypatch, fft,
                                                 label, seed):
    rng = np.random.default_rng(seed)
    plan = _plan_of(_fft_step(rng, fft, k=int(rng.integers(1, 7))))
    got, want = _run_both(plan, _fft_values(rng, (ROWS, N), 1 << 30),
                          monkeypatch)
    assert _native(plan), "the kernel did not run"
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("elt", [conjugation_element(N),
                                 galois_element(-1, N), 1])
def test_fft_rows_automorphism_of_every_kind(lib, monkeypatch, elt):
    rng = np.random.default_rng(elt)
    plan = _plan_of(_fft_step(rng, 2, k=4, elt=elt))
    got, want = _run_both(plan, _values(rng, (ROWS, N)), monkeypatch)
    assert _native(plan)
    np.testing.assert_array_equal(got, want)


def test_fft_tables_are_the_engine_rows_by_prime(lib):
    """One table row per distinct prime, equal to the rows a stacked
    engine gathers for it; primes past 2^30 get no table."""
    primes = FFT_PRIMES + [WIDE_PRIME, FFT_PRIMES[0]]
    index, q, tw = _fft_tables(N, primes)
    assert sorted(index) == sorted(FFT_PRIMES)
    assert tw.shape == (len(FFT_PRIMES), 4, N) and tw.dtype == np.uint32
    eng = get_plan(N, tuple(FFT_PRIMES)).ntt
    for limb, prime in enumerate(FFT_PRIMES):
        i = index[prime]
        assert q[i] == prime
        for row, table in enumerate((eng._psi_u, eng._psi_sh,
                                     eng._psi_inv_u, eng._psi_inv_sh)):
            np.testing.assert_array_equal(tw[i, row], table[limb])


@pytest.mark.parametrize("fft,label", FFT_KINDS)
def test_fft_step_over_a_31_bit_prime_takes_the_engine(lib, monkeypatch,
                                                       fft, label):
    """Past the fused 2^30 bound a transform keeps the gather -> engine
    -> scatter path (the engine then runs its radix-2 numpy kernel),
    while a step over fused primes next to it runs in C.  An
    automorphism reads no prime, so C runs it over any modulus."""
    rng = np.random.default_rng(31)
    wide = _fft_step(rng, fft, primes=FFT_PRIMES + [WIDE_PRIME])
    wide.primes = (WIDE_PRIME,) + wide.primes[1:]
    rows = rng.permutation(ROWS).astype(np.int64)
    other = PlanStep(K_FFT, label, n_instrs=1)
    other.fft, other.elt, other.primes = fft, wide.elt, (FFT_PRIMES[0],)
    other.out = np.setdiff1d(rows, np.concatenate((wide.out, wide.a)))[:1]
    other.a = wide.out[:1]
    plan = _plan_of(wide, other)
    arena = _fft_values(rng, (ROWS, N), WIDE_PRIME)
    got = arena.copy()
    _replay_steps(plan, got, None)
    assert _native(plan, 0) == (fft == 2) and _native(plan, 1)
    # Only a step numpy runs builds a stacked engine.
    assert (wide.engine is None) == (fft == 2) and other.engine is None
    got, want = _run_both(plan, arena, monkeypatch)
    np.testing.assert_array_equal(got, want)


def test_auto_over_31_bit_primes_runs_in_c_and_matches_reference(
        lib, monkeypatch):
    """A compiled program whose automorphisms run over 31-bit primes:
    C runs every step of its plan, bitwise equal to numpy and to
    :func:`execute_reference`."""
    prog = Program(N, name="auto31")
    for j, step in enumerate((1, -1, 5)):
        x = prog.load(prog.dram_value(f"auto31.in[{j}]"), modulus=j)
        prog.mark_output(prog.emit(Opcode.AUTO, (x,), modulus=j,
                                   imm=step, tag="auto"))
    prog.validate()
    packed = PackedProgram.from_program(prog)
    bindings = synthesize_bindings(packed, bits=31)
    assert min(bindings.q) >= exec_plan._FFT_Q_BOUND
    compiled = compile_packed(packed.copy(), CompileOptions())
    plan = get_exec_plan(compiled, bindings)
    got = _outputs_under("native", monkeypatch, compiled, bindings)
    kinds = plan._table.steps[:, 0]
    assert K_FFT in kinds.tolist()
    assert (kinds != exec_plan._K_NUMPY).all()
    _assert_same(got, _outputs_under("numpy", monkeypatch, compiled,
                                     bindings), "numpy")
    _assert_same(got, execute_reference(prog, bindings), "reference")


def test_fft_step_with_a_read_write_overlap_takes_numpy(lib, monkeypatch):
    """Lane 1 reads the row lane 0 writes: the gathered input is the
    old row, a lane-by-lane kernel would read the transformed one."""
    rng = np.random.default_rng(6)
    step = _fft_step(rng, 0)
    step.a = step.a.copy()
    step.a[1] = step.out[0]
    plan = _plan_of(step)
    got, want = _run_both(plan, _fft_values(rng, (ROWS, N), 1 << 30),
                          monkeypatch)
    assert not _native(plan)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("field", ["out", "a"])
def test_fft_step_with_an_out_of_arena_row_raises_as_numpy(lib, field):
    rng = np.random.default_rng(7)
    step = _fft_step(rng, 1)
    rows = getattr(step, field).copy()
    rows[0] = ROWS + 3
    setattr(step, field, rows)
    plan = _plan_of(step)
    with pytest.raises(IndexError):
        _replay_steps(plan, _values(rng, (ROWS, N)), None)
    assert not _native(plan)


@pytest.mark.parametrize("case", [
    "in-outside", "out-outside", "negative-in", "out-is-an-in",
    "repeated-out", "q-too-wide", "q-below-2", "perm-outside",
    "no-table", "no-perm", "bad-op"])
def test_fft_rows_rejects_a_bad_step_without_writing(lib, case):
    """``no-table`` is a prime index past the prime tables and
    ``no-perm`` a permutation index past the permutations."""
    arena = np.arange(ROWS * N, dtype=np.int64).reshape(ROWS, N) % 97
    before = arena.copy()
    lanes = np.array([[0, 5, 0], [1, 6, 1], [2, 7, 2]], dtype=np.int64)
    _, q, tw = _fft_tables(N, FFT_PRIMES[:3])
    perms = ntt_automorphism_index(N, galois_element(3, N))[None, :].copy()
    op = 2 if case in ("perm-outside", "no-perm") else 0
    kw = {"q": q, "tw": tw, "perms": perms}
    assert _one_step(lib, arena.copy(), K_FFT, op, lanes, **kw) == 1
    if case == "in-outside":
        lanes[2, 0] = ROWS
    elif case == "out-outside":
        lanes[2, 1] = ROWS + 1
    elif case == "negative-in":
        lanes[1, 0] = -1
    elif case == "out-is-an-in":
        lanes[2, 1] = 0
    elif case == "repeated-out":
        lanes[2, 1] = 5
    elif case == "q-too-wide":
        q[2] = 1 << 30
    elif case == "q-below-2":
        q[1] = 1
    elif case == "perm-outside":
        perms[0, N - 1] = N
    elif case == "no-table":
        lanes[1, 2] = len(q)
    elif case == "no-perm":
        kw["aux"] = 1
    else:
        op = 3
    assert _one_step(lib, arena, K_FFT, op, lanes, **kw) == 0
    np.testing.assert_array_equal(arena, before)


@pytest.mark.parametrize("fft", [0, 1])
def test_reducing_ntt_entries_equal_numpy_mod(lib, fft):
    """``ntt_forward``/``ntt_inverse`` with reduce set, on rows mixing
    canonical and non-canonical values, equal the same entries on the
    rows reduced by numpy's ``%`` first."""
    rng = np.random.default_rng(8 + fft)
    eng = get_plan(N, tuple(FFT_PRIMES)).ntt
    rows = 3 * eng.limbs
    data = _fft_values(rng, (rows, N), FFT_PRIMES[0])
    data[0] = rng.integers(0, FFT_PRIMES[0], N)          # all canonical
    reduced = data % np.tile(eng.q_col, (3, 1))
    got = np.empty_like(data)
    want = np.empty_like(data)
    for src, out, reduce in ((data, got, 1), (reduced, want, 0)):
        if fft == 0:
            rc = lib.ntt_forward(out, src, rows, eng.limbs, N, eng._q_u,
                                 eng._psi_u, eng._psi_sh, reduce)
        else:
            rc = lib.ntt_inverse(out, src, rows, eng.limbs, N, eng._q_u,
                                 eng._psi_inv_u, eng._psi_inv_sh,
                                 eng._n_inv_u, eng._n_inv_sh,
                                 eng._fold1_u, eng._fold1_sh, 1, reduce)
        assert rc == 0
    np.testing.assert_array_equal(got, want)


# ----------------------------------------------------------------------
# Whole plans
# ----------------------------------------------------------------------
def _tiny_compiled():
    packed = PackedProgram.from_program(tiny_builder(levels=4, diag=3)())
    return compile_packed(packed, CompileOptions(sram_bytes=TINY_SRAM))


def _perfbench_programs(n: int = 256):
    """The three replayed perfbench programs (resnet conv block, DB
    lookup, BFV dot product) at ring degree ``n``."""
    lp = LoweringParams(n=n, levels=7, dnum=4, log_q=30)
    shape = ResNetShape(conv_diagonals=8, start_level=7)
    return [build_conv_block(lp, shape, name="conv-block"),
            build_dblookup_program(lp, squarings=8),
            build_bfv_dotproduct_program(lp)]


def _outputs_under(impl: str, monkeypatch, compiled, bindings):
    with monkeypatch.context() as m:
        if impl == "numpy":
            m.setattr(native, "_LIB", None)
        return execute_packed(compiled, bindings).outputs


def _assert_same(got: dict, want: dict, where: str) -> None:
    assert got.keys() == want.keys(), where
    for vid, arr in want.items():
        np.testing.assert_array_equal(got[vid], arr,
                                      err_msg=f"{where}, output {vid}")


@pytest.mark.parametrize("seed", SEEDS)
def test_whole_plan_replay_matches_numpy_and_reference_on_fuzz(
        lib, monkeypatch, seed):
    prog = random_program(seed)
    packed = PackedProgram.from_program(prog)
    bindings = synthesize_bindings(packed)
    oracle = execute_reference(prog, bindings)
    for label, options in VARIANTS.items():
        compiled = compile_packed(packed.copy(), options)
        plan = get_exec_plan(compiled, bindings)
        got = _outputs_under("native", monkeypatch, compiled, bindings)
        assert (plan._table.steps[:, 0] != exec_plan._K_NUMPY).all()
        _assert_same(got, oracle, f"seed {seed}, {label}, C")
        _assert_same(_outputs_under("numpy", monkeypatch, compiled,
                                    bindings),
                     oracle, f"seed {seed}, {label}, numpy")


def test_whole_plan_replay_matches_numpy_and_reference_on_perfbench(
        lib, monkeypatch):
    for prog in _perfbench_programs():
        packed = PackedProgram.from_program(prog)
        bindings = synthesize_bindings(packed)
        compiled = compile_packed(packed.copy(), CompileOptions())
        plan = get_exec_plan(compiled, bindings)
        got = _outputs_under("native", monkeypatch, compiled, bindings)
        kinds = plan._table.steps[:, 0]
        assert (kinds != exec_plan._K_NUMPY).all(), prog.name
        assert set(kinds.tolist()) == {K_EW, K_FFT, K_DRAM}
        _assert_same(got, _outputs_under("numpy", monkeypatch, compiled,
                                         bindings), f"{prog.name}, numpy")
        _assert_same(got, execute_reference(prog, bindings),
                     f"{prog.name}, reference")


def test_sub_ranges_compose_to_the_whole_plan(lib):
    compiled = _tiny_compiled()
    bindings = synthesize_bindings(compiled.packed)
    plan = get_exec_plan(compiled, bindings)
    total = len(plan.steps)
    whole = plan.arena().copy()
    whole[:] = 0
    _replay_steps(plan, whole, bindings)
    rng = np.random.default_rng(11)
    for _ in range(4):
        cuts = sorted(rng.integers(0, total + 1, size=3).tolist())
        arena = np.zeros_like(whole)
        for start, stop in zip([0] + cuts, cuts + [total]):
            _replay_steps(plan, arena, bindings, start, stop)
        np.testing.assert_array_equal(arena, whole)
    call = exec_plan._bind_native(lib, _replay_table(plan, whole.shape[0]),
                                  whole, bindings)
    assert exec_plan._native_steps(call, 3, 3) == 3          # empty range
    assert exec_plan._native_steps(call, total - 1, total + 9) == total


def test_a_refused_step_mid_plan_runs_numpy_and_c_resumes(lib,
                                                          monkeypatch):
    """One step refused when the table was built and one the kernel
    refuses at run time (a lane whose q the table corrupted): numpy runs
    exactly those two, C runs the rest, and the outputs stay exact."""
    compiled = _tiny_compiled()
    bindings = synthesize_bindings(compiled.packed)
    plan = get_exec_plan(compiled, bindings)
    want = _outputs_under("numpy", monkeypatch, compiled, bindings)
    table = _replay_table(plan, plan.arena().shape[0])
    ew = [i for i, s in enumerate(plan.steps) if s.kind == K_EW]
    fft = [i for i, s in enumerate(plan.steps) if s.kind == K_FFT]
    refused, corrupt = fft[len(fft) // 2], ew[len(ew) // 2]
    table.steps[refused, 0] = exec_plan._K_NUMPY
    off = table.steps[corrupt, 3]
    table.lanes[off + 4] = 0                   # the first lane's q
    ran = []
    real = exec_plan._exec_step

    def spy(st, arena, bindings, n):
        ran.append(plan.steps.index(st))
        real(st, arena, bindings, n)

    monkeypatch.setattr(exec_plan, "_exec_step", spy)
    got = execute_packed(compiled, bindings).outputs
    assert sorted(ran) == sorted([refused, corrupt])
    _assert_same(got, want, "refused steps")


def test_replay_span_names_the_kernels_that_ran(ntt_impl):
    compiled = _tiny_compiled()
    was = obs.TRACER.enabled
    obs.TRACER.drain()
    obs.TRACER.enabled = True
    try:
        execute_packed(compiled)
        events, _ = obs.TRACER.drain()
    finally:
        obs.TRACER.enabled = was
    outer = [ev for ev in events if ev[obs.EV_NAME] == "replay"]
    assert len(outer) == 1
    want = "c" if ntt_impl == "native" else "numpy"
    assert outer[0][obs.EV_ATTRS]["impl"] == want


def test_lane_tables_are_not_serialized(lib):
    """The replay table appears at first replay and leaves the store
    payload (and so its schema) unchanged."""
    compiled = _tiny_compiled()
    bindings = synthesize_bindings(compiled.packed)
    plan = get_exec_plan(compiled, bindings)
    before = plan_to_payload(plan)
    execute_packed(compiled, bindings)
    assert plan._table is not None
    meta, arrays = plan_to_payload(plan)
    assert meta == before[0]
    for key, arr in arrays.items():
        np.testing.assert_array_equal(arr, before[1][key])
    restored = plan_from_payload(meta, arrays["idx"], arrays["col"])
    assert restored._table is None


def _traced_runs(monkeypatch, compiled):
    """``{impl: (outputs, events, counters)}`` of one traced replay per
    implementation (native only when the library loaded)."""
    was = obs.TRACER.enabled
    obs.TRACER.drain()
    runs = {}
    try:
        for impl in ("native", "numpy"):
            if impl == "numpy":
                monkeypatch.setattr(native, "_LIB", None)
            elif native.kernel() is None:
                continue
            obs.TRACER.enabled = True
            outputs = execute_packed(compiled).outputs
            obs.TRACER.enabled = False
            runs[impl] = (outputs, *obs.TRACER.drain())
    finally:
        obs.TRACER.enabled = was
        obs.TRACER.drain()
    return runs


def test_traced_replay_counts_fft_rows_under_both_impls(monkeypatch):
    """The C FFT steps emit the engine's ``ntt.*`` spans (``impl``
    ``"c"``) and row counters, so a traced replay reports the same
    rows whichever kernels ran."""
    runs = _traced_runs(monkeypatch, _tiny_compiled())
    spans = ("ntt.forward", "ntt.inverse", "ntt.automorphism")
    impls = {"native": "c", "numpy": "numpy"}
    for impl, (_, events, counters) in runs.items():
        fft = [ev for ev in events if ev[obs.EV_NAME] in spans]
        assert {ev[obs.EV_NAME] for ev in fft} == set(spans)
        assert {ev[obs.EV_ATTRS]["impl"] for ev in fft} == {impls[impl]}
        for name, key in zip(spans, ("ntt.rows", "intt.rows",
                                     "auto.rows")):
            assert counters[key] == sum(ev[obs.EV_ATTRS]["limbs"]
                                        for ev in fft
                                        if ev[obs.EV_NAME] == name)


def test_traced_replay_is_the_same_trace_under_both_impls(lib,
                                                          monkeypatch):
    """Same span names, paths and counts, the same row and byte
    counters, and the same outputs, whichever kernels ran."""
    runs = _traced_runs(monkeypatch, _tiny_compiled())
    (got, ev_c, c_native), (want, ev_np, c_numpy) = (runs["native"],
                                                     runs["numpy"])

    def shape(events):
        return Counter((ev[obs.EV_NAME], ev[obs.EV_PATH])
                       for ev in events)

    assert shape(ev_c) == shape(ev_np)
    for key in ("ntt.rows", "intt.rows", "auto.rows",
                "exec.bytes_gathered", "exec.bytes_scattered"):
        assert c_native[key] == c_numpy[key], key
    _assert_same(got, want, "traced")


def test_bound_kernel_checks_its_arrays_once_and_holds_them(lib):
    """``native.bind`` checks the fixed arrays as every call would,
    refuses to leave an array argument to the call, and keeps the
    arrays it fixed alive."""
    arena = np.zeros((ROWS, N), dtype=np.int64)
    empty = (np.zeros(0, np.uint64), np.zeros((0, 4, N), np.uint32), 0,
             np.zeros((0, N), np.int64), 0, np.zeros(0, np.uintp), 0)
    steps = np.array([[K_FILL, 0, 1, 0, 0]], dtype=np.int64)
    for bad in (arena.astype(np.uint64), arena[:, ::2]):
        with pytest.raises(TypeError):
            native.bind(lib, "replay_steps", bad, ROWS, N, steps, 1,
                        np.array([3, 7]), 2, *empty)
    with pytest.raises(ValueError, match="every array"):
        native.bind(lib, "replay_steps", arena, ROWS, N)
    call = native.bind(lib, "replay_steps", arena, ROWS, N, steps, 1,
                       np.array([3, 7], dtype=np.int64), 2, *empty)
    gc.collect()                           # the lane array is held
    assert call(0, 1) == 1
    np.testing.assert_array_equal(arena[3], np.full(N, 7))
