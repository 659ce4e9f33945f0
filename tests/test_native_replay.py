"""The native plan-replay kernels against their numpy expressions.

``ew_step``, ``dram_rows`` and ``fft_rows`` (``nttmath/native/ntt.c``)
must equal the numpy replay branches of
:func:`repro.compiler.exec_plan._exec_step` bit for bit on *every*
int64 input (wrapping products and sums, numpy's floor modulo, the
reducing NTT entries of :class:`~repro.nttmath.batched.BatchedNTT`),
not only on the canonical residues a plan produces.  Each test runs one
hand-built step on two copies of one arena: once as replay runs it,
once with the library forced unavailable, which runs the numpy oracle.
A step that breaks the lane-table rule (a row both read and written, a
row outside the arena) must take the numpy path and give the same
result, or the same ``IndexError``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import obs
from repro.compiler.exec_backend import ExecBindings, execute_packed
from repro.compiler.exec_plan import (
    K_DRAM,
    K_EW,
    K_FFT,
    PlanStep,
    _exec_step,
    get_exec_plan,
    plan_from_payload,
    plan_to_payload,
)
from repro.compiler.ir import PackedProgram
from repro.compiler.pipeline import CompileOptions, compile_packed
from repro.nttmath import native
from repro.nttmath.batched import get_plan, get_stacked_plan
from repro.nttmath.ntt import conjugation_element, galois_element
from repro.nttmath.primes import find_ntt_primes

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


def _run_both(st: PlanStep, arena: np.ndarray, monkeypatch,
              bindings=None) -> tuple[np.ndarray, np.ndarray]:
    """The arena after ``st`` as replay runs it, and after the numpy
    oracle."""
    got = arena.copy()
    _exec_step(st, got, bindings, N)
    want = arena.copy()
    with monkeypatch.context() as m:
        m.setattr(native, "_LIB", None)
        _exec_step(st, want, bindings, N)
    return got, want


# ----------------------------------------------------------------------
# ew_step
# ----------------------------------------------------------------------
@pytest.mark.parametrize("nsrc,mode", EW_KINDS)
@given(seed=st.integers(0, 2 ** 32 - 1))
@HYPO
def test_ew_step_equals_numpy_on_any_int64(lib, monkeypatch, nsrc, mode,
                                           seed):
    rng = np.random.default_rng(seed)
    step = _ew_step(rng, nsrc, mode)
    got, want = _run_both(step, _values(rng, (ROWS, N)), monkeypatch)
    assert isinstance(step.lanes, np.ndarray), "the kernel did not run"
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("nsrc,mode", EW_KINDS)
def test_ew_step_equals_numpy_for_moduli_up_to_2_63(lib, monkeypatch,
                                                    nsrc, mode):
    """The Barrett path holds for every q the lane table admits, not
    only the 31-bit primes of real plans."""
    rng = np.random.default_rng(63)
    step = _ew_step(rng, nsrc, mode, k=6, high=INT64_MAX)
    step.q_col[:3, 0] = [INT64_MAX, (1 << 62) + 1, 3 << 61]
    got, want = _run_both(step, _values(rng, (ROWS, N)), monkeypatch)
    assert isinstance(step.lanes, np.ndarray)
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
    lanes[1, column] = value
    assert lib.ew_step(arena, ROWS, N, lanes, 2, 2) != 0
    assert lib.ew_step(arena, ROWS, N, lanes[:1], 1, 4) != 0  # bad nsrc
    np.testing.assert_array_equal(arena, before)


def test_ew_step_with_a_read_write_overlap_takes_numpy(lib, monkeypatch):
    """Lane 1 reads the row lane 0 writes: numpy reads it before any
    write, a lane-by-lane kernel would read the new value."""
    rng = np.random.default_rng(1)
    step = _ew_step(rng, 2, "mul")
    step.a = step.a.copy()
    step.a[1] = step.out[0]
    got, want = _run_both(step, _values(rng, (ROWS, N)), monkeypatch)
    assert step.lanes is False
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("field", ["out", "a", "b", "c"])
def test_ew_step_with_an_out_of_arena_row_raises_as_numpy(lib, field):
    rng = np.random.default_rng(2)
    step = _ew_step(rng, 3, "mac")
    rows = getattr(step, field).copy()
    rows[0] = ROWS + 3
    setattr(step, field, rows)
    arena = _values(rng, (ROWS, N))
    with pytest.raises(IndexError):
        _exec_step(step, arena, None, N)
    assert step.lanes is False


def test_ew_step_with_a_negative_row_takes_numpy(lib, monkeypatch):
    """numpy reads row -1 as the last row; the kernel must not run."""
    rng = np.random.default_rng(3)
    step = _ew_step(rng, 1, "add", k=2)
    step.out = np.array([0, 1], dtype=np.int64)
    step.a = np.array([-1, 2], dtype=np.int64)
    got, want = _run_both(step, _values(rng, (ROWS, N)), monkeypatch)
    assert step.lanes is False
    np.testing.assert_array_equal(got, want)


# ----------------------------------------------------------------------
# dram_rows
# ----------------------------------------------------------------------
def _dram_step(names, qs, rows) -> PlanStep:
    step = PlanStep(K_DRAM, "load-dram", n_instrs=len(names))
    step.out, step.names, step.qs = list(rows), list(names), list(qs)
    return step


def test_dram_rows_equal_numpy_for_any_binding(lib, monkeypatch):
    """int64 rows (read in place, extremes included, read-only too),
    other dtypes, strided views and lists (reduced by numpy around the
    kernel), and a missing name (synthesized and bound)."""
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
    names = ["i64", "frozen", "i32", "u64", "strided", "list",
             "missing", "i64", "missing"]
    qs = [97, Q_MAX, 97, Q_MAX, 97, Q_MAX, 97, 1, Q_MAX]
    step = _dram_step(names, qs, rng.permutation(ROWS)[:len(names)])
    got, want = _run_both(step, _values(rng, (ROWS, N)), monkeypatch,
                          bindings)
    assert isinstance(step.lanes, np.ndarray), "the kernel did not run"
    assert "missing" in bindings.dram
    np.testing.assert_array_equal(got, want)


def test_dram_rows_strict_missing_name_raises(lib, monkeypatch):
    bindings = ExecBindings([97], [], N, dram={"x": np.arange(N)},
                            strict=True)
    step = _dram_step(["x", "absent"], [97, 97], [0, 1])
    for forced in (False, True):
        with monkeypatch.context() as m:
            if forced:
                m.setattr(native, "_LIB", None)
            with pytest.raises(KeyError, match="absent"):
                _exec_step(step, np.zeros((ROWS, N), np.int64), bindings,
                           N)


def test_dram_binding_inside_the_arena_takes_numpy(lib, monkeypatch):
    """A binding that views an arena row the same step writes: numpy
    reads it in row order, which the whole step then keeps."""
    rng = np.random.default_rng(5)
    arena = _values(rng, (ROWS, N))
    ext = _values(rng, (N,))
    step = _dram_step(["ext", "own"], [97, 97], [3, 4])
    results = []
    for forced in (False, True):
        work = arena.copy()
        bindings = ExecBindings([97], [], N,
                                dram={"own": work[3], "ext": ext})
        with monkeypatch.context() as m:
            if forced:
                m.setattr(native, "_LIB", None)
            _exec_step(step, work, bindings, N)
        results.append(work)
    assert isinstance(step.lanes, np.ndarray)   # built, then not used
    np.testing.assert_array_equal(*results)


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
def _tiny_compiled():
    packed = PackedProgram.from_program(tiny_builder(levels=4, diag=3)())
    return compile_packed(packed, CompileOptions(sram_bytes=TINY_SRAM))


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
    """Tables appear at first replay and leave the store payload (and
    so its schema) unchanged."""
    from repro.compiler.exec_backend import synthesize_bindings

    compiled = _tiny_compiled()
    bindings = synthesize_bindings(compiled.packed)
    plan = get_exec_plan(compiled, bindings)
    before = plan_to_payload(plan)
    execute_packed(compiled, bindings)
    assert any(isinstance(s.lanes, np.ndarray) for s in plan.steps)
    meta, arrays = plan_to_payload(plan)
    assert meta == before[0]
    for key, arr in arrays.items():
        np.testing.assert_array_equal(arr, before[1][key])
    restored = plan_from_payload(meta, arrays["idx"], arrays["col"])
    assert all(s.lanes is None for s in restored.steps)


# ----------------------------------------------------------------------
# fft_rows
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
    step = _fft_step(rng, fft, k=int(rng.integers(1, 7)))
    got, want = _run_both(step, _fft_values(rng, (ROWS, N), 1 << 30),
                          monkeypatch)
    assert isinstance(step.lanes, np.ndarray), "the kernel did not run"
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("elt", [conjugation_element(N),
                                 galois_element(-1, N), 1])
def test_fft_rows_automorphism_of_every_kind(lib, monkeypatch, elt):
    rng = np.random.default_rng(elt)
    step = _fft_step(rng, 2, k=4, elt=elt)
    got, want = _run_both(step, _values(rng, (ROWS, N)), monkeypatch)
    assert isinstance(step.lanes, np.ndarray)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("fft,label", FFT_KINDS)
def test_fft_step_over_a_31_bit_prime_takes_the_engine(lib, monkeypatch,
                                                       fft, label):
    """Past the fused 2^30 bound the step keeps the gather -> engine ->
    scatter path (the engine then runs its radix-2 numpy kernel)."""
    rng = np.random.default_rng(31)
    step = _fft_step(rng, fft, primes=FFT_PRIMES + [WIDE_PRIME])
    step.primes = (WIDE_PRIME,) + step.primes[1:]
    got, want = _run_both(step, _fft_values(rng, (ROWS, N), WIDE_PRIME),
                          monkeypatch)
    assert step.lanes is None
    np.testing.assert_array_equal(got, want)


def test_fft_step_with_a_read_write_overlap_takes_numpy(lib, monkeypatch):
    """Lane 1 reads the row lane 0 writes: the gathered input is the
    old row, a lane-by-lane kernel would read the transformed one."""
    rng = np.random.default_rng(6)
    step = _fft_step(rng, 0)
    step.a = step.a.copy()
    step.a[1] = step.out[0]
    got, want = _run_both(step, _fft_values(rng, (ROWS, N), 1 << 30),
                          monkeypatch)
    assert step.lanes is False
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("field", ["out", "a"])
def test_fft_step_with_an_out_of_arena_row_raises_as_numpy(lib, field):
    rng = np.random.default_rng(7)
    step = _fft_step(rng, 1)
    rows = getattr(step, field).copy()
    rows[0] = ROWS + 3
    setattr(step, field, rows)
    with pytest.raises(IndexError):
        _exec_step(step, _values(rng, (ROWS, N)), None, N)
    assert step.lanes is False


def _fft_tables(primes, fft: int):
    eng = get_stacked_plan(N, tuple((q,) for q in primes)).ntt
    tw = (eng._psi_u, eng._psi_sh) if fft == 0 else (eng._psi_inv_u,
                                                     eng._psi_inv_sh)
    return eng, (eng._q_u, *tw)


@pytest.mark.parametrize("case", [
    "in-outside", "out-outside", "negative-in", "out-is-an-in",
    "repeated-out", "q-too-wide", "q-below-2", "perm-outside",
    "no-table", "no-perm", "bad-op"])
def test_fft_rows_rejects_a_bad_step_without_writing(lib, case):
    arena = np.arange(ROWS * N, dtype=np.int64).reshape(ROWS, N) % 97
    before = arena.copy()
    lanes = np.array([[0, 5], [1, 6], [2, 7]], dtype=np.int64)
    primes = FFT_PRIMES[:3]
    eng, tables = _fft_tables(primes, 0)
    q, tw, tw_sh = (t.copy() for t in tables)
    op, perm = 0, None
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
        q[2, 0] = 1 << 30
    elif case == "q-below-2":
        q[1, 0] = 1
    elif case == "perm-outside":
        op, perm = 2, eng.automorphism_index(galois_element(3, N)).copy()
        perm[N - 1] = N
    elif case == "no-table":
        tw = None
    elif case == "no-perm":
        op = 2
    else:
        op = 3
    assert lib.fft_rows(arena, ROWS, N, lanes, 3, op, q, tw, tw_sh,
                        perm) == 1
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


def test_traced_replay_counts_fft_rows_under_both_impls(monkeypatch):
    """The C FFT branch emits the engine's ``ntt.*`` spans (``impl``
    ``"c"``) and row counters, so a traced replay reports the same
    rows whichever kernels ran."""
    compiled = _tiny_compiled()
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
    if "native" in runs:
        (got, _, c_native), (want, _, c_numpy) = (runs["native"],
                                                  runs["numpy"])
        for key in ("ntt.rows", "intt.rows", "auto.rows",
                    "exec.bytes_gathered", "exec.bytes_scattered"):
            assert c_native[key] == c_numpy[key], key
        assert got.keys() == want.keys()
        for vid, arr in got.items():
            np.testing.assert_array_equal(arr, want[vid])
