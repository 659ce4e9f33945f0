"""Property tests: the batched limb-parallel engine is bitwise
identical to the per-limb reference kernels.

`BatchedNTT` replaces ``L`` separate :class:`NegacyclicNTT` calls with
single vector expressions over the ``(L, N)`` residue stack, using
Shoup multiplication and lazy reduction internally.  None of that may
change a single output bit: these tests draw randomized ``(n, basis)``
configurations (hypothesis) and assert row-by-row equality against the
reference dataflow, plus the algebraic identities (round trip,
automorphism consistency) the CKKS layers rely on.

The tests taking the ``ntt_impl`` fixture run the forward/inverse
entries once per implementation — the native C kernel and the numpy
kernels — against the same per-limb reference.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.nttmath.batched import (
    BatchedNTT,
    get_plan,
    get_stacked_plan,
    ntt_table,
)
from repro.nttmath.ntt import (
    NegacyclicNTT,
    automorphism,
    conjugation_element,
    galois_element,
)
from repro.nttmath.primes import find_ntt_primes
from repro.obs import EV_ATTRS, EV_NAME, TRACER
from repro.rns.basis import RnsBasis
from repro.rns.poly import (
    RnsPolynomial,
    pointwise_mac,
    pointwise_mac_shoup,
    pointwise_mul_shoup,
    shoup_precompute,
)

# Drawing (log2 n, prime bits, limb count, data seed) covers moduli the
# C rows run (bits <= 30) and the 31-bit ones only the numpy stages run,
# odd and even stage counts, and single-limb stacks.
CONFIG = st.tuples(
    st.integers(min_value=1, max_value=6),     # log2 n -> n in 2..64
    st.integers(min_value=20, max_value=31),   # modulus bits
    st.integers(min_value=1, max_value=5),     # limbs
    st.integers(min_value=0, max_value=2**31),  # data seed
)


def _setup(config):
    n_log, bits, limbs, seed = config
    n = 1 << n_log
    primes = find_ntt_primes(bits, n, limbs)
    rng = np.random.default_rng(seed)
    data = rng.integers(0, np.array(primes)[:, None], size=(limbs, n),
                        dtype=np.int64)
    return n, primes, data


@given(CONFIG)
@settings(max_examples=40, deadline=None)
def test_forward_matches_per_limb_bitwise(config):
    n, primes, data = _setup(config)
    batched = BatchedNTT(n, primes)
    got = batched.forward(data)
    for j, q in enumerate(primes):
        want = NegacyclicNTT(n, q).forward(data[j])
        assert np.array_equal(got[j], want), f"limb {j} (q={q}) differs"


@given(CONFIG)
@settings(max_examples=40, deadline=None)
def test_inverse_matches_per_limb_bitwise(config):
    n, primes, data = _setup(config)
    batched = BatchedNTT(n, primes)
    values = batched.forward(data)
    got = batched.inverse(values)
    got_unscaled = batched.inverse(values, scale_by_n_inv=False)
    for j, q in enumerate(primes):
        ref = NegacyclicNTT(n, q)
        assert np.array_equal(got[j], ref.inverse(values[j]))
        assert np.array_equal(
            got_unscaled[j], ref.inverse(values[j], scale_by_n_inv=False))


@given(CONFIG)
@settings(max_examples=40, deadline=None)
def test_roundtrip_is_identity(config):
    n, primes, data = _setup(config)
    batched = BatchedNTT(n, primes)
    assert np.array_equal(batched.inverse(batched.forward(data)), data)


@given(CONFIG, st.integers(min_value=1, max_value=7))
@settings(max_examples=40, deadline=None)
def test_automorphism_ntt_matches_per_limb(config, step):
    n, primes, data = _setup(config)
    batched = BatchedNTT(n, primes)
    values = batched.forward(data)
    for g in (galois_element(step, n), conjugation_element(n)):
        got = batched.automorphism_ntt(values, g)
        for j, q in enumerate(primes):
            want = NegacyclicNTT(n, q).automorphism_ntt(values[j], g)
            assert np.array_equal(got[j], want), (g, j)


@given(CONFIG, st.integers(min_value=1, max_value=7))
@settings(max_examples=40, deadline=None)
def test_automorphism_coeff_matches_per_limb(config, step):
    n, primes, data = _setup(config)
    batched = BatchedNTT(n, primes)
    for g in (galois_element(step, n), conjugation_element(n)):
        got = batched.automorphism_coeff(data, g)
        for j, q in enumerate(primes):
            assert np.array_equal(got[j], automorphism(data[j], g, q))


@given(CONFIG, st.integers(min_value=1, max_value=7))
@settings(max_examples=30, deadline=None)
def test_poly_automorphism_domains_commute(config, step):
    """NTT-domain permutation == coeff-domain map + transform."""
    n, primes, data = _setup(config)
    basis = RnsBasis(primes)
    poly = RnsPolynomial(basis, data)
    g = galois_element(step, n)
    coeff_route = poly.apply_automorphism(g).to_ntt()
    ntt_route = poly.to_ntt().apply_automorphism(g)
    assert np.array_equal(coeff_route.data, ntt_route.data)


@given(CONFIG, st.integers(min_value=1, max_value=4))
@settings(max_examples=30, deadline=None)
def test_shoup_mac_matches_plain_mac(config, terms):
    """The division-free key-MAC path equals the reduce-per-step MAC."""
    n, primes, data = _setup(config)
    basis = RnsBasis(primes)
    rng = np.random.default_rng(data.sum() % (2**32))
    mk = lambda: RnsPolynomial(
        basis, rng.integers(0, np.array(primes)[:, None],
                            size=data.shape, dtype=np.int64), is_ntt=True)
    operands = [mk() for _ in range(terms)]
    consts = [mk() for _ in range(terms)]
    tables = [shoup_precompute(c) for c in consts]
    plain = pointwise_mac(zip(operands, consts))
    fast = pointwise_mac_shoup(operands, tables, basis)
    assert np.array_equal(plain.data, fast.data)
    assert fast.is_ntt


@given(CONFIG)
@settings(max_examples=30, deadline=None)
def test_plan_engine_matches_fresh_engine(config):
    """Cached/prefix-derived plans compute the same transform as a
    freshly built engine (twiddle sharing must not change results)."""
    n, primes, data = _setup(config)
    fresh = BatchedNTT(n, primes)
    planned = get_plan(n, primes).ntt
    assert np.array_equal(fresh.forward(data), planned.forward(data))


@given(CONFIG)
@settings(max_examples=40, deadline=None)
def test_inverse_ninv_fold_matches_explicit_scaling(config):
    """The 1/n scaling folded into the final-stage twiddles equals the
    explicit trailing multiply, bitwise, on both kernel paths."""
    n, primes, data = _setup(config)
    batched = BatchedNTT(n, primes)
    q_col = np.array(primes)[:, None]
    folded = batched.inverse(data)
    unscaled = batched.inverse(data, scale_by_n_inv=False)
    n_inv = np.array([pow(n, -1, q) for q in primes])[:, None]
    assert np.array_equal(folded, unscaled * n_inv % q_col)
    # ... and still matches the per-limb reference exactly.
    for j, q in enumerate(primes):
        assert np.array_equal(folded[j], NegacyclicNTT(n, q).inverse(data[j]))


@given(CONFIG)
@settings(max_examples=40, deadline=None)
def test_inverse_ninv_fold_survives_prefix_slicing(config):
    """Prefix-derived engines share the merged final-stage twiddle
    tables row-sliced; scaling must stay bitwise identical."""
    n, primes, data = _setup(config)
    parent = BatchedNTT(n, primes)
    want = parent.inverse(data)
    for count in range(1, len(primes) + 1):
        child = BatchedNTT._prefix_of(parent, count)
        assert np.array_equal(child.inverse(data[:count]), want[:count])


@given(CONFIG)
@settings(max_examples=40, deadline=None)
def test_pointwise_mul_shoup_matches_reference(config):
    """Shoup-frozen pointwise products (the multiply_plain path) are
    bitwise identical to the `%`-based pointwise_mul."""
    n, primes, data = _setup(config)
    basis = RnsBasis(primes)
    rng = np.random.default_rng((data.sum() + 1) % (2**32))
    ct_side = RnsPolynomial(basis, data, is_ntt=True)
    frozen_side = RnsPolynomial(
        basis, rng.integers(0, np.array(primes)[:, None],
                            size=data.shape, dtype=np.int64), is_ntt=True)
    table = shoup_precompute(frozen_side)
    want = ct_side.pointwise_mul(frozen_side)
    got = pointwise_mul_shoup(ct_side, table)
    assert np.array_equal(want.data, got.data)
    assert got.is_ntt
    # Prefix rows of the frozen table serve lower levels bitwise.
    if len(primes) > 1:
        sub_basis = RnsBasis(primes[:-1])
        sub_ct = ct_side.drop_to(sub_basis)
        sub_table = (table[0][:-1], table[1][:-1])
        sub_want = sub_ct.pointwise_mul(frozen_side.drop_to(sub_basis))
        assert np.array_equal(
            pointwise_mul_shoup(sub_ct, sub_table).data, sub_want.data)


# ----------------------------------------------------------------------
# Both implementations (``ntt_impl``: native C kernel, numpy kernels)
# ----------------------------------------------------------------------
# The fixture only pins which implementation the loader reports, which
# every hypothesis example shares.
IMPL_SETTINGS = settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])


def _per_row(n, primes, stack, op, **kw):
    """Row ``r`` of ``stack`` through the per-limb reference for limb
    ``r % len(primes)``."""
    return np.stack([getattr(ntt_table(n, primes[r % len(primes)]), op)(
        stack[r], **kw) for r in range(stack.shape[0])])


def _tiled(config, k):
    n, primes, _ = _setup(config)
    rng = np.random.default_rng(config[3] + k)
    stack = rng.integers(0, np.array(primes * k)[:, None],
                         size=(k * len(primes), n), dtype=np.int64)
    return n, primes, stack


def _assert_transforms_match_reference(engine, n, primes, stack):
    fwd = engine.forward(stack)
    assert np.array_equal(fwd, _per_row(n, primes, stack, "forward"))
    assert np.array_equal(engine.forward(stack, assume_reduced=True), fwd)
    for scale in (True, False):
        inv = engine.inverse(fwd, scale_by_n_inv=scale)
        assert np.array_equal(inv, _per_row(n, primes, fwd, "inverse",
                                            scale_by_n_inv=scale))
        assert np.array_equal(
            engine.inverse(fwd, scale_by_n_inv=scale, assume_reduced=True),
            inv)


@given(CONFIG, st.integers(min_value=1, max_value=3))
@IMPL_SETTINGS
def test_impl_tiled_stack_matches_per_limb(ntt_impl, config, k):
    n, primes, stack = _tiled(config, k)
    _assert_transforms_match_reference(BatchedNTT(n, primes), n, primes,
                                       stack)


@given(CONFIG, st.integers(min_value=1, max_value=3))
@IMPL_SETTINGS
def test_impl_reducing_entry_accepts_any_int64(ntt_impl, config, k):
    """``assume_reduced=False`` reduces negative and >= q int64 inputs
    exactly like an explicit ``% q`` first."""
    n, primes, stack = _tiled(config, k)
    q_col = np.array(primes * k, dtype=np.int64)[:, None]
    rng = np.random.default_rng(config[3])
    wild = stack + q_col * rng.integers(-2**30, 2**30, size=stack.shape)
    wild[0, 0] = np.iinfo(np.int64).min
    wild[-1, -1] = np.iinfo(np.int64).max
    engine = BatchedNTT(n, primes)
    assert np.array_equal(engine.forward(wild),
                          engine.forward(wild % q_col, assume_reduced=True))
    for scale in (True, False):
        assert np.array_equal(
            engine.inverse(wild, scale_by_n_inv=scale),
            engine.inverse(wild % q_col, scale_by_n_inv=scale,
                           assume_reduced=True))


@given(CONFIG, st.integers(min_value=1, max_value=3))
@IMPL_SETTINGS
def test_impl_derived_engines_match_per_limb(ntt_impl, config, k):
    """Prefix-sliced plans and ``get_stacked_plan`` row-gathered
    engines hand the kernels row-selected tables."""
    n, primes, stack = _tiled(config, k)
    limbs = len(primes)
    for count in range(1, limbs + 1):
        sub = primes[:count]
        rows = np.concatenate([np.arange(t * limbs, t * limbs + count)
                               for t in range(k)])
        engine = get_plan(n, primes).prefix(count).ntt
        _assert_transforms_match_reference(engine, n, sub, stack[rows])
    chain = primes + primes[:1]
    gathered = get_stacked_plan(n, [primes, primes[:1]]).ntt
    _assert_transforms_match_reference(
        gathered, n, chain, np.vstack([stack[:limbs], stack[:1]]))


@pytest.mark.parametrize("log_n", range(1, 13))
def test_impl_ring_degrees_match_per_limb(ntt_impl, log_n):
    """n = 2 .. 4096: odd and even stage counts, every special-cased
    small-block stage of the C kernel."""
    n = 1 << log_n
    primes = find_ntt_primes(30, n, 3)
    rng = np.random.default_rng(log_n)
    stack = rng.integers(0, np.array(primes * 2)[:, None], size=(6, n),
                         dtype=np.int64)
    _assert_transforms_match_reference(BatchedNTT(n, primes), n, primes,
                                       stack)


def _traced_impls(engine, stack):
    """The ``impl`` attribute of every transform span ``engine`` emits
    for one forward and one inverse of ``stack``."""
    was = TRACER.enabled
    TRACER.drain()
    TRACER.enabled = True
    try:
        engine.inverse(engine.forward(stack))
        events, _ = TRACER.drain()
    finally:
        TRACER.enabled = was
    return [(ev[EV_NAME], ev[EV_ATTRS]["impl"]) for ev in events
            if ev[EV_NAME] in ("ntt.forward", "ntt.inverse")]


def test_impl_31_bit_chain_takes_numpy_radix2(ntt_impl):
    """A 31-bit modulus breaks the C kernel's 4q < 2^32 bound: the
    engine runs the numpy radix-2 kernels whatever loaded."""
    n = 64
    primes = find_ntt_primes(31, n, 2)
    engine = BatchedNTT(n, primes)
    assert engine._native_ok is False
    stack = np.random.default_rng(7).integers(
        0, np.array(primes)[:, None], size=(2, n), dtype=np.int64)
    assert _traced_impls(engine, stack) == [("ntt.forward", "numpy"),
                                            ("ntt.inverse", "numpy")]
    _assert_transforms_match_reference(engine, n, primes, stack)


def test_impl_span_names_the_kernel_that_ran(ntt_impl):
    n = 64
    primes = find_ntt_primes(30, n, 2)
    stack = np.random.default_rng(8).integers(
        0, np.array(primes * 8)[:, None], size=(16, n), dtype=np.int64)
    impl = "c" if ntt_impl == "native" else "numpy"
    spans = _traced_impls(BatchedNTT(n, primes), stack)
    assert spans and all(got == impl for _, got in spans)
