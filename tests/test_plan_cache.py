"""The basis-keyed plan cache: bounded, clearable, prefix-sharing.

The seed kept NTT kernels in an unbounded module-global dict keyed by
``(n, q)`` — a long-running service cycling through parameter sets
would grow it forever.  The batched engine moves all caching onto
:class:`BatchedPlan` objects held in a bounded LRU with an explicit
``clear_caches()`` escape hatch, and derives plans for prefix bases
(CKKS level drops) by slicing the superset plan's tables instead of
rebuilding them.
"""

import numpy as np

from repro.nttmath import batched
from repro.nttmath.batched import (
    PLAN_CACHE_MAX,
    clear_caches,
    get_plan,
    plan_cache_size,
)
from repro.nttmath.primes import find_ntt_primes
from repro.rns.basis import RnsBasis
from repro.rns.poly import RnsPolynomial, ntt_table

N = 32
PRIMES = tuple(find_ntt_primes(28, N, 4))


def test_plan_is_cached_and_reused():
    clear_caches()
    p1 = get_plan(N, PRIMES)
    p2 = get_plan(N, PRIMES)
    assert p1 is p2
    assert plan_cache_size() == 1


def test_repeated_context_creation_does_not_grow_cache():
    """Rebuilding identical contexts (the repeated-keygen pattern)
    reuses cached plans instead of accumulating new entries."""
    clear_caches()
    rng = np.random.default_rng(7)
    sizes = []
    for _ in range(5):
        basis = RnsBasis(PRIMES)          # fresh basis object each time
        poly = RnsPolynomial.random_uniform(basis, N, rng)
        ntt = poly.to_ntt()
        for level in range(len(PRIMES), 0, -1):
            ntt.drop_to(basis.prefix(level)).to_coeff()
        sizes.append(plan_cache_size())
    assert sizes[0] == sizes[-1], f"cache grew across contexts: {sizes}"
    assert sizes[-1] <= len(PRIMES) + 1


def test_cache_is_bounded_lru():
    """Cycling through more parameter sets than the bound evicts old
    plans instead of growing without limit."""
    clear_caches()
    primes = find_ntt_primes(24, 8, PLAN_CACHE_MAX + 8)
    for q in primes:
        get_plan(8, (q,))
    assert plan_cache_size() <= PLAN_CACHE_MAX


def test_clear_caches_empties_everything():
    clear_caches()
    get_plan(N, PRIMES)
    table = ntt_table(N, PRIMES[0])
    assert plan_cache_size() > 0
    clear_caches()
    assert plan_cache_size() == 0
    assert not batched._SCRATCH
    # a fresh lookup rebuilds rather than resurrecting stale objects
    assert ntt_table(N, PRIMES[0]) is not table


def test_ntt_table_does_not_build_batched_engine():
    """Scalar-kernel users (BFV/BGV packing moduli) must not pay for
    stacked twiddle tables they never use."""
    clear_caches()
    table = ntt_table(N, PRIMES[0])
    assert table.n == N
    plan = get_plan(N, (PRIMES[0],))
    assert plan._ntt is None


def test_prefix_plan_shares_twiddle_memory():
    """A level-dropped basis derives its plan by slicing the superset
    plan's tables — a view, not a rebuilt copy."""
    clear_caches()
    full = get_plan(N, PRIMES)
    full.ntt  # build the superset engine, as real ciphertext ops would
    pre = get_plan(N, PRIMES[:2])
    assert pre.primes == PRIMES[:2]
    assert np.shares_memory(pre.ntt._psi_u, full.ntt._psi_u)
    assert np.shares_memory(pre.ntt._psi_sh, full.ntt._psi_sh)
    # and it still transforms correctly (covered bitwise elsewhere)
    rng = np.random.default_rng(3)
    data = rng.integers(0, np.array(PRIMES[:2])[:, None], size=(2, N),
                        dtype=np.int64)
    assert np.array_equal(pre.ntt.inverse(pre.ntt.forward(data)), data)


def test_ntt_table_identity_preserved():
    """The seed-era ``ntt_table(n, q) is ntt_table(n, q)`` contract."""
    t1 = ntt_table(N, PRIMES[0])
    t2 = ntt_table(N, PRIMES[0])
    assert t1 is t2


def test_bconv_weight_cache_cleared_with_plans():
    from repro.rns import bconv
    from repro.rns.bconv import base_convert

    clear_caches()
    basis = RnsBasis(PRIMES)
    other = RnsBasis(find_ntt_primes(30, N, 2, exclude=PRIMES))
    rng = np.random.default_rng(11)
    base_convert(RnsPolynomial.random_uniform(basis, N, rng), other)
    assert len(bconv._WEIGHT_CACHE) > 0
    clear_caches()
    assert len(bconv._WEIGHT_CACHE) == 0


def test_stacked_plan_dedupes_repeated_bases():
    """With ``dedupe=True`` (the cross-ciphertext batch path), k
    ciphertexts on one chain share the donor plan: no k copies of the
    twiddle rows, and no per-k cache entries — the plan's memory
    footprint (and the cache size) is independent of k."""
    from repro.nttmath.batched import get_stacked_plan

    clear_caches()
    donor = get_plan(N, PRIMES)
    baseline = plan_cache_size()
    for k in (1, 2, 3, 8, 16):
        plan = get_stacked_plan(N, (PRIMES,) * k, dedupe=True)
        assert plan is donor
        assert plan.primes == PRIMES
    assert plan_cache_size() == baseline
    # Without the opt-in, repeated chains keep the dedicated
    # row-gathered engine (the established pair/digit-stack layout);
    # each distinct stack is one cached plan.
    pair = get_stacked_plan(N, (PRIMES, PRIMES))
    assert pair is not donor
    assert pair is get_stacked_plan(N, (PRIMES, PRIMES))
    assert plan_cache_size() == baseline + 1
    # Mixed chains materialize a gathered engine even under dedupe.
    mixed = get_stacked_plan(N, (PRIMES, PRIMES[:2]), dedupe=True)
    assert mixed is not donor
    assert mixed.primes == PRIMES + PRIMES[:2]
    assert plan_cache_size() == baseline + 2
