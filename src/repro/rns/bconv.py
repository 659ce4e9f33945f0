"""Base conversion (BConv) and the RNS level-maintenance kernels.

BConv (paper eq. 3) converts residues from one prime basis to another
and is "almost as frequent as NTT/iNTT" in CKKS workloads.  EFFACT's
key decision (paper section III-1) is to *remove* dedicated BConv
hardware and execute the conversion as plain vector MULT/ADD
instructions; the functions here are written in exactly that
multiply-accumulate form so the compiler lowering in
:mod:`repro.compiler.lowering` matches the arithmetic one-to-one.

Every kernel is limb-parallel: the per-source-limb scaling is one
broadcast multiply against the basis' ``(L, 1)`` constant columns, and
the target accumulation reduces a whole ``(L_from, N)`` stack per
output limb (partial sums stay unreduced — each term is below ``2^31``,
so int64 holds hundreds of limbs).  The pre-reduced weight matrices
``q_hat[j] mod p_i`` are cached per basis pair in a bounded LRU wired
into :func:`repro.nttmath.batched.clear_caches`.

Two conversions run in the native library when it loaded and every
modulus is below ``2^31``, each keeping its numpy code here as fallback
and bitwise oracle: the fast conversion of :func:`base_convert_stack`
(``bconv``) and the exact centred conversion of
:func:`base_convert_centered_stack` (``bconv_exact``, also behind
:func:`base_convert_exact`), whose float correction both sum in row
order so they round the same double.

The merged variant (paper eq. 5 / section IV-D5) folds the iNTT 1/N
post-scaling and all Montgomery representation conversions into BConv's
pre-computed constants, using the single-Montgomery (SM) and
double-Montgomery (DM) representations.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..nttmath import native
from ..nttmath.batched import (
    SHOUP_Q_BOUND,
    get_plan,
    register_cache_clearer,
    release_scratch,
    require_canonical,
    require_shoup_bound,
    scratch,
    shoup_companion,
    shoup_mul_lazy,
    verify_inputs,
)
from ..nttmath.montgomery import BatchedMontgomery, MontgomeryContext
from ..obs import TRACER
from .basis import RnsBasis
from .poly import RnsPolynomial

#: Source limbs per exact-matmul chunk: 32 terms of
#: ``(2^31)*(2^16)`` stay below float64's 2^53 integer ceiling.
_MATMUL_CHUNK = 32

#: Batch-axis chunk bound for :func:`base_convert_stack` — keeps one
#: chunk's output-side accumulator slabs around half of L2.
_BCONV_BLOCK_BYTES = 1 << 19

#: LRU of per-basis-pair BConv constants: the float64 weight matrices
#: of the numpy path and the uint64 tables of the native kernel.
_WEIGHT_CACHE_MAX = 64
_WEIGHT_CACHE: "OrderedDict[tuple, object]" = OrderedDict()

register_cache_clearer(_WEIGHT_CACHE.clear)

#: LRU of per-limb modular-inverse columns (the ModDown ``P^-1`` and
#: rescale ``q_last^-1`` constants), keyed by ``(value, primes)``.
_INV_COL_CACHE: "OrderedDict[tuple, np.ndarray]" = OrderedDict()

register_cache_clearer(_INV_COL_CACHE.clear)


def _lru(cache: OrderedDict, key: tuple, build):
    """``cache[key]``, built on a miss, evicting the least recently
    used entry beyond :data:`_WEIGHT_CACHE_MAX`."""
    hit = cache.get(key)
    if hit is None:
        hit = cache[key] = build()
        while len(cache) > _WEIGHT_CACHE_MAX:
            cache.popitem(last=False)
    else:
        cache.move_to_end(key)
    return hit


def inverse_mod_col(value: int, primes: tuple[int, ...]) -> np.ndarray:
    """``value^-1 mod q`` per prime as an ``(L, 1)`` int64 column.

    Cached: the same inverse column is needed on every ModDown of a
    level (``P^-1``) and every rescale at a level (``q_last^-1``), and
    hoisted rotations hit the ModDown one once per step.
    """
    return _lru(_INV_COL_CACHE, (value, primes), lambda: np.array(
        [pow(value % q, -1, q) for q in primes],
        dtype=np.int64).reshape(-1, 1))


def _qhat_weights(from_basis: RnsBasis, to_basis: RnsBasis) -> np.ndarray:
    """``W[i, j] = q_hat[j] mod p_i`` — the BConv MMAD constants —
    held in float64 so the accumulation runs as BLAS matrix products."""
    return _lru(_WEIGHT_CACHE, (from_basis.primes, to_basis.primes),
                lambda: np.array([[q_hat % p for q_hat in from_basis.q_hat]
                                  for p in to_basis.primes],
                                 dtype=np.float64))


def _conv_table(from_basis: RnsBasis, to_basis: RnsBasis) -> np.ndarray:
    """The native conversions' constants for one basis pair as one
    packed uint64 table, in the layout ``ntt.c`` documents: source
    moduli, ``q_hat^-1`` with its Shoup companions, target moduli, the
    ``(L_to, L_from)`` weights ``q_hat_j mod p_i`` and the ``Q mod p_i``
    column (read by the exact conversion only).  Shared by ``bconv``
    and ``bconv_exact``; built on first use, never at keygen."""
    def build():
        q_u = from_basis.q_col.astype(np.uint64)
        s_u = from_basis.q_hat_inv_col.astype(np.uint64)
        w_u = np.array([[q_hat % p for q_hat in from_basis.q_hat]
                        for p in to_basis.primes], dtype=np.uint64)
        qmp = reduce_mod_col(from_basis.modulus, to_basis.primes)
        return np.concatenate([a.ravel() for a in (
            q_u, s_u, shoup_companion(s_u, q_u),
            to_basis.q_col.astype(np.uint64), w_u, qmp.astype(np.uint64))])

    return _lru(_WEIGHT_CACHE,
                ("conv", from_basis.primes, to_basis.primes), build)


def _shoup_kernel(*bases: RnsBasis):
    """The native library for a conversion over ``bases``: loaded and
    every modulus below ``2^31`` (the ``_shoup_tail_ok`` precondition
    of the Shoup kernels), else ``None``."""
    if max(q for basis in bases for q in basis.primes) >= SHOUP_Q_BOUND:
        return None
    return native.kernel()


def _scaled_residues(data: np.ndarray, basis: RnsBasis) -> np.ndarray:
    """``v_j = a_j * qhat_inv_j mod q_j`` — one broadcast Shoup MMUL
    over the stack, canonicalised so the fast-BConv overshoot stays
    bitwise identical to the per-limb reference.

    ``data`` is any int64 ``(L, M)`` stack over ``basis`` — the column
    count is free, which is how :func:`base_convert_stack` runs ``k``
    polynomials through one call.  Returns a pooled uint64 buffer; consume
    it before the next BConv.  Under ``REPRO_VERIFY=1`` a non-canonical
    row raises :class:`~repro.nttmath.batched.NonCanonicalInputError`
    (the ``uint64`` copy below would turn a negative value into
    garbage).
    """
    if verify_inputs():
        require_canonical(data, basis.q_col, "bconv")
    q_u = basis.q_col.astype(np.uint64)
    s_u = basis.q_hat_inv_col.astype(np.uint64)
    s_sh = shoup_companion(s_u, q_u)
    shape = data.shape
    x = scratch("bcv_x", shape)
    hi = scratch("bcv_hi", shape)
    v = scratch("bcv_v", shape)
    np.copyto(x, data, casting="unsafe")
    shoup_mul_lazy(x, s_u, s_sh, q_u, out=v, hi=hi)
    np.subtract(v, q_u, out=hi)
    np.minimum(v, hi, out=v)
    release_scratch("bcv_x", shape)
    release_scratch("bcv_hi", shape)
    # bcv_v stays borrowed: the caller owns it until it releases.
    return v


def _exact_matmul(weights: np.ndarray, v: np.ndarray,
                  p_col: np.ndarray) -> np.ndarray:
    """``acc[i] = sum_j v_j * weights[i, j]`` exactly via float64 BLAS.

    ``v`` (uint64, entries < 2^31) splits into 16-bit halves so every
    dot product over a 32-limb chunk stays below 2^53 and remains
    exact.  The returned int64 accumulator awaits a final ``% p``
    (callers fold their own corrections in first); residues after that
    reduction are bitwise identical to a reduce-every-step loop.
    """
    v_hi = (v >> np.uint64(16)).astype(np.float64)
    v_lo = (v & np.uint64(0xFFFF)).astype(np.float64)
    acc: np.ndarray | None = None
    for lo in range(0, v.shape[0], _MATMUL_CHUNK):
        sel = slice(lo, lo + _MATMUL_CHUNK)
        s_hi = (weights[:, sel] @ v_hi[sel]).astype(np.int64)
        s_lo = (weights[:, sel] @ v_lo[sel]).astype(np.int64)
        part = ((s_hi % p_col) << 16) + s_lo
        acc = part if acc is None else acc + part
    assert acc is not None
    return acc


def _weighted_sums(v: np.ndarray, from_basis: RnsBasis,
                   to_basis: RnsBasis) -> tuple[np.ndarray, np.ndarray]:
    """``acc[i] = sum_j v_j * (q_hat_j mod p_i)`` exactly, plus the
    target-modulus column (the BConv MMAD as BLAS matrix products)."""
    weights = _qhat_weights(from_basis, to_basis)
    p_col = np.array(to_basis.primes, dtype=np.int64).reshape(-1, 1)
    return _exact_matmul(weights, v, p_col), p_col


def _base_convert_data(data: np.ndarray, from_basis: RnsBasis,
                       to_basis: RnsBasis) -> np.ndarray:
    """Raw-array fast BConv: ``(L_from, M) -> (L_to, M)`` int64.

    Column-count agnostic — :func:`base_convert_stack` widens ``M``
    to ``k*N`` so ``k`` polynomials convert in a single BLAS
    accumulation."""
    tr = TRACER
    with tr.span("bconv.fast", rows_in=data.shape[0],
                 rows_out=len(to_basis), impl="numpy"):
        v = _scaled_residues(data, from_basis)
        acc, p_col = _weighted_sums(v, from_basis, to_basis)
        release_scratch("bcv_v", v.shape)
        result = acc % p_col
    if tr.enabled:
        tr.count("bconv.rows", data.shape[0])
    return result


def base_convert(poly: RnsPolynomial, to_basis: RnsBasis) -> RnsPolynomial:
    """Fast base conversion ``BConv_{C->B}`` (paper eq. 3).

    The result equals ``a + e*Q`` for a small non-negative integer
    ``e < l`` (the classic fast-BConv overshoot), which downstream
    CKKS operations absorb into noise, exactly as in RNS-CKKS.
    Input must be in the coefficient domain (BConv aggregates
    coefficient-wise, which is why it serialises against NTT in the
    paper's pipeline analysis).
    """
    if poly.is_ntt:
        raise ValueError("BConv operates on coefficient-domain data")
    return RnsPolynomial(to_basis,
                         _base_convert_data(poly.data, poly.basis, to_basis),
                         is_ntt=False)


def reduce_mod_col(value: int, primes: tuple[int, ...]) -> np.ndarray:
    """``value mod q`` per prime as an ``(L, 1)`` int64 column, cached
    like :func:`inverse_mod_col` (the exact/centred conversions hit the
    same ``Q mod p`` and ``Q//2 mod p`` constants on every call)."""
    return _lru(_INV_COL_CACHE, ("mod", value, primes), lambda: np.array(
        [value % q for q in primes], dtype=np.int64).reshape(-1, 1))


def _centered_numpy(data: np.ndarray, from_basis: RnsBasis,
                    to_basis: RnsBasis) -> np.ndarray:
    """The numpy twin of the exact centred BConv: ``(L_from, M) ->
    (L_to, M)``, column-count agnostic.

    ``data`` holds residues of a value ``a`` in ``[0, Q)``; the result
    holds the *centred* representative ``cmod(a, Q)`` (in
    ``(-Q/2, Q/2)``) reduced into each target prime.  The fast-BConv
    overshoot is removed by the floating-point correction
    ``e = round(sum_j v_j / q_j)`` (the HPS trick): the fractional part
    of that sum is exactly ``a/Q``, so rounding — rather than
    flooring — also subtracts the extra ``Q`` whenever ``a > Q/2``,
    which is precisely the centring.  The float sum adds one row at a
    time, ``j = 0 .. L_from-1`` — the order the native ``bconv_exact``
    sums in, so both round the same double — and ``np.rint`` rounds
    half to even.
    """
    v = _scaled_residues(data, from_basis)
    q_f = from_basis.q_col.astype(np.float64)
    frac = v[0].astype(np.float64) / q_f[0]
    for j in range(1, v.shape[0]):
        frac += v[j].astype(np.float64) / q_f[j]
    e = np.rint(frac).astype(np.int64)
    acc, p_col = _weighted_sums(v, from_basis, to_basis)
    release_scratch("bcv_v", v.shape)
    q_mod_p = reduce_mod_col(from_basis.modulus, to_basis.primes)
    return (acc - e * q_mod_p) % p_col


def base_convert_exact(poly: RnsPolynomial,
                       to_basis: RnsBasis) -> RnsPolynomial:
    """Base conversion with floating-point correction of the overshoot.

    Computes ``e = round(sum_j v_j / q_j)`` and subtracts ``e*Q``,
    giving the exact centred representative: the ``k = 1`` case of
    :func:`base_convert_centered_stack` (same kernels, same span).
    Used where the fast variant's ``+eQ`` error is not acceptable
    (BFV's per-polynomial reference lift, BGV's centred ``mod t``).
    """
    if poly.is_ntt:
        raise ValueError("BConv operates on coefficient-domain data")
    return RnsPolynomial(
        to_basis, base_convert_centered_stack(poly.data, poly.basis,
                                              to_basis, 1), is_ntt=False)


#: The centred conversion *is* the exact conversion (see above); the
#: alias keeps call sites self-documenting about which property they
#: rely on.
base_convert_centered = base_convert_exact


def base_convert_centered_stack(stack: np.ndarray, from_basis: RnsBasis,
                                to_basis: RnsBasis, k: int) -> np.ndarray:
    """Exact centred conversion of ``k`` stacked polynomials at once.

    ``stack`` is a coefficient-domain ``(k*L_from, M)`` block (one
    polynomial after another) of canonical residues; the result is the
    ``(k*L_to, M)`` block of each column's centred representative
    ``cmod(a, Q)`` reduced into the target primes.  This is the kernel
    under BFV's centred tensor lift and BGV's ``t``-corrected ModDown
    (and, with ``k = 1``, under :func:`base_convert_exact`).

    With the native library loaded and every modulus of both bases
    below ``2^31``, the C ``bconv_exact`` kernel converts the stack as
    it lies, in column blocks; otherwise the numpy twin
    :func:`_centered_numpy` runs once on ``(L_from, k*M)`` wide rows.
    Both sum the float correction in the same row order, so rows are
    bitwise identical to the per-polynomial conversion either way.
    Traced as one ``bconv.exact`` span naming the implementation; it
    counts ``L_from`` ``bconv.rows`` under both.  Under
    ``REPRO_VERIFY=1`` a non-canonical row raises
    :class:`~repro.nttmath.batched.NonCanonicalInputError` naming it,
    and the C entry checks the ``2^31`` bound
    (:class:`~repro.nttmath.batched.ShoupBoundError`).
    """
    l_from = len(from_basis)
    l_to = len(to_basis)
    m = stack.shape[1]
    if stack.shape[0] != k * l_from:
        raise ValueError(f"expected a {k * l_from}-row stack, got "
                         f"{stack.shape[0]}")
    lib = _shoup_kernel(from_basis, to_basis)
    if verify_inputs():
        require_canonical(stack, from_basis.q_col, "bconv_exact")
        if lib is not None:
            require_shoup_bound(from_basis.primes + to_basis.primes,
                                "bconv_exact")
    tr = TRACER
    with tr.span("bconv.exact", rows_in=k * l_from, rows_out=k * l_to,
                 impl="numpy" if lib is None else "c"):
        if lib is None:
            out = _wide_to_stack(_centered_numpy(
                _stack_to_wide(stack, l_from, k), from_basis, to_basis), k)
        else:
            out = np.empty((k * l_to, m), dtype=np.int64)
            if lib.bconv_exact(out, np.ascontiguousarray(stack), k, l_from,
                               l_to, m, _conv_table(from_basis,
                                                    to_basis)):
                raise MemoryError("native exact BConv kernel: out of "
                                  "memory")
    if tr.enabled:
        tr.count("bconv.rows", l_from)
    return out


def mod_up(poly: RnsPolynomial, full_basis: RnsBasis) -> RnsPolynomial:
    """Extend residues from a sub-basis to ``full_basis``.

    Primes already present keep their residues; missing primes are
    filled by fast BConv.  This is the ModUp step of hybrid
    key-switching (paper section II-C).
    """
    if poly.is_ntt:
        raise ValueError("mod_up operates on coefficient-domain data")
    present = {p: j for j, p in enumerate(poly.basis.primes)}
    missing = RnsBasis([p for p in full_basis.primes if p not in present])
    converted = base_convert(poly, missing)
    rows = np.array([present.get(p, -1) for p in full_basis.primes])
    data = np.empty((len(full_basis), poly.n), dtype=np.int64)
    kept = rows >= 0
    data[kept] = poly.data[rows[kept]]
    # missing was built in full_basis order, so its rows line up with
    # the ~kept positions as-is
    data[~kept] = converted.data
    return RnsPolynomial(full_basis, data, is_ntt=False)


def _mod_down_data(data: np.ndarray, q_basis: RnsBasis,
                   p_basis: RnsBasis) -> np.ndarray:
    """Raw-array ModDown on a ``(L_q + L_p, M)`` stack (P limbs last):
    ``result = (a - BConv_{P->Q}(a mod P)) * P^-1 mod Q``."""
    lq = len(q_basis)
    correction = _base_convert_data(data[lq:], p_basis, q_basis)
    p_inv_col = inverse_mod_col(p_basis.modulus, q_basis.primes)
    q_col = q_basis.q_col
    return (data[:lq] - correction) % q_col * p_inv_col % q_col


def mod_down(poly: RnsPolynomial, q_basis: RnsBasis,
             p_basis: RnsBasis) -> RnsPolynomial:
    """ModDown: divide by ``P`` and return to the Q basis.

    ``poly`` lives on ``q_basis + p_basis`` (the P limbs last):
    ``result = (a - BConv_{P->Q}(a mod P)) * P^-1 mod Q``.
    """
    if poly.is_ntt:
        raise ValueError("mod_down operates on coefficient-domain data")
    lq, lp = len(q_basis), len(p_basis)
    if len(poly.basis) != lq + lp:
        raise ValueError("input basis is not Q + P")
    return RnsPolynomial(q_basis, _mod_down_data(poly.data, q_basis,
                                                 p_basis), is_ntt=False)


def _stack_to_wide(stack: np.ndarray, rows: int, k: int) -> np.ndarray:
    """``(k*R, M)`` polynomial stack -> ``(R, k*M)`` wide stack (all k
    copies of limb j side by side), so per-limb constants broadcast
    once and the BConv BLAS accumulation runs a single k-times-as-wide
    product."""
    k_r, m = stack.shape
    if k_r != k * rows:
        raise ValueError(f"expected a {k * rows}-row stack, got {k_r}")
    return stack.reshape(k, rows, m).transpose(1, 0, 2).reshape(rows,
                                                                k * m)


def _wide_to_stack(wide: np.ndarray, k: int) -> np.ndarray:
    """Inverse of :func:`_stack_to_wide`."""
    rows, k_m = wide.shape
    m = k_m // k
    return wide.reshape(rows, k, m).transpose(1, 0, 2).reshape(k * rows, m)


def base_convert_stack(stack: np.ndarray, from_basis: RnsBasis,
                       to_basis: RnsBasis, k: int) -> np.ndarray:
    """Fast BConv of ``k`` stacked polynomials.

    ``stack`` is a coefficient-domain ``(k*L_from, M)`` block (one
    polynomial after another) of canonical residues; all ``k`` share
    the conversion constants.  Rows are bitwise identical to
    :func:`base_convert` per polynomial.  This is the kernel under the
    key switch's digit lift and its NTT-domain fused ModDown (the
    ``ks = (acc - NTT(BConv_P(acc))) * P^-1`` dataflow the IR lowering
    emits), widened across the cross-ciphertext batch axis.

    With the native library loaded and every modulus below ``2^31``,
    the C ``bconv`` kernel converts the stack as it lies, in column
    blocks: a Shoup scale by ``q_hat^-1``, then per target limb the sum
    of the weighted residues, in uint32 lanes of lazy Shoup products by
    ``q_hat_j mod p_i`` (companions built per call) when every target
    modulus lies below ``2^30``, else as a one-multiply uint64 sum
    reduced once.
    Otherwise the numpy path runs the scaling Shoup multiply and the
    float64 BLAS accumulation on ``(L_from, k*M)`` wide rows.  Both
    land the same canonical residues.  Under ``REPRO_VERIFY=1`` a
    non-canonical row raises
    :class:`~repro.nttmath.batched.NonCanonicalInputError` naming it,
    and the C entry checks the ``2^31`` bound
    (:class:`~repro.nttmath.batched.ShoupBoundError`).
    """
    l_from = len(from_basis)
    l_to = len(to_basis)
    m = stack.shape[1]
    if stack.shape[0] != k * l_from:
        raise ValueError(f"expected a {k * l_from}-row stack, got "
                         f"{stack.shape[0]}")
    lib = _shoup_kernel(from_basis, to_basis)
    if verify_inputs():
        require_canonical(stack, from_basis.q_col, "bconv")
        if lib is not None:
            require_shoup_bound(from_basis.primes + to_basis.primes,
                                "bconv")
    # Chunk the batch axis so the BLAS accumulator slabs stay
    # cache-resident: one wide pass over all k spills its output-side
    # temporaries once the stack outgrows L2, costing more than the
    # saved call overhead.  Columns never interact, so chunking is
    # bitwise neutral.
    kc = max(1, _BCONV_BLOCK_BYTES // (l_to * m * 8))
    if lib is not None:
        tr = TRACER
        with tr.span("bconv.fast", rows_in=k * l_from, rows_out=k * l_to,
                     impl="c"):
            out = np.empty((k * l_to, m), dtype=np.int64)
            if lib.bconv(out, np.ascontiguousarray(stack), k, l_from,
                         l_to, m, _conv_table(from_basis, to_basis)):
                raise MemoryError("native BConv kernel: out of memory")
        if tr.enabled:
            # The row passes the numpy path's wide chunks would count,
            # so ``bconv.rows`` does not depend on the implementation.
            tr.count("bconv.rows", l_from * -(-k // kc))
        return out
    if k <= kc:
        wide = _stack_to_wide(stack, l_from, k)
        return _wide_to_stack(_base_convert_data(wide, from_basis,
                                                 to_basis), k)
    out = np.empty((k * l_to, m), dtype=np.int64)
    for lo in range(0, k, kc):
        kk = min(kc, k - lo)
        wide = _stack_to_wide(stack[lo * l_from:(lo + kk) * l_from],
                              l_from, kk)
        out[lo * l_to:(lo + kk) * l_to] = _wide_to_stack(
            _base_convert_data(wide, from_basis, to_basis), kk)
    return out


def rescale_last(poly: RnsPolynomial) -> RnsPolynomial:
    """CKKS rescale: divide by the last limb's prime and drop it.

    ``b_j = (a_j - a_l) * q_l^-1 mod q_j``; requires the coefficient
    domain because limb ``l`` must be re-reduced modulo every other
    prime (the modulus-switch data dependency of paper Fig. 1b).
    """
    if poly.is_ntt:
        raise ValueError("rescale operates on coefficient-domain data")
    if len(poly.basis) < 2:
        raise ValueError("cannot rescale a single-limb polynomial")
    last = poly.data[-1]
    q_last = poly.basis.primes[-1]
    new_basis = poly.basis.prefix(len(poly.basis) - 1)
    # Centre the dropped limb so rounding is to nearest.
    centred = np.where(last > q_last // 2, last - q_last, last)
    inv_col = inverse_mod_col(q_last, new_basis.primes)
    q_col = new_basis.q_col
    data = (poly.data[:-1] - centred) % q_col * inv_col % q_col
    return RnsPolynomial(new_basis, data, is_ntt=False)


class MergedBConv:
    """BConv with iNTT post-scale and Montgomery conversions folded in.

    Reproduces paper eq. 5: input limbs arrive in SM representation
    *without* the iNTT 1/N scaling (``BatchedNTT.inverse(...,
    scale_by_n_inv=False)``); the first constant is pre-multiplied by
    ``1/N`` and kept NM, the second constant is kept DM, and the output
    lands in SM representation with zero explicit conversion steps.
    """

    def __init__(self, from_basis: RnsBasis, to_basis: RnsBasis, n: int):
        self.from_basis = from_basis
        self.to_basis = to_basis
        self.n = n
        self._mont_from = BatchedMontgomery(from_basis.primes)
        self._mont_to = [MontgomeryContext(p) for p in to_basis.primes]
        # (qhat_inv_j * 1/N) mod q_j, kept in the NM representation.
        self._c1_nm_col = np.array(
            [from_basis.q_hat_inv[j] * pow(n, -1, q) % q
             for j, q in enumerate(from_basis.primes)],
            dtype=np.int64).reshape(-1, 1)
        # (qhat_j mod p_i) in the DM representation of p_i.
        self._c2_dm_cols = []
        for i, p in enumerate(to_basis.primes):
            col = np.array(
                [self._mont_to[i].to_dm(from_basis.q_hat[j] % p)
                 for j in range(len(from_basis))],
                dtype=np.int64).reshape(-1, 1)
            self._c2_dm_cols.append(col)
        # The same DM constants as a float64 weight matrix for the BLAS
        # accumulation path, plus R^-1 mod p_i to fold every term's
        # Montgomery reduction into one per-output-limb multiply.
        self._c2_dm_mat = np.concatenate(
            [col.reshape(1, -1) for col in self._c2_dm_cols]
        ).astype(np.float64)
        self._p_col = np.array(to_basis.primes,
                               dtype=np.int64).reshape(-1, 1)
        self._rinv_col = np.array(
            [pow(mont.r, -1, p) for p, mont in zip(to_basis.primes,
                                                   self._mont_to)],
            dtype=np.int64).reshape(-1, 1)

    def apply(self, unscaled_sm_limbs: np.ndarray) -> np.ndarray:
        """Convert SM-represented, 1/N-unscaled limbs; returns SM limbs.

        ``unscaled_sm_limbs`` has shape (l, n): limb j is the raw output
        of an iNTT butterfly network (no 1/N) on SM-represented data.

        The accumulation runs as exact float64 BLAS matrix products
        (the :func:`_exact_matmul` trick): since every term satisfies
        ``MontMul(v_j, c_ij) = v_j * c_ij * R^-1 (mod p_i)``, the sum
        of per-term Montgomery products equals ``R^-1 * sum_j v_j *
        c_ij (mod p_i)`` — one scalar multiply per output limb replaces
        per-term REDC, and the canonical residues match
        :meth:`apply_looped` bitwise.
        """
        tr = TRACER
        with tr.span("bconv.merged",
                     rows_in=len(self.from_basis),
                     rows_out=len(self.to_basis)):
            limbs = np.asarray(unscaled_sm_limbs, dtype=np.int64)
            if limbs.shape != (len(self.from_basis), self.n):
                raise ValueError("input shape mismatch")
            # MontMul(SM, NM) -> NM: one batched multiply also applies
            # 1/N.
            v_nm = self._mont_from.mont_mul(limbs, self._c1_nm_col)
            acc = _exact_matmul(self._c2_dm_mat, v_nm.astype(np.uint64),
                                self._p_col)
            result = acc % self._p_col * self._rinv_col % self._p_col
        if tr.enabled:
            tr.count("bconv.rows", len(self.from_basis))
        return result

    def apply_looped(self, unscaled_sm_limbs: np.ndarray) -> np.ndarray:
        """Per-target-limb MontMul loop — the differential reference
        :meth:`apply`'s BLAS path must match bitwise."""
        limbs = np.asarray(unscaled_sm_limbs, dtype=np.int64)
        if limbs.shape != (len(self.from_basis), self.n):
            raise ValueError("input shape mismatch")
        v_nm = self._mont_from.mont_mul(limbs, self._c1_nm_col)
        out = np.empty((len(self.to_basis), self.n), dtype=np.int64)
        for i, (p, mont) in enumerate(zip(self.to_basis.primes,
                                          self._mont_to)):
            # MontMul(NM, DM) -> SM: lands back in SM for free.
            terms = mont.vec_mont_mul(v_nm % p, self._c2_dm_cols[i])
            out[i] = terms.sum(axis=0) % p
        return out

    def reference(self, coeff_limbs: np.ndarray) -> np.ndarray:
        """Plain-representation BConv of already-scaled coefficients,
        the golden model the merged path must match (up to the fast
        BConv ``+eQ`` overshoot being identical)."""
        poly = RnsPolynomial(self.from_basis, coeff_limbs, is_ntt=False)
        return base_convert(poly, self.to_basis).data


def intt_then_merged_bconv(ntt_limbs_sm: np.ndarray, from_basis: RnsBasis,
                           to_basis: RnsBasis, n: int) -> np.ndarray:
    """The full ``iNTT -> BConv`` flow with merged constants.

    Demonstrates (and lets tests verify) that running the unscaled
    batched iNTT butterflies on SM data followed by :class:`MergedBConv`
    produces the same residues as the naive scale-then-convert flow.
    """
    merged = MergedBConv(from_basis, to_basis, n)
    plan = get_plan(n, from_basis.primes)
    unscaled = plan.ntt.inverse(np.asarray(ntt_limbs_sm, dtype=np.int64),
                                scale_by_n_inv=False)
    return merged.apply(unscaled)
