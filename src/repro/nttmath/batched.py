"""Batched limb-parallel negacyclic NTT engine.

The per-limb kernels in :mod:`repro.nttmath.ntt` transform one ``(N,)``
residue row at a time, so an ``(L, N)`` RNS stack pays ``L`` Python
round trips per butterfly stage.  EFFACT's vector ISA treats the limb
axis as just more vector lanes (paper Fig. 1): every level-1 operation
is issued once over the whole residue stack.  :class:`BatchedNTT`
mirrors that dataflow in numpy by carrying the per-limb moduli as an
``(L, 1)`` column vector and stacked bit-reversed twiddle tables of
shape ``(L, N)``, so each butterfly stage is a handful of vector
expressions over all limbs at once.

Three implementation techniques keep integer division out of the hot
loops while leaving every canonical output bitwise identical to the
``%``-based per-limb reference (the property
:mod:`tests.test_batched_ntt` pins down):

* **Shoup multiplication** — each twiddle ``w`` carries a companion
  ``w' = floor(w*2^32/q)``; then ``x*w - ((x*w') >> 32)*q`` equals
  ``x*w mod q`` up to one additive ``q``.  Two multiplies and a shift
  replace the division.
* **Lazy (Harvey-style) reduction** — intermediate values ride in
  ``[0, 2q)`` / ``[0, 4q)`` and are folded down with a wraparound
  ``minimum`` trick; only the final canonicalisation lands in
  ``[0, q)``.  The radix-2 stages fold each multiplier input below
  ``2q`` before its Shoup product, so they hold for every ``q < 2^31``.
* **Workspace pooling** — stage temporaries come from a tagged scratch
  pool instead of fresh 100KB+ allocations per vector op (single
  threaded, like the rest of this repository).

Forward and inverse transforms run the same radix-2 stages in C
(:mod:`repro.nttmath.native`) whenever that kernel library loaded and
every modulus is within its ``q < 2^30`` bound; otherwise — no ``cc``,
a failed build, a 31-bit modulus — the numpy stages above run.  Both
return canonical residues of the same transform, so the choice never
changes an output bit, and the numpy stages stay the C rows' bitwise
oracle.

:class:`BatchedPlan` bundles the engine with lazily built per-limb
scalar kernels and is cached per ``(n, primes)`` in a bounded LRU.
RNS-CKKS level dropping walks prefixes of one prime chain, so a plan
for a prefix basis is derived from any cached superset plan by row
slicing — a zero-copy view, not a rebuild.
"""

from __future__ import annotations

import traceback
from collections import OrderedDict
from time import perf_counter
from typing import Callable

import numpy as np

from ..core.env import ENV_VERIFY, env_flag
from ..obs import TRACER
from . import native as _native
from .bitrev import bit_reverse_indices
from .ntt import NegacyclicNTT, _check_modulus
from .primes import root_of_unity

_SHIFT = np.uint64(32)

#: Cache-block budget (bytes of stack data per block) for the wide
#: transforms: one block plus its half-stack stage scratch should
#: fit comfortably in a per-core L2.  The stage loops stream the whole
#: stack once per butterfly stage, so blocks that outgrow L2 pay
#: log2(n) memory round trips instead of one.
_NTT_BLOCK_BYTES = 1 << 18

# ----------------------------------------------------------------------
# Tagged scratch pool (single-threaded; cleared by clear_caches)
# ----------------------------------------------------------------------
_SCRATCH: dict[tuple, np.ndarray] = {}

#: Environment switch for the debug borrow checker.  When set to a
#: non-empty value other than ``"0"``, every :func:`scratch` call is a
#: *borrow* that must be paired with :func:`release_scratch`: borrowing
#: a ``(tag, shape)`` key that is already live raises
#: :class:`ScratchAliasError` (two live borrows alias one buffer), and
#: releasing poisons the buffer so use-after-release reads garbage
#: loudly instead of stale-but-plausible data.
SCRATCH_DEBUG_ENV = "REPRO_SCRATCH_DEBUG"

#: Poison pattern written on release in debug mode — far outside any
#: canonical residue, so arithmetic on a released buffer corrupts
#: results detectably rather than silently reusing stale values.
SCRATCH_POISON = np.uint64(0xDEADDEADDEADDEAD)

_LIVE_BORROWS: dict[tuple, str] = {}


class ScratchAliasError(RuntimeError):
    """Two overlapping live borrows of one pooled scratch buffer."""


#: Lazily-sampled cache of the debug flag: ``scratch`` sits on the NTT
#: hot path (tens of thousands of calls per executed program), so the
#: environment is read once and re-sampled after :func:`clear_caches`
#: (which the debug-mode test fixtures already call around their
#: ``monkeypatch.setenv``).
_SCRATCH_DEBUG_FLAG: bool | None = None


def _scratch_debug() -> bool:
    global _SCRATCH_DEBUG_FLAG
    flag = _SCRATCH_DEBUG_FLAG
    if flag is None:
        flag = env_flag(SCRATCH_DEBUG_ENV)
        _SCRATCH_DEBUG_FLAG = flag
    return flag


#: Cached ``REPRO_VERIFY`` flag for the canonical-input check on
#: ``assume_reduced=True`` transforms — sampled like
#: :func:`_scratch_debug`, so with the flag off the check costs one
#: global read per transform.
_VERIFY_FLAG: bool | None = None


def verify_inputs() -> bool:
    """Whether ``REPRO_VERIFY`` is on (sampled once, see above)."""
    global _VERIFY_FLAG
    flag = _VERIFY_FLAG
    if flag is None:
        flag = env_flag(ENV_VERIFY)
        _VERIFY_FLAG = flag
    return flag


class NonCanonicalInputError(ValueError):
    """A kernel that assumes canonical residues in ``[0, q)`` — a
    transform called with ``assume_reduced=True``, or a key-switch
    kernel reading a stack through a ``uint64`` view — got a row that
    is not (raised under ``REPRO_VERIFY=1``; unchecked, a negative int64
    reads as a huge unsigned value and the result is garbage,
    silently)."""


def require_canonical(stack: np.ndarray, q_col: np.ndarray,
                      where: str) -> None:
    """Raise :class:`NonCanonicalInputError` naming the first row of a
    ``(k*L, n)`` stack over the ``(L, 1)`` moduli ``q_col`` that holds a
    value outside ``[0, q)``; ``where`` names the kernel entry."""
    limbs = q_col.shape[0]
    n = stack.shape[1]
    tiles = stack.reshape(-1, limbs, n)
    bad = (tiles < 0) | (tiles >= q_col)
    if bad.any():
        row, col = divmod(int(np.argmax(bad.reshape(-1))), n)
        raise NonCanonicalInputError(
            f"{where}: row {row} (q={int(q_col[row % limbs, 0])}) holds "
            f"{stack[row, col]} at column {col}, outside the canonical "
            f"range [0, q)")


class ShoupBoundError(ValueError):
    """A native Shoup kernel was reached with a modulus at or above
    :data:`SHOUP_Q_BOUND` (raised under ``REPRO_VERIFY=1``; the lazy
    products would no longer fit 32 bits, silently)."""


def require_shoup_bound(primes, where: str) -> None:
    """Raise :class:`ShoupBoundError` naming the first of ``primes``
    that is not below :data:`SHOUP_Q_BOUND` -- the ``_shoup_tail_ok``
    precondition every native key-switch and exact-conversion entry
    relies on; ``where`` names the kernel entry."""
    for limb, q in enumerate(primes):
        if q >= SHOUP_Q_BOUND:
            raise ShoupBoundError(
                f"{where}: shoup-bound: modulus {q} (limb {limb}) is not "
                f"below 2^31")


def scratch(tag: str, shape: tuple[int, ...]) -> np.ndarray:
    """A reusable uint64 buffer for ``tag``/``shape``.

    Callers must fully overwrite it before reading.  Distinct call
    sites use distinct tags so no two live buffers alias; under
    ``REPRO_SCRATCH_DEBUG=1`` that contract is enforced — see
    :data:`SCRATCH_DEBUG_ENV`.
    """
    key = (tag, shape)
    buf = _SCRATCH.get(key)
    if buf is None:
        buf = np.empty(shape, dtype=np.uint64)
        _SCRATCH[key] = buf
    if _scratch_debug():
        prev = _LIVE_BORROWS.get(key)
        if prev is not None:
            here = traceback.extract_stack(limit=3)[0]
            raise ScratchAliasError(
                f"scratch buffer {tag!r} {shape} borrowed at "
                f"{here.filename}:{here.lineno} while still live "
                f"(first borrowed at {prev}); overlapping borrows "
                f"alias the same memory")
        frame = traceback.extract_stack(limit=3)[0]
        _LIVE_BORROWS[key] = f"{frame.filename}:{frame.lineno}"
    return buf


def release_scratch(tag: str, shape: tuple[int, ...]) -> None:
    """End a :func:`scratch` borrow (no-op outside debug mode).

    In debug mode the buffer is poisoned with :data:`SCRATCH_POISON`
    so any read after release produces loudly-wrong residues."""
    if not _scratch_debug():
        return
    key = (tag, shape)
    if _LIVE_BORROWS.pop(key, None) is not None:
        buf = _SCRATCH.get(key)
        if buf is not None:
            buf.fill(SCRATCH_POISON)


def live_scratch_borrows() -> dict[tuple, str]:
    """Snapshot of currently-live borrows (debug-mode introspection)."""
    return dict(_LIVE_BORROWS)


def shoup_companion(values_u: np.ndarray, q_col_u: np.ndarray) -> np.ndarray:
    """Per-element Shoup companions ``floor(v * 2^32 / q)``.

    Pairing a constant operand stack with its companion turns every
    later modular multiply against it into two uint64 multiplies and a
    shift (no division) via :func:`shoup_mul_lazy` — EFFACT's
    precomputed-constant philosophy applied to key material and BConv
    weights.
    """
    return (values_u << _SHIFT) // q_col_u


#: Moduli bound of the lazy Shoup product (:func:`shoup_mul_lazy` and
#: the native key-switch kernels): a lazy result or a shifted operand
#: below ``2q`` must fit in 32 bits.
SHOUP_Q_BOUND = 1 << 31


def shoup_mul_lazy(x_u: np.ndarray, s_u: np.ndarray, s_sh: np.ndarray,
                   q_u, *, out: np.ndarray | None = None,
                   hi: np.ndarray | None = None) -> np.ndarray:
    """``x*s mod q`` landed lazily in [0, 2q), all uint64.

    Exact up to one additive ``q``; requires ``x < 2^32`` elementwise
    (canonical residues always qualify) and ``s < q < 2^31``.  ``out``
    and ``hi`` may supply preallocated result/scratch buffers; ``out``
    must not alias ``x``.
    """
    if hi is None:
        hi = x_u * s_sh
    else:
        np.multiply(x_u, s_sh, out=hi)
    hi >>= _SHIFT
    hi *= q_u
    if out is None:
        out = x_u * s_u
    else:
        np.multiply(x_u, s_u, out=out)
    out -= hi
    return out


def ntt_automorphism_index(n: int, galois_elt: int,
                           rev: np.ndarray | None = None) -> np.ndarray:
    """The int64 column permutation of sigma'_g on bit-reversed NTT rows
    of degree ``n`` (``out[j] = in[idx[j]]``): BR -> sigma'_g -> BR
    collapsed into one index vector, independent of the moduli.
    ``rev`` is ``bit_reverse_indices(n)`` when the caller has it."""
    if rev is None:
        rev = bit_reverse_indices(n)
    i = np.arange(n, dtype=np.int64)
    src = (((2 * i + 1) * galois_elt) % (2 * n) - 1) // 2
    src %= n
    return rev[src[rev]]


class BatchedNTT:
    """Negacyclic NTT over a stack of residue rings ``Z_q[X]/(X^n+1)``.

    Parameters
    ----------
    n:
        Ring degree, a power of two.
    primes:
        One NTT-friendly prime per limb (``q = 1 (mod 2n)``, ``q < 2^31``
        so int64 butterfly products cannot overflow).
    """

    def __init__(self, n: int, primes):
        primes = tuple(int(q) for q in primes)
        if n & (n - 1) or n < 2:
            raise ValueError(f"n must be a power of two >= 2, got {n}")
        if not primes:
            raise ValueError("need at least one limb modulus")
        for q in primes:
            if (q - 1) % (2 * n) != 0:
                raise ValueError(f"q = {q} is not NTT friendly for n = {n}")
            _check_modulus(q)
        self.n = n
        self.primes = primes
        self.limbs = len(primes)
        self.q_col = np.array(primes, dtype=np.int64).reshape(-1, 1)
        self._rev = bit_reverse_indices(n)
        psi = [root_of_unity(2 * n, q) for q in primes]
        psi_inv = [pow(p, -1, q) for p, q in zip(psi, primes)]
        psi_col = np.array(psi, dtype=np.int64).reshape(-1, 1)
        psi_inv_col = np.array(psi_inv, dtype=np.int64).reshape(-1, 1)
        self.n_inv_col = np.array([pow(n, -1, q) for q in primes],
                                  dtype=np.int64).reshape(-1, 1)
        self._q_u = self.q_col.astype(np.uint64)
        self._q2_u = self._q_u * np.uint64(2)
        # Bit-reversed twiddles and Shoup companions as uint32 (each
        # lies below 2^32 for q < 2^31), narrowed once per engine from
        # tables built here and dropped: the native rows read them as
        # they lie; the numpy kernels widen them once, on first use
        # (_wide_twiddles).  C order (the column gather alone leaves
        # Fortran order): the native kernel walks each limb's twiddle
        # row in place.
        psi_u = self._power_table(psi_col)[:, self._rev].astype(
            np.uint64, order="C")
        psi_inv_u = self._power_table(psi_inv_col)[:, self._rev].astype(
            np.uint64, order="C")
        self._psi_u = psi_u.astype(np.uint32)
        self._psi_inv_u = psi_inv_u.astype(np.uint32)
        self._psi_sh = shoup_companion(psi_u, self._q_u).astype(np.uint32)
        self._psi_inv_sh = shoup_companion(psi_inv_u,
                                           self._q_u).astype(np.uint32)
        self._n_inv_u = self.n_inv_col.astype(np.uint64)
        self._n_inv_sh = shoup_companion(self._n_inv_u, self._q_u)
        # Merged final-stage inverse twiddle: the trailing 1/n scaling
        # folds into the last butterfly stage, whose difference branch
        # multiplies by psi_inv^br[1] * n^-1 (one multiply, not two);
        # only its sum branch takes an explicit 1/n multiply.
        self._fold1_u, self._fold1_sh = self._merged_ninv_twiddle(
            psi_inv_u, 1)
        # The C rows take Shoup products of lazy inputs up to 4q, exact
        # only while 4q < 2^32: they run when q < 2^30, and wider
        # moduli take the numpy stages.
        self._native_ok = max(q.bit_length() for q in primes) <= 30
        # Permutation caches shared with prefix-derived engines: they
        # depend only on (n, galois_elt), never on the moduli.
        self._auto_ntt_idx: dict[int, np.ndarray] = {}
        self._auto_coeff_maps: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._wide: dict[bool, tuple[np.ndarray, np.ndarray]] = {}

    #: Per-limb table attributes a derived engine re-slices from its
    #: parent (uint companions included).
    _ROW_TABLES = ("q_col", "n_inv_col",
                   "_q_u", "_q2_u", "_psi_u", "_psi_inv_u", "_psi_sh",
                   "_psi_inv_sh", "_n_inv_u", "_n_inv_sh",
                   "_fold1_u", "_fold1_sh")

    @classmethod
    def _derived(cls, parent: "BatchedNTT", primes: tuple[int, ...],
                 select) -> "BatchedNTT":
        """Engine whose limb tables are ``table[select]`` of ``parent``'s
        (a slice for zero-copy prefixes, an index array for stacked row
        gathers).  Twiddles are never recomputed; the moduli-independent
        permutation caches are shared with the parent."""
        self = cls.__new__(cls)
        self.n = parent.n
        self.primes = primes
        self.limbs = len(primes)
        self._rev = parent._rev
        for name in cls._ROW_TABLES:
            setattr(self, name, getattr(parent, name)[select])
        # The C rows' bound depends only on the selected moduli, so a
        # small-prime subset of a 31-bit-tainted chain still runs in C
        # (both implementations are bitwise identical).
        self._native_ok = max(q.bit_length() for q in primes) <= 30
        self._auto_ntt_idx = parent._auto_ntt_idx
        self._auto_coeff_maps = parent._auto_coeff_maps
        self._wide = {}
        return self

    @classmethod
    def _prefix_of(cls, parent: "BatchedNTT", count: int) -> "BatchedNTT":
        """Zero-copy engine for the first ``count`` limbs of ``parent``."""
        return cls._derived(parent, parent.primes[:count],
                            slice(None, count))

    @classmethod
    def _rows_of(cls, parent: "BatchedNTT", rows) -> "BatchedNTT":
        """Engine for an arbitrary (possibly repeating) row selection of
        ``parent`` — the stacked-transform builder: k polynomials over
        prefix/extended bases of one prime chain become a single
        ``(sum L_i, N)`` engine whose tables are gathered, not rebuilt."""
        rows = np.asarray(rows, dtype=np.intp)
        primes = tuple(parent.primes[r] for r in rows)
        return cls._derived(parent, primes, rows)

    def _wide_twiddles(self, inverse: bool
                       ) -> tuple[np.ndarray, np.ndarray]:
        """The (inverse) twiddles and their Shoup companions as uint64
        for the numpy kernels, widened on first use and kept: an engine
        whose transforms all run in C never builds them."""
        wide = self._wide.get(inverse)
        if wide is None:
            tw, sh = ((self._psi_inv_u, self._psi_inv_sh) if inverse
                      else (self._psi_u, self._psi_sh))
            wide = self._wide[inverse] = (tw.astype(np.uint64),
                                          sh.astype(np.uint64))
        return wide

    def _merged_ninv_twiddle(self, psi_inv_u: np.ndarray, index: int
                             ) -> tuple[np.ndarray, np.ndarray]:
        """``psi_inv^br[index] * n^-1 mod q`` per limb from the uint64
        bit-reversed inverse twiddles ``psi_inv_u``, with its Shoup
        companion — a final-stage twiddle that also applies the iNTT
        1/n scaling."""
        merged_u = (psi_inv_u[:, index:index + 1] * self._n_inv_u
                    % self._q_u)
        return merged_u, shoup_companion(merged_u, self._q_u)

    def _power_table(self, base_col: np.ndarray) -> np.ndarray:
        """``table[j, i] = base[j]**i mod q[j]`` via a binary ladder:
        log2(n) vectorized square-and-multiply sweeps instead of an
        ``O(L*n)`` Python loop."""
        exps = np.arange(self.n, dtype=np.int64)
        table = np.ones((self.limbs, self.n), dtype=np.int64)
        square = base_col % self.q_col
        for k in range(self.n.bit_length() - 1):
            odd = ((exps >> k) & 1).astype(bool)
            table[:, odd] = table[:, odd] * square % self.q_col
            square = square * square % self.q_col
        return table

    def _check(self, data: np.ndarray) -> np.ndarray:
        """Validate a ``(k*limbs, n)`` stack for any integer ``k >= 1``.

        The limb tables broadcast over a leading tile axis, so one
        engine transforms any whole number of same-chain polynomial
        stacks in a single pass (the cross-ciphertext batch path);
        ``k = 1`` is the classic exact-shape contract."""
        data = np.asarray(data, dtype=np.int64)
        if (data.ndim != 2 or data.shape[1] != self.n
                or data.shape[0] == 0 or data.shape[0] % self.limbs):
            raise ValueError(
                f"expected shape (k*{self.limbs}, {self.n}), "
                f"got {data.shape}")
        return data

    # ------------------------------------------------------------------
    # Transforms
    # ------------------------------------------------------------------
    @staticmethod
    def _lazy_csub(x: np.ndarray, bound: np.ndarray,
                   tmp: np.ndarray | None = None) -> None:
        """In place: [0, 2*bound) -> [0, bound) via wraparound min."""
        if tmp is None:
            np.minimum(x, x - bound, out=x)
        else:
            np.subtract(x, bound, out=tmp)
            np.minimum(x, tmp, out=x)

    def _ws(self, tag: str, tiles: int) -> np.ndarray:
        """Half-stack scratch slab for the stage loops."""
        return scratch(tag, (tiles, self.limbs, self.n // 2))

    def _ws_release(self, *tags: str, tiles: int) -> None:
        """Release stage slabs borrowed via :meth:`_ws` (debug mode)."""
        for tag in tags:
            release_scratch(tag, (tiles, self.limbs, self.n // 2))

    def _block_tiles(self, tiles: int) -> int:
        """Tiles per cache block for the stage loops.

        The numpy stages stream the whole stack once per stage, so a
        stack wider than L2 pays a full memory round trip *per stage*.
        Chunking the independent tile axis so one block (data plus the
        half-stack scratch slabs) stays cache-resident keeps every
        stage after the first out of DRAM — bitwise identical because
        tiles never interact."""
        if tiles <= 1:
            return tiles
        tile_bytes = self.limbs * self.n * 8
        return max(1, _NTT_BLOCK_BYTES // tile_bytes)

    def _kernel(self):
        """The C kernel library when it loaded and every modulus is
        within its lazy ``q < 2^30`` bound (``_native_ok``), else
        ``None`` (the numpy stages run)."""
        return _native.kernel() if self._native_ok else None

    def _prepare(self, data: np.ndarray, assume_reduced: bool,
                 op: str) -> tuple[np.ndarray, object, int]:
        """Shared entry of :meth:`forward`/:meth:`inverse`: the checked
        stack, the kernel library (or ``None``) and the rows per kernel
        call.  The C kernel keeps one row in L1 at a time, so it takes
        the whole stack; the numpy kernels go in cache-sized tile
        blocks."""
        checked = self._check(data)
        if assume_reduced and verify_inputs():
            require_canonical(checked, self.q_col,
                              f"BatchedNTT.{op}(assume_reduced=True)")
        lib = self._kernel()
        step = checked.shape[0]
        if lib is None:
            step = self._block_tiles(step // self.limbs) * self.limbs
        return checked, lib, step

    def forward(self, data: np.ndarray, *,
                assume_reduced: bool = False) -> np.ndarray:
        """Natural-order coefficient stack -> bit-reversed NTT stack.

        Accepts ``(k*limbs, n)`` stacks: the limb tables broadcast over
        a leading tile axis, so every tile transforms exactly as it
        would alone — bitwise identical to ``k`` separate calls.  Wide
        stacks are transformed in cache-sized tile blocks.
        ``assume_reduced=True`` skips the defensive input ``% q`` pass
        (an int64 division over the whole stack) — callers assert their
        rows are canonical residues, under which the pass is the
        identity (checked under ``REPRO_VERIFY=1``)."""
        checked, lib, step = self._prepare(data, assume_reduced,
                                           "forward")
        if step >= checked.shape[0]:
            return self._forward_one(checked, lib,
                                     assume_reduced=assume_reduced)
        out = np.empty_like(checked)
        for lo in range(0, checked.shape[0], step):
            out[lo:lo + step] = self._forward_one(
                checked[lo:lo + step], lib, assume_reduced=assume_reduced)
        return out

    def _forward_one(self, checked: np.ndarray, lib, *,
                     assume_reduced: bool = False) -> np.ndarray:
        tr = TRACER
        t0 = perf_counter() if tr.enabled else 0.0
        rows = checked.shape[0]
        tiles = rows // self.limbs
        if lib is not None:
            src = np.ascontiguousarray(checked)
            out = np.empty_like(src)
            # The engine's own tables, uncopied (dtype and C layout are
            # checked by the kernel's argtypes).
            if lib.ntt_forward(out, src, rows, self.limbs, self.n,
                               self._q_u, self._psi_u, self._psi_sh,
                               not assume_reduced):
                raise MemoryError("native NTT kernel: out of memory")
        else:
            a = checked.reshape(tiles, self.limbs, self.n)
            if not assume_reduced:
                a = a % self.q_col
            a = a.astype(np.uint64)
            self._forward_radix2(a)
            self._lazy_csub(a, self._q2_u)
            self._lazy_csub(a, self._q_u)
            out = a.astype(np.int64).reshape(rows, self.n)
        if tr.enabled:
            tr.emit("ntt.forward", t0, perf_counter() - t0,
                    {"limbs": self.limbs, "n": self.n, "tiles": tiles,
                     "impl": "numpy" if lib is None else "c"})
            tr.count("ntt.rows", rows)
        return out

    def _forward_radix2(self, a: np.ndarray) -> None:
        """Cooley-Tukey radix-2 stages in place, values in [0, 4q).

        ``a`` is ``(tiles, limbs, n)``; the ``(L, 1, 1)`` twiddle
        columns broadcast over the leading tile axis.  The stages are
        the C ``forward_row``'s, in its order and with its twiddles,
        except that each multiplier input is first folded below
        ``2q``, so the Shoup product is exact for every ``q < 2^31``
        (the C rows skip that fold and need ``q < 2^30``).  The one
        numpy forward kernel: the fallback without the C library, the
        path for wider moduli, and the oracle under
        :func:`repro.nttmath.native.numpy_kernels`."""
        tiles = a.shape[0]
        q_b = self._q_u[:, :, None]
        q2_b = self._q2_u[:, :, None]
        psi, psi_sh = self._wide_twiddles(False)
        # The half-stack slabs are borrowed once for the whole stage
        # loop (m*t is invariant at n/2); a per-iteration scratch()
        # call would be an overlapping live borrow.
        w0 = self._ws("r2_0", tiles)
        w1 = self._ws("r2_1", tiles)
        w2 = self._ws("r2_2", tiles)
        t, m = self.n, 1
        while m < self.n:
            t //= 2
            blocks = a.reshape(tiles, self.limbs, m, 2 * t)
            shape = (tiles, self.limbs, m, t)
            h0 = w0.reshape(shape)
            h1 = w1.reshape(shape)
            h2 = w2.reshape(shape)
            s = psi[:, m:2 * m, None]
            s_sh = psi_sh[:, m:2 * m, None]
            xl = blocks[:, :, :, :t]
            xr = blocks[:, :, :, t:]
            np.subtract(xr, q2_b, out=h0)
            x_red = np.minimum(xr, h0, out=h1)         # < 2q
            v = shoup_mul_lazy(x_red, s, s_sh, q_b, out=h2, hi=h0)
            np.subtract(xl, q2_b, out=h0)
            u = np.minimum(xl, h0, out=h1)             # < 2q
            np.add(u, v, out=xl)                       # < 4q
            u += q2_b
            u -= v
            blocks[:, :, :, t:] = u
            m *= 2
        self._ws_release("r2_0", "r2_1", "r2_2", tiles=tiles)

    def inverse(self, data: np.ndarray, *,
                scale_by_n_inv: bool = True,
                assume_reduced: bool = False) -> np.ndarray:
        """Bit-reversed NTT stack -> natural-order coefficient stack.

        ``scale_by_n_inv=False`` skips the trailing 1/n multiply, the
        hook :class:`repro.rns.bconv.MergedBConv` folds into its first
        constant (paper eq. 5).  Wide stacks are transformed in
        cache-sized tile blocks (see :meth:`_block_tiles`).
        ``assume_reduced=True`` skips the defensive input ``% q`` pass
        for callers whose rows are already canonical residues (checked
        under ``REPRO_VERIFY=1``).
        """
        checked, lib, step = self._prepare(data, assume_reduced,
                                           "inverse")
        if step >= checked.shape[0]:
            return self._inverse_one(checked, lib,
                                     scale_by_n_inv=scale_by_n_inv,
                                     assume_reduced=assume_reduced)
        out = np.empty_like(checked)
        for lo in range(0, checked.shape[0], step):
            out[lo:lo + step] = self._inverse_one(
                checked[lo:lo + step], lib, scale_by_n_inv=scale_by_n_inv,
                assume_reduced=assume_reduced)
        return out

    def _inverse_one(self, checked: np.ndarray, lib, *,
                     scale_by_n_inv: bool = True,
                     assume_reduced: bool = False) -> np.ndarray:
        tr = TRACER
        t0 = perf_counter() if tr.enabled else 0.0
        rows = checked.shape[0]
        tiles = rows // self.limbs
        if lib is not None:
            src = np.ascontiguousarray(checked)
            out = np.empty_like(src)
            if lib.ntt_inverse(out, src, rows, self.limbs, self.n,
                               self._q_u, self._psi_inv_u,
                               self._psi_inv_sh, self._n_inv_u,
                               self._n_inv_sh, self._fold1_u,
                               self._fold1_sh, scale_by_n_inv,
                               not assume_reduced):
                raise MemoryError("native NTT kernel: out of memory")
        else:
            a = checked.reshape(tiles, self.limbs, self.n)
            if not assume_reduced:
                a = a % self.q_col
            a = a.astype(np.uint64)
            self._inverse_radix2(a, fold_ninv=scale_by_n_inv)
            # values < 2q here; the 1/n scaling (when requested) was
            # folded into the final stage.
            self._lazy_csub(a, self._q_u)
            out = a.astype(np.int64).reshape(rows, self.n)
        if tr.enabled:
            tr.emit("ntt.inverse", t0, perf_counter() - t0,
                    {"limbs": self.limbs, "n": self.n, "tiles": tiles,
                     "impl": "numpy" if lib is None else "c"})
            tr.count("intt.rows", rows)
        return out

    def _inverse_radix2(self, a: np.ndarray, *,
                        fold_ninv: bool = False) -> None:
        """Gentleman-Sande radix-2 stages in place, values in [0, 2q).

        The C ``inverse_row``'s stages, in its order, with each
        multiplier input folded below ``2q`` first, as in
        :meth:`_forward_radix2` (the one numpy inverse kernel, in the
        same three roles).  ``fold_ninv`` merges the 1/n scaling into
        the final stage: the difference branch uses the pre-merged
        ``psi_inv * n^-1`` twiddle and the sum branch takes one
        explicit ``n^-1`` multiply."""
        tiles = a.shape[0]
        q_b = self._q_u[:, :, None]
        q2_b = self._q2_u[:, :, None]
        psi, psi_sh = self._wide_twiddles(True)
        # Borrowed once across the stage loop (h*t invariant at n/2);
        # re-borrowing per iteration would overlap the live borrow.
        w0 = self._ws("ir_0", tiles)
        w1 = self._ws("ir_1", tiles)
        w2 = self._ws("ir_2", tiles)
        w3 = self._ws("ir_3", tiles) if fold_ninv else None
        t, m = 1, self.n
        while m > 1:
            h = m // 2
            final = fold_ninv and m == 2
            blocks = a.reshape(tiles, self.limbs, h, 2 * t)
            shape = (tiles, self.limbs, h, t)
            h0 = w0.reshape(shape)
            h1 = w1.reshape(shape)
            h2 = w2.reshape(shape)
            if final:
                s = self._fold1_u[:, :, None]
                s_sh = self._fold1_sh[:, :, None]
            else:
                s = psi[:, h:2 * h, None]
                s_sh = psi_sh[:, h:2 * h, None]
            zl = blocks[:, :, :, :t]
            zr = blocks[:, :, :, t:]
            d = np.add(zl, q2_b, out=h0)
            d -= zr                                    # < 4q
            self._lazy_csub(d, q2_b, h1)               # < 2q
            w = np.add(zl, zr, out=h1)
            self._lazy_csub(w, q2_b, h2)
            if final:
                h3 = w3.reshape(shape)
                blocks[:, :, :, :t] = shoup_mul_lazy(
                    w, self._n_inv_u[:, :, None],
                    self._n_inv_sh[:, :, None], q_b, out=h3, hi=h2)
            else:
                blocks[:, :, :, :t] = w
            blocks[:, :, :, t:] = shoup_mul_lazy(d, s, s_sh, q_b,
                                                 out=h2, hi=h1)
            t *= 2
            m = h
        self._ws_release("ir_0", "ir_1", "ir_2", tiles=tiles)
        if fold_ninv:
            self._ws_release("ir_3", tiles=tiles)
        # values are < 2q here

    def pointwise_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Element-wise modular product of two ``(k*L, n)`` stacks."""
        a = self._check(a)
        b = self._check(b)
        if a.shape != b.shape:
            raise ValueError(
                f"operand shapes differ: {a.shape} vs {b.shape}")
        rows = a.shape[0]
        tiles = rows // self.limbs
        shape3 = (tiles, self.limbs, self.n)
        return (a.reshape(shape3) * b.reshape(shape3)
                % self.q_col).reshape(rows, self.n)

    def polymul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Negacyclic product of naturally-ordered coefficient stacks."""
        fa = self.forward(a)
        fb = self.forward(b)
        return self.inverse(self.pointwise_mul(fa, fb))

    # ------------------------------------------------------------------
    # Automorphisms
    # ------------------------------------------------------------------
    def automorphism_index(self, galois_elt: int) -> np.ndarray:
        """The cached NTT-domain column permutation of sigma'_g: the
        single index vector :meth:`automorphism_ntt` gathers with.
        Moduli-independent, so every limb (and every engine over the
        same ring degree) shares it.  The native key MAC reads hoisted
        digits through it instead of gathering a rotated copy."""
        idx = self._auto_ntt_idx.get(galois_elt)
        if idx is None:
            idx = ntt_automorphism_index(self.n, galois_elt, self._rev)
            self._auto_ntt_idx[galois_elt] = idx
        return idx

    def automorphism_ntt(self, data: np.ndarray, galois_elt: int, *,
                         out: np.ndarray | None = None) -> np.ndarray:
        """sigma'_s on bit-reversed NTT stacks: one gather per stack.

        The per-limb reference composes BR -> sigma'_s -> BR; the three
        permutations collapse into a single cached index vector that is
        independent of the moduli, so all limbs share one fancy-index.
        ``out`` (int64, same shape) lets stacked callers gather straight
        into a preallocated slab.
        """
        tr = TRACER
        t0 = perf_counter() if tr.enabled else 0.0
        idx = self.automorphism_index(galois_elt)
        result = np.take(self._check(data), idx, axis=1, out=out)
        if tr.enabled:
            tr.emit("ntt.automorphism", t0, perf_counter() - t0,
                    {"limbs": self.limbs, "elt": galois_elt,
                     "impl": "numpy"})
            tr.count("auto.rows", result.shape[0])
        return result

    def automorphism_coeff(self, data: np.ndarray,
                           galois_elt: int) -> np.ndarray:
        """Coefficient-domain ``a(X) -> a(X^g)`` on the whole stack."""
        maps = self._auto_coeff_maps.get(galois_elt)
        if maps is None:
            i = np.arange(self.n, dtype=np.int64)
            j = (i * galois_elt) % (2 * self.n)
            flip = j >= self.n
            j = np.where(flip, j - self.n, j)
            maps = (j, flip)
            self._auto_coeff_maps[galois_elt] = maps
        j, flip = maps
        data = self._check(data)
        rows = data.shape[0]
        d3 = data.reshape(rows // self.limbs, self.limbs, self.n)
        out = np.zeros_like(d3)
        out[:, :, j] = np.where(flip, (-d3) % self.q_col,
                                d3 % self.q_col)
        return out.reshape(rows, self.n)


class BatchedPlan:
    """Precomputed batched-kernel state for one ``(n, primes)`` stack.

    Owns the :class:`BatchedNTT` engine plus lazily built per-limb
    :class:`NegacyclicNTT` kernels (for callers that still transform a
    single row, e.g. the BFV/BGV plaintext packers).  All caching for a
    basis lives on its plan object, so dropping the plan releases every
    derived table.
    """

    __slots__ = ("n", "primes", "q_col", "_ntt", "_limb_ntts")

    def __init__(self, n: int, primes, *, ntt: BatchedNTT | None = None):
        self.n = int(n)
        self.primes = tuple(int(q) for q in primes)
        self.q_col = np.array(self.primes, dtype=np.int64).reshape(-1, 1)
        self._ntt = ntt
        self._limb_ntts: dict[int, NegacyclicNTT] = {}

    @property
    def ntt(self) -> BatchedNTT:
        """The batched engine, built on first use — callers that only
        need a scalar per-limb kernel (e.g. ``ntt_table``) never pay
        for the stacked twiddle tables."""
        if self._ntt is None:
            self._ntt = BatchedNTT(self.n, self.primes)
        return self._ntt

    def limb_ntt(self, index: int) -> NegacyclicNTT:
        """Scalar per-limb kernel for limb ``index`` (built on demand)."""
        table = self._limb_ntts.get(index)
        if table is None:
            table = NegacyclicNTT(self.n, self.primes[index])
            self._limb_ntts[index] = table
        return table

    def prefix(self, count: int) -> "BatchedPlan":
        """Plan for the first ``count`` limbs, sharing twiddle memory
        with this plan's engine when it has been built."""
        if not 1 <= count <= len(self.primes):
            raise ValueError(f"invalid prefix length {count}")
        derived = None
        if self._ntt is not None:
            derived = BatchedNTT._prefix_of(self._ntt, count)
        return BatchedPlan(self.n, self.primes[:count], ntt=derived)

    def __repr__(self) -> str:
        return f"BatchedPlan(n={self.n}, limbs={len(self.primes)})"


#: Upper bound on live plans; old plans are evicted least-recently-used
#: so long-running services cycling through parameter sets cannot grow
#: the cache without bound (each plan holds O(L*n) twiddle words).
PLAN_CACHE_MAX = 64

_PLAN_CACHE: "OrderedDict[tuple[int, tuple[int, ...]], BatchedPlan]" = \
    OrderedDict()

_EXTRA_CLEARERS: list[Callable[[], None]] = []


def get_plan(n: int, primes) -> BatchedPlan:
    """Basis-keyed plan cache: one :class:`BatchedPlan` per
    ``(n, primes)``, derived by row-slicing when a cached superset plan
    already holds the twiddles for this prefix."""
    key = (int(n), tuple(int(q) for q in primes))
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        plan = _derive_from_superset(key)
        if plan is None:
            plan = BatchedPlan(key[0], key[1])
        _PLAN_CACHE[key] = plan
        while len(_PLAN_CACHE) > PLAN_CACHE_MAX:
            _PLAN_CACHE.popitem(last=False)
    else:
        _PLAN_CACHE.move_to_end(key)
    return plan


def _derive_from_superset(key) -> BatchedPlan | None:
    n, primes = key
    count = len(primes)
    for (cached_n, cached_primes), plan in _PLAN_CACHE.items():
        if cached_n == n and len(cached_primes) > count \
                and cached_primes[:count] == primes:
            return plan.prefix(count)
    return None


def get_stacked_plan(n: int, bases, *, dedupe: bool = False
                     ) -> BatchedPlan:
    """Plan for several prime chains stacked into one ``(sum L_i, N)``
    transform (the k-polynomial stacked-transform engine).

    ``bases`` is a sequence of prime tuples — e.g. the two copies of a
    ciphertext basis for a ``(2L, N)`` pair transform, or ``beta``
    copies of an extended basis for the key-switch digit stack.  The
    stacked chain may repeat primes (an :class:`RnsBasis` cannot), so
    its engine is derived by *row-gathering* the tables of the plan for
    the distinct-prime union chain instead of recomputing any power
    table.  Every row transforms exactly as it would alone, so stacked
    outputs are bitwise identical to per-chain transforms; stacked
    plans share the bounded LRU cache with ordinary plans.

    With ``dedupe=True`` (the cross-ciphertext batch path), ``k``
    identical copies of one chain collapse onto the union chain's own
    plan: the engine transforms ``(k*L, N)`` stacks tile-wise with a
    single set of twiddle rows, so the plan's memory footprint — and
    the cache's entry count — is independent of ``k``.  Dedupe is
    opt-in so the established pair/digit stacks keep the row-gathered
    layouts their kernels were tuned on.
    """
    chains = [tuple(int(q) for q in base) for base in bases]
    if dedupe and len(set(chains)) == 1:
        return get_plan(n, chains[0])
    stacked = tuple(q for chain in chains for q in chain)
    key = (int(n), stacked)
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        union: list[int] = []
        index: dict[int, int] = {}
        for q in stacked:
            if q not in index:
                index[q] = len(union)
                union.append(q)
        donor = get_plan(n, tuple(union))
        rows = [index[q] for q in stacked]
        engine = BatchedNTT._rows_of(donor.ntt, rows)
        plan = BatchedPlan(n, stacked, ntt=engine)
        _PLAN_CACHE[key] = plan
        while len(_PLAN_CACHE) > PLAN_CACHE_MAX:
            _PLAN_CACHE.popitem(last=False)
    else:
        _PLAN_CACHE.move_to_end(key)
    return plan


def plan_cache_size() -> int:
    """Number of live plans (exposed for cache-bound tests)."""
    return len(_PLAN_CACHE)


def register_cache_clearer(fn: Callable[[], None]) -> None:
    """Let sibling modules (e.g. BConv weight tables) hook into
    :func:`clear_caches` without an import cycle."""
    _EXTRA_CLEARERS.append(fn)


def clear_caches() -> None:
    """Drop every cached plan, scratch slab, and registered sibling
    cache; the scratch-debug and verify flags are re-sampled from the
    environment on next use.  The native kernel library is not a cache:
    it stays loaded for the life of the process."""
    global _SCRATCH_DEBUG_FLAG, _VERIFY_FLAG
    _PLAN_CACHE.clear()
    _SCRATCH.clear()
    _LIVE_BORROWS.clear()
    _SCRATCH_DEBUG_FLAG = None
    _VERIFY_FLAG = None
    for fn in _EXTRA_CLEARERS:
        fn()


# Telemetry counters reset with the caches (events are left alone — a
# trace in progress survives a cache clear, warmth counters restart).
register_cache_clearer(TRACER.reset_counters)


def ntt_table(n: int, q: int) -> NegacyclicNTT:
    """Shared scalar NTT kernel, cached on the single-limb plan."""
    return get_plan(n, (q,)).limb_ntt(0)
