"""The native C kernel library: built at first use, loaded with ctypes.

``ntt.c`` next to this file holds

- ``ntt_forward`` / ``ntt_inverse``, plain-C99 counterparts of
  :class:`repro.nttmath.batched.BatchedNTT`'s radix-2 numpy stages;
- ``replay_steps``, which runs the steps ``[start, stop)`` of a compiled
  plan (:func:`repro.compiler.exec_plan.replay_plan`) in order, in
  place over the uint32 slot arena: elementwise, NTT / iNTT /
  automorphism, copy, DRAM-load and fill steps, each equal to its numpy
  expression for every uint32 arena value and every int64 DRAM value.
  It reads flat per-plan tables: one step row
  ``kind | arg | k | off | aux``, the steps' lanes in one int64 array,
  the uint32 twiddles of the plan's distinct FFT primes (indexed by a
  lane's prime column), its distinct automorphism permutations and the
  addresses of the bound DRAM rows (layout in ``ntt.c``).  It checks
  every step before writing any of it and returns the index of the
  first step it did not run: ``stop``, or a step it refused, which the
  caller runs with numpy before resuming at the next step.  An
  elementwise or DRAM lane whose modulus lies below ``2^31`` and whose
  inputs all lie in ``[0, 2^k)`` (``k`` the modulus' bit length) runs a
  vectorized Barrett loop of 32x32-bit products; a range check in the
  same pass sends any other lane to the exact uint64 reduction (floor
  modulo of each int64 value for a DRAM row).  An optional int64
  buffer receives each step's ``CLOCK_MONOTONIC`` end time in
  nanoseconds, which a traced replay turns into its per-step spans;
- ``ks_mac`` / ``bconv`` / ``mod_down_tail``, the key MAC, fast base
  conversion and ModDown tail of the batch key switch
  (:func:`repro.schemes.rns_core.key_mac`,
  :func:`repro.rns.bconv.base_convert_stack`,
  :func:`repro.schemes.rns_core.mod_down_tail`, which can also add an
  addend into each pair's first half, read through a permutation (a
  hoisted rotation's ``c0``), or into both halves (a relinearization's
  ``d0`` and ``d1``)).
  They take canonical residues over moduli below ``2^31``.  The key MAC
  reads its key tables as uint32 (narrowed and checked once per table
  by :meth:`repro.schemes.rns_core.SwitchingKey.stacked_tables`) and
  keeps each column's digit sums of whole 62-bit products in uint64
  registers (one multiply per term, guarded below ``2^63``), reduced
  once per output in vector lanes; the fast conversion sums lazy Shoup
  products in uint32 lanes (each sum kept below ``4p``) when every
  target modulus lies below ``2^30``, and one-multiply sums otherwise.
  A non-canonical value gives wrong residues, never an out-of-table
  read;
- ``batch_add_sub``, the modular add, subtract and negate of the batch
  ops (:func:`repro.schemes.rns_core.add_sub`), numpy's exact
  ``(x +- y) % q`` for every int64 input: a row of canonical residues
  takes one conditional subtraction or addition per value, any other
  row the exact reduction;
- ``bconv_exact`` / ``bfv_scale_round``, the exact (centred, HPS)
  base conversion behind
  :func:`repro.rns.bconv.base_convert_centered_stack` (BFV's centred
  lift, BGV's ``t``-corrected ModDown) and BFV's fused
  ``round(t*d/Q)`` tail behind
  :meth:`repro.schemes.bfv.BfvEvaluator._scale_round_stack`.  Their
  float correction ``e = rint(sum_j v_j / q_j)`` sums in row order
  ``j = 0 .. L-1`` with one IEEE division and addition per term and
  rounds half to even, as the numpy twin does, so ``e`` and every
  output residue are bitwise equal to it.  The caller passes canonical
  residues over moduli below ``2^31`` (``_shoup_tail_ok``) and sizes
  every shape from the bases; any input value is read as its low 32
  bits, so a bad one gives wrong residues, never an out-of-table read.

The source is portable C99 and :data:`CFLAGS` name no target (no
``-march``, no ``-m`` flag).  On x86-64 with glibc, ``ntt.c`` marks its
hot integer loops -- the NTT rows and their loads and stores, the key
MAC, the conversions' weighted sums, the ModDown tail and the
canonical-range replay and add / subtract loops -- with GCC /
Clang ``target_clones``: each is compiled for baseline x86-64 and for
AVX2, AVX-512 or both (the NTT rows and the conversions' sums for the
x86-64-v4 level, AVX-512 with DQ, when GCC 12 or later builds them, for
AVX-512F otherwise), and the dynamic loader picks the widest clone the
CPU runs when the library loads.  One cached library thus
serves every x86-64 machine at its own vector width, the clones give
bitwise-equal results, and :func:`library_path`'s hash still names one
build per source, flag set and architecture.  Elsewhere (other
architectures, other C libraries, compilers without the attribute) the
same loops compile once, as written.

:func:`kernel` compiles it once with the system ``cc`` into a per-user
cache directory (``$XDG_CACHE_HOME/repro/native``, default
``~/.cache/repro/native``), keyed by the sha256 of the source, the
compiler flags and the machine architecture, and loads it.  The build
writes a temporary file and renames it into place with
:func:`os.replace`, so processes racing to build the same hash each end
with a complete library.

When anything fails — no ``cc`` on ``PATH``, a compile error, a cache
directory that is unwritable or cannot be determined, a library that
does not load — one :class:`RuntimeWarning` names the reason and
:func:`kernel` returns ``None``: the NTT engine, plan replay, the key
switch and the exact conversions keep their numpy kernels, which stay
the bitwise oracle either way.  The loaded library lives for the whole
process; :func:`numpy_kernels` hides it for the duration of a block
(the per-polynomial reference evaluators run under it).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import threading
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from ...core.env import env_str

__all__ = ["CFLAGS", "SOURCE", "NativeBuildError", "address", "bind",
           "build", "cache_dir", "declare", "kernel", "library_path",
           "load", "numpy_kernels"]

#: The kernel source compiled by :func:`build`.
SOURCE = Path(__file__).with_name("ntt.c")

#: Portable flags only: no ``-march``, so the cached library runs on
#: any machine of the same architecture that shares the cache (the x86-64
#: vector clones are chosen at load time, see the module docstring).
#: ``-ffp-contract=off`` keeps every clone from fusing a float multiply
#: and add into an FMA, which the exact conversions' bitwise float
#: contract rules out.
CFLAGS = ("-O3", "-std=c99", "-ffp-contract=off", "-fPIC", "-shared")


def address(arr: np.ndarray) -> int:
    """Address of a C-contiguous array's first element.  For a
    writeable array this goes through the buffer protocol, ~5x cheaper
    than ``arr.ctypes.data``.  The caller keeps ``arr`` alive while the
    address is in use."""
    if arr.flags.writeable and arr.nbytes:
        return ctypes.addressof(ctypes.c_char.from_buffer(arr))
    return arr.ctypes.data


class _Checked(ctypes.c_void_p):
    """The address of ``array``, checked by an :class:`_Array` entry.
    It holds the array, so the address stays valid while it lives."""


class _Array:
    """``argtypes`` entry for an aligned C-contiguous array of one
    dtype (and writeable, for outputs), checked on every call like a
    :func:`numpy.ctypeslib.ndpointer`.  It passes the address the
    cheap way (:func:`address`) instead of through ``ndarray.ctypes``,
    which matters for plan replay's thousands of small kernel calls."""

    def __init__(self, dtype, *, writeable: bool = False,
                 optional: bool = False):
        self.dtype = np.dtype(dtype)
        self.writeable = writeable
        self.optional = optional

    def from_param(self, obj):
        if obj is None and self.optional:
            return None
        return self.check(obj)

    def check(self, obj) -> _Checked:
        if type(obj) is not np.ndarray or obj.dtype != self.dtype:
            raise TypeError(f"expected a {self.dtype} ndarray, got "
                            f"{getattr(obj, 'dtype', type(obj))}")
        flags = obj.flags
        if not (flags.c_contiguous and flags.aligned
                and (flags.writeable or not self.writeable)):
            raise TypeError("expected an aligned C-contiguous"
                            + (" writeable" if self.writeable else "")
                            + " array")
        checked = _Checked(address(obj))
        checked.array = obj
        return checked


def bind(lib: ctypes.CDLL, name: str, *args):
    """Kernel ``name`` of ``lib`` with its leading arguments ``args``
    fixed, for a kernel called many times over the same arrays: call
    the result with the remaining arguments.  Every array argument must
    be among ``args``; each is checked once, as its ``argtypes`` entry
    checks it on every call, and every fixed argument is converted to
    its C type once, so a call converts only the remaining ones.  The
    result holds the arrays."""
    specs = getattr(lib, name).argtypes
    tail = specs[len(args):]
    if any(isinstance(spec, _Array) for spec in tail):
        raise ValueError(f"bind({name}) must fix every array argument")
    fixed = [None if arg is None else
             spec.check(arg) if isinstance(spec, _Array) else spec(arg)
             for spec, arg in zip(specs, args)]
    raw = lib[name]           # no argtypes: converted arguments pass as is
    raw.restype = ctypes.c_int
    return lambda *rest: raw(*fixed, *[spec(arg) for spec, arg
                                       in zip(tail, rest)])


_OUT = _Array(np.int64, writeable=True)
_ARENA = _Array(np.uint32, writeable=True)
_IN = _Array(np.int64)
_TAB = _Array(np.uint64)
_PTR = _Array(np.uintp)
_ACC = _Array(np.uint64, writeable=True)
_OPT = _Array(np.int64, optional=True)
_TW = _Array(np.uint32)
_ENDS = _Array(np.int64, writeable=True, optional=True)
_N = ctypes.c_size_t
_I = ctypes.c_int
#: ``argtypes`` of each exported function (see the comments in ntt.c).
_SIGNATURES = {
    "ntt_forward": (_OUT, _IN, _N, _N, _N, _TAB, _TW, _TW, _I),
    "ntt_inverse": (_OUT, _IN, _N, _N, _N, _TAB, _TW, _TW, *(_TAB,) * 4,
                    _I, _I),
    "replay_steps": (_ARENA, _N, _N, _IN, _N, _IN, _N, _TAB, _TW, _N, _IN,
                     _N, _PTR, _N, _ENDS, _N, _N),
    "ks_mac": (_ACC, _IN, _N, _N, _N, _N, _TAB, _TW, _TW, _OPT),
    "bconv": (_OUT, _IN, _N, _N, _N, _N, _TAB),
    "mod_down_tail": (_OUT, _IN, _N, _N, _N, _N, *(_TAB,) * 3, _OPT, _N,
                      _OPT),
    "batch_add_sub": (_OUT, _OPT, _IN, _N, _N, _N, _TAB, _I),
    "bconv_exact": (_OUT, _IN, _N, _N, _N, _N, _TAB),
    "bfv_scale_round": (_OUT, _IN, _N, _N, _N, _N, *(_TAB,) * 3),
}


class NativeBuildError(RuntimeError):
    """The kernel library could not be built; the message says why."""


def cache_dir() -> Path:
    """Per-user directory holding the built libraries."""
    base = env_str("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "repro" / "native"


def library_path(source: Path, cache: Path) -> Path:
    """Where the library built from ``source`` lives in ``cache``: the
    name hashes the source, the flags and the machine architecture (a
    home directory shared across machines keeps one build per arch)."""
    digest = hashlib.sha256(source.read_bytes())
    digest.update(" ".join((*CFLAGS, platform.machine())).encode())
    return cache / f"ntt-{digest.hexdigest()[:16]}.so"


def build(source: Path | None = None, cache: Path | None = None) -> Path:
    """Path of the library for ``source`` (default :data:`SOURCE`) in
    ``cache`` (default :func:`cache_dir`), compiling it if not there.

    Raises :class:`NativeBuildError` naming the reason on failure."""
    source = SOURCE if source is None else source
    try:
        cache = cache_dir() if cache is None else cache
    except (OSError, RuntimeError) as exc:
        # Path.home() raises when neither $HOME nor a passwd entry
        # names a home directory.
        raise NativeBuildError(
            f"cannot determine cache directory: {exc}") from exc
    try:
        target = library_path(source, cache)
    except OSError as exc:
        raise NativeBuildError(f"cannot read {source}: {exc}") from exc
    if target.exists():
        return target
    cc = shutil.which("cc")
    if cc is None:
        raise NativeBuildError("no C compiler: `cc` is not on PATH")
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=target.stem + ".",
                                   suffix=".tmp", dir=target.parent)
    except OSError as exc:
        raise NativeBuildError(
            f"cache directory {target.parent} is not writable: "
            f"{exc}") from exc
    os.close(fd)
    try:
        proc = subprocess.run([cc, *CFLAGS, "-o", tmp, str(source)],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise NativeBuildError(
                f"`cc` failed to compile {source.name} (exit "
                f"{proc.returncode}): {proc.stderr.strip()[-800:]}")
        os.replace(tmp, target)
    except OSError as exc:
        raise NativeBuildError(
            f"building {target.name} failed: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    """``lib`` with every kernel's ``argtypes``/``restype`` declared;
    raises :class:`AttributeError` if a kernel is missing."""
    for name, argtypes in _SIGNATURES.items():
        func = getattr(lib, name)
        func.argtypes = argtypes
        func.restype = ctypes.c_int
    return lib


def load(source: Path | None = None,
         cache: Path | None = None) -> ctypes.CDLL | None:
    """Build (if needed) and load the library with every function's
    ``argtypes``/``restype`` declared; ``None`` plus one
    :class:`RuntimeWarning` naming the reason when that fails."""
    try:
        return declare(ctypes.CDLL(str(build(source, cache))))
    except NativeBuildError as exc:
        reason = str(exc)
    except (OSError, AttributeError) as exc:
        reason = f"loading the built library failed: {exc}"
    warnings.warn(f"native kernels unavailable (NTT, plan replay, key "
                  f"switch and exact conversions), "
                  f"using the numpy kernels: {reason}", RuntimeWarning,
                  stacklevel=2)
    return None


_UNSET = object()
_LIB = _UNSET
_LOCK = threading.Lock()


def kernel() -> ctypes.CDLL | None:
    """The process-wide kernel library, loaded on first call; ``None``
    when it is unavailable (warned once, at that first call)."""
    global _LIB
    if _LIB is _UNSET:
        with _LOCK:
            if _LIB is _UNSET:
                _LIB = load()
    return _LIB


@contextmanager
def numpy_kernels():
    """Run the body with the library reported unavailable (:func:`kernel`
    returns ``None``), so every kernel in it runs its numpy twin, as the
    ``ntt_impl`` test fixture selects them; the library comes back on
    exit, also on an exception.  Nested scopes are fine.  The switch is
    process-wide: kernels another thread runs meanwhile run numpy too.
    :mod:`repro.schemes.reference` runs every oracle op under it."""
    global _LIB
    saved = _LIB
    _LIB = None
    try:
        yield
    finally:
        _LIB = saved
