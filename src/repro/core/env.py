"""Validated ``REPRO_*`` environment-variable parsing.

Every knob the repo reads from the environment goes through this
module, so malformed values fail with one clear message naming the
variable instead of as a bare ``ValueError`` deep inside a sweep —
and so the invariant lint (``tools/lint_repro.py``) can forbid direct
``os.environ`` reads everywhere else in ``src/``.

This module imports only the standard library (:mod:`repro.obs`
depends on it, and obs must stay importable with nothing but the
stdlib present).

Known variables (the canonical registry):

=========================  ===========================================
``REPRO_BATCH_MAX_ROWS``   cap on a fused cross-ciphertext batch
                           stack's row count (``2k*L``); 0 (default)
                           means unbounded
                           (:mod:`repro.batch.coalesce`)
``REPRO_TRACE``            enable the global tracer at import time
``REPRO_VERIFY``           run the static verifier suites
                           (:mod:`repro.compiler.verify`) during
                           compilation and plan build
``REPRO_SCRATCH_DEBUG``    poison NTT scratch buffers on acquire
``REPRO_STORE_DIR``        activate the persistent artifact store
``REPRO_STORE_MAX_BYTES``  artifact-store size bound (bytes)
``REPRO_SWEEP_START_METHOD``  multiprocessing start method
``REPRO_BENCH_*``          benchmark-tier sizes, repeats and floors
                           (documented in each ``benchmarks/`` module)
=========================  ===========================================
"""

from __future__ import annotations

import math
import os
import warnings

__all__ = [
    "ENV_VERIFY",
    "env_flag",
    "env_float",
    "env_int",
    "env_str",
]

#: Opt-in switch for the static verifier: when truthy, the compiler
#: pipeline runs the IR/schedule/regalloc suites as extra stages and
#: freshly built execution plans are checked by the plan suite.
ENV_VERIFY = "REPRO_VERIFY"

_TRUE = frozenset(("1", "true", "yes", "on"))
_FALSE = frozenset(("", "0", "false", "no", "off"))


def env_flag(name: str, default: bool = False) -> bool:
    """A boolean switch: ``1/true/yes/on`` vs ``0/false/no/off``.

    Unset returns ``default``; the empty string counts as off (so
    ``REPRO_TRACE= cmd`` disables rather than surprises); anything
    else raises with a message naming the variable.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    lowered = raw.strip().lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise ValueError(
        f"{name}={raw!r} is not a valid flag; expected one of "
        f"1/true/yes/on or 0/false/no/off")


def env_int(name: str, default: int, *, minimum: int | None = None,
            what: str = "integer", empty_warns: bool = False,
            stacklevel: int = 2) -> int:
    """An integer knob with bounds checking.

    Unset returns ``default``.  With ``empty_warns=True`` an empty
    string is ignored with a warning and falls back to ``default``
    (the historical ``REPRO_STORE_MAX_BYTES`` contract); otherwise an
    empty string is malformed like any other non-integer.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    if raw.strip() == "":
        if empty_warns:
            warnings.warn(
                f"ignoring empty {name}; using the default of "
                f"{default}", stacklevel=stacklevel + 1)
            return default
        raise ValueError(
            f"{name}={raw!r} is not a valid {what}; expected an "
            f"integer")
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{name}={raw!r} is not a valid {what}; expected an "
            f"integer") from None
    if minimum is not None and value < minimum:
        raise ValueError(
            f"{name}={raw!r} must be "
            + ("non-negative" if minimum == 0 else
               f"at least {minimum}"))
    return value


def env_float(name: str, default: float) -> float:
    """A finite real-valued knob: a speedup floor, a slack factor, an
    overhead bound.

    Unset returns ``default``; an empty string, a non-number, ``nan``
    or ``inf`` is malformed and raises with a message naming the
    variable.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(
            f"{name}={raw!r} is not a valid number; expected a finite "
            f"decimal such as 0.7")
    return value


def env_str(name: str, default: str | None = None, *,
            choices: tuple[str, ...] | None = None) -> str | None:
    """A free-form or enumerated string knob.

    Unset or empty returns ``default``; with ``choices`` given, any
    other value must be one of them.
    """
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    if choices is not None and raw not in choices:
        raise ValueError(
            f"{name}={raw!r} is not one of {sorted(choices)}")
    return raw
