#!/usr/bin/env python
"""Interleaved C timings of the native NTT rows, per vector-clone variant.

Builds ``tools/ntt_timing.c``, which includes the kernel source
``src/repro/nttmath/native/ntt.c``, once per variant:

* ``plain``: ``VECTOR_CLONES`` empty and no ``-m`` flag, the code other
  architectures run and the x86-64 ``default`` clone;
* ``avx2``, ``avx512f``, ``x86-64-v4``: ``VECTOR_CLONES`` empty and the
  whole file built for that target (``-mavx2``, ``-mavx512f``,
  ``-march=x86-64-v4``), listed when the CPU has its features;
* ``dispatched``: the production build, the loader picking the clones.

With ``--base REV`` it also builds the ``ntt.c`` of git revision ``REV``
the same way.  It then runs every binary once per round, in turn, for
``--rounds`` rounds, so a slow phase of a shared host hits every variant
alike, and prints a markdown table of the median over the rounds of
each measurement in microseconds: ``base -> source`` per variant.

    python tools/ntt_timing.py --base HEAD~1 --rounds 7
"""

from __future__ import annotations

import argparse
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
HARNESS = REPO / "tools" / "ntt_timing.c"
KERNEL = "src/repro/nttmath/native/ntt.c"

#: name -> (extra compiler flags, CPU flags the variant needs, pinned).
VARIANTS = {
    "plain": ((), (), True),
    "avx2": (("-mavx2",), ("avx2",), True),
    "avx512f": (("-mavx512f",), ("avx512f",), True),
    "x86-64-v4": (("-march=x86-64-v4",),
                  ("avx512f", "avx512bw", "avx512cd", "avx512dq",
                   "avx512vl"), True),
    "dispatched": ((), (), False),
}
#: The optimization flags of the kernel library, minus the shared-object
#: ones (repro.nttmath.native.CFLAGS).
CFLAGS = ("-O3", "-std=c99", "-ffp-contract=off")


def cpu_flags() -> set[str]:
    """The CPU feature flags /proc/cpuinfo lists (empty elsewhere)."""
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    for line in text.splitlines():
        if line.startswith("flags"):
            return set(line.split(":", 1)[1].split())
    return set()


def runnable(names) -> list[str]:
    """The variants among ``names`` this machine builds and runs."""
    x86 = platform.machine() in ("x86_64", "AMD64")
    flags = cpu_flags()
    return [name for name in names
            if not VARIANTS[name][1]
            or (x86 and all(f in flags for f in VARIANTS[name][1]))]


def build(cc: str, source: Path, variant: str, out: Path) -> Path:
    """The harness binary for ``source`` built as ``variant``."""
    extra, _, pinned = VARIANTS[variant]
    defs = [f"-DNTT_SOURCE=\"{source}\""]
    if pinned:
        defs.append("-DVECTOR_CLONES(...)=")
    proc = subprocess.run([cc, *CFLAGS, *extra, *defs, "-o", str(out),
                           str(HARNESS)], capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"building {out.name} failed:\n{proc.stderr}")
    return out


def run(binary: Path, n: int, trials: int) -> dict[str, float]:
    """One run of a harness binary: measurement -> microseconds."""
    proc = subprocess.run([str(binary), str(n), str(trials)],
                          capture_output=True, text=True, check=True)
    out = {}
    for line in proc.stdout.splitlines():
        name, value = line.rsplit(" ", 1)
        out[name] = float(value)
    return out


def table(results: dict, variants: list[str], labels: list[str]) -> str:
    """Markdown table: one row per measurement, one column per variant,
    each cell the medians ``base -> source`` (or the source's alone)."""
    names: list[str] = []
    for runs in results.values():
        for name in runs[0]:
            if name not in names:
                names.append(name)
    lines = ["| µs | " + " | ".join(variants) + " |",
             "|---|" + "---:|" * len(variants)]
    for name in names:
        cells = []
        for variant in variants:
            vals = []
            for label in labels:
                runs = results.get((label, variant), [])
                got = [r[name] for r in runs if name in r]
                if got:
                    vals.append(f"{statistics.median(got):.2f}")
            cells.append(" → ".join(vals) if vals else "–")
        lines.append(f"| {name} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, default=4096)
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--trials", type=int, default=9,
                    help="timed batches per measurement in one run")
    ap.add_argument("--base", help="git revision whose ntt.c to compare")
    ap.add_argument("--variants", default=",".join(VARIANTS))
    args = ap.parse_args(argv)
    cc = shutil.which("cc")
    if cc is None:
        print("no C compiler: `cc` is not on PATH", file=sys.stderr)
        return 2
    variants = runnable(args.variants.split(","))
    with tempfile.TemporaryDirectory(prefix="ntt-timing-") as tmp:
        sources = {"source": REPO / KERNEL}
        if args.base:
            base = Path(tmp) / "base-ntt.c"
            base.write_text(subprocess.run(
                ["git", "-C", str(REPO), "show", f"{args.base}:{KERNEL}"],
                capture_output=True, text=True, check=True).stdout)
            sources = {"base": base, **sources}
        binaries = {(label, v): build(cc, src, v,
                                      Path(tmp) / f"{label}-{v}")
                    for label, src in sources.items() for v in variants}
        results: dict = {key: [] for key in binaries}
        for _ in range(args.rounds):
            for key, binary in binaries.items():
                results[key].append(run(binary, args.n, args.trials))
    print(f"n = {args.n}, median of {args.rounds} interleaved rounds"
          + (f", {args.base} → this source" if args.base else ""))
    print(table(results, variants, list(sources)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
