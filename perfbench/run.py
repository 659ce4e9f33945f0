#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload eval-pair --seed 1 --seconds 20 \
        --trace 0

One process, one closed-loop client: the next request starts when the
previous one has returned.  A run

1. sets the workload up ``SETUP_REPS`` times from cleared caches and
   keeps the median as ``setup_s``;
2. sends one warm-up request;
3. ``--trace 0``: times requests until their summed latency reaches
   ``--seconds``; ``--trace 1``: times half of that untraced, then the
   other half with the tracer on, and attributes the traced requests to
   layers (``perfbench/layers.py``);
4. checks every request bitwise against an oracle computed once, after
   the timed window (``perfbench/workloads.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  The lines above it name every metric with its unit,
direction and bound.  The full result -- environment fingerprint,
latency samples, the tail percentile used, ``error_rate``, the oracle's
quality checks and the cost-model cross-check -- goes to
``.perfbench/results/``, and a traced run's Chrome trace to
``.perfbench/traces/``.  ``perfbench/compare.py`` compares two sets of
results.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench"
SETUP_REPS = 5
#: Fewest timed requests per window, however long each takes.
MIN_REQUESTS = 3


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_program() -> bool:
    """Import the program from this checkout's ``src``; False if it is
    not there."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        return False
    sys.path.insert(0, str(src))
    import repro
    return src in Path(repro.__file__).resolve().parents


class Harness:
    """Drives one workload; see the module docstring for the phases."""

    def __init__(self, cls, seed: int):
        from repro.nttmath.batched import clear_caches
        from repro.obs import TRACER

        self.cls = cls
        self.seed = seed
        self.tracer = TRACER
        self._clear_caches = clear_caches
        self.failed = 0
        self.attempted = 0
        self.digests: list[str] = []

    def clear_caches(self) -> None:
        """``clear_caches()`` also zeroes the tracer counters; keep
        them across it."""
        snapshot = self.tracer.counters()
        self._clear_caches()
        self.tracer.ingest([], snapshot)

    def setup(self, reps: int):
        times = []
        wl = None
        for _ in range(reps):
            wl = None
            gc.collect()
            self.clear_caches()
            wl = self.cls(self.seed)
            t0 = perf_counter()
            wl.setup()
            times.append(perf_counter() - t0)
        return wl, times

    def warm_up(self, wl) -> None:
        """One untimed request; its output is checked like the rest."""
        self.warm_digest = wl.digest(wl.request())

    def window(self, wl, seconds: float, *, observe: bool = False):
        """Closed loop until the summed latency reaches ``seconds``."""
        lat: list[float] = []
        busy = 0.0
        while busy < seconds or len(lat) < MIN_REQUESTS:
            self.attempted += 1
            try:
                with self.tracer.span("bench.request"):
                    t0 = perf_counter()
                    out = wl.request()
                    dt = perf_counter() - t0
            except Exception:  # a failed request counts, the run goes on
                traceback.print_exc(file=sys.stderr)
                self.failed += 1
                busy += perf_counter() - t0
                continue
            lat.append(dt)
            busy += dt
            self.digests.append(wl.digest(out))
            if observe:
                wl.observe(out)
            del out
        return lat

    def check(self, wl) -> tuple[bool, dict]:
        """Compare every digest against the oracle; returns
        ``(correct, checks)``."""
        expected = wl.oracle()
        mismatched = sum(d != expected for d in self.digests)
        self.failed += mismatched
        checks = {"bitwise_vs_oracle": mismatched == 0,
                  "warm_up_vs_oracle": self.warm_digest == expected,
                  **wl.extra_checks}
        return self.failed == 0 and all(checks.values()), checks


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(h: Harness, seconds: float) -> dict:
    from perfbench.stats import median, tail

    wl, setup_times = h.setup(SETUP_REPS)
    h.warm_up(wl)
    lat = h.window(wl, seconds)
    rss = _peak_rss_mb()
    correct, checks = h.check(wl)
    tail_s, tail_pct = tail(lat)
    return {
        "correct": correct,
        "checks": checks,
        "metrics": {
            "throughput_rps": len(lat) / sum(lat),
            "latency_p50_ms": median(lat) * 1e3,
            "latency_tail_ms": tail_s * 1e3,
            "setup_s": median(setup_times),
            "peak_rss_mb": rss,
        },
        "extra": {
            "error_rate": h.failed / h.attempted,
            "tail_percentile": tail_pct,
            "samples": len(lat),
            "setup_samples_s": setup_times,
            "latencies_s": lat,
            **wl.quality,
        },
    }


def run_traced(h: Harness, seconds: float, trace_path: Path) -> dict:
    from repro.obs import chrome_trace

    from perfbench.layers import cross_check, per_layer
    from perfbench.stats import median

    tr = h.tracer
    tr.reset()
    tr.enabled = True
    wl, setup_times = h.setup(1)
    setup_events, _ = tr.drain()
    tr.enabled = False

    h.warm_up(wl)
    untraced = h.window(wl, seconds / 2)
    tr.reset()
    tr.enabled = True
    traced = h.window(wl, seconds / 2, observe=True)
    events, counters = tr.drain()
    tr.enabled = False
    correct, checks = h.check(wl)

    compile_info, arch_info = wl.layer_info(events, len(traced))
    metrics = per_layer(
        events=events, counters=counters, setup_events=setup_events,
        requests=len(traced), untraced_ms=median(untraced) * 1e3,
        traced_ms=median(traced) * 1e3, workload=wl,
        arch_info=arch_info, compile_info=compile_info)
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps(chrome_trace(setup_events + events,
                                                  counters)))
    return {
        "correct": correct,
        "checks": checks,
        "metrics": metrics,
        "extra": {
            "error_rate": h.failed / h.attempted,
            "traced_requests": len(traced),
            "untraced_requests": len(untraced),
            "setup_s": setup_times[0],
            "counters": counters,
            "cost_model_cross_check": cross_check(arch_info, metrics),
            "chrome_trace": str(trace_path.relative_to(ROOT)),
            **wl.quality,
        },
    }


def _report(result: dict, specs: dict) -> None:
    for name, value in result["metrics"].items():
        spec = specs[name]
        line = (f"{name:<40} {value:>16.6g} {spec['unit']:<8}"
                f" {spec['better']} is better")
        if "bound" in spec:
            line += f", bound {spec['bound']:.0%}"
        print(line)
    for key, value in result["extra"].items():
        if isinstance(value, (int, float)):
            print(f"{key:<40} {value:>16.6g}")
    rows = result["extra"].get("cost_model_cross_check")
    if rows:
        print(f"{'op class':<14}{'predicted cycles':>18}{'executed wall':>16}")
        for cls, predicted, executed in rows:
            print(f"{cls:<14}{predicted:>18.1%}{executed:>16.1%}")
    for check, ok in result["checks"].items():
        print(f"check {check}: {'ok' if ok else 'FAILED'}")


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(ROOT))
    from perfbench import envinfo

    seen = envinfo.prepare()
    if not _import_program():
        print(f"perfbench: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    specs = {m["name"]: m for m in section}

    h = Harness(WORKLOADS[args.workload], args.seed)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result = run_traced(h, args.seconds,
                            OUT_DIR / "traces" / f"{stem}.json")
    else:
        result = run_untraced(h, args.seconds)
    missing = set(specs) ^ set(result["metrics"])
    if missing:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {missing}")

    _report(result, specs)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": envinfo.fingerprint(ROOT, seen),
              "attempted": h.attempted, "failed": h.failed, **result}
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": h.attempted,
        "failed": h.failed,
        "metrics": {name: {"value": value, "unit": specs[name]["unit"]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
