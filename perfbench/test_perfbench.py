"""The benchmark's own tests (not part of the repository's tier 1).

Run from the repository root::

    python3 -m pytest perfbench -q

The traced-run test starts the real command twice per workload, with
two seeds, and takes about two minutes on a 2-vCPU machine.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import compare, stats  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _is_count(name: str) -> bool:
    return (name.endswith("_rows") or name == "batch.rows"
            or name == "exec_plan.steps" or name == "arch.sim_cycles"
            or name.startswith("compiler.instrs_"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300, check=False)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_tail_is_highest_percentile_with_ten_beyond():
    samples = list(range(1, 31))            # 30 samples
    value, pct = stats.tail(samples)
    assert value == 20 and sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100 * 20 / 30)
    # Too few samples for a tail beyond the median: the median sample.
    assert stats.tail(list(range(1, 12))) == (6.0, pytest.approx(600 / 11))


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    same = compare.verdict(base, [100.2, 99.8, 100.1, 100.0, 99.9],
                           better="lower", bound=0.1)
    assert same["verdict"] == "unchanged"
    slower = compare.verdict(base, [120.0, 121.0, 119.0, 118.0, 122.0],
                             better="lower", bound=0.1)
    assert slower["verdict"] == "worse"
    faster = compare.verdict(base, [90.0, 91.0, 89.0, 90.5, 89.5],
                             better="lower", bound=0.1)
    assert faster["verdict"] == "better"
    noisy = compare.verdict(base, [70.0, 130.0, 100.0, 60.0, 140.0],
                            better="lower", bound=0.1)
    assert noisy["verdict"] == "unresolved"
    higher = compare.verdict(base, [80.0, 81.0, 79.0, 80.5, 79.5],
                             better="higher", bound=0.1)
    assert higher["verdict"] == "worse"


def test_clear_caches_keeps_tracer_counters():
    from repro.obs import TRACER

    from perfbench.run import Harness
    from perfbench.workloads import EvalPair

    h = Harness(EvalPair, seed=0)
    TRACER.count("perfbench.test", 3)
    try:
        h.clear_caches()
        assert TRACER.counters().get("perfbench.test") == 3
    finally:
        TRACER.reset_counters()


def test_untraced_run_prints_every_end_to_end_metric():
    out = _result(_run("--workload", "eval-pair", "--seed", "3",
                       "--seconds", "1", "--trace", "0"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == names
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_count_metrics_repeat_exactly(workload):
    from repro.obs.export import validate_chrome_trace

    runs = [_result(_run("--workload", workload, "--seed", str(seed),
                         "--seconds", "1", "--trace", "1"))
            for seed in (1, 2)]
    names = {m["name"] for m in SPEC["per_layer"]}
    for out in runs:
        assert out["correct"] and out["failed"] == 0
        assert set(out["metrics"]) == names
    counts = [{k: v["value"] for k, v in out["metrics"].items()
               if _is_count(k)} for out in runs]
    assert counts[0] == counts[1]
    assert any(counts[0].values()), "workload moved no counted work"
    trace = ROOT / ".perfbench" / "traces" / f"{workload}-seed2-trace1.json"
    validate_chrome_trace(json.loads(trace.read_text()))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "eval-pair", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
