"""Benchmark harness configuration.

Each benchmark regenerates one table or figure of the paper, prints it
(so ``pytest benchmarks/ --benchmark-only`` output is the reproduction
record), and asserts the qualitative shape the paper reports.  Set
``REPRO_BENCH_N`` to a smaller power of two (e.g. 8192) to run the
timing studies at reduced ring degree.
"""

import pathlib
import sys

import pytest

from repro.core.env import env_float, env_int

# The test-only differential oracles (``tests/oracles``): the compiler
# benchmark checks the production compile against them.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]
                       / "tests"))

#: Ring degree for simulation-heavy benchmarks (paper value: 65536).
BENCH_N = env_int("REPRO_BENCH_N", 2 ** 16, minimum=1)
#: Workload detail factor (1.0 = paper-scale structure).
BENCH_DETAIL = env_float("REPRO_BENCH_DETAIL", 1.0)


@pytest.fixture(scope="session")
def bench_n() -> int:
    return BENCH_N


@pytest.fixture(scope="session")
def bench_detail() -> float:
    return BENCH_DETAIL
