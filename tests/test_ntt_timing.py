"""The NTT timing harness (tools/ntt_timing.py) builds and runs.

A smoke run at n = 64: the plain build and the production (dispatched)
build of the kernel source, one round each, and a table with the row,
``ks_mac`` and ``bconv_exact`` measurements.  Skipped without ``cc``."""

from __future__ import annotations

import importlib.util
import shutil
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "ntt_timing", REPO / "tools" / "ntt_timing.py")
ntt_timing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ntt_timing)


@pytest.mark.skipif(shutil.which("cc") is None,
                    reason="no C compiler: `cc` is not on PATH")
def test_harness_builds_and_prints_the_table(capsys):
    assert ntt_timing.main(["--n", "64", "--rounds", "1", "--trials", "1",
                            "--variants", "plain,dispatched"]) == 0
    out = capsys.readouterr().out
    rows = {line.split(" | ")[0].lstrip("| "): line
            for line in out.splitlines() if line.startswith("| ")}
    assert rows["µs"] == "| µs | plain | dispatched |"
    for name in ("load", "store", "forward", "inverse", "ks_mac",
                 "bconv_exact"):
        assert len(rows[name].split(" | ")) == 3
