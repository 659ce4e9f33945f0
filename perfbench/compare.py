#!/usr/bin/env python3
"""Compare two sets of benchmark results.

Usage::

    python3 perfbench/compare.py BASE_DIR NEW_DIR
    python3 perfbench/compare.py --spread DIR

Each directory holds result files written by ``perfbench/run.py``
(``.perfbench/results/*.json``; copy them aside between commits).
Untraced results are grouped by workload; for every workload and
end-to-end metric of ``BENCHMARK.json`` the report prints both medians
and quartiles, the ratio new/base, the share of (base, new) pairs the
new side wins, and a verdict:

* ``better`` -- every new run beats every base run; or the median
  improved by more than the base runs' own quartile spread and the new
  side wins at least 90% of the pairs;
* ``worse`` -- the median got worse by more than the metric's bound;
* ``unresolved`` -- the relative quartile spread of either side
  exceeds the bound, so neither verdict can be drawn;
* ``unchanged`` -- none of the above.

The base and new runs are not paired, so the win share is taken over
all cross pairs.  Exit code 1 when any row is ``worse``.

``--spread DIR`` prints, for one set of runs (one seed each), every
metric's quartile spread as a share of its median next to its bound:
the steadiness test a benchmark change must pass (spread under the
bound, and under a third of it to leave headroom).  Exit code 1 when a
spread other than ``setup_s``'s exceeds its bound.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.stats import quartiles  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WIN_SHARE = 0.9


def load(directory: Path) -> dict[str, dict[str, list[float]]]:
    """``{workload: {metric: [value per run]}}`` of untraced results."""
    out: dict[str, dict[str, list[float]]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace"):
            continue
        per = out.setdefault(record["workload"], {})
        for name, value in record["metrics"].items():
            per.setdefault(name, []).append(float(value))
    return out


def verdict(base: list[float], new: list[float], *, better: str,
            bound: float) -> dict:
    """One compare row: quartiles, ratio, win share and verdict."""
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    worse_rel = sign * (nm - bm) / bm
    base_spread = (b3 - b1) / bm
    spread = max(base_spread, (n3 - n1) / nm)
    wins = sum(1 for b in base for n in new if sign * (n - b) < 0)
    win_share = wins / (len(base) * len(new))
    if all(sign * (n - b) < 0 for b in base for n in new):
        call = "better"
    elif spread > bound:
        call = "unresolved"
    elif worse_rel > bound:
        call = "worse"
    elif -worse_rel > base_spread and win_share >= WIN_SHARE:
        call = "better"
    else:
        call = "unchanged"
    return {"base": (b1, bm, b3), "new": (n1, nm, n3),
            "ratio": nm / bm, "win_share": win_share, "verdict": call}


def compare(base_dir: Path, new_dir: Path, specs: list[dict]) -> list[list]:
    base, new = load(base_dir), load(new_dir)
    rows = []
    for workload in sorted(set(base) & set(new)):
        for spec in specs:
            name = spec["name"]
            b, n = base[workload].get(name), new[workload].get(name)
            if not b or not n:
                continue
            v = verdict(b, n, better=spec["better"], bound=spec["bound"])
            rows.append([workload, name, len(b), len(n), *v["base"],
                         *v["new"], v["ratio"], v["win_share"],
                         v["verdict"]])
    return rows


def spread(directory: Path, specs: list[dict]) -> list[list]:
    """Rows ``[workload, metric, runs, median, spread, bound]``."""
    rows = []
    for workload, per in sorted(load(directory).items()):
        for spec in specs:
            values = per.get(spec["name"])
            if values:
                q1, med, q3 = quartiles(values)
                rows.append([workload, spec["name"], len(values), med,
                             (q3 - q1) / med, spec["bound"]])
    return rows


def _print_spread(rows) -> int:
    print(f"{'workload':<16}{'metric':<18}{'runs':>6}{'median':>14}"
          f"{'spread':>10}{'bound':>8}")
    bad = 0
    for workload, name, runs, med, rel, bound in rows:
        flag = "" if rel < bound / 3 else (" over bound/3" if rel <= bound
                                           else " OVER BOUND")
        if rel > bound and name != "setup_s":
            bad += 1
        print(f"{workload:<16}{name:<18}{runs:>6}{med:>14.6g}{rel:>10.2%}"
              f"{bound:>8.0%}{flag}")
    return 1 if bad else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    if len(argv) == 2 and argv[0] == "--spread":
        return _print_spread(spread(Path(argv[1]), specs))
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(Path(argv[0]), Path(argv[1]), specs)
    head = ("workload", "metric", "nb", "nn", "base q1", "base med",
            "base q3", "new q1", "new med", "new q3", "new/base", "wins",
            "verdict")
    print("".join(f"{h:>12}" if i > 1 else f"{h:<16}"
                  for i, h in enumerate(head)))
    for row in rows:
        cells = [f"{row[0]:<16}", f"{row[1]:<16}", f"{row[2]:>12}",
                 f"{row[3]:>12}"]
        cells += [f"{x:>12.5g}" for x in row[4:10]]
        cells += [f"{row[10]:>12.3f}", f"{row[11]:>12.0%}", f"{row[12]:>12}"]
        print("".join(cells))
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
