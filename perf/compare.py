#!/usr/bin/env python3
"""Compare two suite reports: ``python3 perf/compare.py A.json B.json``.

A and B are files ``perf/run.py --out`` wrote.  One row per workload x
end-to-end metric: both values, B/A with A named as the base, the bound
from BENCHMARK.json, and

``ok``          B is no worse than A by more than the bound;
``worse``       it is;
``unresolved``  the passes inside A or B spread wider than the bound, so
                a difference that size cannot be told from noise
                (unless every pass of B beats every pass of A).

Deterministic metrics (datagrams, ok share) and the checked facts
(digests, virtual time) must be identical, whatever their bound.  Exit status is
non-zero when any row is ``worse`` or any fact differs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
sys.path.insert(0, str(ROOT))

from perf import stats  # noqa: E402

#: Metrics that are counts or simulated quantities: exact per seed.
EXACT = ("msgs_per_op", "ok_share")


def compare(a: dict, b: dict, benchmark: dict) -> tuple[list[dict], list[str]]:
    """Rows for the table and the list of facts that differ."""
    rows = []
    differing = []
    same_seed = a["manifest"]["seed"] == b["manifest"]["seed"]
    for workload, entry_a in a["workloads"].items():
        record_a = entry_a["end_to_end"]
        record_b = b["workloads"][workload]["end_to_end"]
        if same_seed and record_a["facts"] != record_b["facts"]:
            differing.append(f"{workload}: checked facts differ")
        for spec in benchmark["end_to_end"]:
            name = spec["name"]
            base, new = record_a["metrics"][name], record_b["metrics"][name]
            if name in EXACT and same_seed:
                state = "ok" if base["value"] == new["value"] else "worse"
            else:
                state = stats.verdict(base, new, spec["better"], spec["bound"])
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": spec["unit"],
                "a": base["value"],
                "b": new["value"],
                "ratio": new["value"] / base["value"] if base["value"] else float("nan"),
                "bound": spec["bound"],
                "spread": max(stats.spread(base), stats.spread(new)),
                "verdict": state,
            })
    return rows, differing


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, differing = compare(a, b, benchmark)
    print(f"A = {argv[0]} ({a['manifest']['git_sha'][:12]}, seed {a['manifest']['seed']})")
    print(f"B = {argv[1]} ({b['manifest']['git_sha'][:12]}, seed {b['manifest']['seed']})")
    print(f"{'workload':14s} {'metric':18s} {'A':>12s} {'B':>12s} {'B/A (base A)':>13s} "
          f"{'bound':>6s} {'spread':>7s}  verdict")
    for row in rows:
        print(f"{row['workload']:14s} {row['metric']:18s} {row['a']:>12.6g} {row['b']:>12.6g} "
              f"{row['ratio']:>13.4f} {row['bound']:>6.3f} {row['spread']:>7.3f}  "
              f"{row['verdict']}  [{row['unit']}]")
    for line in differing:
        print(f"DIFFERENT: {line}")
    worse = [row for row in rows if row["verdict"] == "worse"]
    unresolved = [row for row in rows if row["verdict"] == "unresolved"]
    print(f"{len(rows)} rows: {len(worse)} worse, {len(unresolved)} unresolved")
    return 1 if worse or differing else 0


if __name__ == "__main__":
    sys.exit(main())
