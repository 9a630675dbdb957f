#!/usr/bin/env python3
"""Compare two sets of benchmark records, one row per workload and metric.

    python3 perfbench/compare.py BASE NEW

``BASE`` and ``NEW`` are record files written by ``perfbench/run.py`` (one
JSON record per line) or directories of them. Only untraced records count.
Runs are paired by seed where both sides have it, otherwise in file order.
Each row gives both sides' median and quartiles, the share of pairs the new
side wins, and the verdict of :func:`perfbench.stats.verdict` under the
metric's bound from ``BENCHMARK.json``. Records whose hosts differ (nproc,
python, numpy, platform) are flagged, because they are not comparable.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
import sys
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
HOST_KEYS = ("nproc", "python", "numpy", "platform")


def load_records(path: str) -> List[dict]:
    """Untraced records from a JSONL file or every ``*.jsonl`` in a directory."""
    p = Path(path)
    files = sorted(p.glob("*.jsonl")) if p.is_dir() else [p]
    out = []
    for f in files:
        for line in f.read_text(encoding="utf-8").splitlines():
            if line.strip():
                rec = json.loads(line)
                if not rec.get("trace"):
                    out.append(rec)
    return out


def paired(base: List[dict], new: List[dict]) -> Tuple[List[dict], List[dict]]:
    """Pair runs by seed when the sides share seeds, else by order."""
    by_seed_b = {r["provenance"]["seed"]: r for r in base}
    by_seed_n = {r["provenance"]["seed"]: r for r in new}
    common = sorted(set(by_seed_b) & set(by_seed_n))
    if common and len(by_seed_b) == len(base) and len(by_seed_n) == len(new):
        return [by_seed_b[s] for s in common], [by_seed_n[s] for s in common]
    n = min(len(base), len(new))
    return base[:n], new[:n]


def compare(base: List[dict], new: List[dict], spec: dict) -> List[Dict[str, object]]:
    from perfbench.stats import pair_wins, quartiles, verdict

    rows = []
    workloads = [w["name"] for w in spec["workloads"]]
    for wl in workloads:
        b_all = [r for r in base if r["workload"] == wl]
        n_all = [r for r in new if r["workload"] == wl]
        if not b_all or not n_all:
            continue
        b_runs, n_runs = paired(b_all, n_all)
        for m in spec["end_to_end"]:
            name = m["name"]
            bv = [r["metrics"][name]["value"] for r in b_runs if name in r["metrics"]]
            nv = [r["metrics"][name]["value"] for r in n_runs if name in r["metrics"]]
            if not bv or not nv:
                continue
            wins, _, _ = pair_wins(bv, nv, m["better"])
            rows.append({
                "workload": wl, "metric": name, "unit": m["unit"],
                "base": quartiles(bv), "new": quartiles(nv), "pairs": min(len(bv), len(nv)),
                "win_share": wins / min(len(bv), len(nv)),
                "verdict": verdict(bv, nv, m["better"], m["bound"]),
                "failed": sum(r["failed"] for r in b_runs + n_runs),
            })
    return rows


def host_mismatch(base: List[dict], new: List[dict]) -> List[str]:
    """Host fields that differ between or within the two sets."""
    out = []
    for key in HOST_KEYS:
        values = {str(r["provenance"].get(key)) for r in base + new}
        if len(values) > 1:
            out.append(f"{key}: {sorted(values)}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="records of the parent (file or directory)")
    parser.add_argument("new", help="records of the change (file or directory)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load_records(args.base), load_records(args.new)
    for line in host_mismatch(base, new):
        print(f"warning: records come from different hosts, {line}")
    print(f"{'workload':<18} {'metric':<18} {'unit':<6} {'base q1/med/q3':>28} "
          f"{'new q1/med/q3':>28} {'pairs':>5} {'wins':>5}  verdict")
    for row in compare(base, new, spec):
        b = "/".join(f"{v:.4g}" for v in row["base"])
        n = "/".join(f"{v:.4g}" for v in row["new"])
        flag = "  (failed ops)" if row["failed"] else ""
        print(f"{row['workload']:<18} {row['metric']:<18} {row['unit']:<6} {b:>28} {n:>28} "
              f"{row['pairs']:>5} {row['win_share']:>5.2f}  {row['verdict']}{flag}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
