#!/usr/bin/env python3
"""Run one benchmark workload and print one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ``src/``.
Every input derives from ``--seed``. With ``--trace 0`` the result holds
the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` the run
measures half its seconds untraced and half traced, and the result holds
the per-layer metrics plus the tracing overhead between the two halves.

Besides the result line (the last line of stdout), each run appends one
record with provenance to ``.bench_build/perfbench/records.jsonl`` (see
``--record``), and a traced run writes its spans next to it.
"""

from __future__ import annotations

import argparse
from datetime import datetime, timezone
import hashlib
import json
import os
from pathlib import Path
import platform
import subprocess
import sys
from typing import Any, Dict, Optional

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train-sync-lenet", "allreduce-f32", "allreduce-f16", "serve-live")
WORK_DIR = ROOT / ".bench_build" / "perfbench"


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int) -> Dict[str, Any]:
    """Where and on what a record was measured."""
    import numpy as np

    sha = dirty = None
    if (ROOT / ".git").exists():
        sha = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    tree = hashlib.blake2b(digest_size=16)
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py")):
        tree.update(str(path.relative_to(ROOT)).encode())
        tree.update(path.read_bytes())
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "code_digest": tree.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "seed": seed,
    }


def _segment(workload: str, seed: int, seconds: float, tracer=None):
    """Run one measured segment of ``workload``; returns its Outcome."""
    from perfbench import wl_allreduce, wl_serve, wl_train

    if workload == "train-sync-lenet":
        tmp = WORK_DIR / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        return wl_train.run(seed, seconds, str(tmp))
    if workload == "allreduce-f32":
        return wl_allreduce.run(seed, seconds, "float32")
    if workload == "allreduce-f16":
        return wl_allreduce.run(seed, seconds, "float16")
    return wl_serve.run(seed, seconds, tracer)


def _traced(workload: str, seed: int, seconds: float):
    """Untraced half, then traced half; returns (outcome, metrics, spans)."""
    from perfbench import layers
    from perfbench.spans import Tracer

    plain = _segment(workload, seed, seconds / 2)
    with Tracer() as tracer:
        layers.install(tracer)
        traced = _segment(workload, seed, seconds / 2, tracer)
    metrics: Dict[str, float] = {name: 0.0 for name in layers.EXTRA_METRICS}
    metrics.update(layers.span_metrics(tracer.totals()))
    metrics.update(traced.layer)
    base, with_spans = plain.metrics.get("ops_per_s"), traced.metrics.get("ops_per_s")
    if base and with_spans:
        metrics["trace.overhead_pct"] = 100.0 * (base / with_spans - 1.0)
    traced.checks = plain.checks + traced.checks
    if (plain.fingerprint or traced.fingerprint) and not traced.check(
            "tracing changes no result", plain.fingerprint == traced.fingerprint,
            f"{plain.fingerprint} vs {traced.fingerprint}"):
        traced.failed = traced.attempted
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    traced.info["untraced"] = plain.metrics
    traced.info["shares"] = _shares(tracer.totals(under="engine.self"), metrics)
    return traced, metrics, tracer


def _shares(training, metrics: Dict[str, float]) -> Dict[str, float]:
    """How the traced time splits: nn self time inside the training calls
    over their wall, and stage + allreduce over the rank step walls."""
    out = {}
    train_wall = training.get("engine.self", (0.0, 0, 0.0))[2]
    if train_wall:
        nn = sum(v[0] for k, v in training.items() if k.startswith("nn."))
        out["nn_self_over_training_wall"] = nn / train_wall
    comm = [metrics[f"comm.{p}.s"] for p in ("stage", "allreduce", "update")]
    if sum(comm):
        out["stage_allreduce_over_step_wall"] = (comm[0] + comm[1]) / sum(comm)
    return out


def _units(trace: bool) -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker the process backend started,
    and wait for it, so the run leaves no process behind."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=str(WORK_DIR / "records.jsonl"),
                        help="JSONL file the run's record is appended to ('' for none)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no package source at {ROOT / 'src' / 'repro'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    WORK_DIR.mkdir(parents=True, exist_ok=True)

    tracer = None
    try:
        if args.trace:
            outcome, values, tracer = _traced(args.workload, args.seed, args.seconds)
        else:
            outcome = _segment(args.workload, args.seed, args.seconds)
            values = outcome.metrics
    finally:
        _stop_resource_tracker()

    units = _units(bool(args.trace))
    missing = sorted(set(units) - set(values))
    if missing:
        outcome.check("every metric measured", False, ", ".join(missing))
    result = {
        "correct": outcome.correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed if outcome.attempted else 1,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "provenance": provenance(args.seed), **result,
              "checks": outcome.checks, "info": outcome.info}
    if args.record:
        Path(args.record).parent.mkdir(parents=True, exist_ok=True)
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, default=float) + "\n")
    if tracer is not None and tracer.totals():
        tracer.write_jsonl(str(WORK_DIR / f"spans-{args.workload}-s{args.seed}.jsonl"))
    for check in outcome.checks:
        if not check["ok"]:
            print(f"perfbench: check failed: {check['name']} {check['detail']}", file=sys.stderr)
    print(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
