"""``allreduce-f32`` / ``allreduce-f16``: the paper's single packed message.

The benchmark's own rank program runs on the processes backend with shm
transport and the ring collective, P=2 ranks, over a 24 MB buffer (6M
float32 pseudo-gradients plus one control element). Each step gets
``ctx.collective_buffer``, writes a deterministic pseudo-gradient into it,
calls ``ctx.allreduce(view=True)`` and folds the total into the weights.
The control element carries rank 0's stop flag, so every rank ends after
the same step. One operation is one step; a step's wall is that of its
slowest rank.

Each rank times its three phases (stage, allreduce, update) every step
and ships them back with its result: these are the ``comm.*`` spans. The
parent then checks the totals of the first and the last step against its
own serial ``tree_reduce`` of the same contributions.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Dict, List

import numpy as np

from perfbench.common import digest, Outcome, own_peak_rss_mb, sub_seed
from perfbench.stats import percentile, summarize
from repro.comm.backend import make_communicator
from repro.comm.collectives import tree_reduce

RANKS = 2
ELEMS = 6_000_000 + 1
#: Communicator builds per run; each is one set-up sample.
REPS = 3
#: Untimed steps after the fork; the arena and the pages are warm after.
WARMUP = 1
LR = 0.05
TIMEOUT = 30.0
#: Highest percentile the per-step tail is reported at.
TAIL_CAP = 90.0


def contribution(base: np.ndarray, rank: int, step: int, out: np.ndarray, stop: float) -> None:
    """Rank ``rank``'s packed message at ``step``: a scaled copy of the
    seeded base gradient, then the stop flag in the last element."""
    np.multiply(base, np.float32((rank + 1) * 1e-3 * (step % 7 + 1)), out=out[:-1])
    out[-1] = stop


def _rank_program(ctx, base: np.ndarray, budget: float) -> Dict[str, Any]:
    weights = np.zeros(base.size, dtype=np.float32)
    scratch = np.empty_like(weights)
    phases: List[tuple] = []
    checked: Dict[int, str] = {}
    first = None
    deadline = float("inf")
    t = 0
    while True:
        timed = t >= WARMUP
        if timed and first is None:
            first = time.monotonic()
            deadline = first + budget
        a = time.perf_counter()
        buf = ctx.collective_buffer(ELEMS)
        stop = ctx.rank == 0 and time.monotonic() >= deadline
        contribution(base, ctx.rank, t, buf, 1.0 if stop else 0.0)
        b = time.perf_counter()
        total = ctx.allreduce(buf, view=True)
        c = time.perf_counter()
        np.multiply(total[:-1], np.float32(LR / ctx.size), out=scratch)
        np.subtract(weights, scratch, out=weights)
        d = time.perf_counter()
        if timed:
            phases.append((b - a, c - b, d - c))
        last = bool(total[-1] >= 1.0)
        if t == 0 or last:
            checked[t] = digest(total)
        if last:
            break
        t += 1
    out = {
        "first_step_at": first,
        "phases": phases,
        "checked": checked,
        "weights": digest(weights),
        "peak_rss_mb": own_peak_rss_mb(),
    }
    if ctx.rank == 0:
        out["total"] = np.array(total)
    return out


def _expected_total(base: np.ndarray, step: int, last: bool) -> np.ndarray:
    """The parent's serial tree reduction of every rank's message."""
    msgs = []
    for r in range(RANKS):
        msg = np.empty(ELEMS, dtype=np.float32)
        contribution(base, r, step, msg, 1.0 if (last and r == 0) else 0.0)
        msgs.append(msg)
    return tree_reduce(msgs)


def _within_f16_rounding(got: np.ndarray, base: np.ndarray, step: int, want: np.ndarray) -> bool:
    """Each contribution rounds once to float16 (half an ulp: 2^-11
    relative, 2^-25 absolute below the normal range); the float32 sums
    add a few float32 ulps."""
    scale = np.float32(sum((r + 1) * 1e-3 * (step % 7 + 1) for r in range(RANKS)))
    mag = np.abs(base) * scale
    tol = (2.0 ** -11 + 2.0 ** -21) * mag + RANKS * 2.0 ** -25
    return bool(np.all(np.abs(got[:-1].astype(np.float64) - want[:-1]) <= tol)
                and got[-1] == want[-1])


def _check_rep(out: Outcome, wire: str, base: np.ndarray, results: List[Dict]) -> bool:
    ok = out.check("ranks ran the same steps",
                   len({len(r["phases"]) for r in results}) == 1
                   and len({tuple(r["checked"]) for r in results}) == 1)
    ok &= out.check("ranks agree bit for bit",
                    all(len({r["checked"][s] for r in results}) == 1 for s in results[0]["checked"])
                    and len({r["weights"] for r in results}) == 1)
    last = max(results[0]["checked"])
    if wire != "float32":
        want = _expected_total(base, last, True)
        return ok & out.check(f"step {last} total within float16 rounding of float32",
                              _within_f16_rounding(results[0]["total"], base, last, want))
    for step in sorted(results[0]["checked"]):
        want = _expected_total(base, step, step == last)
        ok &= out.check(f"step {step} total equals serial tree_reduce",
                        results[0]["checked"][step] == digest(want))
    return ok


def run(seed: int, seconds: float, wire: str) -> Outcome:
    out = Outcome()
    setups, step_ms, wait_ms, rss = [], [], [], []
    span_s = [0.0, 0.0, 0.0]
    span_calls = 0
    steps_run = 0
    bytes_total: Dict[str, int] = {}
    fingerprints: List[tuple] = []  # (step 0 total digest, steps) per run
    for _ in range(REPS):
        t0 = time.monotonic()
        try:
            base = np.random.default_rng(sub_seed(seed, "gradient")).standard_normal(
                ELEMS - 1, dtype=np.float32)
            comm = make_communicator(
                RANKS, backend="processes", transport="shm", collective="ring",
                wire_dtype=wire, timeout=TIMEOUT,
            )
            try:
                results = comm.run(_rank_program, base, seconds / REPS)
                stats = dict(comm.transport_stats)
            finally:
                comm.close()
        except Exception as exc:  # a failed operation: measure no further
            out.attempted += 1
            out.failed += 1
            out.fail_op("allreduce run", exc)
            break
        n = len(results[0]["phases"])
        out.attempted += n
        if not _check_rep(out, wire, base, results):
            out.failed += n
            break
        setups.append(max(r["first_step_at"] for r in results) - t0)
        rss.append(own_peak_rss_mb() + sum(r["peak_rss_mb"] for r in results))
        fingerprints.append((results[0]["checked"][0], n))
        steps_run += n + WARMUP
        for key, val in stats.items():
            bytes_total[key] = bytes_total.get(key, 0) + int(val)
        for k in range(n):
            per_rank = [r["phases"][k] for r in results]
            step_ms.append(max(sum(p) for p in per_rank) * 1e3)
            walls = [p[1] for p in per_rank]
            wait_ms.append((max(walls) - min(walls)) * 1e3)
            for p in per_rank:
                for i in range(3):
                    span_s[i] += p[i]
            span_calls += len(per_rank)

    if step_ms:
        first = fingerprints[0][0]
        differ = sum(n for fp, n in fingerprints if fp != first)
        if not out.check("step 0 total is the same on every run", differ == 0):
            out.failed += differ
        out.fingerprint = first
        step = summarize(step_ms, TAIL_CAP)
        out.metrics = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(rss),
            "ops_per_s": 1e3 / step["p50"],
            "op_p50_ms": step["p50"],
            "op_tail_ms": step["tail"],
            "train_steps_per_s": 1e3 / step["p50"],
        }
        copied = bytes_total.get("bytes_copied_in", 0) + bytes_total.get("bytes_copied_out", 0)
        out.layer = {
            "comm.stage.s": span_s[0], "comm.stage.calls": span_calls,
            "comm.allreduce.s": span_s[1], "comm.allreduce.calls": span_calls,
            "comm.update.s": span_s[2], "comm.update.calls": span_calls,
            "comm.wait_ms": percentile(wait_ms, 50.0),
            "comm.step_tail_ms": summarize(step_ms)["tail"],
            "comm.bytes_copied": copied / steps_run,
            "comm.bytes_on_wire": bytes_total.get("bytes_on_wire", 0) / steps_run,
            "comm.bytes_inplace": bytes_total.get("bytes_inplace", 0) / steps_run,
        }
        out.info = {"op": "allreduce step", "wire_dtype": wire, "ranks": RANKS,
                    "buffer_bytes": ELEMS * 4, "step_ms": step,
                    "step_wall_s": sum(step_ms) / 1e3}
    return out
