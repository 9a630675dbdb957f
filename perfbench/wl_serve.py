"""``serve-live``: serving inference while the model trains.

Simulated ``sync-easgd3`` MLP training (P=4) runs in a thread with a
:class:`~repro.serving.ModelSnapshotter` attached, publishing the center
after every step. A :class:`~repro.serving.ServingFrontend` serves from its
own replica (batch cap 8, max wait 2 ms, fresh refresh). This module's
single-thread open-loop generator replays a seeded Poisson schedule in two
phases: a fixed rate well below capacity, for latency, then a rate over
capacity, for throughput. A run repeats set-up and both phases a number
of times fixed by its seconds. A request's latency is timed from when it was
*due*: ``(submit - due) + req.latency``, so a late generator shows up in
the latency instead of hiding in it, and the generator reports how late it
ran. One operation is one request.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import Dict, List

import numpy as np

from perfbench.common import Outcome, own_peak_rss_mb, sub_seed
from perfbench.stats import percentile, summarize
from repro.algorithms import TrainerConfig
from repro.data import make_mnist_like
from repro.harness.experiment import ExperimentSpec, run_method
from repro.nn.models import build_mlp
from repro.serving import ModelSnapshotter, poisson_arrivals, ServingFrontend

METHOD = "sync-easgd3"
WORKERS = 4
BATCH = 32
N_TRAIN = 1024
N_TEST = 256
BATCH_CAP = 8
MAX_WAIT = 0.002
#: Open-loop rates, requests per second, and requests per phase. Every
#: repetition builds a fresh frontend, so the requests it keeps for its
#: statistics (and the collector's work over them) stay bounded.
FIXED_RATE = 2000.0
FIXED_REQUESTS = 6000
OVER_RATE = 40000.0
OVER_REQUESTS = 50000
#: Nominal seconds of one repetition: a run of ``--seconds`` makes
#: ``seconds / REP_SECONDS`` of them, a fixed amount of work.
REP_SECONDS = 5.0
MIN_REPS = 3
#: With fresh refresh the server loads the newest snapshot before every
#: batch, so served weights fall behind the heartbeat only by the steps
#: the trainer (a few ms each) completes while that settle waits for the
#: interpreter lock: a few switch intervals at most.
STALENESS_BOUND = 8
WAIT_TIMEOUT = 20.0
#: Highest percentile the latency tail is reported at.
TAIL_CAP = 99.0


class _StopTraining(Exception):
    """Raised from the step hook to end the open-ended training run."""


class _LiveSnapshotter(ModelSnapshotter):
    """Publishes every step like its parent; records when each step
    completed, and ends the training run once asked to."""

    def __init__(self, elems: int) -> None:
        super().__init__(elems)
        self.stop = threading.Event()
        self.stamps: List[float] = []

    def on_step(self, params, step, sim_time=0.0) -> None:
        if self.stop.is_set():
            raise _StopTraining()
        super().on_step(params, step, sim_time)
        self.stamps.append(time.monotonic())


class _Live:
    """One set-up: data, replica, training thread, snapshotter, frontend."""

    def __init__(self, seed: int) -> None:
        train, test = make_mnist_like(
            n_train=N_TRAIN, n_test=N_TEST, seed=sub_seed(seed, "data"), difficulty=1.2)
        model_seed = sub_seed(seed, "model")
        spec = ExperimentSpec(
            train_set=train,
            test_set=test,
            model_builder=lambda: build_mlp(seed=model_seed),
            num_gpus=WORKERS,
            config=TrainerConfig(batch_size=BATCH, lr=0.03, seed=sub_seed(seed, "trainer")),
        ).normalize()
        self.images = spec.test_set.images
        replica = spec.model_builder()
        self.snap = _LiveSnapshotter(replica.num_params)
        self.error: List[BaseException] = []

        def train_main() -> None:
            try:
                run_method(spec, METHOD, iterations=10**9, snapshotter=self.snap)
            except _StopTraining:
                pass
            except BaseException as exc:  # ferried to the generator thread
                self.error.append(exc)

        self.thread = threading.Thread(target=train_main, name="training")
        self.thread.start()
        try:
            while self.snap.buffer.version == 0 and self.thread.is_alive():
                time.sleep(0.0005)
            self.frontend = ServingFrontend.for_network(
                replica, self.snap.reader(), batch_cap=BATCH_CAP, max_wait=MAX_WAIT,
                refresh_policy="fresh",
            ).start()
        except BaseException:
            self.snap.stop.set()
            self.thread.join()
            raise

    def close(self) -> None:
        self.snap.stop.set()
        self.thread.join()
        self.frontend.stop()
        self.snap.close()


def _drive(frontend, arrivals: np.ndarray, images: np.ndarray, picks: np.ndarray):
    """Submit request ``i`` at ``start + arrivals[i]`` from this thread.

    Returns ``(start, due, submitted, requests)`` on the monotonic clock.
    """
    start = time.monotonic()
    due = start + arrivals
    submitted = np.empty(len(arrivals))
    reqs = []
    for i in range(len(arrivals)):
        delay = due[i] - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        submitted[i] = time.monotonic()
        reqs.append(frontend.submit(images[picks[i]]))
    deadline = time.monotonic() + WAIT_TIMEOUT
    for r in reqs:
        r.wait(max(0.0, deadline - time.monotonic()))
    return start, due, submitted, reqs


def _gate(out: Outcome, reqs, max_batch: int) -> int:
    """Count unanswered and over-stale requests as failed operations;
    returns how many failed."""
    unanswered = sum(not r.done or r.result is None or not np.all(np.isfinite(r.result))
                     for r in reqs)
    stale = sum(r.done and not 0 <= r.staleness <= STALENESS_BOUND for r in reqs)
    out.check("every request answered", unanswered == 0, f"{unanswered} unanswered")
    out.check("served staleness within bound", stale == 0,
              f"{stale} requests over {STALENESS_BOUND} steps")
    capped = out.check("no batch over the cap", max_batch <= BATCH_CAP,
                       f"largest batch {max_batch}")
    failed = len(reqs) if not capped else unanswered + stale
    out.failed += failed
    return failed


def _rep(seed: int, k: int, out: Outcome, acc: Dict[str, list],
         batch_start: Dict[int, float]) -> bool:
    """One set-up, then the fixed-rate and the over-capacity phase;
    returns whether every request passed the gates."""
    t0 = time.monotonic()
    live = _Live(seed)
    setup = time.monotonic() - t0
    out.attempted += FIXED_REQUESTS + OVER_REQUESTS
    if live.error:
        live.close()
        out.failed += FIXED_REQUESTS + OVER_REQUESTS
        out.fail_op("training thread", live.error[0])
        return False
    fixed = poisson_arrivals(FIXED_REQUESTS, FIXED_RATE, seed=sub_seed(seed, f"arrivals-fixed-{k}"))
    over = poisson_arrivals(OVER_REQUESTS, OVER_RATE, seed=sub_seed(seed, f"arrivals-over-{k}"))
    picks = np.random.default_rng(sub_seed(seed, f"requests-{k}")).integers(
        0, len(live.images), size=FIXED_REQUESTS + OVER_REQUESTS)
    try:
        f_start, f_due, f_sub, f_reqs = _drive(live.frontend, fixed, live.images,
                                               picks[:FIXED_REQUESTS])
        o_start, o_due, o_sub, o_reqs = _drive(live.frontend, over, live.images,
                                               picks[FIXED_REQUESTS:])
    finally:
        live.close()
    if live.error:
        out.failed += FIXED_REQUESTS + OVER_REQUESTS
        out.fail_op("training thread", live.error[0])
        return False
    stats = live.frontend.stats()
    if _gate(out, f_reqs + o_reqs, stats.max_batch):
        return False

    f_end = f_start + fixed[-1]
    o_done = [s + r.latency for s, r in zip(o_sub, o_reqs)]
    acc["setup"].append(setup)
    acc["latency_ms"].extend((s - d + r.latency) * 1e3 for s, d, r in zip(f_sub, f_due, f_reqs))
    acc["lag_ms"].extend((f_sub - f_due) * 1e3)
    acc["over_lag_ms"].append(float((o_sub - o_due).max() * 1e3))
    acc["over_s"].append(max(o_done) - o_start)
    acc["fixed_s"].append(f_end - f_start)
    acc["train_steps"].append(sum(f_start <= t <= f_end for t in live.snap.stamps))
    acc["batches"].append(stats.batches)
    acc["served"].append(stats.served)
    acc["staleness_sum"].append(stats.mean_staleness * stats.batches)
    acc["max_staleness"].append(stats.max_staleness)
    if batch_start:
        acc["queue_wait_ms"].extend((batch_start[id(r)] - d) * 1e3 for d, r in zip(f_due, f_reqs))
        batch_start.clear()
    return True


def run(seed: int, seconds: float, tracer=None) -> Outcome:
    out = Outcome()
    batch_start: Dict[int, float] = {}
    if tracer is not None:
        def on_batch(frontend, requests) -> None:
            now = time.monotonic()
            for r in requests:
                batch_start[id(r)] = now

        tracer.observe(ServingFrontend, "serve_batch", on_batch)

    acc: Dict[str, list] = {key: [] for key in (
        "setup", "latency_ms", "lag_ms", "over_lag_ms", "over_s", "fixed_s", "train_steps",
        "batches", "served", "staleness_sum", "max_staleness", "queue_wait_ms")}
    for k in range(max(MIN_REPS, round(seconds / REP_SECONDS))):
        if not _rep(seed, k, out, acc, batch_start):
            break  # measure no further once something failed
    if not acc["setup"]:
        return out

    lat = summarize(acc["latency_ms"], TAIL_CAP)
    out.metrics = {
        "setup_s": statistics.median(acc["setup"]),
        "peak_rss_mb": own_peak_rss_mb(),
        "ops_per_s": len(acc["over_s"]) * OVER_REQUESTS / sum(acc["over_s"]),
        "op_p50_ms": lat["p50"],
        "op_tail_ms": lat["tail"],
        "train_steps_per_s": sum(acc["train_steps"]) / sum(acc["fixed_s"]),
    }
    out.layer = {
        "serving.batch_size_mean": sum(acc["served"]) / sum(acc["batches"]),
        "serving.staleness_mean": sum(acc["staleness_sum"]) / sum(acc["batches"]),
        "loadgen.lag_ms.p50": percentile(acc["lag_ms"], 50.0),
        "loadgen.lag_ms.max": max(acc["lag_ms"]),
    }
    if acc["queue_wait_ms"]:
        wait = summarize(acc["queue_wait_ms"], TAIL_CAP)
        out.layer["serving.queue_wait_ms.p50"] = wait["p50"]
        out.layer["serving.queue_wait_ms.tail"] = wait["tail"]
    out.info = {
        "op": "request", "fixed_rate_rps": FIXED_RATE, "over_rate_rps": OVER_RATE,
        "latency_ms": lat,
        "over_lag_ms_max": max(acc["over_lag_ms"]), "max_staleness": max(acc["max_staleness"]),
    }
    return out
