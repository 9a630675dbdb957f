"""``train-sync-lenet``: a simulated registry ``sync-easgd3`` training run.

Mini LeNet on the MNIST-like set, P=4 simulated workers, batch 32, eval
every 10 steps and background checkpointing to a temporary directory every
10 steps. Nearly all wall time is in ``repro.nn``; no real communication
happens. One operation is one training run of :data:`ITERATIONS` steps,
rebuilt from scratch (data generation and trainer build are the set-up),
repeated a number of times fixed by the run's seconds.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
import time

from perfbench.common import digest, Outcome, own_peak_rss_mb, StepClock, sub_seed
from perfbench.stats import summarize
from repro.algorithms import TrainerConfig
from repro.data import make_mnist_like
from repro.harness.experiment import build_trainer, ExperimentSpec
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.models import build_lenet

METHOD = "sync-easgd3"
WORKERS = 4
BATCH = 32
ITERATIONS = 30
EVAL_EVERY = 10
CHECKPOINT_EVERY = 10
N_TRAIN = 4096
N_TEST = 512
MIN_RUNS = 3
#: Nominal seconds of one training run: a run of ``--seconds`` makes
#: ``seconds / RUN_SECONDS`` training runs, a fixed amount of work.
RUN_SECONDS = 2.5
#: Highest percentile the per-step tail is reported at. Two steps in 30
#: carry the eval and checkpoint of the step before them, so p90 would sit
#: on the seam between plain steps and those slow ones and jump between
#: them from run to run; p95 lies inside the slow steps.
TAIL_CAP = 95.0


def _build(seed: int, checkpoint_dir: str):
    train, test = make_mnist_like(n_train=N_TRAIN, n_test=N_TEST, seed=sub_seed(seed, "data"))
    model_seed = sub_seed(seed, "model")
    spec = ExperimentSpec(
        train_set=train,
        test_set=test,
        model_builder=lambda: build_lenet(seed=model_seed),
        num_gpus=WORKERS,
        config=TrainerConfig(
            batch_size=BATCH,
            seed=sub_seed(seed, "trainer"),
            eval_every=EVAL_EVERY,
            eval_samples=N_TEST,
            checkpoint_every=CHECKPOINT_EVERY,
            checkpoint_dir=checkpoint_dir,
        ),
    ).normalize()
    return spec, build_trainer(spec, METHOD)


def _loss(net, params, images, labels) -> float:
    net.set_params(params)
    return SoftmaxCrossEntropy().forward(net.forward(images), labels)


def run(seed: int, seconds: float, tmp_root: str) -> Outcome:
    out = Outcome()
    setups, rates, step_rates, step_ms, centers = [], [], [], [], []
    spec = center = None
    trained = 0.0
    for _ in range(max(MIN_RUNS, round(seconds / RUN_SECONDS))):
        out.attempted += 1
        checkpoint_dir = tempfile.mkdtemp(prefix="ckpt-", dir=tmp_root)
        try:
            t0 = time.perf_counter()
            spec, trainer = _build(seed, checkpoint_dir)
            t1 = time.perf_counter()
            clock = StepClock()
            result = trainer.train(ITERATIONS, snapshotter=clock)
            t2 = time.perf_counter()
        except Exception as exc:  # a failed operation: measure no further
            out.failed += 1
            out.fail_op("training run", exc)
            break
        finally:
            shutil.rmtree(checkpoint_dir, ignore_errors=True)
        trained += t2 - t1
        setups.append(t1 - t0)
        rates.append(ITERATIONS * WORKERS * BATCH / (t2 - t1))
        step_rates.append(ITERATIONS / (t2 - t1))
        stamps = [t1] + clock.stamps
        step_ms.extend((b - a) * 1e3 for a, b in zip(stamps, stamps[1:]))
        center = clock.params.copy()
        centers.append(digest(center))
        if result.iterations != ITERATIONS or len(clock.stamps) != ITERATIONS:
            out.failed += 1
            out.check("run completes its steps", False,
                      f"{result.iterations} iterations, {len(clock.stamps)} steps")
            break

    if center is not None:
        differ = sum(c != centers[0] for c in centers)
        if not out.check("same center weights on every run", differ == 0, f"{differ} differ"):
            out.failed += differ
        images, labels = spec.train_set.images[:N_TEST], spec.train_set.labels[:N_TEST]
        net = spec.model_builder()
        loss0 = _loss(net, net.get_params(), images, labels)
        loss1 = _loss(net, center, images, labels)
        if not out.check("final loss below initial", loss1 < loss0, f"{loss0:.4f} -> {loss1:.4f}"):
            out.failed = out.attempted
        out.fingerprint = centers[0]
        step = summarize(step_ms, TAIL_CAP)
        out.metrics = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": own_peak_rss_mb(),
            "ops_per_s": statistics.median(rates),
            "op_p50_ms": step["p50"],
            "op_tail_ms": step["tail"],
            "train_steps_per_s": statistics.median(step_rates),
        }
        out.info = {"op": "training step", "samples_per_s_by_run": rates, "step_ms": step,
                    "trained_s": trained, "loss": [loss0, loss1]}
    return out
