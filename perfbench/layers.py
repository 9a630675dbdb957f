"""Which public functions of each layer the traced run wraps, and the
per-layer metrics it reports.

Every span is reported on every workload as ``<span>.s`` (self seconds)
and ``<span>.calls``; a layer a workload does not exercise reads zero.
The comm spans are recorded inside the ranks of the allreduce workloads
(see :mod:`perfbench.wl_allreduce`); all others come from :func:`install`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from perfbench.spans import Tracer

#: (module, owner within it or "" for the module itself, attribute, span)
WRAPS: List[Tuple[str, str, str, str]] = [
    ("repro.nn.layers", "Conv2D", "forward", "nn.conv.fwd"),
    ("repro.nn.layers", "Conv2D", "backward", "nn.conv.bwd"),
    # Wrapped where repro.nn.layers binds them, which is where Conv2D
    # looks them up.
    ("repro.nn.layers", "", "im2col", "nn.im2col"),
    ("repro.nn.layers", "", "col2im", "nn.col2im"),
    ("repro.nn.layers", "MaxPool2D", "forward", "nn.maxpool.fwd"),
    ("repro.nn.layers", "MaxPool2D", "backward", "nn.maxpool.bwd"),
    ("repro.nn.activations", "ReLU", "forward", "nn.relu.fwd"),
    ("repro.nn.activations", "ReLU", "backward", "nn.relu.bwd"),
    ("repro.nn.layers", "Dense", "forward", "nn.dense.fwd"),
    ("repro.nn.layers", "Dense", "backward", "nn.dense.bwd"),
    ("repro.nn.losses", "SoftmaxCrossEntropy", "forward", "nn.loss"),
    ("repro.nn.losses", "SoftmaxCrossEntropy", "backward", "nn.loss"),
    ("repro.data.loader", "BatchSampler", "next_batch", "data.batch"),
    ("repro.data.loader", "BatchSampler", "next_batch_into", "data.batch"),
    ("repro.engine.strategy", "SyncElasticUpdate", "apply", "engine.update"),
    ("repro.engine.policy", "EvalPolicy", "snapshot", "engine.eval"),
    # The whole training call; its self time is the training wall no
    # child span covers.
    ("repro.algorithms.base", "BaseTrainer", "train", "engine.self"),
    ("repro.durability.checkpoint", "CheckpointManager", "save_async", "durability.stall"),
    # Called by name from the background writer thread.
    ("repro.durability.checkpoint", "", "write_version", "durability.write"),
    ("repro.serving.frontend", "ServingFrontend", "serve_batch", "serving.batch"),
    ("repro.serving.snapshot", "SnapshotReader", "refresh", "serving.refresh"),
    ("repro.serving.snapshot", "ModelSnapshotter", "publish", "serving.publish"),
]

COMM_SPANS = ("comm.stage", "comm.allreduce", "comm.update")

SPANS: List[str] = list(dict.fromkeys([w[3] for w in WRAPS] + list(COMM_SPANS)))

#: Per-layer metrics beyond the spans: name -> (unit, better).
EXTRA_METRICS: Dict[str, Tuple[str, str]] = {
    "comm.wait_ms": ("ms", "lower"),
    "comm.step_tail_ms": ("ms", "lower"),
    "comm.bytes_copied": ("B/step", "lower"),
    "comm.bytes_on_wire": ("B/step", "lower"),
    "comm.bytes_inplace": ("B/step", "lower"),
    "serving.batch_size_mean": ("req", "higher"),
    "serving.queue_wait_ms.p50": ("ms", "lower"),
    "serving.queue_wait_ms.tail": ("ms", "lower"),
    "serving.staleness_mean": ("steps", "lower"),
    "loadgen.lag_ms.p50": ("ms", "lower"),
    "loadgen.lag_ms.max": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def per_layer_metrics() -> Dict[str, Tuple[str, str]]:
    """Every per-layer metric name -> (unit, better), in report order."""
    out: Dict[str, Tuple[str, str]] = {}
    for span in SPANS:
        out[f"{span}.s"] = ("s", "lower")
        out[f"{span}.calls"] = ("count", "lower")
    out.update(EXTRA_METRICS)
    return out


def install(tracer: Tracer) -> None:
    """Wrap every entry of :data:`WRAPS` (and strategy ``state_dict``)."""
    import importlib

    import repro.algorithms  # noqa: F401  (defines every strategy subclass)
    from repro.engine.strategy import StepStrategy

    for module, owner, attr, span in WRAPS:
        target = importlib.import_module(module)
        if owner:
            target = getattr(target, owner)
        tracer.wrap(target, attr, span)
    # Strategy state_dict (the checkpoint capture on the trainer thread) is
    # overridden per family, so every override is wrapped.
    tracer.wrap_overrides(StepStrategy, "state_dict", "durability.stall")


def span_metrics(totals: Dict[str, List[float]]) -> Dict[str, float]:
    """``<span>.s`` and ``<span>.calls`` for every span, zero when absent."""
    out: Dict[str, float] = {}
    for span in SPANS:
        self_s, calls, _ = totals.get(span, (0.0, 0, 0.0))
        out[f"{span}.s"] = float(self_s)
        out[f"{span}.calls"] = int(calls)
    return out
