"""Pieces every workload shares: seed derivation, the outcome record,
memory and the step clock."""

from __future__ import annotations

from dataclasses import dataclass, field
import hashlib
import resource
import sys
import time
import traceback
from typing import Any, Dict, List, Optional
import zlib

import numpy as np


def sub_seed(seed: int, purpose: str) -> int:
    """A 32-bit seed for one purpose (data, model, trainer, arrivals, ...)
    derived from the workload seed, so one argument fixes every input."""
    seq = np.random.SeedSequence([int(seed), zlib.crc32(purpose.encode())])
    return int(seq.generate_state(1)[0])


def digest(arr: np.ndarray) -> str:
    """Content hash of an array's bytes."""
    return hashlib.blake2b(np.ascontiguousarray(arr).tobytes(), digest_size=16).hexdigest()


def own_peak_rss_mb() -> float:
    """This process's peak resident set size, MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one workload segment measured and checked.

    ``metrics`` holds the end-to-end values; ``layer`` any per-layer
    values the workload computes itself (the span totals come from the
    tracer); ``fingerprint`` is a digest of a deterministic result that
    tracing must not change (None when the result depends on timing).
    """

    attempted: int = 0
    failed: int = 0
    checks: List[Dict[str, Any]] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, Any] = field(default_factory=dict)
    fingerprint: Optional[str] = None

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record one correctness gate; returns ``ok``."""
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        return bool(ok)

    def fail_op(self, what: str, exc: BaseException) -> None:
        """Record an operation that raised (the traceback goes to stderr)."""
        traceback.print_exception(type(exc), exc, exc.__traceback__, file=sys.stderr)
        self.check(what, False, f"{type(exc).__name__}: {exc}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(c["ok"] for c in self.checks)


class StepClock:
    """Per-step wall clock for a training run, through the engine's step hook.

    Passed as ``snapshotter=`` to :meth:`BaseTrainer.train`, whose pipeline
    calls :meth:`on_step` after every completed step with the strategy's
    evaluation vector (for Sync EASGD the live center). The pipeline also
    reads ``buffer.step`` to see whether a snapshot of step ``t`` was
    published; step -1 says none was, so evaluation reads the live vector
    exactly as it does with no hook attached. Nothing is copied per step.
    """

    class _NoSnapshot:
        step = -1

    buffer = _NoSnapshot()

    def __init__(self) -> None:
        self.stamps: List[float] = []
        self.params: Optional[np.ndarray] = None

    def on_step(self, params: np.ndarray, step: int, sim_time: float = 0.0) -> None:
        self.stamps.append(time.perf_counter())
        self.params = params
