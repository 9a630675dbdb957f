"""The parameter-server protocol layer: center stores, worker rules, staleness.

The engine's update seam used to be EASGD-shaped: every family either was
elastic averaging or had to pretend. This module generalizes that seam
into the three orthogonal pieces a center/worker scheme actually consists
of, so the classic parameter-server zoo (DOWNPOUR, ADAG, EAMSGD) and the
decentralized gossip family plug into the same engine as the paper's
EASGD variants:

- a :class:`CenterStore` is the server side: what state the center holds
  and how one worker contribution folds into it. Concrete stores:
  :class:`ElasticCenterStore` (Eq 2 elastic averaging),
  :class:`SgdServerStore` (apply gradients, optional momentum — Async
  SGD/MSGD/Hogwild), :class:`DeltaServerStore` (accumulate raw weight
  deltas — DOWNPOUR), :class:`AdagServerStore` (accumulated gradients
  normalized by worker count), and :class:`GossipStore` (the "no center"
  decentralized store: peers average pairwise, the consensus mean stands
  in for the center at evaluation time).
- a :class:`WorkerRule` is the worker side: what a rank pushes/pulls and
  how it folds the reply into its replica (elastic difference, fresh
  weights, local-SGD delta, accumulated gradient, elastic pull for
  EAMSGD's Eqs 5-6 period updates).
- a :class:`StalenessBound` is the first-class admission policy: updates
  staler than ``tau`` master versions are rejected (discarded, worker
  resynced) or clipped (applied scaled by ``tau/staleness``), with every
  decision counted so violations surface as trace metrics and
  ``RunResult.extras``.

Everything mutates bound numpy vectors in place — stores *bind* to the
arrays the trainer owns (``bind``) rather than allocating their own, so
checkpointing, evaluation views, and shared-memory publication keep
working on the trainer's arrays unchanged. The existing seven strategies
are expressed through this layer with bit-identical numerics (the golden
traces and backend digests pin that down); the new families are just new
store/rule pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.optim.easgd import (
    EASGDHyper,
    elastic_center_update_single,
    elastic_momentum_worker_update,
    elastic_worker_update,
)

__all__ = [
    "CenterStore",
    "ElasticCenterStore",
    "SgdServerStore",
    "DeltaServerStore",
    "AdagServerStore",
    "GossipStore",
    "WorkerRule",
    "ElasticWorkerRule",
    "ElasticMomentumWorkerRule",
    "ElasticPullWorkerRule",
    "FreshPullWorkerRule",
    "LocalSgdWorkerRule",
    "AccumGradWorkerRule",
    "StalenessBound",
]


# ---------------------------------------------------------------------------
# Center stores (the server side of the protocol)
# ---------------------------------------------------------------------------


class CenterStore:
    """Server-side state and fold discipline of one update family.

    A store *binds* to the flat weight vector the trainer owns (it never
    allocates the canonical copy itself), folds one worker contribution
    per :meth:`push`, and answers :meth:`pull` with the reply payload a
    worker receives. ``kind`` labels the family class the registry
    metadata and docs report: ``"centered"`` (a real server holds shared
    state) or ``"decentralized"`` (no server; peers exchange directly).
    """

    kind = "centered"

    def __init__(self) -> None:
        self.weights: Optional[np.ndarray] = None

    def bind(self, weights: np.ndarray) -> "CenterStore":
        """Adopt the trainer-owned center vector; returns self for chaining."""
        self.weights = weights
        return self

    def push(self, payload: np.ndarray, scale: float = 1.0) -> None:
        """Fold one worker contribution into the center, in place.

        ``scale`` damps the fold for clipped-staleness admission; 1.0 is
        the exact unscaled family update.
        """
        raise NotImplementedError

    def pull(self) -> np.ndarray:
        """The reply payload a worker receives (a fresh copy)."""
        assert self.weights is not None
        return self.weights.copy()


class ElasticCenterStore(CenterStore):
    """Eq 2's elastic center: ``Wbar += alpha * (W_j - Wbar)`` per push.

    The asynchronous exchange protocol (:meth:`exchange`) replies the
    *pre-fold* center and then folds — the order Algorithm 1 line 14 and
    the async master both use; :meth:`fold_sum` is the synchronous all-
    workers-at-once Eq 2 over a tree-reduced sum.
    """

    def __init__(self, hyper: EASGDHyper) -> None:
        super().__init__()
        self.hyper = hyper

    def push(self, payload: np.ndarray, scale: float = 1.0) -> None:
        if scale == 1.0:
            elastic_center_update_single(self.weights, payload, self.hyper)
        else:
            self.weights += scale * self.hyper.alpha * (payload - self.weights)

    def exchange(self, worker_w: np.ndarray, scale: float = 1.0) -> np.ndarray:
        """One async interaction's server half: reply Wbar_t, then fold."""
        wbar_t = self.weights.copy()
        self.push(worker_w, scale)
        return wbar_t

    def fold_sum(self, sum_w: np.ndarray, count: int) -> None:
        """Synchronous Eq 2 over ``count`` live workers' tree-reduced sum."""
        self.weights += self.hyper.alpha * (sum_w - count * self.weights)


class SgdServerStore(CenterStore):
    """Dean-style master: apply each pushed gradient, optional momentum."""

    def __init__(self, lr: float, mu: float = 0.0) -> None:
        super().__init__()
        self.lr = lr
        self.mu = mu
        self.velocity: Optional[np.ndarray] = None

    def bind(self, weights: np.ndarray,
             velocity: Optional[np.ndarray] = None) -> "SgdServerStore":
        self.weights = weights
        self.velocity = velocity
        return self

    def push(self, payload: np.ndarray, scale: float = 1.0) -> None:
        step = self.lr if scale == 1.0 else scale * self.lr
        if self.mu and self.velocity is not None:
            self.velocity *= self.mu
            self.velocity -= step * payload
            self.weights += self.velocity
        else:
            self.weights -= step * payload


class DeltaServerStore(CenterStore):
    """DOWNPOUR's server: accumulate raw local-SGD weight deltas."""

    def push(self, payload: np.ndarray, scale: float = 1.0) -> None:
        if scale == 1.0:
            self.weights += payload
        else:
            self.weights += scale * payload


class AdagServerStore(CenterStore):
    """ADAG's server: apply accumulated gradients normalized by P."""

    def __init__(self, lr: float, num_workers: int) -> None:
        super().__init__()
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        self.lr = lr
        self.num_workers = num_workers

    def push(self, payload: np.ndarray, scale: float = 1.0) -> None:
        step = self.lr if scale == 1.0 else scale * self.lr
        self.weights -= step * payload / self.num_workers


class GossipStore(CenterStore):
    """The decentralized "no center" store: peers average pairwise.

    Binds to the full replica list instead of a single vector. The
    consensus mean (maintained in a caller-provided buffer) stands in for
    the center wherever one is expected — evaluation, serving snapshots,
    rejoin restores.
    """

    kind = "decentralized"

    def __init__(self) -> None:
        super().__init__()
        self.replicas: List[np.ndarray] = []

    def bind_replicas(self, replicas: Sequence[np.ndarray]) -> "GossipStore":
        self.replicas = list(replicas)
        return self

    def mix(self, a: int, b: int) -> None:
        """One gossip exchange: both peers adopt the pairwise average."""
        avg = 0.5 * (self.replicas[a] + self.replicas[b])
        self.replicas[a][...] = avg
        self.replicas[b][...] = avg

    def consensus_into(self, out: np.ndarray, live: Sequence[int]) -> np.ndarray:
        """The live replicas' mean, written into ``out`` in place."""
        out[...] = self.replicas[live[0]]
        for j in live[1:]:
            out += self.replicas[j]
        out /= len(live)
        return out

    def push(self, payload: np.ndarray, scale: float = 1.0) -> None:
        raise TypeError("GossipStore has no center to push to; use mix()")


# ---------------------------------------------------------------------------
# Worker rules (the worker side of the protocol)
# ---------------------------------------------------------------------------


class WorkerRule:
    """What a rank pushes/pulls and how it folds the reply into its replica.

    Rules are stateless mathematics — per-worker state (velocities,
    anchors, accumulators) stays on the trainer, which passes the right
    vectors in. ``pushes`` names the payload class for docs/metadata.
    """

    pushes = "weights"


class ElasticWorkerRule(WorkerRule):
    """Eq 1: ``W -= lr*g + alpha*(W - Wbar_t)`` against the replied center."""

    pushes = "local weights"

    def apply(self, weights: np.ndarray, grad: np.ndarray, wbar_t: np.ndarray,
              hyper: EASGDHyper, scale: float = 1.0) -> None:
        if scale == 1.0:
            elastic_worker_update(weights, grad, wbar_t, hyper)
        else:
            weights -= scale * (hyper.lr * grad + hyper.alpha * (weights - wbar_t))


class ElasticMomentumWorkerRule(WorkerRule):
    """Eqs 5-6: momentum velocity + elastic term against the replied center."""

    pushes = "local weights"

    def apply(self, weights: np.ndarray, velocity: np.ndarray, grad: np.ndarray,
              wbar_t: np.ndarray, hyper: EASGDHyper) -> None:
        elastic_momentum_worker_update(weights, velocity, grad, wbar_t, hyper)


class ElasticPullWorkerRule(WorkerRule):
    """EAMSGD's communication-instant pull: only the elastic term.

    The gradient work already happened locally (momentum SGD between
    exchanges), so at the exchange the worker just relaxes toward the
    replied center: ``W -= alpha * (W - Wbar_t)``.
    """

    pushes = "local weights"

    def local_step(self, weights: np.ndarray, velocity: np.ndarray,
                   grad: np.ndarray, hyper: EASGDHyper) -> None:
        """Momentum SGD between exchanges (the local half of Eqs 5-6)."""
        velocity *= hyper.mu
        velocity -= hyper.lr * grad
        weights += velocity

    def apply(self, weights: np.ndarray, wbar_t: np.ndarray,
              hyper: EASGDHyper, scale: float = 1.0) -> None:
        step = hyper.alpha if scale == 1.0 else scale * hyper.alpha
        weights -= step * (weights - wbar_t)


class FreshPullWorkerRule(WorkerRule):
    """Async SGD's reply fold: adopt the master's fresh weights outright."""

    pushes = "gradient"

    def apply(self, weights: np.ndarray, reply: np.ndarray) -> None:
        weights[...] = reply


class LocalSgdWorkerRule(WorkerRule):
    """DOWNPOUR's worker: plain SGD steps between pushes; push W - anchor."""

    pushes = "weight delta"

    def local_step(self, weights: np.ndarray, grad: np.ndarray, lr: float) -> None:
        weights -= lr * grad

    def delta(self, weights: np.ndarray, anchor: np.ndarray) -> np.ndarray:
        return weights - anchor


class AccumGradWorkerRule(WorkerRule):
    """ADAG's worker: accumulate gradients while stepping locally."""

    pushes = "accumulated gradient"

    def local_step(self, weights: np.ndarray, acc: np.ndarray,
                   grad: np.ndarray, lr: float) -> None:
        acc += grad
        weights -= lr * grad


# ---------------------------------------------------------------------------
# Staleness admission
# ---------------------------------------------------------------------------


@dataclass
class StalenessBound:
    """First-class staleness admission: bound applied updates by ``tau``.

    Staleness is the number of master versions that landed between a
    worker's last sync and the application of its contribution — the
    quantity asynchronous convergence analyses (elastic consistency,
    bounded-delay SGD) assume is bounded. ``admit`` returns the verdict
    and the damping scale to apply:

    - ``policy="reject"``: staler-than-tau contributions are discarded
      and the worker resyncs from the center (scale 0.0);
    - ``policy="clip"``: they are applied damped by ``tau / staleness``.

    Every decision is counted; :meth:`extras` surfaces the counters so
    violations are observable in ``RunResult.extras`` next to the trace's
    derived staleness statistics.
    """

    tau: int
    policy: str = "reject"
    checked: int = 0
    rejected: int = 0
    clipped: int = 0
    max_seen: int = 0
    max_applied: int = 0

    _POLICIES = ("reject", "clip")

    def __post_init__(self) -> None:
        if self.tau < 0:
            raise ValueError("tau must be non-negative")
        if self.policy not in self._POLICIES:
            raise ValueError(
                f"policy must be one of {self._POLICIES}, got {self.policy!r}"
            )

    @classmethod
    def for_workers(cls, workers: int, tau: Optional[int] = None,
                    policy: str = "reject") -> "StalenessBound":
        """The bound for ``workers`` workers; ``tau=None`` picks the default.

        The default is twice the natural pipelining depth: with P workers
        round-robining an FCFS master, healthy staleness is ~P-1, so
        2(P-1) only trips under real stragglers.
        """
        if tau is None:
            tau = 2 * max(workers - 1, 1)
        return cls(int(tau), policy)

    def admit(self, staleness: int) -> Tuple[str, float]:
        """Decide one update's fate: ("apply"|"clip"|"reject", scale)."""
        self.checked += 1
        self.max_seen = max(self.max_seen, staleness)
        if staleness <= self.tau:
            self.max_applied = max(self.max_applied, staleness)
            return "apply", 1.0
        if self.policy == "clip":
            self.clipped += 1
            self.max_applied = max(self.max_applied, staleness)
            return "clip", self.tau / staleness
        self.rejected += 1
        return "reject", 0.0

    def state_dict(self) -> Dict[str, int]:
        return {
            "checked": self.checked,
            "rejected": self.rejected,
            "clipped": self.clipped,
            "max_seen": self.max_seen,
            "max_applied": self.max_applied,
        }

    def load_state_dict(self, state: Dict[str, int]) -> None:
        self.checked = int(state["checked"])
        self.rejected = int(state["rejected"])
        self.clipped = int(state["clipped"])
        self.max_seen = int(state["max_seen"])
        self.max_applied = int(state["max_applied"])

    def extras(self) -> Dict[str, float]:
        return {
            "staleness_tau": float(self.tau),
            "staleness_checked": float(self.checked),
            "staleness_rejected": float(self.rejected),
            "staleness_clipped": float(self.clipped),
            "staleness_max_seen": float(self.max_seen),
            "staleness_max_applied": float(self.max_applied),
        }
