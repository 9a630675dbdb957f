"""The classic parameter-server zoo on the engine's PS protocol layer.

Five families beyond the paper's own methods, each a thin store/rule
pairing over the shared machinery (:mod:`repro.engine.ps` for the
numerics seam, :class:`repro.algorithms.async_ps._AsyncPSBase` for the
asynchronous discrete-event simulation, :class:`repro.engine.
ClockStepStrategy` for the synchronous gossip rounds):

- **DOWNPOUR SGD** (Dean et al., NIPS 2012): workers run ``local_steps``
  plain SGD steps between exchanges, push the raw weight delta
  ``W - anchor``, and pull fresh center weights.
- **ADAG** (accumulated-gradient asynchronous SGD): workers step locally
  while accumulating the raw gradients; the server applies the
  accumulated gradient normalized by the worker count.
- **EAMSGD** (Zhang, Choromanska & LeCun, NIPS 2015): momentum SGD runs
  entirely on the worker between exchanges (Eqs 5-6's local half); the
  exchange itself is purely elastic — the server folds Eq 2, the worker
  relaxes toward the replied center.
- **Gossip SGD** (Jin et al. / Blot et al. style): no center at all.
  Each round every worker takes one local SGD step, then deterministic
  tournament pairs (:func:`repro.comm.topology.gossip_pairs`) average
  pairwise; the consensus mean stands in for the center at evaluation.
- **Bounded-async EASGD**: Async EASGD under a first-class
  :class:`repro.engine.ps.StalenessBound` — contributions staler than
  ``tau`` master versions are rejected (worker resyncs) or clipped, and
  the bound is stamped into the trace meta so the
  ``update-staleness-bound`` invariant enforces it structurally.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms.async_ps import AsyncEASGDTrainer, _AsyncPSBase
from repro.algorithms.base import BaseTrainer, TrainerConfig
from repro.cluster.cost import CostModel
from repro.cluster.platform import GpuPlatform
from repro.comm.topology import gossip_pairs
from repro.data.dataset import Dataset
from repro.engine.compute import jittered_fwdbwd
from repro.engine.faults import SyncFaultTracker
from repro.engine.ps import (
    AccumGradWorkerRule,
    AdagServerStore,
    CenterStore,
    DeltaServerStore,
    ElasticCenterStore,
    ElasticPullWorkerRule,
    GossipStore,
    LocalSgdWorkerRule,
    StalenessBound,
    WorkerRule,
)
from repro.engine.strategy import ClockStepStrategy
from repro.faults import FaultLog, FaultPlan
from repro.nn.network import Network

__all__ = [
    "DownpourTrainer",
    "AdagTrainer",
    "EamsgdTrainer",
    "GossipSGDTrainer",
    "BoundedAsyncEasgdTrainer",
]


class _LocalStepsTrainer(_AsyncPSBase):
    """A family that runs ``local_steps`` local batches between exchanges."""

    def __init__(self, *args, local_steps: int = 4, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if local_steps < 1:
            raise ValueError("local_steps must be >= 1")
        self.batches_per_exchange = local_steps

    def _trace_meta(self) -> Dict:
        return {"local_steps": self.batches_per_exchange}


class DownpourTrainer(_LocalStepsTrainer):
    """DOWNPOUR SGD: local SGD bursts, raw weight-delta pushes, fresh pulls."""

    name = "DOWNPOUR SGD"
    update_op = "ps-apply"

    def _init_states(self, g: int, init: np.ndarray) -> None:
        super()._init_states(g, init)
        #: The center snapshot each worker last pulled; the pushed delta is
        #: measured against it, so concurrent pushes compose additively.
        self.anchor: List[np.ndarray] = [init.copy() for _ in range(g)]

    def _make_store(self, g: int) -> CenterStore:
        return DeltaServerStore().bind(self.master)

    def _make_rule(self) -> WorkerRule:
        return LocalSgdWorkerRule()

    def _local_step(self, j: int, grad: np.ndarray) -> None:
        self.rule.local_step(self.worker_w[j], grad, self.hyper.lr)

    def _interaction(self, j: int, grad: np.ndarray, scale: float = 1.0) -> None:
        self.store.push(self.rule.delta(self.worker_w[j], self.anchor[j]), scale)
        self.worker_w[j][...] = self.master  # pull fresh, re-anchor
        self.anchor[j][...] = self.master

    def _resync(self, j: int) -> None:
        super()._resync(j)
        self.anchor[j][...] = self.master

    def _family_arrays(self) -> Dict[str, np.ndarray]:
        return {f"anchor-{j}": self.anchor[j] for j in range(len(self.anchor))}


class AdagTrainer(_LocalStepsTrainer):
    """ADAG: accumulate gradients while stepping locally; server applies /P."""

    name = "ADAG"
    update_op = "ps-apply"

    def _init_states(self, g: int, init: np.ndarray) -> None:
        super()._init_states(g, init)
        self.acc: List[np.ndarray] = [np.zeros_like(init) for _ in range(g)]

    def _make_store(self, g: int) -> CenterStore:
        return AdagServerStore(self.hyper.lr, g).bind(self.master)

    def _make_rule(self) -> WorkerRule:
        return AccumGradWorkerRule()

    def _local_step(self, j: int, grad: np.ndarray) -> None:
        self.rule.local_step(self.worker_w[j], self.acc[j], grad, self.hyper.lr)

    def _interaction(self, j: int, grad: np.ndarray, scale: float = 1.0) -> None:
        self.store.push(self.acc[j], scale)
        self.acc[j][...] = 0.0
        self.worker_w[j][...] = self.master  # pull fresh

    def _resync(self, j: int) -> None:
        super()._resync(j)
        self.acc[j][...] = 0.0

    def _family_arrays(self) -> Dict[str, np.ndarray]:
        return {f"acc-{j}": self.acc[j] for j in range(len(self.acc))}


class EamsgdTrainer(_LocalStepsTrainer):
    """EAMSGD: local momentum SGD between purely-elastic exchanges (Eqs 5-6)."""

    name = "EAMSGD"
    elastic = True
    momentum = True
    update_op = "elastic-update"

    def _make_store(self, g: int) -> ElasticCenterStore:
        return ElasticCenterStore(self.hyper).bind(self.master)

    def _make_rule(self) -> WorkerRule:
        return ElasticPullWorkerRule()

    def _local_step(self, j: int, grad: np.ndarray) -> None:
        self.rule.local_step(self.worker_w[j], self.worker_v[j], grad, self.hyper)

    def _interaction(self, j: int, grad: np.ndarray, scale: float = 1.0) -> None:
        # The gradient work already happened locally; the exchange is the
        # elastic pair only — Eq 2 on the server, the elastic pull on the
        # worker.
        wbar_t = self.store.exchange(self.worker_w[j], scale)
        self.rule.apply(self.worker_w[j], wbar_t, self.hyper, scale)


class BoundedAsyncEasgdTrainer(AsyncEASGDTrainer):
    """Async EASGD under a hard staleness bound (reject or clip policy)."""

    name = "Bounded Async EASGD"

    def __init__(self, *args, tau: Optional[int] = None,
                 staleness_policy: str = "reject", **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.bound = StalenessBound.for_workers(
            self.platform.num_gpus, tau, staleness_policy
        )

    def _admit(self, staleness: int) -> Tuple[str, float]:
        return self.bound.admit(staleness)

    def _trace_meta(self) -> Dict:
        return {
            "staleness_bound": self.bound.tau,
            "staleness_policy": self.bound.policy,
        }

    def _family_state(self) -> Dict:
        return self.bound.state_dict()

    def _load_family_state(self, state: Dict) -> None:
        if state:
            self.bound.load_state_dict(state)

    def _family_extras(self) -> Dict[str, float]:
        return self.bound.extras()


class _GossipStep(ClockStepStrategy):
    """One gossip round: local SGD everywhere, tournament pairs average."""

    def __init__(self, trainer: "GossipSGDTrainer") -> None:
        self.trainer = trainer

    def begin(self, pipeline) -> None:
        tr = self.trainer
        g = self.g = tr.platform.num_gpus
        cfg = tr.config
        init = tr.net.get_params()
        self.replicas: List[np.ndarray] = [init.copy() for _ in range(g)]
        self.consensus = init.copy()
        self.samplers = [tr.make_sampler(("worker", j)) for j in range(g)]
        self.store = GossipStore().bind_replicas(self.replicas)
        self.stage_t = tr.platform.stage_batch_time(tr.cost, cfg.batch_size)
        self.exch_t = tr.platform.gpu_gpu_param_time(tr.cost, packed=True)
        self.upd_t = tr.platform.gpu_update_time(tr.cost)
        plan_msgs = tr.platform.param_plan(tr.cost, packed=True)
        self.nb = plan_msgs.total_bytes
        tr.make_trace(
            g,
            pattern="gossip",
            packed=True,
            messages_per_exchange=1,
        )
        log = tr.fault_log = FaultLog()
        self.tracker = SyncFaultTracker(
            tr.faults, log, g, tr.name,
            rejoin_note="re-pulled consensus mean",
            restore=self._restore,
        )

    def _restore(self, j: int) -> None:
        """A rejoiner adopts the current consensus mean (its checkpoint)."""
        self.replicas[j][...] = self.consensus

    def step(self, pipeline, t: int) -> float:
        tr = self.trainer
        cfg = tr.config
        live = self.tracker.prologue(pipeline, t)
        live_set = set(live)

        # Local SGD step on every live replica.
        losses = []
        for j in live:
            images, labels = self.samplers[j].next_batch()
            tr.net.set_params(self.replicas[j])
            losses.append(tr.net.gradient(images, labels, tr.loss))
            self.replicas[j] -= cfg.lr * tr.net.grads
        self.last_loss = float(np.mean(losses))

        # Deterministic tournament pairing; pairs with a dead peer skip.
        pairs = [
            (a, b) for a, b in gossip_pairs(t, self.g)
            if a in live_set and b in live_set
        ]
        for a, b in pairs:
            self.store.mix(a, b)
        self.store.consensus_into(self.consensus, live)

        # --- simulated time & trace ------------------------------------
        fwdbwd_each = jittered_fwdbwd(
            tr.platform, tr.cost, cfg.batch_size, live, tr.faults,
            pipeline.sim_time,
        )
        fwdbwd_max = max(fwdbwd_each)
        exch = self.exch_t if pairs else 0.0
        iter_time = self.stage_t + fwdbwd_max + exch + self.upd_t
        breakdown = pipeline.breakdown
        breakdown.add("cpu-gpu data", self.stage_t)
        breakdown.add("for/backward", fwdbwd_max)
        breakdown.add("gpu-gpu para", exch)
        breakdown.add("gpu update", self.upd_t)

        trace = tr.trace
        if trace is not None:
            T = pipeline.sim_time
            t_stage = T + self.stage_t
            t_comp = t_stage + fwdbwd_max
            t_done = t_comp + exch
            for j, fwd in zip(live, fwdbwd_each):
                trace.span("staging", j, T, t_stage, op="cpu-gpu-data", iteration=t)
                trace.span("compute", j, t_stage, t_stage + fwd, op="fwd-bwd",
                           iteration=t)
            for a, b in pairs:
                for src, dst in ((a, b), (b, a)):
                    trace.send(src, dst, t_comp, t_done, tag=0, nbytes=self.nb,
                               seq=t, op="gossip-exchange", iteration=t)
                    trace.recv(dst, src, t_comp, t_done, tag=0, nbytes=self.nb,
                               seq=t, op="gossip-exchange", iteration=t)
                for j in (a, b):
                    trace.span("update", j, t_done, t_done + self.upd_t,
                               op="gossip-avg", iteration=t)
        return iter_time

    def eval_params(self) -> np.ndarray:
        return self.consensus

    def state_dict(self) -> Dict:
        arrays = {"consensus": self.consensus}
        for j, w in enumerate(self.replicas):
            arrays[f"replica-{j}"] = w
        return {
            "arrays": arrays,
            "meta": {
                "last_loss": self.last_loss,
                "samplers": [s.get_state() for s in self.samplers],
                "tracker": self.tracker.state_dict(),
            },
        }

    def load_state_dict(self, state: Dict) -> None:
        arrays, meta = state["arrays"], state["meta"]
        self.consensus[...] = arrays["consensus"]
        for j, w in enumerate(self.replicas):
            w[...] = arrays[f"replica-{j}"]
        for sampler, st in zip(self.samplers, meta["samplers"]):
            sampler.set_state(st)
        self.last_loss = meta["last_loss"]
        self.tracker.load_state_dict(meta["tracker"])

    def extras(self) -> Dict[str, float]:
        if self.trainer.faults is None:
            return {}
        return {"degraded_rounds": float(self.tracker.degraded_rounds)}


class GossipSGDTrainer(BaseTrainer):
    """Decentralized gossip SGD: pairwise averaging, no parameter server."""

    name = "Gossip SGD"

    def __init__(
        self,
        network: Network,
        train_set: Dataset,
        test_set: Dataset,
        platform: GpuPlatform,
        config: TrainerConfig,
        cost_model: Optional[CostModel] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        if faults is not None:
            faults.validate(platform.num_gpus)
        super().__init__(network, train_set, test_set, config, cost_model, faults=faults)
        self.platform = platform

    def make_step(self) -> _GossipStep:
        return _GossipStep(self)
