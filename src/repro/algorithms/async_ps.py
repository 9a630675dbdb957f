"""Asynchronous parameter-server trainers (Sections 3.1, 3.2, 5.1).

Six methods share one discrete-event simulation; they differ along two
axes — update rule and master service discipline:

=================  ==================  =============================
method             master service      update rule
=================  ==================  =============================
Async SGD          FCFS with a lock    W <- W - eta dW (master)
Async MSGD         FCFS with a lock    momentum on the master
Hogwild SGD        lock-free           W <- W - eta dW (master)
Async EASGD        FCFS with a lock    Eq 2 (master), Eq 1 (worker)
Async MEASGD       FCFS with a lock    Eq 2 (master), Eqs 5-6 (worker)
Hogwild EASGD      lock-free           Eq 2 (master), Eq 1 (worker)
=================  ==================  =============================

The numerics of each family are expressed through the parameter-server
protocol layer (:mod:`repro.engine.ps`): a :class:`CenterStore` bound to
the master vector carries the server-side fold, a :class:`WorkerRule`
the worker-side reply fold. The same seam hosts the classic
parameter-server zoo in :mod:`repro.algorithms.ps_zoo` (DOWNPOUR, ADAG,
EAMSGD, staleness-bounded EASGD) — those subclasses override the
store/rule factories, the local step between exchanges
(:meth:`_AsyncPSBase._local_step`, run on each of the
``batches_per_exchange`` local batches), and the staleness admission hook
(:meth:`_AsyncPSBase._admit`, backed by
:class:`repro.engine.ps.StalenessBound`).

Timing structure (the paper's design point in Section 5.1): an SGD worker
must *wait* for the master's reply before it can compute (its gradient is
taken at the weights the master returns), so its cycle is strictly serial.
An EASGD worker computes on its own local weights, so its forward/backward
pass overlaps the master exchange; only the elastic update (Eq 1) needs the
returned Wbar. Lock-free (Hogwild) service removes the master's queueing
delay. Events are processed in arrival order with deterministic
tie-breaking, so runs are reproducible for a fixed seed.

The event loop is driven by :class:`repro.engine.StepPipeline` through
the family's :class:`~repro.engine.EventStepStrategy`: only *some* events
complete a logical step (a worker-master interaction); rejoins, messages
from dead workers, dropped/retransmitted messages, and staleness-rejected
contributions merely mutate the simulation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms.base import BaseTrainer, TrainerConfig
from repro.cluster.cost import CostModel
from repro.cluster.platform import GpuPlatform
from repro.cluster.simclock import EventQueue
from repro.data.dataset import Dataset
from repro.engine.ps import (
    CenterStore,
    ElasticCenterStore,
    ElasticMomentumWorkerRule,
    ElasticWorkerRule,
    FreshPullWorkerRule,
    SgdServerStore,
    WorkerRule,
)
from repro.engine.strategy import EventStepStrategy
from repro.faults import AllWorkersCrashedError, FaultLog, FaultPlan
from repro.nn.network import Network
from repro.optim.easgd import EASGDHyper
from repro.trace.events import MASTER

__all__ = [
    "AsyncSGDTrainer",
    "AsyncMSGDTrainer",
    "HogwildSGDTrainer",
    "AsyncEASGDTrainer",
    "AsyncMEASGDTrainer",
    "HogwildEASGDTrainer",
]


class _AsyncPSStep(EventStepStrategy):
    """The parameter-server discrete-event simulation, one event per advance."""

    def __init__(self, trainer: "_AsyncPSBase") -> None:
        self.trainer = trainer

    def begin(self, pipeline) -> None:
        tr = self.trainer
        g = self.g = tr.platform.num_gpus
        cfg = tr.config

        tr._init_states(g, tr.net.get_params())
        self.samplers = [tr.make_sampler(("worker", j)) for j in range(g)]

        #: Local batches per master exchange (1 for the per-step families;
        #: DOWNPOUR/ADAG/EAMSGD run several between pushes).
        self.batches = tr.batches_per_exchange
        self.stage_t = tr.platform.stage_batch_time(tr.cost, cfg.batch_size)
        self.oneway_t = tr.platform.cpu_gpu_param_time(tr.cost, packed=tr.packed)
        self.service_t = tr.platform.cpu_update_time(tr.cost)
        self.local_upd_t = tr.platform.gpu_update_time(tr.cost) if tr.elastic else 0.0

        plan_msgs = tr.platform.param_plan(tr.cost, packed=tr.packed)
        self.nb = plan_msgs.total_bytes
        tr.make_trace(
            g,
            pattern="ps",
            lock_free=tr.lock_free,
            elastic=tr.elastic,
            packed=tr.packed,
            messages_per_exchange=1,
            **tr._trace_meta(),
        )
        #: Request channels sent but not yet consumed/accounted; whatever
        #: is still here when the run ends becomes a "lost" fault event so
        #: conservation holds for truncated runs.
        self.inflight: set = set()

        plan = tr.faults
        self.log = tr.fault_log = FaultLog()
        self.queue = EventQueue()
        self.send_seq = [0] * g  # per-worker message sequence numbers
        self.retry_backoff = 2.0 * max(self.oneway_t, 1e-9)
        # Heartbeat-timeout eviction policy: a worker the master has not
        # heard from for ~25 healthy cycles is declared dead. The policy
        # only *detects* — dead workers already contribute nothing — but it
        # is what turns a silent loss into a logged, observable eviction.
        fwdbwd_base = tr.platform.fwdbwd_time(
            tr.cost, cfg.batch_size, worker=0, jittered=False
        )
        self.heartbeat = tr.heartbeat_timeout
        if self.heartbeat is None:
            self.heartbeat = 25.0 * (
                self.batches * (self.stage_t + fwdbwd_base)
                + 2.0 * self.oneway_t + self.service_t
            )

        self.master_free = 0.0
        self.waiting_total = 0.0
        self.dropped = 0
        self.msg_dropped = 0
        self.degraded_iters = 0
        self.rejoined = 0
        self.last_seen = [0.0] * g
        self.crash_logged: set = set()
        self.evicted: set = set()
        # Staleness instrumentation: how many master updates landed between
        # a worker's last sync and the application of its contribution —
        # the quantity asynchronous convergence analyses bound. The sums
        # cover *applied* updates; rejected/clipped admissions are counted
        # by the trainer's StalenessBound.
        self.master_version = 0
        self.worker_version = [0] * g
        self.staleness_sum = 0
        self.staleness_max = 0
        self.completed = 0
        self._breakdown = pipeline.breakdown

        for j in range(g):
            self._launch_cycle(j, 0.0)
        # Crashed workers with a scheduled rejoin re-enter via rejoin events.
        if plan is not None:
            for j in range(g):
                rejoin_at = plan.rejoin_time(j)
                if rejoin_at is not None:
                    self.queue.push(rejoin_at, ("rejoin", j))

    def _launch_cycle(self, j: int, start: float) -> None:
        """Schedule worker j's next master-arrival event."""
        tr = self.trainer
        plan = tr.faults
        trace = tr.trace
        fwdbwd = tr.platform.fwdbwd_time(tr.cost, tr.config.batch_size, worker=j)
        if plan is not None:
            fwdbwd *= plan.slowdown(j, start)  # straggler/stall inflation
        # Multi-batch families stage and compute batches_per_exchange times
        # per cycle; n == 1 reproduces the per-step timing exactly.
        stage_total = self.stage_t * self.batches
        fwd_total = fwdbwd * self.batches
        compute_done = start + stage_total + fwd_total
        if tr.elastic:
            # EASGD: the send does not wait for the pass (overlap).
            arrival = start + self.oneway_t
        else:
            # SGD: the gradient is what gets sent; pass first.
            arrival = compute_done + self.oneway_t
        seq = self.send_seq[j]
        self.send_seq[j] += 1
        delayed = False
        if plan is not None:
            lag = plan.delay_seconds(j, "master", 0, seq)
            if lag > 0.0:
                self.log.record(arrival, "delay", f"worker {j} -> master",
                                f"+{lag:.4g}s seq={seq}")
                arrival += lag
                delayed = True
        if trace is not None:
            trace.span("staging", j, start, start + stage_total, op="cpu-gpu-data")
            trace.span("compute", j, start + stage_total, compute_done, op="fwd-bwd")
            send_t0 = start if tr.elastic else compute_done
            trace.send(j, MASTER, send_t0, arrival, tag=0, nbytes=self.nb, seq=seq,
                       op="ps-request")
            self.inflight.add((j, seq))
            if delayed:
                trace.fault(j, arrival, "delay", peer=MASTER, seq=seq)
        self.queue.push(arrival, ("arrival", j, compute_done, fwd_total, seq, 0))

    # -- the event loop hooks --------------------------------------------------
    def pending(self) -> bool:
        return bool(self.queue)

    def advance(self, pipeline, t_next: int) -> bool:
        tr = self.trainer
        g = self.g
        plan = tr.faults
        trace = tr.trace
        log = self.log
        breakdown = pipeline.breakdown

        event = self.queue.pop()
        now = event.time
        if plan is not None:
            # Master-side failure detection: log crashes as they take
            # effect and evict workers silent for longer than the
            # heartbeat timeout.
            for k in range(g):
                if k in self.crash_logged or not plan.is_dead(k, now):
                    continue
                self.crash_logged.add(k)
                log.record(plan.crash_time(k), "crash", f"worker {k}", "fail-stop")
                if trace is not None:
                    trace.fault(k, plan.crash_time(k), "crash")
            for k in range(g):
                if k in self.evicted or not plan.is_dead(k, now):
                    continue
                if now - self.last_seen[k] > self.heartbeat:
                    self.evicted.add(k)
                    log.record(
                        now, "evict", f"worker {k}",
                        f"no heartbeat for > {self.heartbeat:.4g}s",
                    )
                    if trace is not None:
                        trace.fault(k, now, "evict")
        if event.payload[0] == "rejoin":
            j = event.payload[1]
            # Recovery: the worker restores by re-pulling the elastic
            # center (checkpoint = the master's Wbar), resetting its
            # velocity and staleness bookkeeping, then resumes cycling.
            tr._resync(j)
            self.worker_version[j] = self.master_version
            self.evicted.discard(j)
            self.last_seen[j] = now
            self.rejoined += 1
            log.record(now, "rejoin", f"worker {j}", "re-pulled elastic center")
            if trace is not None:
                trace.fault(j, now, "rejoin")
            self._launch_cycle(j, now)
            return False
        _, j, compute_done, fwdbwd, seq, attempt = event.payload
        arrival = now
        if plan is not None and plan.is_dead(j, arrival):
            self.dropped += 1  # fail-stop: the message never arrives
            if trace is not None:
                trace.fault(j, arrival, "dead", peer=MASTER, seq=seq)
                self.inflight.discard((j, seq))
            return False
        if plan is not None and plan.should_drop(j, "master", 0, seq, attempt):
            # Transient message loss: the worker retransmits with
            # exponential backoff; after max_send_retries it goes
            # silent (and will be evicted by the heartbeat policy).
            self.msg_dropped += 1
            log.record(arrival, "drop", f"worker {j} -> master",
                       f"seq={seq} attempt={attempt}")
            if trace is not None:
                trace.fault(j, arrival, "drop", peer=MASTER, seq=seq)
            if attempt + 1 > tr.max_send_retries:
                log.record(
                    arrival, "give-up", f"worker {j}",
                    f"seq={seq}: still dropped after {attempt + 1} attempts",
                )
                if trace is not None:
                    trace.fault(j, arrival, "give-up", peer=MASTER, seq=seq)
                    self.inflight.discard((j, seq))
                return False
            backoff = self.retry_backoff * (2 ** min(attempt, 6))
            breakdown.add("cpu-gpu para", self.oneway_t)  # the retransmission
            self.queue.push(
                arrival + backoff, ("arrival", j, compute_done, fwdbwd, seq, attempt + 1)
            )
            return False
        self.last_seen[j] = arrival
        if plan is not None and any(plan.is_dead(k, arrival) for k in range(g)):
            self.degraded_iters += 1
            breakdown.mark_degraded()

        if tr.lock_free:
            service_start = arrival
        else:
            service_start = max(arrival, self.master_free)
        service_done = service_start + self.service_t
        if not tr.lock_free:
            self.master_free = service_done
        self.waiting_total += service_start - arrival
        reply_at = service_done + self.oneway_t
        if tr.elastic:
            resume = max(reply_at, compute_done) + self.local_upd_t
        else:
            resume = reply_at

        # --- numerics: local pass(es) at the worker's current weights ---
        self.last_loss = tr._local_compute(j, self.samplers[j])
        staleness = self.master_version - self.worker_version[j]
        verdict, scale = tr._admit(staleness)
        if verdict == "reject":
            # Staler than the bound: the contribution is discarded and
            # the worker resyncs from the center — the local progress is
            # the price of the hard staleness guarantee. The master still
            # spent a service slot inspecting the request, so the event
            # charges like a served one but completes no step.
            tr._resync(j)
            self.worker_version[j] = self.master_version
            pipeline.sim_time = max(pipeline.sim_time, service_done)
            if trace is not None:
                self.inflight.discard((j, seq))
                trace.recv(MASTER, j, arrival, service_start, tag=0, nbytes=self.nb,
                           seq=seq, op="ps-request")
                trace.span("service", MASTER, service_start, service_done,
                           op="ps-reject", value=arrival)
                trace.send(MASTER, j, service_done, reply_at, tag=1, nbytes=self.nb,
                           seq=seq, op="ps-reply")
                trace.recv(j, MASTER, reply_at, reply_at, tag=1, nbytes=self.nb,
                           seq=seq, op="ps-reply")
                trace.fault(j, service_done, "stale-reject", peer=MASTER, seq=seq)
            self._launch_cycle(j, resume)
            breakdown.add("cpu-gpu data", self.stage_t * self.batches)
            breakdown.add("cpu-gpu para", 2.0 * self.oneway_t)
            breakdown.add("for/backward", fwdbwd)
            breakdown.add("cpu update", self.service_t)
            if tr.elastic:
                breakdown.add("gpu update", self.local_upd_t)
            return False
        self.staleness_sum += staleness
        self.staleness_max = max(self.staleness_max, staleness)
        tr._interaction(j, tr.net.grads, scale)
        self.master_version += 1
        self.worker_version[j] = self.master_version

        # --- bookkeeping -----------------------------------------------
        t = t_next
        self.completed = t
        pipeline.sim_time = max(pipeline.sim_time, service_done)

        if trace is not None:
            self.inflight.discard((j, seq))
            trace.recv(MASTER, j, arrival, service_start, tag=0, nbytes=self.nb,
                       seq=seq, op="ps-request", iteration=t)
            trace.span("service", MASTER, service_start, service_done,
                       op="ps-serve", iteration=t, value=arrival)
            trace.send(MASTER, j, service_done, reply_at, tag=1, nbytes=self.nb,
                       seq=seq, op="ps-reply", iteration=t)
            trace.recv(j, MASTER, reply_at, reply_at, tag=1, nbytes=self.nb,
                       seq=seq, op="ps-reply", iteration=t)
            if tr.update_op is not None:
                u0 = max(reply_at, compute_done)
                trace.span("update", j, u0, u0 + self.local_upd_t,
                           op=tr.update_op, iteration=t,
                           value=float(staleness))

        self._launch_cycle(j, resume)

        breakdown.add("cpu-gpu data", self.stage_t * self.batches)
        breakdown.add("cpu-gpu para", 2.0 * self.oneway_t)
        breakdown.add("for/backward", fwdbwd)
        breakdown.add("cpu update", self.service_t)
        if tr.elastic:
            breakdown.add("gpu update", self.local_upd_t)
        return True

    def on_drained(self, pipeline, t: int) -> None:
        if t == 0:
            # The queue drained before a single update was applied — every
            # worker crashed at (effectively) time zero. An empty run is a
            # setup error, not a data point.
            raise AllWorkersCrashedError(
                f"all {self.g} workers crashed before any master update was "
                f"applied (fault log: {self.log.summary()})"
            )

    def on_complete(self, pipeline, t: int) -> None:
        trace = self.trainer.trace
        if trace is not None:
            # Requests still in flight when the run ended never reached the
            # master; account for them so conservation checks stay true.
            for src, seq_lost in sorted(self.inflight):
                trace.fault(src, pipeline.sim_time, "lost", peer=MASTER, seq=seq_lost)

    def eval_params(self) -> np.ndarray:
        return self.trainer._eval_vector()

    def state_dict(self) -> Dict:
        tr = self.trainer
        arrays = {"master": tr.master, "master-v": tr.master_v}
        for j in range(self.g):
            arrays[f"worker-w-{j}"] = tr.worker_w[j]
            arrays[f"worker-v-{j}"] = tr.worker_v[j]
        arrays.update(tr._family_arrays())
        # Sets serialize sorted: their iteration order is insertion
        # history, which a resumed process must not inherit implicitly.
        meta = {
            "last_loss": self.last_loss,
            "samplers": [s.get_state() for s in self.samplers],
            "queue": self.queue.getstate(),
            "send_seq": list(self.send_seq),
            "inflight": sorted(self.inflight),
            "master_free": self.master_free,
            "waiting_total": self.waiting_total,
            "dropped": self.dropped,
            "msg_dropped": self.msg_dropped,
            "degraded_iters": self.degraded_iters,
            "rejoined": self.rejoined,
            "last_seen": list(self.last_seen),
            "crash_logged": sorted(self.crash_logged),
            "evicted": sorted(self.evicted),
            "master_version": self.master_version,
            "worker_version": list(self.worker_version),
            "staleness_sum": self.staleness_sum,
            "staleness_max": self.staleness_max,
            "family": tr._family_state(),
            "completed": self.completed,
        }
        return {"arrays": arrays, "meta": meta}

    def load_state_dict(self, state: Dict) -> None:
        tr = self.trainer
        arrays, meta = state["arrays"], state["meta"]
        tr.master[...] = arrays["master"]
        tr.master_v[...] = arrays["master-v"]
        for j in range(self.g):
            tr.worker_w[j][...] = arrays[f"worker-w-{j}"]
            tr.worker_v[j][...] = arrays[f"worker-v-{j}"]
        for name, arr in tr._family_arrays().items():
            arr[...] = arrays[name]
        for sampler, st in zip(self.samplers, meta["samplers"]):
            sampler.set_state(st)
        # The queue replaces everything begin() scheduled (initial cycles,
        # rejoin events): the saved stream already contains their successors.
        self.queue.setstate(meta["queue"])
        self.last_loss = meta["last_loss"]
        self.send_seq = [int(s) for s in meta["send_seq"]]
        self.inflight = {tuple(x) for x in meta["inflight"]}
        self.master_free = float(meta["master_free"])
        self.waiting_total = float(meta["waiting_total"])
        self.dropped = int(meta["dropped"])
        self.msg_dropped = int(meta["msg_dropped"])
        self.degraded_iters = int(meta["degraded_iters"])
        self.rejoined = int(meta["rejoined"])
        self.last_seen = [float(x) for x in meta["last_seen"]]
        self.crash_logged = set(meta["crash_logged"])
        self.evicted = set(meta["evicted"])
        self.master_version = int(meta["master_version"])
        self.worker_version = [int(v) for v in meta["worker_version"]]
        self.staleness_sum = int(meta["staleness_sum"])
        self.staleness_max = int(meta["staleness_max"])
        tr._load_family_state(meta.get("family", {}))
        self.completed = int(meta["completed"])

    def extras(self) -> Dict[str, float]:
        t = self.completed
        extras = {
            "master_wait_seconds": self.waiting_total,
            "failed_worker_events_dropped": float(self.dropped),
            "mean_staleness": self.staleness_sum / t if t else 0.0,
            "max_staleness": float(self.staleness_max),
        }
        extras.update(self.trainer._family_extras())
        if self.trainer.faults is not None:
            extras.update(
                {
                    "messages_dropped": float(self.msg_dropped),
                    "workers_evicted": float(len(self.evicted)),
                    "workers_rejoined": float(self.rejoined),
                    "degraded_iterations": float(self.degraded_iters),
                }
            )
        return extras


class _AsyncPSBase(BaseTrainer):
    """Shared DES machinery; subclasses pick the store/rule and flags."""

    name = "async-base"
    lock_free = False  # Hogwild variants override
    elastic = False  # EASGD variants override (enables compute/comm overlap)
    momentum = False
    packed = False  # existing async implementations send per-blob
    #: Local batches a worker runs between master exchanges (DOWNPOUR's
    #: push cadence, ADAG's accumulation window, EAMSGD's comm period).
    batches_per_exchange = 1
    #: Op stamped on the per-exchange "update" span carrying the applied
    #: staleness as its value; None suppresses the span (plain async SGD).
    update_op: Optional[str] = None

    def __init__(
        self,
        network: Network,
        train_set: Dataset,
        test_set: Dataset,
        platform: GpuPlatform,
        config: TrainerConfig,
        cost_model: Optional[CostModel] = None,
        failures: Optional[Dict[int, float]] = None,
        faults: Optional[FaultPlan] = None,
        heartbeat_timeout: Optional[float] = None,
        max_send_retries: int = 20,
    ) -> None:
        """``faults`` is the full fault schedule (crash/rejoin, straggler,
        stall, message drop/delay — see :class:`repro.faults.FaultPlan`).
        This is the fault model behind the paper's "high fault-tolerance
        requirement on cloud systems" motivation — asynchronous masters
        keep making progress with the surviving workers, evict silent ones
        after ``heartbeat_timeout`` simulated seconds (default: auto-scaled
        to ~25 worker cycles), and let crashed workers rejoin by re-pulling
        the elastic center.

        ``failures`` is the legacy fail-stop shorthand: a map from worker
        index to the simulated instant it dies. It is converted to a
        crash-only :class:`FaultPlan`; passing both is an error."""
        self.failures: Dict[int, float] = dict(failures or {})
        if self.failures:
            if faults is not None:
                raise ValueError("pass either failures= (legacy) or faults=, not both")
            plan = FaultPlan(seed=config.seed)
            for worker, when in self.failures.items():
                if not isinstance(worker, int) or isinstance(worker, bool) or not (
                    0 <= worker < platform.num_gpus
                ):
                    raise ValueError(
                        f"failures[{worker!r}]: worker index must be in "
                        f"[0, {platform.num_gpus})"
                    )
                if when <= 0:
                    raise ValueError(
                        f"failures[{worker}] = {when!r}: failure time must be a "
                        "positive simulated instant"
                    )
                plan.crash(worker, when)
            faults = plan
        if faults is not None:
            faults.validate(platform.num_gpus)
        super().__init__(network, train_set, test_set, config, cost_model, faults=faults)
        self.platform = platform
        self.hyper = EASGDHyper(lr=config.lr, rho=config.rho, mu=config.mu)
        if heartbeat_timeout is not None and heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be positive")
        self.heartbeat_timeout = heartbeat_timeout
        if max_send_retries < 0:
            raise ValueError("max_send_retries must be non-negative")
        self.max_send_retries = max_send_retries

    # -- numerics hooks ------------------------------------------------------
    def _init_states(self, g: int, init: np.ndarray) -> None:
        """Master weights, per-worker replicas/velocities, store + rule."""
        self.master = init.copy()
        self.worker_w: List[np.ndarray] = [init.copy() for _ in range(g)]
        self.worker_v: List[np.ndarray] = [np.zeros_like(init) for _ in range(g)]
        self.master_v = np.zeros_like(init)
        self.store = self._make_store(g)
        self.rule = self._make_rule()

    def _make_store(self, g: int) -> CenterStore:
        """The family's server-side store, bound to the master vector."""
        raise NotImplementedError

    def _make_rule(self) -> WorkerRule:
        """The family's worker-side reply-fold rule."""
        raise NotImplementedError

    def _local_compute(self, j: int, sampler) -> float:
        """Worker j's compute between exchanges; returns the last batch loss.

        ``batches_per_exchange`` gradients at the worker's local weights,
        each folded by :meth:`_local_step`; the last one stays in
        ``self.net.grads`` for :meth:`_interaction`.
        """
        w = self.worker_w[j]
        loss = 0.0
        for _ in range(self.batches_per_exchange):
            images, labels = sampler.next_batch()
            self.net.set_params(w)
            loss = self.net.gradient(images, labels, self.loss)
            self._local_step(j, self.net.grads)
        return loss

    def _local_step(self, j: int, grad: np.ndarray) -> None:
        """Fold one local gradient into worker j between exchanges.

        A no-op for the per-step families, whose gradient goes to the
        master; DOWNPOUR/ADAG/EAMSGD step locally.
        """

    def _admit(self, staleness: int) -> Tuple[str, float]:
        """Staleness admission; the unbounded families apply everything."""
        return "apply", 1.0

    def _resync(self, j: int) -> None:
        """Restore worker j from the center (rejoin / staleness reject)."""
        self.worker_w[j][...] = self.master
        self.worker_v[j][...] = 0.0

    def _interaction(self, j: int, grad: np.ndarray, scale: float = 1.0) -> None:
        """Apply one worker-master exchange's updates (in arrival order)."""
        raise NotImplementedError

    def _eval_vector(self) -> np.ndarray:
        """The vector whose accuracy the trajectory tracks (master state)."""
        return self.master

    # -- family extension hooks (state/trace/extras) -------------------------
    def _trace_meta(self) -> Dict:
        """Extra trace metadata (e.g. the staleness bound the checks enforce)."""
        return {}

    def _family_arrays(self) -> Dict[str, np.ndarray]:
        """Extra per-run arrays to checkpoint (anchors, accumulators)."""
        return {}

    def _family_state(self) -> Dict:
        """Extra picklable family state to checkpoint (bound counters)."""
        return {}

    def _load_family_state(self, state: Dict) -> None:
        """Restore :meth:`_family_state`."""

    def _family_extras(self) -> Dict[str, float]:
        """Extra method-specific scalars for ``RunResult.extras``."""
        return {}

    def make_step(self) -> _AsyncPSStep:
        return _AsyncPSStep(self)


class AsyncSGDTrainer(_AsyncPSBase):
    """Parameter server / Async SGD (Dean et al.; paper Section 3.1)."""

    name = "Async SGD"

    def _make_store(self, g: int) -> CenterStore:
        return SgdServerStore(self.hyper.lr).bind(self.master)

    def _make_rule(self) -> WorkerRule:
        return FreshPullWorkerRule()

    def _interaction(self, j: int, grad: np.ndarray, scale: float = 1.0) -> None:
        self.store.push(grad, scale)
        self.rule.apply(self.worker_w[j], self.store.weights)  # reply: fresh weights


class AsyncMSGDTrainer(AsyncSGDTrainer):
    """Async SGD with master-side momentum (Equations 3-4)."""

    name = "Async MSGD"
    momentum = True

    def _make_store(self, g: int) -> CenterStore:
        return SgdServerStore(self.hyper.lr, self.hyper.mu).bind(
            self.master, self.master_v
        )


class HogwildSGDTrainer(AsyncSGDTrainer):
    """Async SGD without the master lock (Recht et al.; Section 3.2)."""

    name = "Hogwild SGD"
    lock_free = True


class AsyncEASGDTrainer(_AsyncPSBase):
    """The paper's Async EASGD: FCFS parameter server + elastic averaging."""

    name = "Async EASGD"
    elastic = True
    update_op = "elastic-update"

    def _make_store(self, g: int) -> ElasticCenterStore:
        return ElasticCenterStore(self.hyper).bind(self.master)

    def _make_rule(self) -> WorkerRule:
        return ElasticWorkerRule()

    def _interaction(self, j: int, grad: np.ndarray, scale: float = 1.0) -> None:
        # Step 1: the master replies the pre-fold center, then folds (Eq 2);
        # the worker applies Eq 1 against the replied Wbar_t.
        wbar_t = self.store.exchange(self.worker_w[j], scale)
        self.rule.apply(self.worker_w[j], grad, wbar_t, self.hyper, scale)


class AsyncMEASGDTrainer(AsyncEASGDTrainer):
    """The paper's Async MEASGD: elastic averaging + momentum (Eqs 5-6)."""

    name = "Async MEASGD"
    momentum = True

    def _make_rule(self) -> WorkerRule:
        return ElasticMomentumWorkerRule()

    def _interaction(self, j: int, grad: np.ndarray, scale: float = 1.0) -> None:
        wbar_t = self.store.exchange(self.worker_w[j], scale)
        self.rule.apply(self.worker_w[j], self.worker_v[j], grad, wbar_t, self.hyper)


class HogwildEASGDTrainer(AsyncEASGDTrainer):
    """The paper's Hogwild EASGD: elastic averaging, lock-free master."""

    name = "Hogwild EASGD"
    lock_free = True
