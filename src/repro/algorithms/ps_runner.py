"""The parameter-server rank programs over the rank runtimes (threads/processes).

:func:`run_mpi_ps` is the one message-passing entry point for every
parameter-server family: the twin of the simulated trainer of the same
registry name (:mod:`repro.algorithms.async_ps`,
:mod:`repro.algorithms.ps_zoo`), run as a deterministic rank program over
:func:`repro.comm.backend.make_communicator`.

Centered families (DOWNPOUR, ADAG, EAMSGD, Async EASGD, bounded-async
EASGD): rank 0 is the server holding the center through the family's
:class:`repro.engine.ps.CenterStore`, ranks 1..P-1 are workers that run
their local steps and fold the reply with the family's
:class:`~repro.engine.ps.WorkerRule`. The server serves workers in
round-robin order, so the interleaving — and therefore the final weights —
is bit-identical across backends (``threads`` vs ``processes``) and
transports (``queue`` vs ``shm``). This trades the wall-clock freedom of a
first-come-first-served server for determinism; the simulated trainers
cover the contention behaviour, these programs cover the real message
path. Async EASGD (Sec 5.1, Eqs 1-2) is the elastic pair with no
staleness bound; the bounded family threads a
:class:`~repro.engine.ps.StalenessBound` through the server, tracked with
real master versions — a rejected worker's local progress is discarded in
favour of a center resync, the same semantics the simulated trainer
implements.

The worker's request payload and gradient copy live in a
:class:`repro.comm.arena.BufferArena` and are reused every exchange. That
is safe even when the thread backend passes the payload by reference: the
server folds it *before* replying, and the worker cannot overwrite it until
the reply arrives. Replies are always fresh copies — the worker keeps that
reference, so the server must never mutate it.

Gossip has no server: all P ranks are peers, and each round they pair up
by the deterministic tournament schedule (:func:`repro.comm.topology.
gossip_pairs`) and average pairwise via an explicit send/recv exchange
(lower rank sends first, higher rank receives first — deadlock-free under
any buffering).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.comm.arena import BufferArena
from repro.comm.backend import make_communicator
from repro.comm.runtime import RankContextBase
from repro.comm.topology import gossip_pairs
from repro.data.dataset import Dataset
from repro.data.loader import BatchSampler
from repro.engine.ps import (
    AccumGradWorkerRule,
    AdagServerStore,
    DeltaServerStore,
    ElasticCenterStore,
    ElasticPullWorkerRule,
    ElasticWorkerRule,
    LocalSgdWorkerRule,
    StalenessBound,
)
from repro.engine.rank_loop import rank_steps
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.network import Network
from repro.optim.easgd import EASGDHyper
from repro.trace.events import Trace

__all__ = ["PS_RUNNER_METHODS", "MpiPsResult", "run_mpi_ps"]

#: Wire tags for the request/reply pair (clear of the collective strides).
TAG_REQ = 11  # worker -> server: family payload
TAG_REP = 12  # server -> worker: family reply
TAG_GOSSIP = 13  # peer <-> peer pairwise exchange

#: Every family this runner implements (gossip runs peer-to-peer).
PS_RUNNER_METHODS = (
    "downpour", "adag", "eamsgd", "async-easgd", "bounded-async-easgd", "gossip-sgd",
)
#: Families that run ``local_steps`` local batches between exchanges.
_LOCAL_STEPS_METHODS = ("downpour", "adag", "eamsgd")
#: Families whose server replies the pre-fold center (the elastic exchange).
_ELASTIC_METHODS = ("eamsgd", "async-easgd", "bounded-async-easgd")


@dataclass
class MpiPsResult:
    """Outcome of one message-passing parameter-server run."""

    center: np.ndarray  # final center (gossip: the consensus mean)
    worker_weights: List[np.ndarray]  # final local weights per worker
    mean_losses: List[float]  # per-round batch loss averaged over workers
    extras: Dict[str, float] = field(default_factory=dict)


def _server_main(ctx: RankContextBase, method: str, center: np.ndarray,
                 iterations: int, hyper: EASGDHyper,
                 bound: Optional[StalenessBound]):
    """Rank 0: serve one exchange per worker per round, round-robin."""
    workers = ctx.size - 1
    if method == "downpour":
        store = DeltaServerStore().bind(center)
    elif method == "adag":
        store = AdagServerStore(hyper.lr, workers).bind(center)
    else:
        store = ElasticCenterStore(hyper).bind(center)
    trace = ctx.trace
    version = 0
    worker_version = [0] * (workers + 1)
    mean_losses: List[float] = []
    for t in rank_steps(ctx, iterations):
        loss_sum = 0.0
        for j in range(1, ctx.size):
            batch_loss, payload = ctx.recv(source=j, tag=TAG_REQ)
            t0 = ctx._elapsed() if trace is not None else 0.0
            loss_sum += float(batch_loss)
            verdict = "apply"
            if bound is not None:
                verdict, _scale = bound.admit(version - worker_version[j])
            if verdict == "reject":
                # Discard the contribution; the worker resyncs from the
                # untouched center. No version bump — nothing landed.
                reply = store.pull()
            else:
                if method in _ELASTIC_METHODS:
                    reply = store.exchange(payload)  # reply Wbar_t, then fold
                else:
                    store.push(payload)
                    reply = store.pull()
                version += 1
            worker_version[j] = version
            ctx.send((verdict, reply), dest=j, tag=TAG_REP)
            if trace is not None:
                # value = when the request reached the serial server: the
                # FCFS invariant checks service order against it.
                trace.span("service", ctx.rank, t0, ctx._elapsed(),
                           op=f"ps-{verdict}", nbytes=payload.nbytes,
                           iteration=t, value=t0)
        mean_losses.append(loss_sum / workers)
    extras = bound.extras() if bound is not None else {}
    return center, mean_losses, extras


def _worker_main(ctx: RankContextBase, method: str, template: Network,
                 train_set: Dataset, iterations: int, batch_size: int,
                 local_steps: int, hyper: EASGDHyper, seed: int):
    """Ranks 1..P-1: local steps per exchange, family-specific payload."""
    net = template.clone(name=f"ps-rank{ctx.rank}")
    local = template.get_params()
    sampler = BatchSampler(train_set, batch_size, seed, name=("worker", ctx.rank))
    loss = SoftmaxCrossEntropy()
    arena = BufferArena()
    if method == "downpour":
        rule = LocalSgdWorkerRule()
        anchor = local.copy()
    elif method == "adag":
        rule = AccumGradWorkerRule()
        acc = np.zeros_like(local)
    elif method == "eamsgd":
        rule = ElasticPullWorkerRule()
        velocity = np.zeros_like(local)
    else:
        rule = ElasticWorkerRule()

    for _t in rank_steps(ctx, iterations):
        for _s in range(local_steps):
            images, labels = sampler.next_batch()
            net.set_params(local)
            batch_loss = net.gradient(images, labels, loss)
            if method == "downpour":
                rule.local_step(local, net.grads, hyper.lr)
            elif method == "adag":
                rule.local_step(local, acc, net.grads, hyper.lr)
            elif method == "eamsgd":
                rule.local_step(local, velocity, net.grads, hyper)

        if method == "downpour":
            payload = rule.delta(local, anchor)  # a fresh array already
        else:
            payload = arena.fill("request", acc if method == "adag" else local)
        grad = arena.fill("grad", net.grads)
        ctx.send((np.float32(batch_loss), payload), dest=0, tag=TAG_REQ)
        verdict, reply = ctx.recv(source=0, tag=TAG_REP)

        if method == "downpour":
            local[...] = reply
            anchor[...] = reply
        elif method == "adag":
            local[...] = reply
            acc[...] = 0.0
        elif verdict == "reject":
            local[...] = reply  # resync; the local progress is discarded
        elif method == "eamsgd":
            rule.apply(local, reply, hyper)
        else:
            rule.apply(local, grad, reply, hyper)  # Eq 1
    return local


def _rank_main(ctx: RankContextBase, method, template, train_set, iterations,
               batch_size, local_steps, hyper, seed, bound):
    if ctx.rank == 0:
        center = template.get_params()  # the server starts from W, like workers
        return _server_main(ctx, method, center, iterations, hyper, bound)
    return _worker_main(ctx, method, template, train_set, iterations,
                        batch_size, local_steps, hyper, seed)


def _gossip_rank_main(ctx: RankContextBase, template: Network,
                      train_set: Dataset, iterations: int, batch_size: int,
                      lr: float, seed: int):
    """All ranks are peers: local SGD step, then tournament-pair averaging."""
    net = template.clone(name=f"gossip-rank{ctx.rank}")
    local = template.get_params()
    sampler = BatchSampler(train_set, batch_size, seed, name=("worker", ctx.rank))
    loss = SoftmaxCrossEntropy()
    losses: List[float] = []

    for t in rank_steps(ctx, iterations):
        images, labels = sampler.next_batch()
        net.set_params(local)
        losses.append(float(net.gradient(images, labels, loss)))
        local -= lr * net.grads

        for a, b in gossip_pairs(t, ctx.size):
            if ctx.rank == a:  # lower rank sends first: deadlock-free
                ctx.send(local.copy(), dest=b, tag=TAG_GOSSIP)
                peer_w = ctx.recv(source=b, tag=TAG_GOSSIP)
            elif ctx.rank == b:
                peer_w = ctx.recv(source=a, tag=TAG_GOSSIP)
                ctx.send(local.copy(), dest=a, tag=TAG_GOSSIP)
            else:
                continue
            local[...] = 0.5 * (local + peer_w)
    return local, losses


def run_mpi_ps(
    method: str,
    network: Network,
    train_set: Dataset,
    ranks: int,
    iterations: int,
    batch_size: int = 32,
    local_steps: Optional[int] = None,
    lr: float = 0.05,
    rho: float = 2.0,
    mu: float = 0.9,
    tau: Optional[int] = None,
    seed: int = 0,
    timeout: float = 120.0,
    trace: Optional[Trace] = None,
    backend: str = "threads",
    transport: Optional[str] = None,
    pool: Optional[Any] = None,
) -> MpiPsResult:
    """Run one parameter-server family across ``ranks`` real threads/processes.

    For the centered families ``ranks`` counts the server: ``ranks - 1``
    workers train. For ``gossip-sgd`` all ranks train and the returned
    center is the consensus mean of the final replicas. Service order and
    pairing are deterministic, so the returned weights are bit-identical
    across backends and transports for a fixed seed.

    ``local_steps`` (default 4) applies to ``downpour``, ``adag`` and
    ``eamsgd``; ``tau`` (default ``2 * max(ranks - 2, 1)``) to
    ``bounded-async-easgd``. Passing either to a family that cannot honour
    it raises ``ValueError``. ``trace`` records every message; for the
    centered families it also gets one ``service`` span per exchange at
    the server, stamped with the request's arrival time. ``transport``
    picks the process backend's byte path (``"shm"`` or ``"queue"``;
    ``None`` = backend default). ``pool`` dispatches the process backend
    to a persistent :class:`repro.pool.WorkerPool` instead of forking per
    call (amortized spin-up, identical bits).
    """
    if method not in PS_RUNNER_METHODS:
        raise ValueError(f"method must be one of {PS_RUNNER_METHODS}, got {method!r}")
    if iterations <= 0:
        raise ValueError("iterations must be positive")
    if ranks < 2:
        raise ValueError("need at least 2 ranks")
    if method in _LOCAL_STEPS_METHODS:
        local_steps = 4 if local_steps is None else local_steps
        if local_steps < 1:
            raise ValueError("local_steps must be >= 1")
    elif local_steps is not None:
        raise ValueError(f"{method} runs one batch per exchange; it takes no local_steps")
    if method != "bounded-async-easgd" and tau is not None:
        raise ValueError(f"{method} has no staleness bound; it takes no tau")

    centered = method != "gossip-sgd"
    if centered:
        bound = None
        if method == "bounded-async-easgd":
            bound = StalenessBound.for_workers(ranks - 1, tau)
        program, args = _rank_main, (
            method, network, train_set, iterations, batch_size, local_steps or 1,
            EASGDHyper(lr=lr, rho=rho, mu=mu), seed, bound,
        )
    else:
        program, args = _gossip_rank_main, (
            network, train_set, iterations, batch_size, lr, seed,
        )
    if trace is not None:
        trace.meta.setdefault("method", f"MPI {method}")
        if centered:
            trace.meta.setdefault("pattern", "ps")
            trace.meta.setdefault("lock_free", False)
            trace.meta.setdefault("service", "round-robin")
    comm = make_communicator(ranks, backend=backend, timeout=timeout, trace=trace,
                             transport=transport, pool=pool)
    try:
        results = comm.run(program, *args)
    finally:
        comm.close()
    if centered:
        center, mean_losses, extras = results[0]
        return MpiPsResult(center=center, worker_weights=list(results[1:]),
                           mean_losses=mean_losses, extras=extras)
    replicas = [r[0] for r in results]
    mean_losses = [float(np.mean(round_losses))
                   for round_losses in zip(*(r[1] for r in results))]
    return MpiPsResult(center=np.mean(np.stack(replicas, axis=0), axis=0),
                       worker_weights=replicas, mean_losses=mean_losses)
