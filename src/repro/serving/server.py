"""Prediction-as-a-service: a coalescing server over one shared session.

:class:`PredictionServer` accepts concurrent sweep-prediction requests
(:meth:`~PredictionServer.submit` returns a
:class:`concurrent.futures.Future` immediately) and has its worker threads
dispatch them in **coalesced groups**: every pending request sharing
``(algorithm, preset, mode)`` is served from one union-of-sizes
:class:`~repro.core.batch.MetricsBatch` compile, with each caller's columns
scattered back to its own future.  Results are bit-for-bit identical to
running each request alone — the cost evaluators are column-independent
array programs, so evaluating the union and selecting a request's columns
is exactly the computation the request would have run in isolation.

Two request modes exist (see :data:`repro.serving.queue.MODES`):
``"result"`` resolves to the same :class:`~repro.experiments.results.Result`
that ``Session.run_many`` returns; ``"predict"`` resolves to a
:class:`~repro.core.prediction.SweepPrediction` and is the high-throughput
path — the model side is shared across the whole group, so a coalesced
request costs little more than a column select.

Backpressure and scheduling are pluggable: admission control lives in the
:class:`~repro.serving.queue.RequestQueue` (raising
:class:`~repro.serving.errors.ServerOverloadedError`), dispatch order in
the :class:`~repro.serving.policies.SchedulingPolicy`.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import List, Optional, Sequence, Union

from repro.experiments.session import Session, predict_group
from repro.experiments.spec import ExperimentSpec
from repro.serving.errors import (
    DeadlineExpiredError,
    ServerClosedError,
    ServerOverloadedError,
)
from repro.serving.policies import SchedulingPolicy, resolve_policy
from repro.serving.queue import MODES, PredictionRequest, RequestQueue
from repro.serving.stats import ServerStats, StatsCollector


class PredictionServer:
    """A thread-pool server coalescing concurrent prediction requests.

    Parameters
    ----------
    session:
        The :class:`~repro.experiments.session.Session` to execute through
        (its result cache and prediction memo are shared by every request).
        When omitted the server owns a private session and closes it with
        itself.
    policy:
        Scheduling policy name (``"fifo"``, ``"fair-share"``, ``"deadline"``)
        or a :class:`~repro.serving.policies.SchedulingPolicy` instance.
    workers:
        Number of dispatcher threads.
    max_queue_depth / max_inflight_sizes:
        Admission-control bounds (pending requests / admitted-but-uncompleted
        sweep points); exceeding either makes ``submit`` raise
        :class:`~repro.serving.errors.ServerOverloadedError`.

    Requests may be submitted before :meth:`start` — they queue up and the
    first worker dispatch coalesces everything pending, which the tests and
    benchmarks use to make coalescing deterministic.  The usual lifecycle is
    the context manager::

        with PredictionServer(policy="fifo") as server:
            futures = server.submit_many(specs, mode="predict")
            predictions = [f.result() for f in futures]
    """

    def __init__(
        self,
        session: Optional[Session] = None,
        policy: Union[str, SchedulingPolicy] = "fifo",
        workers: int = 2,
        max_queue_depth: int = 256,
        max_inflight_sizes: int = 1_000_000,
        latency_window: int = 4096,
    ) -> None:
        if workers < 1:
            raise ValueError("a server needs at least one worker thread")
        self.session = session if session is not None else Session()
        self._owns_session = session is None
        self.policy = resolve_policy(policy)
        self.workers = int(workers)
        self._queue = RequestQueue(
            max_queue_depth=max_queue_depth,
            max_inflight_sizes=max_inflight_sizes,
        )
        self._stats = StatsCollector(latency_window=latency_window)
        self._threads: List[threading.Thread] = []
        self._started = False
        self._closed = False
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "PredictionServer":
        """Spawn the worker threads (idempotent)."""
        with self._lock:
            if self._closed:
                raise ServerClosedError("the server has been closed")
            if self._started:
                return self
            self._started = True
            for index in range(self.workers):
                thread = threading.Thread(
                    target=self._worker,
                    name=f"prediction-server-{index}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)
        return self

    def close(self, wait: bool = True) -> None:
        """Stop accepting requests, drain the queue, stop the workers.

        Pending requests are still served before the workers exit (the
        queue only signals shutdown once closed *and* drained).  With
        ``wait=True`` the call blocks until every worker has exited.  On a
        server that was never started, pending futures are cancelled
        instead — there is nobody to serve them.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            started = self._started
        self._queue.close()
        if not started:
            self._cancel_pending()
        elif wait:
            for thread in self._threads:
                thread.join()
        if self._owns_session:
            self.session.close()

    def __enter__(self) -> "PredictionServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close(wait=True)

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        spec: ExperimentSpec,
        tenant: str = "default",
        deadline_s: Optional[float] = None,
        mode: str = "result",
    ) -> "Future":
        """Enqueue one spec; the future resolves when a worker serves it.

        ``deadline_s`` is relative to now; under the deadline policy a
        request whose deadline passes before dispatch fails with
        :class:`~repro.serving.errors.DeadlineExpiredError` (other policies
        treat it as an ordering hint).  ``mode="predict"`` resolves the
        future to a :class:`~repro.core.prediction.SweepPrediction` instead
        of a full :class:`~repro.experiments.results.Result`.
        """
        if mode not in MODES:
            known = ", ".join(MODES)
            raise ValueError(
                f"unknown request mode {mode!r}; known modes: {known}"
            )
        if deadline_s is not None and deadline_s < 0:
            raise ValueError("deadline_s must be non-negative")
        with self._lock:
            if self._closed:
                raise ServerClosedError("the server has been closed")
        request = PredictionRequest(
            spec=spec,
            future=Future(),
            tenant=tenant,
            deadline=(
                time.monotonic() + deadline_s
                if deadline_s is not None
                else None
            ),
            mode=mode,
            cost=len(spec.resolved_sizes()),
        )
        try:
            self._queue.put(request)
        except ServerOverloadedError:
            self._stats.record_rejected()
            raise
        self._stats.record_submitted()
        return request.future

    def submit_many(
        self,
        specs: Sequence[ExperimentSpec],
        tenant: str = "default",
        deadline_s: Optional[float] = None,
        mode: str = "result",
    ) -> List["Future"]:
        """`submit` each spec in order, returning the futures in order."""
        return [
            self.submit(spec, tenant=tenant, deadline_s=deadline_s, mode=mode)
            for spec in specs
        ]

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def stats(self) -> ServerStats:
        """A consistent snapshot of counters, latencies and queue state."""
        return self._stats.snapshot(
            policy=self.policy.name,
            workers=self.workers,
            queue_depth=self._queue.depth,
            inflight_sizes=self._queue.inflight_sizes,
        )

    # ------------------------------------------------------------------ #
    # Worker side
    # ------------------------------------------------------------------ #
    def _worker(self) -> None:
        while True:
            group = self._queue.take(self.policy)
            if group is None:
                return
            try:
                self._dispatch(group)
            finally:
                self._queue.task_done(group.requests)

    def _dispatch(self, group) -> None:
        now = time.monotonic()
        live: List[PredictionRequest] = []
        for request in group.requests:
            if not request.future.set_running_or_notify_cancel():
                self._stats.record_cancelled()
                continue
            if self.policy.rejects_expired and request.expired(now):
                request.future.set_exception(
                    DeadlineExpiredError(
                        f"deadline passed {now - request.deadline:.3f}s "
                        f"before request {request.request_id} "
                        f"({request.spec.algorithm!r}) could be dispatched"
                    )
                )
                self._stats.record_expired()
                continue
            live.append(request)
        if not live:
            return
        self._stats.record_dispatch(group.key, len(live))
        mode = group.key[2]
        try:
            if mode == "predict":
                outputs: Sequence = predict_group(
                    [r.spec for r in live],
                    batch_cache=self.session.batch_cache,
                )
            else:
                outputs = list(
                    self.session.run_many([r.spec for r in live])
                )
        except Exception:
            # A group-level failure must not take down every caller that
            # happened to coalesce with the offender: retry each request
            # alone so only the genuinely failing ones see the error.
            self._dispatch_isolated(live)
            return
        done = time.monotonic()
        for request, output in zip(live, outputs):
            request.future.set_result(output)
            self._stats.record_completed(done - request.submitted_at)

    def _dispatch_isolated(self, requests: Sequence[PredictionRequest]) -> None:
        for request in requests:
            try:
                if request.mode == "predict":
                    output = predict_group(
                        [request.spec],
                        batch_cache=self.session.batch_cache,
                    )[0]
                else:
                    output = self.session.run(request.spec)
            except Exception as exc:  # noqa: BLE001 - forwarded to caller
                request.future.set_exception(exc)
                self._stats.record_failed()
            else:
                request.future.set_result(output)
                self._stats.record_completed(
                    time.monotonic() - request.submitted_at
                )

    def _cancel_pending(self) -> None:
        while True:
            group = self._queue.take(self.policy, timeout=0)
            if group is None:
                return
            try:
                for request in group.requests:
                    if request.future.cancel():
                        self._stats.record_cancelled()
            finally:
                self._queue.task_done(group.requests)
