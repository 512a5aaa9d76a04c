"""Job scheduler: bounded queue, one supervised fleet, circuit breaker.

One scheduler thread drains a bounded FIFO of job ids and runs each
campaign to completion (or checkpointed interruption) on the service's
shared resources:

- a persistent :class:`~repro.durable.supervise.WorkerFleet` — worker
  processes outlive jobs, re-armed per unit via the fleet's epoch
  protocol, so the service never pays process spawn per campaign;
- shared lowering/decoder-graph/joint caches injected into every
  compare job, turning per-process caches into per-fleet caches;
- the job's own :class:`~repro.durable.ledger.RunLedger`, so every
  completed block is durable the moment it finishes and a server crash
  resumes rather than recomputes.

Admission control is explicit, not emergent: :meth:`Scheduler.admit`
returns a decision the HTTP layer maps onto status codes — a full queue
is an immediate ``queue-full`` (429), never a hang; a spec whose runs
have repeatedly exhausted block retries is ``breaker-open`` (409) until
an operator intervenes; resubmitting a known spec is idempotent.

The circuit breaker counts *strikes* per job: a run that ends with
quarantined blocks (every retry exhausted) or fails outright strikes
the job; a clean completion resets it.  Strikes are persisted in the
job record, so crash-looping specs stay quarantined across server
restarts instead of resuming their crash loop.
"""

from __future__ import annotations

import collections
import threading
import time

from repro import obs
from repro.durable import (
    CampaignInterrupted,
    DurableExecutor,
    LedgerError,
    RetryPolicy,
    RunLedger,
    WorkerFleet,
    run_key,
)
from repro.service.specs import execute_spec
from repro.service.store import JobStore
from repro.sim.stats import wilson_interval

__all__ = ["Admission", "Scheduler"]

#: Strikes after which the breaker opens for a job spec.
DEFAULT_BREAKER_THRESHOLD = 3


class Admission:
    """Decision for one submission attempt (HTTP layer maps to a code)."""

    def __init__(self, outcome: str, job=None, detail: str = ""):
        #: "accepted" | "exists" | "requeued" | "queue-full" |
        #: "breaker-open" | "draining"
        self.outcome = outcome
        self.job = job
        self.detail = detail


class Scheduler:
    """Owns the queue, the fleet, the shared caches, and the run loop."""

    def __init__(
        self,
        store: JobStore,
        *,
        workers: int = 1,
        queue_limit: int = 16,
        policy: RetryPolicy | None = None,
        fault=None,
        job_timeout: float | None = None,
        breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD,
    ):
        from repro.decoders import BuildCache

        self.store = store
        self.workers = workers
        self.queue_limit = queue_limit
        self.policy = policy or RetryPolicy()
        self.fault = fault
        self.job_timeout = job_timeout
        self.breaker_threshold = breaker_threshold
        self.caches = {
            "lowering": BuildCache("lowering"),
            "decoder_graph": BuildCache("decoder-graph"),
            "joint_lowering": BuildCache("joint-lowering"),
            "joint_graph": BuildCache("joint-graph"),
        }
        self.fleet = WorkerFleet(workers) if workers > 1 else None
        self._queue: collections.deque[str] = collections.deque()
        self._cond = threading.Condition()
        self._events: dict[str, list[dict]] = {}
        self._draining = False
        self._paused = False
        self._current_executor: DurableExecutor | None = None
        self._current_job_id: str | None = None
        self._jobs_completed = 0
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-scheduler", daemon=True
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        for job in self.store.recover():
            with self._cond:
                self._queue.append(job.id)
                self._cond.notify()
        self._thread.start()

    def drain(self, timeout: float = 60.0) -> None:
        """Stop admitting, checkpoint the running job, stop the thread.

        The running campaign receives a graceful stop: its in-flight
        blocks finish and checkpoint, the job is marked ``interrupted``
        (requeued on the next start), and queued jobs simply stay
        ``queued`` in the store.
        """
        with self._cond:
            self._draining = True
            executor = self._current_executor
            self._cond.notify_all()
        if executor is not None:
            executor.request_stop("drain")
        if self._thread.is_alive():
            self._thread.join(timeout=timeout)
        if self.fleet is not None:
            self.fleet.close()

    @property
    def draining(self) -> bool:
        return self._draining

    def pause(self) -> None:
        """Stop dequeuing (tests use this to saturate the queue)."""
        with self._cond:
            self._paused = True

    def unpause(self) -> None:
        with self._cond:
            self._paused = False
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    def admit(self, spec: dict) -> Admission:
        """Decide one submission; never blocks on a full queue."""
        decision = self._decide(spec)
        obs.counter("repro_service_admissions_total").inc(1, decision.outcome)
        return decision

    def _decide(self, spec: dict) -> Admission:
        with self._cond:
            if self._draining:
                return Admission("draining", detail="server is draining")
            job = self.store.get(run_key(spec))
            if job is not None:
                if job.strikes >= self.breaker_threshold:
                    return Admission(
                        "breaker-open",
                        job,
                        f"circuit breaker open after {job.strikes} failed "
                        f"run(s); inspect the ledger and job record",
                    )
                if job.state in ("queued", "running", "done", "degraded"):
                    # In flight or already decided: idempotent no-op.
                    return Admission("exists", job)
                # failed / interrupted: requeue to resume from the ledger
                if len(self._queue) >= self.queue_limit:
                    return Admission("queue-full", job, self._full_detail())
                job.state = "queued"
                self.store.save(job)
                self._queue.append(job.id)
                self._cond.notify()
                return Admission("requeued", job)
            if len(self._queue) >= self.queue_limit:
                return Admission("queue-full", detail=self._full_detail())
            job = self.store.create(spec)
            self._queue.append(job.id)
            self._cond.notify()
            return Admission("accepted", job)

    def _full_detail(self) -> str:
        return (
            f"queue at capacity ({self.queue_limit} job(s) waiting); "
            f"retry after a job completes"
        )

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._cond:
            return {
                "queue_depth": len(self._queue),
                "queue_limit": self.queue_limit,
                "draining": self._draining,
                "running_job": self._current_job_id,
                "jobs_completed": self._jobs_completed,
                "fleet": (
                    self.fleet.stats()
                    if self.fleet is not None
                    else {"size": 1, "alive": 1, "respawns": 0, "epoch": 0}
                ),
                "caches": {
                    name: cache.stats() for name, cache in self.caches.items()
                },
            }

    def update_gauges(self) -> None:
        """Refresh scrape-time gauges from live scheduler state.

        Called by the HTTP layer before rendering ``/metrics`` (and the
        ``metrics`` field on status), so level-style readings — queue
        depth, fleet liveness, cache occupancy — are current at scrape
        time rather than stale since the last state change.
        """
        reg = obs.active()
        if reg is None:
            return
        stats = self.stats()
        reg.gauge("repro_service_queue_depth").set(stats["queue_depth"])
        reg.gauge("repro_service_fleet_alive").set(stats["fleet"]["alive"])
        cache_gauge = reg.gauge("repro_service_cache_entries")
        for name, cache_stats in stats["caches"].items():
            cache_gauge.set(cache_stats["entries"], name)

    def events(self, job_id: str, since: int = 0) -> list[dict]:
        """Progress events (Wilson-interval updates) recorded in-memory."""
        with self._cond:
            return list(self._events.get(job_id, ())[since:])

    # ------------------------------------------------------------------
    # The run loop
    # ------------------------------------------------------------------
    def _run_loop(self) -> None:
        while True:
            with self._cond:
                while not self._draining and (not self._queue or self._paused):
                    self._cond.wait(timeout=0.2)
                if self._draining:
                    return
                job_id = self._queue.popleft()
                self._current_job_id = job_id
            job_t0 = time.monotonic()
            try:
                with obs.span("service.job", job=job_id):
                    self._run_job(job_id)
            finally:
                with self._cond:
                    self._current_job_id = None
                    self._current_executor = None
                    self._jobs_completed += 1
                reg = obs.active()
                if reg is not None:
                    job = self.store.get(job_id)
                    state = job.state if job is not None else "unknown"
                    reg.counter("repro_service_jobs_total").inc(1, state)
                    reg.histogram("repro_service_job_seconds").observe(
                        time.monotonic() - job_t0
                    )

    def _run_job(self, job_id: str) -> None:
        job = self.store.get(job_id)
        if job is None:
            return
        job.state = "running"
        job.error = ""
        self.store.save(job)
        events = self._events.setdefault(job_id, [])
        started = time.monotonic()

        def on_block(**progress) -> None:
            lo, hi = (0.0, 1.0)
            if progress["shots"] > 0:
                lo, hi = wilson_interval(progress["errors"], progress["shots"])
            with self._cond:
                events.append(
                    {"seq": len(events), "ci": [lo, hi], **progress}
                )
            obs.counter("repro_service_block_events_total").inc()
            if (
                self.job_timeout is not None
                and time.monotonic() - started > self.job_timeout
                and self._current_executor is not None
            ):
                self._current_executor.request_stop("job-timeout")

        try:
            ledger = RunLedger(self.store.ledger_path(job_id), job.spec,
                               fault=self.fault)
        except LedgerError as exc:
            # A corrupted ledger must not crash-loop the scheduler: fail
            # the job, strike it, and keep serving the queue.
            job.state = "failed"
            job.error = f"ledger error: {exc}"
            job.strikes += 1
            self.store.save(job)
            return
        executor = DurableExecutor(
            ledger,
            workers=self.workers,
            policy=self.policy,
            fault=self.fault,
            fleet=self.fleet,
            on_block=on_block,
        )
        with self._cond:
            self._current_executor = executor
            if self._draining:
                executor.request_stop("drain")
        try:
            result = execute_spec(
                job.spec,
                executor,
                lowering_cache=self.caches["lowering"],
                graph_cache=self.caches["decoder_graph"],
                joint_cache=self.caches["joint_lowering"],
                joint_graph_cache=self.caches["joint_graph"],
            )
        except CampaignInterrupted as exc:
            if "job-timeout" in str(exc):
                job.state = "failed"
                job.error = (
                    f"job exceeded its {self.job_timeout}s timeout; "
                    f"completed blocks are durable — resubmit to resume"
                )
                job.strikes += 1
            else:
                job.state = "interrupted"
                job.error = str(exc)
            self.store.save(job)
            return
        except Exception as exc:  # a failing spec must not kill the loop
            job.state = "failed"
            job.error = f"{type(exc).__name__}: {exc}"
            job.strikes += 1
            self.store.save(job)
            return
        finally:
            ledger.close()
        quarantined = sum(len(u.quarantined) for u in executor.units)
        job.result = result
        job.quarantined_blocks = quarantined
        if quarantined:
            job.state = "degraded"
            job.strikes += 1
            job.error = (
                f"{quarantined} block(s) quarantined after exhausting retries"
            )
        else:
            job.state = "done"
            job.strikes = 0
        self.store.save(job)
