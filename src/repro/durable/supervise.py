"""Supervised block execution: timeouts, retry with backoff, quarantine.

This is the engine's only way to fan shot blocks out to processes: the
durable executor runs every unit through :func:`run_supervised`, and so
does a plain ``count_logical_errors(workers > 1)`` (no ledger; a block
it would quarantine is raised as ``BlockExecutionError`` instead).  Both
therefore count their attempts in ``repro_durable_attempts_total``.

``multiprocessing.Pool`` cannot express this failure model — a hung
worker blocks ``imap`` forever, and a crashed worker poisons the pool.
This module runs raw ``Process`` workers, each with its own task queue
and a shared result queue, under a parent-side supervisor that:

- enforces a **per-block deadline** (``RetryPolicy.block_timeout``) and
  checks ``Process.is_alive`` every poll tick, so hangs and crashes are
  both detected within one tick;
- on failure **terminates and respawns** the worker, then re-queues the
  block with **bounded retry** — deterministic exponential backoff with
  hash-derived jitter (no global RNG, so supervision never perturbs the
  sampled physics);
- after ``max_attempts`` failures **quarantines** the block: it is
  reported in the outcome (and the ledger) rather than silently dropped,
  keeping ``completed + quarantined == scheduled`` reconcilable;
- ignores **late results** from attempts it already timed out (a
  ``handled`` set keyed by ``(block, attempt)``), so a race between a
  slow worker and its deadline can never double-count a block.  The
  dedup is attempt-exact on *both* sides: a late result for attempt
  ``k`` never clears the deadline of a respawned worker already running
  attempt ``k+1`` of the same block (the cross-respawn edge), so the
  retry stays supervised and its result is counted exactly once.

The workers themselves live in a :class:`WorkerFleet` — a persistent,
reusable pool.  ``run_supervised`` spawns an ephemeral fleet when none
is passed, preserving the one-shot behaviour; a long-lived caller (the
campaign service, ``repro.service``) passes its own fleet so the same
worker processes serve many units and many jobs.  Each
:meth:`WorkerFleet.configure` call starts a new *epoch* and ships the
unit's ``worker_args`` to every worker; tasks and results are tagged
with the epoch, so a straggler result from a previous unit can never be
mistaken for current work.

Every worker runs one block per ``repro.sim.engine.run_block`` call,
with fresh decoder state.  Because every block's result is therefore a
pure function of ``(circuit, seed, index)``, none of this machinery
can change the answer — retries re-execute bit-identical work, and the
completion order only affects scheduling, never the sums.

With ``workers == 1`` and no fleet the same contract runs inline:
injected crashes arrive as :class:`~repro.durable.faults.InjectedCrash`
exceptions instead of dead processes, and hangs as :class:`InjectedHang`
instead of stuck deadlines, so the retry/quarantine logic is identical
and testable without a pool.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass, field

from time import perf_counter

from repro import obs
from repro.durable.faults import InjectedHang
from repro.sim.engine import run_block

__all__ = [
    "BlockOutcome",
    "RetryPolicy",
    "SupervisedResult",
    "WorkerFleet",
    "run_supervised",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Supervision knobs (all deterministic; no RNG anywhere)."""

    #: seconds a single block attempt may run before the worker is killed
    block_timeout: float = 300.0
    #: attempts per block before quarantine (1 = no retries)
    max_attempts: int = 3
    #: backoff base: attempt k waits ~ base * 2**k seconds (plus jitter)
    retry_base_delay: float = 0.05
    #: cap on the exponential backoff
    retry_max_delay: float = 2.0

    def backoff(self, unit: str, index: int, attempt: int) -> float:
        """Deterministic exponential backoff with hash-derived jitter.

        The jitter de-synchronizes retries of different blocks without
        consuming any random stream the physics could observe.
        """
        base = min(self.retry_max_delay, self.retry_base_delay * (2.0**attempt))
        digest = hashlib.sha256(f"backoff|{unit}|{index}|{attempt}".encode()).digest()
        jitter = int.from_bytes(digest[:8], "big") / 2**64
        return base * (1.0 + 0.25 * jitter)


@dataclass
class BlockOutcome:
    """Result of supervising one block to completion or quarantine."""

    index: int
    shots: int
    errors: int = 0
    stats: dict = field(default_factory=dict)
    attempts: int = 1
    quarantined: bool = False
    failure: str = ""


@dataclass
class SupervisedResult:
    """What happened to one batch of scheduled blocks."""

    completed: list[BlockOutcome] = field(default_factory=list)
    quarantined: list[BlockOutcome] = field(default_factory=list)
    retries: int = 0
    #: True when a stop was requested before every block was executed
    aborted: bool = False


def _exit_when_orphaned(parent_pid: int) -> None:
    """Exit this process within a second of ``parent_pid`` dying."""
    while os.getppid() == parent_pid:
        time.sleep(1.0)
    os._exit(0)


def _worker_main(wid: int, task_q, result_q, parent_pid: int) -> None:
    """Worker loop: serve ``cfg``/``task`` messages until the None sentinel.

    A ``("cfg", epoch, worker_args, fault)`` message (re)arms the worker
    for a new epoch; task messages from any other epoch are silently
    dropped (they belong to a unit the supervisor already finished or
    abandoned).  Failures are reported in-band; a genuinely dying worker
    (injected ``os._exit`` or a real crash) is detected by the parent's
    liveness check instead.

    A daemon thread exits the worker once its spawning process
    ``parent_pid`` is gone (SIGKILLed, so no sentinel ever arrives).  The
    main loop cannot check this itself: a parent killed mid-write leaves
    a partial message that blocks ``task_q.get`` forever (every forked
    worker holds a write end of every task queue, so no EOF arrives).
    """
    # Forked workers inherit the parent's graceful-interrupt handlers,
    # under which SIGTERM merely requests a stop — so the supervisor's
    # ``terminate()`` would not actually kill a hung worker.  Restore the
    # default SIGTERM disposition and ignore SIGINT (a terminal Ctrl-C
    # signals the whole process group; the parent drains us instead).
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(
        target=_exit_when_orphaned, args=(parent_pid,), daemon=True
    ).start()
    epoch = None
    sampler = decoder = basis_ids = obs_ids = fault = None
    while True:
        message = task_q.get()
        if message is None:
            return
        if message[0] == "cfg":
            _, epoch, worker_args, fault = message
            sampler, decoder, basis_ids, obs_ids = worker_args
            continue
        _, task_epoch, unit, index, shots, seed, attempt = message
        if task_epoch != epoch:
            continue  # task from an epoch this worker was never armed for
        try:
            if fault is not None:
                fault.apply(unit, index, attempt, inline=False)
            # Ship the block's metric increments back as a snapshot delta
            # so fan-out observability survives the process boundary; the
            # (errors, stats) pair the ledger checkpoints is untouched.
            reg = obs.active()
            before = reg.snapshot() if reg is not None else None
            t0 = perf_counter()
            errors, stats = run_block(
                sampler,
                decoder,
                basis_ids,
                obs_ids,
                [(index, shots, seed)],
                fault=fault,
                unit=unit,
            )
            delta = None
            if reg is not None:
                reg.histogram("repro_durable_block_seconds").observe(
                    perf_counter() - t0
                )
                delta = obs.snapshot_delta(reg.snapshot(), before)
            result_q.put(
                ("ok", task_epoch, wid, index, attempt, errors, stats, delta)
            )
        except Exception as exc:  # report and keep serving
            result_q.put(
                ("err", task_epoch, wid, index, attempt, f"{type(exc).__name__}: {exc}")
            )


class WorkerFleet:
    """A persistent, supervisable pool of block-execution workers.

    The fleet owns the worker processes and nothing else: spawning,
    respawning after a kill, configuration broadcast, and teardown.  The
    per-call supervision logic (deadlines, retry, quarantine) lives in
    :class:`_PoolSupervisor`, which *borrows* a fleet for the duration of
    one ``run_supervised`` call.  Keeping the processes alive across
    calls is what makes the campaign service's worker pool persistent:
    one fleet serves every unit of every job, re-armed per unit via
    :meth:`configure`.

    Epochs: every ``configure`` increments ``epoch`` and ships the new
    ``worker_args`` to each live worker.  Workers tag results with the
    task's epoch, and both workers and supervisor drop cross-epoch
    messages, so a result from a previous unit can never leak into the
    current one.
    """

    def __init__(self, workers: int, *, context: str | None = None):
        self._ctx = (
            multiprocessing.get_context(context)
            if context
            else multiprocessing.get_context()
        )
        self.size = max(1, int(workers))
        # A SimpleQueue put writes synchronously, under the queue's
        # process-shared write lock, before the worker takes its next
        # task.  A Queue's feeder thread can still be writing when a
        # worker dies at the start of that task (an injected crash), and
        # the lock it then never releases blocks every later result.
        self.result_q = self._ctx.SimpleQueue()
        self.epoch = 0
        self.respawns = 0
        self.closed = False
        self._config: tuple | None = None  # (worker_args, fault) of this epoch
        self.slots: list[dict] = [self._spawn(wid) for wid in range(self.size)]

    # ------------------------------------------------------------------
    # Process lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, wid: int) -> dict:
        task_q = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(wid, task_q, self.result_q, os.getpid()),
            daemon=True,
        )
        proc.start()
        return {"proc": proc, "q": task_q, "busy": None}

    def configure(self, worker_args, fault=None) -> int:
        """Arm every worker for a new epoch; returns the epoch number."""
        if self.closed:
            raise RuntimeError("fleet is closed")
        self.epoch += 1
        self._config = (worker_args, fault)
        for wid, slot in enumerate(self.slots):
            slot["busy"] = None
            if not slot["proc"].is_alive():
                self.slots[wid] = slot = self._spawn(wid)
                self.respawns += 1
                obs.counter("repro_durable_respawns_total").inc()
            slot["q"].put(("cfg", self.epoch, worker_args, fault))
        return self.epoch

    def respawn(self, wid: int) -> None:
        """Terminate and replace one worker, re-arming it for the epoch."""
        slot = self.slots[wid]
        slot["proc"].terminate()
        slot["proc"].join(timeout=5.0)
        replacement = self._spawn(wid)
        if self._config is not None:
            replacement["q"].put(("cfg", self.epoch, *self._config))
        self.slots[wid] = replacement
        self.respawns += 1
        obs.counter("repro_durable_respawns_total").inc()

    # ------------------------------------------------------------------
    # Introspection (the service's /healthz reads these)
    # ------------------------------------------------------------------
    def alive_workers(self) -> int:
        return sum(1 for slot in self.slots if slot["proc"].is_alive())

    def worker_pids(self) -> list[int]:
        return [slot["proc"].pid for slot in self.slots]

    def stats(self) -> dict:
        return {
            "size": self.size,
            "alive": self.alive_workers(),
            "respawns": self.respawns,
            "epoch": self.epoch,
        }

    def close(self) -> None:
        """Shut every worker down (sentinel, then escalate to terminate)."""
        if self.closed:
            return
        self.closed = True
        for slot in self.slots:
            try:
                slot["q"].put_nowait(None)
            except Exception:
                pass
        deadline = time.monotonic() + 5.0
        for slot in self.slots:
            slot["proc"].join(timeout=max(0.1, deadline - time.monotonic()))
            if slot["proc"].is_alive():
                slot["proc"].terminate()
                slot["proc"].join(timeout=1.0)
        self.result_q.close()

    def __enter__(self) -> WorkerFleet:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def run_supervised(
    blocks,
    worker_args,
    *,
    unit: str,
    workers: int = 1,
    policy: RetryPolicy | None = None,
    fault=None,
    on_block_done=None,
    on_event=None,
    should_abort=None,
    fleet: WorkerFleet | None = None,
) -> SupervisedResult:
    """Execute ``(index, shots, seed)`` blocks under supervision.

    ``on_block_done(outcome) -> bool`` is called in the parent as each
    block completes (the runner checkpoints it to the ledger there);
    returning True requests a graceful stop — in-flight blocks drain,
    unstarted ones are left for a future resume.  ``should_abort()`` is
    polled for externally-requested stops (signal handlers).
    ``on_event(kind, **fields)`` observes retries and quarantines.

    ``fleet`` reuses a persistent :class:`WorkerFleet` instead of
    spawning processes for this call alone; the fleet is re-armed with
    this call's ``worker_args`` and left running afterwards.
    """
    policy = policy or RetryPolicy()
    emit = on_event or (lambda kind, **fields: None)
    result = SupervisedResult()
    stop = False

    def block_done(outcome: BlockOutcome) -> None:
        nonlocal stop
        result.completed.append(outcome)
        if on_block_done is not None and on_block_done(outcome):
            stop = True

    def fail(index: int, shots: int, attempt: int, reason: str) -> tuple | None:
        """Register one failed attempt; return the retry task or None."""
        next_attempt = attempt + 1
        if next_attempt >= policy.max_attempts:
            outcome = BlockOutcome(
                index=index,
                shots=shots,
                attempts=next_attempt,
                quarantined=True,
                failure=reason,
            )
            result.quarantined.append(outcome)
            obs.counter("repro_durable_quarantined_total").inc()
            emit(
                "quarantine",
                unit=unit,
                block=index,
                attempts=next_attempt,
                reason=reason,
            )
            return None
        result.retries += 1
        delay = policy.backoff(unit, index, attempt)
        obs.counter("repro_durable_retries_total").inc()
        obs.counter("repro_durable_backoff_seconds_total").inc(delay)
        emit(
            "retry",
            unit=unit,
            block=index,
            attempt=next_attempt,
            delay=round(delay, 4),
            reason=reason,
        )
        return (index, next_attempt, delay)

    if fleet is None and workers <= 1:
        _run_inline(blocks, worker_args, unit, policy, fault, block_done, fail,
                    should_abort, result, lambda: stop)
        return result

    owned = fleet is None
    if owned:
        fleet = WorkerFleet(min(workers, max(1, len(blocks))))
    try:
        supervisor = _PoolSupervisor(
            fleet, blocks, worker_args, unit=unit, policy=policy, fault=fault,
            block_done=block_done, fail=fail, should_abort=should_abort,
            result=result, stopped=lambda: stop,
        )
        supervisor.run()
    finally:
        if owned:
            fleet.close()
    return result


def _run_inline(
    blocks, worker_args, unit, policy, fault, block_done, fail, should_abort,
    result, stopped,
) -> None:
    sampler, decoder, basis_ids, obs_ids = worker_args
    pending = [(index, shots, seed, 0) for index, shots, seed in blocks]
    while pending:
        if stopped() or (should_abort is not None and should_abort()):
            result.aborted = True
            return
        index, shots, seed, attempt = pending.pop(0)
        obs.counter("repro_durable_attempts_total").inc()
        t0 = perf_counter() if obs.enabled() else 0.0
        try:
            if fault is not None:
                fault.apply(unit, index, attempt, inline=True)
            errors, stats = run_block(
                sampler, decoder, basis_ids, obs_ids, [(index, shots, seed)],
                fault=fault, unit=unit,
            )
            if t0:
                obs.histogram("repro_durable_block_seconds").observe(
                    perf_counter() - t0
                )
        except InjectedHang as exc:
            retry = fail(index, shots, attempt, f"timeout: {exc}")
            if retry is not None:
                time.sleep(retry[2])
                pending.insert(0, (index, shots, seed, retry[1]))
            continue
        except Exception as exc:
            retry = fail(index, shots, attempt, f"{type(exc).__name__}: {exc}")
            if retry is not None:
                time.sleep(retry[2])
                pending.insert(0, (index, shots, seed, retry[1]))
            continue
        block_done(
            BlockOutcome(
                index=index, shots=shots, errors=errors, stats=stats,
                attempts=attempt + 1,
            )
        )


class _PoolSupervisor:
    """One ``run_supervised`` call's supervision state over a fleet.

    Extracted as a class so the message-handling and deadline-sweep
    logic are unit-testable without racing real processes: tests drive
    :meth:`assign`, :meth:`handle_message` and :meth:`sweep` directly
    against a fake fleet to pin the late-result dedup edges (including
    the cross-respawn case where a stale attempt's result must not
    disturb the respawned worker's current attempt).
    """

    def __init__(
        self, fleet, blocks, worker_args, *, unit, policy, fault, block_done,
        fail, should_abort, result, stopped,
    ):
        self.fleet = fleet
        self.unit = unit
        self.policy = policy
        self.block_done = block_done
        self.fail = fail
        self.should_abort = should_abort
        self.result = result
        self.stopped = stopped
        self.by_index = {index: (shots, seed) for index, shots, seed in blocks}
        self.epoch = fleet.configure(worker_args, fault)
        #: (ready_at, index, attempt) tasks not yet handed to a worker
        self.pending: list[tuple[float, int, int]] = [
            (0.0, index, 0) for index, _, _ in blocks
        ]
        self.handled: set[tuple[int, int]] = set()
        self.draining = False

    # ------------------------------------------------------------------
    # The supervision loop
    # ------------------------------------------------------------------
    def run(self) -> None:
        while True:
            now = time.monotonic()
            if not self.draining and (
                self.stopped()
                or (self.should_abort is not None and self.should_abort())
            ):
                self.draining = True
                self.result.aborted = bool(self.pending) or any(
                    s["busy"] is not None for s in self.fleet.slots
                )

            self.assign(now)

            busy = any(slot["busy"] is not None for slot in self.fleet.slots)
            if not busy and (self.draining or not self.pending):
                break

            # Drain one result (a short poll doubles as the poll tick;
            # SimpleQueue.get has no timeout).
            message = None
            try:
                if self.fleet.result_q._poll(0.05):
                    message = self.fleet.result_q.get()
            except (EOFError, OSError):
                pass
            if message is not None:
                self.handle_message(message)

            self.sweep(time.monotonic())

    def assign(self, now: float) -> None:
        """Hand ready pending tasks to idle workers."""
        if self.draining:
            return
        for slot in self.fleet.slots:
            if slot["busy"] is not None or not self.pending:
                continue
            ready = [t for t in self.pending if t[0] <= now]
            if not ready:
                continue
            task = min(ready)
            self.pending.remove(task)
            _, index, attempt = task
            shots, seed = self.by_index[index]
            slot["q"].put(("task", self.epoch, self.unit, index, shots, seed, attempt))
            slot["busy"] = (index, attempt, now + self.policy.block_timeout)
            obs.counter("repro_durable_attempts_total").inc()

    def handle_message(self, message) -> None:
        """Process one worker result, deduplicating late/stale arrivals.

        Dedup is attempt-exact on both sides of the bookkeeping:

        - a ``(block, attempt)`` already in ``handled`` (its deadline
          fired, or it already completed) is ignored entirely — in
          particular it must NOT clear the slot's ``busy`` entry, which
          by now may belong to a *later attempt* of the same block on a
          respawned worker (the cross-respawn edge: clearing it would
          un-supervise the retry and let its work be lost or assigned
          twice);
        - results from another epoch (a previous unit of a shared
          fleet) are dropped before any bookkeeping at all.
        """
        kind, epoch, wid, index, attempt, *payload = message
        if epoch != self.epoch:
            return  # straggler from a previous unit on a shared fleet
        slot = self.fleet.slots[wid]
        if (index, attempt) in self.handled:
            return  # late result from an attempt we already failed
        self.handled.add((index, attempt))
        shots, _ = self.by_index[index]
        if kind == "ok":
            # Late-added payload element: the worker's metrics delta (old
            # 7-tuple messages from test fakes simply omit it).
            errors, stats, *extra = payload
            delta = extra[0] if extra else None
            reg = obs.active()
            if reg is not None and delta is not None:
                reg.merge_snapshot(delta)
            self.block_done(
                BlockOutcome(
                    index=index, shots=shots, errors=errors,
                    stats=stats, attempts=attempt + 1,
                )
            )
        else:
            retry = self.fail(index, shots, attempt, payload[0])
            if retry is not None and not self.draining:
                self.pending.append((time.monotonic() + retry[2], index, retry[1]))
        if slot["busy"] is not None and slot["busy"][:2] == (index, attempt):
            slot["busy"] = None

    def sweep(self, now: float) -> None:
        """Deadline / liveness sweep: kill and respawn stuck workers."""
        for wid, slot in enumerate(self.fleet.slots):
            busy_entry = slot["busy"]
            dead = not slot["proc"].is_alive()
            timed_out = busy_entry is not None and now > busy_entry[2]
            if not dead and not timed_out:
                continue
            if busy_entry is not None:
                index, attempt, _ = busy_entry
                if (index, attempt) not in self.handled:
                    self.handled.add((index, attempt))
                    shots, _ = self.by_index[index]
                    reason = (
                        f"worker {wid} exceeded {self.policy.block_timeout}s "
                        f"block timeout"
                        if timed_out and not dead
                        else f"worker {wid} died (exitcode "
                        f"{slot['proc'].exitcode})"
                    )
                    retry = self.fail(index, shots, attempt, reason)
                    if retry is not None and not self.draining:
                        self.pending.append(
                            (time.monotonic() + retry[2], index, retry[1])
                        )
            self.fleet.respawn(wid)
