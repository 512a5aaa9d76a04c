"""The campaign service's HTTP front-end (stdlib ``http.server``).

A deliberately small, dependency-free API over the scheduler:

``GET /healthz``
    Liveness + fleet/queue/cache health.  ``status`` is ``ok`` while
    admitting and ``draining`` after SIGTERM; ``fleet.alive`` equal to
    ``fleet.size`` is the "clean fleet" condition CI asserts.
``POST /jobs``
    Submit a campaign spec (the JSON body is the spec payload).  Every
    admission outcome is an explicit status code — the saturated queue
    answers 429 immediately rather than blocking the client:

    =======  ==========================================================
    202      accepted (new job) or requeued (resuming a failed/
             interrupted job from its ledger)
    200      idempotent: this spec is already queued/running/done
    400      invalid spec
    409      circuit breaker open for this spec (repeated failures)
    429      queue at capacity — explicit backpressure, retry later
    503      draining (SIGTERM received); resubmit after restart
    =======  ==========================================================
``GET /jobs``
    All jobs (id, state, strikes) in submission order.
``GET /jobs/<id>``
    Full job record incl. result when done.
``GET /jobs/<id>/events?since=N``
    Wilson-interval progress stream: one event per completed block,
    cumulative per unit.  Poll with ``since=<next>`` to tail it.
``GET /metrics``
    Prometheus text exposition (version 0.0.4) of the service's obs
    registry — observability is always enabled in the service process —
    with scrape-time gauges (queue depth, fleet liveness, cache
    occupancy) refreshed from the scheduler first.  ``/healthz`` carries
    the same registry as a compact ``metrics`` rollup field.

Shutdown: SIGTERM/SIGINT stops admission (503), checkpoints the running
job via the durable layer's graceful stop, persists every queued job,
and exits 130 — the same contract as an interrupted CLI campaign, so
"restart the server" and "rerun with --resume" are the same operation.
"""

from __future__ import annotations

import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro import obs
from repro.service.scheduler import Scheduler
from repro.service.specs import SpecError, spec_from_payload
from repro.service.store import JobStore, atomic_write_json

__all__ = ["CampaignServer", "serve_forever"]

#: admission outcome -> HTTP status
_ADMISSION_STATUS = {
    "accepted": 202,
    "requeued": 202,
    "exists": 200,
    "breaker-open": 409,
    "queue-full": 429,
    "draining": 503,
}


class _Handler(BaseHTTPRequestHandler):
    server: "CampaignServer"
    #: per-request socket timeout: a stalled client cannot pin a thread
    timeout = 30.0
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.verbose:
            super().log_message(format, *args)

    def _reply(self, code: int, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _reply_text(self, code: int, body: str, content_type: str) -> None:
        data = body.encode()
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _job_payload(self, job) -> dict:
        return job.to_dict()

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        obs.counter("repro_service_requests_total").inc(
            1, "/" + (parts[0] if parts else "")
        )
        if parts == ["metrics"]:
            scheduler = self.server.scheduler
            scheduler.update_gauges()
            reg = obs.active()
            snapshot = reg.snapshot() if reg is not None else {}
            self._reply_text(200, obs.prometheus_text(snapshot), obs.CONTENT_TYPE)
            return
        if parts == ["healthz"]:
            scheduler = self.server.scheduler
            scheduler.update_gauges()
            stats = scheduler.stats()
            reg = obs.active()
            metrics_rollup = (
                obs.summarize_snapshot(reg.snapshot()) if reg is not None else {}
            )
            self._reply(
                200,
                {
                    "status": "draining" if scheduler.draining else "ok",
                    "jobs": self.server.store.counts(),
                    "metrics": metrics_rollup,
                    **stats,
                },
            )
            return
        if parts == ["jobs"]:
            jobs = [
                {"id": j.id, "seq": j.seq, "state": j.state,
                 "strikes": j.strikes}
                for j in self.server.store.all()
            ]
            self._reply(200, {"jobs": jobs})
            return
        if len(parts) >= 2 and parts[0] == "jobs":
            job = self.server.store.get(parts[1])
            if job is None:
                self._reply(404, {"error": f"no job {parts[1]!r}"})
                return
            if len(parts) == 2:
                self._reply(200, self._job_payload(job))
                return
            if len(parts) == 3 and parts[2] == "events":
                query = parse_qs(url.query)
                try:
                    since = int(query.get("since", ["0"])[0])
                except ValueError:
                    self._reply(400, {"error": "since must be an integer"})
                    return
                events = self.server.scheduler.events(job.id, since)
                self._reply(
                    200,
                    {"events": events, "next": since + len(events),
                     "state": job.state},
                )
                return
        self._reply(404, {"error": f"unknown path {url.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        obs.counter("repro_service_requests_total").inc(
            1, "/" + (parts[0] if parts else "")
        )
        if parts != ["jobs"]:
            self._reply(404, {"error": f"unknown path {url.path!r}"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            payload = json.loads(self.rfile.read(length) or b"{}")
        except (ValueError, json.JSONDecodeError) as exc:
            self._reply(400, {"error": f"invalid JSON body: {exc}"})
            return
        try:
            spec = spec_from_payload(payload)
        except SpecError as exc:
            self._reply(400, {"error": str(exc)})
            return
        admission = self.server.scheduler.admit(spec)
        body = {"outcome": admission.outcome}
        if admission.detail:
            body["detail"] = admission.detail
        if admission.job is not None:
            body["job"] = self._job_payload(admission.job)
            body["id"] = admission.job.id
        self._reply(_ADMISSION_STATUS[admission.outcome], body)


class CampaignServer(ThreadingHTTPServer):
    """ThreadingHTTPServer wired to one store + scheduler."""

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        store: JobStore,
        scheduler: Scheduler,
        *,
        verbose: bool = False,
    ):
        super().__init__(address, _Handler)
        self.store = store
        self.scheduler = scheduler
        self.verbose = verbose

    def write_address_file(self) -> None:
        """Publish the bound address (supports ``--port 0`` discovery)."""
        host, port = self.server_address[:2]
        atomic_write_json(
            self.store.root / "service.json",
            {"host": host, "port": port},
        )


def serve_forever(
    *,
    directory: str,
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 1,
    queue_limit: int = 16,
    policy=None,
    fault=None,
    job_timeout: float | None = None,
    breaker_threshold: int = 3,
    verbose: bool = False,
) -> int:
    """Run the campaign service until SIGTERM/SIGINT; returns exit code.

    Startup order is the recovery path: open the store (atomic job
    records), requeue every job a previous server left in flight (their
    ledgers resume bit-identically), then start admitting.  Shutdown is
    the drain path: stop admitting, checkpoint, exit 130 — matching the
    CLI's interrupted-campaign semantics.
    """
    # Observability is always on in the service: enable the registry
    # before the scheduler spawns its fleet, so forked workers inherit an
    # armed registry and ship per-block metric deltas back with results.
    obs.enable()
    store = JobStore(directory)
    scheduler = Scheduler(
        store,
        workers=workers,
        queue_limit=queue_limit,
        policy=policy,
        fault=fault,
        job_timeout=job_timeout,
        breaker_threshold=breaker_threshold,
    )
    server = CampaignServer((host, port), store, scheduler, verbose=verbose)
    server.write_address_file()

    interrupted = threading.Event()

    def on_signal(signum, frame):
        if interrupted.is_set():
            return  # already draining; the drain finishes regardless
        interrupted.set()

        def drain_then_stop():
            # Drain first so clients polling during shutdown see 503s
            # and a "draining" /healthz rather than connection refusals;
            # only then stop the accept loop.  Must not run on the main
            # thread: shutdown() joins serve_forever, which is the main
            # thread.
            scheduler.drain()
            server.shutdown()

        threading.Thread(target=drain_then_stop, daemon=True).start()

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        previous[sig] = signal.signal(sig, on_signal)

    scheduler.start()
    host_bound, port_bound = server.server_address[:2]
    print(f"repro service listening on http://{host_bound}:{port_bound} "
          f"(dir={directory}, workers={workers}, queue={queue_limit})",
          flush=True)
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)
        scheduler.drain()
        server.server_close()
    if interrupted.is_set():
        print("repro service drained (checkpointed); exiting 130", flush=True)
        return 130
    return 0
