"""Tests for the campaign service (``repro.service``).

Covers the full robustness contract from EXPERIMENTS.md, "Campaign
service":

- canonical spec builders shared with the CLI (same run key, or HTTP
  jobs could never resume CLI ledgers);
- the crash-safe job store (atomic records, restart recovery, orphan
  ledger adoption);
- admission control (idempotent resubmit, explicit queue-full, circuit
  breaker, draining) at both the scheduler and HTTP layers;
- the end-to-end acceptance gate: a campaign submitted over HTTP,
  interrupted by SIGKILL-ing the server mid-run with worker crashes
  injected, completes after a restart with block records byte-identical
  to an uninterrupted run — for both sampling backends;
- graceful SIGTERM drain with exit code 130;
- directory-level ledger linting (``repro lint --ledger <dir>``).
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro import obs
from repro.durable import (
    DurableExecutor,
    FaultPlan,
    RetryPolicy,
    RunLedger,
    lint_ledger_dir,
    parse_ledger,
    run_key,
    scan_ledgers,
)
from repro.service import (
    JobStore,
    Scheduler,
    ServiceClient,
    SpecError,
    TERMINAL_STATES,
    build_compare_spec,
    build_memory_spec,
    execute_spec,
    read_service_address,
    spec_from_payload,
)
from repro.service.server import CampaignServer

FAST = RetryPolicy(block_timeout=60.0, max_attempts=3, retry_base_delay=0.001)

#: Small canonical payloads (SHOT_BLOCK=1024 => two blocks each).
MEM_PAYLOAD = {"command": "memory", "distance": 3, "shots": 2048, "seed": 3}
MEM_PAYLOAD_2 = {"command": "memory", "distance": 3, "shots": 2048, "seed": 4}


def _reference_run(spec, path, *, workers=1):
    """The uninterrupted reference: the CLI's runner, ``run_spec``.

    ``execute_spec`` runs it on a fresh ledger with cold caches and no
    persistent fleet, as ``repro memory``/``compare --ledger`` do, and
    summarizes the executor's units.
    """
    ledger = RunLedger(path, spec)
    executor = DurableExecutor(ledger, workers=workers, policy=FAST,
                               stop_interval_blocks=1)
    try:
        result = execute_spec(spec, executor)
    finally:
        ledger.close()
    return result


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------
class TestSpecs:
    def test_payload_round_trips_to_cli_identical_spec(self):
        # The builder IS the CLI's spec: same dict, same run key.
        spec = spec_from_payload(MEM_PAYLOAD)
        assert spec == build_memory_spec(distance=3, shots=2048, seed=3)
        # Submitting a previously returned spec verbatim is idempotent.
        assert spec_from_payload(spec) == spec
        assert run_key(spec_from_payload(spec)) == run_key(spec)

    def test_compare_policy_resolution_matches_cli(self):
        assert build_compare_spec()["policy"] == "auto"
        assert build_compare_spec(correlated=True)["policy"] == "surgery_only"
        assert build_compare_spec(policy="transversal_preferred")[
            "policy"] == "transversal_preferred"

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecError, match="unknown spec field"):
            spec_from_payload({**MEM_PAYLOAD, "shotss": 100})

    def test_unknown_command_rejected(self):
        with pytest.raises(SpecError, match="command must be one of"):
            spec_from_payload({"command": "explode"})

    @pytest.mark.parametrize(
        "bad",
        [
            {"distance": 4},
            {"distance": 2},
            {"p": 1.5},
            {"shots": 0},
            {"shots": True},
            {"scheme": "nope"},
            {"backend": "gpu"},
        ],
    )
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(SpecError):
            spec_from_payload({**MEM_PAYLOAD, **bad})

    def test_stamped_field_mismatch_rejected(self):
        with pytest.raises(SpecError, match="shot_block"):
            spec_from_payload({**MEM_PAYLOAD, "shot_block": 7})

    def test_compare_list_fields_validated(self):
        with pytest.raises(SpecError, match="must be a list"):
            spec_from_payload({"command": "compare", "distances": 3})
        with pytest.raises(SpecError, match="odd integer"):
            spec_from_payload({"command": "compare", "distances": [4]})

    @pytest.mark.parametrize("program", ["pairs", "t"])
    def test_compare_program_size_validated(self, program):
        with pytest.raises(SpecError, match="even number of qubits"):
            spec_from_payload({"command": "compare", "program": program,
                               "qubits": 3})


class TestExecuteSpec:
    @pytest.mark.parametrize("spec, uncovered", [
        # A 3-qubit GHZ chain is one surgery component: its two windows
        # are decoded as independent pieces, not jointly.
        (build_compare_spec(
            program="ghz", qubits=3, correlated=True, grid=2, distances=[3],
            shots=64, embeddings=["natural"], refresh_policies=["dram"],
        ), {"natural/dram/d3": 2}),
        # The CI service-smoke payload.
        (spec_from_payload({
            "command": "compare", "program": "pairs", "qubits": 2,
            "embeddings": ["natural"], "refresh_policies": ["dram"],
            "distances": [3], "shots": 4096,
        }), {}),
    ], ids=["ghz3-correlated", "ci-pairs2"])
    def test_uncovered_windows_reach_result_and_registry(
        self, tmp_path, registry, spec, uncovered
    ):
        result = _reference_run(spec, tmp_path / "compare.jsonl")
        assert result["uncovered_windows"] == uncovered
        assert "decode_stats" not in result  # tier totals live in the registry
        totals = obs.summarize_snapshot(registry.snapshot())
        assert totals.get("repro_campaign_uncovered_windows_total", 0) == sum(
            uncovered.values())

    @pytest.mark.parametrize("program, qubits", [("ghz", 3), ("t", 2)])
    def test_result_units_are_the_ledgers_units(self, tmp_path, program, qubits):
        # ghz(3) has no jointly decoded pair: its single-qubit pieces are
        # the per-qubit units, so each must be listed once, not again as
        # a piece; t(2) has one pair unit next to its qubit units.
        spec = build_compare_spec(
            program=program, qubits=qubits, correlated=True, distances=[3],
            shots=1024, embeddings=["natural"], refresh_policies=["dram"],
        )
        path = tmp_path / "compare.jsonl"
        result = _reference_run(spec, path)
        labels = [unit["unit"] for unit in result["units"]]
        assert len(labels) == len(set(labels))
        ledger_units = parse_ledger(path).units
        assert labels == list(ledger_units)
        for unit in result["units"]:
            record = ledger_units[unit["unit"]]
            assert (unit["errors"], unit["shots"]) == (
                record["errors"], record["shots"])


# ---------------------------------------------------------------------------
# Job store
# ---------------------------------------------------------------------------
class TestJobStore:
    def test_create_persists_and_reloads(self, tmp_path):
        store = JobStore(tmp_path)
        spec = spec_from_payload(MEM_PAYLOAD)
        job = store.create(spec)
        assert job.id == run_key(spec)
        assert store.job_path(job.id).exists()
        # A fresh store over the same directory sees the same record.
        reopened = JobStore(tmp_path)
        again = reopened.get(job.id)
        assert again is not None
        assert again.to_dict() == job.to_dict()

    def test_saves_are_atomic_no_tmp_left_behind(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.create(spec_from_payload(MEM_PAYLOAD))
        job.state = "running"
        store.save(job)
        assert not list(tmp_path.glob("*.tmp"))
        assert json.loads(store.job_path(job.id).read_text())[
            "state"] == "running"

    def test_recover_requeues_in_flight_jobs_in_seq_order(self, tmp_path):
        store = JobStore(tmp_path)
        first = store.create(spec_from_payload(MEM_PAYLOAD))
        second = store.create(spec_from_payload(MEM_PAYLOAD_2))
        first.state = "running"
        store.save(first)
        second.state = "interrupted"
        store.save(second)
        reopened = JobStore(tmp_path)
        requeued = reopened.recover()
        assert [j.id for j in requeued] == [first.id, second.id]
        assert all(j.state == "queued" for j in requeued)

    def test_recover_leaves_terminal_jobs_alone(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.create(spec_from_payload(MEM_PAYLOAD))
        job.state = "done"
        store.save(job)
        assert JobStore(tmp_path).recover() == []

    def test_recover_adopts_orphan_ledgers(self, tmp_path):
        # An operator copies a bare ledger into the directory: its
        # durable blocks must not be stranded.  The spec in the ledger
        # header is enough to rebuild the job record.
        spec = spec_from_payload(MEM_PAYLOAD)
        key = run_key(spec)
        RunLedger(tmp_path / f"{key}.jsonl", spec).close()
        store = JobStore(tmp_path)
        requeued = store.recover()
        assert [j.id for j in requeued] == [key]
        assert store.get(key).spec == spec

    def test_recover_skips_foreign_renamed_ledgers(self, tmp_path):
        spec = spec_from_payload(MEM_PAYLOAD)
        RunLedger(tmp_path / "renamed.jsonl", spec).close()
        store = JobStore(tmp_path)
        # run_key(spec) != "renamed" -> not adopted (lint flags LED008).
        assert store.recover() == []

    def test_invalid_job_record_fails_loudly(self, tmp_path):
        (tmp_path / "broken.job.json").write_text("{\"id\": ")
        with pytest.raises(RuntimeError, match="invalid job record"):
            JobStore(tmp_path)


# ---------------------------------------------------------------------------
# Scheduler admission (no run loop started: the queue holds still)
# ---------------------------------------------------------------------------
class TestAdmission:
    def test_full_queue_is_explicit_never_a_hang(self, tmp_path):
        scheduler = Scheduler(JobStore(tmp_path), queue_limit=1, policy=FAST)
        assert scheduler.admit(
            spec_from_payload(MEM_PAYLOAD)).outcome == "accepted"
        decision = scheduler.admit(spec_from_payload(MEM_PAYLOAD_2))
        assert decision.outcome == "queue-full"
        assert "capacity" in decision.detail

    def test_resubmission_is_idempotent(self, tmp_path):
        scheduler = Scheduler(JobStore(tmp_path), policy=FAST)
        spec = spec_from_payload(MEM_PAYLOAD)
        first = scheduler.admit(spec)
        second = scheduler.admit(spec)
        assert (first.outcome, second.outcome) == ("accepted", "exists")
        assert second.job.id == first.job.id

    def test_failed_job_is_requeued_to_resume(self, tmp_path):
        store = JobStore(tmp_path)
        scheduler = Scheduler(store, policy=FAST)
        spec = spec_from_payload(MEM_PAYLOAD)
        job = scheduler.admit(spec).job
        job.state = "failed"
        store.save(job)
        # Drop it from the queue's perspective by rebuilding the
        # scheduler (as a restart would).
        scheduler = Scheduler(store, policy=FAST)
        assert scheduler.admit(spec).outcome == "requeued"
        assert store.get(job.id).state == "queued"

    def test_circuit_breaker_opens_after_repeated_strikes(self, tmp_path):
        store = JobStore(tmp_path)
        scheduler = Scheduler(store, policy=FAST, breaker_threshold=3)
        spec = spec_from_payload(MEM_PAYLOAD)
        job = scheduler.admit(spec).job
        job.state = "failed"
        job.strikes = 3
        store.save(job)
        decision = Scheduler(store, policy=FAST).admit(spec)
        assert decision.outcome == "breaker-open"
        assert "circuit breaker" in decision.detail

    def test_draining_rejects_everything(self, tmp_path):
        scheduler = Scheduler(JobStore(tmp_path), policy=FAST)
        scheduler.drain(timeout=1.0)
        assert scheduler.admit(
            spec_from_payload(MEM_PAYLOAD)).outcome == "draining"


# ---------------------------------------------------------------------------
# Scheduler end-to-end (run loop started)
# ---------------------------------------------------------------------------
def _wait_terminal(store, job_id, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = store.get(job_id)
        if job is not None and job.state in TERMINAL_STATES:
            return job
        time.sleep(0.02)
    raise TimeoutError(f"job {job_id} not terminal after {timeout}s")


class TestSchedulerRuns:
    def test_memory_job_runs_to_done_with_wilson_events(self, tmp_path):
        spec = spec_from_payload(MEM_PAYLOAD)
        reference = _reference_run(spec, tmp_path / "ref.jsonl")
        store = JobStore(tmp_path / "svc")
        scheduler = Scheduler(store, policy=FAST)
        scheduler.start()
        try:
            job_id = scheduler.admit(spec).job.id
            job = _wait_terminal(store, job_id)
        finally:
            scheduler.drain(timeout=30.0)
        assert job.state == "done"
        assert job.strikes == 0
        assert job.result == reference
        # One Wilson-interval event per completed block, cumulative.
        events = scheduler.events(job_id)
        assert len(events) == 2
        assert [e["completed_blocks"] for e in events] == [1, 2]
        assert events[-1]["shots"] == 2048
        assert all(len(e["ci"]) == 2 for e in events)
        final = job.result["units"][0]
        lo, hi = events[-1]["ci"]
        assert final["ci"] == [lo, hi]
        # The service ledger's blocks equal the reference's.
        assert (parse_ledger(store.ledger_path(job_id)).blocks
                == parse_ledger(tmp_path / "ref.jsonl").blocks)

    def test_fleet_job_runs_each_unit_as_one_epoch(self, tmp_path):
        # A four-block memory job is one unit: one supervised call on
        # the shared two-worker fleet, not one call per block.
        spec = spec_from_payload(
            {"command": "memory", "distance": 3, "shots": 4096, "seed": 5})
        _reference_run(spec, tmp_path / "ref.jsonl")
        store = JobStore(tmp_path / "svc")
        scheduler = Scheduler(store, workers=2, policy=FAST)
        epoch = scheduler.fleet.epoch
        scheduler.start()
        try:
            job_id = scheduler.admit(spec).job.id
            job = _wait_terminal(store, job_id)
            assert scheduler.fleet.epoch == epoch + 1
        finally:
            scheduler.drain(timeout=30.0)
        assert job.state == "done"
        blocks = parse_ledger(store.ledger_path(job_id)).blocks
        assert len(blocks[next(iter(blocks))]) == 4
        assert blocks == parse_ledger(tmp_path / "ref.jsonl").blocks

    def test_quarantined_blocks_degrade_and_strike(self, tmp_path):
        store = JobStore(tmp_path)
        scheduler = Scheduler(
            store,
            policy=RetryPolicy(block_timeout=60.0, max_attempts=1,
                               retry_base_delay=0.001),
            fault=FaultPlan(seed=1, exc_rate=1.0, max_faults_per_block=99),
        )
        scheduler.start()
        try:
            job_id = scheduler.admit(spec_from_payload(MEM_PAYLOAD)).job.id
            job = _wait_terminal(store, job_id)
        finally:
            scheduler.drain(timeout=30.0)
        assert job.state == "degraded"
        assert job.strikes == 1
        assert job.quarantined_blocks == 2
        assert "quarantined" in job.error

    def test_job_timeout_fails_the_job_not_the_service(self, tmp_path):
        store = JobStore(tmp_path)
        scheduler = Scheduler(store, policy=FAST, job_timeout=0.0)
        scheduler.start()
        try:
            job_id = scheduler.admit(spec_from_payload(MEM_PAYLOAD)).job.id
            job = _wait_terminal(store, job_id)
            assert job.state == "failed"
            assert job.strikes == 1
            assert "timeout" in job.error
            # The scheduler survives: an untimed second job completes.
            scheduler.job_timeout = None
            job2_id = scheduler.admit(spec_from_payload(MEM_PAYLOAD_2)).job.id
            assert _wait_terminal(store, job2_id).state == "done"
        finally:
            scheduler.drain(timeout=30.0)


# ---------------------------------------------------------------------------
# HTTP API (in-process server)
# ---------------------------------------------------------------------------
@pytest.fixture()
def service(tmp_path):
    store = JobStore(tmp_path)
    scheduler = Scheduler(store, policy=FAST, queue_limit=4)
    server = CampaignServer(("127.0.0.1", 0), store, scheduler)
    server.write_address_file()
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05},
        daemon=True,
    )
    thread.start()
    scheduler.start()
    client = ServiceClient(read_service_address(tmp_path))
    yield client, store, scheduler
    scheduler.drain(timeout=30.0)
    server.shutdown()
    server.server_close()
    thread.join(timeout=10.0)


class TestHTTPAPI:
    def test_healthz_reports_fleet_queue_and_caches(self, service):
        client, _, _ = service
        code, body = client.healthz()
        assert code == 200
        assert body["status"] == "ok"
        assert body["queue_limit"] == 4
        assert body["fleet"]["alive"] == body["fleet"]["size"]
        assert set(body["caches"]) == {
            "lowering", "decoder_graph", "joint_lowering", "joint_graph",
        }

    def test_submit_wait_status_events_round_trip(self, service):
        client, store, _ = service
        code, body = client.submit(MEM_PAYLOAD)
        assert code == 202
        assert body["outcome"] == "accepted"
        job_id = body["id"]
        assert job_id == run_key(spec_from_payload(MEM_PAYLOAD))

        job = client.wait(job_id, timeout=120.0)
        assert job["state"] == "done"
        assert job["result"]["units"][0]["shots"] == 2048

        # Idempotent resubmit of the finished job.
        code, body = client.submit(MEM_PAYLOAD)
        assert (code, body["outcome"]) == (200, "exists")

        # Event stream pages with ?since=N.
        code, page = client.events(job_id, since=0)
        assert code == 200
        assert page["state"] == "done"
        assert len(page["events"]) == 2
        code, rest = client.events(job_id, since=page["next"])
        assert rest["events"] == []

        code, listing = client.jobs()
        assert [j["id"] for j in listing["jobs"]] == [job_id]

    def test_unknown_job_and_path_are_404(self, service):
        client, _, _ = service
        assert client.status("deadbeef")[0] == 404
        assert client._request("GET", "/nope")[0] == 404

    def test_invalid_payloads_are_400(self, service):
        client, _, _ = service
        code, body = client.submit({"command": "memory", "distance": 4})
        assert code == 400
        assert "distance" in body["error"]
        # Raw non-JSON body.
        request = urllib.request.Request(
            client.base_url + "/jobs", data=b"{not json", method="POST",
        )
        try:
            urllib.request.urlopen(request, timeout=10.0)
            pytest.fail("expected HTTP 400")
        except urllib.error.HTTPError as exc:
            assert exc.code == 400

    def test_saturated_queue_returns_429(self, service):
        client, _, scheduler = service
        scheduler.pause()  # hold the queue still; limit is 4
        try:
            for seed in range(10, 14):
                code, _ = client.submit({**MEM_PAYLOAD, "seed": seed})
                assert code == 202
            code, body = client.submit({**MEM_PAYLOAD, "seed": 99})
            assert code == 429
            assert body["outcome"] == "queue-full"
        finally:
            scheduler.unpause()

    def test_draining_returns_503_and_healthz_degrades(self, service):
        client, _, scheduler = service
        scheduler.drain(timeout=30.0)
        code, body = client.submit(MEM_PAYLOAD)
        assert (code, body["outcome"]) == (503, "draining")
        code, health = client.healthz()
        assert (code, health["status"]) == (200, "draining")


# ---------------------------------------------------------------------------
# Full-process robustness (subprocess `python -m repro serve`)
# ---------------------------------------------------------------------------
def _spawn_server(directory, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--dir", str(directory),
         "--port", "0", *extra],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def _wait_for_service(directory, proc, *, stale=None, timeout=60.0):
    """Poll until service.json is (re)written and /healthz answers."""
    deadline = time.monotonic() + timeout
    path = Path(directory) / "service.json"
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(
                f"server exited early ({proc.returncode}):\n"
                f"{proc.stdout.read()}"
            )
        if path.exists() and path.read_text() != stale:
            try:
                client = ServiceClient(read_service_address(directory),
                                       timeout=5.0)
                if client.healthz()[0] == 200:
                    return client
            except (OSError, ValueError):
                pass
        time.sleep(0.05)
    raise TimeoutError("service did not come up")


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
        proc.wait(timeout=10.0)
    if proc.stdout is not None:
        proc.stdout.close()


@pytest.mark.parametrize(
    "backend,shots",
    [("packed", 8192), ("reference", 3072)],
    ids=["packed", "reference"],
)
def test_sigkill_midrun_restart_is_bit_identical(tmp_path, backend, shots):
    """The acceptance gate: SIGKILL the server mid-campaign (with worker
    crashes injected), restart over the same directory, and the finished
    job's block records are byte-identical to an uninterrupted run."""
    payload = {"command": "memory", "distance": 3, "shots": shots,
               "seed": 5, "backend": backend}
    spec = spec_from_payload(payload)
    reference = _reference_run(spec, tmp_path / "ref.jsonl", workers=2)

    svc_dir = tmp_path / "svc"
    svc_dir.mkdir()
    # Chaos keeps the job busy (crashes + retries) so the SIGKILL lands
    # mid-campaign; --max-attempts 8 makes quarantine all but impossible.
    chaos_server = _spawn_server(
        svc_dir, "--workers", "2", "--chaos", "crash=0.5,seed=3",
        "--max-attempts", "8", "--retry-base-delay", "0.05",
    )
    killed_midrun = False
    try:
        client = _wait_for_service(svc_dir, chaos_server)
        code, body = client.submit(payload)
        assert code == 202
        job_id = body["id"]
        assert job_id == run_key(spec)
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            _, job = client.status(job_id)
            if job.get("state") in TERMINAL_STATES:
                break  # finished before we could kill; identity still holds
            _, page = client.events(job_id)
            if job.get("state") == "running" and page["next"] >= 1:
                killed_midrun = True
                break
            time.sleep(0.01)
        stale_address = (svc_dir / "service.json").read_text()
        chaos_server.kill()  # SIGKILL: no drain, no checkpointing grace
        chaos_server.wait(timeout=10.0)
    finally:
        _stop(chaos_server)

    # The job file says running/queued and the ledger holds a prefix of
    # the campaign — the crash left real recovery work behind.
    if killed_midrun:
        record = json.loads((svc_dir / f"{job_id}.job.json").read_text())
        assert record["state"] in ("queued", "running")
        assert len(parse_ledger(svc_dir / f"{job_id}.jsonl").blocks) >= 1

    clean_server = _spawn_server(svc_dir, "--workers", "2")
    try:
        client = _wait_for_service(svc_dir, clean_server, stale=stale_address)
        job = client.wait(job_id, timeout=240.0)
        assert job["state"] == "done"
        assert job["result"] == reference
        assert (parse_ledger(svc_dir / f"{job_id}.jsonl").blocks
                == parse_ledger(tmp_path / "ref.jsonl").blocks)
        code, health = client.healthz()
        assert health["fleet"]["alive"] == health["fleet"]["size"] == 2
    finally:
        _stop(clean_server)
    assert killed_midrun, "job finished before SIGKILL; increase chaos/shots"


def test_sigterm_drains_checkpoints_and_exits_130(tmp_path):
    server = _spawn_server(tmp_path, "--workers", "2",
                           "--chaos", "crash=0.5,seed=7",
                           "--max-attempts", "8",
                           "--retry-base-delay", "0.05")
    try:
        client = _wait_for_service(tmp_path, server)
        code, body = client.submit(MEM_PAYLOAD)
        assert code == 202
        job_id = body["id"]
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            _, job = client.status(job_id)
            if job.get("state") != "queued":
                break
            time.sleep(0.01)
        server.send_signal(signal.SIGTERM)
        assert server.wait(timeout=120.0) == 130
    finally:
        _stop(server)
    # The drain checkpointed: the job record is either interrupted
    # mid-run (requeued on restart) or already terminal — never lost.
    record = json.loads((tmp_path / f"{job_id}.job.json").read_text())
    assert record["state"] in ("interrupted", "queued", "done", "degraded")


# ---------------------------------------------------------------------------
# Directory-level ledger linting (satellite of the service: the service
# directory is a directory of ledgers)
# ---------------------------------------------------------------------------
class TestLedgerDirLint:
    def _good_ledger(self, directory, payload=MEM_PAYLOAD):
        spec = spec_from_payload(payload)
        key = run_key(spec)
        path = Path(directory) / f"{key}.jsonl"
        _reference_run(spec, path)
        return key, path

    def test_scan_ledgers_maps_run_keys_to_parses(self, tmp_path):
        key, _ = self._good_ledger(tmp_path)
        (tmp_path / "corrupt.jsonl").write_text("not json\n")
        scanned = scan_ledgers(tmp_path)
        assert set(scanned) == {key, "corrupt"}
        assert not isinstance(scanned[key], Exception)
        assert scanned[key].header["key"] == key
        assert isinstance(scanned["corrupt"], Exception)

    def test_lint_dir_reports_per_file_diagnostics(self, tmp_path):
        self._good_ledger(tmp_path)
        (tmp_path / "corrupt.jsonl").write_text("not json\n")
        report = lint_ledger_dir(tmp_path)
        assert report.checked["ledger_files"] == 2
        assert not report.ok
        assert any("corrupt.jsonl" in str(d) for d in report.errors)

    def test_lint_dir_flags_renamed_ledger_led008(self, tmp_path):
        key, path = self._good_ledger(tmp_path)
        path.rename(tmp_path / "renamed.jsonl")
        report = lint_ledger_dir(tmp_path)
        assert any(d.code == "LED008" for d in report.warnings)

    def test_lint_dir_missing_directory_is_led001(self, tmp_path):
        report = lint_ledger_dir(tmp_path / "nope")
        assert [d.code for d in report.errors] == ["LED001"]

    def test_cli_lints_a_service_directory(self, tmp_path):
        self._good_ledger(tmp_path)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        clean = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--ledger-only",
             "--ledger", str(tmp_path), "--json"],
            env=env, capture_output=True, text=True,
        )
        assert clean.returncode == 0, clean.stdout + clean.stderr
        payload = json.loads(clean.stdout)
        assert payload["checked"]["ledger_files"] == 1
        (tmp_path / "corrupt.jsonl").write_text("not json\n")
        dirty = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--ledger-only",
             "--ledger", str(tmp_path), "--json"],
            env=env, capture_output=True, text=True,
        )
        assert dirty.returncode == 1
