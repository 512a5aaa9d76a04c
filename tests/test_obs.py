"""Tests for the observability subsystem (``repro.obs``).

Covers the contract EXPERIMENTS.md, "Observability" documents:

- the catalog-backed metrics registry: labeled counters/gauges/
  histograms, cheap no-op default, catalog enforcement;
- deterministic snapshot semantics: order-invariant merges (counters
  and histogram cells sum, gauges max), delta shipping, fixed bucket
  edges;
- worker fan-out: a workers=N run's merged snapshot carries the same
  counter totals as the workers=1 run at the same chunking, and the
  tier instruments satisfy the ``sum(tiers) == unique`` identity;
- bit-identity: arming the registry and tracer never changes measured
  counts or per-call tier records;
- the registry as the one total of decode-tier occupancy across calls,
  and the cold-path ``repro_decode_prepare_seconds`` stages and
  ``repro_engine_compile_seconds`` backends;
- the span tracer: parent ids, bounded buffer, Chrome trace_event
  export, JSONL round trip;
- Prometheus text exposition: render/parse round trip and the strict
  histogram invariants, plus ``/metrics`` on a live service mid-job;
- OBS001: every catalog instrument obeys the
  ``repro_<layer>_<name>_<unit>`` convention (and violations surface).
"""

import json
import threading
import urllib.request

import pytest

from repro import obs
from repro.noise import BASELINE_HARDWARE, ErrorModel
from repro.obs.catalog import CATALOG, InstrumentSpec, check_spec
from repro.service import (
    JobStore,
    Scheduler,
    ServiceClient,
    read_service_address,
)
from repro.service.server import CampaignServer
from repro.sim import (
    BACKENDS,
    count_logical_errors,
    make_sampler,
    prepare_decoding,
    run_memory_experiment,
)
from repro.surface_code import baseline_memory_circuit


@pytest.fixture(autouse=True)
def _obs_clean(monkeypatch):
    """Every test starts and ends with observability off (no leakage)."""
    monkeypatch.delenv("REPRO_OBS", raising=False)
    obs.disable()
    obs.disable_tracing()
    yield
    obs.disable()
    obs.disable_tracing()


def _memory(distance=3, p=2e-3):
    return baseline_memory_circuit(
        distance, ErrorModel(hardware=BASELINE_HARDWARE, p=p)
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_counter_gauge_histogram_snapshot_shapes(self):
        reg = obs.MetricsRegistry()
        reg.counter("repro_engine_shots_total").inc(5)
        reg.counter("repro_decode_tier_shots_total").inc(3, "trivial")
        reg.gauge("repro_service_queue_depth").set(7)
        reg.histogram("repro_engine_chunk_seconds").observe(0.004)
        snap = reg.snapshot()
        assert snap["repro_engine_shots_total"]["values"] == {"": 5}
        assert snap["repro_decode_tier_shots_total"]["values"] == {"trivial": 3}
        assert snap["repro_service_queue_depth"]["values"] == {"": 7}
        hist = snap["repro_engine_chunk_seconds"]
        edges = hist["edges"]
        cell = hist["hist"][""]
        # Flat layout: bucket counts, +Inf count, sum, count.
        assert len(cell) == len(edges) + 3
        assert sum(cell[: len(edges) + 1]) == 1
        assert cell[-1] == 1 and cell[-2] == pytest.approx(0.004)

    def test_registry_refuses_off_catalog_names(self):
        reg = obs.MetricsRegistry()
        with pytest.raises(KeyError):
            reg.counter("repro_engine_bogus_total")
        with pytest.raises(TypeError):
            reg.counter("repro_engine_chunk_seconds")  # histogram, not counter

    def test_disabled_module_helpers_are_noops(self):
        assert not obs.enabled()
        obs.counter("repro_engine_shots_total").inc(10)
        obs.gauge("repro_service_queue_depth").set(3)
        obs.histogram("repro_engine_chunk_seconds").observe(1.0)
        reg = obs.enable()
        assert obs.summarize_snapshot(reg.snapshot()) == {}

    def test_enable_is_idempotent(self):
        reg = obs.enable()
        assert obs.enable() is reg
        assert obs.active() is reg


# ---------------------------------------------------------------------------
# Snapshot merge semantics
# ---------------------------------------------------------------------------
def _snap(shots, tier_counts=(), depth=0.0, chunk_seconds=()):
    reg = obs.MetricsRegistry()
    reg.counter("repro_engine_shots_total").inc(shots)
    for tier, n in tier_counts:
        reg.counter("repro_decode_tier_shots_total").inc(n, tier)
    if depth:
        reg.gauge("repro_service_queue_depth").set(depth)
    for value in chunk_seconds:
        reg.histogram("repro_engine_chunk_seconds").observe(value)
    return reg.snapshot()


class TestMergeSemantics:
    def test_merge_is_order_invariant(self):
        # Binary-representable observations, so the histogram sum cell —
        # a float accumulation — is bitwise identical under any merge
        # order, making the permutation comparison exact end to end.
        snaps = [
            _snap(1024, [("trivial", 3)], depth=2, chunk_seconds=[0.25]),
            _snap(2048, [("trivial", 1), ("batched", 7)], depth=5,
                  chunk_seconds=[0.5, 4.0]),
            _snap(512, [("weight1", 2)], chunk_seconds=[0.125]),
        ]
        import itertools

        merges = [
            obs.merge_snapshots(*perm) for perm in itertools.permutations(snaps)
        ]
        for other in merges[1:]:
            assert other == merges[0]
        totals = obs.summarize_snapshot(merges[0])
        assert totals["repro_engine_shots_total"] == 3584
        assert merges[0]["repro_decode_tier_shots_total"]["values"] == {
            "trivial": 4, "batched": 7, "weight1": 2,
        }
        # Gauges merge by max (last-writer-wins has no meaning across
        # workers); histogram cells sum element-wise.
        assert merges[0]["repro_service_queue_depth"]["values"] == {"": 5}
        cell = merges[0]["repro_engine_chunk_seconds"]["hist"][""]
        assert cell[-1] == 4
        assert cell[-2] == 0.25 + 0.5 + 4.0 + 0.125

    def test_delta_plus_before_reconstructs_after(self):
        before = _snap(1024, [("trivial", 3)], chunk_seconds=[0.01])
        reg = obs.MetricsRegistry()
        reg.merge_snapshot(before)
        reg.counter("repro_engine_shots_total").inc(512)
        reg.counter("repro_decode_tier_shots_total").inc(9, "batched")
        reg.histogram("repro_engine_chunk_seconds").observe(0.5)
        after = reg.snapshot()

        delta = obs.snapshot_delta(after, before)
        totals = obs.summarize_snapshot(delta)
        assert totals["repro_engine_shots_total"] == 512

        rebuilt = obs.merge_snapshots(before, delta)
        assert rebuilt == after

    def test_unchanged_cells_are_dropped_from_delta(self):
        before = _snap(1024, [("trivial", 3)])
        delta = obs.snapshot_delta(before, before)
        assert obs.summarize_snapshot(delta) == {}

    def test_merge_counts_is_the_single_stats_merge(self):
        """Counter cells merge by merge_counts' per-key sum."""
        into = {"shots": 100, "trivial": 2}
        out = obs.merge_counts(into, {"shots": 50, "trivial": 1, "batched": 9})
        assert out is into
        assert into == {"shots": 150, "trivial": 3, "batched": 9}
        merged = obs.merge_snapshots(
            _snap(100, [("trivial", 2)]), _snap(50, [("trivial", 1), ("batched", 9)])
        )
        assert merged["repro_decode_tier_shots_total"]["values"] == {
            "trivial": 3, "batched": 9,
        }


# ---------------------------------------------------------------------------
# Engine integration: fan-out, tier identity, bit-identity
# ---------------------------------------------------------------------------
class TestEngineIntegration:
    SHOTS = 4096

    def _run(self, workers, executor=None):
        reg = obs.enable()
        memory = _memory()
        result = run_memory_experiment(
            memory, shots=self.SHOTS, seed=7, workers=workers, executor=executor,
        )
        snap = reg.snapshot()
        obs.disable()
        return result, snap

    #: Counters that are invariant under worker fan-out at fixed batching
    #: (unique is a per-``decode_batch`` notion).
    INVARIANT = (
        "repro_engine_shots_total",
        "repro_engine_blocks_total",
        "repro_engine_logical_errors_total",
        "repro_decode_shots_total",
        "repro_decode_unique_total",
        "repro_decode_batches_total",
        "repro_decode_kernel_rows_total",
    )

    def test_fanout_merge_matches_workers_1(self, monkeypatch, tmp_path):
        # Spawned fleet workers arm themselves from the environment and
        # ship snapshot deltas back with their block results.  Both runs
        # decode one block per batch: the fleet always does, and so does
        # the durable executor running in process.
        from repro.durable import DurableExecutor, RunLedger

        monkeypatch.setenv("REPRO_OBS", "1")
        with RunLedger(tmp_path / "inline.jsonl", {"command": "obs-fanout"}) as ledger:
            result_1, snap_1 = self._run(
                workers=1, executor=DurableExecutor(ledger, workers=1)
            )
        result_2, snap_2 = self._run(workers=2)
        assert result_1.logical_errors == result_2.logical_errors
        totals_1 = obs.summarize_snapshot(snap_1)
        totals_2 = obs.summarize_snapshot(snap_2)
        for name in self.INVARIANT:
            assert totals_1[name] == totals_2[name], name
        # Decoders keep no state between batches, so every tier cell is
        # invariant; the tier identity holds for both worker counts.
        for snap, totals in ((snap_1, totals_1), (snap_2, totals_2)):
            tiers = snap["repro_decode_tier_shots_total"]["values"]
            assert sum(tiers.values()) == totals["repro_decode_unique_total"]
        assert (
            snap_1["repro_decode_tier_shots_total"]["values"]
            == snap_2["repro_decode_tier_shots_total"]["values"]
        )
        assert totals_2["repro_engine_shots_total"] == self.SHOTS
        assert totals_2["repro_engine_logical_errors_total"] == (
            result_1.logical_errors
        )

    def test_tier_instruments_satisfy_sum_equals_unique(self):
        _, snap = self._run(workers=1)
        tiers = snap["repro_decode_tier_shots_total"]["values"]
        totals = obs.summarize_snapshot(snap)
        assert sum(tiers.values()) == totals["repro_decode_unique_total"]
        assert totals["repro_decode_shots_total"] == self.SHOTS

    def test_prepare_decoding_times_each_stage(self):
        """The cold path is timed on the production path, not only in
        perfbench: one span and one histogram observation per stage."""
        reg = obs.enable()
        tracer = obs.enable_tracing()
        run_memory_experiment(_memory(), shots=64, seed=1)
        hist = reg.snapshot()["repro_decode_prepare_seconds"]["hist"]
        assert {stage: cell[-1] for stage, cell in hist.items()} == {
            "dem": 1, "graph": 1, "decoder": 1,
        }
        stages = [s["args"]["stage"] for s in tracer.spans
                  if s["name"] == "decode.prepare"]
        assert sorted(stages) == ["decoder", "dem", "graph"]

    def test_make_sampler_times_each_backend(self):
        """The sampler compile is timed on the production path too: one
        histogram observation per backend label."""
        reg = obs.enable()
        for backend in BACKENDS:
            make_sampler(_memory().circuit, backend)
        hist = reg.snapshot()["repro_engine_compile_seconds"]["hist"]
        assert {backend: cell[-1] for backend, cell in hist.items()} == {
            backend: 1 for backend in BACKENDS
        }

    def test_durable_blocks_record_sample_and_decode_time(self, tmp_path):
        """The durable path splits every block into sample and decode time,
        and arming the registry does not change its counts."""
        from repro.durable import DurableExecutor, RunLedger, parse_ledger

        def run(name):
            ledger = RunLedger(tmp_path / name, {"command": "obs-split", "seed": 5})
            try:
                result = run_memory_experiment(
                    _memory(), shots=2100, seed=5,
                    executor=DurableExecutor(ledger, workers=1),
                )
            finally:
                ledger.close()
            return result, parse_ledger(tmp_path / name).blocks

        plain, plain_blocks = run("off.jsonl")
        reg = obs.enable()
        armed, armed_blocks = run("on.jsonl")
        totals = obs.summarize_snapshot(reg.snapshot())
        assert totals["repro_engine_blocks_total"] == 3  # 1024 + 1024 + 52
        for name in ("sample", "decode", "chunk"):
            assert totals[f"repro_engine_{name}_seconds"] == 3, name
        assert armed.logical_errors == plain.logical_errors
        assert armed_blocks == plain_blocks  # tier stats included

    def test_observability_never_changes_results(self):
        """Counts and tier records are bit-identical with obs on vs off."""
        memory = _memory()

        def run():
            # 2048 shots are one in-process decode_batch call, so its
            # per-call record covers the whole run.
            setup = prepare_decoding(memory)
            errors = count_logical_errors(
                memory.circuit, setup.decoder, setup.basis_detectors,
                setup.basis_observables, 2048, seed=11,
            )
            return errors, setup.decoder.last_batch_stats

        baseline = run()
        obs.enable()
        obs.enable_tracing()
        assert run() == baseline


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------
class TestTracer:
    def test_span_nesting_records_parent_ids(self):
        tracer = obs.Tracer()
        with tracer.span("campaign.unit", kind="qubit"):
            with tracer.span("engine.count"):
                pass
        outer = next(s for s in tracer.spans if s["name"] == "campaign.unit")
        inner = next(s for s in tracer.spans if s["name"] == "engine.count")
        assert inner["parent"] == outer["id"]
        assert outer["parent"] is None
        assert outer["dur_ns"] >= inner["dur_ns"] >= 0
        assert outer["args"] == {"kind": "qubit"}

    def test_bounded_buffer_drops_and_counts(self):
        reg = obs.enable()
        tracer = obs.Tracer(max_spans=2)
        for _ in range(5):
            with tracer.span("engine.count"):
                pass
        assert len(tracer.spans) == 2
        assert tracer.dropped == 3
        totals = obs.summarize_snapshot(reg.snapshot())
        assert totals["repro_obs_spans_dropped_total"] == 3

    def test_module_span_is_null_context_when_off(self):
        with obs.span("engine.count") as span_id:
            assert span_id is None
        assert obs.active_tracer() is None

    def test_jsonl_round_trip_and_chrome_export(self, tmp_path):
        tracer = obs.enable_tracing()
        with obs.span("campaign.lower", qubit=0):
            with obs.span("engine.compile", backend="packed"):
                pass
        path = tmp_path / "trace.jsonl"
        assert tracer.write_jsonl(path) == 2
        spans = obs.load_jsonl(path)
        assert spans == tracer.spans

        document = obs.chrome_trace(spans)
        events = document["traceEvents"]
        assert {e["name"] for e in events} == {
            "campaign.lower", "engine.compile",
        }
        for event in events:
            assert event["ph"] == "X"
            assert event["cat"] in ("campaign", "engine")
            assert event["dur"] >= 0

        rows = obs.summarize_spans(spans)
        assert rows[0]["name"] == "campaign.lower"  # sorted by total time
        lower = rows[0]
        compile_row = rows[1]
        # Self time excludes child time.
        assert lower["self_ns"] == lower["total_ns"] - compile_row["total_ns"]

    def test_engine_run_emits_spans(self):
        obs.enable()
        tracer = obs.enable_tracing()
        run_memory_experiment(_memory(), shots=1024, seed=0, workers=1)
        names = {s["name"] for s in tracer.spans}
        assert "engine.count" in names
        assert "engine.compile" in names


# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------
class TestExposition:
    def test_render_parse_round_trip(self):
        snap = _snap(2048, [("trivial", 3), ("batched", 9)], depth=4,
                     chunk_seconds=[0.004, 0.2, 99.0])
        text = obs.prometheus_text(snap)
        families = obs.parse_prometheus_text(text)
        shots = families["repro_engine_shots_total"]
        assert shots["type"] == "counter"
        assert (("repro_engine_shots_total", {}, 2048.0)
                in shots["samples"])
        tiers = families["repro_decode_tier_shots_total"]
        assert ("repro_decode_tier_shots_total", {"tier": "batched"}, 9.0) in (
            tiers["samples"]
        )
        hist = families["repro_engine_chunk_seconds"]
        assert hist["type"] == "histogram"
        buckets = [
            (labels["le"], value)
            for name, labels, value in hist["samples"]
            if name == "repro_engine_chunk_seconds_bucket"
        ]
        # Cumulative and capped by +Inf == count.
        values = [v for _, v in buckets]
        assert values == sorted(values)
        assert buckets[-1] == ("+Inf", 3.0)
        count = [
            v for name, _, v in hist["samples"]
            if name == "repro_engine_chunk_seconds_count"
        ]
        assert count == [3.0]

    def test_parser_rejects_malformed_text(self):
        with pytest.raises(ValueError):
            obs.parse_prometheus_text("repro_engine_shots_total 1\n")  # no TYPE
        snap = _snap(16, chunk_seconds=[0.1])
        text = obs.prometheus_text(snap)
        broken = text.replace('le="+Inf"', 'le="nope"', 1)
        with pytest.raises(ValueError):
            obs.parse_prometheus_text(broken)

    def test_content_type_is_prometheus_v004(self):
        assert "version=0.0.4" in obs.CONTENT_TYPE


# ---------------------------------------------------------------------------
# Service /metrics
# ---------------------------------------------------------------------------
class TestServiceMetrics:
    def test_metrics_endpoint_serves_parseable_text_mid_job(self, tmp_path):
        obs.enable()
        from repro.durable import RetryPolicy

        store = JobStore(tmp_path)
        scheduler = Scheduler(
            store, queue_limit=4,
            policy=RetryPolicy(block_timeout=60.0, max_attempts=3,
                               retry_base_delay=0.001),
        )
        server = CampaignServer(("127.0.0.1", 0), store, scheduler)
        server.write_address_file()
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        thread.start()
        scheduler.start()
        client = ServiceClient(read_service_address(tmp_path))

        def scrape():
            with urllib.request.urlopen(
                client.base_url + "/metrics", timeout=10.0
            ) as response:
                assert response.status == 200
                assert response.headers["Content-Type"] == obs.CONTENT_TYPE
                return obs.parse_prometheus_text(
                    response.read().decode("utf-8")
                )

        try:
            # Hold the queue so the scrape provably races an admitted,
            # not-yet-finished job, then let it run to completion.
            scheduler.pause()
            code, body = client.submit(
                {"command": "memory", "distance": 3, "shots": 2048, "seed": 3}
            )
            assert code == 202
            families = scrape()
            admissions = families["repro_service_admissions_total"]
            assert ("repro_service_admissions_total", {"outcome": "accepted"},
                    1.0) in admissions["samples"]
            depth = families["repro_service_queue_depth"]
            assert depth["type"] == "gauge"
            assert depth["samples"] == [
                ("repro_service_queue_depth", {}, 1.0)
            ]

            scheduler.unpause()
            job = client.wait(body["id"], timeout=120.0)
            assert job["state"] == "done"

            families = scrape()
            jobs = families["repro_service_jobs_total"]
            assert ("repro_service_jobs_total", {"state": "done"}, 1.0) in (
                jobs["samples"]
            )
            totals = {
                name: samples
                for name, samples in (
                    (fam, families[fam]["samples"]) for fam in families
                )
            }
            assert "repro_engine_shots_total" in totals
            # healthz carries the same registry as a compact rollup.
            code, health = client.healthz()
            assert code == 200
            assert health["metrics"]["repro_service_block_events_total"] == 2
        finally:
            scheduler.drain(timeout=30.0)
            server.shutdown()
            server.server_close()
            thread.join(timeout=10.0)


# ---------------------------------------------------------------------------
# OBS001 lint
# ---------------------------------------------------------------------------
class TestObsLint:
    def test_catalog_is_clean(self):
        from repro.analyze import lint_instruments

        report = lint_instruments()
        assert report.ok
        assert report.checked["instruments"] == len(CATALOG)

    @pytest.mark.parametrize(
        "spec",
        [
            # layer outside the taxonomy
            InstrumentSpec("repro_widget_shots_total", "counter", "help"),
            # counter must end _total
            InstrumentSpec("repro_engine_shots_count", "counter", "help"),
            # missing help string
            InstrumentSpec("repro_engine_shots_total", "counter", ""),
            # histogram without strictly-increasing buckets
            InstrumentSpec("repro_engine_chunk_seconds", "histogram", "help",
                           buckets=(1.0, 1.0, 2.0)),
        ],
    )
    def test_violations_surface_as_obs001(self, spec):
        from repro.analyze import lint_instruments

        report = lint_instruments([spec])
        assert not report.ok
        assert all(d.code == "OBS001" for d in report.errors)
        assert check_spec(spec)

    def test_lint_matrix_counts_instruments(self):
        from repro.analyze import lint_matrix

        report = lint_matrix(programs=("pairs",), distances=(3,),
                             embeddings=("compact",))
        assert report.checked["instruments"] == len(CATALOG)


# ---------------------------------------------------------------------------
# CLI: --obs-dir, repro metrics, repro trace
# ---------------------------------------------------------------------------
class TestObsCLI:
    def test_obs_dir_then_metrics_and_trace(self, tmp_path, capsys):
        from repro.__main__ import main

        obs_dir = tmp_path / "obs"
        code = main([
            "memory", "--distance", "3", "--shots", "1024",
            "--obs-dir", str(obs_dir),
        ])
        assert code == 0
        assert not obs.enabled()  # the session disarms on the way out
        metrics_path = obs_dir / "metrics.json"
        trace_path = obs_dir / "trace.jsonl"
        snapshot = json.loads(metrics_path.read_text())
        assert obs.summarize_snapshot(snapshot)["repro_engine_shots_total"] == 1024
        capsys.readouterr()

        assert main(["metrics", str(metrics_path)]) == 0
        rendered = capsys.readouterr().out
        assert "repro_engine_shots_total" in rendered

        assert main(["metrics", str(metrics_path), "--prometheus"]) == 0
        exposition = capsys.readouterr().out
        families = obs.parse_prometheus_text(exposition)
        assert "repro_engine_shots_total" in families

        # Diffing a snapshot against itself zeroes every counter.
        assert main([
            "metrics", str(metrics_path), "--diff", str(metrics_path),
        ]) == 0
        assert "(no instruments recorded)" in capsys.readouterr().out

        chrome_path = tmp_path / "chrome.json"
        assert main([
            "trace", str(trace_path), "--chrome", str(chrome_path), "--top", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "engine.count" in out
        document = json.loads(chrome_path.read_text())
        assert document["traceEvents"]

    def test_metrics_rejects_missing_snapshot(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["metrics", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err


def test_null_span_propagates_exceptions():
    """The disabled-tracer span must re-raise, not AttributeError.

    Regression: a contextmanager wrapped around a plain iterator has no
    ``gen.throw``, so any exception raised inside a disabled span block
    (e.g. an injected fault inside ``durable.wave``) surfaced as
    ``AttributeError: 'list_iterator' object has no attribute 'throw'``.
    """
    with pytest.raises(ValueError, match="boom"):
        with obs.span("durable.wave"):
            raise ValueError("boom")
