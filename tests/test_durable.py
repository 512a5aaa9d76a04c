"""Tests for the durable campaign layer (``repro.durable``).

The contract under test: a campaign checkpointed to a run ledger and
interrupted at *any* block boundary, then resumed, is **bit-identical**
to the same campaign run uninterrupted — same error counts, same shot
totals, same ledger block records (decode-tier stats included) — for
both sampling backends and any worker count; injected crashes, hangs and
exceptions are retried/quarantined but can never alter a completed
block's result; and every corrupted-ledger case is either tolerated
(torn tail) or a hard error naming the line (interior corruption).
"""

import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.decoders import TIER_NAMES
from repro.durable import (
    CampaignInterrupted,
    DurableExecutor,
    FaultPlan,
    InjectedChunkError,
    LedgerError,
    RetryPolicy,
    RunLedger,
    lint_ledger,
    parse_fault_spec,
    parse_ledger,
    run_key,
)
from repro.durable import supervise
from repro.noise import BASELINE_HARDWARE, ErrorModel
from repro.sim import SHOT_BLOCK, run_memory_experiment
from repro.sim.engine import (
    BlockExecutionError,
    block_seeds,
    count_logical_errors,
    make_sampler,
    run_block,
)
from repro.sim.experiment import prepare_decoding
from repro.surface_code import baseline_memory_circuit

# 2100 shots = two full 1024-shot blocks plus a 52-shot remainder block.
SHOTS = 2100
SEED = 11
SPEC = {"command": "test-durable", "shots": SHOTS, "seed": SEED, "version": 1}

_MEMORY = baseline_memory_circuit(3, ErrorModel(hardware=BASELINE_HARDWARE, p=5e-3))

#: Fast supervision for tests: near-zero backoff, short timeouts.
FAST = RetryPolicy(block_timeout=60.0, max_attempts=3, retry_base_delay=0.001)


def _run(path, *, workers=1, fault=None, backend="packed", policy=FAST,
         target_ci_width=None, stop_interval_blocks=1, shots=SHOTS, seed=SEED,
         on_block=None):
    """One durable memory campaign against the ledger at ``path``."""
    ledger = RunLedger(path, SPEC, fault=fault)
    executor = DurableExecutor(
        ledger,
        workers=workers,
        policy=policy,
        fault=fault,
        target_ci_width=target_ci_width,
        stop_interval_blocks=stop_interval_blocks,
        on_block=on_block,
    )
    try:
        result = run_memory_experiment(
            _MEMORY, shots=shots, seed=seed, backend=backend, executor=executor
        )
    finally:
        ledger.close()
    return result, executor


#: backend -> (uninterrupted result, its ledger block records)
_CLEAN: dict = {}


def _clean_run(backend):
    """The uninterrupted reference campaign (cached per backend)."""
    if backend not in _CLEAN:
        with tempfile.TemporaryDirectory() as td:
            path = Path(td) / "clean.jsonl"
            result, _ = _run(path, backend=backend)
            _CLEAN[backend] = (result, parse_ledger(path).blocks)
    return _CLEAN[backend]


class TestWarmDecoderFleet:
    def test_warm_decoder_writes_cold_block_records(self):
        """A decoder that decoded inline first, then runs on the fleet,
        checkpoints the same block records as a cold decoder."""
        sampler = make_sampler(_MEMORY.circuit, "packed")

        def block_lines(decoder, basis_ids, obs_ids, path):
            ledger = RunLedger(path, SPEC)
            executor = DurableExecutor(ledger, workers=2, policy=FAST)
            try:
                executor.count(
                    unit="memory", circuit=_MEMORY.circuit, decoder=decoder,
                    basis_ids=basis_ids, obs_ids=obs_ids, shots=SHOTS,
                    seed=SEED, sampler=sampler,
                )
            finally:
                ledger.close()
            lines = path.read_text().splitlines()
            return sorted(line for line in lines if '"kind":"block"' in line)

        warm = prepare_decoding(_MEMORY, sampler=sampler)
        ids = (warm.basis_detectors, warm.basis_observables)
        count_logical_errors(
            _MEMORY.circuit, warm.decoder, *ids, SHOTS, seed=SEED + 1,
            sampler=sampler,
        )
        cold = prepare_decoding(_MEMORY, sampler=sampler).decoder
        with tempfile.TemporaryDirectory() as td:
            warm_lines = block_lines(warm.decoder, *ids, Path(td) / "warm.jsonl")
            cold_lines = block_lines(cold, *ids, Path(td) / "cold.jsonl")
        assert len(cold_lines) == 3
        assert warm_lines == cold_lines
        assert not any('"fallback"' in line for line in warm_lines)


class TestResumeBitIdentity:
    """ISSUE satellite: resume after interrupt at ANY block boundary
    reproduces the uninterrupted campaign bit-for-bit (both backends,
    workers 1 vs 4)."""

    @pytest.mark.parametrize("backend", ["packed", "reference"])
    @pytest.mark.parametrize("workers", [1, 4])
    @settings(max_examples=3, deadline=None)
    @given(cut=st.integers(min_value=1, max_value=3))
    def test_interrupt_resume_is_bit_identical(self, backend, workers, cut):
        clean_result, clean_blocks = _clean_run(backend)
        with tempfile.TemporaryDirectory() as td:
            path = Path(td) / "run.jsonl"
            # abort_after=cut simulates a SIGTERM after `cut` blocks ran
            with pytest.raises(CampaignInterrupted):
                _run(path, workers=workers, backend=backend,
                     fault=FaultPlan(abort_after=cut))
            resumed, executor = _run(path, workers=workers, backend=backend)
            assert resumed.logical_errors == clean_result.logical_errors
            assert resumed.shots == clean_result.shots
            # Ledger block records, tier stats included, are
            # byte-comparable with the clean run's.
            assert parse_ledger(path).blocks == clean_blocks
            outcome = executor.units[-1]
            assert outcome.resumed_blocks >= min(cut, 3)
            assert outcome.completed == outcome.scheduled == 3
            assert not outcome.quarantined

    @pytest.mark.parametrize("backend", ["packed", "reference"])
    def test_workers_do_not_change_durable_results(self, backend):
        clean_result, clean_blocks = _clean_run(backend)
        with tempfile.TemporaryDirectory() as td:
            path = Path(td) / "w4.jsonl"
            result, _ = _run(path, workers=4, backend=backend)
            assert result.logical_errors == clean_result.logical_errors
            assert parse_ledger(path).blocks == clean_blocks

    def test_fully_resumed_unit_executes_nothing(self):
        with tempfile.TemporaryDirectory() as td:
            path = Path(td) / "run.jsonl"
            first, _ = _run(path)
            again, executor = _run(path)
            assert again == first
            outcome = executor.units[-1]
            assert outcome.executed_blocks == 0
            assert outcome.resumed_blocks == 3

    def test_resumed_progress_totals_match_the_ledger(self):
        """``on_block``'s running totals start from the resumed blocks:
        each report equals the sums over the ledger's durable blocks."""
        with tempfile.TemporaryDirectory() as td:
            path = Path(td) / "run.jsonl"
            with pytest.raises(CampaignInterrupted):
                _run(path, fault=FaultPlan(abort_after=1))
            reports = []
            _run(path, on_block=lambda **progress: reports.append(progress))
            records = [json.loads(line) for line in path.read_text().splitlines()]
        blocks = [r for r in records if r["kind"] == "block"]  # append order
        assert len(blocks) == 3 and len(reports) == 2
        for report in reports:
            durable = blocks[: report["completed_blocks"]]
            assert report["errors"] == sum(b["errors"] for b in durable)
            assert report["shots"] == sum(b["shots"] for b in durable)
        assert [r["completed_blocks"] for r in reports] == [2, 3]
        assert reports[-1]["shots"] == SHOTS and reports[-1]["errors"] > 0

    def test_resume_from_block_records_with_a_cached_tier(self):
        """Block records in the shape written while decoders kept a
        cross-batch LRU (``cached: 0``, nonzero ``lru_misses``) resume to
        the uninterrupted unit totals and lint clean."""
        with tempfile.TemporaryDirectory() as td:
            clean_path = Path(td) / "clean.jsonl"
            _run(clean_path)
            path = Path(td) / "old.jsonl"
            with pytest.raises(CampaignInterrupted):
                _run(path, fault=FaultPlan(abort_after=2))
            lines = []
            for line in path.read_text().splitlines():
                record = json.loads(line)
                if record["kind"] == "block":
                    record["stats"]["cached"] = 0
                    record["stats"]["lru_misses"] = record["stats"]["batched"]
                    assert record["stats"]["lru_misses"] > 0
                lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
            path.write_text("\n".join(lines) + "\n")
            resumed, executor = _run(path)
            assert executor.units[-1].resumed_blocks == 2
            assert resumed == _clean_run("packed")[0]
            assert parse_ledger(path).units == parse_ledger(clean_path).units
            report = lint_ledger(path)
            assert report.ok and not report.warnings


class TestFaultInjectionNeverAltersResults:
    """Injected crashes/hangs/exceptions are retried with backoff and
    the completed results stay bit-identical to the fault-free run."""

    def test_inline_crash_and_exception_faults(self):
        clean_result, clean_blocks = _clean_run("packed")
        fault = FaultPlan(seed=1, crash_rate=0.5, exc_rate=0.3)
        with tempfile.TemporaryDirectory() as td:
            path = Path(td) / "chaos.jsonl"
            result, executor = _run(path, fault=fault)
            assert result.logical_errors == clean_result.logical_errors
            assert parse_ledger(path).blocks == clean_blocks
            assert executor.failed_blocks == []

    def test_pool_crash_faults_are_retried(self):
        clean_result, clean_blocks = _clean_run("packed")
        fault = FaultPlan(seed=1, crash_rate=0.9)  # fires on attempt 0 of every block
        with tempfile.TemporaryDirectory() as td:
            path = Path(td) / "chaos.jsonl"
            result, executor = _run(
                path, workers=2, fault=fault,
                policy=RetryPolicy(block_timeout=60.0, max_attempts=6,
                                   retry_base_delay=0.001),
            )
            assert result.logical_errors == clean_result.logical_errors
            assert parse_ledger(path).blocks == clean_blocks
            assert executor.total_retries > 0
            events = [e["event"] for e in parse_ledger(path).events]
            assert "retry" in events

    def test_decode_fault_degrades_to_full_decode_same_errors(self):
        clean_result, _ = _clean_run("packed")
        with tempfile.TemporaryDirectory() as td:
            path = Path(td) / "x.jsonl"
            result, _ = _run(path, fault=FaultPlan(decode_rate=1.0))
            # Graceful degradation: the tier-free fallback decodes the
            # same syndromes to the same corrections.
            assert result.logical_errors == clean_result.logical_errors
            assert result.shots == clean_result.shots
            # The fallback's block records, exactly: every non-trivial
            # unique in ``full``, and no ``lru_*`` keys.
            records = parse_ledger(path).blocks["memory"]
            fallback = dict(weight1=0, weight2=0, batched=0, trivial=1, fallback=1)
            assert {index: r["stats"] for index, r in records.items()} == {
                0: {**fallback, "full": 207, "unique": 208, "shots": 1024},
                1: {**fallback, "full": 214, "unique": 215, "shots": 1024},
                2: {**fallback, "full": 22, "unique": 23, "shots": 52},
            }

    def test_quarantine_accounting(self):
        """An unrecoverable block is quarantined, reported, and excluded
        from the estimate — completed + quarantined == scheduled."""
        fault = FaultPlan(exc_rate=1.0, only_blocks=(1,), max_faults_per_block=99)
        with tempfile.TemporaryDirectory() as td:
            path = Path(td) / "q.jsonl"
            result, executor = _run(path, fault=fault)
            outcome = executor.units[-1]
            assert outcome.quarantined == [1]
            assert outcome.completed + len(outcome.quarantined) == outcome.scheduled
            assert result.shots == SHOTS - SHOT_BLOCK  # block 1 excluded
            assert executor.failed_blocks == [("memory", 1)]
            assert "failed_blocks=1" in executor.format_report()
            assert "memory#1" in executor.format_report()
            # The ledger reconciles (no LED005) and flags nothing fatal.
            report = lint_ledger(path)
            assert report.ok, report.format_text()
            events = parse_ledger(path).events
            assert any(e["event"] == "quarantine" for e in events)

    def test_torn_write_fault_interrupts_then_resumes(self):
        clean_result, clean_blocks = _clean_run("packed")
        fault = FaultPlan(torn_write_rate=1.0, only_blocks=(1,))
        with tempfile.TemporaryDirectory() as td:
            path = Path(td) / "torn.jsonl"
            with pytest.raises(CampaignInterrupted):
                _run(path, fault=fault)
            assert parse_ledger(path).torn_tail
            # Resume repairs the tail; the fault re-rolls at generation 1
            # and (rate keyed on generation) fires again only if scheduled.
            resumed, _ = _run(path, fault=FaultPlan())
            assert resumed.logical_errors == clean_result.logical_errors
            assert parse_ledger(path).blocks == clean_blocks
            events = [e["event"] for e in parse_ledger(path).events]
            assert "repair" in events


class TestLedgerCorruption:
    """Satellite: torn final line tolerated; interior corruption is a
    hard error naming the line."""

    def _ledger_with_blocks(self, td):
        path = Path(td) / "led.jsonl"
        _run(path)
        return path

    def test_torn_tail_is_tolerated_and_repaired(self):
        with tempfile.TemporaryDirectory() as td:
            path = self._ledger_with_blocks(td)
            with open(path, "ab") as fh:
                fh.write(b'{"kind":"block","unit":"memory","blo')  # no newline
            parsed = parse_ledger(path)
            assert parsed.torn_tail
            assert len(parsed.blocks["memory"]) == 3  # durable lines intact
            # Reopening truncates the tear and logs a repair event.
            ledger = RunLedger(path, SPEC)
            ledger.close()
            parsed = parse_ledger(path)
            assert not parsed.torn_tail
            assert parsed.repair_generation == 1
            assert any(e["event"] == "repair" for e in parsed.events)

    def test_interior_corruption_is_hard_error_naming_line(self):
        with tempfile.TemporaryDirectory() as td:
            path = self._ledger_with_blocks(td)
            lines = path.read_bytes().split(b"\n")
            lines[2] = b'{"kind":"block","unit":'  # newline-terminated garbage
            path.write_bytes(b"\n".join(lines))
            with pytest.raises(LedgerError, match="line 3"):
                parse_ledger(path)
            with pytest.raises(LedgerError, match="line 3"):
                RunLedger(path, SPEC)

    def test_duplicate_block_is_hard_error(self):
        with tempfile.TemporaryDirectory() as td:
            path = self._ledger_with_blocks(td)
            lines = path.read_bytes().split(b"\n")
            block_line = next(ln for ln in lines if b'"kind":"block"' in ln)
            path.write_bytes(path.read_bytes() + block_line + b"\n")
            with pytest.raises(LedgerError, match="duplicate block"):
                parse_ledger(path)

    def test_missing_header_is_hard_error(self):
        with tempfile.TemporaryDirectory() as td:
            path = Path(td) / "noheader.jsonl"
            path.write_text('{"kind":"event","event":"retry"}\n')
            with pytest.raises(LedgerError, match="header"):
                parse_ledger(path)

    def test_spec_mismatch_refuses_resume(self):
        with tempfile.TemporaryDirectory() as td:
            path = self._ledger_with_blocks(td)
            with pytest.raises(LedgerError, match="different campaign"):
                RunLedger(path, {**SPEC, "seed": SEED + 1})

    def test_run_key_is_order_insensitive_and_value_sensitive(self):
        assert run_key({"a": 1, "b": 2}) == run_key({"b": 2, "a": 1})
        assert run_key({"a": 1}) != run_key({"a": 2})


class TestLedgerLint:
    def test_clean_ledger_lints_green(self):
        with tempfile.TemporaryDirectory() as td:
            path = Path(td) / "led.jsonl"
            _run(path)
            report = lint_ledger(path)
            assert report.ok and not report.warnings
            assert report.checked["ledger_blocks"] == 3
            assert report.checked["ledger_units"] == 1

    def test_missing_file_is_led001(self):
        report = lint_ledger("/nonexistent/led.jsonl")
        assert [d.code for d in report.errors] == ["LED001"]

    def test_tier_imbalance_is_led004_and_totals_mismatch_is_led005(self):
        with tempfile.TemporaryDirectory() as td:
            path = Path(td) / "led.jsonl"
            _run(path)
            lines = path.read_text().splitlines()
            out = []
            for line in lines:
                record = json.loads(line)
                if record["kind"] == "block" and record["block"] == 0:
                    record["stats"]["trivial"] += 1  # break the tier sum
                    record["errors"] += 1  # break the unit reconciliation
                out.append(json.dumps(record, sort_keys=True,
                                      separators=(",", ":")))
            path.write_text("\n".join(out) + "\n")
            codes = sorted(d.code for d in lint_ledger(path).errors)
            assert codes == ["LED004", "LED005"]

    def test_interrupted_campaign_warns_led007(self):
        with tempfile.TemporaryDirectory() as td:
            path = Path(td) / "led.jsonl"
            with pytest.raises(CampaignInterrupted):
                _run(path, fault=FaultPlan(abort_after=1))
            report = lint_ledger(path)
            assert report.ok  # interruption is not corruption
            assert any(d.code == "LED007" for d in report.warnings)


class TestEarlyStopping:
    def test_wide_target_stops_after_first_wave(self):
        with tempfile.TemporaryDirectory() as td:
            result, executor = _run(Path(td) / "led.jsonl",
                                    target_ci_width=0.5)
            outcome = executor.units[-1]
            assert outcome.stopped_early
            assert result.shots == SHOT_BLOCK  # one 1-block wave sufficed

    def test_stop_decision_is_worker_invariant(self):
        results = []
        for workers in (1, 4):
            with tempfile.TemporaryDirectory() as td:
                result, executor = _run(
                    Path(td) / "led.jsonl", workers=workers,
                    target_ci_width=0.02, stop_interval_blocks=2,
                )
                results.append((result.shots, result.logical_errors,
                                executor.units[-1].stopped_early))
        assert results[0] == results[1]

    def test_resume_reuses_early_stop_decision_verbatim(self):
        with tempfile.TemporaryDirectory() as td:
            path = Path(td) / "led.jsonl"
            first, _ = _run(path, target_ci_width=0.5)
            # Resume WITHOUT the target: the recorded decision wins, no
            # blocks execute, totals are identical.
            again, executor = _run(path)
            assert (again.shots, again.logical_errors) == (
                first.shots, first.logical_errors)
            assert executor.units[-1].executed_blocks == 0
            assert executor.units[-1].stopped_early


class TestFaultPlan:
    def test_decisions_are_deterministic(self):
        a = FaultPlan(seed=7, crash_rate=0.3)
        b = FaultPlan(seed=7, crash_rate=0.3)
        rolls_a = [a._fires("crash", 0.3, "u", i, 0) for i in range(64)]
        rolls_b = [b._fires("crash", 0.3, "u", i, 0) for i in range(64)]
        assert rolls_a == rolls_b
        assert any(rolls_a) and not all(rolls_a)

    def test_max_faults_per_block_bounds_retries(self):
        plan = FaultPlan(seed=0, exc_rate=1.0, max_faults_per_block=2)
        assert plan._fires("exc", 1.0, "u", 0, 0)
        assert plan._fires("exc", 1.0, "u", 0, 1)
        assert not plan._fires("exc", 1.0, "u", 0, 2)

    def test_parse_fault_spec_roundtrip(self):
        plan = parse_fault_spec(
            "crash=0.15,hang=0.08,exc=0.1,decode=0.2,torn=0.05,"
            "seed=7,abort=3,hang-seconds=1.5,max-faults=4,only=0+2"
        )
        assert plan == FaultPlan(
            seed=7, crash_rate=0.15, hang_rate=0.08, exc_rate=0.1,
            decode_rate=0.2, torn_write_rate=0.05, abort_after=3,
            hang_seconds=1.5, max_faults_per_block=4, only_blocks=(0, 2),
        )

    @pytest.mark.parametrize("spec", [
        "crash=2", "crash=-0.1", "bogus=1", "crash", "seed=x",
    ])
    def test_parse_fault_spec_rejects(self, spec):
        with pytest.raises(ValueError):
            parse_fault_spec(spec)


class TestBlockErrorContext:
    """Satellite: worker-side exceptions carry the failing block index
    and seed, so the failure is reproducible from the message alone."""

    def test_sampling_failure_names_block_and_seed(self):
        setup = prepare_decoding(_MEMORY)

        class BrokenSampler:
            def sample(self, shots, seed):
                raise ValueError("boom")

        index, shots, seed = block_seeds(SHOTS, SEED)[2]
        with pytest.raises(BlockExecutionError) as excinfo:
            run_block(BrokenSampler(), setup.decoder, setup.basis_detectors,
                      setup.basis_observables, [(index, shots, seed)])
        err = excinfo.value
        assert err.block == 2
        assert "block 2" in str(err)
        assert f"entropy={SEED}" in str(err)
        assert "spawn_key=(2,)" in str(err)
        assert "boom" in str(err)

    def test_injected_chunk_error_names_block(self):
        fault = FaultPlan(exc_rate=1.0)
        with pytest.raises(InjectedChunkError, match=r"block=1 attempt=0"):
            fault.apply("memory", 1, 0, inline=True)


class TestCLIValidation:
    """Satellite: malformed CLI inputs fail fast with a clear message
    (one regression test per flag)."""

    def _error(self, capsys, argv):
        from repro.__main__ import main
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        return capsys.readouterr().err

    def test_rejects_nonpositive_shots(self, capsys):
        err = self._error(capsys, ["memory", "--shots", "0"])
        assert "expected a positive integer, got 0" in err

    def test_rejects_even_distance(self, capsys):
        err = self._error(capsys, ["memory", "--distance", "4"])
        assert "odd integer >= 3, got 4" in err

    def test_rejects_too_small_distance(self, capsys):
        err = self._error(capsys, ["compare", "--distance", "1"])
        assert "odd integer >= 3, got 1" in err

    def test_rejects_unknown_policy(self, capsys):
        err = self._error(capsys, ["compare", "--policy", "bogus"])
        assert "invalid choice: 'bogus'" in err

    def test_rejects_unknown_backend(self, capsys):
        err = self._error(capsys, ["memory", "--backend", "simd"])
        assert "invalid choice: 'simd'" in err

    def test_rejects_unknown_scheme(self, capsys):
        err = self._error(capsys, ["memory", "--scheme", "bogus"])
        assert "invalid choice: 'bogus'" in err

    def test_rejects_out_of_range_probability(self, capsys):
        err = self._error(capsys, ["memory", "--p", "2"])
        assert "probability in (0, 1)" in err

    def test_rejects_bad_chaos_spec(self, capsys):
        err = self._error(capsys,
                          ["memory", "--ledger", "x", "--chaos", "crash=2"])
        assert "bad fault spec value for 'crash'" in err

    def test_durable_flags_require_ledger(self, capsys):
        from repro.__main__ import main
        for flag in (["--resume"], ["--target-ci-width", "0.1"],
                     ["--chaos", "crash=0.1"]):
            assert main(["memory", "--shots", "60", *flag]) == 2
            assert "requires --ledger" in capsys.readouterr().err

    def test_scheme_choices_pin_threshold_schemes(self):
        # __main__ hardcodes the choices to avoid importing the threshold
        # stack at parser-build time; this pins the two lists together.
        from repro.__main__ import _SCHEME_CHOICES
        from repro.threshold import SCHEMES
        assert _SCHEME_CHOICES == SCHEMES


class TestCLIDurable:
    def test_memory_ledger_run_resume_and_lint(self, capsys, tmp_path):
        from repro.__main__ import main
        ledger = str(tmp_path / "led.jsonl")
        assert main(["memory", "--scheme", "baseline", "--shots", "200",
                     "--ledger", ledger]) == 0
        out = capsys.readouterr().out
        assert "durable run" in out and "failed_blocks=0" in out
        # Same command without --resume must refuse the existing ledger.
        assert main(["memory", "--scheme", "baseline", "--shots", "200",
                     "--ledger", ledger]) == 2
        assert "--resume" in capsys.readouterr().err
        # Resume is a full cache hit.
        assert main(["memory", "--scheme", "baseline", "--shots", "200",
                     "--ledger", ledger, "--resume"]) == 0
        out = capsys.readouterr().out
        assert "blocks executed=0" in out and "resumed=1" in out
        assert main(["lint", "--ledger-only", "--ledger", ledger]) == 0
        out = capsys.readouterr().out
        assert "ledger_blocks=1" in out and "0 error(s)" in out

    def test_chaos_abort_exits_130_and_resume_completes(self, capsys, tmp_path):
        from repro.__main__ import main
        ledger = str(tmp_path / "led.jsonl")
        argv = ["memory", "--scheme", "baseline", "--shots", "2100",
                "--ledger", ledger]
        assert main([*argv, "--chaos", "abort=1"]) == 130
        assert "rerun with --resume" in capsys.readouterr().err
        assert main([*argv, "--resume"]) == 0
        assert "failed_blocks=0" in capsys.readouterr().out

    def test_lint_ledger_only_requires_ledger(self, capsys):
        from repro.__main__ import main
        assert main(["lint", "--ledger-only"]) == 2
        assert "--ledger" in capsys.readouterr().err


class TestInvalidUnitRejected:
    """A unit no block of which can run is rejected up front, as the
    plain engine rejects it, instead of retried and quarantined."""

    @pytest.mark.parametrize("workers, obs_ids", [(1, list(range(64))), (0, [0])])
    def test_rejected_before_any_ledger_record(self, tmp_path, workers, obs_ids):
        setup = prepare_decoding(_MEMORY)
        path = tmp_path / "invalid.jsonl"
        with RunLedger(path, SPEC) as ledger:
            executor = DurableExecutor(ledger, workers=workers, policy=FAST)
            with pytest.raises(ValueError):
                executor.count(
                    unit="memory", circuit=_MEMORY.circuit,
                    decoder=setup.decoder, basis_ids=setup.basis_detectors,
                    obs_ids=obs_ids, shots=2048, seed=SEED,
                )
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["kind"] for r in records] == ["header"]


class TestDurableVsPlainEngine:
    """Durable and plain engine agree on counts; block stats hold only
    the live tiers."""

    def test_error_counts_match_plain_engine(self):
        plain = run_memory_experiment(_MEMORY, shots=SHOTS, seed=SEED)
        durable, _ = _clean_run("packed")
        assert durable.logical_errors == plain.logical_errors
        assert durable.shots == plain.shots

    def test_durable_stats_have_no_cached_tier(self):
        _, blocks = _clean_run("packed")
        records = blocks["memory"].values()
        assert len(records) == 3
        for record in records:
            stats = record["stats"]
            assert "cached" not in stats
            assert sum(stats[t] for t in TIER_NAMES) == stats["unique"]


class _FakeProc:
    def __init__(self):
        self.alive = True
        self.exitcode = None

    def is_alive(self):
        return self.alive


class _FakeQueue:
    def __init__(self):
        self.items = []

    def put(self, item):
        self.items.append(item)


class _FakeFleet:
    """Deterministic stand-in for WorkerFleet: no processes, no races."""

    def __init__(self, size=1):
        self.slots = [
            {"proc": _FakeProc(), "q": _FakeQueue(), "busy": None}
            for _ in range(size)
        ]
        self.epoch = 0
        self.respawned = []

    def configure(self, worker_args, fault=None):
        self.epoch += 1
        for slot in self.slots:
            slot["busy"] = None
        return self.epoch

    def respawn(self, wid):
        self.respawned.append(wid)
        self.slots[wid] = {"proc": _FakeProc(), "q": _FakeQueue(), "busy": None}


class _ListScanSupervisor(supervise._PoolSupervisor):
    """The pending-queue rule the heap replaced, kept as a test oracle:
    scan every pending task for the ready ones and take the least."""

    def assign(self, now):
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


def _make_supervisor(fleet, blocks, policy, *, cls=None,
                     delay=lambda index, attempt: 0.0):
    """A _PoolSupervisor wired to recording callbacks (no processes).

    ``delay(index, attempt)`` is the backoff before a failed attempt's
    retry becomes ready.
    """
    from repro.durable.supervise import (
        BlockOutcome,
        SupervisedResult,
        _PoolSupervisor,
    )

    result = SupervisedResult()

    def block_done(outcome):
        result.completed.append(outcome)

    def fail(index, shots, attempt, reason):
        next_attempt = attempt + 1
        if next_attempt >= policy.max_attempts:
            result.quarantined.append(
                BlockOutcome(index=index, shots=shots, attempts=next_attempt,
                             quarantined=True, failure=reason)
            )
            return None
        result.retries += 1
        return (index, next_attempt, delay(index, attempt))

    fleet.configure(("sampler", "decoder", "basis", "obs"))
    supervisor = (cls or _PoolSupervisor)(
        fleet, blocks, unit="memory", policy=policy, block_done=block_done,
        fail=fail, should_abort=None, result=result, stopped=lambda: False,
    )
    return supervisor, result


class TestCrossRespawnDedup:
    """ISSUE satellite: a late result from a timed-out attempt must not
    disturb the respawned worker running the retry of the same block —
    dedup is exact on (block, attempt), on both the handled set AND the
    busy-slot bookkeeping."""

    def test_late_result_does_not_clear_respawned_workers_busy_entry(self):
        fleet = _FakeFleet(size=1)
        policy = RetryPolicy(block_timeout=10.0, max_attempts=3,
                             retry_base_delay=0.0)
        supervisor, result = _make_supervisor(fleet, [(5, 1024, None)], policy)

        # Retries are re-queued at time.monotonic() + delay, so drive
        # the supervisor with monotonic-anchored clocks.
        base = time.monotonic()
        supervisor.assign(now=base)  # attempt 0 -> worker 0
        assert fleet.slots[0]["busy"][:2] == (5, 0)

        # Deadline fires: attempt 0 is failed, worker 0 respawned, the
        # retry (attempt 1) is scheduled and assigned to the new worker.
        supervisor.sweep(now=base + 100.0)
        assert fleet.respawned == [0]
        assert result.retries == 1
        supervisor.assign(now=time.monotonic() + 1.0)
        assert fleet.slots[0]["busy"][:2] == (5, 1)

        # The original attempt's result finally arrives (the worker was
        # slow, not dead).  It must be ignored entirely: not counted,
        # and — the cross-respawn edge — it must NOT clear the busy
        # entry of the respawned worker running attempt 1.
        supervisor.handle_message(
            ("ok", supervisor.epoch, 0, 5, 0, 7, {"shots": 1024}, None)
        )
        assert result.completed == []
        assert fleet.slots[0]["busy"] is not None
        assert fleet.slots[0]["busy"][:2] == (5, 1)

        # The retry's own result is counted exactly once.
        supervisor.handle_message(
            ("ok", supervisor.epoch, 0, 5, 1, 3, {"shots": 1024}, None)
        )
        assert [o.errors for o in result.completed] == [3]
        assert result.completed[0].attempts == 2
        assert fleet.slots[0]["busy"] is None
        assert result.quarantined == []

    def test_late_result_after_quarantine_adds_no_completion(self):
        fleet = _FakeFleet(size=1)
        policy = RetryPolicy(block_timeout=10.0, max_attempts=1,
                             retry_base_delay=0.0)
        supervisor, result = _make_supervisor(fleet, [(2, 1024, None)], policy)
        supervisor.assign(now=0.0)
        supervisor.sweep(now=100.0)  # only attempt times out -> quarantine
        assert [o.index for o in result.quarantined] == [2]

        supervisor.handle_message(
            ("ok", supervisor.epoch, 0, 2, 0, 9, {"shots": 1024}, None)
        )
        assert result.completed == []  # quarantine stands; no double count
        assert [o.index for o in result.quarantined] == [2]

    def test_cross_epoch_result_is_dropped_before_any_bookkeeping(self):
        fleet = _FakeFleet(size=1)
        policy = RetryPolicy(block_timeout=10.0, max_attempts=3,
                             retry_base_delay=0.0)
        supervisor, result = _make_supervisor(fleet, [(0, 1024, None)], policy)
        supervisor.assign(now=0.0)

        # A straggler from a previous unit of a shared fleet: same wid,
        # same block index, wrong epoch.  Dropped wholesale — it neither
        # counts nor consumes (0, 0) in the handled set.
        supervisor.handle_message(
            ("ok", supervisor.epoch - 1, 0, 0, 0, 9, {"shots": 1024}, None)
        )
        assert result.completed == []
        assert (0, 0) not in supervisor.handled

        supervisor.handle_message(
            ("ok", supervisor.epoch, 0, 0, 0, 2, {"shots": 1024}, None)
        )
        assert [o.errors for o in result.completed] == [2]


class TestPendingHeapOrder:
    """The supervisor's pending heap hands tasks to workers in exactly
    the order of the list scan it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_assignment_order_matches_list_scan_oracle(self, data):
        n_blocks = data.draw(st.integers(1, 10), label="blocks")
        size = data.draw(st.integers(1, 3), label="workers")
        delays = data.draw(
            st.lists(st.sampled_from([0.0, 0.01, 0.02, 0.05]), min_size=1,
                     max_size=6),
            label="retry delays",
        )
        policy = RetryPolicy(block_timeout=10.0, max_attempts=3,
                             retry_base_delay=0.0)
        blocks = [(index, 1024, None) for index in range(n_blocks)]
        clock = [0.0]  # retries are re-queued at supervise.time.monotonic()

        def delay(index, attempt):
            return delays[(3 * index + attempt) % len(delays)]

        fake_time = SimpleNamespace(monotonic=lambda: clock[0])
        with mock.patch.object(supervise, "time", fake_time):
            runs = [
                _make_supervisor(_FakeFleet(size), blocks, policy, cls=cls,
                                 delay=delay)
                for cls in (supervise._PoolSupervisor, _ListScanSupervisor)
            ]
            for _ in range(6 * n_blocks + 6):
                clock[0] += data.draw(
                    st.sampled_from([0.0, 0.005, 0.01, 0.03]), label="poll")
                for supervisor, _ in runs:
                    supervisor.assign(clock[0])
                heap_busy, scan_busy = (
                    [slot["busy"] for slot in supervisor.fleet.slots]
                    for supervisor, _ in runs
                )
                assert heap_busy == scan_busy
                for wid, busy in enumerate(heap_busy):
                    if busy is None:
                        continue
                    action = data.draw(
                        st.sampled_from(["run", "ok", "err", "die"]),
                        label=f"worker {wid}")
                    index, attempt, _ = busy
                    for supervisor, _ in runs:
                        if action == "ok":
                            supervisor.handle_message(
                                ("ok", supervisor.epoch, wid, index, attempt,
                                 0, {}, None))
                        elif action == "err":
                            supervisor.handle_message(
                                ("err", supervisor.epoch, wid, index, attempt,
                                 "boom"))
                        elif action == "die":
                            supervisor.fleet.slots[wid]["proc"].alive = False
                            supervisor.sweep(clock[0])
        (heap, heap_result), (scan, scan_result) = runs
        assert sorted(heap.pending) == sorted(scan.pending)
        for field in ("completed", "quarantined", "retries"):
            assert getattr(heap_result, field) == getattr(scan_result, field)


class TestWorkerFleetReuse:
    """Tentpole hook: one persistent fleet serves many units (epochs)
    with results bit-identical to ephemeral per-call pools."""

    def test_fleet_reuse_across_units_is_bit_identical(self):
        from repro.durable import WorkerFleet

        clean_result, clean_blocks = _clean_run("packed")
        with WorkerFleet(2) as fleet:
            with tempfile.TemporaryDirectory() as td:
                first, _ = _run_with_fleet(Path(td) / "a.jsonl", fleet)
                second, _ = _run_with_fleet(Path(td) / "b.jsonl", fleet)
                assert first.logical_errors == clean_result.logical_errors
                assert second.logical_errors == clean_result.logical_errors
                assert parse_ledger(Path(td) / "a.jsonl").blocks == clean_blocks
                assert parse_ledger(Path(td) / "b.jsonl").blocks == clean_blocks
            # One epoch per unit (a unit without a CI target is one
            # supervised call), and the workers persisted across both.
            assert fleet.epoch == 2
            assert fleet.respawns == 0
            assert fleet.alive_workers() == 2

    def test_fleet_survives_crash_faults_across_units(self):
        from repro.durable import WorkerFleet

        clean_result, clean_blocks = _clean_run("packed")
        fault = FaultPlan(seed=1, crash_rate=0.9)
        with WorkerFleet(2) as fleet:
            with tempfile.TemporaryDirectory() as td:
                path = Path(td) / "chaos.jsonl"
                result, executor = _run_with_fleet(
                    path, fleet, fault=fault,
                    policy=RetryPolicy(block_timeout=60.0, max_attempts=6,
                                       retry_base_delay=0.001),
                )
                assert result.logical_errors == clean_result.logical_errors
                assert parse_ledger(path).blocks == clean_blocks
                assert executor.total_retries > 0
            assert fleet.respawns > 0  # crashes really killed workers
            assert fleet.alive_workers() == 2  # ...and the fleet healed

    def test_ci_target_runs_one_epoch_per_wave(self, registry):
        from repro.durable import WorkerFleet

        with WorkerFleet(2) as fleet, tempfile.TemporaryDirectory() as td:
            # At seed 11 the interval first narrows to 0.012 after the
            # fourth of eight blocks: four one-block waves run.
            result, executor = _run_with_fleet(
                Path(td) / "led.jsonl", fleet, target_ci_width=0.012,
                shots=8 * SHOT_BLOCK,
            )
            outcome = executor.units[-1]
            assert outcome.stopped_early
            waves = outcome.scheduled  # one block per wave
            assert waves == 4 and result.shots == 4 * SHOT_BLOCK
            assert fleet.epoch == waves
        totals = obs.summarize_snapshot(registry.snapshot())
        assert totals["repro_durable_waves_total"] == waves


class _UnpicklableSampler:
    """A sampler that refuses to be pickled, so only a worker that
    inherited it at fork can run it."""

    def __init__(self, inner):
        self.inner = inner

    def sample(self, shots, seed):
        return self.inner.sample(shots, seed)

    def __reduce__(self):
        raise TypeError("a fleet hands its sampler over at fork, not by pickle")


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers inherit their arms only under the fork start method",
)
class TestArmedAtFork:
    """A call's own fleet forks its workers armed with the call's
    ``worker_args``, respawned workers included: nothing is pickled."""

    @pytest.mark.parametrize(
        "fault", [None, FaultPlan(seed=1, crash_rate=0.9)], ids=["clean", "crash"]
    )
    def test_unpicklable_sampler_completes_every_block(self, registry, fault):
        sampler = make_sampler(_MEMORY.circuit, "packed")
        setup = prepare_decoding(_MEMORY, sampler=sampler)
        worker_args = (
            _UnpicklableSampler(sampler), setup.decoder,
            setup.basis_detectors, setup.basis_observables,
        )
        blocks = block_seeds(SHOTS, SEED)
        # A d=3 block takes milliseconds, so a worker left unarmed (its
        # tasks dropped) times out and quarantines in well under a minute.
        policy = RetryPolicy(block_timeout=10.0, max_attempts=4,
                             retry_base_delay=0.001)

        def outcomes(workers):
            result = supervise.run_supervised(
                blocks, worker_args, unit="memory", workers=workers,
                policy=policy, fault=fault,
            )
            assert result.quarantined == []
            return sorted((o.index, o.errors, o.stats) for o in result.completed)

        inline = outcomes(1)
        assert len(inline) == len(blocks)
        assert outcomes(2) == inline
        # A crash kills its worker, and the replacement is forked armed.
        totals = obs.summarize_snapshot(registry.snapshot())
        respawned = totals.get("repro_durable_respawns_total", 0) > 0
        assert respawned == (fault is not None)


def _pid_alive(pid):
    """True while ``pid`` runs; a zombie nobody reaps counts as gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:  # no procfs: fall back to a signal-0 probe
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


class TestFleetOrphans:
    """Fleet workers exit when the process that spawned them dies."""

    def test_workers_exit_after_parent_sigkill(self):
        script = (
            "import time\n"
            "from repro.durable import WorkerFleet\n"
            "fleet = WorkerFleet(2)\n"
            "print(*fleet.worker_pids(), flush=True)\n"
            "time.sleep(300)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.Popen(
            [sys.executable, "-c", script], env=env, stdout=subprocess.PIPE,
            text=True,
        )
        try:
            pids = [int(pid) for pid in proc.stdout.readline().split()]
            assert len(pids) == 2 and all(_pid_alive(pid) for pid in pids)
        finally:
            proc.kill()  # SIGKILL: the fleet never sends its sentinels
            proc.wait(timeout=10.0)
            proc.stdout.close()
        deadline = time.monotonic() + 10.0
        while any(_pid_alive(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not [pid for pid in pids if _pid_alive(pid)]

    def test_worker_blocked_mid_message_exits_without_its_parent(self):
        """A parent killed mid-``configure`` leaves a partial task message.

        Reading it blocks forever: every forked worker holds a write end
        of the task queue, so no EOF arrives.  The worker must still exit
        once its parent is gone (here: a pid that is not its parent).
        """
        import multiprocessing
        import struct

        from repro.durable.supervise import _worker_main

        ctx = multiprocessing.get_context()  # as the fleet does
        task_q, result_q = ctx.Queue(), ctx.SimpleQueue()
        # The length header of a 1 MiB + 100 byte message, and its first bytes.
        header = struct.pack("!i", 2**20 + 100)
        os.write(task_q._writer.fileno(), header + bytes(100))
        worker = ctx.Process(
            target=_worker_main, args=(0, task_q, result_q, -1), daemon=True
        )
        worker.start()
        try:
            worker.join(timeout=6.0)
            assert not worker.is_alive()
        finally:
            if worker.is_alive():
                worker.kill()
                worker.join()
            task_q.close()
            result_q.close()


def _run_with_fleet(path, fleet, *, fault=None, policy=FAST,
                    target_ci_width=None, shots=SHOTS):
    """A durable memory campaign on a borrowed persistent fleet."""
    ledger = RunLedger(path, SPEC, fault=fault)
    executor = DurableExecutor(
        ledger, workers=2, policy=policy, fault=fault, fleet=fleet,
        target_ci_width=target_ci_width, stop_interval_blocks=1,
    )
    try:
        result = run_memory_experiment(
            _MEMORY, shots=shots, seed=SEED, backend="packed",
            executor=executor,
        )
    finally:
        ledger.close()
    return result, executor
