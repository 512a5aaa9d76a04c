"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro import obs
from repro.__main__ import main


def _tiers_balance(obs_dir) -> bool:
    """Decode tiers of an ``--obs-dir`` snapshot sum to its unique syndromes."""
    snapshot = json.loads((obs_dir / "metrics.json").read_text())
    tiers = snapshot["repro_decode_tier_shots_total"]["values"]
    return sum(tiers.values()) == obs.summarize_snapshot(snapshot)[
        "repro_decode_unique_total"]


class TestCLI:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "1499" in out and "279" in out

    def test_magic(self, capsys):
        assert main(["magic"]) == 0
        out = capsys.readouterr().out
        assert "1.22x" in out and "1.82x" in out

    def test_inventory(self, capsys):
        assert main(["inventory", "--grid", "1", "--distance", "3", "--modes", "10"]) == 0
        out = capsys.readouterr().out
        assert "transmons        : 11" in out
        assert "cavities         : 9" in out

    def test_threshold_quick(self, capsys):
        assert main(["threshold", "--scheme", "baseline", "--shots", "60"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "threshold estimate" in out

    def test_threshold_engine_flags(self, capsys):
        assert main([
            "threshold", "--scheme", "baseline", "--shots", "60",
            "--workers", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "threshold estimate" in out

    def test_threshold_reference_backend(self, capsys):
        assert main([
            "threshold", "--scheme", "baseline", "--shots", "60",
            "--backend", "reference",
        ]) == 0
        out = capsys.readouterr().out
        assert "threshold estimate" in out

    def test_threshold_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            main(["threshold", "--backend", "simd"])

    def test_memory_prints_interval_and_tiers(self, capsys, tmp_path):
        assert main([
            "memory", "--scheme", "compact_interleaved", "--distance", "3",
            "--shots", "200", "--obs-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "p_L" in out and "[" in out  # Wilson interval brackets
        # Tier totals live in the registry snapshot, which `metrics` renders.
        assert "decode tiers:" not in out
        assert _tiers_balance(tmp_path)
        assert main(["metrics", str(tmp_path / "metrics.json")]) == 0
        rendered = capsys.readouterr().out
        assert "repro_decode_tier_shots_total" in rendered
        assert "{tier=trivial}" in rendered

    def test_memory_reference_backend(self, capsys):
        assert main([
            "memory", "--scheme", "baseline", "--shots", "100",
            "--backend", "reference",
        ]) == 0
        assert "p_L" in capsys.readouterr().out

    def test_compare_prints_program_estimates_and_caches(self, capsys, tmp_path):
        assert main([
            "compare", "--distance", "3", "--shots", "128", "--qubits", "2",
            "--obs-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "compact" in out and "natural" in out
        assert "p_program" in out and "wilson 95%" in out
        assert "lowering cache:" in out and "decoder-graph cache:" in out
        assert _tiers_balance(tmp_path)

    def test_compare_single_embedding_and_policy(self, capsys):
        assert main([
            "compare", "--shots", "64", "--qubits", "2",
            "--embedding", "natural", "--refresh", "dram",
        ]) == 0
        out = capsys.readouterr().out
        assert "natural" in out and "compact" not in out

    def test_compare_correlated_reports_joint_estimates(self, capsys, tmp_path):
        assert main([
            "compare", "--correlated", "--distance", "3", "--shots", "128",
            "--qubits", "2", "--embedding", "natural", "--refresh", "dram",
            "--obs-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "policy=surgery_only" in out  # --correlated defaults the policy
        assert "Independent vs joint" in out
        assert "joint q0,q1" in out
        assert "joint-lowering cache:" in out
        assert "proven deterministic by symbolic GF(2) propagation" in out
        assert _tiers_balance(tmp_path)

    def test_compare_correlated_decode_totals_are_pinned(self, capsys, tmp_path):
        """Every decode total of one in-process correlated compare.

        Decoders keep no state between batches, so a syndrome repeated
        across units of one shape is decoded again in each: the cells
        pin the dedup and the tier routing end to end.
        """
        assert main([
            "compare", "--correlated", "--distance", "3", "--shots", "2000",
            "--obs-dir", str(tmp_path),
        ]) == 0
        capsys.readouterr()
        snapshot = json.loads((tmp_path / "metrics.json").read_text())
        totals = obs.summarize_snapshot(snapshot)
        assert snapshot["repro_decode_tier_shots_total"]["values"] == {
            "trivial": 24, "batched": 27108,
        }
        assert totals["repro_decode_unique_total"] == 27132
        assert totals["repro_decode_shots_total"] == 48000

    def test_compare_correlated_flags_uncovered_windows(self, capsys):
        # A 3-qubit GHZ chain is one surgery component: no pair decodes
        # jointly, so the "joint" cell must not pass as a joint estimate.
        assert main([
            "compare", "--program", "ghz", "--qubits", "3", "--correlated",
            "--grid", "2", "--distance", "3", "--shots", "64",
            "--embedding", "natural", "--refresh", "dram",
        ]) == 0
        captured = capsys.readouterr()
        row = next(line for line in captured.out.splitlines()
                   if line.startswith("natural") and "0+3" in line)
        joint = row.split("|")[4].strip()
        assert joint.endswith("*") and float(joint[:-1]) > 0
        assert "* not a joint estimate" in captured.out
        warnings = [line for line in captured.err.splitlines()
                    if line.startswith("warning:")]
        assert warnings == [
            "warning: uncovered surgery windows in natural/dram d=3 (2 windows): "
            "the joint rates of these rows are not joint estimates"
        ]

    def test_compare_correlated_covered_rows_unmarked(self, capsys):
        assert main([
            "compare", "--correlated", "--distance", "3", "--shots", "64",
            "--qubits", "2", "--embedding", "natural", "--refresh", "dram",
        ]) == 0
        captured = capsys.readouterr()
        assert "*" not in captured.out
        assert "warning" not in captured.err

    def test_compare_correlated_respects_explicit_policy(self, capsys):
        assert main([
            "compare", "--correlated", "--policy", "auto", "--shots", "64",
            "--qubits", "2", "--embedding", "natural", "--refresh", "dram",
        ]) == 0
        out = capsys.readouterr().out
        # co-located pair compiles transversally: no joint pieces exist
        assert "policy=auto" in out
        assert "joint q0,q1" not in out

    def test_compare_t_teleport_program(self, capsys):
        assert main([
            "compare", "--program", "t", "--qubits", "2", "--shots", "64",
            "--embedding", "natural", "--refresh", "dram",
        ]) == 0
        out = capsys.readouterr().out
        assert "t(2)" in out

    def test_threshold_program_mode(self, capsys):
        assert main([
            "threshold", "--program", "pairs", "--qubits", "2",
            "--shots", "40", "--embedding", "natural",
        ]) == 0
        out = capsys.readouterr().out
        assert "program: pairs(2) natural/dram" in out
        assert "program threshold estimate" in out

    def test_threshold_program_correlated_flags_uncovered_windows(self, capsys):
        # The GHZ chain's surgery is one 3-qubit component at every point,
        # so no "correlated" rate of the sweep is a joint estimate.
        assert main([
            "threshold", "--program", "ghz", "--qubits", "3",
            "--embedding", "natural", "--refresh", "dram", "--correlated",
            "--shots", "64",
        ]) == 0
        captured = capsys.readouterr()
        row = next(line for line in captured.out.splitlines()
                   if line.startswith("2.000e-03"))
        assert [cell.strip()[-1] for cell in row.split("|")[1:]] == ["*", "*"]
        assert "* not a joint estimate" in captured.out
        warnings = [line for line in captured.err.splitlines()
                    if line.startswith("warning:")]
        assert len(warnings) == 1
        assert "d=3 p=0.002 (2 windows); d=3 p=0.004 (2 windows)" in warnings[0]
        assert warnings[0].endswith(
            "the joint rates of these points are not joint estimates"
        )

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_invalid_program_size_fails_before_the_ledger(self, tmp_path):
        ledger = tmp_path / "compare.jsonl"
        with pytest.raises(ValueError, match="even number of qubits"):
            main(["compare", "--qubits", "3", "--ledger", str(ledger)])
        assert not ledger.exists()

    @pytest.mark.parametrize("command", [
        ["memory", "--distance", "3", "--shots", "2048"],
        ["compare", "--qubits", "2", "--embedding", "natural",
         "--refresh", "dram", "--shots", "1024"],
        ["threshold", "--scheme", "baseline", "--shots", "60"],
    ], ids=["memory", "compare", "threshold"])
    def test_unit_with_no_completed_shots_reports_and_exits_1(
        self, capsys, tmp_path, command
    ):
        """Every block quarantined: the durability report still prints."""
        assert main([
            *command, "--ledger", str(tmp_path / "q.jsonl"),
            "--chaos", "crash=1.0,seed=1", "--max-attempts", "2",
            "--retry-base-delay", "0.01", "--workers", "1",
        ]) == 1
        captured = capsys.readouterr()
        assert "failed_blocks=" in captured.out
        assert "Traceback" not in captured.err
        if command[0] == "memory":
            assert "no completed shots" in captured.out


class TestLintCommand:
    def test_lint_green_on_preset_matrix(self, capsys):
        assert main([
            "lint", "--programs", "pairs", "--embedding", "compact",
        ]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out and "schedules=" in out

    def test_lint_json_output_and_report_file(self, capsys, tmp_path):
        report_path = tmp_path / "lint.json"
        assert main([
            "lint", "--programs", "pairs", "--embedding", "compact",
            "--json", "--out", str(report_path),
        ]) == 0
        import json

        printed = json.loads(capsys.readouterr().out)
        assert printed["ok"] and printed["errors"] == 0
        on_disk = json.loads(report_path.read_text())
        assert on_disk == printed
        assert on_disk["checked"]["schedules"] > 0

    def test_lint_oracle_cross_check(self, capsys):
        assert main([
            "lint", "--programs", "pairs", "--embedding", "compact",
            "--oracle-cert",
        ]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_lint_exit_code_on_findings(self, capsys, monkeypatch):
        # Make the driver report an error and assert the CLI gates on it.
        from repro.analyze import Diagnostic, LintReport
        import repro.analyze

        def broken_matrix(**_kwargs):
            report = LintReport()
            report.extend([
                Diagnostic("SCH003", "error", "fake", "injected failure")
            ])
            return report

        monkeypatch.setattr(repro.analyze, "lint_matrix", broken_matrix)
        assert main(["lint", "--programs", "pairs"]) == 1
        out = capsys.readouterr().out
        assert "SCH003" in out and "1 error(s)" in out
