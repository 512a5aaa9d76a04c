"""Tests for threshold estimation and sensitivity machinery."""


import pytest

from repro.noise import BASELINE_HARDWARE, ErrorModel
from repro.sim import LogicalErrorResult
from repro.threshold import (
    SCHEMES,
    ThresholdStudy,
    build_memory_circuit,
    estimate_threshold,
    run_sensitivity_panel,
)
from repro.threshold.estimator import _crossing


def synthetic_study(rates_by_distance, ps, distances=(3, 5)):
    study = ThresholdStudy(
        scheme="synthetic",
        basis="Z",
        physical_error_rates=list(ps),
        distances=list(distances),
    )
    for d, rates in rates_by_distance.items():
        study.results[d] = [
            LogicalErrorResult(
                scheme="synthetic",
                basis="Z",
                distance=d,
                rounds=d,
                shots=10_000,
                logical_errors=int(round(rate * 10_000)),
                undetectable_probability=0.0,
                decoder="unionfind",
            )
            for rate in rates
        ]
    return study


class TestCrossing:
    def test_exact_crossing(self):
        ps = [1e-3, 1e-2]
        # d=3 line above d=5 at low p, below at high p -> crossing inside.
        crossing = _crossing(ps, [1e-4, 1e-1], [1e-5, 3e-1], min_rate=1e-9)
        assert crossing is not None
        assert ps[0] < crossing < ps[1]

    def test_no_crossing(self):
        ps = [1e-3, 1e-2]
        assert _crossing(ps, [1e-2, 1e-1], [1e-3, 1e-2], min_rate=1e-9) is None

    def test_crossing_at_grid_point(self):
        ps = [1e-3, 1e-2]
        crossing = _crossing(ps, [1e-3, 1e-1], [1e-3, 2e-1], min_rate=1e-9)
        assert crossing == pytest.approx(1e-3)

    def test_no_spurious_crossing_when_both_curves_clamped(self):
        # Zero observed errors on both curves at low p clamps both rates
        # to min_rate, making the gap vacuously zero — previously reported
        # as a crossing at ps[0] even though the curves never cross.
        ps = [1e-3, 4e-3, 8e-3]
        crossing = _crossing(
            ps, [0.0, 1e-2, 2e-2], [0.0, 1e-3, 2e-3], min_rate=1e-4
        )
        assert crossing is None

    def test_real_crossing_survives_clamped_low_p_point(self):
        ps = [1e-3, 4e-3, 8e-3]
        # Both curves clamped at ps[0]; genuine crossing in (ps[1], ps[2]).
        crossing = _crossing(
            ps, [0.0, 1e-3, 1e-1], [0.0, 1e-4, 3e-1], min_rate=1e-5
        )
        assert crossing is not None
        assert ps[1] < crossing < ps[2]

    def test_clamped_grid_point_cannot_anchor_interpolation(self):
        # The sign-change branch must also ignore intervals whose endpoint
        # is doubly-clamped (g1 == 0 vacuously would snap to ps[1]).
        ps = [1e-3, 4e-3]
        crossing = _crossing(ps, [1e-2, 0.0], [1e-3, 0.0], min_rate=1e-4)
        assert crossing is None


class TestThresholdStudy:
    def test_threshold_estimate_from_synthetic_data(self):
        ps = [4e-3, 6e-3, 9e-3, 1.3e-2]
        study = synthetic_study(
            {3: [2e-2, 5e-2, 1.1e-1, 2.0e-1], 5: [8e-3, 3.5e-2, 1.6e-1, 3.5e-1]},
            ps,
        )
        threshold = study.threshold_estimate()
        assert threshold is not None
        assert 6e-3 < threshold < 9e-3

    def test_no_crossing_returns_none(self):
        ps = [1e-3, 2e-3]
        study = synthetic_study({3: [1e-2, 2e-2], 5: [1e-3, 2e-3]}, ps)
        assert study.threshold_estimate() is None

    def test_rows_shape(self):
        ps = [1e-3, 2e-3]
        study = synthetic_study({3: [0.1, 0.2], 5: [0.05, 0.3]}, ps)
        rows = study.rows()
        assert len(rows) == 2
        assert rows[0] == (1e-3, 0.1, 0.05)

    def test_rows_follow_caller_distance_order(self):
        # Columns must match self.distances (what a caller builds headers
        # from), not sorted(results) — these diverged for unsorted input.
        ps = [1e-3, 2e-3]
        study = synthetic_study(
            {3: [0.1, 0.2], 5: [0.05, 0.3]}, ps, distances=[5, 3]
        )
        assert study.rows()[0] == (1e-3, 0.05, 0.1)

    def test_threshold_estimate_invariant_to_distance_order(self):
        ps = [4e-3, 6e-3, 9e-3, 1.3e-2]
        rates = {
            3: [2e-2, 5e-2, 1.1e-1, 2.0e-1],
            5: [8e-3, 3.5e-2, 1.6e-1, 3.5e-1],
            7: [3e-3, 2.5e-2, 2.1e-1, 4.5e-1],
        }
        reference = synthetic_study(rates, ps, distances=[3, 5, 7]).threshold_estimate()
        assert reference is not None
        # Three distances catch wrong pairing (e.g. (5,3),(3,7)) that a
        # two-distance reversal cannot: pairs must always be the
        # numerically consecutive (3,5),(5,7).
        for order in ([5, 3, 7], [7, 5, 3], [7, 3, 5]):
            shuffled = synthetic_study(rates, ps, distances=order)
            assert shuffled.threshold_estimate() == pytest.approx(reference)

    def test_mismatched_results_keys_rejected(self):
        ps = [1e-3, 2e-3]
        study = synthetic_study({3: [0.1, 0.2]}, ps, distances=[3, 5])
        with pytest.raises(ValueError):
            study.rows()
        with pytest.raises(ValueError):
            study.threshold_estimate()


class TestBuildDispatch:
    def test_all_schemes_build(self):
        for scheme in SCHEMES:
            from repro.threshold.estimator import default_hardware_for

            model = ErrorModel(hardware=default_hardware_for(scheme), p=1e-3)
            memory = build_memory_circuit(scheme, 3, model)
            assert memory.scheme == scheme
            assert memory.circuit.num_detectors > 0

    def test_unknown_scheme(self):
        model = ErrorModel(hardware=BASELINE_HARDWARE, p=1e-3)
        with pytest.raises(ValueError):
            build_memory_circuit("square_dance", 3, model)


class TestEndToEnd:
    def test_small_threshold_sweep_shows_scaling(self):
        # Below threshold d=5 must beat d=3; way above, the reverse.
        study = estimate_threshold(
            "baseline",
            physical_error_rates=[1.5e-3, 2e-2],
            distances=[3, 5],
            shots=600,
            seed=3,
        )
        low_d3, low_d5 = study.logical_rates(3)[0], study.logical_rates(5)[0]
        high_d3, high_d5 = study.logical_rates(3)[1], study.logical_rates(5)[1]
        assert low_d5 <= low_d3 + 0.02
        assert high_d5 > high_d3

    def test_sensitivity_panel_monotone_in_gate_error(self):
        panel = run_sensitivity_panel(
            "sc_sc_error",
            distances=[3],
            xs=[1e-4, 8e-3],
            shots=400,
            seed=11,
        )
        rates = panel.rates[3]
        assert rates[1] > rates[0]

    def test_sensitivity_rejects_unknown_panel(self):
        with pytest.raises(ValueError):
            run_sensitivity_panel("wavelength", distances=[3], shots=10)

    def test_cavity_size_panel_builds(self):
        panel = run_sensitivity_panel(
            "cavity_size", distances=[3], xs=[5.0, 20.0], shots=200, seed=5
        )
        assert len(panel.rates[3]) == 2

    def test_threshold_study_exposes_decode_stats(self, decode_totals):
        """A sweep's tier totals are the registry's decode counters."""
        from repro.decoders import TIER_NAMES

        study = estimate_threshold(
            "baseline",
            physical_error_rates=[2e-3, 5e-3],
            distances=[3],
            shots=400,
            seed=9,
        )
        assert len(study.results[3]) == 2
        tiers, unique, shots = decode_totals()
        assert shots == 2 * 400
        assert set(tiers) <= set(TIER_NAMES)
        assert sum(tiers.values()) == unique

    def test_sensitivity_panel_exposes_decode_stats(self, decode_totals):
        panel = run_sensitivity_panel(
            "sc_sc_error", distances=[3], xs=[1e-3, 4e-3], shots=300, seed=2
        )
        assert len(panel.rates[3]) == 2
        tiers, unique, shots = decode_totals()
        assert shots == 2 * 300
        assert sum(tiers.values()) == unique
