"""Shared fixtures for the tier-1 suite."""

import pytest

from repro import obs


@pytest.fixture()
def registry(monkeypatch):
    """A fresh, armed metrics registry for one test, disarmed afterwards.

    Decode-tier totals across calls live only here (the
    ``repro_decode_*`` counters), so tests that check them arm one.
    """
    monkeypatch.delenv("REPRO_OBS", raising=False)
    obs.disable()
    yield obs.enable()
    obs.disable()


@pytest.fixture()
def decode_totals(registry):
    """Arms ``registry``; call it for ``(tier cells, unique, shots)`` so far."""

    def read() -> tuple[dict, int, int]:
        snapshot = registry.snapshot()
        totals = obs.summarize_snapshot(snapshot)
        return (
            snapshot["repro_decode_tier_shots_total"]["values"],
            totals["repro_decode_unique_total"],
            totals["repro_decode_shots_total"],
        )

    return read
