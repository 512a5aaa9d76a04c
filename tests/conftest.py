"""Shared fixtures for the tier-1 suite."""

import pytest

import repro.vlq.campaign as campaign
from repro import obs
from repro.circuits import Circuit
from repro.sim.compiled import CompiledCircuit


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


@pytest.fixture(scope="session")
def program_lowerings() -> list[tuple[Circuit, CompiledCircuit]]:
    """Each circuit a correlated d=3 compare of ``pairs(4)`` samples, with
    the sampler it compiled: compact and natural, single qubit and joint.
    """
    lowered = []
    make_sampler = campaign.make_sampler

    def keep(circuit, backend):
        sampler = make_sampler(circuit, backend)
        lowered.append((circuit, sampler))
        return sampler

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(campaign, "make_sampler", keep)
        campaign.compare_architectures(
            campaign.build_program("pairs", 4),
            distances=(3,),
            embeddings=("compact", "natural"),
            refresh_policies=("dram",),
            p=1e-3,
            shots=1,
            correlated=True,
            policy="surgery_only",
        )
    return lowered
