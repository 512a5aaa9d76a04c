"""Central instrument catalog for the obs layer.

Every instrument the repo records is declared here, once, with its kind,
help string, label names, and (for histograms) fixed bucket edges.  The
registry refuses names outside the catalog, which gives three properties:

- ``repro lint`` (OBS001) can validate the whole instrument inventory
  statically — no need to execute campaigns to discover names;
- histogram bucket edges are identical in every process, so snapshot
  merges are plain sums;
- EXPERIMENTS.md's instrument table has a single source of truth.

Naming convention (enforced by OBS001): ``repro_<layer>_<name>_<unit>``
with ``layer`` one of :data:`LAYERS` and ``unit`` one of :data:`UNITS`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

__all__ = [
    "CATALOG",
    "DURATION_BUCKETS",
    "InstrumentSpec",
    "LAYERS",
    "NAME_RE",
    "UNITS",
    "check_spec",
    "get_spec",
]

LAYERS = ("engine", "decode", "campaign", "durable", "service", "obs")
UNITS = ("total", "seconds", "depth", "alive", "entries")

NAME_RE = re.compile(
    r"^repro_(%s)_[a-z][a-z0-9_]*_(%s)$" % ("|".join(LAYERS), "|".join(UNITS))
)

# One shared edge set for all duration histograms: sub-ms block work up to
# multi-minute service jobs.  Edges are in seconds.
DURATION_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 300.0,
)


@dataclass(frozen=True)
class InstrumentSpec:
    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str
    labels: tuple[str, ...] = ()
    buckets: tuple[float, ...] = field(default=())


def check_spec(spec: InstrumentSpec) -> list[str]:
    """Return OBS001-style problems with one instrument spec (empty = ok)."""
    problems = []
    if not NAME_RE.match(spec.name):
        problems.append(
            f"name {spec.name!r} does not match repro_<layer>_<name>_<unit> "
            f"(layers: {', '.join(LAYERS)}; units: {', '.join(UNITS)})"
        )
    if not spec.help.strip():
        problems.append(f"{spec.name}: missing help string")
    if spec.kind not in ("counter", "gauge", "histogram"):
        problems.append(f"{spec.name}: unknown kind {spec.kind!r}")
    if spec.kind == "counter" and not spec.name.endswith("_total"):
        problems.append(f"{spec.name}: counters must end in _total")
    if spec.kind == "histogram":
        if not spec.buckets:
            problems.append(f"{spec.name}: histogram without bucket edges")
        elif list(spec.buckets) != sorted(set(spec.buckets)):
            problems.append(f"{spec.name}: bucket edges not strictly increasing")
    elif spec.buckets:
        problems.append(f"{spec.name}: buckets on a non-histogram")
    return problems


def _c(name, help, labels=()):
    return InstrumentSpec(name, "counter", help, tuple(labels))


def _g(name, help, labels=()):
    return InstrumentSpec(name, "gauge", help, tuple(labels))


def _h(name, help, labels=(), buckets=DURATION_BUCKETS):
    return InstrumentSpec(name, "histogram", help, tuple(labels), tuple(buckets))


CATALOG: tuple[InstrumentSpec, ...] = (
    # --- engine: packed sampler + batched Monte-Carlo blocks ----------------
    _c("repro_engine_shots_total", "Shots simulated by count_logical_errors"),
    _c("repro_engine_blocks_total", "1024-shot seed blocks executed"),
    _c("repro_engine_logical_errors_total", "Logical errors observed"),
    _c(
        "repro_engine_sampler_compiles_total",
        "Circuit-to-sampler compiles, by backend",
        labels=("backend",),
    ),
    _h(
        "repro_engine_compile_seconds",
        "Wall time compiling a circuit into a sampler, by backend",
        labels=("backend",),
    ),
    _h("repro_engine_sample_seconds", "Wall time sampling one run_block batch"),
    _h("repro_engine_decode_seconds", "Wall time decoding one run_block batch"),
    _h("repro_engine_chunk_seconds", "Wall time for one run_block sample+decode"),
    _c(
        "repro_engine_decode_fallbacks_total",
        "run_block calls re-decoded by the tier-free fallback",
    ),
    # --- decode: tier dispatcher + batched union-find kernel ----------------
    _c(
        "repro_decode_tier_shots_total",
        "Unique syndromes resolved, by decode tier",
        labels=("tier",),
    ),
    _c("repro_decode_shots_total", "Shots entering decode_batch or decode_batch_full"),
    _c("repro_decode_unique_total", "Unique syndromes after bit-packed dedup"),
    _c("repro_decode_batches_total", "decode_batch and decode_batch_full calls"),
    _h(
        "repro_decode_batch_seconds",
        "Wall time for one decode_batch or decode_batch_full call",
    ),
    _h(
        "repro_decode_prepare_seconds",
        "Wall time preparing decoding, by stage (dem, graph, decoder)",
        labels=("stage",),
    ),
    _c("repro_decode_kernel_calls_total", "Batched union-find kernel launches"),
    _c(
        "repro_decode_kernel_rows_total",
        "Syndrome rows decoded by the lockstep kernel",
    ),
    _c(
        "repro_decode_kernel_peel_fallback_total",
        "Kernel rows whose support has an observable-odd cycle, peeled per shot",
    ),
    _h(
        "repro_decode_kernel_grow_seconds",
        "Wall time growing clusters in one kernel call",
    ),
    _h(
        "repro_decode_kernel_peel_seconds",
        "Wall time reading predictions off the grown forest in one kernel call",
    ),
    # --- campaign: VLQ program lowering + per-unit experiments --------------
    _c(
        "repro_campaign_units_total",
        "Campaign units executed, by kind (qubit or merged pair)",
        labels=("kind",),
    ),
    _c(
        "repro_campaign_lowerings_total",
        "Timeline-to-circuit lowerings built (cache misses), by kind",
        labels=("kind",),
    ),
    _c("repro_campaign_shots_total", "Shots attributed to campaign units"),
    _c(
        "repro_campaign_uncovered_windows_total",
        "Surgery windows of 3+-qubit components decoded as independent pieces",
    ),
    _h(
        "repro_campaign_unit_seconds",
        "Wall time for one campaign unit (lower+sample+decode)",
        labels=("kind",),
    ),
    # --- durable: checkpointed runner + supervised fleet --------------------
    _c(
        "repro_durable_blocks_total",
        "Durable blocks, by outcome (executed or resumed from ledger)",
        labels=("outcome",),
    ),
    _c("repro_durable_attempts_total", "Block attempts dispatched to workers"),
    _c("repro_durable_retries_total", "Block attempts retried after failure"),
    _c("repro_durable_quarantined_total", "Blocks quarantined after max retries"),
    _c(
        "repro_durable_backoff_seconds_total",
        "Cumulative deterministic backoff slept before retries",
    ),
    _c("repro_durable_respawns_total", "Fleet worker processes respawned"),
    _c(
        "repro_durable_waves_total",
        "Supervised calls: one per unit, one per wave under a CI target",
    ),
    _h("repro_durable_block_seconds", "Wall time for one supervised block attempt"),
    # --- service: long-lived campaign server --------------------------------
    _c(
        "repro_service_admissions_total",
        "Admission decisions, by outcome",
        labels=("outcome",),
    ),
    _c(
        "repro_service_jobs_total",
        "Jobs reaching a terminal state, by state",
        labels=("state",),
    ),
    _c(
        "repro_service_requests_total",
        "HTTP requests served, by route",
        labels=("route",),
    ),
    _c("repro_service_block_events_total", "Per-block progress events emitted"),
    _h("repro_service_job_seconds", "Wall time from job start to terminal state"),
    _g("repro_service_queue_depth", "Jobs waiting in the admission queue"),
    _g("repro_service_fleet_alive", "Fleet worker processes currently alive"),
    _g(
        "repro_service_cache_entries",
        "Entries in shared build caches, by cache",
        labels=("cache",),
    ),
    # --- obs: self-monitoring ----------------------------------------------
    _c(
        "repro_obs_spans_dropped_total",
        "Trace spans dropped after the tracer buffer filled",
    ),
)

_BY_NAME = {spec.name: spec for spec in CATALOG}


def get_spec(name: str) -> InstrumentSpec:
    return _BY_NAME[name]
