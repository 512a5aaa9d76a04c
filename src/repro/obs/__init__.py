"""repro.obs — unified metrics, tracing, and exposition.

Disabled by default and cheap when disabled: ``enable()`` turns on the
process-local :class:`MetricsRegistry`, ``enable_tracing()`` the span
tracer.  See EXPERIMENTS.md "Observability" for the instrument inventory,
span taxonomy, and measured overhead.
"""

from .catalog import CATALOG, InstrumentSpec, NAME_RE, check_spec, get_spec
from .expo import CONTENT_TYPE, parse_prometheus_text, prometheus_text
from .metrics import (
    MetricsRegistry,
    active,
    counter,
    disable,
    enable,
    enabled,
    gauge,
    histogram,
    merge_counts,
    merge_snapshots,
    snapshot_delta,
    summarize_snapshot,
)
from .trace import (
    Tracer,
    active_tracer,
    chrome_trace,
    disable_tracing,
    enable_tracing,
    load_jsonl,
    span,
    summarize_spans,
)
from .views import format_snapshot

__all__ = [
    "CATALOG",
    "CONTENT_TYPE",
    "InstrumentSpec",
    "MetricsRegistry",
    "NAME_RE",
    "Tracer",
    "active",
    "active_tracer",
    "check_spec",
    "chrome_trace",
    "counter",
    "disable",
    "disable_tracing",
    "enable",
    "enable_tracing",
    "enabled",
    "format_snapshot",
    "gauge",
    "get_spec",
    "histogram",
    "load_jsonl",
    "merge_counts",
    "merge_snapshots",
    "parse_prometheus_text",
    "prometheus_text",
    "snapshot_delta",
    "span",
    "summarize_snapshot",
    "summarize_spans",
]
