"""Span tracing for the benchmark's traced runs.

Spans are recorded around calls into each layer's public functions by
replacing the function *where its caller looks it up* (a module global
or a class attribute) for the duration of a traced pass, and restoring
it afterwards.  The package under test is not modified, and an untraced
pass runs the original functions.

Spans live in memory (name, start, end, parent) and are written out when
the run ends.  A layer's *self* time is its spans' durations minus the
part covered by child spans; ``other`` is the traced wall time no span
covers (benchmark harness code), which the layer-sum check bounds.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
from time import perf_counter

import repro.analyze.symbolic as symbolic
import repro.durable.supervise as supervise
import repro.sim.engine as engine
import repro.sim.experiment as experiment
import repro.threshold as threshold
import repro.vlq.campaign as campaign
from repro.decoders import TIER_NAMES, MatchingGraph, SyndromeDecoder, UnionFindDecoder
from repro.decoders.batched_uf import BatchedUnionFind
from repro.durable import DurableExecutor
from repro.sim.compiled import CompiledCircuit

#: Span name -> layer whose self time it is charged to.  Every span
#: recorded by :func:`instrument` appears here, so the self times of
#: these layers plus ``other`` partition the traced wall time.
LAYER_OF_SPAN = {
    "circuit.build": "circuit.build",
    "vlq.compile_program": "vlq.compile_program",
    "vlq.lower": "vlq.lower",
    "analyze.certify": "analyze.certify",
    "dem.extract": "dem.extract",
    "graph.build": "graph.build",
    "decoder.init": "decoder.init",
    "sim.compile": "sim.compile",
    "sim.sample": "sim.sample",
    "decode.batch": "decode.dispatch",
    "kernel.init": "kernel.init",
    "kernel.decode": "kernel.peel",
    "kernel.grow": "kernel.grow",
    "engine.count": "engine.other",
    "engine.block": "engine.other",
    "durable.count": "durable.count",
    "durable.fleet_spawn": "durable.fleet_spawn",
}


class Tracer:
    """In-memory spans plus counters recorded at the same boundaries.

    With ``spans=False`` the wrappers only run their count hooks, which
    is how untraced passes still check every ``decode_batch`` call.
    Calls made in forked worker processes are passed straight through:
    their spans could not reach this process.
    """

    def __init__(self, label: str, spans: bool = True):
        self.label = label
        self.record_spans = spans
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = {}
        self.wall = 0.0  # seconds of the timed passes (setup + hot phases) traced
        self.tier_violations: list[str] = []
        self._stack: list[int] = []
        self._pid = os.getpid()

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(tracer, args, result)`` counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self._pid:
                return fn(*args, **kwargs)
            if not self.record_spans:
                result = fn(*args, **kwargs)
            else:
                span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
                self._stack.append(len(self.spans))
                self.spans.append(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = perf_counter()
                    self._stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    # ------------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Per-layer self time (span minus child spans), summed."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            layer = LAYER_OF_SPAN[name]
            out[layer] = out.get(layer, 0.0) + (end - start) - covered
        return out

    def busy(self, name: str) -> float:
        """Seconds inside spans called ``name`` (outermost ones only)."""
        total = 0.0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                total += span[2] - span[1]
        return total

    def other(self) -> float:
        """Traced wall time not covered by any layer's self time."""
        return self.wall - sum(self.self_times().values())

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                record = {"run": self.label, "name": name, "start": start,
                          "end": end, "parent": parent}
                fh.write(json.dumps(record) + "\n")


# ----------------------------------------------------------------------
# Count hooks (run after the wrapped call returns)
# ----------------------------------------------------------------------
def _count_dem(tracer, args, dem) -> None:
    tracer.add("dem.mechanisms", len(dem))


def _count_graph(tracer, args, graph) -> None:
    tracer.add("graph.edges", graph.num_edges)


def _count_sample(tracer, args, data) -> None:
    tracer.add("sim.shots", data.shots)


def _count_kernel(tracer, args, predictions) -> None:
    tracer.add("kernel.rows", len(predictions))


def _count_fleet(tracer, args, fleet) -> None:
    tracer.add("durable.fleet_spawns")


def check_decode_batch(tracer, args, predictions) -> None:
    """Tier occupancy of one ``decode_batch`` call; tiers must sum to unique."""
    stats = args[0].last_batch_stats
    tiers = sum(stats[t] for t in TIER_NAMES)
    if tiers != stats["unique"]:
        tracer.tier_violations.append(f"tiers sum to {tiers}, unique={stats['unique']}")
    for key in (*TIER_NAMES, "unique", "shots", "lru_hits", "lru_misses"):
        tracer.add(f"decode.{key}", stats[key])


def _patches(tracer: Tracer) -> list[tuple[object, str, object]]:
    """``(owner, attribute, replacement)`` for every traced entry point."""

    def module_fn(module, attr, name, after=None):
        return module, attr, tracer.wrap(name, getattr(module, attr), after)

    def method(cls, attr, name, after=None):
        return cls, attr, tracer.wrap(name, cls.__dict__[attr], after)

    from_dem = MatchingGraph.__dict__["from_dem"].__func__
    return [
        # cold path
        module_fn(threshold, "build_memory_circuit", "circuit.build"),
        module_fn(campaign, "compile_program", "vlq.compile_program"),
        module_fn(campaign, "lower_timeline", "vlq.lower"),
        module_fn(campaign, "lower_joint_timelines", "vlq.lower"),
        module_fn(campaign, "certify_joint_deterministic", "analyze.certify"),
        module_fn(symbolic, "certify_deterministic", "analyze.certify"),
        module_fn(experiment, "DetectorErrorModel", "dem.extract", _count_dem),
        (MatchingGraph, "from_dem",
         classmethod(tracer.wrap("graph.build", from_dem, _count_graph))),
        module_fn(experiment, "make_decoder", "decoder.init"),
        module_fn(engine, "make_sampler", "sim.compile"),
        module_fn(campaign, "make_sampler", "sim.compile"),
        # hot path
        module_fn(engine, "count_logical_errors", "engine.count"),
        module_fn(campaign, "count_logical_errors", "engine.count"),
        module_fn(supervise, "run_block", "engine.block"),
        method(CompiledCircuit, "sample", "sim.sample", _count_sample),
        method(SyndromeDecoder, "decode_batch", "decode.batch", check_decode_batch),
        method(UnionFindDecoder, "batched_kernel", "kernel.init"),
        method(BatchedUnionFind, "decode_batch", "kernel.decode", _count_kernel),
        method(BatchedUnionFind, "grow_batch", "kernel.grow"),
        # orchestration
        method(DurableExecutor, "count", "durable.count"),
        module_fn(supervise, "WorkerFleet", "durable.fleet_spawn", _count_fleet),
    ]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install ``tracer``'s wrappers; originals are restored on exit.

    An untraced tracer installs only the ``decode_batch`` tier check.
    """
    patches = _patches(tracer)
    if not tracer.record_spans:
        patches = [p for p in patches if p[:2] == (SyndromeDecoder, "decode_batch")]
    saved = []
    try:
        for owner, attr, replacement in patches:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
