"""Joint-window lattice-surgery lowering: merged-patch noisy circuits.

The campaign layer scores a program as independent per-qubit memories,
but the paper's headline operation — the lattice-surgery CNOT between
co-resident patches (§III-B, Fig. 4) — *correlates* the two operands'
error surfaces: during the merge the patches share boundary stabilizers,
so error chains cross from one logical qubit into the other.  This
module lowers a pair of per-qubit timelines whose schedules share
surgery windows into **one** noisy circuit:

* outside the windows each qubit runs its own timeline segments on its
  own sub-patch (slots of the other patch are suspended from idle noise
  while a phase is emitted — wall-clock is shared, the instruction
  stream is not, so time must not double-count);
* during a window the two patches merge through a one-row (or
  one-column) seam of fresh data qubits into a single rectangular
  rotated patch (:class:`~repro.surface_code.layout.RotatedSurfaceCode`
  with ``cols != rows``) and run ``duration × rounds_per_timestep``
  merged extraction rounds of the machine's embedding, then split by
  measuring the seam out;
* one detector/observable mapping covers both operands, so a single
  decode sees the joint error surface.

Merge orientation and determinism
---------------------------------
The merge measures the joint logical operator whose membranes the seam
connects.  A ``basis="Z"`` memory experiment must keep *both* per-patch
logical-Z observables deterministic, so the patches are stacked along
the **X-boundary axis** (a ZZ-type merge: the measured ``Z_A⊗Z_B``
commutes with ``Z_A`` and ``Z_B`` individually) with the seam prepared
and split-measured in the X basis; a ``basis="X"`` experiment merges
along the other axis symmetrically.  Consequences for the detector map:

* plaquettes fully inside one patch (**interior**) continue across the
  merge — plain consecutive-round detectors;
* the patch boundary half-checks facing the seam grow into full
  plaquettes (**upgraded**): the first merged round continues their
  half-check value (the fresh seam qubits contribute +1), and the first
  post-split half-check round gets a *stitch* detector that XORs in the
  seam corners' split measurements;
* the seam-adjacent checks of the memory basis are **born with the
  merge** (their first outcome is the randomness of the joint logical
  measurement): no first-round detector, consecutive detectors within
  one window only, and their time-like chain ends at the split.

:func:`certify_joint_deterministic` proves with one backward
Pauli-flow pass (:mod:`repro.analyze.symbolic`) that every detector and
both observables of the noiseless joint lowering are deterministic (the
stabilizer tableau simulator is only its optional sampled cross-check);
the campaign runs the certificate once per circuit shape, single-qubit
lowerings included.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Hashable, Sequence

from repro.arch.compact import emit_compact_rounds, make_compact_emitter
from repro.arch.natural import make_natural_emitter
from repro.core.compiler import CompiledSchedule
from repro.core.timeline import QubitTimeline
from repro.noise import ErrorModel
from repro.surface_code.builder import MomentCircuitBuilder, SlotRegistry
from repro.surface_code.extraction import MemoryCircuit
from repro.surface_code.layout import Plaquette, RotatedSurfaceCode
from repro.vlq.lowering import EMBEDDINGS, emit_timeline_segments, make_assembler

__all__ = [
    "JointCertificationError",
    "JointLoweringSpec",
    "JointMemoryCircuit",
    "MergedPatchLayout",
    "SurgeryPartition",
    "certify_joint_deterministic",
    "joint_shape",
    "lower_joint_timelines",
    "partition_surgery",
]


class JointCertificationError(RuntimeError):
    """A VLQ lowering failed :func:`certify_joint_deterministic`."""


# ----------------------------------------------------------------------
# Spec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JointLoweringSpec:
    """How to lower a surgery-coupled pair (hashable: a cache key part).

    Mirrors :class:`~repro.vlq.lowering.LoweringSpec` plus
    ``window_noise_scale``: 1.0 models the full §IV-A error model inside
    the merged windows; 0.0 emits the windows noiselessly (seam prep,
    merged rounds and split included), which makes the joint detector
    error model factorize into the two patches — the limit in which the
    joint estimate provably equals the independence product, and the
    anchor of the shot-for-shot equivalence test.
    """

    distance: int
    embedding: str
    basis: str = "Z"
    rounds_per_timestep: int = 1
    refresh: bool = True
    window_noise_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.embedding not in EMBEDDINGS:
            raise ValueError(f"embedding must be one of {EMBEDDINGS}")
        if self.basis not in ("X", "Z"):
            raise ValueError("basis must be 'X' or 'Z'")
        if self.rounds_per_timestep < 1:
            raise ValueError("rounds_per_timestep must be >= 1")
        if self.distance % 2 == 0:
            raise ValueError(
                "joint lowering requires an odd code distance (the merged "
                "patch's checkerboard must align across the seam)"
            )
        if not 0.0 <= self.window_noise_scale <= 1.0:
            raise ValueError("window_noise_scale must be in [0, 1]")


# ----------------------------------------------------------------------
# Merged-patch geometry
# ----------------------------------------------------------------------
class MergedPatchLayout:
    """Two d×d patches merged through a one-line seam, and the maps
    between merged-patch and standalone-patch coordinates.

    ``axis`` is the merge direction: 0 stacks the patches vertically
    (rows ``0..d-1`` are patch *a*, row ``d`` the seam, ``d+1..2d``
    patch *b*), 1 side-by-side over columns.  For a ``basis="Z"``
    memory the merge is vertical — through the X boundaries, measuring
    ``Z_A⊗Z_B`` — and the seam is prepared/split in the X basis;
    ``basis="X"`` is the transpose.  Every merged plaquette is
    classified at construction and *verified* against the standalone
    layout, so a geometry regression fails loudly here rather than as a
    wrong detector.
    """

    def __init__(self, distance: int, basis: str):
        if distance % 2 == 0:
            raise ValueError("merged patches need an odd distance")
        if basis not in ("X", "Z"):
            raise ValueError("basis must be 'X' or 'Z'")
        self.distance = distance
        self.basis = basis
        self.axis = 0 if basis == "Z" else 1
        #: basis in which the seam is prepared and split-measured
        self.seam_basis = "X" if basis == "Z" else "Z"
        if self.axis == 0:
            self.merged = RotatedSurfaceCode(2 * distance + 1, cols=distance)
        else:
            self.merged = RotatedSurfaceCode(distance, cols=2 * distance + 1)
        self.local = RotatedSurfaceCode(distance)
        self.seam_coords = [
            c for c in self.merged.data_coords if c[self.axis] == distance
        ]
        self._local_plaquette = {p.cell: p for p in self.local.plaquettes}
        #: merged cell -> ("interior"|"upgraded", side, local cell) or ("seam", None, None)
        self.info: dict[tuple[int, int], tuple] = {}
        for p in self.merged.plaquettes:
            self.info[p.cell] = self._classify(p)

    # ------------------------------------------------------------------
    def side_of_coord(self, coord: tuple[int, int]) -> str:
        x = coord[self.axis]
        if x < self.distance:
            return "a"
        if x == self.distance:
            return "seam"
        return "b"

    def to_local(self, coord: tuple[int, int], side: str) -> tuple[int, int]:
        """A merged data/cell coordinate in its patch's standalone frame."""
        if side == "a":
            return coord
        offset = self.distance + 1
        if self.axis == 0:
            return (coord[0] - offset, coord[1])
        return (coord[0], coord[1] - offset)

    def to_merged(self, coord: tuple[int, int], side: str) -> tuple[int, int]:
        if side == "a":
            return coord
        offset = self.distance + 1
        if self.axis == 0:
            return (coord[0] + offset, coord[1])
        return (coord[0], coord[1] + offset)

    # ------------------------------------------------------------------
    def _classify(self, p: Plaquette) -> tuple:
        sides = {self.side_of_coord(q) for q in p.data}
        patch_sides = sides - {"seam"}
        if len(patch_sides) > 1:  # pragma: no cover - corners span 2 lines
            raise ValueError(f"plaquette {p} straddles both patches")
        if "seam" not in sides:
            (side,) = patch_sides
            local_cell = self.to_local(p.cell, side)
            counterpart = self._local_plaquette.get(local_cell)
            expected = tuple(sorted(self.to_local(q, side) for q in p.data))
            if (
                counterpart is None
                or counterpart.basis != p.basis
                or tuple(sorted(counterpart.data)) != expected
            ):
                raise ValueError(f"interior plaquette {p} has no standalone twin")
            return ("interior", side, local_cell)
        if p.basis == self.basis or not patch_sides:
            # Seam checks of the memory basis realize the joint logical
            # measurement: born random with each merge.
            return ("seam", None, None)
        (side,) = patch_sides
        local_cell = self.to_local(p.cell, side)
        counterpart = self._local_plaquette.get(local_cell)
        patch_corners = tuple(
            sorted(
                self.to_local(q, side)
                for q in p.data
                if self.side_of_coord(q) != "seam"
            )
        )
        if (
            counterpart is None
            or counterpart.basis != p.basis
            or tuple(sorted(counterpart.data)) != patch_corners
        ):
            raise ValueError(
                f"upgraded plaquette {p} does not extend a standalone half-check"
            )
        return ("upgraded", side, local_cell)

    def seam_corners(self, p: Plaquette) -> list[tuple[int, int]]:
        """The seam data coordinates of a merged plaquette."""
        return [q for q in p.data if self.side_of_coord(q) == "seam"]


# ----------------------------------------------------------------------
# Scoped builder / registry views
# ----------------------------------------------------------------------
class _ScopedBuilder:
    """A builder view namespacing measurement keys under one scope.

    The per-patch assemblers and the merged-window emitters all record
    outcomes under keys like ``("anc", cell)``; wrapping each phase's
    builder in a scope keeps the shared measurement log collision-free
    while every moment still lands on the one underlying circuit.
    """

    def __init__(self, inner: MomentCircuitBuilder, scope: Hashable):
        self._inner = inner
        self._scope = scope

    def moment(self, duration: float, ops) -> None:
        self._inner.moment(
            duration,
            [
                ("M", op[1], (self._scope, op[2])) if op[0] == "M" else op
                for op in ops
            ],
        )

    def idle_gap(self, duration: float) -> None:
        self._inner.idle_gap(duration)

    def measurement_indices(self, key: Hashable) -> list[int]:
        return self._inner.measurement_indices((self._scope, key))

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _ScopedRegistry:
    """A registry view namespacing slot names under one scope."""

    def __init__(self, inner: SlotRegistry, scope: str):
        self._inner = inner
        self._scope = scope

    def slot(self, name: Hashable) -> int:
        return self._inner.slot((self._scope, name))


class _MergedSlots:
    """Registry view of the merged patch over the per-patch slots.

    Data continuity is the point: the merged rounds must act on the very
    slots that hold each patch's (and the seam's) data, so merged data
    coordinates map back to the owning scope's slot names; ancilla slots
    are shared across windows under one ``anc_w`` scope (they are reset
    before every use).
    """

    def __init__(self, inner: SlotRegistry, layout: MergedPatchLayout):
        self._inner = inner
        self._layout = layout

    def slot(self, name: Hashable) -> int:
        kind = name[0]
        if kind in ("t", "m"):
            coord = name[1]
            side = self._layout.side_of_coord(coord)
            if side == "seam":
                return self._inner.slot(("seam", (kind, coord)))
            return self._inner.slot((side, (kind, self._layout.to_local(coord, side))))
        return self._inner.slot(("anc_w", name))


@contextmanager
def _isolated(builder: MomentCircuitBuilder, registry: SlotRegistry, scopes):
    """Suspend idle noise on every live slot outside ``scopes``.

    Phases of different patches share wall-clock but are emitted
    sequentially; while one patch's phase is on the instruction stream
    the other patch's storage must not accrue a second helping of idle
    time.  Suspended slots are restored untouched afterwards.
    """
    allowed = {
        registry.get(name) for name in registry.names() if name[0] in scopes
    }
    saved = {s: k for s, k in builder.live.items() if s not in allowed}
    for s in saved:
        del builder.live[s]
    try:
        yield
    finally:
        builder.live.update(saved)


# ----------------------------------------------------------------------
# Window noise scaling
# ----------------------------------------------------------------------
def _window_error_model(model: ErrorModel, scale: float) -> ErrorModel:
    if scale == 1.0:
        return model
    if scale == 0.0:
        return ErrorModel(
            hardware=model.hardware,
            p=0.0,
            scale_coherence=False,
            t1_transmon_override=math.inf,
            t1_cavity_override=math.inf,
        )

    def scaled(value: float | None) -> float | None:
        return None if value is None else value * scale

    return model.with_(
        p=model.p * scale,
        p_1q=scaled(model.p_1q),
        p_2q=scaled(model.p_2q),
        p_tm=scaled(model.p_tm),
        p_ls=scaled(model.p_ls),
        p_meas=scaled(model.p_meas),
        p_reset=scaled(model.p_reset),
        t1_transmon_override=model.t1_transmon / scale,
        t1_cavity_override=model.t1_cavity / scale,
    )


# ----------------------------------------------------------------------
# Shapes and schedule partitioning
# ----------------------------------------------------------------------
def joint_shape(
    timeline_a: QubitTimeline,
    timeline_b: QubitTimeline,
    windows: Sequence[tuple[int, int]],
    spec: JointLoweringSpec,
) -> tuple:
    """Canonical joint shape key: equal shapes lower identically.

    The key is both operands' phased segment sequences around the shared
    windows, the window lengths, and the spec; the campaign adds the
    error model (and backend, for samplers) when keying its caches.
    """
    spans = tuple(sorted((int(s), int(e)) for s, e in windows))
    return (
        spec,
        timeline_a.phased_segments(spans, include_refreshes=spec.refresh),
        timeline_b.phased_segments(spans, include_refreshes=spec.refresh),
        tuple(e - s for s, e in spans),
    )


@dataclass(frozen=True)
class SurgeryPartition:
    """A schedule's qubits grouped by lattice-surgery coupling.

    ``pairs`` lists each two-qubit component with its shared window
    spans, in sorted qubit order.  Components of three or more qubits
    cannot be lowered as a single merged pair; their qubits fall back to
    independent lowering (``uncovered``) and their surgery windows are
    counted so reports can state how much correlation went unmodelled.
    """

    pairs: tuple[tuple[tuple[int, int], tuple[tuple[int, int], ...]], ...]
    uncovered: tuple[int, ...]
    uncovered_windows: int

    @property
    def paired_qubits(self) -> set[int]:
        return {q for qubits, _ in self.pairs for q in qubits}


def partition_surgery(schedule: CompiledSchedule) -> SurgeryPartition:
    """Group a compiled schedule's qubits by surgery-CNOT coupling."""
    events = [
        e
        for e in schedule.events
        if e.name == "CNOT" and e.detail == "lattice surgery"
    ]
    parent: dict[int, int] = {}

    def find(q: int) -> int:
        parent.setdefault(q, q)
        while parent[q] != q:
            parent[q] = parent[parent[q]]
            q = parent[q]
        return q

    for e in events:
        a, b = e.qubits
        parent[find(a)] = find(b)
    components: dict[int, list[int]] = {}
    for q in parent:
        components.setdefault(find(q), []).append(q)

    pairs = []
    uncovered: list[int] = []
    uncovered_windows = 0
    for members in components.values():
        members = sorted(members)
        spans = tuple(
            sorted(
                (e.start, e.end)
                for e in events
                if find(e.qubits[0]) == find(members[0])
            )
        )
        if len(members) == 2:
            pairs.append(((members[0], members[1]), spans))
        else:
            uncovered.extend(members)
            uncovered_windows += len(spans)
    return SurgeryPartition(
        pairs=tuple(sorted(pairs)),
        uncovered=tuple(sorted(uncovered)),
        uncovered_windows=uncovered_windows,
    )


# ----------------------------------------------------------------------
# The joint lowering
# ----------------------------------------------------------------------
@dataclass
class JointMemoryCircuit(MemoryCircuit):
    """A merged two-patch memory experiment with joint decoding metadata.

    ``detector_sides`` labels each detector ``"a"``/``"b"`` (depends on
    that patch's checks only) or ``"seam"`` (involves seam qubits);
    observables are ordered ``(a, b)`` — the engine's packed prediction
    mask has patch *a* in bit 0.
    """

    windows: int = 0
    window_rounds: int = 0
    detector_sides: list[str] = field(default_factory=list)
    observable_sides: tuple[str, ...] = ("a", "b")


def lower_joint_timelines(
    timeline_a: QubitTimeline,
    timeline_b: QubitTimeline,
    windows: Sequence[tuple[int, int]],
    error_model: ErrorModel,
    spec: JointLoweringSpec,
) -> JointMemoryCircuit:
    """Lower a surgery-coupled pair of timelines into one merged circuit.

    ``windows`` are the shared lattice-surgery spans ``(start, end)`` in
    compiler timesteps; each lowers to ``(end-start) × rounds_per_timestep``
    merged extraction rounds between the two patches' own phases.  The
    result plugs into the standard DEM → matching-graph → engine
    pipeline with *two* observables of the memory basis (one per patch),
    so a single decode scores the pair jointly.
    """
    hw = error_model.hardware
    if not hw.has_memory:
        raise ValueError("VLQ lowering requires memory hardware parameters")
    for timeline in (timeline_a, timeline_b):
        if not timeline.ops or timeline.ops[0].name != "ALLOC":
            raise ValueError(
                f"q{timeline.qubit}'s timeline must begin with its ALLOC event"
            )
    spans = tuple(sorted((int(s), int(e)) for s, e in windows))
    if not spans:
        raise ValueError("joint lowering needs at least one surgery window")
    phases = {
        "a": timeline_a.phased_segments(spans, include_refreshes=spec.refresh),
        "b": timeline_b.phased_segments(spans, include_refreshes=spec.refresh),
    }
    layout = MergedPatchLayout(spec.distance, spec.basis)
    builder = MomentCircuitBuilder(error_model)
    registry = SlotRegistry()
    assemblers = {
        side: make_assembler(
            spec.embedding,
            layout.local,
            _ScopedBuilder(builder, side),
            _ScopedRegistry(registry, side),
        )
        for side in ("a", "b")
    }
    window_model = _window_error_model(error_model, spec.window_noise_scale)

    #: era boundaries: (kind, index, first measurement index of the era)
    eras: list[tuple[str, int, int]] = []

    def mark(kind: str, index: int) -> None:
        eras.append((kind, index, builder.circuit.num_measurements))

    rounds_emitted = 0
    window_rounds = 0
    for phase in range(len(spans) + 1):
        mark("patch", phase)
        for side in ("a", "b"):
            with _isolated(builder, registry, {side}):
                if phase == 0:
                    assemblers[side].init(spec.basis)
                rounds_emitted += emit_timeline_segments(
                    assemblers[side], builder, phases[side][phase], spec
                )
        if phase < len(spans):
            mark("window", phase)
            start, end = spans[phase]
            n = (end - start) * spec.rounds_per_timestep
            builder.error_model = window_model
            try:
                _emit_window(builder, registry, layout, spec, phase, n)
            finally:
                builder.error_model = error_model
            rounds_emitted += n
            window_rounds += n
    mark("patch", len(spans) + 1)  # readout era (same detector rules)
    for side in ("a", "b"):
        with _isolated(builder, registry, {side}):
            assemblers[side].readout(spec.basis)

    detector_sides = _emit_joint_detectors(builder, layout, spec, eras, len(spans))
    memory = JointMemoryCircuit(
        circuit=builder.circuit,
        code=layout.merged,
        basis=spec.basis,
        rounds=rounds_emitted,
        scheme=f"vlq_joint_{spec.embedding}",
        duration=builder.elapsed,
        op_counts=dict(builder.op_counts),
        windows=len(spans),
        window_rounds=window_rounds,
        detector_sides=detector_sides,
    )
    return memory


def _emit_window(
    builder: MomentCircuitBuilder,
    registry: SlotRegistry,
    layout: MergedPatchLayout,
    spec: JointLoweringSpec,
    window: int,
    rounds: int,
) -> None:
    """One merged window: seam prep → merged rounds → split.

    Both patches' data enter (and leave) parked in their cavity modes;
    the merged emitters act on the same slots through
    :class:`_MergedSlots`, so state flows from the per-patch phases into
    the merge and back without any bookkeeping at the call sites.
    """
    hw = builder.error_model.hardware
    wb = _ScopedBuilder(builder, ("w", window))
    slots = _MergedSlots(registry, layout)
    seam = layout.seam_coords

    def prep_seam(emitter) -> None:
        """Fresh seam data on transmons in the seam basis, parked to modes."""
        wb.moment(hw.t_reset, [("R", emitter.transmon[c]) for c in seam])
        if layout.seam_basis == "X":
            wb.moment(hw.t_gate_1q, [("H", emitter.transmon[c]) for c in seam])
        wb.moment(
            hw.t_load_store,
            [("STORE", emitter.transmon[c], emitter.mode[c]) for c in seam],
        )

    def split_seam(emitter) -> None:
        """Measure the seam out in the seam basis (the patch split)."""
        wb.moment(
            hw.t_load_store,
            [("LOAD", emitter.mode[c], emitter.transmon[c]) for c in seam],
        )
        if layout.seam_basis == "X":
            wb.moment(hw.t_gate_1q, [("H", emitter.transmon[c]) for c in seam])
        wb.moment(
            hw.t_measure,
            [("M", emitter.transmon[c], ("seam", c)) for c in seam],
        )

    if spec.embedding == "natural":
        emitter = make_natural_emitter(layout.merged, wb, slots)
        prep_seam(emitter)
        emitter.load_all()
        for _ in range(rounds):
            emitter.round()
        emitter.store_all()
        split_seam(emitter)
        return
    emitter = make_compact_emitter(layout.merged, wb, slots)
    # prep_seam stores the seam eagerly, leaving `loaded` empty — the
    # state the lazy-load schedule expects at a round boundary.
    prep_seam(emitter)
    emit_compact_rounds(emitter, rounds)
    emitter.store_all()
    split_seam(emitter)


def _emit_joint_detectors(
    builder: MomentCircuitBuilder,
    layout: MergedPatchLayout,
    spec: JointLoweringSpec,
    eras: list[tuple[str, int, int]],
    num_windows: int,
) -> list[str]:
    """Detectors + per-patch observables for the merged circuit.

    Works on each merged plaquette's *chronological* outcome history —
    patch-phase outcomes (recorded under the owning side's standalone
    cell) interleaved with window outcomes, ordered by measurement index
    — and applies the era-aware rules from the module docstring.
    """
    circuit = builder.circuit
    sides: list[str] = []
    starts = [start for _, _, start in eras]

    def era_of(m: int) -> tuple[str, int]:
        i = bisect_right(starts, m) - 1
        kind, index, _ = eras[i]
        return (kind, index)

    def add(measurements, coord, basis, side) -> None:
        circuit.add_detector(measurements, coord, basis=basis)
        sides.append(side)

    def window_history(cell: tuple[int, int]) -> list[int]:
        out = []
        for w in range(num_windows):
            out.extend(builder.measurement_indices((("w", w), ("anc", cell))))
        return out

    for p in layout.merged.plaquettes:
        kind, side, local_cell = layout.info[p.cell]
        history = list(window_history(p.cell))
        if kind != "seam":
            history.extend(
                builder.measurement_indices((side, ("anc", local_cell)))
            )
        history.sort()
        label = side if kind == "interior" else "seam"
        seam_splits = {
            w: [
                builder.measurement_indices((("w", w), ("seam", q)))[-1]
                for q in layout.seam_corners(p)
            ]
            for w in range(num_windows)
        } if kind == "upgraded" else {}
        for t, m in enumerate(history):
            coord = (*p.cell, t)
            if t == 0:
                if kind != "seam" and p.basis == spec.basis:
                    add([m], coord, p.basis, label)
                continue
            prev = history[t - 1]
            era_m, era_prev = era_of(m), era_of(prev)
            if kind == "seam":
                # A seam check is re-randomized by every fresh merge:
                # consecutive detectors exist within one window only.
                if era_m == era_prev:
                    add([m, prev], coord, p.basis, label)
                continue
            measurements = [m, prev]
            if (
                kind == "upgraded"
                and era_prev[0] == "window"
                and era_m != era_prev
            ):
                # Crossing a split: the half-check resumes the full
                # plaquette's value up to the seam corners' split
                # measurements.
                measurements += seam_splits[era_prev[1]]
            add(measurements, coord, p.basis, label)

    # --- final transversal readout: per-patch data-parity detectors ---
    for side in ("a", "b"):
        for p_local in layout.local.plaquettes:
            if p_local.basis != spec.basis:
                continue
            merged_cell = layout.to_merged(p_local.cell, side)
            history = list(window_history(merged_cell))
            history.extend(
                builder.measurement_indices((side, ("anc", p_local.cell)))
            )
            data_ms = [
                builder.measurement_indices((side, ("data", coord)))[-1]
                for coord in p_local.data
            ]
            add(
                data_ms + [max(history)],
                (*merged_cell, len(history)),
                p_local.basis,
                side,
            )
    for side in ("a", "b"):
        logical_coords = (
            layout.local.logical_z_coords()
            if spec.basis == "Z"
            else layout.local.logical_x_coords()
        )
        observable_ms = [
            builder.measurement_indices((side, ("data", coord)))[-1]
            for coord in logical_coords
        ]
        circuit.add_observable(
            observable_ms, name=f"logical_{spec.basis}_{side}", basis=spec.basis
        )
    return sides


# ----------------------------------------------------------------------
# Certification
# ----------------------------------------------------------------------
def certify_joint_deterministic(memory: MemoryCircuit, oracle: bool = False) -> None:
    """Static determinism certificate of a VLQ lowering.

    Proves that every detector and observable is zero on the noiseless
    circuit for *every* measurement-randomness outcome (for a joint
    lowering, the seam's joint-measurement randomness must have been
    kept out of the detector map).  One backward Pauli-flow pass
    (:func:`repro.analyze.symbolic.verify_circuit`) carries every
    detector and observable at once and covers all seeds at once; a
    failure names the measurement or reset whose collapse the operator
    anticommutes with.  Raises :class:`JointCertificationError`
    otherwise.  The campaign runs this once per distinct circuit shape,
    joint or single-qubit.

    With ``oracle=True`` the sampled cross-check
    (:func:`repro.analyze.symbolic.tableau_oracle`) must agree after the
    proof (``repro``'s CLI exposes this as ``--oracle-cert``).
    """
    from repro.analyze.symbolic import (
        SymbolicCertificationError,
        certify_deterministic,
        tableau_oracle,
    )

    try:
        certify_deterministic(memory.circuit, name=memory.scheme)
    except SymbolicCertificationError as exc:
        raise JointCertificationError(str(exc)) from exc
    findings = tableau_oracle(memory.circuit, memory.scheme) if oracle else []
    if findings:
        raise JointCertificationError(
            f"{memory.scheme}: the symbolic proof passed, but "
            f"{findings[0].message} ({len(findings)} finding(s))"
        )
