"""Tests for the static-analysis subsystem (``repro.analyze``).

Three pillars:

* **Agreement** — the backward Pauli-flow determinism proof must agree
  with the sampled stabilizer-tableau oracle on every lowered shape the
  campaign produces (single-qubit and merged-patch joint circuits, both
  embeddings, both bases), and verdict for verdict with the forward
  symbolic tableau of ``tests/symbolic_oracle.py``, on random Clifford
  circuits and on production lowerings.
* **Seeded defects** — every mutation in the corpus (stray gate before a
  final measurement, dropped reset, starved refresh deadline, orphaned
  detector, zeroed weight, skewed union-find mirror) must be flagged
  with its expected diagnostic code.
* **Matrix** — the ``repro lint`` driver runs green over the preset
  matrix (the same gate CI enforces).
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from symbolic_oracle import oracle_verify, propagate

from repro.analyze import (
    CODES,
    Diagnostic,
    LintReport,
    SymbolicCertificationError,
    certify_deterministic,
    lint_graph,
    lint_matrix,
    lint_schedule,
    static_refresh_violations,
    tableau_oracle,
    verify_circuit,
)
from repro.analyze.schedule import _static_violation_ticks
from repro.circuits import GATE_SPECS, Circuit, GateKind
from repro.core import Machine, compile_program
from repro.core.program import LogicalProgram
from repro.decoders import BatchedUnionFind, MatchingGraph, UnionFindDecoder
from repro.dem import DetectorErrorModel
from repro.noise import MEMORY_HARDWARE, ErrorModel
from repro.surface_code import baseline_memory_circuit
from repro.threshold import SCHEMES, build_memory_circuit
from repro.vlq.campaign import run_program_experiment
from repro.vlq.lowering import LoweringSpec, lower_timeline
from repro.vlq.surgery import (
    JointCertificationError,
    JointLoweringSpec,
    certify_joint_deterministic,
    lower_joint_timelines,
    partition_surgery,
)


@pytest.fixture(scope="module")
def error_model():
    return ErrorModel(hardware=MEMORY_HARDWARE, p=2e-3, scale_coherence=False)


@pytest.fixture(scope="module")
def surgery_schedule():
    machine = Machine(stack_grid=(2, 2), cavity_modes=10, distance=3,
                      embedding="compact")
    return compile_program(
        LogicalProgram.ghz(4), machine, policy="surgery_only"
    ), machine


# ----------------------------------------------------------------------
# Symbolic engine
# ----------------------------------------------------------------------
class TestSymbolic:
    def test_ghz_measurements_share_one_variable(self):
        c = Circuit(2)
        c.h(0)
        c.cx(0, 1)
        c.measure(0, 1)
        run = propagate(c)
        # Both outcomes are the same fresh random bit: their XOR is 0.
        assert run.expression([0]) == run.expression([1])
        assert run.expression([0, 1]) == 0

    def test_reset_kills_randomness(self):
        c = Circuit(1)
        c.h(0)
        c.measure(0)
        c.reset(0)
        c.measure(0)
        run = propagate(c)
        assert run.expression([1]) == 0  # post-reset outcome is fixed 0

    def test_strict_init_exposes_initial_state(self):
        c = Circuit(1)
        c.measure(0)  # no reset first: outcome IS the initial state
        run = propagate(c, strict_init=True)
        assert run.expression([0]) != 0

    @pytest.mark.parametrize("embedding", ["natural", "compact"])
    @pytest.mark.parametrize("basis", ["Z", "X"])
    def test_memory_circuit_proven_deterministic(self, embedding, basis,
                                                 error_model):
        machine = Machine(stack_grid=(1, 1), cavity_modes=10, distance=3,
                          embedding=embedding)
        schedule = compile_program(LogicalProgram().alloc(0), machine)
        spec = LoweringSpec(distance=3, embedding=embedding, basis=basis)
        lowered = lower_timeline(schedule.qubit_timeline(0), error_model, spec)
        assert verify_circuit(lowered.circuit, strict_init=True) == []

    def test_culprit_reported_for_stray_h(self, error_model):
        memory = baseline_memory_circuit(3, error_model)
        circuit = memory.circuit.without_noise()
        # A stray Hadamard right before the final data measurements makes
        # them random; the proof must name the collapse it anticommutes
        # with (walking back, the first one is a reset).
        last_measure = max(
            i for i, ins in enumerate(circuit.instructions) if ins.name == "M"
        )
        circuit.instructions.insert(
            last_measure, circuit.instructions[0].__class__(
                "H", (circuit.instructions[last_measure].targets[0],), ()
            )
        )
        findings = verify_circuit(circuit)
        assert findings and all(f.code == "SYM001" for f in findings)
        assert all("instruction #" in f.message for f in findings)
        with pytest.raises(SymbolicCertificationError):
            certify_deterministic(circuit)

    def test_stray_x_fires_deterministically(self, error_model):
        memory = baseline_memory_circuit(3, error_model)
        circuit = memory.circuit.without_noise()
        last_measure = max(
            i for i, ins in enumerate(circuit.instructions) if ins.name == "M"
        )
        circuit.instructions.insert(
            last_measure, circuit.instructions[0].__class__(
                "X", (circuit.instructions[last_measure].targets[0],), ()
            )
        )
        findings = verify_circuit(circuit)
        assert findings and {f.code for f in findings} == {"SYM002"}

    def test_dropped_reset_found_in_strict_mode(self, error_model):
        memory = baseline_memory_circuit(3, error_model)
        circuit = memory.circuit.without_noise()
        first_reset = next(
            i for i, ins in enumerate(circuit.instructions) if ins.name == "R"
        )
        del circuit.instructions[first_reset]
        # Plain mode still passes (the simulator defaults qubits to |0>)...
        assert verify_circuit(circuit) == []
        # ...strict mode proves determinism for EVERY input state, so the
        # missing reset surfaces as initial-state dependence.
        findings = verify_circuit(circuit, strict_init=True)
        assert findings and {f.code for f in findings} == {"SYM003"}


# ----------------------------------------------------------------------
# Backward certificate vs the forward symbolic-tableau oracle
# ----------------------------------------------------------------------
@st.composite
def clifford_circuits(draw):
    """Random circuits over every instruction name.

    Target lists may repeat a qubit, two-qubit layers may chain through
    one, measurements may carry flip args, and detectors and observables
    may reference one measurement more than once.
    """
    n = draw(st.integers(2, 4))
    c = Circuit(n)
    qubit = st.integers(0, n - 1)
    qubits = st.lists(qubit, min_size=1, max_size=3)
    pairs = st.lists(
        st.tuples(qubit, qubit).filter(lambda ab: ab[0] != ab[1]),
        min_size=1, max_size=2,
    ).map(lambda chosen: [q for pair in chosen for q in pair])
    # Measurements weighted up, so most circuits record several.
    names = st.sampled_from(sorted(GATE_SPECS) + ["M"] * 3)
    for _ in range(draw(st.integers(1, 30))):
        name = draw(names)
        kind = GATE_SPECS[name].kind
        paired = kind in (GateKind.UNITARY2, GateKind.NOISE2)
        targets = draw(pairs if paired else qubits)
        if kind in (GateKind.NOISE1, GateKind.NOISE2):
            c.append(name, targets, (draw(st.sampled_from([0.01, 0.2])),))
        elif name == "M":
            c.measure(*targets,
                      flip_probability=draw(st.sampled_from([0.0, 0.1])))
        else:
            c.append(name, targets)
    if not c.num_measurements:
        c.measure(0)
    measurement = st.integers(0, c.num_measurements - 1)
    for _ in range(draw(st.integers(1, 5))):
        c.add_detector(draw(st.lists(measurement, min_size=1, max_size=4)))
    for _ in range(draw(st.integers(0, 2))):
        c.add_observable(draw(st.lists(measurement, min_size=1, max_size=4)))
    return c


def _assert_verdicts_match_oracle(circuit):
    """Same code, or none, for every detector and observable, in both modes."""
    for strict_init in (False, True):
        backward = verify_circuit(circuit, strict_init=strict_init)
        forward = oracle_verify(circuit, strict_init=strict_init)
        assert [(f.code, f.location) for f in backward] == [
            (f.code, f.location) for f in forward
        ], strict_init


class TestBackwardCertificate:
    def test_sym001_names_the_collapse_met_first(self):
        def first_finding(circuit):
            circuit.add_detector([circuit.num_measurements - 1])
            (finding,) = verify_circuit(circuit)
            assert finding.code == "SYM001"
            return finding.message

        # Walking back from the last measurement, H turns its Z into an X,
        # which anticommutes with the collapse just before the H.
        c = Circuit(1).h(0)
        c.measure(0)
        assert first_finding(c).endswith(
            "anticommutes with the |0⟩ start of qubit 0"
        )
        c = Circuit(2).reset(1).h(1)
        c.measure(1)
        assert first_finding(c).endswith("the reset of qubit 1 at instruction #0")
        c = Circuit(1).reset(0)
        c.measure(0)
        c.h(0)
        c.measure(0)
        assert first_finding(c).endswith(
            "the measurement of qubit 0 at instruction #1"
        )

    @settings(max_examples=200, deadline=None)
    @given(clifford_circuits())
    def test_agrees_with_forward_oracle(self, circuit):
        _assert_verdicts_match_oracle(circuit)

    def test_program_lowerings_agree(self, program_lowerings):
        assert len(program_lowerings) == 6
        for circuit, _ in program_lowerings:
            _assert_verdicts_match_oracle(circuit)

    @pytest.mark.parametrize(
        "scheme,distance",
        [(scheme, d) for scheme in SCHEMES for d in (3, 5)] + [("baseline", 7)],
    )
    def test_memory_circuits_agree(self, scheme, distance, error_model):
        memory = build_memory_circuit(scheme, distance, error_model)
        _assert_verdicts_match_oracle(memory.circuit)


# ----------------------------------------------------------------------
# Symbolic vs tableau-oracle agreement (pinned)
# ----------------------------------------------------------------------
class TestOracleAgreement:
    @pytest.mark.parametrize("embedding", ["natural", "compact"])
    def test_joint_shapes_agree_with_oracle(self, embedding, error_model):
        machine = Machine(stack_grid=(2, 2), cavity_modes=10, distance=3,
                          embedding=embedding)
        schedule = compile_program(
            LogicalProgram.bell_pairs(4), machine, policy="surgery_only"
        )
        jspec = JointLoweringSpec(distance=3, embedding=embedding, basis="Z")
        partition = partition_surgery(schedule)
        assert partition.pairs, "surgery_only bell pairs must produce joint pairs"
        for (qa, qb), spans in partition.pairs:
            lowered = lower_joint_timelines(
                schedule.qubit_timeline(qa), schedule.qubit_timeline(qb),
                spans, error_model, jspec,
            )
            symbolic_ok = verify_circuit(lowered.circuit) == []
            assert symbolic_ok == (tableau_oracle(lowered.circuit) == [])
            assert symbolic_ok  # and both say: deterministic
            # the certify entry point agrees too, oracle included
            certify_joint_deterministic(lowered, oracle=True)

    def test_single_shapes_agree_with_oracle(self, surgery_schedule,
                                             error_model):
        schedule, machine = surgery_schedule
        spec = LoweringSpec(distance=3, embedding=machine.embedding, basis="Z")
        for qubit in sorted(schedule.residences):
            lowered = lower_timeline(schedule.qubit_timeline(qubit), error_model, spec)
            symbolic_ok = verify_circuit(lowered.circuit) == []
            assert symbolic_ok == (tableau_oracle(lowered.circuit) == [])
            assert symbolic_ok

    def test_broken_circuit_rejected_by_both(self, error_model):
        memory = baseline_memory_circuit(3, error_model)
        circuit = memory.circuit.without_noise()
        last_measure = max(
            i for i, ins in enumerate(circuit.instructions) if ins.name == "M"
        )
        circuit.instructions.insert(
            last_measure, circuit.instructions[0].__class__(
                "X", (circuit.instructions[last_measure].targets[0],), ()
            )
        )
        assert verify_circuit(circuit) != []
        assert tableau_oracle(circuit) != []

    @staticmethod
    def _coins():
        """Eight detectors, each a fair coin."""
        c = Circuit(8)
        c.reset(*range(8))
        c.h(*range(8))
        for m in c.measure(*range(8)):
            c.add_detector([m])
        return c

    def test_oracle_flags_non_deterministic_detectors(self):
        # The proof finds every coin random, and the two sampled tableau
        # runs see some of them fire.
        coins = self._coins()
        assert {f.code for f in verify_circuit(coins)} == {"SYM001"}
        findings = tableau_oracle(coins, location="coins")
        assert findings
        assert {(f.code, f.location) for f in findings} == {("SYM002", "coins:oracle")}
        assert tableau_oracle(Circuit(1).reset(0)) == []

    def test_certificate_raises_when_the_oracle_disagrees(self, monkeypatch):
        import repro.analyze.symbolic as symbolic

        # Stub the proof to pass, so only the oracle can object.
        monkeypatch.setattr(symbolic, "certify_deterministic", lambda c, name: None)
        memory = SimpleNamespace(circuit=self._coins(), scheme="coins")
        certify_joint_deterministic(memory)
        with pytest.raises(JointCertificationError, match="tableau oracle"):
            certify_joint_deterministic(memory, oracle=True)

    def test_campaign_certifies_via_symbolic_path(self, error_model):
        machine = Machine(stack_grid=(2, 2), cavity_modes=10, distance=3,
                          embedding="compact")
        result = run_program_experiment(
            LogicalProgram.bell_pairs(4), machine, error_model, shots=20,
            policy="surgery_only", correlated=True, oracle_cert=True,
        )
        assert result.pieces is not None
        assert any(len(piece.qubits) == 2 for piece in result.pieces)


# ----------------------------------------------------------------------
# Schedule analysis
# ----------------------------------------------------------------------
class TestSchedule:
    def test_good_schedule_is_clean(self, surgery_schedule):
        schedule, _ = surgery_schedule
        assert lint_schedule(schedule) == []

    def test_static_audit_matches_replay_everywhere(self):
        for policy in ("auto", "surgery_only"):
            for insert_refresh in (True, False):
                machine = Machine(stack_grid=(2, 2), cavity_modes=10,
                                  distance=3, embedding="compact")
                schedule = compile_program(
                    LogicalProgram.ghz(6), machine, policy=policy,
                    insert_refresh=insert_refresh,
                )
                assert (
                    _static_violation_ticks(schedule)
                    == schedule.refresh_violations
                )

    def test_k3_starvation_is_static_sch003(self):
        # The k<6 starvation class found dynamically in PR 4: a 6-step
        # surgery CNOT on a k=3 stack makes the deadline unserviceable.
        machine = Machine(stack_grid=(2, 2), cavity_modes=3, distance=3,
                          embedding="compact")
        schedule = compile_program(
            LogicalProgram.ghz(6), machine, policy="surgery_only"
        )
        assert schedule.refresh_violations > 0
        violations = static_refresh_violations(schedule)
        assert violations, "static analysis must find the starvation"
        qubit, first_t, staleness, deadline = violations[0]
        assert deadline == 3 and staleness > deadline
        findings = lint_schedule(schedule)
        codes = {f.code for f in findings}
        assert codes == {"SCH003"}  # and NOT SCH005: static == replay
        assert any("structurally unserviceable" in f.message for f in findings)

    def test_skewed_deadline_flagged(self, surgery_schedule):
        schedule, _ = surgery_schedule
        # Skew the replay record: pretend the audit saw no violations
        # while removing a refresh, so static and replay disagree.
        qubit = next(q for q in sorted(schedule.refresh_times)
                     if schedule.refresh_times[q])
        saved_times = schedule.refresh_times
        saved_violations = schedule.refresh_violations
        try:
            schedule.refresh_times = {
                q: ([] if q == qubit else list(ts))
                for q, ts in saved_times.items()
            }
            findings = lint_schedule(schedule)
            codes = {f.code for f in findings}
            assert "SCH003" in codes or "SCH005" in codes
        finally:
            schedule.refresh_times = saved_times
            schedule.refresh_violations = saved_violations

    def test_capacity_overflow_flagged(self, surgery_schedule):
        schedule, _ = surgery_schedule
        # Move every qubit's first residence onto one stack.
        saved = schedule.residences
        stack = next(iter(saved.values()))[0].stack
        crowded = {
            q: [ivs[0].__class__(stack, ivs[0].start, ivs[0].end)]
            + list(ivs[1:])
            for q, ivs in saved.items()
        }
        # Build a machine with capacity 1 view by monkeypatching modes.
        try:
            schedule.residences = crowded
            object.__setattr__(schedule.machine, "cavity_modes", 1)
            findings = lint_schedule(schedule)
            assert "SCH001" in {f.code for f in findings}
        finally:
            schedule.residences = saved
            object.__setattr__(schedule.machine, "cavity_modes", 10)

    def test_double_booked_qubit_flagged(self, surgery_schedule):
        schedule, _ = surgery_schedule
        events = schedule.events
        long_event = next(e for e in events if e.duration >= 2)
        clone = long_event.__class__(
            start=long_event.start,
            duration=long_event.duration,
            name="PHANTOM",
            qubits=long_event.qubits,
            stacks=long_event.stacks,
        )
        try:
            schedule.events = list(events) + [clone]
            findings = lint_schedule(schedule)
            assert "SCH002" in {f.code for f in findings}
        finally:
            schedule.events = events


# ----------------------------------------------------------------------
# Graph analysis
# ----------------------------------------------------------------------
class TestGraph:
    @pytest.fixture(scope="class")
    def setup(self):
        model = ErrorModel(hardware=MEMORY_HARDWARE, p=2e-3,
                           scale_coherence=False)
        memory = baseline_memory_circuit(3, model)
        dem = DetectorErrorModel(memory.circuit)
        return dem, MatchingGraph.from_dem(dem, "Z")

    def _fresh(self, dem):
        return MatchingGraph.from_dem(dem, "Z")

    def test_good_graph_is_clean(self, setup):
        dem, graph = setup
        decoder = UnionFindDecoder(graph)
        assert lint_graph(graph, dem, "Z", decoder) == []

    def test_orphaned_detector_flagged(self, setup):
        dem, _ = setup
        graph = self._fresh(dem)
        keep = [e for e in graph.edges if 0 not in (e.u, e.v)]
        graph.edges = keep
        graph._edge_index = {
            (min(e.u, e.v), max(e.u, e.v)): i for i, e in enumerate(keep)
        }
        codes = {f.code for f in lint_graph(graph, dem, "Z")}
        assert "GRF001" in codes  # detector 0 cannot reach the boundary
        assert "GRF004" in codes  # its faults are no longer covered

    def test_zeroed_weight_flagged(self, setup):
        dem, _ = setup
        graph = self._fresh(dem)
        graph.edges[0].probability = 0.5  # weight ln(1) = 0
        codes = {f.code for f in lint_graph(graph)}
        assert codes == {"GRF002"}

    def test_negative_probability_flagged(self, setup):
        dem, _ = setup
        graph = self._fresh(dem)
        graph.edges[0].probability = 0.0
        codes = {f.code for f in lint_graph(graph)}
        assert codes == {"GRF002"}

    def test_skewed_mirror_flagged(self, setup):
        dem, _ = setup
        graph = self._fresh(dem)
        decoder = UnionFindDecoder(graph)
        decoder._eobs[1] ^= 1
        findings = lint_graph(graph, decoder=decoder)
        assert {f.code for f in findings} == {"GRF003"}
        assert any("_eobs" in f.message for f in findings)

    def test_skewed_csr_flagged(self, setup):
        dem, _ = setup
        graph = self._fresh(dem)
        decoder = UnionFindDecoder(graph)
        decoder.adj_other[0] += 1
        assert {f.code for f in lint_graph(graph, decoder=decoder)} == {"GRF003"}

    def test_batched_kernel_clean_and_copy_flagged(self, setup):
        dem, _ = setup
        graph = self._fresh(dem)
        decoder = UnionFindDecoder(graph)
        kernel = decoder.batched_kernel()
        assert kernel is not None
        assert lint_graph(graph, decoder=decoder) == []
        # A copied (non-shared) edge array breaks the bit-identity
        # contract even while its contents still agree.
        kernel.lengths = kernel.lengths.copy()
        findings = lint_graph(graph, decoder=decoder)
        assert {f.code for f in findings} == {"GRF003"}
        assert any("batched" in f.location for f in findings)

    @pytest.mark.parametrize("name", ["adj_indptr", "adj_edges", "adj_other"])
    def test_batched_kernel_copied_csr_flagged(self, setup, name):
        # The kernel grows over the flat decoder's own CSR adjacency; a
        # copy, even an equal one, could drift from it.
        dem, _ = setup
        graph = self._fresh(dem)
        decoder = UnionFindDecoder(graph)
        kernel = decoder.batched_kernel()
        setattr(kernel, name, getattr(kernel, name).copy())
        findings = lint_graph(graph, decoder=decoder)
        assert {f.code for f in findings} == {"GRF003"}
        assert [f.location for f in findings] == [f"graph:batched.{name}"]

    @pytest.mark.parametrize("mutation", ["swap_far", "padding_edge", "sentinel"])
    def test_batched_slot_tables_flagged(self, setup, mutation):
        # The kernel grows over slot tables laid out from the CSR and a
        # sentinel edge of length 0; each mis-layout is one finding.
        dem, _ = setup
        graph = self._fresh(dem)
        decoder = UnionFindDecoder(graph)
        kernel = decoder.batched_kernel()
        assert lint_graph(graph, decoder=decoder) == []
        degree = np.diff(decoder.adj_indptr)[: graph.num_detectors]
        if mutation == "swap_far":
            node = int(np.flatnonzero(degree >= 2)[0])
            kernel.slot_other[[0, 1], node] = kernel.slot_other[[1, 0], node]
            location = f"batched.slots{node}"
        elif mutation == "padding_edge":
            node = int(np.flatnonzero(degree < kernel.slot_edges.shape[0])[0])
            kernel.slot_edges[degree[node], node] = kernel.slot_edges[0, node]
            location = f"batched.slots{node}"
        else:
            kernel._len16[-1] = 1
            location = "batched.len16"
        findings = lint_graph(graph, decoder=decoder)
        assert {f.code for f in findings} == {"GRF003"}
        assert [f.location for f in findings] == [f"graph:{location}"]


# ----------------------------------------------------------------------
# Diagnostics plumbing + driver
# ----------------------------------------------------------------------
class TestDriver:
    def test_diagnostic_rejects_unknown_code(self):
        with pytest.raises(ValueError):
            Diagnostic("XXX999", "error", "here", "nope")
        with pytest.raises(ValueError):
            Diagnostic("SYM001", "fatal", "here", "nope")

    def test_report_roundtrip(self):
        report = LintReport()
        report.extend([Diagnostic("SYM001", "error", "a", "b")])
        report.count("schedules", 3)
        data = report.to_dict()
        assert data["errors"] == 1 and not data["ok"]
        assert data["checked"] == {"schedules": 3}
        assert "SYM001" in report.format_text()
        assert all(code in CODES for code in {"SYM001", "SCH003", "GRF004"})

    def test_lint_matrix_green(self):
        report = lint_matrix(
            programs=("pairs",), distances=(3,), embeddings=("compact",)
        )
        assert report.ok, report.format_text()
        assert not report.diagnostics
        # Exact coverage: a certifier that silently skips shapes fails.
        assert report.checked == {
            "instruments": 42, "schedules": 2, "circuit_shapes": 4,
            "joint_shapes": 1, "graphs": 5,
        }

    def test_lint_matrix_checks_the_batched_kernel(self, monkeypatch):
        # ``lint_matrix`` builds each decoder's kernel, so GRF003's kernel
        # checks run on every linted graph: skewed slot tables surface.
        build = BatchedUnionFind._slot_tables

        def skewed(kernel):
            edges, other = build(kernel)
            other[[0, 1]] = other[[1, 0]]
            return edges, other

        monkeypatch.setattr(BatchedUnionFind, "_slot_tables", skewed)
        report = lint_matrix(
            programs=("pairs",), distances=(3,), embeddings=("compact",)
        )
        assert {d.code for d in report.diagnostics} == {"GRF003"}
        assert any(".slots" in d.location for d in report.diagnostics)

    def test_certify_joint_raises_joint_error(self, error_model):
        machine = Machine(stack_grid=(2, 2), cavity_modes=10, distance=3,
                          embedding="compact")
        schedule = compile_program(
            LogicalProgram.bell_pairs(4), machine, policy="surgery_only"
        )
        jspec = JointLoweringSpec(distance=3, embedding="compact", basis="Z")
        (qa, qb), spans = partition_surgery(schedule).pairs[0]
        lowered = lower_joint_timelines(
            schedule.qubit_timeline(qa), schedule.qubit_timeline(qb),
            spans, error_model, jspec,
        )
        last_measure = max(
            i for i, ins in enumerate(lowered.circuit.instructions)
            if ins.name == "M"
        )
        lowered.circuit.instructions.insert(
            last_measure, lowered.circuit.instructions[0].__class__(
                "H", (lowered.circuit.instructions[last_measure].targets[0],),
                (),
            )
        )
        with pytest.raises(JointCertificationError):
            certify_joint_deterministic(lowered)
