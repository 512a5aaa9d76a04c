"""The array-native cold path against its object-at-a-time oracle.

``DetectorErrorModel`` keeps the detector error model as the arrays the
sampler's symptom table gives, projects them onto a basis with one
``lexsort``, ``MatchingGraph.from_dem`` groups the projected rows into
edges, and ``UnionFindDecoder`` builds its CSR adjacency with one stable
``argsort``.  ``graph_oracle`` keeps the per-mechanism path it replaced:
a dict merge, one ``add_edge`` per mechanism, and loops over the edges.
Both must agree exactly — values, order and dtypes — on every circuit
family the decoders see, on random noisy circuits, and on hand cases for
each merge rule.  The production path must build no ``FaultMechanism``
and compile each packed circuit once.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from graph_oracle import oracle_graph, oracle_projected, oracle_unionfind_arrays
from test_compiled import noisy_circuits

from repro.arch import compact_memory_circuit, natural_memory_circuit
from repro.circuits import Circuit
from repro.decoders import MatchingGraph, UnionFindDecoder
from repro.dem import DetectorErrorModel, FaultMechanism
from repro.durable import DurableExecutor, RunLedger
from repro.noise import BASELINE_HARDWARE, MEMORY_HARDWARE, ErrorModel
from repro.sim import prepare_decoding, run_memory_experiment
from repro.sim.compiled import CompiledCircuit
from repro.surface_code import baseline_memory_circuit


def assert_matches_oracle(circuit: Circuit, bases=("Z", "X")) -> None:
    """Projection, graph and union-find arrays equal the oracle's exactly."""
    dem = DetectorErrorModel(circuit)
    for basis in bases:
        projected = dem.projected(basis)
        assert projected == oracle_projected(dem, basis)
        assert all(type(f.probability) is float for f in projected)
        assert all(
            type(i) is int for f in projected for i in f.detectors + f.observables
        )

        graph = MatchingGraph.from_dem(dem, basis)
        oracle = oracle_graph(dem, basis)
        edges = [(e.u, e.v, e.probability, e.observables) for e in graph.edges]
        assert edges == [(e.u, e.v, e.probability, e.observables) for e in oracle.edges]
        assert all(
            tuple(map(type, edge)) == (int, int, float, int) for edge in edges
        )
        assert graph._edge_index == oracle._edge_index
        assert graph.detector_coords == oracle.detector_coords
        assert graph.undetectable_probability == oracle.undetectable_probability
        assert graph.decomposed_mechanisms == oracle.decomposed_mechanisms
        assert graph.undetectable_probability == dem.undetectable_logical_probability(
            basis
        )

        decoder = UnionFindDecoder(graph)
        for name, expected in oracle_unionfind_arrays(oracle).items():
            value = getattr(decoder, name)
            if isinstance(expected, np.ndarray):
                assert value.dtype == expected.dtype, name
                assert value.shape == expected.shape, name
                assert np.array_equal(value, expected), name
            else:
                assert value == expected, name
        assert all(
            type(x) is int
            for pairs in decoder._adj
            for pair in pairs
            for x in pair
        )


class TestCircuitFamilies:
    @pytest.mark.parametrize("p", [1e-3, 5e-3])
    @pytest.mark.parametrize("d", [3, 5, 7, 11])
    def test_baseline_memory(self, d, p):
        model = ErrorModel(hardware=BASELINE_HARDWARE, p=p)
        assert_matches_oracle(baseline_memory_circuit(d, model).circuit)

    @pytest.mark.parametrize("basis", ["Z", "X"])
    @pytest.mark.parametrize("schedule", ["all_at_once", "interleaved"])
    @pytest.mark.parametrize("build", [natural_memory_circuit, compact_memory_circuit])
    @pytest.mark.parametrize("d", [3, 5])
    def test_embedded_memory(self, d, build, schedule, basis):
        model = ErrorModel(hardware=MEMORY_HARDWARE, p=2e-3)
        assert_matches_oracle(build(d, model, basis=basis, schedule=schedule).circuit)

    def test_program_lowerings(self, program_lowerings):
        assert len(program_lowerings) == 6
        for circuit, _ in program_lowerings:
            assert_matches_oracle(circuit)

    @settings(max_examples=80, deadline=None)
    @given(noisy_circuits())
    def test_noisy_circuits(self, circuit):
        assert_matches_oracle(circuit)


class TestHandCases:
    @staticmethod
    def _parallel(p0: float, p1: float, p2: float) -> Circuit:
        """Three X faults whose symptoms all project onto the boundary edge
        of detector 0: the first flips no observable, the second
        observable 0 and the third observable 1."""
        c = Circuit(3)
        c.x_error([0], p0)
        c.x_error([1], p1)
        c.x_error([2], p2)
        c.measure(0, 1, 2)
        c.add_detector([0, 1, 2])
        c.add_observable([1])
        c.add_observable([2])
        return c

    def test_heavier_parallel_mechanism_takes_the_observables(self):
        # The second mechanism outweighs the first and takes over; the
        # third is lighter than the edge it joins (0.1 ⊕ 0.12), though
        # heavier than either earlier mechanism alone, so it does not.
        circuit = self._parallel(0.1, 0.12, 0.15)
        assert_matches_oracle(circuit)
        (edge,) = MatchingGraph.from_dem(DetectorErrorModel(circuit), "Z").edges
        assert (edge.u, edge.v, edge.observables) == (0, 1, 0b01)

    def test_probability_tie_keeps_the_first_observables(self):
        circuit = self._parallel(0.2, 0.2, 0.01)
        assert_matches_oracle(circuit)
        (edge,) = MatchingGraph.from_dem(DetectorErrorModel(circuit), "Z").edges
        assert edge.observables == 0

    def test_large_mechanism_is_decomposed(self):
        # X on qubit 0 fires detectors 0, 1 and 2; X on qubit 1 fires
        # detectors 1 and 2, the edge the decomposition extracts first.
        c = Circuit(2)
        c.x_error([0], 0.05)
        c.x_error([1], 0.02)
        c.measure(0, 1)
        c.add_detector([0])
        c.add_detector([0, 1])
        c.add_detector([0, 1])
        c.add_observable([0])
        assert_matches_oracle(c)
        graph = MatchingGraph.from_dem(DetectorErrorModel(c), "Z")
        assert graph.decomposed_mechanisms == 1
        assert [(e.u, e.v) for e in graph.edges] == [(1, 2), (0, 3)]

    def test_observable_only_fault(self):
        c = Circuit(2)
        c.x_error([0], 0.25)
        c.x_error([1], 0.125)
        c.measure(0, 1)
        c.add_detector([1])
        c.add_observable([0])
        assert_matches_oracle(c)
        graph = MatchingGraph.from_dem(DetectorErrorModel(c), "Z")
        assert graph.undetectable_probability == 0.25
        assert [(e.u, e.v) for e in graph.edges] == [(0, 1)]

    def test_zero_noise_circuit(self):
        model = ErrorModel(hardware=BASELINE_HARDWARE, p=1e-3)
        circuit = baseline_memory_circuit(3, model).circuit.without_noise()
        dem = DetectorErrorModel(circuit)
        assert len(dem) == 0 and dem.faults == []
        assert_matches_oracle(circuit)
        assert MatchingGraph.from_dem(dem, "Z").num_edges == 0

    def test_no_annotations(self):
        c = Circuit(1)
        c.x_error([0], 0.1)
        c.measure(0)
        assert_matches_oracle(c)


class TestProductionPath:
    def test_prepare_decoding_builds_no_fault_mechanism(self, monkeypatch):
        built = []
        init = FaultMechanism.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(FaultMechanism, "__init__", counting)
        memory = baseline_memory_circuit(
            5, ErrorModel(hardware=BASELINE_HARDWARE, p=5e-3)
        )
        setup = prepare_decoding(memory)
        assert setup.graph.num_edges > 0
        assert built == []
        # The object view still builds them, on demand.
        assert len(setup.dem.faults) == len(built) == len(setup.dem)

    @pytest.mark.parametrize("durable", [False, True], ids=["plain", "durable"])
    def test_packed_memory_run_compiles_once(self, monkeypatch, tmp_path, durable):
        compiled = []
        init = CompiledCircuit.__init__

        def counting(self, circuit):
            compiled.append(circuit)
            init(self, circuit)

        monkeypatch.setattr(CompiledCircuit, "__init__", counting)
        memory = baseline_memory_circuit(
            3, ErrorModel(hardware=BASELINE_HARDWARE, p=5e-3)
        )
        if durable:
            with RunLedger(tmp_path / "ledger.jsonl", {"command": "once"}) as ledger:
                result = run_memory_experiment(
                    memory, shots=2048, seed=7,
                    executor=DurableExecutor(ledger, workers=1),
                )
        else:
            result = run_memory_experiment(memory, shots=2048, seed=7)
        assert compiled == [memory.circuit]
        # test_compiled.py::TestPinnedRegression's union-find count.
        assert result.logical_errors == 75
