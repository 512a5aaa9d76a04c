"""Static determinism proofs by one backward Pauli-flow pass.

The dynamic certificate (run the noiseless circuit on the tableau
simulator for a couple of seeds and check every detector comes out 0)
can only *sample* the randomness of a circuit.  This pass proves it for
every seed at once.  A detector or observable is the XOR of some
Z-measurement outcomes, so it reads the eigenvalue of a Pauli operator.
Walking the circuit **backwards** once, the pass carries every such
operator at the same time (the Heisenberg picture): each gate conjugates
it by the gate's inverse, and each measurement it reads multiplies that
measurement's Z into it.  An operator is then

* **random** (SYM001) when it anticommutes with a collapse on the way
  back: a Z measurement or a reset of a qubit where it has an X part,
  or the |0⟩ start of such a qubit;
* **initial-state dependent** (SYM003, only with ``strict_init=True``,
  which allows every computational-basis input state) when a Z part is
  left at the start, on a qubit the circuit never reset;
* otherwise deterministic with the value of the sign the walk
  accumulated, and a set sign is a detector or observable that always
  fires (SYM002).

This is the determinism test of Stim's error analyzer (Gidney,
arXiv:2103.02202).  Operators are bit columns — bit ``i`` is detector
``i``, bit ``num_detectors + j`` observable ``j`` — so per qubit the
pass keeps one Python-int mask of the operators with an X part there
and one of those with a Z part, plus one sign mask for all operators.
The gate rules are the Aaronson–Gottesman phase rules applied to
columns instead of rows.  Noise channels and measurement-flip args are
skipped in place: determinism is a property of the noiseless skeleton.

:func:`tableau_oracle` is the proof's sampled cross-check on
:class:`repro.stabilizer.TableauSimulator` (``--oracle-cert``).
"""

from __future__ import annotations

from repro.analyze.diagnostics import Diagnostic
from repro.circuits import Circuit
from repro.stabilizer import TableauSimulator

__all__ = [
    "SymbolicCertificationError",
    "certify_deterministic",
    "tableau_oracle",
    "verify_circuit",
]


class SymbolicCertificationError(Exception):
    """A circuit failed the symbolic determinism proof."""

    def __init__(self, message: str, diagnostics: list[Diagnostic]):
        super().__init__(message)
        self.diagnostics = diagnostics


def _flow_back(
    circuit: Circuit, reads: dict[int, int]
) -> tuple[list[int], int, int, list[tuple[int, str]]]:
    """Walk ``circuit`` backwards over every operator at once.

    ``reads[r]`` is the mask of operators that read measurement record
    ``r``.  Returns the per-qubit Z masks left at the start, the sign
    mask, the mask of operators that anticommuted with some collapse,
    and the collapses met, in walking order, each with the mask of
    operators that first anticommuted there.
    """
    n = circuit.num_qubits
    xs = [0] * n
    zs = [0] * n
    sign = 0
    random = 0  # operators already found to anticommute with a collapse
    collapses: list[tuple[int, str]] = []
    instructions = circuit.instructions
    record = sum(len(ins.targets) for ins in instructions if ins.name == "M")
    for index in range(len(instructions) - 1, -1, -1):
        ins = instructions[index]
        name = ins.name
        targets = ins.targets
        if name == "CX":
            for i in range(len(targets) - 2, -1, -2):
                c, t = targets[i], targets[i + 1]
                xc, zc, xt, zt = xs[c], zs[c], xs[t], zs[t]
                sign ^= xc & zt & ~(xt ^ zc)
                xs[t] = xt ^ xc
                zs[c] = zc ^ zt
        elif name == "M":
            for q in reversed(targets):
                record -= 1
                hit = xs[q] & ~random
                if hit:
                    random |= hit
                    collapses.append(
                        (hit, f"the measurement of qubit {q} at instruction #{index}")
                    )
                zs[q] ^= reads.get(record, 0)
        elif name == "R":
            for q in targets:
                hit = xs[q] & ~random
                if hit:
                    random |= hit
                    collapses.append(
                        (hit, f"the reset of qubit {q} at instruction #{index}")
                    )
                xs[q] = zs[q] = 0
        elif name == "H":
            for q in targets:
                x, z = xs[q], zs[q]
                sign ^= x & z
                xs[q], zs[q] = z, x
        elif name == "CZ":
            for i in range(len(targets) - 2, -1, -2):
                a, b = targets[i], targets[i + 1]
                xa, xb = xs[a], xs[b]
                sign ^= xa & xb & (zs[a] ^ zs[b])
                zs[a] ^= xb
                zs[b] ^= xa
        elif name == "SWAP":
            for i in range(len(targets) - 2, -1, -2):
                a, b = targets[i], targets[i + 1]
                xs[a], xs[b] = xs[b], xs[a]
                zs[a], zs[b] = zs[b], zs[a]
        elif name == "S":
            for q in targets:
                x = xs[q]
                sign ^= x & ~zs[q]
                zs[q] ^= x
        elif name == "S_DAG":
            for q in targets:
                x = xs[q]
                sign ^= x & zs[q]
                zs[q] ^= x
        elif name == "X":
            for q in targets:
                sign ^= zs[q]
        elif name == "Y":
            for q in targets:
                sign ^= xs[q] ^ zs[q]
        elif name == "Z":
            for q in targets:
                sign ^= xs[q]
        # I and the noise channels leave every operator unchanged.
    for q in range(n):
        hit = xs[q] & ~random
        if hit:
            random |= hit
            collapses.append((hit, f"the |0⟩ start of qubit {q}"))
    return zs, sign, random, collapses


def _label(circuit: Circuit, bit: int, location: str) -> tuple[str, str]:
    """The ``(what, where)`` of operator ``bit`` for its diagnostic."""
    num_detectors = len(circuit.detectors)
    if bit < num_detectors:
        det = circuit.detectors[bit]
        return (
            f"detector {bit} (basis {det.basis})",
            f"{location}:detector[{bit}]@{det.coord}",
        )
    obs = circuit.observables[bit - num_detectors]
    return (
        f"observable {obs.name} (basis {obs.basis})",
        f"{location}:observable[{obs.name}]",
    )


def verify_circuit(
    circuit: Circuit, strict_init: bool = False, location: str = "circuit"
) -> list[Diagnostic]:
    """Prove every detector/observable deterministic; return the failures.

    The circuit may carry noise channels — the backward pass skips them
    (determinism is a property of the noiseless skeleton).  An empty
    list is a *proof* that every detector and observable is 0 for every
    measurement-randomness outcome (and, with ``strict_init``, for every
    computational-basis input state).  A SYM001 finding names the
    collapse where the operator first anticommutes, walking backwards.
    """
    operators = [det.measurements for det in circuit.detectors]
    operators += [obs.measurements for obs in circuit.observables]
    reads: dict[int, int] = {}
    for bit, measurements in enumerate(operators):
        for m in measurements:
            reads[m] = reads.get(m, 0) ^ (1 << bit)
    zs, sign, random, collapses = _flow_back(circuit, reads)
    initial = 0
    if strict_init:
        for z in zs:
            initial |= z
        initial &= ~random
    failed = random | initial | sign
    diagnostics: list[Diagnostic] = []
    if not failed:
        return diagnostics
    for bit in range(len(operators)):
        flag = 1 << bit
        if not failed & flag:
            continue
        what, where = _label(circuit, bit, location)
        if random & flag:
            cause = next(text for mask, text in collapses if mask & flag)
            code = "SYM001"
            message = f"{what} is not deterministic: it anticommutes with {cause}"
        elif initial & flag:
            qubits = [q for q, z in enumerate(zs) if z & flag]
            detail = "; ".join(
                f"initial state of qubit {q} (never reset)" for q in qubits[:3]
            )
            if len(qubits) > 3:
                detail += f"; +{len(qubits) - 3} more"
            code = "SYM003"
            message = f"{what} depends on initial state: {detail}"
        else:
            code = "SYM002"
            message = f"{what} has deterministic value 1 on the noiseless circuit"
        diagnostics.append(Diagnostic(code, "error", where, message))
    return diagnostics


def certify_deterministic(
    circuit: Circuit, name: str = "circuit", strict_init: bool = False
) -> None:
    """Raise :class:`SymbolicCertificationError` unless the proof passes."""
    diagnostics = verify_circuit(circuit, strict_init=strict_init, location=name)
    if diagnostics:
        raise SymbolicCertificationError(
            f"{name}: symbolic determinism proof failed "
            f"({len(diagnostics)} finding(s)); first: {diagnostics[0]}",
            diagnostics,
        )


def tableau_oracle(circuit: Circuit, location: str = "circuit") -> list[Diagnostic]:
    """The proof's sampled cross-check on the stabilizer tableau simulator.

    Runs the noiseless circuit at seeds 0 and 1 and returns a SYM002
    finding for every detector or observable that comes out 1.  A sample
    can miss randomness that the proof catches, never the reverse, so on
    a proven circuit any finding means the two engines disagree.
    """
    clean = circuit.without_noise()
    checks = [
        (f"detector {i} at {det.coord}", det.measurements)
        for i, det in enumerate(clean.detectors)
    ]
    checks += [
        (f"observable {obs.name}", obs.measurements) for obs in clean.observables
    ]
    findings: list[Diagnostic] = []
    for seed in (0, 1):
        record = TableauSimulator(clean.num_qubits, seed=seed).run(clean)
        for what, measurements in checks:
            if sum(record[m] for m in measurements) % 2:
                findings.append(
                    Diagnostic(
                        "SYM002",
                        "error",
                        f"{location}:oracle",
                        f"tableau oracle (seed {seed}) fires {what} "
                        "on the noiseless circuit",
                    )
                )
    return findings
