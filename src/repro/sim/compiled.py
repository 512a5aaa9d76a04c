"""Precompiled symptom-table sampling (the *packed* backend).

:class:`CompiledCircuit` prepares a :class:`~repro.circuits.Circuit`
**once**, so the hot sampling loop neither re-interprets the Python
instruction list nor propagates a Pauli frame:

1. **Fused ops.**  Consecutive instructions of the same kind (and same
   probability argument) are merged into a single op holding flat
   target-index arrays.  Fusing unitaries is only legal when the merged
   targets are disjoint (gates on disjoint qubits commute); the lowering
   pass splits at collisions, so e.g. ``CX 0 1`` followed by ``CX 1 2``
   stays sequential.  Noise and measurement ops fuse unconditionally: a
   repeated target is just one more noise location or record slot.

2. **Symptom table.**  Every gate is Clifford and every channel Pauli,
   so a fault at a fixed place flips a fixed set of detectors and
   observables, and a shot's output bits are the XOR of the sets of the
   faults that fired in it.  One backward pass over the fused ops —
   Clifford conjugation, vectorized over each op's targets on uint64
   words of detector and observable bits — records that set for every
   *noise location*: one target of a noise op and one Pauli part of it
   (X or Z, per operand for ``DEPOLARIZE2``; a Y hits both parts), or
   one record slot of a measurement with a flip probability.  The table
   is CSR over the nonzero words of each set and is built in bounded
   chunks, so no dense ``(locations × annotations)`` array is ever
   materialised.

3. **Sampling.**  The noise ops are drawn in compiled-op order.  Hit
   *positions* come from geometric inter-arrival gaps — exactly iid
   Bernoulli(p), but O(n·p) random numbers instead of O(n).  Then one
   vectorized pass maps every hit to its table rows and XORs their words
   into per-shot uint64 words, which unpack into
   :class:`~repro.sim.frame.DetectionData`.

4. **Error model.**  :meth:`CompiledCircuit.fault_mechanisms` merges the
   symptoms of every fault a draw can pick into the detector error model
   (:mod:`repro.dem`), so decoder and sampler share one backward pass.

RNG contract (the packed canonical stream)
------------------------------------------
A sample is a pure function of ``(circuit, seed, shots)``.  The packed
backend consumes, in compiled-op order, one geometric-gap batch per noise
op and per measurement op with a flip probability, plus one ``integers``
draw for the Pauli kind of a ``DEPOLARIZE1``/``DEPOLARIZE2`` batch with
hits.  A hit is a flat index into its op's C-order ``(targets, shots)``
grid.  How the hits reach the output (frame propagation or the symptom
table) is not part of the stream: any GF(2)-exact method gives the same
bits.  The reference bool-array simulator draws one float array per
target per instruction instead, so matched seeds across backends give
statistically identical — not bitwise identical — noise.
"""

from __future__ import annotations

import math

import numpy as np

from repro.circuits import Circuit, GateKind
from repro.dem.model import group_ends, group_starts, xor_scan
from repro.sim.frame import DetectionData

__all__ = ["CompiledCircuit", "compile_circuit"]


# Opcodes of the lowered instruction set.
_OP_H = 0
_OP_S = 1
_OP_CX = 2
_OP_CZ = 3
_OP_SWAP = 4
_OP_RESET = 5
_OP_MEASURE = 6
_OP_DEP1 = 7
_OP_DEP2 = 8
_OP_XERR = 9
_OP_YERR = 10
_OP_ZERR = 11

_UNITARY_OPS = {
    "H": _OP_H,
    "S": _OP_S,
    "S_DAG": _OP_S,  # same frame action as S (phases don't move frames)
    "CX": _OP_CX,
    "CZ": _OP_CZ,
    "SWAP": _OP_SWAP,
}
_NOISE1_OPS = {
    "DEPOLARIZE1": _OP_DEP1,
    "X_ERROR": _OP_XERR,
    "Y_ERROR": _OP_YERR,
    "Z_ERROR": _OP_ZERR,
}

# A hit's *kind* selects the table parts it touches (rows of _PART_BITS):
# a DEPOLARIZE2 hit is kind ``which`` (1..15), a DEPOLARIZE1 hit kind
# ``_DEP1_KIND + which`` (0 X, 1 Y, 2 Z); the undrawn ops have fixed kinds.
_DEP1_KIND = 16
_ONE_PART = 19  # X_ERROR, Z_ERROR, measurement flip: part 0
_TWO_PARTS = 20  # Y_ERROR: the X and the Z part


def _part_bits() -> np.ndarray:
    """``(kinds, 4)`` bool: does a hit of this kind touch table part j?

    Parts are ``(X, Z)`` of the target for one-qubit ops and
    ``(X_a, Z_a, X_b, Z_b)`` for ``DEPOLARIZE2``, whose ``which`` packs
    the Paulis on ``a`` and ``b`` as ``4·P_a + P_b`` with I, X, Y, Z = 0..3.
    """
    xz = (0b00, 0b01, 0b11, 0b10)  # I, X, Y, Z -> (X part, Z part) bits
    masks = [xz[w >> 2] | xz[w & 3] << 2 for w in range(16)]
    masks += [xz[w + 1] for w in range(3)]
    masks += [0b01, 0b11]
    return np.array([[m >> j & 1 for j in range(4)] for m in masks], dtype=bool)


_PART_BITS = _part_bits()

#: uint64 words per symptom-table build chunk (256 KiB).
_CHUNK_WORDS = 1 << 15


def _bernoulli_positions(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    """Strictly increasing positions of iid Bernoulli(p) hits in ``[0, n)``.

    Uses geometric inter-arrival gaps, so the cost is O(n·p) random draws
    — the sparse-noise trick that makes packed noise channels cheap.  The
    distribution over hit sets is exactly that of n independent coins.
    """
    if n <= 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(n, dtype=np.int64)
    # ndarray methods, not np.* wrappers: this runs once per noise op.
    chunks = []
    last = -1
    while last < n:
        mean = (n - last) * p
        size = int(mean + 10.0 * math.sqrt(mean + 1.0)) + 16
        positions = rng.geometric(p, size).cumsum()
        positions += last
        chunks.append(positions)
        last = int(positions[-1])
    positions = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
    return positions[: positions.searchsorted(n)]


def _csr_entries(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entry indices of CSR ``rows`` (concatenated in order) and row lengths."""
    start = indptr[rows]
    lengths = indptr[rows + 1] - start
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(start - ends + lengths, lengths), lengths


def _annotation_words(circuit: Circuit, detector_words: int, words: int):
    """CSR ``(indptr, cols, values)``: each measurement's annotation words.

    Bit ``i`` of the word row is detector ``i``; observable ``j`` sits at
    bit ``64·detector_words + j``.  A measurement referenced twice by one
    annotation cancels, as XOR requires.
    """
    meas: list[int] = []
    bits: list[int] = []
    for i, det in enumerate(circuit.detectors):
        meas.extend(det.measurements)
        bits.extend([i] * len(det.measurements))
    base = 64 * detector_words
    for j, observable in enumerate(circuit.observables):
        meas.extend(observable.measurements)
        bits.extend([base + j] * len(observable.measurements))
    bit = np.asarray(bits, dtype=np.int64)
    key = np.asarray(meas, dtype=np.int64) * words + (bit >> 6)
    value = np.left_shift(np.uint64(1), (bit & 63).astype(np.uint64))
    order = np.argsort(key)
    key, value = key[order], value[order]
    if key.size:
        first = np.flatnonzero(np.diff(key, prepend=-1))
        key, value = key[first], np.bitwise_xor.reduceat(value, first)
        keep = value != 0
        key, value = key[keep], value[keep]
    row, col = np.divmod(key, words)
    indptr = np.zeros(circuit.num_measurements + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=circuit.num_measurements), out=indptr[1:])
    return indptr, col, value


class _SymptomTable:
    """CSR rows of nonzero symptom words, appended in bounded chunks.

    It starts with the rows of an existing CSR table.  Dense rows are then
    gathered into one reusable chunk buffer and peeled to their nonzero
    words whenever it fills, so peak memory is the chunk plus the sparse
    table, never ``rows × words``.
    """

    def __init__(self, words: int, indptr: np.ndarray, cols: np.ndarray, values):
        self.words = words
        self.chunk = np.empty((max(1, _CHUNK_WORDS // words), words), dtype=np.uint64)
        self.fill = 0
        self.rows = len(indptr) - 1
        self.lengths = [np.diff(indptr)]
        self.cols = [cols]
        self.values = [values]

    def gather(self, plane: np.ndarray, targets: np.ndarray) -> None:
        """Append rows ``plane[targets]``."""
        done = 0
        while done < len(targets):
            take = min(len(targets) - done, len(self.chunk) - self.fill)
            # mode="clip" writes straight into the chunk (mode="raise"
            # buffers); the targets are valid row indices by construction.
            np.take(
                plane,
                targets[done : done + take],
                axis=0,
                out=self.chunk[self.fill : self.fill + take],
                mode="clip",
            )
            self.fill += take
            done += take
            if self.fill == len(self.chunk):
                self._flush()
        self.rows += len(targets)

    def _flush(self) -> None:
        if not self.fill:
            return
        flat = self.chunk[: self.fill].reshape(-1)
        nonzero = np.flatnonzero(flat)
        row, col = np.divmod(nonzero, self.words)
        self.lengths.append(np.bincount(row, minlength=self.fill))
        self.cols.append(col)
        self.values.append(flat[nonzero])
        self.fill = 0

    def finish(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The table as CSR ``(indptr, cols, values)``."""
        self._flush()
        indptr = np.zeros(self.rows + 1, dtype=np.int64)
        np.cumsum(np.concatenate(self.lengths), out=indptr[1:])
        return indptr, np.concatenate(self.cols), np.concatenate(self.values)


def _lower(circuit: Circuit) -> list[tuple]:
    """Lower the instruction stream into fused ``(opcode, columns, param)`` ops.

    ``columns`` is a tuple of intp index arrays whose meaning depends on the
    opcode: ``(qubits,)`` for H/S/reset/1-qubit noise, ``(a, b)`` for
    2-qubit ops, ``(qubits, record_slots)`` for measurements.
    """
    ops: list[tuple] = []
    # pending op accumulator: [code, param, columns-as-lists, touched, disjoint]
    pending: list | None = None

    def flush() -> None:
        nonlocal pending
        if pending is None:
            return
        code, param, cols = pending[0], pending[1], pending[2]
        ops.append((code, tuple(np.asarray(c, dtype=np.intp) for c in cols), param))
        pending = None

    def emit(
        code: int, param, cols: list[list[int]], touched: set[int], need_disjoint: bool
    ) -> None:
        nonlocal pending
        if (
            pending is not None
            and pending[0] == code
            and pending[1] == param
            and (not need_disjoint or pending[3].isdisjoint(touched))
        ):
            for acc, new in zip(pending[2], cols):
                acc.extend(new)
            pending[3] |= touched
            return
        flush()
        pending = [code, param, [list(c) for c in cols], set(touched), need_disjoint]

    def emit_unitary(code: int, groups: list[tuple[int, ...]]) -> None:
        # Split at target collisions: within one fused op every touched
        # qubit must be unique or fancy-index writes would silently drop
        # the second application.
        atom: list[tuple[int, ...]] = []
        touched: set[int] = set()
        for group in groups:
            if not touched.isdisjoint(group):
                _emit_atom(code, atom)
                atom, touched = [], set()
            atom.append(group)
            touched.update(group)
        _emit_atom(code, atom)

    def _emit_atom(code: int, atom: list[tuple[int, ...]]) -> None:
        if not atom:
            return
        width = len(atom[0])
        cols = [[g[i] for g in atom] for i in range(width)]
        touched = {q for g in atom for q in g}
        emit(code, None, cols, touched, need_disjoint=True)

    next_measurement = 0
    for ins in circuit.instructions:
        kind = ins.kind
        if kind is GateKind.UNITARY1:
            code = _UNITARY_OPS.get(ins.name)
            if code is None:
                continue  # Pauli gates and I do not move error frames
            emit_unitary(code, [(t,) for t in ins.targets])
        elif kind is GateKind.UNITARY2:
            emit_unitary(_UNITARY_OPS[ins.name], ins.target_groups())
        elif kind is GateKind.RESET:
            emit_unitary(_OP_RESET, [(t,) for t in ins.targets])
        elif kind is GateKind.MEASURE:
            flip = ins.args[0] if ins.args else 0.0
            slots = list(range(next_measurement, next_measurement + len(ins.targets)))
            next_measurement += len(ins.targets)
            emit(_OP_MEASURE, flip, [list(ins.targets), slots], set(), need_disjoint=False)
        elif kind is GateKind.NOISE1:
            p = ins.args[0]
            if p > 0.0:
                emit(
                    _NOISE1_OPS[ins.name], p, [list(ins.targets)], set(), need_disjoint=False
                )
        elif kind is GateKind.NOISE2:
            p = ins.args[0]
            if p > 0.0:
                emit(
                    _OP_DEP2,
                    p,
                    [list(ins.targets[::2]), list(ins.targets[1::2])],
                    set(),
                    need_disjoint=False,
                )
        else:  # pragma: no cover
            raise NotImplementedError(ins.name)
    flush()
    return ops


class CompiledCircuit:
    """A circuit lowered once into noise draws plus a symptom table.

    Instances are cheap to pickle (the draw list plus the symptom
    table's CSR arrays), which is how a persistent fleet's ``cfg``
    message re-arms its workers; a call's own fleet hands them over at
    fork instead.
    """

    def __init__(self, circuit: Circuit):
        self.num_qubits = circuit.num_qubits
        self.num_measurements = circuit.num_measurements
        self.num_detectors = circuit.num_detectors
        self.num_observables = circuit.num_observables
        self._detector_words = (self.num_detectors + 63) >> 6
        self._words = max(1, self._detector_words + ((self.num_observables + 63) >> 6))
        draws = self._backward_pass(circuit)
        # (opcode, target count, probability) per draw, in compiled-op order.
        self._draws = [(code, n, p) for code, n, p, _, _ in draws]
        kind, width, first = np.array(
            [(kind, n, first) for _, n, _, kind, first in draws], dtype=np.int64
        ).reshape(-1, 3).T
        self._kind = kind
        # Table row of (draw, part, target 0); part j starts j·n rows on.
        self._part_base = first[:, None] + width[:, None] * np.arange(4)

    def _backward_pass(self, circuit: Circuit) -> list[tuple]:
        """Build the symptom table; returns ``(code, n, p, kind, first row)``.

        Rows ``[0, num_measurements)`` are the measurements' annotation
        words: the symptom of flipping record slot ``m`` is row ``m``.
        ``x[q]``/``z[q]`` hold the annotation words an X/Z inserted on
        qubit ``q`` at the current point would flip.  Walking backwards,
        a Clifford conjugates them, a measurement XORs its annotation
        words into ``x``, and a reset clears both.  Noise ops do not move
        them, so each run of consecutive noise ops is gathered into the
        table with one ``take`` before the next op changes them; an op's
        parts are consecutive row blocks of ``n`` rows from ``first``.
        """
        words = self._words
        m_indptr, m_cols, m_values = _annotation_words(
            circuit, self._detector_words, words
        )
        nq = max(self.num_qubits, 1)
        sens = np.zeros((2 * nq, words), dtype=np.uint64)
        x, z = sens[:nq], sens[nq:]
        table = _SymptomTable(words, m_indptr, m_cols, m_values)
        draws = []
        run: list[np.ndarray] = []  # sens rows of the pending noise run
        run_rows = 0
        for code, cols, param in reversed(_lower(circuit)):
            if code >= _OP_DEP1:
                if code == _OP_DEP2:
                    a, b = cols
                    parts: tuple = (a, a + nq, b, b + nq)
                    kind = 0
                else:
                    (q,) = cols
                    if code == _OP_DEP1:
                        parts, kind = (q, q + nq), _DEP1_KIND
                    elif code == _OP_YERR:
                        parts, kind = (q, q + nq), _TWO_PARTS
                    else:
                        parts = (q,) if code == _OP_XERR else (q + nq,)
                        kind = _ONE_PART
                n = len(parts[0])
                draws.append((code, n, param, kind, table.rows + run_rows))
                run.extend(parts)
                run_rows += n * len(parts)
                continue
            if run:
                table.gather(sens, np.concatenate(run))
                run, run_rows = [], 0
            if code == _OP_CX:
                c, t = cols
                x[c] ^= x[t]
                z[t] ^= z[c]
            elif code == _OP_MEASURE:
                q, slots = cols
                if param:  # a fused op's record slots are consecutive
                    draws.append((code, len(q), param, _ONE_PART, int(slots[0])))
                entries, lengths = _csr_entries(m_indptr, slots)
                # Unbuffered: a fused op may measure one qubit twice.
                np.bitwise_xor.at(
                    x.reshape(-1),
                    np.repeat(q * words, lengths) + m_cols[entries],
                    m_values[entries],
                )
            elif code == _OP_H:
                (q,) = cols
                swapped = x[q]
                x[q] = z[q]
                z[q] = swapped
            elif code == _OP_S:
                (q,) = cols
                x[q] ^= z[q]
            elif code == _OP_CZ:
                a, b = cols
                x[a] ^= z[b]
                x[b] ^= z[a]
            elif code == _OP_SWAP:
                a, b = cols
                swapped = x[a]
                x[a] = x[b]
                x[b] = swapped
                swapped = z[a]
                z[a] = z[b]
                z[b] = swapped
            elif code == _OP_RESET:
                (q,) = cols
                x[q] = 0
                z[q] = 0
            else:  # pragma: no cover
                raise NotImplementedError(code)
        if run:
            table.gather(sens, np.concatenate(run))
        self._indptr, self._cols, self._values = table.finish()
        draws.reverse()
        return draws

    # ------------------------------------------------------------------
    def sample(
        self, shots: int, seed: int | np.random.SeedSequence | np.random.Generator | None = None
    ) -> DetectionData:
        """Sample detector/observable values for ``shots`` Monte-Carlo shots.

        Same return type as :func:`repro.sim.frame.sample_detection_data`;
        see the module docstring for the RNG contract.
        """
        if shots < 1:
            raise ValueError("need at least one shot")
        rng = (
            seed
            if isinstance(seed, np.random.Generator)
            else np.random.default_rng(seed)
        )
        hits, hit_draws, paulis = [], [], []
        for k, (code, n, p) in enumerate(self._draws):
            pos = _bernoulli_positions(rng, n * shots, p)
            if pos.size:
                hits.append(pos)
                hit_draws.append(k)
                if code == _OP_DEP1:
                    paulis.append(rng.integers(0, 3, pos.size))
                elif code == _OP_DEP2:
                    paulis.append(rng.integers(1, 16, pos.size))
        words = np.zeros((shots, self._words), dtype=np.uint64)
        if hits:
            draw = np.repeat(np.asarray(hit_draws), [h.size for h in hits])
            target, shot = np.divmod(np.concatenate(hits), shots)
            kind = self._kind[draw]
            if paulis:
                kind[kind < _ONE_PART] += np.concatenate(paulis)
            self._xor_symptoms(words, shot, draw, target, kind)
        # Bit b of a word is bit b & 7 of byte b >> 3 only little-endian;
        # astype('<u8') byteswaps on big-endian hosts (a no-op view elsewhere).
        octets = words.astype("<u8", copy=False).view(np.uint8)
        split = 8 * self._detector_words
        detectors = np.unpackbits(
            octets[:, :split], axis=1, count=self.num_detectors, bitorder="little"
        )
        observables = np.unpackbits(
            octets[:, split:], axis=1, count=self.num_observables, bitorder="little"
        )
        return DetectionData(detectors.view(bool), observables.view(bool))

    def _xor_symptoms(self, words, shot, draw, target, kind) -> None:
        """XOR the table rows of each hit into row ``shot`` of ``words``: a
        hit is one fault of ``draw`` on ``target``, on the parts of ``kind``."""
        hit, part = np.nonzero(_PART_BITS[kind])
        rows = self._part_base[draw[hit], part] + target[hit]
        entries, lengths = _csr_entries(self._indptr, rows)
        np.bitwise_xor.at(
            words.reshape(-1),
            np.repeat(shot[hit] * self._words, lengths) + self._cols[entries],
            self._values[entries],
        )

    def fault_mechanisms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The detector error model: each distinct symptom and its probability.

        A draw's faults are the alternatives :meth:`sample` picks among:
        X, Y or Z on a ``DEPOLARIZE1`` target (p/3 each), one of the 15
        Paulis on a ``DEPOLARIZE2`` pair (p/15), or the one fault of an
        ``X/Y/Z_ERROR`` target or a flippable record slot (p).  Faults with
        equal symptoms combine as ``e + p − 2ep``, folded over the draws
        last to first.  That is the order of a backward pass over the
        instructions, up to order within a draw, whose faults share one
        probability; so the floats are exactly such a pass's.

        Returns ``(probability, detectors, observables)``: one row per
        symptom, in ``(detectors, observables)`` tuple order; index rows
        ascend and are right-padded with -1, so a prefix sorts first.
        """
        detectors, observables, draw, probability = self._elementary_faults()
        # Sort on the padded indices; within a group, later draws first.
        order = np.lexsort((-draw, *observables[::-1], *detectors[::-1]))
        detectors, observables = detectors[:, order], observables[:, order]
        p = probability[draw[order]]
        first = group_starts(detectors.T, observables.T)
        combined = xor_scan(p, first)[group_ends(first, len(p))]
        return combined, detectors[:, first].T, observables[:, first].T

    def _elementary_faults(self):
        """Every fault with a nonempty symptom, in draw order, XORed one
        bounded chunk of faults at a time: its padded detector and
        observable indices (one column per fault, so sort keys are
        contiguous) and its draw; and per draw, its faults' probability.
        """
        kind = self._kind
        alternatives = np.select([kind == 0, kind == _DEP1_KIND], [15, 3], 1)
        first_kind = kind + (kind == 0)  # a DEPOLARIZE2 hit is kind 1..15
        count = np.array([n for _, n, _ in self._draws], dtype=np.int64) * alternatives
        ends = np.cumsum(count)
        total = int(ends[-1]) if ends.size else 0
        split = 64 * self._detector_words
        chunk = np.empty((max(1, _CHUNK_WORDS // self._words), self._words), np.uint64)
        detectors, observables, draws = [], [], []
        for start in range(0, total, len(chunk)):
            fault = np.arange(start, min(start + len(chunk), total))
            draw = ends.searchsorted(fault, side="right")
            target, alternative = np.divmod(
                fault - ends[draw] + count[draw], alternatives[draw]
            )
            words = chunk[: fault.size]
            words.fill(0)
            self._xor_symptoms(
                words, fault - start, draw, target, first_kind[draw] + alternative
            )
            # Set bits ascend within a fault: words, then their bytes
            # (little-endian), then the bits of each byte, in order.
            word = np.flatnonzero(words)
            octets = words.reshape(-1)[word].astype("<u8", copy=False).view(np.uint8)
            byte = np.flatnonzero(octets)
            offset = np.flatnonzero(np.unpackbits(octets[byte], bitorder="little"))
            byte = byte[offset >> 3]
            row, col = np.divmod(word[byte >> 3], self._words)
            bit = 64 * col + 8 * (byte & 7) + (offset & 7)
            nonempty, owner = np.unique(row, return_inverse=True)
            obs = bit >= split
            detectors.append(_padded(owner[~obs], bit[~obs], nonempty.size))
            observables.append(_padded(owner[obs], bit[obs] - split, nonempty.size))
            draws.append(draw[nonempty].astype(np.int32))
        return (
            _stacked(detectors),
            _stacked(observables),
            np.concatenate(draws) if draws else np.empty(0, np.int32),
            np.array([p for _, _, p in self._draws], dtype=np.float64) / alternatives,
        )


def _padded(owner: np.ndarray, value: np.ndarray, columns: int) -> np.ndarray:
    """``(width, columns)`` int32: column ``c`` holds, in order, the values
    owned by ``c`` (``owner`` is nondecreasing), padded below with -1.
    """
    counts = np.bincount(owner, minlength=columns)
    out = np.full((int(counts.max(initial=0)), columns), -1, dtype=np.int32)
    out[np.arange(owner.size) - (np.cumsum(counts) - counts)[owner], owner] = value
    return out


def _stacked(blocks: list[np.ndarray]) -> np.ndarray:
    """Join -1-padded int32 blocks side by side, padding them to the tallest."""
    width = max((len(b) for b in blocks), default=0)
    out = np.full((width, sum(b.shape[1] for b in blocks)), -1, dtype=np.int32)
    column = 0
    for block in blocks:
        out[: len(block), column : column + block.shape[1]] = block
        column += block.shape[1]
    return out


def compile_circuit(circuit: Circuit) -> CompiledCircuit:
    """Lower ``circuit`` once for repeated symptom-table sampling."""
    return CompiledCircuit(circuit)
