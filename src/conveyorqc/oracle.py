"""Reference simulator for logical circuits; ground truth for equivalence tests.

Deliberately shares no kernels with the device simulator: `simulate_logical`
views the 2^N state as an N-axis tensor and contracts each gate's small
matrix with the axes of its operands, so memory stays O(2^N).  `embed`,
`gate_unitary` and `circuit_unitary` build full 2^N x 2^N matrices, for
small N, as an independent matrix cross-check.
"""

from __future__ import annotations

import numpy as np

from .compiler import LogicalCircuit, LogicalGate
from .state import LogicalStateVector


def _rotation(theta: float, axis) -> np.ndarray:
    nx, ny, nz = axis
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array(
        [[c - 1j * s * nz, -s * (1j * nx + ny)], [s * (-1j * nx + ny), c + 1j * s * nz]],
        dtype=complex,
    )


def _permutation(dim: int, mapping: dict[int, int]) -> np.ndarray:
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        out[mapping.get(col, col), col] = 1.0
    return out


# Every kind but R, on its own operands: operand i maps to bit i.  CNOT's
# control is operand 0; TOFFOLI's controls are operands 0 and 1.  Read-only,
# since every gate of a kind shares its matrix.
_FIXED = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) * (1.0 / np.sqrt(2.0)),
    "CNOT": _permutation(4, {1: 3, 3: 1}),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "SWAP": _permutation(4, {1: 2, 2: 1}),
    "TOFFOLI": _permutation(8, {3: 7, 7: 3}),
}
for _m in _FIXED.values():
    _m.flags.writeable = False


def gate_small(gate: LogicalGate) -> np.ndarray:
    """Gate matrix on its own operands; operand i maps to bit i."""
    if gate.kind != "R":
        return _FIXED[gate.kind]
    length = np.linalg.norm(gate.axis)
    if abs(length - 1.0) > 1e-12:
        raise ValueError(f"R gate on q{gate.qubits[0]}: axis must be unit length, |n| = {length}")
    return _rotation(gate.theta, gate.axis)


def embed(small: np.ndarray, qubits: tuple[int, ...], n_qubits: int) -> np.ndarray:
    """Lift a k-qubit matrix onto the full register (1-based qubit labels)."""
    dim = 1 << n_qubits
    k = len(qubits)
    full = np.zeros((dim, dim), dtype=complex)
    bits = [1 << (q - 1) for q in qubits]
    clear = dim - 1
    for b in bits:
        clear &= ~b
    for col in range(dim):
        col_small = 0
        for i, b in enumerate(bits):
            if col & b:
                col_small |= 1 << i
        base = col & clear
        for row_small in range(1 << k):
            amp = small[row_small, col_small]
            if amp == 0:
                continue
            row = base
            for i, b in enumerate(bits):
                if row_small & (1 << i):
                    row |= b
            full[row, col] = amp
    return full


def _apply_gate(gate: LogicalGate, psi: np.ndarray, n_qubits: int) -> np.ndarray:
    """Apply the gate to a 2^n state vector without forming its 2^n x 2^n matrix."""
    k = len(gate.qubits)
    # Little-endian: qubit q is bit q-1, which is axis n-q of the C-ordered
    # (2,)*n tensor.  Likewise the small matrix reshaped to (2,)*2k holds the
    # output bits of operands k-1..0, then their input bits.
    axes = [n_qubits - q for q in reversed(gate.qubits)]
    small = gate_small(gate).reshape((2,) * (2 * k))
    out = np.tensordot(small, psi.reshape((2,) * n_qubits), axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(out, list(range(k)), axes).reshape(-1)


def gate_unitary(gate: LogicalGate, n_qubits: int) -> np.ndarray:
    return embed(gate_small(gate), gate.qubits, n_qubits)


def circuit_unitary(circuit: LogicalCircuit) -> np.ndarray:
    u = np.eye(1 << circuit.n_qubits, dtype=complex)
    for gate in circuit.gates:
        u = gate_unitary(gate, circuit.n_qubits) @ u
    return u


def simulate_logical(circuit: LogicalCircuit, psi_in: LogicalStateVector) -> LogicalStateVector:
    if psi_in.n_qubits != circuit.n_qubits:
        raise ValueError(
            f"state has {psi_in.n_qubits} qubits but circuit expects {circuit.n_qubits}"
        )
    psi = psi_in.amplitudes.astype(complex).copy()
    for i, gate in enumerate(circuit.gates, start=1):
        try:
            psi = _apply_gate(gate, psi, circuit.n_qubits)
        except ValueError as e:
            raise ValueError(f"gate {i} ({gate.kind}): {e}") from None
    return LogicalStateVector(circuit.n_qubits, psi)


def compare_up_to_global_phase(psi1: LogicalStateVector, psi2: LogicalStateVector):
    """Returns (fidelity, phase): |<1|2>|^2 after normalization, and the
    phase alpha for which psi2 ~ e^{i alpha} psi1."""
    a, b = psi1.amplitudes, psi2.amplitudes
    if a.shape != b.shape:
        raise ValueError("dimension mismatch")
    ip = np.vdot(a, b)
    denom = float(np.linalg.norm(a) ** 2 * np.linalg.norm(b) ** 2)
    return float(abs(ip) ** 2 / denom), float(np.angle(ip))
