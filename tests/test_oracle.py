import math
import tracemalloc

import numpy as np
import pytest

from conveyorqc.compiler import GATE_ARITY, LogicalCircuit, LogicalGate
from conveyorqc.oracle import (
    circuit_unitary,
    compare_up_to_global_phase,
    embed,
    gate_small,
    gate_unitary,
    simulate_logical,
)
from conveyorqc.state import LogicalStateVector, random_logical_state


def basis(n, index):
    amp = np.zeros(1 << n, dtype=complex)
    amp[index] = 1.0
    return LogicalStateVector(n, amp)


def test_empty_circuit_is_identity():
    psi = random_logical_state(3, np.random.default_rng(0))
    out = simulate_logical(LogicalCircuit(3, ()), psi)
    assert np.array_equal(out.amplitudes, psi.amplitudes)


def test_x_on_q1():
    out = simulate_logical(LogicalCircuit(4, (LogicalGate("X", (1,)),)), basis(4, 0))
    assert out.amplitudes[1] == 1.0


def test_toffoli_truth_table_entry():
    circ = LogicalCircuit(4, (LogicalGate("TOFFOLI", (1, 3, 2)),))
    out = simulate_logical(circ, basis(4, 0b0101))  # q1=e, q3=e
    assert out.amplitudes[0b0111] == 1.0  # q2 flipped


def test_gate_unitarity():
    rng = np.random.default_rng(1)
    from conveyorqc.compiler import random_circuit

    circ = random_circuit(4, 8, rng)
    u = circuit_unitary(circ)
    assert np.max(np.abs(u.conj().T @ u - np.eye(16))) < 1e-12


def test_toffoli_symmetric_in_controls():
    u1 = gate_unitary(LogicalGate("TOFFOLI", (1, 3, 2)), 4)
    u2 = gate_unitary(LogicalGate("TOFFOLI", (3, 1, 2)), 4)
    assert np.array_equal(u1, u2)


def test_cnot_from_toffoli_identity():
    # CNOT(a->c) equals Toffoli(a,b->c) X_b Toffoli(a,b->c) X_b as matrices.
    a, b, c, n = 1, 2, 3, 3
    t = gate_unitary(LogicalGate("TOFFOLI", (a, b, c)), n)
    xb = gate_unitary(LogicalGate("X", (b,)), n)
    cnot = gate_unitary(LogicalGate("CNOT", (a, c)), n)
    assert np.max(np.abs(t @ xb @ t @ xb - cnot)) < 1e-12


def test_reversed_cnot_by_hadamard_conjugation():
    a, c, n = 1, 2, 2
    h = gate_unitary(LogicalGate("H", (a,)), n) @ gate_unitary(LogicalGate("H", (c,)), n)
    fwd = gate_unitary(LogicalGate("CNOT", (a, c)), n)
    rev = gate_unitary(LogicalGate("CNOT", (c, a)), n)
    assert np.max(np.abs(h @ fwd @ h - rev)) < 1e-12


def test_swap_identities():
    n = 3
    c12 = gate_unitary(LogicalGate("CNOT", (1, 2)), n)
    c21 = gate_unitary(LogicalGate("CNOT", (2, 1)), n)
    swap12 = gate_unitary(LogicalGate("SWAP", (1, 2)), n)
    assert np.max(np.abs(c12 @ c21 @ c12 - swap12)) < 1e-12
    # swap(a,b) through a third qubit c
    sac = gate_unitary(LogicalGate("SWAP", (1, 3)), n)
    sbc = gate_unitary(LogicalGate("SWAP", (2, 3)), n)
    assert np.max(np.abs(sac @ sbc @ sac - swap12)) < 1e-12


def test_rotation_matches_pauli_limits():
    rx = gate_small(LogicalGate("R", (1,), math.pi, (1.0, 0.0, 0.0)))
    x = gate_small(LogicalGate("X", (1,)))
    assert np.max(np.abs(rx - (-1j) * x)) < 1e-12


def test_embed_places_bits_correctly():
    x = gate_small(LogicalGate("X", (1,)))
    u = embed(x, (3,), 4)
    psi = np.zeros(16, dtype=complex)
    psi[0] = 1
    assert (u @ psi)[4] == 1.0  # bit 2 set


def test_compare_up_to_global_phase():
    rng = np.random.default_rng(7)
    psi = random_logical_state(3, rng)
    rotated = LogicalStateVector(3, psi.amplitudes * np.exp(1.1j))
    fid, phase = compare_up_to_global_phase(psi, rotated)
    assert abs(fid - 1) < 1e-12 and abs(phase - 1.1) < 1e-12

    fid0, _ = compare_up_to_global_phase(basis(3, 0), basis(3, 5))
    assert fid0 == 0.0

    other = random_logical_state(3, rng)
    fid2, _ = compare_up_to_global_phase(psi, other)
    direct = abs(np.vdot(psi.amplitudes, other.amplitudes)) ** 2
    assert abs(fid2 - direct) < 1e-12


def test_simulate_validates_operands():
    with pytest.raises(ValueError):
        LogicalGate("CNOT", (1, 1))
    with pytest.raises(ValueError):
        LogicalCircuit(2, (LogicalGate("X", (3,)),))
    with pytest.raises(ValueError):
        simulate_logical(LogicalCircuit(3, ()), random_logical_state(2, np.random.default_rng(0)))


@pytest.mark.parametrize("kind", sorted(GATE_ARITY))
def test_contraction_matches_the_embedded_matrix(kind):
    rng = np.random.default_rng(len(kind))
    for n in range(GATE_ARITY[kind], 6):
        for _ in range(4):
            qubits = tuple(int(q) + 1 for q in rng.permutation(n)[: GATE_ARITY[kind]])
            axis = rng.normal(size=3)
            gate = LogicalGate(kind, qubits, float(rng.uniform(-4, 4)), tuple(axis / np.linalg.norm(axis)))
            psi = random_logical_state(n, rng)
            out = simulate_logical(LogicalCircuit(n, (gate,)), psi)
            assert np.max(np.abs(out.amplitudes - gate_unitary(gate, n) @ psi.amplitudes)) <= 1e-12


def test_simulate_at_fourteen_qubits_stays_small():
    n = 14
    gates = (
        LogicalGate("H", (14,)),
        LogicalGate("CNOT", (14, 1)),
        LogicalGate("TOFFOLI", (1, 7, 13)),
        LogicalGate("R", (5,), 0.3, (0.0, 0.6, 0.8)),
        LogicalGate("SWAP", (2, 11)),
    )
    psi = random_logical_state(n, np.random.default_rng(3))
    tracemalloc.start()
    try:
        out = simulate_logical(LogicalCircuit(n, gates), psi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20  # one 2^14 x 2^14 gate matrix would be 4 GiB
    assert abs(np.linalg.norm(out.amplitudes) - 1) < 1e-12


def test_simulate_rejects_a_non_unit_rotation_axis():
    circuit = LogicalCircuit(2, (LogicalGate("R", (2,), 0.4, (2.0, 0.0, 0.0)),))
    with pytest.raises(ValueError, match="unit length"):
        simulate_logical(circuit, basis(2, 0))
