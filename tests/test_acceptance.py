"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from _tables import FERRO_TRACK, PARA_TRACK, QUARTER_TURN, embedded_link_input, expected_after_prefix
from conveyorqc.compiler import (
    apply_with_boundary_residuals,
    compile_circuit,
    initial_routing,
    macro_swap,
    permutation_after,
    permute_logical,
    random_circuit,
)
from conveyorqc.compiler import LogicalCircuit, LogicalGate
from conveyorqc.hamiltonian import FRAGMENT_KINDS, blockade_fidelity, pi_pulse_model
from conveyorqc.oracle import compare_up_to_global_phase, simulate_logical
from conveyorqc.pulses import (
    X_AXIS,
    GlobalPulse,
    PulseSchedule,
    TargetClass,
    apply_global_pulse,
    apply_schedule,
)
from conveyorqc.state import (
    LogicalStateVector,
    PhaseLabel,
    decode_well_formed,
    encode_well_formed,
    fidelity,
    l2_distance,
    random_logical_state,
    to_dense,
)
from conveyorqc.state import _sector_mask, spread_bits
from conveyorqc.topology import build_conveyor

TOPO4 = build_conveyor(4)
TOPO6 = build_conveyor(6)


@contextmanager
def criterion(num, description):
    try:
        yield
    except Exception:
        print(f"FAIL criterion {num}: {description}")
        raise
    print(f"PASS criterion {num}: {description}")


def basis_logical(n, bits):
    amp = np.zeros(1 << n, dtype=complex)
    amp[sum(b << i for i, b in enumerate(bits))] = 1.0
    return LogicalStateVector(n, amp)


def raw_logical(state, topo, phase):
    table = spread_bits(np.arange(1 << topo.n_logical, dtype=np.int64), topo.ic_sites) | _sector_mask(topo, phase)
    return np.array([state.amplitudes.get(int(i), 0j) for i in table])


def test_criterion_01_exchange_branch_tables():
    with criterion(1, "exchange branch tables exact to 1e-12 for all four links, 8 prefixes"):
        t0 = time.monotonic()
        pulses = PulseSchedule(["EXC"]).pulses
        for k in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            st = embedded_link_input(TOPO4, *k)
            for step in range(1, 9):
                apply_global_pulse(st, TOPO4, pulses[step - 1])
                index, phase = expected_after_prefix(k[0], k[1], step)
                amp = to_dense(st).amplitudes
                want = np.zeros_like(amp)
                want[index] = phase
                assert np.max(np.abs(amp - want)) < 1e-12
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0, f"branch tables took {elapsed:.2f}s"


def test_criterion_02_paramagnetic_track():
    with criterion(2, "paramagnetic sector returns to ferro with phase (-i)^7 after 8 pulses"):
        assert PARA_TRACK[-1] == (0, 0, 0, 7)
        st = embedded_link_input(TOPO4, 0, 0)  # S_2 and S_4 are paramagnetic
        apply_schedule(st, TOPO4, PulseSchedule(["EXC"]))
        index, phase = expected_after_prefix(0, 0, 8)
        mf = FERRO_TRACK[(0, 0)][-1][5]
        assert phase == QUARTER_TURN[(2 * mf + 2 * 7) % 4]
        a1, b2, a3 = TOPO4.sectors[1]
        assert not (index >> a1) & 1 and not (index >> b2) & 1 and not (index >> a3) & 1
        assert abs(st.amplitudes[index] - phase) < 1e-12


def test_criterion_03_exchange_semantics_both_backends():
    with criterion(3, "one exchange = tracked permutation + phase flip, 50 states, N=4 dense / N=6 sparse"):
        t0 = time.monotonic()
        cases = [(TOPO4, "dense"), (TOPO6, "sparse")]
        rng = np.random.default_rng(33)
        for topo, backend in cases:
            n = topo.n_logical
            for start in (PhaseLabel.FP, PhaseLabel.PF):
                for _ in range(50):
                    psi = random_logical_state(n, rng)
                    st = encode_well_formed(psi, start, topo, backend=backend)
                    apply_schedule(st, topo, PulseSchedule(["EXC"]))
                    dec, phase, _ = decode_well_formed(st, topo)
                    assert phase is start.flipped()
                    expected = permute_logical(psi, permutation_after(1, start, n))
                    fid, _ = compare_up_to_global_phase(expected, dec)
                    assert fid >= 1 - 1e-10
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0, f"exchange semantics took {elapsed:.2f}s"


def test_criterion_04_concatenation_and_inverse():
    with criterion(4, "N exchanges act as identity; ten-pulse inverse undoes one exchange (N=4)"):
        rng = np.random.default_rng(44)
        for _ in range(5):
            psi = random_logical_state(4, rng)
            ref = encode_well_formed(psi, PhaseLabel.FP, TOPO4)

            st = encode_well_formed(psi, PhaseLabel.FP, TOPO4)
            for _ in range(4):
                apply_schedule(st, TOPO4, PulseSchedule(["EXC"]))
            assert fidelity(st, ref) >= 1 - 1e-10

            st = encode_well_formed(psi, PhaseLabel.FP, TOPO4)
            apply_schedule(st, TOPO4, PulseSchedule(["EXC"]))
            apply_schedule(st, TOPO4, PulseSchedule(["EXC_INV"]))
            assert fidelity(st, ref) >= 1 - 1e-10


def test_criterion_05_ccz_branches_and_axes():
    with criterion(5, "2pi in-loop pulse: -1 on the all-ground control branch only, any axis"):
        rng = np.random.default_rng(55)
        axes = [X_AXIS]
        for _ in range(5):
            v = rng.normal(size=3)
            axes.append(tuple(v / np.linalg.norm(v)))
        for axis in axes:
            for k in range(8):
                bits = ((k >> 0) & 1, (k >> 1) & 1, (k >> 2) & 1, 0)
                st = encode_well_formed(basis_logical(4, bits), PhaseLabel.FP, TOPO4)
                before = to_dense(st).amplitudes
                apply_schedule(st, TOPO4, PulseSchedule(["CCZ"] if axis == X_AXIS else [GlobalPulse(TargetClass.A_CROSSED, 2 * math.pi, axis)]))
                want = -1.0 if bits[:3] == (0, 0, 0) else 1.0
                assert np.max(np.abs(to_dense(st).amplitudes - want * before)) < 1e-12


def test_criterion_06_one_shot_toffoli():
    with criterion(6, "five-pulse Toffoli matches the ideal gate with one common global phase"):
        circ = LogicalCircuit(4, (LogicalGate("TOFFOLI", (1, 3, 2)),))
        rng = np.random.default_rng(66)
        inputs = [basis_logical(4, ((k >> 0) & 1, (k >> 1) & 1, (k >> 2) & 1, 0)) for k in range(8)]
        inputs += [random_logical_state(4, rng) for _ in range(10)]
        overlap_ref = None
        for psi in inputs:
            st = encode_well_formed(psi, PhaseLabel.FP, TOPO4)
            apply_schedule(st, TOPO4, PulseSchedule(["TOFFOLI"]))
            raw = raw_logical(st, TOPO4, PhaseLabel.FP)
            expected = simulate_logical(circ, psi)
            ip = np.vdot(expected.amplitudes, raw)
            assert abs(ip) ** 2 >= 1 - 1e-10
            if overlap_ref is None:
                overlap_ref = ip
            assert abs(ip - overlap_ref) < 1e-9


@pytest.fixture(scope="module")
def compiled_random_circuits():
    """Twenty seeded random circuits with dense and sparse replays (N=4)."""
    records = []
    t0 = time.monotonic()
    for seed in range(20):
        gate_rng = np.random.default_rng(700 + seed)
        depth = int(gate_rng.integers(1, 6))
        circ = random_circuit(4, depth, gate_rng)
        result = compile_circuit(circ, TOPO4)
        psi = random_logical_state(4, np.random.default_rng(900 + seed))

        dense = encode_well_formed(psi, PhaseLabel.FP, TOPO4, backend="dense")
        residuals = apply_with_boundary_residuals(dense, TOPO4, result.schedule)
        dec, phase, _ = decode_well_formed(dense, TOPO4)
        expected = permute_logical(simulate_logical(circ, psi), result.placement)
        fid, _ = compare_up_to_global_phase(expected, dec)
        dense_elapsed = time.monotonic() - t0

        sparse = encode_well_formed(psi, PhaseLabel.FP, TOPO4, backend="sparse")
        apply_schedule(sparse, TOPO4, result.schedule)
        records.append(
            {
                "fidelity": fid,
                "max_residual": max(residuals, default=0.0),
                "dense_final": dense,
                "sparse_final": sparse,
                "dense_elapsed": dense_elapsed,
            }
        )
    return records


def test_criterion_07_compiler_end_to_end(compiled_random_circuits):
    with criterion(7, "20 random circuits compile and match the reference simulator"):
        for rec in compiled_random_circuits:
            assert rec["fidelity"] >= 1 - 1e-8
            assert rec["max_residual"] < 1e-9
        assert compiled_random_circuits[-1]["dense_elapsed"] < 300.0


def test_criterion_08_backend_equivalence(compiled_random_circuits):
    with criterion(8, "dense and sparse backends agree within 1e-10 L2 on the same schedules"):
        rng = np.random.default_rng(88)
        for start in (PhaseLabel.FP, PhaseLabel.PF):
            for _ in range(10):
                psi = random_logical_state(4, rng)
                dense = encode_well_formed(psi, start, TOPO4, backend="dense")
                sparse = encode_well_formed(psi, start, TOPO4, backend="sparse")
                apply_schedule(dense, TOPO4, PulseSchedule(["EXC"]))
                apply_schedule(sparse, TOPO4, PulseSchedule(["EXC"]))
                assert l2_distance(dense, sparse) < 1e-10
        for rec in compiled_random_circuits:
            assert l2_distance(rec["dense_final"], rec["sparse_final"]) < 1e-10


def test_criterion_09_blockade_regime():
    with criterion(9, "blockade error shrinks with eta; level-spacing correction restores resonance"):
        t0 = time.monotonic()
        etas = [4, 8, 16, 32, 64]
        two = FRAGMENT_KINDS["two_neighbor"]
        three = FRAGMENT_KINDS["three_neighbor"]
        prev_error = None
        for eta in etas:
            r2 = blockade_fidelity(two, pi_pulse_model(two, eta))
            total = (1 - r2["p_flip_gg"]) + r2["p_leak_ge"] + r2["p_leak_ee"]
            if prev_error is not None:
                assert total <= prev_error
            prev_error = total
            r3 = blockade_fidelity(three, pi_pulse_model(three, eta))
            assert abs(r3["p_flip_gg"] - r2["p_flip_gg"]) <= 5 * max(
                1 - r2["p_flip_gg"], 1 - r3["p_flip_gg"]
            )
        uncorrected = FRAGMENT_KINDS["three_neighbor_uncorrected"]
        r3u = blockade_fidelity(uncorrected, pi_pulse_model(uncorrected, 32))
        assert r3u["p_flip_gg"] < 0.5
        elapsed = time.monotonic() - t0
        assert elapsed < 120.0, f"blockade sweep took {elapsed:.2f}s"


def test_criterion_10_universality_swaps_everywhere():
    with criterion(10, "a swap compiles between every qubit pair at N=4 and N=6"):
        for topo, backend in ((TOPO4, "dense"), (TOPO6, "sparse")):
            n = topo.n_logical
            rng = np.random.default_rng(1000 + n)
            for a in range(1, n + 1):
                for b in range(a + 1, n + 1):
                    routing = initial_routing(n)
                    sched = macro_swap(a, b, routing)
                    psi = random_logical_state(n, rng)
                    st = encode_well_formed(psi, PhaseLabel.FP, topo, backend=backend)
                    apply_schedule(st, topo, sched)
                    dec, phase, _ = decode_well_formed(st, topo)
                    assert phase is routing.phase
                    oracle_out = simulate_logical(
                        LogicalCircuit(n, (LogicalGate("SWAP", (a, b)),)), psi
                    )
                    expected = permute_logical(oracle_out, tuple(routing.placement))
                    fid, _ = compare_up_to_global_phase(expected, dec)
                    assert fid >= 1 - 1e-9
