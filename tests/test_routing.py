"""Pulse-cost routing: the search's cost model, its optimality against the
fewest-moves route, and oracle equivalence of the freedoms it uses (either
Toffoli control order, the CNOT spare on either control site)."""

import itertools
import math

import numpy as np
import pytest

from conveyorqc.compiler import (
    MOVES,
    LogicalCircuit,
    LogicalGate,
    RoutingState,
    _Emitter,
    apply_with_boundary_residuals,
    bfs_route,
    compile_circuit,
    macro_boundaries,
    macro_cnot,
    macro_toffoli,
    move_cost,
    permute_logical,
    random_circuit,
)
from conveyorqc.oracle import compare_up_to_global_phase, simulate_logical
from conveyorqc.pulses import X_AXIS, apply_global_pulse, apply_schedule
from conveyorqc.state import (
    PhaseLabel,
    decode_well_formed,
    encode_well_formed,
    random_logical_state,
    well_formed_residual,
)
from conveyorqc.topology import build_conveyor

TOPOS = {4: build_conveyor(4), 6: build_conveyor(6)}


def _random_routing(n, rng):
    return RoutingState([int(p) + 1 for p in rng.permutation(n)], PhaseLabel(rng.choice(["FP", "PF"])))


def _copy(routing):
    return RoutingState(list(routing.placement), routing.phase)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_move_cost_matches_emitted_schedule(n):
    for phase in PhaseLabel:
        for move in MOVES:
            em = _Emitter(RoutingState(list(range(1, n + 1)), phase))
            em.do_move(move)
            assert move_cost(move, phase, n) == len(em.sched), (move, phase)


def _fixed_spare_cost(operands, routing, cnot):
    """Pulses of the fewest-moves route to (Q_1, Q_3, Q_2) plus the gate,
    with the CNOT spare fixed to the lowest free qubit and flipped at Q_3."""
    n = len(routing.placement)
    if cnot:
        a, c = operands
        operands = (a, min(q for q in range(1, n + 1) if q not in operands), c)
    em = _Emitter(_copy(routing))
    for move in bfs_route(operands, routing):
        em.do_move(move)
    em.toffoli()
    if cnot:
        em.pulse_at(3, math.pi, X_AXIS)
        em.toffoli()
        em.pulse_at(3, math.pi, X_AXIS)
    return len(em.sched)


@pytest.mark.parametrize("n", [4, 6])
def test_chosen_route_costs_no_more_than_fewest_moves(n):
    rng = np.random.default_rng(40 + n)
    chosen = baseline = 0
    for _ in range(4):
        routing = _random_routing(n, rng)
        for a, c in itertools.permutations(range(1, n + 1), 2):
            cost = len(macro_cnot(a, c, _copy(routing)))
            ref = _fixed_spare_cost((a, c), routing, cnot=True)
            assert cost <= ref, ("CNOT", a, c, routing)
            chosen, baseline = chosen + cost, baseline + ref
        for triple in itertools.permutations(range(1, n + 1), 3):
            cost = len(macro_toffoli(*triple, _copy(routing)))
            ref = _fixed_spare_cost(triple, routing, cnot=False)
            assert cost <= ref, ("TOFFOLI", triple, routing)
            chosen, baseline = chosen + cost, baseline + ref
    assert chosen < baseline


@pytest.mark.parametrize("n, backend", [(4, "dense"), (6, "sparse")])
def test_every_cnot_and_toffoli_matches_oracle_from_permuted_start(n, backend):
    topo = TOPOS[n]
    rng = np.random.default_rng(60 + n)
    start = [2, 4, 1, 3] if n == 4 else [5, 3, 6, 1, 4, 2]
    gates = [LogicalGate("CNOT", pair) for pair in itertools.permutations(range(1, n + 1), 2)]
    gates += [LogicalGate("TOFFOLI", t) for t in itertools.permutations(range(1, n + 1), 3)]
    spare_at_q1 = mirrored = 0
    for phase in PhaseLabel:
        for gate in gates:
            routing = RoutingState(list(start), phase)
            psi = random_logical_state(n, rng)
            st = encode_well_formed(permute_logical(psi, start), phase, topo, backend=backend)
            if gate.kind == "CNOT":
                sched = macro_cnot(*gate.qubits, routing)
                spare_at_q1 += routing.placement[gate.qubits[0] - 1] == 3
            else:
                sched = macro_toffoli(*gate.qubits, routing)
                mirrored += routing.placement[gate.qubits[0] - 1] == 3
            apply_schedule(st, topo, sched)
            dec, dec_phase, _ = decode_well_formed(st, topo)
            assert dec_phase is routing.phase
            want = permute_logical(simulate_logical(LogicalCircuit(n, (gate,)), psi), routing.placement)
            fid, _ = compare_up_to_global_phase(want, dec)
            assert fid >= 1 - 1e-9, (gate, phase)
    assert spare_at_q1 and mirrored


def test_boundary_residuals_match_per_pulse_loop():
    topo = TOPOS[4]
    circ = LogicalCircuit(
        4,
        tuple(random_circuit(4, 6, np.random.default_rng(5)).gates)
        + (LogicalGate("TOFFOLI", (4, 2, 1)), LogicalGate("R", (3,), 0.7, (0.0, 0.6, 0.8))),
    )
    sched = compile_circuit(circ, topo).schedule
    psi = random_logical_state(4, np.random.default_rng(6))
    # a little weight outside the subspace, so the residuals are not all zero
    fast = encode_well_formed(psi, PhaseLabel.FP, topo)
    fast.amplitudes[0] = 1e-4
    fast.amplitudes /= np.linalg.norm(fast.amplitudes)
    slow = encode_well_formed(psi, PhaseLabel.FP, topo)
    slow.amplitudes[:] = fast.amplitudes

    residuals = apply_with_boundary_residuals(fast, topo, sched)
    bounds = macro_boundaries(sched)
    expected = []
    for i, pulse in enumerate(sched.pulses, start=1):
        apply_global_pulse(slow, topo, pulse)
        if i in bounds:
            expected.append(well_formed_residual(slow, topo)[0])
    assert np.array_equal(residuals, expected)
    assert min(residuals) > 0
    assert np.array_equal(fast.amplitudes, slow.amplitudes)
