"""Pulse-cost routing: the search's cost model, its optimality against the
fewest-moves route, and oracle equivalence of the freedoms it uses (either
Toffoli control order, the CNOT spare on either control site).  Also the
placement tracking: moves against `apply_move`, the logical SWAP as a
relabel, and the physical swaps it no longer emits."""

import itertools
import math

import numpy as np
import pytest

from conveyorqc.compiler import (
    MOVES,
    LogicalCircuit,
    LogicalGate,
    RoutingState,
    _cheapest_route,
    _cnot_end,
    _Emitter,
    _toffoli_end,
    apply_move,
    apply_with_boundary_residuals,
    bfs_route,
    compile_circuit,
    macro_boundaries,
    macro_cnot,
    macro_swap,
    macro_toffoli,
    move_cost,
    permute_logical,
    random_circuit,
)
from conveyorqc.oracle import compare_up_to_global_phase, simulate_logical
from conveyorqc.pulses import X_AXIS, apply_global_pulse, apply_schedule
from conveyorqc.state import (
    PhaseLabel,
    PureState,
    decode_well_formed,
    encode_well_formed,
    random_logical_state,
    to_dense,
    to_sparse,
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


def _route_then_gate_cost(routing, moves, end_cost, end_positions):
    """Summed `move_cost` along `moves`, tracking the phase, plus the gate's
    end cost at the positions the route reaches."""
    n, phase, total = len(routing.placement), routing.phase, 0
    for move in moves:
        total += move_cost(move, phase, n)
        _, phase = apply_move((), phase, move, n)
    return total + end_cost(end_positions, phase, n)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_route_costs_plus_end_cost_match_emitted_gate(n):
    """The search's price of a route and gate body is what the macro emits."""
    rng = np.random.default_rng(20 + n)
    triples = list(itertools.permutations(range(1, n + 1), 3))
    for _ in range(3):
        for phase in PhaseLabel:
            routing = RoutingState([int(p) + 1 for p in rng.permutation(n)], phase)
            for a, c in itertools.permutations(range(1, n + 1), 2):
                moves = _cheapest_route((a, c), routing, move_cost, _cnot_end)
                after = _copy(routing)
                sched = macro_cnot(a, c, after)
                ends = (after.placement[a - 1], after.placement[c - 1])
                assert _route_then_gate_cost(routing, moves, _cnot_end, ends) == len(sched), (a, c)
            for k in rng.choice(len(triples), size=6, replace=False):
                triple = triples[k]
                moves = _cheapest_route(triple, routing, move_cost, _toffoli_end)
                after = _copy(routing)
                sched = macro_toffoli(*triple, after)
                ends = tuple(after.placement[q - 1] for q in triple)
                assert _route_then_gate_cost(routing, moves, _toffoli_end, ends) == len(sched), triple


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
    amp = to_dense(encode_well_formed(psi, PhaseLabel.FP, topo)).amplitudes
    amp[0] = 1e-4
    amp /= np.linalg.norm(amp)
    fast = to_sparse(PureState(topo.n_sites, amp), 0.0)
    slow = fast.copy()

    residuals = apply_with_boundary_residuals(fast, topo, sched)
    bounds = macro_boundaries(sched)
    expected = []
    for i, pulse in enumerate(sched.pulses, start=1):
        apply_global_pulse(slow, topo, pulse)
        if i in bounds:
            expected.append(well_formed_residual(slow, topo)[0])
    assert np.array_equal(residuals, expected)
    assert min(residuals) > 0
    assert np.array_equal(to_dense(fast).amplitudes, to_dense(slow).amplitudes)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_do_move_tracks_like_apply_move(n):
    start = [int(p) + 1 for p in np.random.default_rng(n).permutation(n)]
    for phase in PhaseLabel:
        for move in MOVES:
            routing = RoutingState(list(start), phase)
            _Emitter(routing).do_move(move)
            positions, after = apply_move(tuple(start), phase, move, n)
            assert (routing.placement, routing.phase) == (list(positions), after), (move, phase)


def test_macro_swap_relabels_placement():
    rng = np.random.default_rng(3)
    for n in (4, 6):
        for a, b in itertools.permutations(range(1, n + 1), 2):
            routing = _random_routing(n, rng)
            before = _copy(routing)
            sched = macro_swap(a, b, routing)
            assert len(sched) == 0 and not sched.steps
            want = list(before.placement)
            want[a - 1], want[b - 1] = want[b - 1], want[a - 1]
            assert routing.placement == want
            assert routing.phase is before.phase
        with pytest.raises(ValueError):
            macro_swap(2, 2, _random_routing(n, rng))


def _run_compiled(circ, topo, backend, psi):
    result = compile_circuit(circ, topo)
    st = encode_well_formed(psi, PhaseLabel.FP, topo, backend=backend)
    apply_schedule(st, topo, result.schedule)
    dec, phase, _ = decode_well_formed(st, topo)
    assert phase is result.phase
    return result, dec


def test_swaps_between_gates_match_oracle():
    n, topo = 6, TOPOS[6]
    rng = np.random.default_rng(71)
    for _ in range(6):
        gates = []
        for gate in random_circuit(n, 4, rng).gates:
            pair = tuple(int(q) + 1 for q in rng.choice(n, size=2, replace=False))
            gates += [gate, LogicalGate("SWAP", pair)]
        circ = LogicalCircuit(n, tuple(gates))
        psi = random_logical_state(n, rng)
        result, dec = _run_compiled(circ, topo, "sparse", psi)
        want = permute_logical(simulate_logical(circ, psi), result.placement)
        fid, _ = compare_up_to_global_phase(want, dec)
        assert fid >= 1 - 1e-9, circ


@pytest.mark.parametrize("n, backend", [(4, "dense"), (6, "sparse")])
def test_three_cnots_match_oracle_swap(n, backend):
    topo = TOPOS[n]
    rng = np.random.default_rng(80 + n)
    for a, b in itertools.combinations(range(1, n + 1), 2):
        circ = LogicalCircuit(
            n, (LogicalGate("CNOT", (a, b)), LogicalGate("CNOT", (b, a)), LogicalGate("CNOT", (a, b)))
        )
        psi = random_logical_state(n, rng)
        result, dec = _run_compiled(circ, topo, backend, psi)
        assert result.pulse_count > 0
        swap = LogicalCircuit(n, (LogicalGate("SWAP", (a, b)),))
        want = permute_logical(simulate_logical(swap, psi), result.placement)
        fid, _ = compare_up_to_global_phase(want, dec)
        assert fid >= 1 - 1e-9, (a, b)


@pytest.mark.parametrize("n, backend", [(4, "dense"), (6, "sparse")])
def test_fixed_site_swaps_exchange_occupants(n, backend):
    """Each routing swap moves the logical content of one site onto the other:
    the decoded register equals the oracle SWAP of those two positions."""
    topo = TOPOS[n]
    rng = np.random.default_rng(90 + n)
    for phase in PhaseLabel:
        for move in ("SWAP_Q1Q2", "SWAP_Q2Q3", "SWAP_Q1Q3"):
            start = [int(p) + 1 for p in rng.permutation(n)]
            routing = RoutingState(list(start), phase)
            em = _Emitter(routing)
            em.do_move(move)
            psi = random_logical_state(n, rng)
            before = permute_logical(psi, start)
            st = encode_well_formed(before, phase, topo, backend=backend)
            apply_schedule(st, topo, em.finish())
            dec, dec_phase, _ = decode_well_formed(st, topo)
            assert dec_phase is phase
            sites = LogicalCircuit(n, (LogicalGate("SWAP", (int(move[6]), int(move[8]))),))
            fid, _ = compare_up_to_global_phase(simulate_logical(sites, before), dec)
            assert fid >= 1 - 1e-9, (move, phase)
            # the tracked placement follows the occupants
            fid, _ = compare_up_to_global_phase(permute_logical(psi, routing.placement), dec)
            assert fid >= 1 - 1e-9, (move, phase)
