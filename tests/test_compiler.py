import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conveyorqc.compiler import (
    GATE_ARITY,
    LogicalCircuit,
    LogicalGate,
    apply_move,
    apply_with_boundary_residuals,
    bfs_route,
    compile_circuit,
    initial_routing,
    macro_boundaries,
    macro_cnot,
    macro_single_qubit,
    macro_swap,
    macro_toffoli,
    parse_circuit,
    permutation_after,
    permute_logical,
    random_circuit,
    route_to_Q2,
    write_circuit,
)
from conveyorqc.oracle import compare_up_to_global_phase, simulate_logical
from conveyorqc.pulses import (
    TargetClass,
    X_AXIS,
    apply_schedule,
    parse_schedule,
    seq_toffoli,
    step_pulses,
    write_schedule,
)
from conveyorqc.state import (
    LogicalStateVector,
    PhaseLabel,
    decode_well_formed,
    encode_well_formed,
    random_logical_state,
)
from conveyorqc.topology import build_conveyor, build_variant

TOPO4 = build_conveyor(4)


def _run_macro(schedule, routing, psi, topo=TOPO4, start_phase=PhaseLabel.FP):
    st = encode_well_formed(psi, start_phase, topo)
    apply_schedule(st, topo, schedule)
    dec, phase, _ = decode_well_formed(st, topo)
    assert phase is routing.phase
    return permute_logical_inverse(dec, routing.placement)


def permute_logical_inverse(psi, placement):
    inverse = [0] * len(placement)
    for j, pos in enumerate(placement, start=1):
        inverse[pos - 1] = j
    return permute_logical(psi, inverse)


def contents_read(perm):
    # which origin sits at each position, mirroring how a register reads out
    n = len(perm)
    contents = [0] * n
    for j, pos in enumerate(perm, start=1):
        contents[pos - 1] = j
    return contents


def test_permutation_after_examples():
    assert contents_read(permutation_after(1, PhaseLabel.FP, 6)) == [2, 1, 4, 3, 6, 5]
    assert contents_read(permutation_after(1, PhaseLabel.PF, 6)) == [6, 3, 2, 5, 4, 1]
    for n in (4, 6):
        for phase in PhaseLabel:
            assert permutation_after(n, phase, n) == tuple(range(1, n + 1))


def test_permutation_composition():
    n = 6
    for phase in PhaseLabel:
        for l1 in range(0, 2 * n):
            for l2 in range(0, n):
                whole = permutation_after(l1 + l2, phase, n)
                first = permutation_after(l1, phase, n)
                middle_phase = phase if l1 % 2 == 0 else phase.flipped()
                second = permutation_after(l2, middle_phase, n)
                composed = tuple(second[p - 1] for p in first)
                assert composed == whole


def test_route_to_q2():
    for phase in PhaseLabel:
        assert route_to_Q2(2, phase, 4) == 0
    # brute force against the permutation itself
    for n in (4, 6):
        for phase in PhaseLabel:
            for j in range(1, n + 1):
                ell = route_to_Q2(j, phase, n)
                assert permutation_after(ell, phase, n)[j - 1] == 2
                assert all(permutation_after(k, phase, n)[j - 1] != 2 for k in range(ell))
    assert route_to_Q2(1, PhaseLabel.FP, 4) == 1
    assert route_to_Q2(4, PhaseLabel.FP, 4) == 2


def test_bfs_route_basic():
    routing = initial_routing(4)
    assert bfs_route((1, 3, 2), routing) == []

    # a at Q3, b at Q1, c at Q2: one fixed-site swap suffices
    routing = initial_routing(4)
    routing.placement = [3, 2, 1, 4]  # logical 1 at Q3, logical 3 at Q1
    assert bfs_route((1, 3, 2), routing) == ["SWAP_Q1Q3"]


def test_bfs_route_replay_random():
    rng = np.random.default_rng(3)
    for _ in range(25):
        routing = initial_routing(4)
        perm = list(rng.permutation(4) + 1)
        routing.placement = perm
        routing.phase = PhaseLabel.FP if rng.random() < 0.5 else PhaseLabel.PF
        a, b, c = (int(q) for q in rng.choice(4, size=3, replace=False) + 1)
        moves = bfs_route((a, b, c), routing)
        positions = tuple(routing.placement[q - 1] for q in (a, b, c))
        phase = routing.phase
        for move in moves:
            positions, phase = apply_move(positions, phase, move, 4)
        assert positions == (1, 3, 2)


def test_macro_single_qubit_direct_and_routed():
    routing = initial_routing(4)
    sched = macro_single_qubit(2, 0.3, X_AXIS, routing)
    assert len(sched) == 1 and sched.pulses[0].target is TargetClass.B_CROSSED
    assert routing.placement == [1, 2, 3, 4]

    rng = np.random.default_rng(4)
    psi = random_logical_state(4, rng)
    routing = initial_routing(4)
    sched = macro_single_qubit(1, math.pi, X_AXIS, routing)
    assert routing.placement == [1, 2, 3, 4] and routing.phase is PhaseLabel.FP
    out = _run_macro(sched, routing, psi)
    want = simulate_logical(LogicalCircuit(4, (LogicalGate("X", (1,)),)), psi)
    fid, _ = compare_up_to_global_phase(want, out)
    assert fid >= 1 - 1e-10


def test_macro_single_qubit_self_inverse():
    rng = np.random.default_rng(5)
    psi = random_logical_state(4, rng)
    axis = rng.normal(size=3)
    axis = tuple(axis / np.linalg.norm(axis))
    routing = initial_routing(4)
    sched = macro_single_qubit(3, 1.1, axis, routing)
    back = macro_single_qubit(3, -1.1, axis, routing)
    sched.extend(back)
    out = _run_macro(sched, routing, psi)
    fid, _ = compare_up_to_global_phase(psi, out)
    assert fid >= 1 - 1e-10


def basis_logical(n, bits):
    amp = np.zeros(1 << n, dtype=complex)
    amp[sum(b << i for i, b in enumerate(bits))] = 1.0
    return LogicalStateVector(n, amp)


@pytest.mark.parametrize("a,c", [(1, 2), (3, 1), (2, 4)])
def test_macro_cnot_truth_table(a, c):
    circ = LogicalCircuit(4, (LogicalGate("CNOT", (a, c)),))
    for ka in (0, 1):
        for kc in (0, 1):
            bits = [0, 0, 0, 0]
            bits[a - 1], bits[c - 1] = ka, kc
            psi = basis_logical(4, bits)
            routing = initial_routing(4)
            sched = macro_cnot(a, c, routing)
            out = _run_macro(sched, routing, psi)
            want = simulate_logical(circ, psi)
            fid, _ = compare_up_to_global_phase(want, out)
            assert fid >= 1 - 1e-9


def test_macro_cnot_squared_and_reversed():
    rng = np.random.default_rng(6)
    psi = random_logical_state(4, rng)
    routing = initial_routing(4)
    sched = macro_cnot(1, 2, routing)
    sched.extend(macro_cnot(1, 2, routing))
    out = _run_macro(sched, routing, psi)
    fid, _ = compare_up_to_global_phase(psi, out)
    assert fid >= 1 - 1e-9

    # direction reversal via Hadamard conjugation compiles to the same map
    routing = initial_routing(4)
    h_axis = (math.sqrt(0.5), 0.0, math.sqrt(0.5))
    sched = macro_single_qubit(1, math.pi, h_axis, routing)
    sched.extend(macro_single_qubit(2, math.pi, h_axis, routing))
    sched.extend(macro_cnot(1, 2, routing))
    sched.extend(macro_single_qubit(1, math.pi, h_axis, routing))
    sched.extend(macro_single_qubit(2, math.pi, h_axis, routing))
    out = _run_macro(sched, routing, psi)
    want = simulate_logical(LogicalCircuit(4, (LogicalGate("CNOT", (2, 1)),)), psi)
    fid, _ = compare_up_to_global_phase(want, out)
    assert fid >= 1 - 1e-9


def test_macro_swap():
    psi = basis_logical(4, (1, 0, 0, 0))
    routing = initial_routing(4)
    sched = macro_swap(1, 3, routing)
    out = _run_macro(sched, routing, psi)
    want = simulate_logical(LogicalCircuit(4, (LogicalGate("SWAP", (1, 3)),)), psi)
    fid, _ = compare_up_to_global_phase(want, out)
    assert fid >= 1 - 1e-9

    rng = np.random.default_rng(7)
    psi = random_logical_state(4, rng)
    routing = initial_routing(4)
    sched = macro_swap(2, 4, routing)
    sched.extend(macro_swap(2, 4, routing))
    out = _run_macro(sched, routing, psi)
    fid, _ = compare_up_to_global_phase(psi, out)
    assert fid >= 1 - 1e-9


def test_macro_swap_through_third():
    # swap(a,b) equals swap(a,c) swap(b,c) swap(a,c)
    rng = np.random.default_rng(8)
    psi = random_logical_state(4, rng)
    a, b, c = 1, 4, 2

    routing = initial_routing(4)
    direct = macro_swap(a, b, routing)
    out_direct = _run_macro(direct, routing, psi)

    routing = initial_routing(4)
    composed = macro_swap(a, c, routing)
    composed.extend(macro_swap(b, c, routing))
    composed.extend(macro_swap(a, c, routing))
    out_composed = _run_macro(composed, routing, psi)

    fid, _ = compare_up_to_global_phase(out_direct, out_composed)
    assert fid >= 1 - 1e-9


def test_macro_toffoli_identity_placement():
    routing = initial_routing(4)
    sched = macro_toffoli(1, 3, 2, routing)
    assert sched.pulses == seq_toffoli().pulses
    assert routing.placement == [1, 2, 3, 4]


def test_macro_toffoli_routed_and_symmetric():
    circ = LogicalCircuit(4, (LogicalGate("TOFFOLI", (2, 4, 1)),))
    overlap_ref = None
    for k in range(8):
        bits = [0, 0, 0, 0]
        bits[1], bits[3], bits[0] = (k >> 0) & 1, (k >> 1) & 1, (k >> 2) & 1
        psi = basis_logical(4, bits)
        routing = initial_routing(4)
        sched = macro_toffoli(2, 4, 1, routing)
        out = _run_macro(sched, routing, psi)
        want = simulate_logical(circ, psi)
        ip = np.vdot(want.amplitudes, out.amplitudes)
        assert abs(abs(ip) - 1) < 1e-9
        if overlap_ref is None:
            overlap_ref = ip
        assert abs(ip - overlap_ref) < 1e-9

    rng = np.random.default_rng(9)
    psi = random_logical_state(4, rng)
    routing = initial_routing(4)
    out1 = _run_macro(macro_toffoli(2, 4, 1, routing), routing, psi)
    routing = initial_routing(4)
    out2 = _run_macro(macro_toffoli(4, 2, 1, routing), routing, psi)
    fid, _ = compare_up_to_global_phase(out1, out2)
    assert fid >= 1 - 1e-9


def test_compile_empty_circuit():
    result = compile_circuit(LogicalCircuit(4, ()), TOPO4)
    assert len(result.schedule) == 0
    assert result.placement == (1, 2, 3, 4)
    assert result.pulse_count == 0


def test_compile_single_x_structure():
    result = compile_circuit(LogicalCircuit(4, (LogicalGate("X", (3,)),)), TOPO4)
    ell = route_to_Q2(3, PhaseLabel.FP, 4)
    assert ell == 3
    names = [step for step in result.schedule.steps if isinstance(step, str)]
    assert names == ["EXC"] * ell + ["EXC_INV"] * ell
    assert result.pulse_count == ell * 8 + 1 + ell * 10
    q2 = result.schedule.pulses[ell * 8]
    assert q2.target is TargetClass.B_CROSSED and q2.theta == math.pi


def test_compile_rejects_variant_and_mismatch():
    with pytest.raises(ValueError):
        compile_circuit(LogicalCircuit(8, ()), build_variant("two_coupler_three_species", 8))
    with pytest.raises(ValueError):
        compile_circuit(LogicalCircuit(6, ()), TOPO4)


def test_compile_random_circuits_end_to_end():
    rng = np.random.default_rng(10)
    for seed in range(3):
        circ = random_circuit(4, 5, np.random.default_rng(200 + seed))
        result = compile_circuit(circ, TOPO4)
        psi = random_logical_state(4, rng)
        st = encode_well_formed(psi, PhaseLabel.FP, TOPO4)
        residuals = apply_with_boundary_residuals(st, TOPO4, result.schedule)
        assert max(residuals, default=0.0) < 1e-9
        dec, phase, _ = decode_well_formed(st, TOPO4)
        assert phase is result.phase
        want = permute_logical(simulate_logical(circ, psi), result.placement)
        fid, _ = compare_up_to_global_phase(want, dec)
        assert fid >= 1 - 1e-8


@pytest.mark.parametrize(
    "gate",
    [
        LogicalGate("R", (3,), 0.83, (0.6, 0.0, 0.8)),
        LogicalGate("X", (4,)),
        LogicalGate("Z", (1,)),
        LogicalGate("H", (2,)),
        LogicalGate("CNOT", (2, 3)),
        LogicalGate("CZ", (4, 1)),
        LogicalGate("SWAP", (1, 3)),
        LogicalGate("TOFFOLI", (3, 1, 4)),
    ],
    ids=lambda g: g.kind,
)
def test_single_gate_circuits_match_oracle_on_random_inputs(gate):
    circ = LogicalCircuit(4, (gate,))
    result = compile_circuit(circ, TOPO4)
    rng = np.random.default_rng(sum(map(ord, gate.kind)))
    for _ in range(20):
        psi = random_logical_state(4, rng)
        st = encode_well_formed(psi, PhaseLabel.FP, TOPO4, backend="sparse")
        apply_schedule(st, TOPO4, result.schedule)
        dec, phase, _ = decode_well_formed(st, TOPO4)
        assert phase is result.phase
        want = permute_logical(simulate_logical(circ, psi), result.placement)
        fid, _ = compare_up_to_global_phase(want, dec)
        assert fid >= 1 - 1e-9


def test_macro_boundaries_cover_all_pulses():
    result = compile_circuit(LogicalCircuit(4, (LogicalGate("CNOT", (1, 2)),)), TOPO4)
    bounds = macro_boundaries(result.schedule)
    assert bounds[-1] == len(result.schedule)
    spans, stop = set(), 0
    for step in result.schedule.steps:
        start, stop = stop, stop + len(step_pulses(step))
        if isinstance(step, str):
            spans.add((start, stop))
    inside = set()
    for s, e in spans:
        inside.update(range(s, e))
    for i in range(len(result.schedule)):
        if i not in inside:
            assert i + 1 in bounds


def test_compiled_schedule_text_round_trip():
    circuit = random_circuit(6, 10, np.random.default_rng(3))
    assert {g.kind for g in circuit.gates} == set(GATE_ARITY)
    result = compile_circuit(circuit, build_conveyor(6))
    meta = {"final_placement": ",".join(map(str, result.placement)), "pulses": str(result.pulse_count)}
    text = write_schedule(result.schedule, meta=meta)
    parsed, parsed_meta = parse_schedule(text)
    assert write_schedule(parsed, meta=parsed_meta) == text
    assert parsed.steps == result.schedule.steps
    assert len(parsed) == int(parsed_meta["pulses"]) == result.pulse_count
    assert macro_boundaries(parsed)[-1] == len(parsed)
    with pytest.raises(AttributeError):  # the expanded pulses are a read-only view
        parsed.pulses.append(parsed.pulses[0])


def test_permute_logical_basis():
    psi = basis_logical(4, (1, 0, 0, 0))
    out = permute_logical(psi, (2, 1, 3, 4))
    assert out.amplitudes[0b0010] == 1.0
    # inverse round trip
    back = permute_logical_inverse(out, (2, 1, 3, 4))
    assert np.array_equal(back.amplitudes, psi.amplitudes)


def test_circuit_text_round_trip():
    rng = np.random.default_rng(11)
    circ = random_circuit(4, 12, rng)
    text = write_circuit(circ)
    again = parse_circuit(text, 4)
    assert again == circ

    parsed = parse_circuit("# comment\nX q=1\nCNOT a=2 b=3\nTOFFOLI a=1 b=2 c=4\n", 4)
    assert [g.kind for g in parsed.gates] == ["X", "CNOT", "TOFFOLI"]
    with pytest.raises(ValueError):
        parse_circuit("Y q=1\n", 4)
    with pytest.raises(ValueError):
        parse_circuit("CNOT a=1\n", 4)


@pytest.mark.parametrize(
    "line, message",
    [
        ("X q=abc", "invalid literal"),
        ("R q=1 theta=abc axis=1,0,0", "could not convert"),
        ("CNOT a=2 b=two", "invalid literal"),
        ("Y q=1", "unknown gate"),
        ("CZ a=2 b=2", "distinct"),
        ("TOFFOLI a=1 b=2 c=5", "beyond n=4"),
        ("R q=1 theta=nan axis=1,0,0", "finite theta"),
        ("R q=1 theta=0.5 axis=1,inf,0", "finite axis"),
        ("R q=1 theta=0.5 axis=1,0", "three finite axis"),
    ],
)
def test_circuit_parse_errors_name_the_line(line, message):
    with pytest.raises(ValueError, match=rf"^line 3: .*{message}"):
        parse_circuit(f"# header\nX q=1\n{line}\n", 4)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _circuits(draw):
    n = draw(st.integers(3, 8))
    gates = []
    for kind in draw(st.lists(st.sampled_from(sorted(GATE_ARITY)), max_size=12)):
        qubits = tuple(draw(st.permutations(range(1, n + 1)))[: GATE_ARITY[kind]])
        if kind == "R":
            gates.append(LogicalGate(kind, qubits, draw(_FINITE), draw(st.tuples(_FINITE, _FINITE, _FINITE))))
        else:
            gates.append(LogicalGate(kind, qubits))
    return LogicalCircuit(n, tuple(gates))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(circuit=_circuits())
def test_circuit_text_round_trip_property(circuit):
    assert parse_circuit(write_circuit(circuit), circuit.n_qubits) == circuit
