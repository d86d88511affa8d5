import gc
import math
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _tables import PARA_TRACK, QUARTER_TURN, embedded_link_input, expected_after_prefix
from conveyorqc.compiler import (
    GATE_ARITY,
    LogicalCircuit,
    LogicalGate,
    compile_circuit,
    permutation_after,
    permute_logical,
)
from conveyorqc.oracle import compare_up_to_global_phase, simulate_logical
from conveyorqc.pulses import (
    HADAMARD_AXIS,
    GlobalPulse,
    PulseSchedule,
    TargetClass,
    X_AXIS,
    apply_global_pulse,
    apply_schedule,
    class_sites,
    parse_schedule,
    seq_ccz,
    seq_exchange,
    seq_exchange_inverse,
    seq_init,
    seq_single_qubit_at_Q2,
    seq_toffoli,
    write_schedule,
)
from conveyorqc.state import (
    LogicalStateVector,
    PhaseLabel,
    PureState,
    all_ground,
    apply_controlled_rotation,
    decode_well_formed,
    encode_well_formed,
    fidelity,
    l2_distance,
    norm,
    random_logical_state,
    to_dense,
    to_sparse,
)
from conveyorqc.topology import build_conveyor, build_variant, load, save


def basis_logical(n, bits):
    amp = np.zeros(1 << n, dtype=complex)
    amp[sum(b << i for i, b in enumerate(bits))] = 1.0
    return LogicalStateVector(n, amp)


def test_pulse_validation():
    with pytest.raises(ValueError):
        GlobalPulse(TargetClass.B_ALL, math.pi, (1.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        GlobalPulse(TargetClass.B_ALL, 7.0, X_AXIS)


def test_class_sites_and_empty_class_errors():
    topo = build_conveyor(4)
    assert class_sites(topo, TargetClass.A_CROSSED) == (16,)
    assert class_sites(topo, TargetClass.B_CROSSED) == (4,)
    assert len(class_sites(topo, TargetClass.A_REGULAR)) == 8
    assert len(class_sites(topo, TargetClass.B_ALL)) == 8
    st = all_ground(topo.n_sites)
    with pytest.raises(ValueError):
        apply_global_pulse(st, topo, GlobalPulse(TargetClass.C_REGULAR, math.pi, X_AXIS))
    variant = build_variant("two_coupler_three_species", 8)
    with pytest.raises(ValueError):
        apply_global_pulse(
            all_ground(variant.n_sites, backend="sparse"),
            variant,
            GlobalPulse(TargetClass.INIT_LINE, math.pi, X_AXIS),
        )


def test_ccz_pulse_phases_on_encoded_branches():
    topo = build_conveyor(4)
    pulse = GlobalPulse(TargetClass.A_CROSSED, 2 * math.pi, X_AXIS)
    for k in range(8):
        bits = ((k >> 0) & 1, (k >> 1) & 1, (k >> 2) & 1, 0)
        st = encode_well_formed(basis_logical(4, bits), PhaseLabel.FP, topo)
        before = to_dense(st).amplitudes
        apply_global_pulse(st, topo, pulse)
        want = -1.0 if bits[:3] == (0, 0, 0) else 1.0
        assert np.max(np.abs(to_dense(st).amplitudes - want * before)) < 1e-12


def test_sector_pulse_examples():
    # stand-alone paramagnetic sector with its two flanking IC sites in g
    topo = build_conveyor(4)
    a1, b2, a3 = topo.sectors[1]  # S_2 is paramagnetic in FP
    st = encode_well_formed(basis_logical(4, (0, 0, 0, 0)), PhaseLabel.FP, topo)
    before = to_dense(st).amplitudes
    # a pi pulse on regular A sites leaves a paramagnetic sector alone, but
    # excites the A sites of ferromagnetic sectors
    apply_global_pulse(st, topo, GlobalPulse(TargetClass.A_REGULAR, math.pi, X_AXIS))
    (nz,) = np.nonzero(np.abs(to_dense(st).amplitudes) > 1e-13)
    new_index = int(nz[0])
    old_index = int(np.argmax(np.abs(before)))
    assert not (new_index >> a1) & 1 and not (new_index >> a3) & 1  # S_2 untouched
    assert (new_index >> topo.sectors[0][0]) & 1  # S_1 A sites flipped

    # an all-B pulse flips the paramagnetic center back to g: P -> (-i) F
    st2 = encode_well_formed(basis_logical(4, (0, 0, 0, 0)), PhaseLabel.FP, topo)
    apply_global_pulse(st2, topo, GlobalPulse(TargetClass.B_ALL, math.pi, X_AXIS))
    # S_2 center must have flipped from e to g
    (nz2,) = np.nonzero(np.abs(to_dense(st2).amplitudes) > 1e-13)
    assert not (int(nz2[0]) >> b2) & 1


def test_exchange_length_and_order():
    seq = seq_exchange()
    assert len(seq) == 8
    assert [p.target for p in seq.pulses[:2]] == [TargetClass.A_REGULAR, TargetClass.B_ALL]
    assert all(p.theta == math.pi and p.axis == X_AXIS for p in seq.pulses)
    inv = seq_exchange_inverse()
    assert len(inv) == 10
    assert inv.pulses[0].target is TargetClass.B_ALL and inv.pulses[-1].target is TargetClass.B_ALL


@pytest.mark.parametrize("k", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_exchange_branch_tables_prefixes(k):
    """After each pulse prefix the device sits on a single basis state whose
    bits and accumulated (-i)^m phase follow the hand-derived tables."""
    topo = build_conveyor(4)
    st = embedded_link_input(topo, *k)
    pulses = seq_exchange().pulses
    for step in range(1, 9):
        apply_global_pulse(st, topo, pulses[step - 1])
        index, phase = expected_after_prefix(k[0], k[1], step)
        amp = to_dense(st).amplitudes
        want = np.zeros_like(amp)
        want[index] = phase
        assert np.max(np.abs(amp - want)) < 1e-12


def test_paramagnetic_track_returns_to_ferro_with_seven_flips():
    assert PARA_TRACK[-1] == (0, 0, 0, 7)
    assert QUARTER_TURN[7 % 4] == 1j  # (-i)^7


def test_link_swap_with_eleven_flips():
    topo = build_conveyor(4)
    st = embedded_link_input(topo, 0, 1)
    apply_schedule(st, topo, seq_exchange())
    index, phase = expected_after_prefix(0, 1, 8)
    assert (index >> 0) & 1 == 1 and (index >> 4) & 1 == 0  # contents swapped
    assert phase == QUARTER_TURN[(11 + 11 + 14) % 4]
    assert abs(to_dense(st).amplitudes[index] - phase) < 1e-12


@pytest.mark.parametrize("phase", [PhaseLabel.FP, PhaseLabel.PF])
def test_exchange_semantics_decode(phase):
    topo = build_conveyor(4)
    rng = np.random.default_rng(11)
    for _ in range(5):
        psi = random_logical_state(4, rng)
        st = encode_well_formed(psi, phase, topo)
        apply_schedule(st, topo, seq_exchange())
        dec, out_phase, _ = decode_well_formed(st, topo)
        assert out_phase is phase.flipped()
        expected = permute_logical(psi, permutation_after(1, phase, 4))
        fid, _ = compare_up_to_global_phase(expected, dec)
        assert fid >= 1 - 1e-10


def test_exchange_inverse_properties():
    topo = build_conveyor(4)
    rng = np.random.default_rng(12)
    psi = random_logical_state(4, rng)

    st = encode_well_formed(psi, PhaseLabel.FP, topo)
    apply_schedule(st, topo, seq_exchange())
    apply_schedule(st, topo, seq_exchange_inverse())
    assert fidelity(st, encode_well_formed(psi, PhaseLabel.FP, topo)) >= 1 - 1e-10

    # the ten-pulse inverse equals N-1 forward exchanges up to a global phase
    st_a = encode_well_formed(psi, PhaseLabel.FP, topo)
    apply_schedule(st_a, topo, seq_exchange_inverse())
    st_b = encode_well_formed(psi, PhaseLabel.FP, topo)
    for _ in range(3):
        apply_schedule(st_b, topo, seq_exchange())
    assert fidelity(st_a, st_b) >= 1 - 1e-10

    # from PF it undoes the forward permutation
    st_c = encode_well_formed(psi, PhaseLabel.PF, topo)
    apply_schedule(st_c, topo, seq_exchange_inverse())
    dec, out_phase, _ = decode_well_formed(st_c, topo)
    assert out_phase is PhaseLabel.FP
    fwd = permutation_after(1, PhaseLabel.FP, 4)
    inverse_perm = tuple(fwd.index(j) + 1 for j in range(1, 5))
    fid, _ = compare_up_to_global_phase(permute_logical(psi, inverse_perm), dec)
    assert fid >= 1 - 1e-10


def test_exchange_period_n():
    topo = build_conveyor(4)
    psi = random_logical_state(4, np.random.default_rng(13))
    st = encode_well_formed(psi, PhaseLabel.FP, topo)
    for _ in range(4):
        apply_schedule(st, topo, seq_exchange())
    assert fidelity(st, encode_well_formed(psi, PhaseLabel.FP, topo)) >= 1 - 1e-10


def test_exchange_concatenation_rule():
    # ell repetitions track the ell-step permutation; the sector phase label
    # returns to the start for even ell
    topo = build_conveyor(4)
    psi = random_logical_state(4, np.random.default_rng(24))
    st = encode_well_formed(psi, PhaseLabel.FP, topo)
    for ell in range(1, 5):
        apply_schedule(st, topo, seq_exchange())
        dec, phase, _ = decode_well_formed(st, topo)
        assert phase is (PhaseLabel.FP if ell % 2 == 0 else PhaseLabel.PF)
        expected = permute_logical(psi, permutation_after(ell, PhaseLabel.FP, 4))
        fid, _ = compare_up_to_global_phase(expected, dec)
        assert fid >= 1 - 1e-10


def test_ccz_branch_table_and_axis_independence():
    topo = build_conveyor(4)
    assert len(seq_ccz()) == 1
    rng = np.random.default_rng(14)
    axes = [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0)]
    for _ in range(5):
        v = rng.normal(size=3)
        axes.append(tuple(v / np.linalg.norm(v)))
    for axis in axes:
        for k in range(8):
            bits = ((k >> 0) & 1, (k >> 1) & 1, (k >> 2) & 1, 0)
            st = encode_well_formed(basis_logical(4, bits), PhaseLabel.FP, topo)
            before = to_dense(st).amplitudes
            apply_schedule(st, topo, seq_ccz(axis))
            want = -1.0 if bits[:3] == (0, 0, 0) else 1.0
            assert np.max(np.abs(to_dense(st).amplitudes - want * before)) < 1e-12


def test_ccz_twice_is_identity():
    topo = build_conveyor(4)
    psi = random_logical_state(4, np.random.default_rng(15))
    st = encode_well_formed(psi, PhaseLabel.FP, topo)
    before = to_dense(st).amplitudes
    apply_schedule(st, topo, seq_ccz())
    apply_schedule(st, topo, seq_ccz())
    assert np.max(np.abs(to_dense(st).amplitudes - before)) < 1e-12


def test_toffoli_sequence():
    topo = build_conveyor(4)
    assert len(seq_toffoli()) == 5
    circ = LogicalCircuit(4, (LogicalGate("TOFFOLI", (1, 3, 2)),))

    # the (e, _, e) controls flip the target; others do nothing; one shared phase
    overlaps = []
    for k in range(8):
        bits = ((k >> 0) & 1, (k >> 1) & 1, (k >> 2) & 1, 0)
        psi = basis_logical(4, bits)
        st = encode_well_formed(psi, PhaseLabel.FP, topo)
        apply_schedule(st, topo, seq_toffoli())
        raw = to_dense(st).amplitudes[_wf_table(topo, PhaseLabel.FP)]
        expected = simulate_logical(circ, psi)
        ip = np.vdot(expected.amplitudes, raw)
        overlaps.append(ip)
        assert abs(abs(ip) - 1) < 1e-12
    assert max(abs(ip - overlaps[0]) for ip in overlaps) < 1e-12

    # explicit controlled and uncontrolled branches
    st = encode_well_formed(basis_logical(4, (1, 0, 1, 0)), PhaseLabel.FP, topo)
    apply_schedule(st, topo, seq_toffoli())
    dec, _, _ = decode_well_formed(st, topo)
    assert abs(abs(dec.amplitudes[0b0111]) - 1) < 1e-12

    st = encode_well_formed(basis_logical(4, (0, 1, 0, 0)), PhaseLabel.FP, topo)
    apply_schedule(st, topo, seq_toffoli())
    dec, _, _ = decode_well_formed(st, topo)
    assert abs(abs(dec.amplitudes[0b0010]) - 1) < 1e-12


def test_toffoli_common_phase_on_superpositions():
    topo = build_conveyor(4)
    circ = LogicalCircuit(4, (LogicalGate("TOFFOLI", (1, 3, 2)),))
    rng = np.random.default_rng(16)
    reference = None
    for _ in range(10):
        psi = random_logical_state(4, rng)
        st = encode_well_formed(psi, PhaseLabel.FP, topo)
        apply_schedule(st, topo, seq_toffoli())
        raw = LogicalStateVector(4, to_dense(st).amplitudes[_wf_table(topo, PhaseLabel.FP)])
        expected = simulate_logical(circ, psi)
        ip = np.vdot(expected.amplitudes, raw.amplitudes)
        assert abs(abs(ip) - 1) < 1e-10
        if reference is None:
            reference = ip
        assert abs(ip - reference) < 1e-10  # one common global phase


def _wf_table(topo, phase):
    from conveyorqc.state import _sector_mask, spread_bits

    return spread_bits(np.arange(1 << topo.n_logical, dtype=np.int64), topo.ic_sites) | _sector_mask(topo, phase)


def test_single_qubit_at_q2():
    topo = build_conveyor(4)
    psi = basis_logical(4, (0, 0, 0, 0))
    st = encode_well_formed(psi, PhaseLabel.FP, topo)
    apply_schedule(st, topo, seq_single_qubit_at_Q2(math.pi, X_AXIS))
    flipped = encode_well_formed(basis_logical(4, (0, 1, 0, 0)), PhaseLabel.FP, topo)
    assert np.max(np.abs(to_dense(st).amplitudes - (-1j) * to_dense(flipped).amplitudes)) < 1e-12

    st = encode_well_formed(psi, PhaseLabel.FP, topo)
    before = to_dense(st).amplitudes
    apply_schedule(st, topo, seq_single_qubit_at_Q2(0.0, X_AXIS))
    assert np.array_equal(to_dense(st).amplitudes, before)

    rng = np.random.default_rng(17)
    axis = rng.normal(size=3)
    axis = tuple(axis / np.linalg.norm(axis))
    theta = float(rng.uniform(-math.pi, math.pi))
    psi = random_logical_state(4, rng)
    st = encode_well_formed(psi, PhaseLabel.FP, topo)
    apply_schedule(st, topo, seq_single_qubit_at_Q2(theta, axis))
    dec, _, _ = decode_well_formed(st, topo)
    oracle_out = simulate_logical(LogicalCircuit(4, (LogicalGate("R", (2,), theta, axis),)), psi)
    fid, _ = compare_up_to_global_phase(oracle_out, dec)
    assert fid >= 1 - 1e-10


def test_init_sequence():
    topo = build_conveyor(4)
    st = all_ground(topo.n_sites)
    apply_schedule(st, topo, seq_init(topo))
    dec, phase, _ = decode_well_formed(st, topo)
    assert phase is PhaseLabel.FP
    assert abs(abs(dec.amplitudes[0]) - 1) < 1e-12
    assert topo.init_targets == (6, 14)  # centers of S_2 and S_4

    apply_schedule(st, topo, seq_init(topo))
    ground = all_ground(topo.n_sites)
    assert fidelity(st, ground) >= 1 - 1e-12

    with pytest.raises(ValueError):
        seq_init(build_variant("two_coupler_three_species", 8))


def test_apply_schedule_identity_and_inverse():
    topo = build_conveyor(4)
    psi = random_logical_state(4, np.random.default_rng(18))
    st = encode_well_formed(psi, PhaseLabel.FP, topo)
    before = to_dense(st).amplitudes
    apply_schedule(st, topo, PulseSchedule())
    assert np.array_equal(to_dense(st).amplitudes, before)

    fwd = [
        GlobalPulse(TargetClass.A_REGULAR, math.pi, X_AXIS),
        GlobalPulse(TargetClass.B_ALL, math.pi, X_AXIS),
        GlobalPulse(TargetClass.B_CROSSED, math.pi, X_AXIS),
    ]
    back = [GlobalPulse(p.target, -p.theta, p.axis) for p in reversed(fwd)]
    apply_schedule(st, topo, PulseSchedule(fwd + back))
    assert np.max(np.abs(to_dense(st).amplitudes - before)) < 1e-10


def test_pulse_unitarity_random():
    topo = build_conveyor(4)
    rng = np.random.default_rng(19)
    amp = rng.normal(size=1 << 17) + 1j * rng.normal(size=1 << 17)
    amp /= np.linalg.norm(amp)
    st = to_sparse(PureState(17, amp.astype(complex)), 0.0)
    classes = [TargetClass.A_REGULAR, TargetClass.B_REGULAR, TargetClass.B_CROSSED, TargetClass.A_CROSSED]
    for _ in range(8):
        axis = rng.normal(size=3)
        axis = tuple(axis / np.linalg.norm(axis))
        pulse = GlobalPulse(classes[rng.integers(4)], float(rng.uniform(-2 * math.pi, 2 * math.pi)), axis)
        apply_global_pulse(st, topo, pulse)
        assert abs(norm(st) - 1) < 1e-12


def test_per_site_order_independence():
    topo = build_conveyor(4)
    rng = np.random.default_rng(20)
    psi = random_logical_state(4, rng)
    ref = encode_well_formed(psi, PhaseLabel.FP, topo)
    axis = rng.normal(size=3)
    axis = tuple(axis / np.linalg.norm(axis))
    theta = 1.37
    apply_global_pulse(ref, topo, GlobalPulse(TargetClass.A_REGULAR, theta, axis))

    shuffled = encode_well_formed(psi, PhaseLabel.FP, topo)
    sites = list(class_sites(topo, TargetClass.A_REGULAR))
    random.Random(4).shuffle(sites)
    for site in sites:
        apply_controlled_rotation(shuffled, site, topo.neighbor_map[site], theta, axis)
    assert np.max(np.abs(to_dense(ref).amplitudes - to_dense(shuffled).amplitudes)) < 1e-12


def test_backend_equivalence_generic_schedule():
    topo = build_conveyor(4)
    rng = np.random.default_rng(21)
    psi = random_logical_state(4, rng)
    axis = rng.normal(size=3)
    axis = tuple(axis / np.linalg.norm(axis))
    schedule = PulseSchedule(
        [
            GlobalPulse(TargetClass.B_CROSSED, 0.7, axis),
            GlobalPulse(TargetClass.A_REGULAR, -1.2, axis),
            GlobalPulse(TargetClass.B_ALL, math.pi, X_AXIS),
        ]
    )
    dense = encode_well_formed(psi, PhaseLabel.FP, topo, backend="dense")
    sparse = encode_well_formed(psi, PhaseLabel.FP, topo, backend="sparse")
    apply_schedule(dense, topo, schedule)
    apply_schedule(sparse, topo, schedule)
    assert l2_distance(dense, sparse) < 1e-10


def test_sparse_support_bound_under_exchange():
    topo = build_conveyor(4)
    psi = random_logical_state(4, np.random.default_rng(22))
    st = encode_well_formed(psi, PhaseLabel.FP, topo, backend="sparse")
    support = len(st.amplitudes)
    for pulse in seq_exchange().pulses * 4:
        apply_global_pulse(st, topo, pulse)
        assert len(st.amplitudes) <= support


def test_schedule_text_round_trip():
    rng = np.random.default_rng(23)
    pulses = []
    for _ in range(6):
        axis = rng.normal(size=3)
        axis = tuple(axis / np.linalg.norm(axis))
        pulses.append(
            GlobalPulse(TargetClass.B_CROSSED, float(rng.uniform(-2 * math.pi, 2 * math.pi)), axis)
        )
    sched = PulseSchedule(pulses)
    text = write_schedule(sched, meta={"pulses": "6"})
    parsed, meta = parse_schedule(text)
    assert parsed.pulses == tuple(pulses)  # lossless floats
    assert meta["pulses"] == "6"


def test_schedule_macro_lines():
    text = "# a comment\nMACRO INIT\nMACRO EXC\nMACRO CCZ\nMACRO TOFFOLI\nMACRO EXC_INV\n"
    sched, _ = parse_schedule(text)
    assert len(sched) == 1 + 8 + 1 + 5 + 10
    names = [step for step in sched.steps if isinstance(step, str)]
    assert names == ["INIT", "EXC", "CCZ", "TOFFOLI", "EXC_INV"]
    # writer reproduces macro lines
    out = write_schedule(sched)
    assert out.splitlines() == ["MACRO INIT", "MACRO EXC", "MACRO CCZ", "MACRO TOFFOLI", "MACRO EXC_INV"]


def test_schedule_parse_errors():
    with pytest.raises(ValueError):
        parse_schedule("MACRO NOPE\n")
    with pytest.raises(ValueError):
        parse_schedule("PULSE D_regular theta=1 axis=1,0,0\n")
    with pytest.raises(ValueError):
        parse_schedule("PULSE B_all theta=1\n")


@pytest.mark.parametrize(
    "line",
    [
        "PULSE B_all theta=abc axis=1,0,0",
        "PULSE B_all theta=1 axis=1,x,0",
        "PULSE B_all theta=1 axis=1,0",
        "PULSE B_all theta=7 axis=1,0,0",
    ],
)
def test_schedule_parse_errors_name_the_line(line):
    with pytest.raises(ValueError, match=r"^line 3: "):
        parse_schedule(f"MACRO INIT\n# pulses: 2\n{line}\n")


_TOPO4 = build_conveyor(4)
_UNIT_AXES = (
    st.tuples(*[st.floats(-1, 1)] * 3)
    .filter(lambda v: math.hypot(*v) > 0.1)
    .map(lambda v: tuple(float(x) / math.hypot(*v) for x in v))
)
_SCHEDULE_PIECES = st.one_of(
    st.builds(
        lambda target, theta, axis: PulseSchedule([GlobalPulse(target, theta, axis)]),
        st.sampled_from(list(TargetClass)),
        st.floats(-2 * math.pi, 2 * math.pi),
        _UNIT_AXES,
    ),
    st.sampled_from(
        [seq_exchange, seq_exchange_inverse, seq_ccz, seq_toffoli, lambda: seq_init(_TOPO4)]
    ).map(lambda seq: seq()),
)
_META_KEYS = st.text("abcdefghijklmnopqrstuvwxyz_0123456789", min_size=1, max_size=12)
_META_VALUES = st.text("abc xyz,0123456789:#=-.", max_size=20).map(str.strip)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pieces=st.lists(_SCHEDULE_PIECES, max_size=8), meta=st.dictionaries(_META_KEYS, _META_VALUES, max_size=3))
def test_schedule_text_round_trip_property(pieces, meta):
    sched = PulseSchedule()
    for piece in pieces:
        sched.extend(piece)
    parsed, parsed_meta = parse_schedule(write_schedule(sched, meta=meta))
    assert parsed.pulses == sched.pulses
    assert parsed.steps == sched.steps
    assert parsed_meta == meta


@pytest.mark.parametrize("backend", ["dense", "sparse"])
def test_non_finite_rotation_is_rejected(backend):
    nan = float("nan")
    bad = [(math.pi, (nan, 0.0, 1.0)), (nan, X_AXIS), (math.pi, (math.inf, 0.0, 0.0))]
    for theta, axis in bad:
        with pytest.raises(ValueError):
            GlobalPulse(TargetClass.B_CROSSED, theta, axis)
    with pytest.raises(ValueError):
        parse_schedule("PULSE B_crossed theta=3.14 axis=nan,0,1\n")

    topo = build_conveyor(4)
    st = encode_well_formed(random_logical_state(4, np.random.default_rng(30)), PhaseLabel.FP, topo, backend)
    before = st.copy()
    for theta, axis in bad:
        with pytest.raises(ValueError):
            apply_controlled_rotation(st, 4, topo.neighbor_map[4], theta, axis)
    assert l2_distance(st, before) == 0.0 and abs(norm(st) - 1) < 1e-12


def test_device_tables_are_freed_with_the_topology(tmp_path):
    save(build_conveyor(4), tmp_path / "topo.json")
    topo = load(tmp_path / "topo.json")
    for backend in ("dense", "sparse"):
        st = all_ground(topo.n_sites, backend)
        apply_schedule(st, topo, seq_init(topo))
        apply_schedule(st, topo, seq_exchange())
    assert topo.tables  # class masks were built
    ref = weakref.ref(topo)
    del topo
    gc.collect()
    assert ref() is None


def _random_axis(rng):
    axis = rng.normal(size=3)
    return tuple(axis / np.linalg.norm(axis))


def _pulse_by_pulse(state, topo, schedule):
    for pulse in schedule.pulses:
        apply_global_pulse(state, topo, pulse)
    return state


@pytest.mark.parametrize("seed", range(2))
def test_dense_schedule_matches_pulse_by_pulse_on_compiled_circuits(seed):
    # apply_schedule runs the same per-pulse kernel on an unpruned support,
    # so the result must agree bit for bit.
    topo = build_conveyor(4)
    rng = np.random.default_rng(40 + seed)
    gates = []
    for kind in ("R", "X", "Z", "H", "CNOT", "CZ", "SWAP", "TOFFOLI"):
        qubits = tuple(int(q) + 1 for q in rng.permutation(4)[: GATE_ARITY[kind]])
        gates.append(LogicalGate(kind, qubits, float(rng.uniform(-3, 3)), _random_axis(rng)))
    rng.shuffle(gates)
    schedule = compile_circuit(LogicalCircuit(4, tuple(gates)), topo).schedule
    psi = random_logical_state(4, rng)
    whole = encode_well_formed(psi, PhaseLabel.FP, topo)
    apply_schedule(whole, topo, schedule)
    stepped = _pulse_by_pulse(encode_well_formed(psi, PhaseLabel.FP, topo), topo, schedule)
    assert np.array_equal(to_dense(whole).amplitudes, to_dense(stepped).amplitudes)


def test_dense_schedule_matches_pulse_by_pulse_on_full_support():
    topo = build_conveyor(4)
    rng = np.random.default_rng(41)
    amp = rng.normal(size=1 << 17) + 1j * rng.normal(size=1 << 17)
    amp /= np.linalg.norm(amp)
    classes = [TargetClass.A_REGULAR, TargetClass.B_ALL, TargetClass.B_CROSSED, TargetClass.A_CROSSED]
    schedule = PulseSchedule(
        [
            GlobalPulse(classes[rng.integers(4)], float(rng.uniform(-2 * math.pi, 2 * math.pi)), _random_axis(rng))
            for _ in range(4)
        ]
    )
    whole = to_sparse(PureState(17, amp.copy()), 0.0)
    apply_schedule(whole, topo, schedule)
    stepped = _pulse_by_pulse(to_sparse(PureState(17, amp.copy()), 0.0), topo, schedule)
    assert np.array_equal(to_dense(whole).amplitudes, to_dense(stepped).amplitudes)


def test_dense_schedule_that_raises_keeps_the_pulses_before_it():
    topo = build_conveyor(4)
    psi = random_logical_state(4, np.random.default_rng(42))
    first = GlobalPulse(TargetClass.B_CROSSED, 0.9, HADAMARD_AXIS)
    expected = apply_global_pulse(encode_well_formed(psi, PhaseLabel.FP, topo), topo, first)
    st = encode_well_formed(psi, PhaseLabel.FP, topo)
    bad = PulseSchedule([first, GlobalPulse(TargetClass.C_REGULAR, math.pi, X_AXIS), first])
    with pytest.raises(ValueError, match="empty"):
        apply_schedule(st, topo, bad)
    assert np.array_equal(to_dense(st).amplitudes, to_dense(expected).amplitudes)


def test_to_sparse_at_zero_tolerance_keeps_exactly_the_nonzero_entries():
    topo = build_conveyor(4)
    st = to_dense(encode_well_formed(random_logical_state(4, np.random.default_rng(43)), PhaseLabel.FP, topo))
    st.amplitudes[7] = 1e-300  # nonzero, however small
    lowered = to_sparse(st, 0.0)
    assert np.array_equal(lowered.indices, np.flatnonzero(st.amplitudes))
    assert np.array_equal(lowered.values, st.amplitudes[lowered.indices])
