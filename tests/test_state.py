import math

import numpy as np
import pytest

from conveyorqc.state import (
    LogicalStateVector,
    NotWellFormedError,
    PhaseLabel,
    PureState,
    SparseState,
    all_ground,
    apply_controlled_rotation,
    decode_well_formed,
    encode_well_formed,
    fidelity,
    l2_distance,
    load_logical_csv,
    norm,
    random_logical_state,
    state_csv_lines,
    to_dense,
    to_sparse,
    well_formed_residual,
)
from conveyorqc.topology import build_conveyor

X = (1.0, 0.0, 0.0)


def test_all_ground():
    st = all_ground(2)
    assert np.allclose(to_dense(st).amplitudes, [1, 0, 0, 0])
    st17 = all_ground(17)
    assert to_dense(st17).amplitudes[0] == 1 and norm(st17) == 1.0
    sp = all_ground(3, backend="sparse")
    assert sp.amplitudes == {0: 1.0}
    with pytest.raises(ValueError):
        all_ground(0)


def test_backend_size_limits():
    # Both backends store the support; only the `to_dense` snapshot is 2^n wide.
    assert len(all_ground(27).amplitudes) == 1
    with pytest.raises(ValueError, match="dense snapshot"):
        to_dense(all_ground(27))  # 2^27 amplitudes would need 2 GiB
    topo = build_conveyor(8)
    psi = LogicalStateVector(8, np.eye(256, dtype=complex)[0])
    for backend in ("dense", "sparse"):
        assert len(encode_well_formed(psi, PhaseLabel.FP, topo, backend=backend).amplitudes) == 1
        assert len(all_ground(63, backend=backend).amplitudes) == 1
        with pytest.raises(ValueError, match="limit of 63"):
            all_ground(64, backend=backend)


@pytest.mark.parametrize("backend", ["dense", "sparse"])
def test_controlled_rotation_pi_flip(backend):
    st = all_ground(3, backend=backend)
    apply_controlled_rotation(st, 0, {1, 2}, math.pi, X)
    assert abs(to_dense(st).amplitudes[1] - (-1j)) < 1e-15  # flipped, factor -i
    assert abs(norm(st) - 1) < 1e-12


@pytest.mark.parametrize("backend", ["dense", "sparse"])
def test_controlled_rotation_blocked(backend):
    st = all_ground(3, backend=backend)
    apply_controlled_rotation(st, 1, (), math.pi, X)  # excite the control
    before = to_dense(st).amplitudes
    apply_controlled_rotation(st, 0, {1}, 1.234, (0.0, 1.0, 0.0))
    assert np.allclose(to_dense(st).amplitudes, before, atol=1e-15)


def test_controlled_rotation_full_turn_sign():
    st = all_ground(2)
    apply_controlled_rotation(st, 0, {1}, 2 * math.pi, (0.0, 0.0, 1.0))
    assert abs(to_dense(st).amplitudes[0] + 1) < 1e-12


def test_controlled_rotation_errors():
    st = all_ground(2)
    with pytest.raises(ValueError):
        apply_controlled_rotation(st, 0, {0}, math.pi, X)
    with pytest.raises(ValueError):
        apply_controlled_rotation(st, 5, (), math.pi, X)
    with pytest.raises(ValueError):
        apply_controlled_rotation(st, 0, (), math.pi, (1.0, 1.0, 0.0))


def _encoded_index(topo, logical_bits, phase):
    idx = 0
    for j, b in enumerate(logical_bits):
        idx |= b << topo.ic_sites[j]
    start = 2 if phase is PhaseLabel.FP else 1
    for j in range(start, topo.n_logical + 1, 2):
        idx |= 1 << topo.sectors[j - 1][1]
    return idx


def test_encode_ground_logical_sets_alternating_sector_centers():
    topo = build_conveyor(4)
    psi = LogicalStateVector(4, np.eye(16, dtype=complex)[0])
    st = encode_well_formed(psi, PhaseLabel.FP, topo)
    want = _encoded_index(topo, (0, 0, 0, 0), PhaseLabel.FP)
    assert want == (1 << 6) | (1 << 14)  # centers of S_2 and S_4
    assert to_dense(st).amplitudes[want] == 1.0 and norm(st) == 1.0


def test_encode_basis_and_linearity():
    topo = build_conveyor(4)
    e1 = np.zeros(16, dtype=complex)
    e1[1] = 1.0  # logical q1 excited
    st = encode_well_formed(LogicalStateVector(4, e1), PhaseLabel.FP, topo)
    assert to_dense(st).amplitudes[_encoded_index(topo, (1, 0, 0, 0), PhaseLabel.FP)] == 1.0

    plus = np.zeros(16, dtype=complex)
    plus[0] = plus[1] = 1 / math.sqrt(2)
    st = encode_well_formed(LogicalStateVector(4, plus), PhaseLabel.FP, topo)
    i0 = _encoded_index(topo, (0, 0, 0, 0), PhaseLabel.FP)
    i1 = _encoded_index(topo, (1, 0, 0, 0), PhaseLabel.FP)
    amp = to_dense(st).amplitudes
    assert abs(amp[i0] - 1 / math.sqrt(2)) < 1e-15
    assert abs(amp[i1] - 1 / math.sqrt(2)) < 1e-15
    assert i0 ^ i1 == 1 << topo.ic_sites[0]


def test_dense_backend_never_prunes():
    topo = build_conveyor(4)
    amp = np.zeros(16, dtype=complex)
    amp[0], amp[3] = 1.0, 1e-13
    psi = LogicalStateVector(4, amp)
    dense = encode_well_formed(psi, PhaseLabel.FP, topo, backend="dense")
    sparse = encode_well_formed(psi, PhaseLabel.FP, topo, backend="sparse")
    assert len(dense.amplitudes) == 2 and len(sparse.amplitudes) == 1
    # a small-angle split leaves branches far below the sparse tolerance
    for st in (dense, sparse):
        apply_controlled_rotation(st, topo.ic_sites[2], (), 1e-13, X)
    assert len(dense.amplitudes) == 4 and len(sparse.amplitudes) == 1
    assert all_ground(2, "dense").prune_tolerance == 0.0


def test_encode_dimension_mismatch():
    topo = build_conveyor(4)
    with pytest.raises(ValueError):
        encode_well_formed(LogicalStateVector(6, np.zeros(64)), PhaseLabel.FP, topo)


@pytest.mark.parametrize("phase", [PhaseLabel.FP, PhaseLabel.PF])
@pytest.mark.parametrize("backend", ["dense", "sparse"])
def test_encode_decode_round_trip(phase, backend):
    topo = build_conveyor(4)
    rng = np.random.default_rng(42)
    for _ in range(100):
        psi = random_logical_state(4, rng)
        st = encode_well_formed(psi, phase, topo, backend=backend)
        out, got_phase, alpha = decode_well_formed(st, topo)
        assert got_phase is phase
        assert abs(alpha) < 1e-12
        assert np.linalg.norm(out.amplitudes - psi.amplitudes) < 1e-12


def test_decode_reports_global_phase():
    topo = build_conveyor(4)
    psi = random_logical_state(4, np.random.default_rng(3))
    st = encode_well_formed(psi, PhaseLabel.PF, topo)
    st.values *= np.exp(1j * math.pi / 3)
    out, phase, alpha = decode_well_formed(st, topo)
    assert phase is PhaseLabel.PF
    assert abs(alpha - math.pi / 3) < 1e-12
    assert np.linalg.norm(out.amplitudes - psi.amplitudes) < 1e-12


def test_decode_rejects_all_ground():
    # Independent check: project the raw device ground state onto both
    # encodings by direct overlap sums; the sector patterns never match.
    topo = build_conveyor(4)
    st = all_ground(topo.n_sites)
    amp = to_dense(st).amplitudes
    for phase in PhaseLabel:
        overlap = sum(
            abs(amp[_encoded_index(topo, tuple((k >> j) & 1 for j in range(4)), phase)]) ** 2
            for k in range(16)
        )
        assert overlap == 0.0
    with pytest.raises(NotWellFormedError) as info:
        decode_well_formed(st, topo)
    assert abs(info.value.residual - 1.0) < 1e-12
    residual, _, _ = well_formed_residual(st, topo)
    assert abs(residual - 1.0) < 1e-12


def test_fidelity_properties():
    rng = np.random.default_rng(0)
    amp = rng.normal(size=8) + 1j * rng.normal(size=8)
    amp /= np.linalg.norm(amp)
    s = to_sparse(PureState(3, amp.astype(complex)), 0.0)
    assert abs(fidelity(s, s) - 1) < 1e-12
    rotated = to_sparse(PureState(3, amp * np.exp(0.7j)), 0.0)
    assert abs(fidelity(s, rotated) - 1) < 1e-12
    g = all_ground(1)
    e = to_sparse(PureState(1, np.array([0, 1], dtype=complex)), 0.0)
    assert fidelity(g, e) == 0.0
    with pytest.raises(ValueError):
        fidelity(g, s)


def test_l2_distance_counts_entries_on_either_support():
    a = SparseState(3, np.array([0, 5]), np.array([0.6, 0.8j]), prune_tolerance=0.0)
    b = SparseState(3, np.array([5, 2]), np.array([0.8j, 1.0]), prune_tolerance=0.0)
    want = np.linalg.norm(to_dense(a).amplitudes - to_dense(b).amplitudes)
    assert abs(want - math.sqrt(1.36)) < 1e-15
    assert abs(l2_distance(a, b) - want) < 1e-15 and abs(l2_distance(b, a) - want) < 1e-15
    assert l2_distance(a, a) == 0.0


def test_sparse_dense_round_trip():
    rng = np.random.default_rng(5)
    amp = rng.normal(size=32) + 1j * rng.normal(size=32)
    amp /= np.linalg.norm(amp)
    s = PureState(5, amp.astype(complex))
    assert np.linalg.norm(to_dense(to_sparse(s)).amplitudes - s.amplitudes) < 1e-12

    basis = to_dense(all_ground(5))
    assert len(to_sparse(basis).amplitudes) == 1

    tiny = PureState(2, np.array([1.0, 1e-13, 0, 0], dtype=complex))
    assert set(to_sparse(tiny).amplitudes) == {0}


def test_norm_preserved_by_rotations():
    rng = np.random.default_rng(9)
    amp = rng.normal(size=64) + 1j * rng.normal(size=64)
    amp /= np.linalg.norm(amp)
    start = PureState(6, amp.astype(complex))
    dense, sparse = to_sparse(start, 0.0), to_sparse(start)
    for k in range(20):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        theta = rng.uniform(-2 * math.pi, 2 * math.pi)
        target = int(rng.integers(6))
        controls = {c for c in range(6) if c != target and rng.random() < 0.4}
        apply_controlled_rotation(dense, target, controls, theta, tuple(axis))
        apply_controlled_rotation(sparse, target, controls, theta, tuple(axis))
    assert abs(norm(dense) - 1) < 1e-12
    assert abs(norm(sparse) - 1) < 1e-10
    assert l2_distance(dense, sparse) < 1e-10


def test_state_csv_format(tmp_path):
    st = PureState(5, np.zeros(32, dtype=complex))
    st.amplitudes[16] = 0.6
    st.amplitudes[3] = 0.8j
    st.amplitudes[7] = 1e-14  # below threshold
    lines = state_csv_lines(to_sparse(st, 0.0))
    assert lines[0] == "index,real,imag"
    assert lines[1].startswith("0x3,") and lines[2].startswith("0x10,")
    assert len(lines) == 3

    f = tmp_path / "psi.csv"
    f.write_text("\n".join(["index,real,imag", "0x0,0.6,0", "0x2,0,0.8"]) + "\n")
    psi = load_logical_csv(f, 2)
    assert abs(psi.amplitudes[0] - 0.6) < 1e-15 and abs(psi.amplitudes[2] - 0.8j) < 1e-15
    bad = tmp_path / "bad.csv"
    bad.write_text("0x0,0.1,0\n")
    with pytest.raises(ValueError):
        load_logical_csv(bad, 2)


@pytest.mark.parametrize("row", ["0x0,nan,0", "0x0,1,nan", "0x0,inf,0", "0x1,0,-inf"])
def test_load_logical_csv_rejects_non_finite_amplitudes(tmp_path, row):
    f = tmp_path / "psi.csv"
    f.write_text(f"index,real,imag\n{row}\n")
    with pytest.raises(ValueError, match=r"psi\.csv:2: .*not finite"):
        load_logical_csv(f, 2)


@pytest.mark.parametrize("row", ["0x0,abc,0", "0x0,1,", "zz,1,0"])
def test_load_logical_csv_names_the_unparsable_row(tmp_path, row):
    f = tmp_path / "psi.csv"
    f.write_text(f"index,real,imag\n0x1,0.6,0\n{row}\n")
    with pytest.raises(ValueError, match=r"psi\.csv:3: "):
        load_logical_csv(f, 2)
