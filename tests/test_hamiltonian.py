import math

import numpy as np
import pytest

from conveyorqc.hamiltonian import (
    FRAGMENT_KINDS,
    LAB,
    OMEGA_A,
    OMEGA_B,
    ROTATING_WAVE,
    ZETA,
    ContinuousModel,
    Fragment,
    blockade_fidelity,
    build_hamiltonian,
    evolve,
    fragment_from_site,
    pi_pulse_model,
    resonant_drive_frequency,
    sweep_blockade,
    sweep_csv_lines,
)
from conveyorqc.topology import build_conveyor


def _model(**overrides):
    base = dict(
        omega_a=OMEGA_A,
        omega_b=OMEGA_B,
        zeta=ZETA,
        omega_rabi=ZETA / 8,
        omega_drive=OMEGA_B - 2 * ZETA,
        duration=1.0,
        dt=9e-4,
    )
    base.update(overrides)
    return ContinuousModel(**base)


def _stepwise_evolve(psi, fragment, model):
    """Reference: integrating-factor RK4 stepped over the whole duration on
    the full state vector, with no block or period structure."""
    psi = np.asarray(psi, dtype=complex).copy()
    d = np.diag(build_hamiltonian(fragment, model, 0.0)).real
    amp = 2 * model.omega_rabi if fragment.crossed else model.omega_rabi
    if model.frame == LAB:
        u01, u10 = -1j, 1j  # sigma_y

        def s_of(t):
            return amp * math.sin(model.omega_drive * t + model.phi)

    else:
        u01 = 0.5 * amp * np.exp(-1j * model.phi)
        u10 = 0.5 * amp * np.exp(1j * model.phi)

        def s_of(t):
            return 1.0

    def drive(v):  # off-diagonal coupling of the driven qubit (bit 0)
        w = v.reshape(-1, 2)
        out = np.empty_like(w)
        out[:, 0] = u01 * w[:, 1]
        out[:, 1] = u10 * w[:, 0]
        return out.reshape(-1)

    n_steps = max(1, math.ceil(model.duration / model.dt - 1e-12))
    h = model.duration / n_steps
    e_half = np.exp(-1j * d * (h / 2))
    e_half_c = e_half.conj()
    e_full = e_half * e_half
    e_full_c = e_full.conj()

    for k in range(n_steps):
        t = k * h
        y0 = psi
        k1 = -1j * s_of(t) * drive(y0)
        k2 = -1j * s_of(t + h / 2) * (e_half_c * drive(e_half * (y0 + (h / 2) * k1)))
        k3 = -1j * s_of(t + h / 2) * (e_half_c * drive(e_half * (y0 + (h / 2) * k2)))
        k4 = -1j * s_of(t + h) * (e_full_c * drive(e_full * (y0 + h * k3)))
        psi = e_full * (y0 + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4))
    return psi


def test_model_validation():
    with pytest.raises(ValueError):
        _model(dt=0.01)  # dt * omega >= 0.05
    with pytest.raises(ValueError):
        _model(omega_a=-1.0)
    with pytest.raises(ValueError):
        _model(frame="heisenberg")
    with pytest.raises(ValueError):
        Fragment("Q", 2)
    with pytest.raises(ValueError):
        Fragment("B", 4)


@pytest.mark.parametrize(
    "name", ["omega_a", "omega_b", "zeta", "omega_rabi", "omega_drive", "duration", "dt", "phi"]
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_model_rejects_non_finite_fields(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        _model(**{name: value})


@pytest.mark.parametrize("eta", [math.inf, math.nan, -math.inf, 0.0, -1.0])
def test_pi_pulse_model_rejects_bad_eta(eta):
    with pytest.raises(ValueError, match="eta must be positive and finite"):
        pi_pulse_model(FRAGMENT_KINDS["two_neighbor"], eta)


def test_fragment_from_site():
    topo = build_conveyor(4)
    q2 = fragment_from_site(topo, topo.ic_sites[1])
    assert q2 == Fragment("B", 3, triangle_corrected=True, crossed=True)
    center = fragment_from_site(topo, topo.sectors[0][1])
    assert center == Fragment("B", 2, triangle_corrected=False, crossed=False)
    hub = fragment_from_site(topo, topo.central_site)
    assert hub == Fragment("A", 3, triangle_corrected=True, crossed=True)


def test_hamiltonian_hermitian_and_h0_at_zero_crossing():
    frag = FRAGMENT_KINDS["three_neighbor"]
    model = _model()
    rng = np.random.default_rng(0)
    for t in rng.uniform(0, 10, size=5):
        h = build_hamiltonian(frag, model, float(t))
        assert np.max(np.abs(h - h.conj().T)) < 1e-14
    h0 = build_hamiltonian(frag, model, 0.0)  # sin(0) = 0
    assert np.max(np.abs(h0 - np.diag(np.diag(h0)))) == 0.0


def test_ground_conditioned_transition_energies():
    # 3-qubit chain fragment: driven B with both A neighbors in g
    frag2 = FRAGMENT_KINDS["two_neighbor"]
    model = _model()
    h0 = np.diag(build_hamiltonian(frag2, model, 0.0)).real
    gap2 = h0[0b001] - h0[0b000]
    assert abs(gap2 - (OMEGA_B - 2 * ZETA)) < 1e-12

    # 4-qubit star with the level-spacing correction: same gap
    frag3 = FRAGMENT_KINDS["three_neighbor"]
    h0 = np.diag(build_hamiltonian(frag3, model, 0.0)).real
    gap3 = h0[0b0001] - h0[0b0000]
    assert abs(gap3 - (OMEGA_B - 2 * ZETA)) < 1e-12

    # without the correction the star misses the target by zeta
    frag3u = FRAGMENT_KINDS["three_neighbor_uncorrected"]
    h0 = np.diag(build_hamiltonian(frag3u, model, 0.0)).real
    assert abs((h0[1] - h0[0]) - (OMEGA_B - 3 * ZETA)) < 1e-12


def test_crossed_site_doubles_drive():
    frag = Fragment("B", 2, crossed=True)
    plain = Fragment("B", 2, crossed=False)
    model = _model()
    t = 0.013
    h_crossed = build_hamiltonian(frag, model, t)
    h_plain = build_hamiltonian(plain, model, t)
    off_c = h_crossed[1, 0]
    off_p = h_plain[1, 0]
    assert abs(off_c - 2 * off_p) < 1e-14


def test_evolve_zero_drive_accumulates_exact_phases():
    frag = FRAGMENT_KINDS["two_neighbor"]
    model = _model(omega_rabi=0.0, duration=2.0)
    rng = np.random.default_rng(1)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    v /= np.linalg.norm(v)
    w = evolve(v, frag, model)
    d = np.diag(build_hamiltonian(frag, model, 0.0)).real
    assert np.max(np.abs(w - np.exp(-1j * d * model.duration) * v)) < 1e-8
    assert np.max(np.abs(np.abs(w) - np.abs(v))) < 1e-8


def test_evolve_validates_input():
    frag = FRAGMENT_KINDS["two_neighbor"]
    with pytest.raises(ValueError):
        evolve(np.ones(8), frag, _model())  # not unit norm
    with pytest.raises(ValueError):
        evolve(np.eye(16)[0], frag, _model())  # wrong dimension
    # 9e12 drive periods: the powered RK4 propagator has lost unitarity
    with pytest.raises(ValueError, match="not unitary .* after 9000000000000 drive periods"):
        evolve(np.eye(8)[0], frag, pi_pulse_model(frag, 1e12))


@pytest.mark.parametrize("frame", [LAB, ROTATING_WAVE])
@pytest.mark.parametrize("periods", [0.4, 3.0, None])  # None: duration 3.7, not a whole number of periods
def test_evolve_matches_stepwise_integration(frame, periods):
    frag = Fragment("B", 3, triangle_corrected=True, crossed=True)
    period = 2 * math.pi / (OMEGA_B - 2 * ZETA)
    duration = 3.7 if periods is None else periods * period
    model = _model(omega_rabi=ZETA / 2, duration=duration, phi=0.3, frame=frame)
    rng = np.random.default_rng(7)
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    v /= np.linalg.norm(v)
    assert np.linalg.norm(evolve(v, frag, model) - _stepwise_evolve(v, frag, model)) <= 1e-10


@pytest.mark.parametrize("kind", sorted(FRAGMENT_KINDS))
@pytest.mark.parametrize("eta", [1, 2, 4])
def test_blockade_fidelity_matches_stepwise_flips(kind, eta):
    frag = FRAGMENT_KINDS[kind]
    model = pi_pulse_model(frag, eta)
    record = blockade_fidelity(frag, model)
    for key, neighbors in (("p_flip_gg", 0b00), ("p_leak_ge", 0b01), ("p_leak_ee", 0b11)):
        psi0 = np.zeros(1 << frag.n_qubits, dtype=complex)
        psi0[neighbors << 1] = 1.0
        flip = float(np.sum(np.abs(_stepwise_evolve(psi0, frag, model)[1::2]) ** 2))
        assert abs(record[key] - flip) <= 1e-10, key


def test_evolve_fourth_order_convergence():
    frag = FRAGMENT_KINDS["two_neighbor"]
    psi0 = np.zeros(8, dtype=complex)
    psi0[0] = 1.0

    def run(dt):
        model = _model(omega_rabi=ZETA, duration=6.0, dt=dt)
        return evolve(psi0, frag, model)

    ref = run(1e-4)
    e_coarse = np.linalg.norm(run(1.2e-3) - ref)
    e_fine = np.linalg.norm(run(6e-4) - ref)
    assert e_coarse > 1e-11  # above float noise, meaningful ratio
    assert 8 < e_coarse / e_fine < 40  # ~2^4 for a 4th-order scheme


def test_rwa_resonant_pi_pulse_matches_rabi_solution():
    frag = Fragment("B", 2)
    omega_rabi = 0.4
    model = ContinuousModel(
        omega_a=OMEGA_A,
        omega_b=OMEGA_B,
        zeta=0.0,
        omega_rabi=omega_rabi,
        omega_drive=OMEGA_B,
        duration=math.pi / omega_rabi,
        dt=9e-4,
        frame=ROTATING_WAVE,
    )
    psi0 = np.zeros(8, dtype=complex)
    psi0[0] = 1.0
    psi = evolve(psi0, frag, model)
    assert abs(psi[1]) ** 2 >= 1 - 1e-6
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-8


def test_blockade_fidelity_requires_resonant_drive():
    frag = FRAGMENT_KINDS["two_neighbor"]
    with pytest.raises(ValueError):
        blockade_fidelity(frag, _model(omega_drive=OMEGA_B))


def test_blockade_improves_with_eta():
    frag = FRAGMENT_KINDS["two_neighbor"]
    records = {}
    for eta in (4, 16):
        records[eta] = blockade_fidelity(frag, pi_pulse_model(frag, eta))
    err = {
        eta: (1 - r["p_flip_gg"]) + r["p_leak_ge"] + r["p_leak_ee"] for eta, r in records.items()
    }
    assert records[16]["p_flip_gg"] > records[4]["p_flip_gg"]
    assert err[16] < err[4]
    assert records[4]["p_flip_gg"] > 0.999
    assert records[4]["p_leak_ge"] < 1e-2 and records[4]["p_leak_ee"] < 1e-2


def test_triangle_correction_matches_two_neighbor_resonance():
    eta = 8
    two = FRAGMENT_KINDS["two_neighbor"]
    three = FRAGMENT_KINDS["three_neighbor"]
    p2 = blockade_fidelity(two, pi_pulse_model(two, eta))["p_flip_gg"]
    p3 = blockade_fidelity(three, pi_pulse_model(three, eta))["p_flip_gg"]
    assert abs(p2 - p3) <= 5 * max(1 - p2, 1 - p3)

    uncorrected = FRAGMENT_KINDS["three_neighbor_uncorrected"]
    p3u = blockade_fidelity(uncorrected, pi_pulse_model(uncorrected, eta))["p_flip_gg"]
    assert p3u < 0.5


def test_resonance_helper():
    assert resonant_drive_frequency(Fragment("B", 2)) == OMEGA_B - 2 * ZETA
    assert resonant_drive_frequency(Fragment("A", 3, True)) == OMEGA_A - 2 * ZETA


def test_sweep_csv_contract():
    assert sweep_csv_lines([]) == ["eta,p_flip_gg,p_leak_ge,p_leak_ee"]
    rows = sweep_blockade([4.0, 4.0], "two_neighbor")
    assert len(rows) == 2 and rows[0] == rows[1]  # duplicates preserved
    lines = sweep_csv_lines(rows)
    assert lines[0] == "eta,p_flip_gg,p_leak_ge,p_leak_ee"
    assert lines[1] == lines[2]
    assert lines[1].startswith("4,0.9")
    with pytest.raises(ValueError):
        sweep_blockade([4], "five_neighbor")
