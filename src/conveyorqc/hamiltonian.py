"""Continuous-time check of the blockade primitive on small device fragments.

A fragment is one driven qubit plus its 2 or 3 ZZ-coupled neighbors.  The
static part of the Hamiltonian is diagonal in the computational basis:
(omega_i/2) sigma_z per site plus (zeta/2) sigma_z sigma_z per coupling, with
sigma_z |e> = +|e>.  Each ground neighbor therefore lowers the driven qubit's
transition energy by zeta, so a drive at omega - 2*zeta is resonant exactly
when all neighbors sit in |g>; three-neighbor sites get a +zeta level-spacing
correction so they share that resonance.

The drive flips the driven qubit (bit 0) only, so H(t) is block diagonal:
one 2x2 block per neighbor pattern.  In the lab frame the drive has period
T = 2pi/omega_d, so the propagator over n whole periods is U(T)^n (the
Floquet picture); a rotating-wave H is constant and so periodic with any T.
The integrator therefore steps through one period on all blocks at once,
raises that propagator to the number of whole periods with a matrix power,
and steps through the remainder: at most two periods are stepped through,
whatever the duration.

Each step advances the diagonal part exactly and treats only the drive term
with classical RK4 (an integrating-factor scheme, still 4th order).  Plain
RK4 would need a far smaller step to keep norm drift below 1e-8 at these
frequency scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .topology import DeviceTopology

# Default numeric scales (arbitrary units; only ratios matter).
OMEGA_B = 2 * math.pi * 5.0
OMEGA_A = 2 * math.pi * 6.5
ZETA = 2 * math.pi * 0.25
DT_SCALE = 0.04  # dt = DT_SCALE / fastest angular frequency
UNITARITY_TOL = 1e-6  # largest |U^dag U - I| a returned block propagator may have

LAB = "lab"
ROTATING_WAVE = "rotating_wave"


@dataclass(frozen=True)
class ContinuousModel:
    omega_a: float
    omega_b: float
    zeta: float
    omega_rabi: float  # drive amplitude Omega (before any crossing doubling)
    omega_drive: float
    duration: float
    dt: float
    phi: float = 0.0
    frame: str = LAB

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name != "frame" and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        for name in ("omega_a", "omega_b", "omega_drive", "duration", "dt"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.zeta < 0 or self.omega_rabi < 0:
            raise ValueError("zeta and omega_rabi must be non-negative")
        if self.frame not in (LAB, ROTATING_WAVE):
            raise ValueError(f"unknown frame {self.frame!r}")
        fastest = max(self.omega_a, self.omega_b, self.omega_drive)
        if self.dt * fastest >= 0.05:
            raise ValueError(
                f"dt={self.dt} does not resolve the fastest scale: dt*omega = {self.dt * fastest:.3f} >= 0.05"
            )


@dataclass(frozen=True)
class Fragment:
    driven_family: str = "B"
    n_neighbors: int = 2
    triangle_corrected: bool = False
    crossed: bool = False

    def __post_init__(self):
        if self.driven_family not in ("A", "B"):
            raise ValueError(f"driven family must be A or B, got {self.driven_family!r}")
        if self.n_neighbors not in (2, 3):
            raise ValueError(f"fragments have 2 or 3 neighbors, got {self.n_neighbors}")

    @property
    def n_qubits(self) -> int:
        return self.n_neighbors + 1


FRAGMENT_KINDS = {
    "two_neighbor": Fragment("B", 2, triangle_corrected=False),
    "three_neighbor": Fragment("B", 3, triangle_corrected=True),
    "three_neighbor_uncorrected": Fragment("B", 3, triangle_corrected=False),
}


def fragment_from_site(topo: DeviceTopology, site: int) -> Fragment:
    s = topo.sites[site]
    return Fragment(
        driven_family=s.species.family.value,
        n_neighbors=len(topo.neighbor_map[site]),
        triangle_corrected=s.triangle_corrected,
        crossed=s.species.crossing.value != "regular",
    )


def _frequencies(fragment: Fragment, model: ContinuousModel) -> tuple[float, float]:
    if fragment.driven_family == "B":
        w0, wn = model.omega_b, model.omega_a
    else:
        w0, wn = model.omega_a, model.omega_b
    if fragment.triangle_corrected:
        w0 += model.zeta
    return w0, wn


def rabi_amplitude(fragment: Fragment, omega_rabi: float) -> float:
    return 2 * omega_rabi if fragment.crossed else omega_rabi


def _diagonal(fragment: Fragment, model: ContinuousModel) -> np.ndarray:
    m = fragment.n_qubits
    idx = np.arange(1 << m)
    sz = [2.0 * ((idx >> q) & 1) - 1.0 for q in range(m)]
    w0, wn = _frequencies(fragment, model)
    d = 0.5 * w0 * sz[0]
    for k in range(1, m):
        d = d + 0.5 * wn * sz[k] + 0.5 * model.zeta * sz[0] * sz[k]
    if model.frame == ROTATING_WAVE:
        d = d - 0.5 * model.omega_drive * sz[0]
    return d


def build_hamiltonian(fragment: Fragment, model: ContinuousModel, t: float) -> np.ndarray:
    """H(t) as a dense Hermitian matrix in the model's frame (hbar = 1)."""
    dim = 1 << fragment.n_qubits
    h = np.diag(_diagonal(fragment, model).astype(complex))
    amp = rabi_amplitude(fragment, model.omega_rabi)
    i0 = np.arange(0, dim, 2)  # driven-qubit bit clear
    i1 = i0 + 1
    if model.frame == LAB:
        s = amp * math.sin(model.omega_drive * t + model.phi)
        h[i1, i0] += 1j * s  # sigma_y on the driven qubit
        h[i0, i1] += -1j * s
    else:
        half = 0.5 * amp
        h[i1, i0] += half * np.exp(1j * model.phi)
        h[i0, i1] += half * np.exp(-1j * model.phi)
    return h


def _block_propagators(fragment: Fragment, model: ContinuousModel) -> np.ndarray:
    """Propagators over the model duration of the 2^(m-1) two-level blocks,
    shape (2^(m-1), 2, 2).  Block b acts on amplitudes (2b, 2b+1): the drive
    flips bit 0 only, so each neighbor pattern b evolves on its own.

    H(t) has period T = 2pi/omega_drive (a rotating-wave H is constant, so
    periodic with any T), hence U(duration) = U(rest) U(T)^n with
    n = floor(duration / T): only one period and the remainder are integrated.
    Raises ValueError when the result is not unitary to UNITARITY_TOL.
    """
    d = _diagonal(fragment, model).reshape(-1, 2, 1)  # row energies of each block
    amp = rabi_amplitude(fragment, model.omega_rabi)
    if model.frame == LAB:
        u01, u10 = -1j, 1j  # sigma_y

        def s_of(t):
            return amp * math.sin(model.omega_drive * t + model.phi)

    else:
        u01 = 0.5 * amp * np.exp(-1j * model.phi)
        u10 = 0.5 * amp * np.exp(1j * model.phi)

        def s_of(t):
            return 1.0

    coupling = np.array([[0, u01], [u10, 0]])  # off-diagonal coupling of the driven qubit (bit 0)

    def integrate(span: float) -> np.ndarray:
        """Block propagators from t = 0 to `span`, in steps no longer than dt."""
        n_steps = max(1, math.ceil(span / model.dt))
        h = span / n_steps
        e_half = np.exp(-1j * d * (h / 2))  # exact diagonal propagator, half step
        e_half_c = e_half.conj()
        e_full = e_half * e_half
        e_full_c = e_full.conj()
        y = np.broadcast_to(np.eye(2, dtype=complex), (len(d), 2, 2))
        for k in range(n_steps):
            t = k * h
            k1 = -1j * s_of(t) * (coupling @ y)
            k2 = -1j * s_of(t + h / 2) * (e_half_c * (coupling @ (e_half * (y + (h / 2) * k1))))
            k3 = -1j * s_of(t + h / 2) * (e_half_c * (coupling @ (e_half * (y + (h / 2) * k2))))
            k4 = -1j * s_of(t + h) * (e_full_c * (coupling @ (e_full * (y + h * k3))))
            y = e_full * (y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4))
        return y

    period = 2 * math.pi / model.omega_drive
    n_periods = math.floor(model.duration / period)
    whole = np.linalg.matrix_power(integrate(period), n_periods)
    u = integrate(model.duration - n_periods * period) @ whole
    # The one-period RK4 propagator is unitary only to the integrator's error,
    # and the power over n periods multiplies that error by about n (4.6e-7
    # at eta = 1e6, 0.38 at 1e12).  Past this bound every amplitude computed
    # from it would be wrong, so refuse rather than return it.
    deviation = float(np.abs(u.conj().transpose(0, 2, 1) @ u - np.eye(2)).max())
    if deviation > UNITARITY_TOL:
        raise ValueError(
            f"propagator is not unitary to {UNITARITY_TOL}: max |U^dag U - I| = {deviation:.3g} "
            f"after {n_periods} drive periods"
        )
    return u


def evolve(state, fragment: Fragment, model: ContinuousModel) -> np.ndarray:
    """Integrate i d|psi>/dt = H(t)|psi> over the model duration."""
    psi = np.asarray(state, dtype=complex)
    dim = 1 << fragment.n_qubits
    if psi.shape != (dim,):
        raise ValueError(f"state must have {dim} amplitudes for this fragment")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
        raise ValueError("input state must be unit norm")
    blocks = _block_propagators(fragment, model)
    return (blocks @ psi.reshape(-1, 2, 1)).reshape(-1)


def resonant_drive_frequency(fragment: Fragment, *, omega_a=OMEGA_A, omega_b=OMEGA_B, zeta=ZETA) -> float:
    """Ground-conditioned resonance target: bare family frequency minus
    2*zeta (each ground neighbor pulls the spacing down by zeta; the triangle
    correction exists so 3-neighbor sites land on the same value)."""
    bare = omega_b if fragment.driven_family == "B" else omega_a
    return bare - 2 * zeta


def pi_pulse_model(fragment: Fragment, eta: float) -> ContinuousModel:
    """Rectangular lab-frame pi-pulse at blockade ratio eta = ZETA / Omega."""
    if not (math.isfinite(eta) and eta > 0):
        raise ValueError(f"eta must be positive and finite, got {eta}")
    omega_rabi = ZETA / eta
    omega_drive = resonant_drive_frequency(fragment)
    return ContinuousModel(
        omega_a=OMEGA_A,
        omega_b=OMEGA_B,
        zeta=ZETA,
        omega_rabi=omega_rabi,
        omega_drive=omega_drive,
        duration=math.pi / rabi_amplitude(fragment, omega_rabi),
        dt=DT_SCALE / max(OMEGA_A, OMEGA_B, omega_drive),
    )


def blockade_fidelity(fragment: Fragment, model: ContinuousModel) -> dict[str, float]:
    """Flip probability of the driven qubit from |g>, for neighbor patterns
    all-ground / one-excited / two-excited."""
    expected = resonant_drive_frequency(
        fragment, omega_a=model.omega_a, omega_b=model.omega_b, zeta=model.zeta
    )
    if abs(model.omega_drive - expected) > 1e-9 * expected:
        raise ValueError(
            f"omega_drive={model.omega_drive} is not the ground-conditioned resonance {expected}"
        )
    u = _block_propagators(fragment, model)
    # neighbor pattern b is block b; the driven qubit starts in |g> (column 0)
    return {
        "p_flip_gg": float(abs(u[0, 1, 0]) ** 2),
        "p_leak_ge": float(abs(u[1, 1, 0]) ** 2),
        "p_leak_ee": float(abs(u[3, 1, 0]) ** 2),
    }


def sweep_blockade(etas, fragment_kind: str) -> list[dict[str, float]]:
    """One row per eta, in order, duplicates preserved."""
    if fragment_kind not in FRAGMENT_KINDS:
        raise ValueError(f"unknown fragment kind {fragment_kind!r}; expected {sorted(FRAGMENT_KINDS)}")
    fragment = FRAGMENT_KINDS[fragment_kind]
    rows = []
    for eta in etas:
        model = pi_pulse_model(fragment, eta)
        try:
            record = blockade_fidelity(fragment, model)
        except ValueError as e:
            raise ValueError(f"eta={eta}: {e}") from None
        rows.append({"eta": float(eta), **record})
    return rows


def sweep_csv_lines(rows) -> list[str]:
    lines = ["eta,p_flip_gg,p_leak_ge,p_leak_ee"]
    for r in rows:
        lines.append(
            ",".join(
                format(r[k], ".12g") for k in ("eta", "p_flip_gg", "p_leak_ge", "p_leak_ee")
            )
        )
    return lines
