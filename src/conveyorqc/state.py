"""Exact quantum states over all physical qubits.

Basis convention: little-endian, bit i of the basis index is qubit i,
bit value 0 = |g>, 1 = |e>.  Rotations follow R(theta, n) =
exp(-i (theta/2) n.sigma).  Every state is stored as its support: two
arrays, basis indices and amplitudes.  A well-formed state spans at most 2^N
of the 2^(4N+1) device basis states, so the support stays small.  The two
backends differ only in the prune tolerance: "dense" keeps every nonzero
entry (tolerance 0); "sparse" drops split branches below `SPARSE_PRUNE_TOL`.
Either holds at most 63 qubits, the width of an int64 basis index.
`PureState` is only the dense snapshot that `to_dense` returns (at most 26
qubits) and `to_sparse` reads.

The well-formed encoding puts logical bit j on IC site Q_j and sets the
centers of the paramagnetic sectors.  `spread_bits` is the one map from
logical to device bits; `well_formed_residual` reads it back in one pass
over the support.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .topology import DeviceTopology

SPARSE_PRUNE_TOL = 1e-12
DECODE_TOL = 1e-9
# Largest state either backend holds: basis indices are int64.
MAX_QUBITS = 63
# Largest 2^n snapshot `to_dense` builds: 2^26 complex128 amplitudes are 1 GiB.
MAX_DENSE_QUBITS = 26
# The backends differ only in this: dense keeps every entry.
PRUNE_TOLERANCE = {"dense": 0.0, "sparse": SPARSE_PRUNE_TOL}


class PhaseLabel(str, Enum):
    """Which sector alternation carries the logical state: FP puts the
    ferromagnetic (ggg) pattern on odd sectors, PF is the mirror."""

    FP = "FP"
    PF = "PF"

    def flipped(self) -> "PhaseLabel":
        return PhaseLabel.PF if self is PhaseLabel.FP else PhaseLabel.FP


class NotWellFormedError(ValueError):
    def __init__(self, residual: float):
        super().__init__(f"not well-formed (residual = {residual:.3e})")
        self.residual = residual


@dataclass
class PureState:
    """A dense snapshot: all 2^n amplitudes (complex128)."""

    n_qubits: int
    amplitudes: np.ndarray


@dataclass
class SparseState:
    """A state as its support: distinct basis indices (int64, in no set
    order) and their amplitudes (complex128).  This is the one storage that
    every kernel reads and writes, on both backends.

    A pulse drops each split branch whose magnitude is below
    `prune_tolerance`; at 0 (the dense backend) nothing is dropped and the
    state is exact.  The bound is per entry, not per state: one pulse can
    drop many branches, so the L2 distance to the unpruned state can exceed
    `prune_tolerance`."""

    n_qubits: int
    indices: np.ndarray
    values: np.ndarray
    prune_tolerance: float = SPARSE_PRUNE_TOL

    @property
    def amplitudes(self) -> Mapping[int, complex]:
        """Read-only {basis index: amplitude} view of the support."""
        return _SupportView(self)

    def copy(self) -> "SparseState":
        return SparseState(self.n_qubits, self.indices.copy(), self.values.copy(), self.prune_tolerance)


class _SupportView(Mapping):
    def __init__(self, state: SparseState):
        self._state = state

    def __len__(self) -> int:
        return len(self._state.indices)

    def __iter__(self):
        return iter(self._state.indices.tolist())

    def __getitem__(self, index: int) -> complex:
        (hit,) = np.nonzero(self._state.indices == index)
        if not len(hit):
            raise KeyError(index)
        return complex(self._state.values[hit[0]])


@dataclass
class LogicalStateVector:
    """Amplitudes of the N computational qubits, same bit convention."""

    n_qubits: int
    amplitudes: np.ndarray


def check_size(n_qubits: int, backend: str) -> None:
    """Refuse an unknown backend or a state wider than an int64 basis index."""
    if backend not in PRUNE_TOLERANCE:
        raise ValueError(f"unknown backend {backend!r}")
    if n_qubits > MAX_QUBITS:
        raise ValueError(f"{n_qubits} qubits exceed the limit of {MAX_QUBITS}")


def all_ground(n_qubits: int, backend: str = "dense") -> SparseState:
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    check_size(n_qubits, backend)
    tol = PRUNE_TOLERANCE[backend]
    return SparseState(n_qubits, np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.complex128), tol)


def norm(state: SparseState) -> float:
    return float(np.linalg.norm(state.values))


def rotation_matrix(theta: float, axis) -> np.ndarray:
    nx, ny, nz = axis
    if not math.isfinite(theta + nx + ny + nz):  # any NaN or inf makes the sum non-finite
        raise ValueError(f"rotation needs finite theta and axis, got theta={theta}, axis={axis}")
    length = math.sqrt(nx * nx + ny * ny + nz * nz)
    if abs(length - 1.0) > 1e-12:
        raise ValueError(f"rotation axis must be unit length, |n| = {length}")
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [complex(c, -s * nz), complex(-s * ny, -s * nx)],
            [complex(s * ny, -s * nx), complex(c, s * nz)],
        ],
        dtype=np.complex128,
    )


# Matrix entries below this are float dust from pi/2pi trigonometry; snapping
# them keeps pi pulses exact basis permutations.
_MATRIX_SNAP = 1e-15


def rotate_sites(state: SparseState, tbits: np.ndarray, cmasks: np.ndarray, r: np.ndarray) -> None:
    """Apply `r` to every target bit `tbits[k]` on the subspace where the
    bits of `cmasks[k]` are all |g>.  No target bit may lie in any control
    mask, so the per-site factors commute.  Split branches below the
    state's prune tolerance are dropped; the old arrays are replaced, not
    written to."""
    idx, val = state.indices, state.values
    r00, r01, r10, r11 = r[0, 0], r[0, 1], r[1, 0], r[1, 1]
    diag = abs(r01) < _MATRIX_SNAP and abs(r10) < _MATRIX_SNAP
    if diag or (abs(r00) < _MATRIX_SNAP and abs(r11) < _MATRIX_SNAP):
        # Every entry keeps its norm and moves to one place: multiply by the
        # factor of each conditioned site and, off the diagonal, flip the
        # conditioned target bits.  No two entries can meet, since the flips
        # never touch a control bit.
        cond = (idx[:, None] & cmasks) == 0
        on, off = (r11, r00) if diag else (r01, r10)  # factor when the target bit is 1 / 0
        factor = off if on == off else np.where((idx[:, None] & tbits) != 0, on, off)
        state.indices = idx if diag else idx ^ (cond @ tbits)
        state.values = val * np.where(cond, factor, 1).prod(axis=1)
        return
    # Splitting rotation: site by site, send each conditioned entry to both
    # values of the target bit, then add up entries that land on one index.
    for tbit, cmask in zip(tbits, cmasks):
        cond = (idx & cmask) == 0
        ci, cv = idx[cond], val[cond]
        on = (ci & tbit) != 0
        low = ci & ~tbit
        merged, where = np.unique(np.concatenate([low, low | tbit]), return_inverse=True)
        split = np.concatenate([cv * np.where(on, r01, r00), cv * np.where(on, r11, r10)])
        summed = np.empty(len(merged), dtype=np.complex128)
        summed.real = np.bincount(where, split.real, len(merged))
        summed.imag = np.bincount(where, split.imag, len(merged))
        keep = np.abs(summed) >= state.prune_tolerance
        idx = np.concatenate([idx[~cond], merged[keep]])
        val = np.concatenate([val[~cond], summed[keep]])
    state.indices, state.values = idx, val


def control_mask(control_sites) -> int:
    mask = 0
    for c in control_sites:
        mask |= 1 << c
    return mask


def apply_controlled_rotation(state: SparseState, target: int, control_sites, theta: float, axis) -> SparseState:
    """Rotate `target` by R(theta, axis) on the subspace where every control
    site is |g>; identity elsewhere.  Mutates and returns `state`."""
    controls = frozenset(control_sites)
    if target in controls:
        raise ValueError(f"target {target} cannot also be a control")
    if not 0 <= target < state.n_qubits or any(not 0 <= c < state.n_qubits for c in controls):
        raise ValueError("site id out of range")
    r = rotation_matrix(theta, axis)
    rotate_sites(state, np.array([1 << target]), np.array([control_mask(controls)]), r)
    return state


def to_sparse(state: PureState, prune_tolerance: float = SPARSE_PRUNE_TOL) -> SparseState:
    """The entries of magnitude at least `prune_tolerance`; at tolerance 0,
    exactly the nonzero entries."""
    amp = state.amplitudes
    nz = np.flatnonzero(np.abs(amp) >= prune_tolerance if prune_tolerance else amp != 0)
    return SparseState(state.n_qubits, nz.astype(np.int64), amp[nz], prune_tolerance)


def to_dense(state: SparseState) -> PureState:
    if state.n_qubits > MAX_DENSE_QUBITS:
        raise ValueError(f"{state.n_qubits} qubits exceed the {MAX_DENSE_QUBITS}-qubit limit of a dense snapshot")
    amp = np.zeros(1 << state.n_qubits, dtype=np.complex128)
    amp[state.indices] = state.values
    return PureState(state.n_qubits, amp)


def _inner(s1: SparseState, s2: SparseState) -> complex:
    _, i1, i2 = np.intersect1d(s1.indices, s2.indices, assume_unique=True, return_indices=True)
    return complex(np.vdot(s1.values[i1], s2.values[i2]))


def fidelity(s1: SparseState, s2: SparseState) -> float:
    """|<s1|s2>|^2; insensitive to global phase."""
    if s1.n_qubits != s2.n_qubits:
        raise ValueError(f"qubit count mismatch: {s1.n_qubits} vs {s2.n_qubits}")
    return float(abs(_inner(s1, s2)) ** 2)


def l2_distance(s1: SparseState, s2: SparseState) -> float:
    if s1.n_qubits != s2.n_qubits:
        raise ValueError(f"qubit count mismatch: {s1.n_qubits} vs {s2.n_qubits}")
    union = np.union1d(s1.indices, s2.indices)
    diff = np.zeros(len(union), dtype=np.complex128)
    diff[np.searchsorted(union, s1.indices)] = s1.values
    diff[np.searchsorted(union, s2.indices)] -= s2.values
    return float(np.linalg.norm(diff))


# --- well-formed encoding ------------------------------------------------------

def spread_bits(m: np.ndarray, sites) -> np.ndarray:
    """Bit `sites[j]` of each result is bit j of `m`; every other bit is 0."""
    out = np.zeros_like(m)
    for j, site in enumerate(sites):
        out |= ((m >> j) & 1) << site
    return out


def _sector_mask(topo: DeviceTopology, phase: PhaseLabel) -> int:
    start = 2 if phase is PhaseLabel.FP else 1  # paramagnetic sectors
    mask = 0
    for j in range(start, topo.n_logical + 1, 2):
        mask |= 1 << topo.sectors[j - 1][1]
    return mask


def encode_well_formed(
    psi: LogicalStateVector, phase: PhaseLabel, topo: DeviceTopology, backend: str = "dense"
) -> SparseState:
    """Lift the logical state onto the device: IC sites carry the amplitudes,
    sectors alternate ferromagnetic/paramagnetic per `phase`, everything else
    stays in |g>."""
    if psi.n_qubits != topo.n_logical:
        raise ValueError(
            f"logical state has {psi.n_qubits} qubits but device encodes {topo.n_logical}"
        )
    n_phys = topo.n_sites
    check_size(n_phys, backend)
    amp = np.asarray(psi.amplitudes, dtype=np.complex128)
    tol = PRUNE_TOLERANCE[backend]
    (kept,) = np.nonzero(np.abs(amp) >= tol if tol else amp != 0)
    indices = spread_bits(kept.astype(np.int64), topo.ic_sites) | _sector_mask(topo, phase)
    return SparseState(n_phys, indices, amp[kept], tol)


def well_formed_residual(state: SparseState, topo: DeviceTopology):
    """Out-of-subspace weight against the closer of the two encodings.

    Returns (residual, phase, logical_amplitudes).
    """
    idx = state.indices
    logical = np.zeros_like(idx)  # the IC bits of each entry, gathered
    for j, site in enumerate(topo.ic_sites):
        logical |= ((idx >> site) & 1) << j
    rest = idx & ~control_mask(topo.ic_sites)
    best = None
    for phase in (PhaseLabel.FP, PhaseLabel.PF):
        inside = rest == _sector_mask(topo, phase)
        c = np.zeros(1 << topo.n_logical, dtype=np.complex128)
        c[logical[inside]] = state.values[inside]
        weight = float(np.sum(np.abs(c) ** 2))
        if best is None or weight > best[0]:
            best = (weight, phase, c, inside)
    _, phase, c, inside = best
    # Summed directly over out-of-subspace entries: subtracting two O(1)
    # norms would hide anything below the float cancellation floor ~1e-8.
    # The sum of squared real and imaginary parts is exact, so it does not
    # depend on the order the entries are stored in.
    parts = state.values[~inside].view(np.float64)
    return math.sqrt(math.fsum((parts * parts).tolist())), phase, c


def decode_well_formed(state: SparseState, topo: DeviceTopology):
    """Invert the well-formed encoding.

    Returns (logical state, phase label, global phase alpha), where alpha is
    read off the largest-magnitude logical component and divided out.
    Raises NotWellFormedError when the out-of-subspace weight exceeds
    DECODE_TOL.
    """
    residual, phase, c = well_formed_residual(state, topo)
    if residual > DECODE_TOL:
        raise NotWellFormedError(residual)
    k_star = int(np.argmax(np.abs(c)))
    alpha = float(np.angle(c[k_star]))
    c = c * np.exp(-1j * alpha)
    c /= np.linalg.norm(c)
    return LogicalStateVector(topo.n_logical, c), phase, alpha


def random_logical_state(n_qubits: int, rng: np.random.Generator) -> LogicalStateVector:
    """Haar-ish random state, canonicalized so the largest component is
    real-positive (matches the decode phase reference)."""
    amp = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    amp /= np.linalg.norm(amp)
    k = int(np.argmax(np.abs(amp)))
    amp *= np.exp(-1j * np.angle(amp[k]))
    return LogicalStateVector(n_qubits, amp)


# --- state dump format ----------------------------------------------------------

def state_csv_lines(state: SparseState) -> list[str]:
    """CSV rows (hex basis index, real, imag) for entries above
    SPARSE_PRUNE_TOL in magnitude, in index order."""
    order = np.argsort(state.indices)
    idx, val = state.indices[order], state.values[order]
    keep = np.abs(val) > SPARSE_PRUNE_TOL
    idx, val = idx[keep], val[keep]
    lines = ["index,real,imag"]
    for i, a in zip(idx.tolist(), val.tolist()):
        lines.append(f"{i:#x},{a.real:.17g},{a.imag:.17g}")
    return lines


def load_logical_csv(path, n_qubits: int) -> LogicalStateVector:
    amp = np.zeros(1 << n_qubits, dtype=np.complex128)
    with open(path) as f:
        for line_no, line in enumerate(f):
            line = line.strip()
            if not line or line.startswith("#") or line.lower().startswith("index"):
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ValueError(f"{path}:{line_no + 1}: expected 'index,real,imag'")
            try:
                idx, re, im = int(parts[0], 0), float(parts[1]), float(parts[2])
            except ValueError as e:
                raise ValueError(f"{path}:{line_no + 1}: {e}") from None
            if not 0 <= idx < len(amp):
                raise ValueError(f"{path}:{line_no + 1}: index {idx:#x} out of range")
            if not (math.isfinite(re) and math.isfinite(im)):
                raise ValueError(f"{path}:{line_no + 1}: amplitude {re},{im} is not finite")
            amp[idx] = complex(re, im)
    n = np.linalg.norm(amp)
    if abs(n - 1.0) > 1e-9:
        raise ValueError(f"logical state in {path} has norm {n}, expected 1")
    return LogicalStateVector(n_qubits, amp)
