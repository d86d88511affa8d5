"""Exact quantum states over all physical qubits, dense and sparse backends.

Basis convention: little-endian, bit i of the basis index is qubit i,
bit value 0 = |g>, 1 = |e>.  Rotations follow R(theta, n) =
exp(-i (theta/2) n.sigma).  The dense backend stores all 2^n amplitudes;
the sparse backend stores its support as two arrays, basis indices and
amplitudes, and prunes entries below a tolerance whenever a rotation splits
amplitudes.  Both rotate through one kernel over the support: a dense state
is lowered to its unpruned support (`unpruned_support`) and written back in
place afterwards, once per schedule in `pulses.apply_schedule` and
`compiler.apply_with_boundary_residuals`, and once per pulse for single-pulse
callers.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .topology import DeviceTopology

SPARSE_PRUNE_TOL = 1e-12
DECODE_TOL = 1e-9
# Largest state each backend can hold: 2^26 complex128 amplitudes are 1 GiB,
# and sparse basis indices are int64.
MAX_QUBITS = {"dense": 26, "sparse": 63}


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
    n_qubits: int
    amplitudes: np.ndarray  # complex128, length 2**n_qubits

    def copy(self) -> "PureState":
        return PureState(self.n_qubits, self.amplitudes.copy())


@dataclass
class SparseState:
    """The support of a state: distinct basis indices (int64, in no set
    order) and their amplitudes (complex128).

    A pulse drops each split branch whose magnitude is below
    `prune_tolerance`.  The bound is per entry, not per state: one pulse can
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


State = PureState | SparseState


@dataclass
class LogicalStateVector:
    """Amplitudes of the N computational qubits, same bit convention."""

    n_qubits: int
    amplitudes: np.ndarray


def _check_size(n_qubits: int, backend: str) -> None:
    if backend not in MAX_QUBITS:
        raise ValueError(f"unknown backend {backend!r}")
    if n_qubits > MAX_QUBITS[backend]:
        raise ValueError(
            f"{n_qubits} qubits exceed the {backend} backend's limit of {MAX_QUBITS[backend]}"
            + ("; use the sparse backend" if backend == "dense" else "")
        )


def all_ground(n_qubits: int, backend: str = "dense") -> State:
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    _check_size(n_qubits, backend)
    if backend == "dense":
        amp = np.zeros(1 << n_qubits, dtype=np.complex128)
        amp[0] = 1.0
        return PureState(n_qubits, amp)
    return SparseState(n_qubits, np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.complex128))


def norm(state: State) -> float:
    return float(np.linalg.norm(state.amplitudes if isinstance(state, PureState) else state.values))


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


def _rotate_support(
    idx: np.ndarray, val: np.ndarray, prune_tol: float, tbits: np.ndarray, cmasks: np.ndarray, r: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rotate the support (basis indices `idx`, amplitudes `val`) and return
    the new support; split branches below `prune_tol` are dropped.  The
    input arrays are left as they are."""
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
        val = val * np.where(cond, factor, 1).prod(axis=1)
        return (idx if diag else idx ^ (cond @ tbits)), val
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
        keep = np.abs(summed) >= prune_tol
        idx = np.concatenate([idx[~cond], merged[keep]])
        val = np.concatenate([val[~cond], summed[keep]])
    return idx, val


def rotate_sites(state: State, tbits: np.ndarray, cmasks: np.ndarray, r: np.ndarray) -> None:
    """Apply `r` to every target bit `tbits[k]` on the subspace where the
    bits of `cmasks[k]` are all |g>.  No target bit may lie in any control
    mask, so the per-site factors commute.  Both backends rotate their
    support; a dense state keeps every amplitude, so it is never pruned."""
    if isinstance(state, PureState):
        with unpruned_support(state) as work:
            rotate_sites(work, tbits, cmasks, r)
    else:
        state.indices, state.values = _rotate_support(
            state.indices, state.values, state.prune_tolerance, tbits, cmasks, r
        )


def control_mask(control_sites) -> int:
    mask = 0
    for c in control_sites:
        mask |= 1 << c
    return mask


def apply_controlled_rotation(state: State, target: int, control_sites, theta: float, axis) -> State:
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


@contextmanager
def unpruned_support(state: State):
    """Lend the nonzero entries of a dense state as an unpruned SparseState;
    a SparseState is lent as it is.

    On exit, also when the body raises, whatever the support then holds is
    written back into `state.amplitudes` in place."""
    if isinstance(state, SparseState):
        yield state
        return
    work = to_sparse(state, 0.0)
    lowered = work.indices
    try:
        yield work
    finally:
        amp = state.amplitudes
        amp[lowered] = 0
        amp[work.indices] = work.values


def to_dense(state: SparseState) -> PureState:
    _check_size(state.n_qubits, "dense")
    amp = np.zeros(1 << state.n_qubits, dtype=np.complex128)
    amp[state.indices] = state.values
    return PureState(state.n_qubits, amp)


def _inner(s1: State, s2: State) -> complex:
    if isinstance(s1, PureState) and isinstance(s2, PureState):
        return complex(np.vdot(s1.amplitudes, s2.amplitudes))
    if isinstance(s1, SparseState) and isinstance(s2, SparseState):
        _, i1, i2 = np.intersect1d(s1.indices, s2.indices, assume_unique=True, return_indices=True)
        return complex(np.vdot(s1.values[i1], s2.values[i2]))
    if isinstance(s1, SparseState):
        return complex(np.vdot(s1.values, s2.amplitudes[s1.indices]))
    return complex(np.vdot(s1.amplitudes[s2.indices], s2.values))


def fidelity(s1: State, s2: State) -> float:
    """|<s1|s2>|^2; insensitive to global phase."""
    if s1.n_qubits != s2.n_qubits:
        raise ValueError(f"qubit count mismatch: {s1.n_qubits} vs {s2.n_qubits}")
    return float(abs(_inner(s1, s2)) ** 2)


def l2_distance(s1: State, s2: State) -> float:
    if s1.n_qubits != s2.n_qubits:
        raise ValueError(f"qubit count mismatch: {s1.n_qubits} vs {s2.n_qubits}")
    d1 = s1 if isinstance(s1, PureState) else to_dense(s1)
    d2 = s2 if isinstance(s2, PureState) else to_dense(s2)
    return float(np.linalg.norm(d1.amplitudes - d2.amplitudes))


# --- well-formed encoding ------------------------------------------------------

def _ic_spread_table(topo: DeviceTopology) -> np.ndarray:
    # physical basis offsets of each logical basis index (IC bits only)
    n = topo.n_logical
    m = np.arange(1 << n, dtype=np.int64)
    out = np.zeros_like(m)
    for j, site in enumerate(topo.ic_sites):
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
) -> State:
    """Lift the logical state onto the device: IC sites carry the amplitudes,
    sectors alternate ferromagnetic/paramagnetic per `phase`, everything else
    stays in |g>."""
    if psi.n_qubits != topo.n_logical:
        raise ValueError(
            f"logical state has {psi.n_qubits} qubits but device encodes {topo.n_logical}"
        )
    n_phys = topo.n_sites
    _check_size(n_phys, backend)
    table = _ic_spread_table(topo) | _sector_mask(topo, phase)
    if backend == "dense":
        amp = np.zeros(1 << n_phys, dtype=np.complex128)
        amp[table] = psi.amplitudes
        return PureState(n_phys, amp)
    amp = np.asarray(psi.amplitudes, dtype=np.complex128)
    keep = np.abs(amp) >= SPARSE_PRUNE_TOL
    return SparseState(n_phys, table[keep], amp[keep])


def _logical_positions(state: SparseState, topo: DeviceTopology, phase: PhaseLabel) -> np.ndarray:
    """Logical basis index of each stored entry; -1 where the entry lies
    outside the `phase` encoding."""
    idx = state.indices
    pos = np.zeros_like(idx)
    for j, site in enumerate(topo.ic_sites):
        pos |= ((idx >> site) & 1) << j
    inside = (idx & ~control_mask(topo.ic_sites)) == _sector_mask(topo, phase)
    return np.where(inside, pos, -1)


def _project_logical(state: State, topo: DeviceTopology, phase: PhaseLabel) -> np.ndarray:
    if isinstance(state, PureState):
        return state.amplitudes[_ic_spread_table(topo) | _sector_mask(topo, phase)]
    pos = _logical_positions(state, topo, phase)
    inside = pos >= 0
    c = np.zeros(1 << topo.n_logical, dtype=np.complex128)
    c[pos[inside]] = state.values[inside]
    return c


def _complement_weight(state: State, topo: DeviceTopology, phase: PhaseLabel) -> float:
    # Summed directly over out-of-subspace entries: subtracting two O(1)
    # norms would hide anything below the float cancellation floor ~1e-8.
    # The sum of squared real and imaginary parts is exact, so it does not
    # depend on how or in which order the entries are stored.
    if isinstance(state, PureState):
        table = _ic_spread_table(topo) | _sector_mask(topo, phase)
        amp = state.amplitudes
        saved = amp[table].copy()
        amp[table] = 0.0
        parts = amp.view(np.float64)
        parts = parts[parts != 0]
        amp[table] = saved
    else:
        parts = state.values[_logical_positions(state, topo, phase) < 0].view(np.float64)
    return math.fsum((parts * parts).tolist())


def well_formed_residual(state: State, topo: DeviceTopology):
    """Out-of-subspace weight against the closer of the two encodings.

    Returns (residual, phase, logical_amplitudes).
    """
    best = None
    for phase in (PhaseLabel.FP, PhaseLabel.PF):
        c = _project_logical(state, topo, phase)
        weight = float(np.sum(np.abs(c) ** 2))
        if best is None or weight > best[0]:
            best = (weight, phase, c)
    _, phase, c = best
    residual = float(np.sqrt(_complement_weight(state, topo, phase)))
    return residual, phase, c


def decode_well_formed(state: State, topo: DeviceTopology, tol: float = DECODE_TOL):
    """Invert the well-formed encoding.

    Returns (logical state, phase label, global phase alpha), where alpha is
    read off the largest-magnitude logical component and divided out.
    Raises NotWellFormedError when the out-of-subspace weight exceeds `tol`.
    """
    residual, phase, c = well_formed_residual(state, topo)
    if residual > tol:
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

def state_csv_lines(state: State, threshold: float = 1e-12) -> list[str]:
    """CSV rows (hex basis index, real, imag) for entries above threshold."""
    if isinstance(state, PureState):
        (idx,) = np.nonzero(np.abs(state.amplitudes) > threshold)
        val = state.amplitudes[idx]
    else:
        order = np.argsort(state.indices)
        idx, val = state.indices[order], state.values[order]
        keep = np.abs(val) > threshold
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
