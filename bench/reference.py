"""Reference results the benchmark checks the program against.

Shares no code with conveyorqc.  It holds a logical state-vector simulator
for the eight gate kinds, a decoder for the `run` state dump, a pulse counter
for the schedule text, and the two-level closed form for the blockade sweep.

Conventions, from the package README: basis indices are little-endian with
0 = ground; R(theta, n) = exp(-i (theta/2) n.sigma); logical qubit j is bit
j-1 of a logical state; on a device with N logical qubits, IC site Q_j is
physical qubit 4(j-1) and sector S_j occupies the three indices after it,
with its centre at 4(j-1)+2.  In the FP encoding the centres of the even
sectors are excited, in the PF encoding those of the odd sectors.
"""

from __future__ import annotations

import math

import numpy as np

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)

# Pulses each MACRO line of a schedule expands to.
MACRO_PULSES = {"EXC": 8, "EXC_INV": 10, "TOFFOLI": 5, "CCZ": 1, "INIT": 1}


# --- logical simulator -----------------------------------------------------------

def _rotation(theta: float, axis) -> np.ndarray:
    nx, ny, nz = axis
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [[c - 1j * s * nz, -s * (1j * nx + ny)], [s * (-1j * nx + ny), c + 1j * s * nz]]
    )


def _apply_1q(psi: np.ndarray, n: int, q: int, u: np.ndarray) -> np.ndarray:
    view = psi.reshape(1 << (n - q), 2, 1 << (q - 1))
    return np.einsum("ab,ibj->iaj", u, view).reshape(-1)


def _bit(idx: np.ndarray, q: int) -> np.ndarray:
    return (idx >> (q - 1)) & 1


def simulate(n: int, gates, psi: np.ndarray) -> np.ndarray:
    """Apply (kind, qubits, theta, axis) gates in order to a logical state."""
    psi = np.asarray(psi, dtype=complex).copy()
    idx = np.arange(1 << n)
    for kind, qubits, theta, axis in gates:
        if kind in ("R", "X", "Z", "H"):
            u = {"X": _X, "Z": _Z, "H": _H}.get(kind)
            psi = _apply_1q(psi, n, qubits[0], _rotation(theta, axis) if u is None else u)
        elif kind == "CZ":
            a, b = qubits
            psi = psi * np.where(_bit(idx, a) & _bit(idx, b), -1.0, 1.0)
        else:
            if kind == "CNOT":
                a, b = qubits
                src = idx ^ (_bit(idx, a) << (b - 1))
            elif kind == "SWAP":
                a, b = qubits
                diff = _bit(idx, a) ^ _bit(idx, b)
                src = idx ^ (diff << (a - 1)) ^ (diff << (b - 1))
            elif kind == "TOFFOLI":
                a, b, c = qubits
                src = idx ^ ((_bit(idx, a) & _bit(idx, b)) << (c - 1))
            else:
                raise ValueError(f"unknown gate kind {kind!r}")
            psi = psi[src]
    return psi


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2 / (|a|^2 |b|^2): insensitive to global phase."""
    return float(abs(np.vdot(a, b)) ** 2 / (np.vdot(a, a).real * np.vdot(b, b).real))


# --- state dump decoder ----------------------------------------------------------

def read_dump(path) -> list[tuple[int, complex]]:
    rows = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("index"):
                continue
            i, re, im = line.split(",")
            rows.append((int(i, 16), complex(float(re), float(im))))
    return rows


def decode_dump(rows, n: int) -> tuple[np.ndarray, float]:
    """Project a device state dump onto the closer well-formed encoding.

    Returns (amplitudes by IC position, bit p-1 for Q_p; weight outside
    that encoding).
    """
    ic_mask = sum(1 << (4 * (j - 1)) for j in range(1, n + 1))
    centres = {
        "FP": sum(1 << (4 * (j - 1) + 2) for j in range(2, n + 1, 2)),
        "PF": sum(1 << (4 * (j - 1) + 2) for j in range(1, n + 1, 2)),
    }
    vecs = {label: np.zeros(1 << n, dtype=complex) for label in centres}
    stray = 0.0
    for idx, a in rows:
        for label, mask in centres.items():
            if idx & ~ic_mask == mask:
                pos = sum(((idx >> (4 * (j - 1))) & 1) << (j - 1) for j in range(1, n + 1))
                vecs[label][pos] += a
                break
        else:
            stray += abs(a) ** 2
    weights = {label: float(np.vdot(v, v).real) for label, v in vecs.items()}
    best = max(weights, key=weights.get)
    other = sum(w for label, w in weights.items() if label != best)
    return vecs[best], stray + other


def unpermute(by_position: np.ndarray, placement) -> np.ndarray:
    """Logical amplitudes from position amplitudes, where logical qubit j
    sits at IC position placement[j-1]."""
    n = len(placement)
    m = np.arange(1 << n)
    pos = np.zeros_like(m)
    for j, p in enumerate(placement, start=1):
        pos |= ((m >> (j - 1)) & 1) << (p - 1)
    return by_position[pos]


# --- schedule text ---------------------------------------------------------------

def read_schedule(text: str) -> tuple[int, dict[str, str]]:
    """Count the pulses a schedule expands to; return (count, trailers)."""
    count = 0
    trailers = {}
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("#"):
            key, sep, value = line[1:].partition(":")
            if sep:
                trailers[key.strip()] = value.strip()
        elif line.startswith("MACRO "):
            count += MACRO_PULSES[line.split()[1]]
        elif line.startswith("PULSE "):
            count += 1
        elif line:
            raise ValueError(f"unexpected schedule line {line!r}")
    return count, trailers


# --- blockade sweep --------------------------------------------------------------

def blockade_flip_probability(eta: float, k: int) -> float:
    """Two-level rotating-wave flip probability of a resonant pi pulse when k
    neighbours are excited: each detunes the drive by 2*zeta = 2*eta*Omega."""
    x = 1.0 + (2.0 * k * eta) ** 2
    return math.sin(math.pi * math.sqrt(x) / 2) ** 2 / x
