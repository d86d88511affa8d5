"""Seeded inputs for the benchmark: logical circuits and logical states.

Independent of conveyorqc.  A gate is a tuple (kind, qubits, theta, axis)
with 1-based qubits; theta and axis matter only for R.  The program under
test only ever receives the text written by `circuit_text` and
`state_csv_text`.
"""

from __future__ import annotations

import math

import numpy as np

ARITY = {"CNOT": 2, "CZ": 2, "H": 1, "R": 1, "SWAP": 2, "TOFFOLI": 3, "X": 1, "Z": 1}
KINDS = tuple(sorted(ARITY))

# Fixed gate lists for the compile-run workloads.  Each compiles to about the
# same number of pulses from the start placement (N=4: 402-417, N=6: 442-477),
# so request times form one cluster and the median and tail do not jump
# between clusters.  Together they use every kind but SWAP, which is three
# CNOTs and costs at least 1,064 pulses at N=4; compile-n8 covers SWAP.
# R gates get seeded angles and axes, which leave the pulse count unchanged.
SKELETONS = {
    4: (
        (("CNOT", (1, 3)), ("R", (4,))),
        (("TOFFOLI", (1, 2, 3)), ("X", (1,)), ("CZ", (1, 3))),
        (("H", (4,)), ("CNOT", (1, 3)), ("Z", (3,))),
        (("TOFFOLI", (4, 1, 3)), ("R", (3,)), ("Z", (3,))),
    ),
    6: (
        (("Z", (5,)), ("CNOT", (1, 2)), ("CZ", (1, 2)), ("X", (2,))),
        (("CZ", (1, 2)), ("CZ", (5, 4)), ("H", (6,))),
        (("TOFFOLI", (5, 2, 4)), ("X", (2,)), ("R", (6,))),
        (("H", (5,)), ("TOFFOLI", (1, 6, 5)), ("R", (3,))),
    ),
}


def _gate(rng: np.random.Generator, kind: str, qubits: tuple[int, ...]):
    if kind != "R":
        return (kind, qubits, 0.0, (1.0, 0.0, 0.0))
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return ("R", qubits, float(rng.uniform(-math.pi, math.pi)), tuple(float(v) for v in axis))


def all_kinds_circuit(rng: np.random.Generator, n: int) -> list:
    """One gate of each of the eight kinds, in seeded order, on seeded
    distinct operands."""
    gates = []
    for kind in rng.permutation(KINDS):
        qubits = tuple(int(q) + 1 for q in rng.choice(n, size=ARITY[kind], replace=False))
        gates.append(_gate(rng, str(kind), qubits))
    return gates


def skeleton_circuit(rng: np.random.Generator, skeleton) -> list:
    return [_gate(rng, kind, qubits) for kind, qubits in skeleton]


def random_state(rng: np.random.Generator, n: int, terms: int | None = None) -> np.ndarray:
    """Seeded random state over all 2^n basis states, or over `terms` of
    them chosen at random."""
    amp = np.zeros(1 << n, dtype=complex)
    support = rng.choice(1 << n, size=terms or 1 << n, replace=False)
    amp[support] = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
    return amp / np.linalg.norm(amp)


def circuit_text(gates) -> str:
    lines = []
    for kind, qubits, theta, axis in gates:
        if kind == "R":
            lines.append(f"R q={qubits[0]} theta={theta!r} axis={axis[0]!r},{axis[1]!r},{axis[2]!r}")
        elif ARITY[kind] == 1:
            lines.append(f"{kind} q={qubits[0]}")
        else:
            lines.append(" ".join([kind] + [f"{k}={q}" for k, q in zip("abc", qubits)]))
    return "\n".join(lines) + "\n"


def state_csv_text(amp: np.ndarray) -> str:
    rows = ["index,real,imag"] + [f"{i:#x},{float(a.real)!r},{float(a.imag)!r}" for i, a in enumerate(amp)]
    return "\n".join(rows) + "\n"
