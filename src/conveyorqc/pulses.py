"""Global-pulse engine.

A global pulse addresses one species/crossing class at a time: every site of
the class receives the same rotation, conditioned on all of its ZZ-coupled
neighbors being in |g>.  Because targets and controls live on opposite sides
of the bipartite device graph, the per-site factors commute, and a class
pulse acts on the whole state at once.

`MACROS` names the pulse sequences a schedule may refer to by name: the
exchange, its inverse, the conditional phase on the in-loop qubit, the
one-shot Toffoli and the initialization line.  A single-qubit rotation at Q_2
is one bare B-crossed pulse.  A schedule holds one list of steps, each a
macro name or a bare pulse, and the text format writes one line per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .state import SparseState, control_mask, rotate_sites, rotation_matrix
from .topology import BASELINE, Crossing, DeviceTopology, Family

X_AXIS = (1.0, 0.0, 0.0)
Y_AXIS = (0.0, 1.0, 0.0)
Z_AXIS = (0.0, 0.0, 1.0)
HADAMARD_AXIS = (math.sqrt(0.5), 0.0, math.sqrt(0.5))


class TargetClass(str, Enum):
    A_REGULAR = "A_regular"
    A_CROSSED = "A_crossed"
    B_REGULAR = "B_regular"
    B_CROSSED = "B_crossed"
    B_ALL = "B_all"
    C_REGULAR = "C_regular"
    C_CROSSED = "C_crossed"
    A_DOUBLE_CROSSED = "A_double_crossed"
    INIT_LINE = "INIT_LINE"


_CLASS_SPECIES = {
    TargetClass.A_REGULAR: (Family.A, Crossing.REGULAR),
    TargetClass.A_CROSSED: (Family.A, Crossing.CROSSED),
    TargetClass.B_REGULAR: (Family.B, Crossing.REGULAR),
    TargetClass.B_CROSSED: (Family.B, Crossing.CROSSED),
    TargetClass.C_REGULAR: (Family.C, Crossing.REGULAR),
    TargetClass.C_CROSSED: (Family.C, Crossing.CROSSED),
    TargetClass.A_DOUBLE_CROSSED: (Family.A, Crossing.DOUBLE_CROSSED),
}


@dataclass(frozen=True)
class GlobalPulse:
    target: TargetClass
    theta: float
    axis: tuple[float, float, float]
    # R(theta, axis), built once; `rotation_matrix` checks theta and axis.
    matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        matrix = rotation_matrix(self.theta, self.axis)
        if not -2 * math.pi <= self.theta <= 2 * math.pi:
            raise ValueError(f"theta must lie in [-2pi, 2pi], got {self.theta}")
        matrix.flags.writeable = False  # shared by every schedule holding this pulse
        object.__setattr__(self, "matrix", matrix)


@dataclass
class PulseSchedule:
    """Steps in order: a name in `MACROS` or a bare pulse.  A compiled
    schedule is back in the well-formed subspace after every step."""

    steps: list[str | GlobalPulse] = field(default_factory=list)

    @property
    def pulses(self) -> tuple[GlobalPulse, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return sum(len(step_pulses(step)) for step in self.steps)

    def __iter__(self):
        for step in self.steps:
            yield from step_pulses(step)

    def append(self, step: str | GlobalPulse) -> None:
        self.steps.append(step)

    def extend(self, other: "PulseSchedule") -> None:
        self.steps.extend(other.steps)


def class_sites(topo: DeviceTopology, target: TargetClass) -> tuple[int, ...]:
    if target is TargetClass.INIT_LINE:
        return topo.init_targets
    if target is TargetClass.B_ALL:
        return tuple(
            sorted(
                topo.sites_of(Family.B, Crossing.REGULAR) + topo.sites_of(Family.B, Crossing.CROSSED)
            )
        )
    family, crossing = _CLASS_SPECIES[target]
    return topo.sites_of(family, crossing)


def class_masks(topo: DeviceTopology, target: TargetClass) -> tuple[np.ndarray, np.ndarray]:
    """Target bit and blockade control mask of every site in the class, in
    ascending site order; built once per device."""
    hit = topo.tables.get(target)
    if hit is None:
        sites = sorted(class_sites(topo, target))
        # The init line is a local control line, not blockade-conditioned.
        masks = [0 if target is TargetClass.INIT_LINE else control_mask(topo.neighbor_map[s]) for s in sites]
        if any(m & (1 << s) for m in masks for s in sites):
            raise ValueError(f"target class {target.value} has sites that block each other")
        hit = (np.array([1 << s for s in sites], dtype=np.int64), np.array(masks, dtype=np.int64))
        topo.tables[target] = hit
    return hit


def apply_global_pulse(state: SparseState, topo: DeviceTopology, pulse: GlobalPulse) -> SparseState:
    """Apply one blockade-conditioned rotation per site of the target class."""
    if pulse.target is TargetClass.INIT_LINE and topo.kind != BASELINE:
        raise ValueError("the initialization line exists only on the baseline design")
    tbits, cmasks = class_masks(topo, pulse.target)
    if not len(tbits):
        raise ValueError(f"target class {pulse.target.value} is empty on a {topo.kind} device")
    rotate_sites(state, tbits, cmasks, pulse.matrix)
    return state


def apply_schedule(state: SparseState, topo: DeviceTopology, schedule: PulseSchedule) -> SparseState:
    """Apply the pulses in order; mutates and returns `state`."""
    for pulse in schedule:
        apply_global_pulse(state, topo, pulse)
    return state


# --- named macros ---------------------------------------------------------------

# On well-formed states: EXC (A-regular pi-x, then all-B pi-x, four times)
# swaps neighboring IC pairs and toggles the sector phase, and EXC_INV undoes
# it.  CCZ is -1 exactly when the in-loop qubit's three IC neighbors are all
# in |g>, for any axis of its 2pi pulse.  TOFFOLI has controls Q_1, Q_3 and
# target Q_2.  INIT (baseline design only) takes all-ground to the FP encoding
# of the all-|g> logical state, up to a global phase.
_B_ALL_PI_X = GlobalPulse(TargetClass.B_ALL, math.pi, X_AXIS)
_EXC = (GlobalPulse(TargetClass.A_REGULAR, math.pi, X_AXIS), _B_ALL_PI_X) * 4
MACROS = {
    "EXC": _EXC,
    "EXC_INV": (_B_ALL_PI_X, *_EXC, _B_ALL_PI_X),
    "CCZ": (GlobalPulse(TargetClass.A_CROSSED, 2 * math.pi, X_AXIS),),
    "TOFFOLI": (
        GlobalPulse(TargetClass.B_CROSSED, math.pi, HADAMARD_AXIS),
        _B_ALL_PI_X,
        GlobalPulse(TargetClass.A_CROSSED, 2 * math.pi, X_AXIS),
        _B_ALL_PI_X,
        GlobalPulse(TargetClass.B_CROSSED, math.pi, HADAMARD_AXIS),
    ),
    "INIT": (GlobalPulse(TargetClass.INIT_LINE, math.pi, X_AXIS),),
}


def step_pulses(step: str | GlobalPulse) -> tuple[GlobalPulse, ...]:
    """The pulses one schedule step expands to."""
    return MACROS[step] if isinstance(step, str) else (step,)


# --- schedule text format --------------------------------------------------------

def fmt_float(x: float) -> str:
    return format(x, ".17g")


def write_schedule(schedule: PulseSchedule, meta: dict | None = None) -> str:
    """Render a schedule: a MACRO line per named step, a PULSE line per bare pulse."""
    lines = []
    for step in schedule.steps:
        if isinstance(step, str):
            lines.append(f"MACRO {step}")
        else:
            ax = ",".join(fmt_float(v) for v in step.axis)
            lines.append(f"PULSE {step.target.value} theta={fmt_float(step.theta)} axis={ax}")
    for key, value in (meta or {}).items():
        lines.append(f"# {key}: {value}")
    return "\n".join(lines) + "\n"


def parse_schedule(text: str) -> tuple[PulseSchedule, dict[str, str]]:
    """Parse the schedule text format; a MACRO line becomes one named step.

    Trailer comments of the form '# key: value' are collected into the
    returned metadata dict; each key may be given once.
    """
    schedule = PulseSchedule()
    meta: dict[str, str] = {}
    meta_line: dict[str, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if ":" in body:
                key, _, value = body.partition(":")
                key = key.strip()
                if key in meta_line:
                    raise ValueError(f"line {line_no}: trailer {key!r} already given on line {meta_line[key]}")
                meta[key], meta_line[key] = value.strip(), line_no
            continue
        fields = line.split()
        if fields[0] == "MACRO":
            if len(fields) != 2 or fields[1] not in MACROS:
                raise ValueError(f"line {line_no}: unknown macro in {line!r}")
            schedule.append(fields[1])
            continue
        if fields[0] != "PULSE" or len(fields) != 4:
            raise ValueError(f"line {line_no}: expected 'PULSE <class> theta=... axis=...', got {line!r}")
        try:
            target = TargetClass(fields[1])
        except ValueError:
            raise ValueError(f"line {line_no}: unknown target class {fields[1]!r}") from None
        if not fields[2].startswith("theta=") or not fields[3].startswith("axis="):
            raise ValueError(f"line {line_no}: malformed pulse line {line!r}")
        try:
            theta = float(fields[2][len("theta=") :])
            axis = tuple(float(v) for v in fields[3][len("axis=") :].split(","))
            if len(axis) != 3:
                raise ValueError("axis needs three components")
            schedule.append(GlobalPulse(target, theta, axis))
        except ValueError as e:
            raise ValueError(f"line {line_no}: {e}") from None
    return schedule, meta
