"""Lower logical circuits to global-pulse schedules.

Only three IC positions are directly usable: Q_2 hosts single-qubit rotations
(the B-crossed site) and (Q_1, Q_3 -> Q_2) hosts the one-shot Toffoli.  Every
other gate is reduced to those two primitives plus exchange rotations, which
shift odd-position occupants one way around the loop and even-position
occupants the other way while toggling the sector phase.

Placement is tracked, not restored: gates are lowered against the current
placement and the final placement is reported so a verifier can un-permute.
A logical SWAP is therefore a placement relabel and emits no pulse.

Routing is pulse-cost aware.  One Dijkstra search over (tracked positions,
phase) weighs each move, and a CNOT's gate body, by the pulses `_Emitter`
emits for it at that phase, measured once on a scratch routing state.  The
moves are an exchange either way and the phase-keeping swaps of Q_2 with Q_1
or Q_3; Q_1 and Q_3 trade through Q_2.  A Toffoli may end with its controls
on either of Q_1, Q_3; a CNOT tracks only its two operands and flips
whichever qubit routing leaves on the other control site.
"""

from __future__ import annotations

import itertools
import math
from bisect import insort
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .pulses import (
    HADAMARD_AXIS,
    GlobalPulse,
    PulseSchedule,
    TargetClass,
    X_AXIS,
    Z_AXIS,
    apply_global_pulse,
    fmt_float,
    step_pulses,
)
from .state import LogicalStateVector, PhaseLabel, SparseState, spread_bits, well_formed_residual
from .topology import BASELINE, DeviceTopology

GATE_ARITY = {"R": 1, "X": 1, "Z": 1, "H": 1, "CNOT": 2, "CZ": 2, "SWAP": 2, "TOFFOLI": 3}
# The circuit text names a gate's operands by these keys, in operand order;
# an R line also takes theta= and axis=, read by these parsers.
OPERAND_KEYS = {1: ("q",), 2: ("a", "b"), 3: ("a", "b", "c")}
EXTRA_KEYS = {"R": {"theta": float, "axis": lambda v: tuple(float(x) for x in v.split(","))}}
# Gates that lower as R(pi, axis).
FIXED_ROTATIONS = {"X": X_AXIS, "Z": Z_AXIS, "H": HADAMARD_AXIS}


@dataclass(frozen=True)
class LogicalGate:
    kind: str
    qubits: tuple[int, ...]  # 1-based logical indices
    theta: float = 0.0
    axis: tuple[float, float, float] = X_AXIS

    def __post_init__(self):
        if self.kind not in GATE_ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(self.qubits) != GATE_ARITY[self.kind]:
            raise ValueError(f"{self.kind} takes {GATE_ARITY[self.kind]} operands, got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.kind} operands must be distinct, got {self.qubits}")
        if any(q < 1 for q in self.qubits):
            raise ValueError(f"operands are 1-based, got {self.qubits}")
        if len(self.axis) != 3 or not all(map(math.isfinite, (self.theta, *self.axis))):
            raise ValueError(
                f"needs a finite theta and three finite axis components, got {self.theta}, {self.axis}"
            )


@dataclass(frozen=True)
class LogicalCircuit:
    n_qubits: int
    gates: tuple[LogicalGate, ...]

    def __post_init__(self):
        for g in self.gates:
            if any(q > self.n_qubits for q in g.qubits):
                raise ValueError(f"gate {g} addresses qubits beyond n={self.n_qubits}")


@dataclass
class RoutingState:
    """placement[j-1] = IC position currently holding logical qubit j."""

    placement: list[int]
    phase: PhaseLabel


def initial_routing(n_qubits: int) -> RoutingState:
    return RoutingState(list(range(1, n_qubits + 1)), PhaseLabel.FP)


def _travels_forward(pos: int, phase: PhaseLabel) -> bool:
    """Whether an exchange from `phase` moves the occupant of `pos` forward
    (pos -> pos + 1): odd positions do from FP, even ones from PF."""
    return (pos % 2 == 1) == (phase is PhaseLabel.FP)


def permutation_after(ell: int, start_phase: PhaseLabel, n: int) -> tuple[int, ...]:
    """Positions after `ell` exchanges: entry j-1 is where origin position j
    ends up.  Each occupant keeps its direction, since the phase and the
    parity of its position both toggle at every step."""
    return tuple(
        (j - 1 + ell) % n + 1 if _travels_forward(j, start_phase) else (j - 1 - ell) % n + 1
        for j in range(1, n + 1)
    )


def route_to_Q2(j: int, phase: PhaseLabel, n: int) -> int:
    """Smallest number of exchanges that brings position j onto Q_2."""
    return (2 - j) % n if _travels_forward(j, phase) else (j - 2) % n


_SWAP_SITES = {"SWAP_Q1Q2": (1, 2), "SWAP_Q2Q3": (2, 3)}
MOVES = ("EXC", "EXC_INV", *_SWAP_SITES)


class _Emitter:
    """Accumulates pulses while keeping the routing state in step."""

    def __init__(self, routing: RoutingState):
        self.rt = routing
        self.n = len(routing.placement)
        self.sched = PulseSchedule()

    def _track(self, move: str) -> None:
        """Move the tracked placement and phase as `move` moves occupants."""
        table, self.rt.phase = _move_table(move, self.rt.phase, self.n)
        self.rt.placement = [table[p] for p in self.rt.placement]

    def q2_pulse(self, theta: float, axis) -> None:
        # R(theta + 4pi) = R(theta); the remainder leaves [-2pi, 2pi] unchanged.
        theta = math.remainder(theta, 4 * math.pi)
        self.sched.append(GlobalPulse(TargetClass.B_CROSSED, theta, tuple(axis)))

    def toffoli(self) -> None:
        self.sched.append("TOFFOLI")

    def pulse_at(self, pos: int, theta: float, axis) -> None:
        """Rotate the occupant of IC position `pos`: rotate it into Q_2,
        pulse, rotate back.  Placement and phase are restored."""
        ell = route_to_Q2(pos, self.rt.phase, self.n)
        for _ in range(ell):
            self.do_move("EXC")
        self.q2_pulse(theta, axis)
        for _ in range(ell):
            self.do_move("EXC_INV")

    # -- fixed-position two-qubit building blocks (positions 1, 2, 3) --

    def cnot_towards_q2(self, control_pos: int) -> None:
        """CNOT with control at Q_1 or Q_3 and target at Q_2, via two Toffolis
        and two bit flips of the spare control-site occupant."""
        spare = 4 - control_pos
        self.toffoli()
        self.pulse_at(spare, math.pi, X_AXIS)
        self.toffoli()
        self.pulse_at(spare, math.pi, X_AXIS)

    def cnot_from_q2(self, target_pos: int) -> None:
        """CNOT with control at Q_2, realized by conjugating the reversed
        CNOT with Hadamard rotations on both ends."""
        self.pulse_at(target_pos, math.pi, HADAMARD_AXIS)
        self.pulse_at(2, math.pi, HADAMARD_AXIS)
        self.cnot_towards_q2(target_pos)
        self.pulse_at(target_pos, math.pi, HADAMARD_AXIS)
        self.pulse_at(2, math.pi, HADAMARD_AXIS)

    def do_move(self, move: str) -> None:
        """Emit `move` and track it.  A fixed-site swap keeps the phase: Q_2
        trades occupants with Q_1 or Q_3 through three CNOTs."""
        if move in ("EXC", "EXC_INV"):
            self.sched.append(move)
        elif move in _SWAP_SITES:
            other = sum(_SWAP_SITES[move]) - 2  # the site other than Q_2
            for cnot in (self.cnot_towards_q2, self.cnot_from_q2, self.cnot_towards_q2):
                cnot(other)
        else:
            raise ValueError(f"unknown routing move {move!r}")
        self._track(move)


# --- routing search ---------------------------------------------------------------

def apply_move(positions: tuple[int, ...], phase: PhaseLabel, move: str, n: int):
    """Track a move's effect on a tuple of positions; returns (positions, phase).
    EXC_INV undoes the exchange that would have led to `phase`."""
    if move in ("EXC", "EXC_INV"):
        table = permutation_after(1, phase if move == "EXC" else phase.flipped(), n)
        return tuple(table[p - 1] for p in positions), phase.flipped()
    x, y = _SWAP_SITES[move]
    return tuple(y if p == x else x if p == y else p for p in positions), phase


@lru_cache(maxsize=None)
def _emitted_length(step, phase: PhaseLabel, n: int, *args) -> int:
    """Pulses the `_Emitter` method `step` emits for `args` at `phase` on an
    n-position loop, measured on a scratch routing state.  Emission depends
    on positions and phase only, never on which logical qubit sits where."""
    em = _Emitter(RoutingState(list(range(1, n + 1)), phase))
    step(em, *args)
    return len(em.sched)


def move_cost(move: str, phase: PhaseLabel, n: int) -> int:
    """Pulses `_Emitter.do_move(move)` emits at `phase` on an n-position loop,
    measured by running it, not derived by hand."""
    return _emitted_length(_Emitter.do_move, phase, n, move)


@lru_cache(maxsize=None)
def _move_table(move: str, phase: PhaseLabel, n: int):
    """Where each position lands under `move` at `phase` (entry 0 unused),
    and the phase after it."""
    positions, after = apply_move(tuple(range(1, n + 1)), phase, move, n)
    return (0, *positions), after


def _cheapest_route(operands: tuple[int, ...], routing: RoutingState, step_cost, end_cost) -> list[str]:
    """Dijkstra over (positions of `operands`, phase).  `step_cost(move,
    phase, n)` weighs an edge; `end_cost(positions, phase, n)` is the cost of
    finishing in that state, or None where the gate cannot run.  Returns the
    moves of the cheapest finish; equal costs go to the state queued first.
    Does not mutate `routing`."""
    n = len(routing.placement)
    edges = {ph: [(m, *_move_table(m, ph, n), step_cost(m, ph, n)) for m in MOVES] for ph in PhaseLabel}
    start = (tuple(routing.placement[q - 1] for q in operands), routing.phase)
    best = {start: 0}
    tie = itertools.count()
    # A sorted list, not heapq: numpy already imports bisect, while heapq
    # would map one more shared library into every command's memory.
    queue = [(0, next(tie), False, start, [])]
    while queue:
        cost, _, finished, node, path = queue.pop(0)
        if finished:
            return path
        if cost > best[node]:
            continue  # superseded by a cheaper entry
        positions, phase = node
        end = end_cost(positions, phase, n)
        if end is not None:
            insort(queue, (cost + end, next(tie), True, node, path))
        for move, table, after, step in edges[phase]:
            nxt = (tuple(table[p] for p in positions), after)
            nxt_cost = cost + step
            if nxt_cost < best.get(nxt, math.inf):
                best[nxt] = nxt_cost
                insort(queue, (nxt_cost, next(tie), False, nxt, path + [move]))
    raise AssertionError("unreachable: the routing move graph is connected")


def bfs_route(targets: tuple[int, int, int], routing: RoutingState) -> list[str]:
    """Fewest moves placing logical (a, b, c) at (Q_1, Q_3, Q_2): the
    unit-weight call of the routing search.

    The search space is (pos_a, pos_b, pos_c, phase); moves are exchanges in
    either direction plus the two fixed-site swaps, Q_1 with Q_2 and Q_2 with
    Q_3, so every arrangement is reachable.  Does not mutate `routing`.
    """
    return _cheapest_route(
        targets, routing, lambda *_: 1, lambda positions, *_: 0 if positions == (1, 3, 2) else None
    )


def _cnot_end(positions, phase: PhaseLabel, n: int):
    """(control, target) at (Q_1 or Q_3, Q_2); costs what `cnot_towards_q2` emits."""
    control, target = positions
    if target != 2 or control not in (1, 3):
        return None
    return _emitted_length(_Emitter.cnot_towards_q2, phase, n, control)


def _toffoli_end(positions, phase: PhaseLabel, n: int):
    """The controls are symmetric: (Q_1, Q_3, Q_2) and (Q_3, Q_1, Q_2) both run
    the one Toffoli."""
    return _emitted_length(_Emitter.toffoli, phase, n) if positions in ((1, 3, 2), (3, 1, 2)) else None


# --- gate macros ------------------------------------------------------------------

def macro_single_qubit(j: int, theta: float, axis, routing: RoutingState) -> PulseSchedule:
    em = _Emitter(routing)
    em.pulse_at(routing.placement[j - 1], theta, axis)
    return em.sched


def _routed(operands: tuple[int, ...], routing: RoutingState, end_cost) -> _Emitter:
    """An emitter that has already replayed the cheapest route of `operands`
    to a finish that `end_cost` accepts."""
    em = _Emitter(routing)
    for move in _cheapest_route(operands, routing, move_cost, end_cost):
        em.do_move(move)
    return em


def macro_cnot(a: int, c: int, routing: RoutingState) -> PulseSchedule:
    """CNOT control a -> target c: route c onto Q_2 and a onto Q_1 or Q_3,
    then Toffoli, flip the spare on the other control site, Toffoli, flip it
    back.  The spare is whichever qubit routing leaves there."""
    if a == c:
        raise ValueError("CNOT needs two distinct qubits")
    em = _routed((a, c), routing, _cnot_end)
    em.cnot_towards_q2(routing.placement[a - 1])
    return em.sched


def macro_swap(a: int, b: int, routing: RoutingState) -> PulseSchedule:
    """Logical a and b trade the positions they are tracked at: no pulse."""
    if a == b:
        raise ValueError("SWAP needs two distinct qubits")
    p = routing.placement
    p[a - 1], p[b - 1] = p[b - 1], p[a - 1]
    return PulseSchedule()


def macro_toffoli(a: int, b: int, c: int, routing: RoutingState) -> PulseSchedule:
    """Route c onto Q_2 and the controls a, b onto Q_1, Q_3 in either order,
    then one Toffoli."""
    if len({a, b, c}) != 3:
        raise ValueError("TOFFOLI needs three distinct qubits")
    em = _routed((a, b, c), routing, _toffoli_end)
    em.toffoli()
    return em.sched


@dataclass
class CompileResult:
    schedule: PulseSchedule
    placement: tuple[int, ...]  # final: logical j sits at placement[j-1]
    phase: PhaseLabel
    pulse_count: int


_GATE_MACROS = {"CNOT": macro_cnot, "SWAP": macro_swap, "TOFFOLI": macro_toffoli}


def _lower_gate(gate: LogicalGate, routing: RoutingState) -> PulseSchedule:
    if gate.kind == "R":
        return macro_single_qubit(*gate.qubits, gate.theta, gate.axis, routing)
    if gate.kind in FIXED_ROTATIONS:
        return macro_single_qubit(*gate.qubits, math.pi, FIXED_ROTATIONS[gate.kind], routing)
    if gate.kind == "CZ":  # CNOT between Hadamards on the target
        a, c = gate.qubits
        part = macro_single_qubit(c, math.pi, HADAMARD_AXIS, routing)
        part.extend(macro_cnot(a, c, routing))
        part.extend(macro_single_qubit(c, math.pi, HADAMARD_AXIS, routing))
        return part
    return _GATE_MACROS[gate.kind](*gate.qubits, routing)


def compile_circuit(circuit: LogicalCircuit, topo: DeviceTopology) -> CompileResult:
    """Lower every gate in order; a gate that cannot be lowered raises
    ValueError naming its 1-based index and kind."""
    if topo.kind != BASELINE:
        raise ValueError("compilation targets the baseline design only")
    if circuit.n_qubits != topo.n_logical:
        raise ValueError(
            f"circuit has {circuit.n_qubits} qubits but device encodes {topo.n_logical}"
        )
    routing = initial_routing(circuit.n_qubits)
    total = PulseSchedule()
    for i, gate in enumerate(circuit.gates, start=1):
        try:
            total.extend(_lower_gate(gate, routing))
        except ValueError as e:
            raise ValueError(f"gate {i} ({gate.kind}): {e}") from None
    return CompileResult(total, tuple(routing.placement), routing.phase, len(total))


# --- verification helpers ------------------------------------------------------------

def permute_logical(psi: LogicalStateVector, placement) -> LogicalStateVector:
    """Move logical qubit j onto position placement[j-1] (bit relabeling)."""
    n = psi.n_qubits
    out = np.zeros_like(psi.amplitudes)
    out[spread_bits(np.arange(1 << n, dtype=np.int64), [p - 1 for p in placement])] = psi.amplitudes
    return LogicalStateVector(n, out)


def macro_boundaries(schedule: PulseSchedule) -> list[int]:
    """Pulse counts after which a compiled schedule is back in the well-formed
    subspace: the end of every step."""
    return list(itertools.accumulate(len(step_pulses(step)) for step in schedule.steps))


def apply_with_boundary_residuals(
    state: SparseState, topo: DeviceTopology, schedule: PulseSchedule
) -> list[float]:
    """Apply the schedule, measuring the out-of-subspace weight after every
    step.  Returns the residuals in order."""
    residuals = []
    for step in schedule.steps:
        for pulse in step_pulses(step):
            apply_global_pulse(state, topo, pulse)
        residuals.append(well_formed_residual(state, topo)[0])
    return residuals


def random_circuit(n_qubits: int, depth: int, rng: np.random.Generator) -> LogicalCircuit:
    kinds = sorted(GATE_ARITY)
    gates = []
    for _ in range(depth):
        kind = kinds[rng.integers(len(kinds))]
        qubits = tuple(int(q) + 1 for q in rng.choice(n_qubits, size=GATE_ARITY[kind], replace=False))
        if kind == "R":
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            gates.append(LogicalGate("R", qubits, float(rng.uniform(-math.pi, math.pi)), tuple(axis)))
        else:
            gates.append(LogicalGate(kind, qubits))
    return LogicalCircuit(n_qubits, tuple(gates))


# --- circuit text format --------------------------------------------------------------

def write_circuit(circuit: LogicalCircuit) -> str:
    lines = []
    for g in circuit.gates:
        fields = [g.kind] + [f"{k}={q}" for k, q in zip(OPERAND_KEYS[len(g.qubits)], g.qubits)]
        if g.kind == "R":
            fields += [f"theta={fmt_float(g.theta)}", "axis=" + ",".join(fmt_float(v) for v in g.axis)]
        lines.append(" ".join(fields) + "\n")
    return "".join(lines)


def parse_circuit(text: str, n_qubits: int) -> LogicalCircuit:
    """One gate per line, `KIND key=value ...`, each of the kind's keys once."""
    gates = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, *fields = line.split()
        for f in fields:
            if "=" not in f:
                raise ValueError(f"line {line_no}: expected key=value, got {f!r}")
        try:
            if kind not in GATE_ARITY:
                raise ValueError(f"unknown gate {kind!r}")
            operand_keys = OPERAND_KEYS[GATE_ARITY[kind]]
            extra_keys = EXTRA_KEYS.get(kind, {})
            allowed = operand_keys + tuple(extra_keys)
            kv = {}
            for k, _, v in (f.partition("=") for f in fields):
                if k not in allowed:
                    raise ValueError(f"{kind} takes keys {', '.join(allowed)}, got {k!r}")
                if k in kv:
                    raise ValueError(f"key {k!r} given twice")
                kv[k] = v
            qubits = tuple(int(kv[k]) for k in operand_keys)
            gates.append(LogicalGate(kind, qubits, **{k: parse(kv[k]) for k, parse in extra_keys.items()}))
            if any(q > n_qubits for q in qubits):
                raise ValueError(f"{kind} addresses qubits beyond n={n_qubits}")
        except KeyError as e:
            raise ValueError(f"line {line_no}: missing field {e} for {kind}") from None
        except ValueError as e:
            raise ValueError(f"line {line_no}: {e}") from None
    return LogicalCircuit(n_qubits, tuple(gates))
