"""Simulator and pulse-schedule compiler for a globally driven qubit loop."""

from .compiler import (
    CompileResult,
    LogicalCircuit,
    LogicalGate,
    RoutingState,
    bfs_route,
    compile_circuit,
    macro_cnot,
    macro_single_qubit,
    macro_swap,
    macro_toffoli,
    parse_circuit,
    permutation_after,
    permute_logical,
    route_to_Q2,
    write_circuit,
)
from .pulses import (
    GlobalPulse,
    PulseSchedule,
    TargetClass,
    apply_global_pulse,
    apply_schedule,
    parse_schedule,
    write_schedule,
)
from .state import (
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
    random_logical_state,
    to_dense,
    to_sparse,
)
from .topology import DeviceTopology, build_conveyor, build_variant, neighbors

__version__ = "0.1.0"
