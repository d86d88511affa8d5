"""Property tests: the support-array pulse kernel against references.

* Baseline N=4 (17 qubits), every class: sparse and dense class pulses
  against a per-entry dictionary rotation written out below, which shares
  no package code, and against an unpruned state driven site by site
  through `apply_controlled_rotation`, which never sees the per-class masks.
  Both backends are the same support storage and kernel, so the
  site-by-site reference checks the class-mask bookkeeping; the dictionary
  checks the kernel.
* Variant classes (34 qubits, too large for dense): sparse class pulses
  against the same dictionary rotation.
* Compiled N=6 circuits: the sparse support never exceeds 2^N at a macro
  boundary.

The first two compare with pruning switched off, so they check the kernel
arithmetic alone.  At the default tolerance each dropped branch is below
1e-12, but a small-angle pulse on a class of eight sites drops many of
them: two A_regular pulses at theta = 2^-7 already differ by 1.2e-12.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conveyorqc.compiler import (
    LogicalCircuit,
    LogicalGate,
    GATE_ARITY,
    compile_circuit,
    macro_boundaries,
)
from conveyorqc.pulses import (
    X_AXIS,
    Z_AXIS,
    GlobalPulse,
    TargetClass,
    apply_global_pulse,
    class_sites,
)
from conveyorqc.state import (
    PhaseLabel,
    PureState,
    SparseState,
    apply_controlled_rotation,
    encode_well_formed,
    l2_distance,
    random_logical_state,
    rotation_matrix,
    to_dense,
    to_sparse,
)
from conveyorqc.topology import build_conveyor, build_variant

TOPO4 = build_conveyor(4)
TOPO6 = build_conveyor(6)
VARIANTS = {
    TargetClass.C_REGULAR: build_variant("two_coupler_three_species", 8),
    TargetClass.C_CROSSED: build_variant("two_coupler_three_species", 8),
    TargetClass.A_DOUBLE_CROSSED: build_variant("two_coupler_double_crossed", 8),
}
BASELINE_CLASSES = [t for t in TargetClass if t not in VARIANTS]

unit_axes = (
    st.tuples(*[st.floats(-1, 1)] * 3)
    .filter(lambda v: math.hypot(*v) > 0.1)
    .map(lambda v: tuple(float(x) / math.hypot(*v) for x in v))
)
rotations = st.one_of(
    st.tuples(st.sampled_from([math.pi, -math.pi]), st.just(X_AXIS)),
    st.tuples(st.sampled_from([2 * math.pi, -2 * math.pi]), unit_axes),
    st.tuples(st.floats(-2 * math.pi, 2 * math.pi), st.just(Z_AXIS)),
    st.tuples(st.floats(-2 * math.pi, 2 * math.pi), unit_axes),
)


def _random_support(n_qubits, rng, size):
    idx = rng.choice(1 << min(n_qubits, 62), size=size, replace=False).astype(np.int64)
    amp = rng.normal(size=size) + 1j * rng.normal(size=size)
    return idx, amp / np.linalg.norm(amp)


def _start_state(seed, well_formed, size):
    rng = np.random.default_rng(seed)
    if well_formed:
        psi = random_logical_state(4, rng)
        return encode_well_formed(psi, PhaseLabel.FP, TOPO4, backend="dense")
    idx, amp = _random_support(TOPO4.n_sites, rng, size)
    dense = np.zeros(1 << TOPO4.n_sites, dtype=np.complex128)
    dense[idx] = amp
    return to_sparse(PureState(TOPO4.n_sites, dense), 0.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    well_formed=st.booleans(),
    size=st.integers(1, 200),
    schedule=st.lists(st.tuples(st.sampled_from(BASELINE_CLASSES), rotations), min_size=1, max_size=6),
)
def test_sparse_matches_site_by_site_dense(seed, well_formed, size, schedule):
    reference = _start_state(seed, well_formed, size)
    dense = reference.copy()
    sparse = to_sparse(to_dense(reference))
    sparse.prune_tolerance = 0.0
    start = to_dense(reference).amplitudes
    (nonzero,) = np.nonzero(start)
    expected = dict(zip(nonzero.tolist(), start[nonzero].tolist()))
    for target, (theta, axis) in schedule:
        pulse = GlobalPulse(target, theta, axis)
        apply_global_pulse(sparse, TOPO4, pulse)
        apply_global_pulse(dense, TOPO4, pulse)
        r = rotation_matrix(theta, axis).tolist()
        for site in sorted(class_sites(TOPO4, target)):
            controls = () if target is TargetClass.INIT_LINE else TOPO4.neighbor_map[site]
            apply_controlled_rotation(reference, site, controls, theta, axis)
            expected = _dict_rotate(expected, site, controls, r)
    assert l2_distance(sparse, reference) <= 1e-12
    assert l2_distance(dense, reference) <= 1e-12
    assert _dict_distance(dict(sparse.amplitudes), expected) <= 1e-12
    final = to_dense(dense).amplitudes
    (nonzero,) = np.nonzero(final)
    assert _dict_distance(dict(zip(nonzero.tolist(), final[nonzero].tolist())), expected) <= 1e-12


def _dict_rotate(amps: dict, site: int, controls, r) -> dict:
    """One blockade-conditioned rotation, entry by entry."""
    out: dict = {}
    bit = 1 << site
    for idx, a in amps.items():
        if any(idx >> c & 1 for c in controls):
            out[idx] = out.get(idx, 0j) + a
            continue
        col = idx >> site & 1
        for row, dest in ((0, idx & ~bit), (1, idx | bit)):
            out[dest] = out.get(dest, 0j) + r[row][col] * a
    return out


def _dict_distance(got: dict, expected: dict) -> float:
    diff = [got.get(i, 0j) - expected.get(i, 0j) for i in set(got) | set(expected)]
    return math.sqrt(sum(abs(d) ** 2 for d in diff))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 64),
    schedule=st.lists(st.tuples(st.sampled_from(list(VARIANTS)), rotations), min_size=1, max_size=4),
)
def test_sparse_variant_classes_match_dict_rotation(seed, size, schedule):
    topo = VARIANTS[schedule[0][0]]
    schedule = [(t, rot) for t, rot in schedule if VARIANTS[t] is topo]
    idx, amp = _random_support(topo.n_sites, np.random.default_rng(seed), size)
    sparse = SparseState(topo.n_sites, idx, amp, prune_tolerance=0.0)
    expected = dict(zip(idx.tolist(), amp.tolist()))
    for target, (theta, axis) in schedule:
        apply_global_pulse(sparse, topo, GlobalPulse(target, theta, axis))
        r = rotation_matrix(theta, axis).tolist()
        for site in class_sites(topo, target):
            expected = _dict_rotate(expected, site, topo.neighbor_map[site], r)
    assert _dict_distance(dict(sparse.amplitudes), expected) <= 1e-12


gates = st.sampled_from(sorted(GATE_ARITY)).flatmap(
    lambda kind: st.builds(
        LogicalGate,
        st.just(kind),
        st.permutations(range(1, 7)).map(lambda p: tuple(p[: GATE_ARITY[kind]])),
        st.floats(-math.pi, math.pi),
        unit_axes,
    )
)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), circuit_gates=st.lists(gates, min_size=1, max_size=3))
def test_sparse_support_bounded_at_macro_boundaries(seed, circuit_gates):
    schedule = compile_circuit(LogicalCircuit(6, tuple(circuit_gates)), TOPO6).schedule
    psi = random_logical_state(6, np.random.default_rng(seed))
    state = encode_well_formed(psi, PhaseLabel.FP, TOPO6, backend="sparse")
    bounds = set(macro_boundaries(schedule))
    for i, pulse in enumerate(schedule.pulses, start=1):
        apply_global_pulse(state, TOPO6, pulse)
        if i in bounds:
            assert len(state.amplitudes) <= 1 << 6
