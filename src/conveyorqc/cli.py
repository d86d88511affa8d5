"""Command-line surface: topology, run, compile, verify, blockade-sweep.

Every command prints a single-line JSON run report to stdout; payloads go to
--out files.  Exit status: 0 = ok / thresholds met, 1 = verification below
threshold, 2 = invalid input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

import numpy as np

from . import compiler, hamiltonian, oracle, pulses, topology
from .state import (
    NotWellFormedError,
    PhaseLabel,
    all_ground,
    check_size,
    decode_well_formed,
    encode_well_formed,
    load_logical_csv,
    random_logical_state,
    state_csv_lines,
    well_formed_residual,
)

VERIFY_DEFAULT_TOL = 1e-8


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _report(**fields) -> None:
    print(json.dumps(fields, sort_keys=True))


def _write_text(path: str, text: str) -> None:
    with open(path, "w") as f:
        f.write(text)


def cmd_topology(args) -> int:
    t0 = time.monotonic()
    if args.variant:
        topo = topology.build_variant(args.variant, args.n)
    else:
        topo = topology.build_conveyor(args.n)
    violations = topology.validate(topo)
    if violations:
        _report(command="topology", status="invalid", violations=violations)
        return 2
    topology.save(topo, args.out)
    _report(
        command="topology",
        status="ok",
        kind=topo.kind,
        n_logical=topo.n_logical,
        n_sites=topo.n_sites,
        out=args.out,
        out_digest=_digest(args.out),
        wall_time_s=round(time.monotonic() - t0, 6),
    )
    return 0


def _load_topology(path: str):
    topo = topology.load(path)
    violations = topology.validate(topo)
    if violations:
        raise ValueError(f"topology file {path} is invalid: {violations}")
    return topo


def cmd_run(args) -> int:
    t0 = time.monotonic()
    topo = _load_topology(args.topology)
    check_size(topo.n_sites, args.backend)  # before any 2^N logical vector
    with open(args.schedule) as f:
        schedule, _meta = pulses.parse_schedule(f.read())
    inputs = {args.topology: _digest(args.topology), args.schedule: _digest(args.schedule)}
    if args.initial_state:
        psi = load_logical_csv(args.initial_state, topo.n_logical)
        state = encode_well_formed(psi, PhaseLabel(args.phase), topo, backend=args.backend)
        inputs[args.initial_state] = _digest(args.initial_state)
    else:
        state = all_ground(topo.n_sites, backend=args.backend)
    pulses.apply_schedule(state, topo, schedule)
    _write_text(args.out, "\n".join(state_csv_lines(state)) + "\n")
    residual, phase, _ = well_formed_residual(state, topo)
    _report(
        command="run",
        status="ok",
        backend=args.backend,
        inputs=inputs,
        pulse_count=len(schedule),
        residual=residual,
        closest_phase=phase.value,
        out=args.out,
        wall_time_s=round(time.monotonic() - t0, 6),
    )
    return 0


def cmd_compile(args) -> int:
    t0 = time.monotonic()
    topo = topology.build_conveyor(args.n)
    with open(args.circuit) as f:
        circuit = compiler.parse_circuit(f.read(), args.n)
    result = compiler.compile_circuit(circuit, topo)
    meta = {
        "final_placement": ",".join(str(p) for p in result.placement),
        "pulses": str(result.pulse_count),
    }
    _write_text(args.out, pulses.write_schedule(result.schedule, meta=meta))
    _report(
        command="compile",
        status="ok",
        inputs={args.circuit: _digest(args.circuit)},
        pulse_count=result.pulse_count,
        final_placement=list(result.placement),
        out=args.out,
        wall_time_s=round(time.monotonic() - t0, 6),
    )
    return 0


def cmd_verify(args) -> int:
    t0 = time.monotonic()
    if not 0 <= args.tolerance < 1:  # also false for NaN
        raise ValueError(f"--tolerance must be finite and in [0, 1), got {args.tolerance}")
    if args.trials < 0:
        raise ValueError(f"--trials must be >= 0, got {args.trials}")
    topo = topology.build_conveyor(args.n)
    check_size(topo.n_sites, args.backend)  # before any 2^N logical vector
    with open(args.circuit) as f:
        circuit = compiler.parse_circuit(f.read(), args.n)
    inputs = {args.circuit: _digest(args.circuit)}
    if args.schedule:
        with open(args.schedule) as f:
            schedule, meta = pulses.parse_schedule(f.read())
        inputs[args.schedule] = _digest(args.schedule)
        placement = identity = tuple(range(1, args.n + 1))
        if "final_placement" in meta:
            text = meta["final_placement"]
            try:
                placement = tuple(int(p) for p in text.split(","))
            except ValueError:
                placement = ()
            if tuple(sorted(placement)) != identity:
                raise ValueError(
                    f"schedule file {args.schedule}: final_placement {text!r} is not a permutation of 1..{args.n}"
                )
    else:
        result = compiler.compile_circuit(circuit, topo)
        schedule, placement = result.schedule, result.placement

    rng = np.random.default_rng(args.seed)
    trials = [random_logical_state(args.n, rng) for _ in range(args.trials)]
    ground = np.zeros(1 << args.n, dtype=complex)
    ground[0] = 1.0
    trials.insert(0, compiler.LogicalStateVector(args.n, ground))

    fidelities = []
    for psi in trials:
        state = encode_well_formed(psi, PhaseLabel.FP, topo, backend=args.backend)
        pulses.apply_schedule(state, topo, schedule)
        try:
            decoded, _, _ = decode_well_formed(state, topo)
        except NotWellFormedError:
            fidelities.append(0.0)
            continue
        expected = compiler.permute_logical(oracle.simulate_logical(circuit, psi), placement)
        fid, _ = oracle.compare_up_to_global_phase(expected, decoded)
        fidelities.append(fid)
    min_fid = min(fidelities)
    ok = min_fid >= 1.0 - args.tolerance
    _report(
        command="verify",
        status="ok" if ok else "below_threshold",
        backend=args.backend,
        inputs=inputs,
        seed=args.seed,
        pulse_count=len(schedule),
        trials=len(trials),
        min_fidelity=min_fid,
        fidelities=fidelities,
        tolerance=args.tolerance,
        wall_time_s=round(time.monotonic() - t0, 6),
    )
    return 0 if ok else 1


def cmd_blockade_sweep(args) -> int:
    t0 = time.monotonic()
    etas = [float(x) for x in args.etas.split(",")] if args.etas else []
    rows = hamiltonian.sweep_blockade(etas, args.fragment)
    _write_text(args.out, "\n".join(hamiltonian.sweep_csv_lines(rows)) + "\n")
    _report(
        command="blockade-sweep",
        status="ok",
        fragment=args.fragment,
        rows=len(rows),
        out=args.out,
        wall_time_s=round(time.monotonic() - t0, 6),
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="conveyorqc")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("topology", help="build and save a device graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--variant", choices=topology.VARIANT_KINDS, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_topology)

    p = sub.add_parser("run", help="apply a pulse schedule to a state")
    p.add_argument("--topology", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--initial-state", default=None, help="logical state CSV; default all-ground device")
    p.add_argument("--phase", choices=[ph.value for ph in PhaseLabel], default="FP")
    p.add_argument("--backend", choices=["dense", "sparse"], default="dense")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compile", help="lower a logical circuit to a pulse schedule")
    p.add_argument("--circuit", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("verify", help="compare a compiled schedule against the reference simulator")
    p.add_argument("--circuit", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--backend", choices=["dense", "sparse"], default="dense")
    p.add_argument("--schedule", default=None, help="verify this schedule instead of compiling")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--tolerance", type=float, default=VERIFY_DEFAULT_TOL)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("blockade-sweep", help="blockade error sweep as CSV")
    p.add_argument("--etas", default="4,8,16,32,64")
    p.add_argument("--fragment", choices=sorted(hamiltonian.FRAGMENT_KINDS), default="two_neighbor")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_blockade_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        _report(command=args.command, status="error", error=str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main())
