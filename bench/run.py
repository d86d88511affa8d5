#!/usr/bin/env python3
"""End-to-end benchmark of the conveyorqc command line.

Run from the root of a source checkout:

    python3 bench/run.py --workload compile-n8 --seed 1 --seconds 20 --trace 0

One client sends a fixed, seeded list of requests through `cli.main(argv)`
in this process, each after the previous one has finished, and checks every
output against bench/reference.py after the timed phase.  --seconds sizes
the list: it holds as many requests as the workload's rate below gives for
that many seconds.  The rates are the throughput measured on the host that
bench/README.md describes, so there a request phase lasts about --seconds.
The list always runs to completion, so every run with the same seed and
length sends the same requests.  The last line
of stdout is one JSON object with the end-to-end metrics (--trace 0) or the
per-layer metrics of a traced run (--trace 1).  See bench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is imported here or in any child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import reference
import tracing

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

SETUP_PROBES = 4  # before the requests, and as many again after the checks
FIDELITY_FLOOR = 1 - 1e-8
STRAY_WEIGHT_CEILING = 1e-9
BLOCKADE_ETAS = "1,2"
# The closed form leaves out the counter-rotating drive term; the lab-frame
# sweep differs from it by at most 1.7e-3 (p_flip_gg at eta = 1).
BLOCKADE_TOLERANCE = 2.5e-3
SAMPLE_TERMS = 4
SAMPLE_STREAM = 8  # generator stream of the sample check; workloads use 0..3
TAIL_MIN_REQUESTS = 40
TAIL_BEYOND = 10

# Probe run in a fresh interpreter: everything before the first request.
_PROBE = """
import contextlib, io, sys, time
sys.path.insert(0, sys.argv[1])
from conveyorqc import cli
if sys.argv[2]:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["topology", "--n", sys.argv[2], "--out", sys.argv[3]])
    if rc:
        sys.exit(rc)
print(time.monotonic())
"""


@dataclass
class Request:
    argvs: list  # CLI calls, sent in order; each writes the file its last argument names
    n: int = 0  # logical qubits of the circuit
    gates: list = field(default_factory=list)  # logical circuit compiled, if any
    state: np.ndarray | None = None  # logical input state, if any


@dataclass
class Workload:
    name: str
    rate: float  # requests per second of --seconds
    n: int | None = None  # logical qubits of the circuits compiled; None: nothing compiled
    backend: str | None = None  # `run` the compiled schedule on this backend; None: compile only
    batch: int = 1  # the list is a whole number of batches

    def request_count(self, seconds: float) -> int:
        batches = max(1, round(seconds * self.rate / self.batch))
        return batches * self.batch


WORKLOADS = {
    w.name: w
    for w in (
        Workload("compile-n8", 12.0, n=8),
        Workload("compile-run-n4-dense", 3.5, n=4, backend="dense", batch=len(inputs.SKELETONS[4])),
        Workload("compile-run-n6-sparse", 3.8, n=6, backend="sparse", batch=len(inputs.SKELETONS[6])),
        Workload("blockade-sweep", 1.1),
    )
}


def _import_cli():
    if not (SRC / "conveyorqc" / "cli.py").is_file():
        sys.exit(f"conveyorqc sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    from conveyorqc import cli, compiler, hamiltonian, pulses, state, topology

    return {
        "cli": cli,
        "compiler": compiler,
        "hamiltonian": hamiltonian,
        "pulses": pulses,
        "state": state,
        "topology": topology,
    }


def _call(cli, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _report(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


# --- inputs ------------------------------------------------------------------------

def make_requests(workload: Workload, seed: int, count: int, work: Path, topo: Path | None) -> list[Request]:
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload.name)])
    requests = []
    for i in range(count):
        out = str(work / f"out{i}")
        n = workload.n
        if n is None:
            argv = ["blockade-sweep", "--etas", BLOCKADE_ETAS, "--fragment", "two_neighbor", "--out", out]
            requests.append(Request([argv]))
            continue
        if workload.backend is None:
            gates, psi = inputs.all_kinds_circuit(rng, n), None
        else:
            skeletons = inputs.SKELETONS[n]
            gates = inputs.skeleton_circuit(rng, skeletons[i % len(skeletons)])
            psi = inputs.random_state(rng, n)
        circuit = work / f"circuit{i}.txt"
        circuit.write_text(inputs.circuit_text(gates))
        schedule = str(work / f"schedule{i}.txt")
        argvs = [["compile", "--circuit", str(circuit), "--n", str(n), "--out", schedule]]
        if psi is not None:
            initial = work / f"state{i}.csv"
            initial.write_text(inputs.state_csv_text(psi))
            argvs.append(
                ["run", "--topology", str(topo), "--schedule", schedule, "--initial-state", str(initial),
                 "--backend", workload.backend, "--out", out]
            )
        requests.append(Request(argvs, n, gates, psi))
    return requests


# --- checks ------------------------------------------------------------------------

def _check_compiled(request: Request, compile_report: dict, n: int) -> tuple[int, list[int]]:
    """Pulse trailer and placement of one compiled schedule; returns them."""
    schedule = request.argvs[0][-1]
    count, trailers = reference.read_schedule(Path(schedule).read_text())
    if compile_report.get("status") != "ok":
        raise AssertionError(f"compile report {compile_report}")
    if str(count) != trailers.get("pulses") or count != compile_report["pulse_count"]:
        raise AssertionError(
            f"{schedule}: expands to {count} pulses, trailer says {trailers.get('pulses')}, "
            f"report says {compile_report['pulse_count']}"
        )
    placement = [int(p) for p in trailers.get("final_placement", "").split(",") if p]
    if sorted(placement) != list(range(1, n + 1)) or placement != compile_report["final_placement"]:
        raise AssertionError(f"{schedule}: final_placement {placement} is not a permutation of 1..{n}")
    return count, placement


def _check_state(dump: str, n: int, gates, psi, placement) -> None:
    by_position, stray = reference.decode_dump(reference.read_dump(dump), n)
    if stray > STRAY_WEIGHT_CEILING:
        raise AssertionError(f"{dump}: weight {stray:.3e} outside the encoding")
    expected = reference.simulate(n, gates, psi)
    fid = reference.fidelity(expected, reference.unpermute(by_position, placement))
    if fid < FIDELITY_FLOOR:
        raise AssertionError(f"{dump}: fidelity {fid!r} against the reference")


def _check_sweep(path: str) -> None:
    lines = Path(path).read_text().split()
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    if len(rows) != len(BLOCKADE_ETAS.split(",")):
        raise AssertionError(f"{path}: {len(rows)} rows")
    for eta, *flips in rows:
        for k, p in enumerate(flips):
            want = reference.blockade_flip_probability(eta, k)
            if abs(p - want) > BLOCKADE_TOLERANCE:
                raise AssertionError(f"{path}: eta={eta} k={k}: {p!r}, closed form {want!r}")
    for before, after in zip(rows, rows[1:]):
        if not (after[0] > before[0] and after[2] < before[2] and after[3] < before[3]):
            raise AssertionError(f"{path}: leakage does not fall from eta={before[0]} to {after[0]}")


def check(workload: Workload, request: Request, reports: list[dict]) -> tuple[int, int]:
    """Raise AssertionError on a wrong output; return (pulses, gates) compiled."""
    if workload.n is None:
        if reports[0].get("status") != "ok":
            raise AssertionError(f"blockade-sweep report {reports[0]}")
        _check_sweep(request.argvs[0][-1])
        return 1, 1  # every simulated conditional flip is one pi pulse
    count, placement = _check_compiled(request, reports[0], request.n)
    if request.state is not None:
        if reports[1].get("status") != "ok" or reports[1]["pulse_count"] != count:
            raise AssertionError(f"run report {reports[1]} after compiling {count} pulses")
        _check_state(request.argvs[1][-1], request.n, request.gates, request.state, placement)
    return count, len(request.gates)


def check_sample(mods, requests: list[Request], reports: list, seed: int, work: Path) -> None:
    """Compile-only workloads: run one seeded pick of the compiled schedules on the
    sparse backend and compare with the reference.  The input state is a
    seeded superposition of SAMPLE_TERMS basis states, which keeps the sparse
    support, and so the check, small."""
    rng = np.random.default_rng([seed, SAMPLE_STREAM])
    pick = int(rng.choice([i for i, r in enumerate(reports) if r is not None]))
    n = requests[pick].n
    psi = inputs.random_state(rng, n, terms=SAMPLE_TERMS)
    initial, topo, dump = work / "sample.csv", str(work / "sample-topology.json"), str(work / "sample-out.csv")
    initial.write_text(inputs.state_csv_text(psi))
    cli = mods["cli"]
    if _call(cli, ["topology", "--n", str(n), "--out", topo])[0] != 0:
        raise AssertionError(f"topology --n {n} failed")
    schedule = requests[pick].argvs[0][-1]
    argv = ["run", "--topology", topo, "--schedule", schedule, "--initial-state", str(initial),
            "--backend", "sparse", "--out", dump]
    if _call(cli, argv)[0] != 0:
        raise AssertionError(f"sparse run of {schedule} failed")
    _check_state(dump, n, requests[pick].gates, psi, reports[pick][0]["final_placement"])


# --- phases ------------------------------------------------------------------------

def measure_setup(workload: Workload, work: Path) -> list[float]:
    """Times in fresh interpreters from process start until the first
    request can be sent: import, plus the topology file."""
    samples = []
    n = str(workload.n) if workload.backend else ""
    for k in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", _PROBE, str(SRC), n, str(work / f"probe{k}.json")],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            sys.exit(f"setup probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


def _send(cli, request: Request) -> list[tuple[int, str]]:
    return [_call(cli, argv) for argv in request.argvs]


def send_all(cli, requests: list[Request], tracer=None):
    """Closed loop: each request is sent when the previous one is done.

    Returns (wall time of the phase, per-request times, reports or None
    per request, time of the untraced sends).  With a tracer, every request
    is sent twice in a row, untraced and then traced, so that host speed
    drifts alike for both; the reports and times are those of the traced
    sends.
    """
    times, reports = [], []
    untraced_s = 0.0
    start = time.perf_counter()
    for i, request in enumerate(requests):
        try:
            if tracer:
                t0 = time.perf_counter()
                _send(cli, request)
                untraced_s += time.perf_counter() - t0
                tracer.install()
            t0 = time.perf_counter()
            try:
                with tracer.request_span(i) if tracer else contextlib.nullcontext():
                    results = _send(cli, request)
            finally:
                elapsed = time.perf_counter() - t0
                if tracer:
                    tracer.remove()
        except Exception as e:  # a crashed request counts as failed
            print(f"request {i} raised {type(e).__name__}: {e}", file=sys.stderr)
            reports.append(None)
            continue
        if any(rc != 0 for rc, _ in results):
            print(f"request {i} exited {[rc for rc, _ in results]}", file=sys.stderr)
            reports.append(None)
            continue
        times.append(elapsed)
        reports.append([_report(text) for _, text in results])
    phase_s = time.perf_counter() - start - untraced_s
    return phase_s, times, reports, untraced_s


def tail(times: list[float]) -> float:
    """Highest percentile with TAIL_BEYOND samples beyond it; the median when
    the run holds fewer than TAIL_MIN_REQUESTS requests."""
    if len(times) < TAIL_MIN_REQUESTS:
        return statistics.median(times)
    return sorted(times)[-TAIL_BEYOND - 1]


def check_all(mods, workload: Workload, requests: list[Request], reports: list, seed: int, work: Path):
    """Check every completed request; returns (correct, pulses, gates)."""
    correct = True
    pulses = gates = 0
    for i, (request, report) in enumerate(zip(requests, reports)):
        if report is None:
            continue
        try:
            p, g = check(workload, request, report)
        except (AssertionError, KeyError, ValueError, OSError) as e:
            print(f"request {i}: {e}", file=sys.stderr)
            correct = False
            continue
        pulses += p
        gates += g
    if workload.backend is None and workload.n and correct and gates:
        try:
            check_sample(mods, requests, reports, seed, work)
        except (AssertionError, KeyError, ValueError, OSError) as e:
            print(f"sparse sample: {e}", file=sys.stderr)
            correct = False
    return correct, pulses, gates


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def write_trace(workload: Workload, seed: int, tracer, metrics: dict) -> None:
    stem = BENCH / "out" / f"{workload.name}-seed{seed}"
    stem.parent.mkdir(exist_ok=True)
    tracer.write_spans(f"{stem}.spans.jsonl")
    doc = {"workload": workload.name, "seed": seed, "metrics": metrics}
    Path(f"{stem}.trace.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-inputs", metavar="DIR", help="write the seeded inputs to DIR and exit")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    count = workload.request_count(args.seconds)

    if args.write_inputs:
        target = Path(args.write_inputs)
        target.mkdir(parents=True, exist_ok=True)
        make_requests(workload, args.seed, count, target, target / "topology.json")
        return 0

    mods = _import_cli()
    cli = mods["cli"]
    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=BENCH / ".work"))
    try:
        setup = [] if args.trace else measure_setup(workload, work)
        topo = None
        if workload.backend:
            topo = work / "topology.json"
            if _call(cli, ["topology", "--n", str(workload.n), "--out", str(topo)])[0] != 0:
                sys.exit("topology command failed")
        requests = make_requests(workload, args.seed, count, work, topo)

        tracer = tracing.Tracer(mods) if args.trace else None
        phase_s, times, reports, untraced_s = send_all(cli, requests, tracer)
        checks_t0 = time.perf_counter()
        correct, pulses, gates = check_all(mods, workload, requests, reports, args.seed, work)
        print(f"{workload.name}: {len(requests)} requests in {phase_s:.1f} s, "
              f"checked in {time.perf_counter() - checks_t0:.1f} s", file=sys.stderr)
        if not args.trace:
            setup += measure_setup(workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    done = len(times)
    if args.trace:
        values = tracer.metrics(done) if done else {}
        values["trace.overhead_requests_per_s"] = done / phase_s - done / untraced_s
        metrics = {name: _metric(values.get(name, 0.0), unit) for name, unit, _ in tracing.METRICS}
        write_trace(workload, args.seed, tracer, metrics)
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setup), "s"),
            "requests_per_s": _metric(done / phase_s, "1/s"),
            "request_s.p50": _metric(statistics.median(times) if times else 0.0, "s"),
            "request_s.tail": _metric(tail(times) if times else 0.0, "s"),
            "peak_rss_mib": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "pulses_per_gate": _metric(pulses / gates if gates else 0.0, "pulse/gate"),
        }
    result = {"correct": correct, "attempted": len(requests), "failed": len(requests) - done, "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
