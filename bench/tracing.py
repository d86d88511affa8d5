"""Per-layer spans for a traced benchmark run.

The tracer wraps the public functions of each conveyorqc module from the
outside, patched in at the name its caller looks up: `cli` binds the state
helpers by name, so those are replaced on `cli`; everything else is reached
as a module attribute (`compiler.compile_circuit`, `pulses.apply_global_pulse`
looked up inside `apply_schedule`, `hamiltonian.evolve` inside the sweep).
Spans are kept in memory and reduced to per-layer metrics at the end.
"""

from __future__ import annotations

import contextlib
import json
import math
import time
from collections import defaultdict

PULSE = "pulses.pulse"

# (module name, attribute, span name)
_WRAPPED = (
    ("cli", "cmd_compile", "cli.compile"),
    ("cli", "cmd_run", "cli.run"),
    ("cli", "cmd_blockade_sweep", "cli.blockade_sweep"),
    ("cli", "load_logical_csv", "state.load_csv"),
    ("cli", "encode_well_formed", "state.encode"),
    ("cli", "well_formed_residual", "state.residual"),
    ("cli", "state_csv_lines", "state.dump"),
    ("compiler", "parse_circuit", "compiler.parse_circuit"),
    ("compiler", "compile_circuit", "compiler.compile"),
    ("compiler", "bfs_route", "compiler.route"),
    ("pulses", "write_schedule", "pulses.write_schedule"),
    ("pulses", "parse_schedule", "pulses.parse_schedule"),
    ("pulses", "apply_schedule", "pulses.apply_schedule"),
    ("topology", "load", "topology.load"),
    ("topology", "build_conveyor", "topology.build"),
    ("hamiltonian", "sweep_blockade", "hamiltonian.sweep"),
    ("hamiltonian", "evolve", "hamiltonian.evolve"),
)

TIMED = sorted({span for _, _, span in _WRAPPED})
COUNTS = (
    "compiler.route_calls",
    "compiler.route_moves.exchange",
    "compiler.route_moves.swap",
    "compiler.gates",
    "compiler.pulses_emitted",
    "hamiltonian.evolve_calls",
    "hamiltonian.steps",
)
PULSE_KINDS = ("dense.pi_x", "dense.generic", "sparse.pi_x", "sparse.generic")

# Every metric `Tracer.metrics` reports, with its unit and better direction.
METRICS = (
    [(f"{PULSE}_us.{kind}", "us", "lower") for kind in PULSE_KINDS]
    + [("pulses.pulses_applied", "count", "lower"), ("state.peak_support", "count", "lower")]
    + [(f"{name}_s", "s", "lower") for name in TIMED]
    + [("cli.self_s", "s", "lower")]
    + [(name, "count", "higher" if name == "compiler.gates" else "lower") for name in COUNTS]
    + [("hamiltonian.us_per_step", "us", "lower")]
    + [("trace.overhead_requests_per_s", "1/s", "higher")]
)


class Tracer:
    def __init__(self, modules: dict):
        self._modules = modules
        self._pulses = modules["pulses"]
        self._dense_type = modules["state"].PureState
        self._patches = []
        self._stack = []
        self.request = None
        self.spans = []  # [request, name, start, end, parent index]
        self.counts = defaultdict(int)
        self.peak_support = 0

    # -- spans ---------------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([self.request, name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def request_span(self, request: int):
        self.request = request
        index = self._open("request")
        try:
            yield
        finally:
            self._close(index)

    # -- patching ------------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(args, result)
            return result

        self._patch(owner, attr, wrapper)

    def _count_compile(self, args, result) -> None:
        self.counts["compiler.gates"] += len(args[0].gates)
        self.counts["compiler.pulses_emitted"] += result.pulse_count

    def _count_route(self, args, moves) -> None:
        self.counts["compiler.route_calls"] += 1
        swaps = sum(m.startswith("SWAP") for m in moves)
        self.counts["compiler.route_moves.swap"] += swaps
        self.counts["compiler.route_moves.exchange"] += len(moves) - swaps

    def _count_steps(self, args, result) -> None:
        model = args[2]
        self.counts["hamiltonian.evolve_calls"] += 1
        self.counts["hamiltonian.steps"] += max(1, math.ceil(model.duration / model.dt - 1e-12))

    def _wrap_pulse(self) -> None:
        # Only the outermost call is a pulse: a B_all pulse recurses into
        # apply_global_pulse once per sub-class.
        original = self._pulses.apply_global_pulse
        x_axis = self._pulses.X_AXIS

        def wrapper(state, topo, pulse):
            if self._stack and self.spans[self._stack[-1]][1].startswith(PULSE):
                return original(state, topo, pulse)
            backend = "dense" if isinstance(state, self._dense_type) else "sparse"
            kind = "pi_x" if abs(pulse.theta) == math.pi and pulse.axis == x_axis else "generic"
            index = self._open(f"{PULSE}.{backend}.{kind}")
            try:
                return original(state, topo, pulse)
            finally:
                self._close(index)
                self.peak_support = max(self.peak_support, len(state.amplitudes))

        self._patch(self._pulses, "apply_global_pulse", wrapper)

    def install(self) -> None:
        counters = {
            "compiler.compile": self._count_compile,
            "compiler.route": self._count_route,
            "hamiltonian.evolve": self._count_steps,
        }
        for module, attr, name in _WRAPPED:
            self._wrap(self._modules[module], attr, name, counters.get(name))
        self._wrap_pulse()

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction -----------------------------------------------------------------

    def metrics(self, requests: int) -> dict[str, float]:
        total = defaultdict(float)
        calls = defaultdict(int)
        child = defaultdict(float)
        for _, name, start, end, parent in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent is not None:
                child[parent] += end - start
        cli_self = sum(
            (end - start) - child[i]
            for i, (_, name, start, end, _) in enumerate(self.spans)
            if name == "request" or name.startswith("cli.")
        )
        out = {}
        for kind in PULSE_KINDS:
            name = f"{PULSE}.{kind}"
            out[f"{PULSE}_us.{kind}"] = 1e6 * total[name] / calls[name] if calls[name] else 0.0
        out["pulses.pulses_applied"] = sum(calls[f"{PULSE}.{kind}"] for kind in PULSE_KINDS)
        out["state.peak_support"] = self.peak_support
        for name in TIMED:
            out[f"{name}_s"] = total[name] / requests
        out["cli.self_s"] = cli_self / requests
        for name in COUNTS:
            out[name] = self.counts[name]
        steps = self.counts["hamiltonian.steps"]
        out["hamiltonian.us_per_step"] = 1e6 * total["hamiltonian.evolve"] / steps if steps else 0.0
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            for request, name, start, end, parent in self.spans:
                f.write(json.dumps({"request": request, "name": name, "start": start, "end": end, "parent": parent}))
                f.write("\n")
