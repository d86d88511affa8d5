import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conveyorqc.cli import main
from conveyorqc.compiler import permutation_after, permute_logical
from conveyorqc.oracle import compare_up_to_global_phase
from conveyorqc.state import (
    PhaseLabel,
    PureState,
    decode_well_formed,
    random_logical_state,
    state_csv_lines,
    to_dense,
    to_sparse,
)
from conveyorqc.topology import build_conveyor, load, to_json_dict


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(out[-1])


def read_state_csv(path, n_qubits):
    amp = np.zeros(1 << n_qubits, dtype=complex)
    for line in Path(path).read_text().splitlines()[1:]:
        idx, re, im = line.split(",")
        amp[int(idx, 16)] = float(re) + 1j * float(im)
    return to_sparse(PureState(n_qubits, amp), 0.0)


def test_topology_command(tmp_path, capsys):
    out = tmp_path / "topo.json"
    code, report = run_cli(capsys, "topology", "--n", "8", "--out", str(out))
    assert code == 0 and report["n_sites"] == 33
    topo = load(out)
    assert topo.n_logical == 8

    code, report = run_cli(capsys, "topology", "--n", "5", "--out", str(tmp_path / "x.json"))
    assert code == 2 and report["status"] == "error" and "even" in report["error"]

    code, report = run_cli(
        capsys,
        "topology",
        "--n",
        "8",
        "--variant",
        "two_coupler_three_species",
        "--out",
        str(tmp_path / "v.json"),
    )
    assert code == 0
    variant = load(tmp_path / "v.json")
    assert variant.coupler_pairs and variant.n_sites == 34


def test_run_init_then_decode(tmp_path, capsys):
    topo_file = tmp_path / "topo.json"
    run_cli(capsys, "topology", "--n", "4", "--out", str(topo_file))
    sched = tmp_path / "init.txt"
    sched.write_text("MACRO INIT\n")
    out = tmp_path / "state.csv"
    code, report = run_cli(
        capsys, "run", "--topology", str(topo_file), "--schedule", str(sched), "--out", str(out)
    )
    assert code == 0 and report["pulse_count"] == 1
    assert report["residual"] < 1e-12 and report["closest_phase"] == "FP"
    state = read_state_csv(out, 17)
    dec, phase, _ = decode_well_formed(state, load(topo_file))
    assert phase is PhaseLabel.FP
    assert abs(abs(dec.amplitudes[0]) - 1) < 1e-12


def test_run_exchange_on_logical_state(tmp_path, capsys):
    topo_file = tmp_path / "topo.json"
    run_cli(capsys, "topology", "--n", "4", "--out", str(topo_file))
    psi = random_logical_state(4, np.random.default_rng(5))
    psi_file = tmp_path / "psi.csv"
    psi_file.write_text(
        "\n".join(state_csv_lines(to_sparse(PureState(4, psi.amplitudes), 0.0))) + "\n"
    )
    sched = tmp_path / "exc.txt"
    sched.write_text("MACRO EXC\n")
    out = tmp_path / "state.csv"
    code, report = run_cli(
        capsys,
        "run",
        "--topology",
        str(topo_file),
        "--schedule",
        str(sched),
        "--initial-state",
        str(psi_file),
        "--phase",
        "FP",
        "--backend",
        "sparse",
        "--out",
        str(out),
    )
    assert code == 0 and report["closest_phase"] == "PF" and report["residual"] < 1e-10
    state = read_state_csv(out, 17)
    dec, phase, _ = decode_well_formed(state, load(topo_file))
    assert phase is PhaseLabel.PF
    expected = permute_logical(psi, permutation_after(1, PhaseLabel.FP, 4))
    fid, _ = compare_up_to_global_phase(expected, dec)
    assert fid >= 1 - 1e-10


def test_run_empty_schedule_echoes_input(tmp_path, capsys):
    topo_file = tmp_path / "topo.json"
    run_cli(capsys, "topology", "--n", "4", "--out", str(topo_file))
    sched = tmp_path / "empty.txt"
    sched.write_text("# nothing\n")
    out = tmp_path / "state.csv"
    code, _ = run_cli(
        capsys, "run", "--topology", str(topo_file), "--schedule", str(sched), "--out", str(out)
    )
    assert code == 0
    amp = to_dense(read_state_csv(out, 17)).amplitudes
    assert amp[0] == 1.0 and np.count_nonzero(amp) == 1


def test_compile_and_verify(tmp_path, capsys):
    circ = tmp_path / "circ.txt"
    circ.write_text("X q=3\nCNOT a=1 b=2\n")
    sched = tmp_path / "sched.txt"
    code, report = run_cli(
        capsys, "compile", "--circuit", str(circ), "--n", "4", "--out", str(sched)
    )
    assert code == 0 and report["pulse_count"] > 0
    text = sched.read_text()
    assert "# final_placement:" in text and "# pulses:" in text

    code, report = run_cli(
        capsys, "verify", "--circuit", str(circ), "--n", "4", "--seed", "3", "--trials", "2"
    )
    assert code == 0 and report["min_fidelity"] >= 1 - 1e-8

    # verifying the compiled file (placement read from the trailer)
    code, report = run_cli(
        capsys,
        "verify",
        "--circuit",
        str(circ),
        "--n",
        "4",
        "--schedule",
        str(sched),
        "--seed",
        "3",
        "--trials",
        "2",
    )
    assert code == 0 and report["min_fidelity"] >= 1 - 1e-8


def test_swap_only_circuit_compiles_to_no_pulses(tmp_path, capsys):
    circ = tmp_path / "circ.txt"
    circ.write_text("SWAP a=1 b=3\n")
    sched = tmp_path / "sched.txt"
    code, report = run_cli(
        capsys, "compile", "--circuit", str(circ), "--n", "4", "--out", str(sched)
    )
    assert code == 0 and report["pulse_count"] == 0
    assert report["final_placement"] == [3, 2, 1, 4]
    lines = sched.read_text().splitlines()
    assert "# pulses: 0" in lines and "# final_placement: 3,2,1,4" in lines

    for extra in ((), ("--schedule", str(sched))):
        code, report = run_cli(
            capsys, "verify", "--circuit", str(circ), "--n", "4", "--trials", "3", *extra
        )
        assert code == 0 and report["pulse_count"] == 0
        assert all(f == pytest.approx(1.0, abs=1e-12) for f in report["fidelities"])

    topo_file = tmp_path / "topo.json"
    run_cli(capsys, "topology", "--n", "4", "--out", str(topo_file))
    out = tmp_path / "state.csv"
    code, report = run_cli(
        capsys, "run", "--topology", str(topo_file), "--schedule", str(sched), "--out", str(out)
    )
    assert code == 0 and report["pulse_count"] == 0


def test_verify_flags_corrupted_schedule(tmp_path, capsys):
    circ = tmp_path / "circ.txt"
    circ.write_text("X q=1\n")
    sched = tmp_path / "sched.txt"
    run_cli(capsys, "compile", "--circuit", str(circ), "--n", "4", "--out", str(sched))
    lines = sched.read_text().splitlines()
    lines[lines.index("MACRO EXC")] = f"PULSE B_all theta={math.pi:.17g} axis=1,0,0"
    sched.write_text("\n".join(lines) + "\n")
    code, report = run_cli(
        capsys,
        "verify",
        "--circuit",
        str(circ),
        "--n",
        "4",
        "--schedule",
        str(sched),
        "--seed",
        "0",
        "--trials",
        "2",
    )
    assert code == 1 and report["status"] == "below_threshold"
    assert report["min_fidelity"] < 1 - 1e-8


@pytest.mark.parametrize("trailer", ["1,2,3,9", "1,2", "1,1,3,4", "0,2,3,4", "1,2,3,4,5"])
def test_verify_rejects_final_placement_that_is_not_a_permutation(tmp_path, capsys, trailer):
    circ = tmp_path / "circ.txt"
    circ.write_text("X q=1\nCNOT a=1 b=2\n")
    sched = tmp_path / "sched.txt"
    run_cli(capsys, "compile", "--circuit", str(circ), "--n", "4", "--out", str(sched))
    lines = [ln for ln in sched.read_text().splitlines() if not ln.startswith("# final_placement:")]
    sched.write_text("\n".join(lines + [f"# final_placement: {trailer}"]) + "\n")
    code, report = run_cli(
        capsys, "verify", "--circuit", str(circ), "--n", "4", "--schedule", str(sched), "--trials", "1"
    )
    assert code == 2 and report["status"] == "error"
    assert str(sched) in report["error"] and "final_placement" in report["error"]


def test_verify_rejects_repeated_schedule_trailer(tmp_path, capsys):
    # A second final_placement must not silently replace the compiled one.
    circ = tmp_path / "circ.txt"
    circ.write_text("X q=1\nSWAP a=1 b=2\n")
    sched = tmp_path / "sched.txt"
    run_cli(capsys, "compile", "--circuit", str(circ), "--n", "4", "--out", str(sched))
    assert "# final_placement: 2,1,3,4" in sched.read_text()
    with sched.open("a") as f:
        f.write("# final_placement: 1,2,3,4\n")
    code, report = run_cli(
        capsys, "verify", "--circuit", str(circ), "--n", "4", "--schedule", str(sched), "--trials", "1"
    )
    assert code == 2 and report["status"] == "error"
    assert "'final_placement' already given on line" in report["error"]


def test_verify_empty_circuit(tmp_path, capsys):
    circ = tmp_path / "empty.txt"
    circ.write_text("")
    code, report = run_cli(
        capsys, "verify", "--circuit", str(circ), "--n", "4", "--trials", "2"
    )
    assert code == 0 and report["min_fidelity"] >= 1 - 1e-12


def test_verify_seed_determinism(tmp_path, capsys):
    circ = tmp_path / "circ.txt"
    circ.write_text("H q=2\n")
    _, r1 = run_cli(capsys, "verify", "--circuit", str(circ), "--n", "4", "--seed", "9")
    _, r2 = run_cli(capsys, "verify", "--circuit", str(circ), "--n", "4", "--seed", "9")
    assert r1["fidelities"] == r2["fidelities"] and r1["seed"] == 9


def test_blockade_sweep_command(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, report = run_cli(
        capsys, "blockade-sweep", "--etas", "4,8", "--fragment", "two_neighbor", "--out", str(out)
    )
    assert code == 0 and report["rows"] == 2
    lines = out.read_text().splitlines()
    assert lines[0] == "eta,p_flip_gg,p_leak_ge,p_leak_ee"
    assert len(lines) == 3


@pytest.mark.parametrize("eta", ["inf", "nan"])
def test_blockade_sweep_rejects_non_finite_eta(tmp_path, capsys, eta):
    out = tmp_path / "sweep.csv"
    code, report = run_cli(capsys, "blockade-sweep", "--etas", f"4,{eta}", "--out", str(out))
    assert code == 2 and report["status"] == "error"
    assert "eta must be positive and finite" in report["error"]


def test_blockade_sweep_rejects_eta_past_integrator_accuracy(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, report = run_cli(capsys, "blockade-sweep", "--etas", "4,1e12", "--out", str(out))
    assert code == 2 and report["status"] == "error"
    assert report["error"].startswith("eta=1000000000000.0: ") and "not unitary" in report["error"]


def test_compile_names_the_bad_circuit_line(tmp_path, capsys):
    circuit = tmp_path / "c.txt"
    circuit.write_text("X q=1\nX q=abc\n")
    code, report = run_cli(
        capsys, "compile", "--circuit", str(circuit), "--n", "4", "--out", str(tmp_path / "s.txt")
    )
    assert code == 2 and report["status"] == "error" and report["error"].startswith("line 2: ")


def test_compile_names_the_gate_that_cannot_be_lowered(tmp_path, capsys):
    circuit = tmp_path / "c.txt"
    circuit.write_text("X q=1\nR q=1 theta=1 axis=1,1,0\n")
    code, report = run_cli(
        capsys, "compile", "--circuit", str(circuit), "--n", "4", "--out", str(tmp_path / "s.txt")
    )
    assert code == 2 and report["status"] == "error" and "gate 2 (R)" in report["error"]


def _traced_peak_mib(capsys, *argv):
    tracemalloc.start()
    try:
        code, report = run_cli(capsys, *argv)
        return code, report, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_dense_backend_at_n6_allocates_no_state_vector(tmp_path, capsys):
    # 25 sites: a 2^25 amplitude vector alone would be 512 MiB.
    circ = tmp_path / "circ.txt"
    circ.write_text("H q=1\nCNOT a=1 b=4\nTOFFOLI a=2 b=5 c=3\n")
    code, report, peak = _traced_peak_mib(
        capsys, "verify", "--circuit", str(circ), "--n", "6", "--trials", "1", "--backend", "dense"
    )
    assert code == 0 and report["min_fidelity"] >= 1 - 1e-8
    assert peak < 64, f"verify traced peak {peak:.1f} MiB"

    sched, topo_file, psi_file = tmp_path / "sched.txt", tmp_path / "topo.json", tmp_path / "psi.csv"
    run_cli(capsys, "compile", "--circuit", str(circ), "--n", "6", "--out", str(sched))
    run_cli(capsys, "topology", "--n", "6", "--out", str(topo_file))
    psi = random_logical_state(6, np.random.default_rng(6))
    psi_file.write_text("\n".join(state_csv_lines(to_sparse(PureState(6, psi.amplitudes), 0.0))) + "\n")
    code, report, peak = _traced_peak_mib(
        capsys, "run", "--topology", str(topo_file), "--schedule", str(sched), "--initial-state", str(psi_file),
        "--backend", "dense", "--out", str(tmp_path / "state.csv"),
    )
    assert code == 0 and report["residual"] < 1e-9
    assert peak < 64, f"run traced peak {peak:.1f} MiB"


def _run_on_topology_doc(tmp_path, capsys, doc):
    topo_file = tmp_path / "topo.json"
    topo_file.write_text(json.dumps(doc))
    sched = tmp_path / "init.txt"
    sched.write_text("MACRO INIT\n")
    return run_cli(
        capsys, "run", "--topology", str(topo_file), "--schedule", str(sched), "--out", str(tmp_path / "s.csv")
    )


def test_run_rejects_topology_with_missing_key(tmp_path, capsys):
    doc = to_json_dict(build_conveyor(4))
    del doc["edges"]
    code, report = _run_on_topology_doc(tmp_path, capsys, doc)
    assert code == 2 and report["status"] == "error" and "'edges'" in report["error"]


@pytest.mark.parametrize("n_logical", [6, 10**9])
def test_run_rejects_topology_whose_n_disagrees_with_its_sites(tmp_path, capsys, n_logical):
    doc = to_json_dict(build_conveyor(4))
    doc["n_logical"] = n_logical
    tracemalloc.start()
    try:
        code, report = _run_on_topology_doc(tmp_path, capsys, doc)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert code == 2 and report["status"] == "error" and "site count 17 != " in report["error"]
    assert peak < 16, f"run traced peak {peak:.1f} MiB"  # nothing sized by n_logical is built


def test_run_rejects_topology_with_edge_to_unknown_site(tmp_path, capsys):
    doc = to_json_dict(build_conveyor(4))
    doc["edges"].append([0, 99])
    code, report = _run_on_topology_doc(tmp_path, capsys, doc)
    assert code == 2 and report["status"] == "error" and "(0, 99)" in report["error"]


def test_run_rejects_variant_topology_below_eight_qubits(tmp_path, capsys):
    doc = to_json_dict(build_conveyor(4))
    doc["kind"] = "two_coupler_three_species"
    code, report = _run_on_topology_doc(tmp_path, capsys, doc)
    assert code == 2 and report["status"] == "error" and "site count 17 != 18" in report["error"]


def test_run_rejects_topology_whose_loop_is_reordered(tmp_path, capsys):
    # Q_2-5-Q_3-7-6-9: bipartite, every degree as built, yet not the device.
    doc = to_json_dict(build_conveyor(4))
    doc["edges"] = [e for e in doc["edges"] if e not in ([5, 6], [8, 9])] + [[5, 8], [6, 9]]
    code, report = _run_on_topology_doc(tmp_path, capsys, doc)
    assert code == 2 and report["status"] == "error"
    assert "edges [(5, 6), (5, 8), (6, 9), (8, 9)] differ from the baseline device" in report["error"]
    assert not (tmp_path / "s.csv").exists()


def test_out_of_memory_is_reported_as_invalid_input(tmp_path, capsys, monkeypatch):
    def exhausted(n_logical):
        raise MemoryError

    monkeypatch.setattr("conveyorqc.topology.build_conveyor", exhausted)
    code = main(["topology", "--n", "1000000", "--out", str(tmp_path / "t.json")])
    lines = capsys.readouterr().out.splitlines()
    assert code == 2 and len(lines) == 1
    assert json.loads(lines[0]) == {"command": "topology", "status": "error", "error": "out of memory"}


def test_dense_backend_holds_n8_device(tmp_path, capsys):
    # 33 sites: both backends store the support, never 2^33 amplitudes.
    topo_file = tmp_path / "topo8.json"
    run_cli(capsys, "topology", "--n", "8", "--out", str(topo_file))
    sched = tmp_path / "sched.txt"
    sched.write_text("MACRO INIT\nMACRO EXC\n")
    argv = ["run", "--topology", str(topo_file), "--schedule", str(sched), "--out", str(tmp_path / "s.csv")]
    for backend in ("dense", "sparse"):
        code, report, peak = _traced_peak_mib(capsys, *argv, "--backend", backend)
        assert code == 0 and report["closest_phase"] == "PF" and report["residual"] < 1e-12
        assert peak < 16, f"{backend} run traced peak {peak:.1f} MiB"

    circ = tmp_path / "circ.txt"
    circ.write_text("H q=1\nCNOT a=1 b=8\n")
    code, report, peak = _traced_peak_mib(capsys, "verify", "--circuit", str(circ), "--n", "8", "--trials", "1")
    assert code == 0 and report["backend"] == "dense" and report["min_fidelity"] >= 1 - 1e-8
    assert peak < 16, f"verify traced peak {peak:.1f} MiB"


@pytest.mark.parametrize(
    "command, n",
    [
        pytest.param("verify", 40, id="verify"),
        pytest.param("verify", 1000000, id="verify-1000000"),
        pytest.param("run", 40, id="run"),
    ],
)
def test_device_too_large_for_any_state_is_refused_before_allocating(tmp_path, capsys, command, n):
    # N=40 has 161 sites; its 2^40 logical vector alone would be 16 TiB.  At
    # N=1000000 even the device graph would take gigabytes.
    if command == "verify":
        circ = tmp_path / "empty.txt"
        circ.write_text("")
        argv = ["verify", "--circuit", str(circ), "--n", str(n), "--trials", "0"]
    else:
        topo_file, psi_file, sched = tmp_path / "topo40.json", tmp_path / "psi.csv", tmp_path / "exc.txt"
        run_cli(capsys, "topology", "--n", "40", "--out", str(topo_file))
        psi_file.write_text("index,real,imag\n0x0,1,0\n")
        sched.write_text("MACRO EXC\n")
        argv = ["run", "--topology", str(topo_file), "--schedule", str(sched), "--initial-state", str(psi_file),
                "--out", str(tmp_path / "s.csv")]
    code, report, peak = _traced_peak_mib(capsys, *argv, "--backend", "sparse")
    assert code == 2 and report["status"] == "error"
    assert f"{4 * n + 1} qubits exceed the limit of 63" in report["error"]
    assert peak < 16, f"{command} traced peak {peak:.1f} MiB"


def _run_on_initial_state(tmp_path, capsys, csv_text):
    topo_file = tmp_path / "topo.json"
    run_cli(capsys, "topology", "--n", "4", "--out", str(topo_file))
    psi_file = tmp_path / "psi.csv"
    psi_file.write_text(csv_text)
    sched = tmp_path / "exc.txt"
    sched.write_text("MACRO EXC\n")
    return run_cli(
        capsys,
        "run",
        "--topology",
        str(topo_file),
        "--schedule",
        str(sched),
        "--initial-state",
        str(psi_file),
        "--out",
        str(tmp_path / "state.csv"),
    )


def test_run_rejects_non_finite_initial_state(tmp_path, capsys):
    code, report = _run_on_initial_state(tmp_path, capsys, "index,real,imag\n0x0,nan,0\n")
    assert code == 2 and report["status"] == "error" and "psi.csv:2" in report["error"]


def test_run_rejects_repeated_initial_state_index(tmp_path, capsys):
    # The norm check alone passes these rows: the last 0x1 row would win.
    code, report = _run_on_initial_state(tmp_path, capsys, "0x0,0.6,0\n0x1,0.8,0\n0x1,0.8,0\n")
    assert code == 2 and report["status"] == "error"
    assert "psi.csv:3: index 0x1 already set on line 2" in report["error"]


@pytest.mark.parametrize(
    "flag, value, message",
    [("--tolerance", "nan", "tolerance"), ("--tolerance", "-1", "tolerance"), ("--trials", "-5", "trials")],
)
def test_verify_rejects_malformed_numbers(tmp_path, capsys, flag, value, message):
    circ = tmp_path / "circ.txt"
    circ.write_text("X q=1\n")
    code, report = run_cli(capsys, "verify", "--circuit", str(circ), "--n", "4", flag, value)
    assert code == 2 and report["status"] == "error" and message in report["error"]


@pytest.mark.parametrize(
    "argv, command",
    [
        pytest.param(["compile", "--n", "abc", "--circuit", "c.txt", "--out", "s.txt"], "compile", id="bad-int"),
        pytest.param(["verify", "--circuit", "c.txt", "--n", "4", "--trials", "1.5"], "verify", id="float-trials"),
        pytest.param([], None, id="no-command"),
        pytest.param(["transpile", "--n", "4"], None, id="unknown-command"),
        pytest.param(["compile", "--circuit", "c.txt", "--n", "4"], "compile", id="missing-out"),
    ],
)
def test_usage_error_prints_one_json_error_line(capsys, argv, command):
    code = main(argv)
    out = capsys.readouterr().out.splitlines()
    assert code == 2 and len(out) == 1
    report = json.loads(out[0])
    assert report["status"] == "error" and report["command"] == command


@pytest.mark.parametrize(
    "gate, message",
    [
        ("R q=1 theta=nan axis=1,0,0", "line 2: "),
        ("R q=1 theta=0.5 axis=2,0,0", "unit length"),
        ("R q=1 theta=0.5 axis=2,0,0", "gate 2 (R)"),
    ],
)
def test_verify_rejects_bad_rotation_gates(tmp_path, capsys, gate, message):
    circ = tmp_path / "circ.txt"
    circ.write_text(f"X q=1\n{gate}\n")
    sched = tmp_path / "sched.txt"
    sched.write_text("MACRO EXC\n")
    for extra in ((), ("--schedule", str(sched))):
        code, report = run_cli(capsys, "verify", "--circuit", str(circ), "--n", "4", "--trials", "1", *extra)
        assert code == 2 and report["status"] == "error" and message in report["error"]


@pytest.mark.parametrize("theta", ["10", "-10", "1000.5"])
def test_compile_and_verify_reduce_r_angles_outside_two_pi(tmp_path, capsys, theta):
    circ = tmp_path / "circ.txt"
    circ.write_text(f"X q=1\nR q=2 theta={theta} axis=1,0,0\nR q=3 theta={theta} axis=0,0.6,0.8\n")
    sched = tmp_path / "sched.txt"
    code, report = run_cli(capsys, "compile", "--circuit", str(circ), "--n", "4", "--out", str(sched))
    assert code == 0 and report["status"] == "ok"
    for argv in ((), ("--schedule", str(sched))):
        code, report = run_cli(
            capsys, "verify", "--circuit", str(circ), "--n", "4", "--seed", "5", "--trials", "3", *argv
        )
        assert code == 0 and report["min_fidelity"] >= 1 - 1e-8
