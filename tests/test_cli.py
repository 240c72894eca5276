"""End-to-end tests of the command line interface.

Everything goes through main(argv) so exit codes and the JSON written to
stdout are exercised exactly as a shell user would see them.
"""

import json

import numpy as np
import pytest

from usdsep import make_instance
from usdsep.cli import main
from usdsep.instance import instance_from_dict
from usdsep.serialize import matrix_to_pairs


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 0, err
    return json.loads(out), err


def test_version_flag(capsys):
    rc, out, _ = run_cli(capsys, "--version")
    assert rc == 0
    assert "usdsep" in out


def test_unknown_command_is_input_error(capsys):
    rc, _, _ = run_cli(capsys, "frobnicate")
    assert rc == 2


def test_generate_stdout(capsys):
    payload, err = run_json(capsys, "generate", "--n", "5")
    assert payload["n"] == 5
    assert payload["dims"] == [2, 2]
    assert payload["omit"] == 1
    assert len(payload["states"]) == 5
    assert payload["manifest"]["command"] == "generate"
    assert "completeness residual" in err


def test_generate_to_file_round_trips(tmp_path, capsys):
    path = tmp_path / "inst.json"
    rc, out, _ = run_cli(capsys, "generate", "--n", "5", "--out", str(path))
    assert rc == 0
    assert "completeness residual" in out  # the one-liner moves to stdout
    stored = json.loads(path.read_text())
    inst = instance_from_dict(stored)
    ref = make_instance(5)
    assert np.allclose(inst.states, ref.states, atol=1e-15)

    # Regenerating writes a byte-identical states block (floats use a fixed
    # round-trip format); only the manifest timestamp may differ.
    path2 = tmp_path / "inst2.json"
    run_cli(capsys, "generate", "--n", "5", "--out", str(path2))
    stored2 = json.loads(path2.read_text())
    assert stored["states"] == stored2["states"]


def test_generate_rejects_nonprime(capsys):
    rc, _, err = run_cli(capsys, "generate", "--n", "6")
    assert rc == 2
    assert "error:" in err


def test_generate_requires_n(capsys):
    rc, _, _ = run_cli(capsys, "generate")
    assert rc == 2


def test_optimize_default(capsys):
    payload, _ = run_json(capsys, "optimize", "--n", "5")
    assert abs(payload["failure_probability"] - 0.5) <= 1e-12
    assert payload["weights"] == [0.8, 0.8, 0.8, 0.8]
    assert np.allclose(payload["q_values"], 0.625, atol=1e-12)
    assert payload["optimal"] is True
    assert payload["psd_min_eigenvalue"] >= -1e-10
    assert payload["manifest"]["command"] == "optimize"


def test_optimize_with_weights(capsys):
    payload, _ = run_json(
        capsys, "optimize", "--n", "5", "--weights", "0.5,0.5,0.5,0.5"
    )
    assert abs(payload["failure_probability"] - 11.0 / 16.0) <= 1e-12
    assert payload["optimal"] is False


def test_optimize_infeasible_weights(capsys):
    rc, _, err = run_cli(
        capsys, "optimize", "--n", "5", "--weights", "0.9,0.9,0.9,0.9"
    )
    assert rc == 2
    assert "error:" in err


def test_optimize_from_instance_file(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run_cli(capsys, "generate", "--n", "7", "--out", str(path))
    payload, _ = run_json(capsys, "optimize", "--instance", str(path))
    assert abs(payload["failure_probability"] - 0.5) <= 1e-12
    assert payload["manifest"]["parameters"]["n"] == 7


def test_optimize_bad_instance_files(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    rc, _, _ = run_cli(capsys, "optimize", "--instance", str(missing))
    assert rc == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{ not json")
    rc, _, _ = run_cli(capsys, "optimize", "--instance", str(garbled))
    assert rc == 2


def test_optimize_requires_a_source(capsys):
    rc, _, err = run_cli(capsys, "optimize")
    assert rc == 2
    assert "provide --instance" in err


def test_certify_family(capsys):
    payload, err = run_json(capsys, "certify", "--n", "5")
    assert "verdict: VIOLATES" in err
    assert payload["total"] == 10
    assert payload["bound"] == 8
    assert payload["verdict"] == "VIOLATES"
    assert len(payload["parties"]) == 2
    assert payload["manifest"]["parameters"]["copies"] == 1


def test_certify_records_the_tol_it_used(capsys):
    payload, _ = run_json(capsys, "certify", "--n", "5")
    assert payload["manifest"]["parameters"]["tol"] == 1e-8
    payload, _ = run_json(capsys, "certify", "--n", "5", "--tol", "1e-6")
    assert payload["manifest"]["parameters"]["tol"] == 1e-6
    assert payload["verdict"] == "VIOLATES"


@pytest.mark.parametrize("command", ["optimize", "certify", "simulate"])
@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_nonpositive_tol_is_input_error(capsys, command, tol):
    rc, out, err = run_cli(capsys, command, "--n", "5", "--tol", tol)
    assert rc == 2
    assert out == ""
    assert "--tol" in err


def test_certify_two_copies(capsys):
    payload, _ = run_json(capsys, "certify", "--n", "5", "--copies", "2")
    assert payload["total"] == 50
    assert payload["bound"] == 48
    assert payload["verdict"] == "VIOLATES"


def test_certify_measurement_file(tmp_path, capsys):
    e0 = np.diag([1.0, 0.0]).astype(complex)
    e1 = np.diag([0.0, 1.0]).astype(complex)
    eye = np.eye(2, dtype=complex)
    entries = [[e0, eye], [e1, eye]]
    path = tmp_path / "meas.json"
    path.write_text(
        json.dumps([[matrix_to_pairs(f) for f in entry] for entry in entries])
    )
    payload, err = run_json(capsys, "certify", "--measurement", str(path))
    assert payload["verdict"] == "SATISFIES"
    assert "verdict: SATISFIES" in err


def test_certify_measurement_file_must_be_a_list(tmp_path, capsys):
    path = tmp_path / "meas.json"
    path.write_text(json.dumps({"ops": []}))
    rc, _, _ = run_cli(capsys, "certify", "--measurement", str(path))
    assert rc == 2


def test_simulate_default(capsys):
    payload, _ = run_json(
        capsys, "simulate", "--n", "5", "--trials", "2000", "--seed", "7"
    )
    assert payload["misidentifications"] == 0
    assert abs(payload["theoretical_failure"] - 0.5) <= 1e-12
    assert set(payload["counts"]) == {"2", "3", "4", "5", "fail"}
    assert sum(payload["counts"].values()) == 2000
    assert payload["manifest"]["seed"] == 7

    again, _ = run_json(
        capsys, "simulate", "--n", "5", "--trials", "2000", "--seed", "7"
    )
    payload.pop("manifest")
    again.pop("manifest")
    assert payload == again


def test_simulate_two_copies(capsys):
    payload, _ = run_json(
        capsys,
        "simulate",
        "--n",
        "5",
        "--copies",
        "2",
        "--trials",
        "2000",
        "--seed",
        "1",
    )
    assert abs(payload["theoretical_failure"] - 0.25) <= 1e-12
    assert payload["misidentifications"] == 0
    assert payload["copies"] == 2


def test_simulate_weights(capsys):
    payload, _ = run_json(
        capsys,
        "simulate",
        "--n",
        "5",
        "--weights",
        "0.5,0.5,0.5,0.5",
        "--trials",
        "2000",
        "--seed",
        "2",
    )
    assert abs(payload["theoretical_failure"] - 11.0 / 16.0) <= 1e-12


def test_simulate_rejects_weights_with_copies(capsys):
    rc, _, err = run_cli(
        capsys,
        "simulate",
        "--n",
        "5",
        "--copies",
        "2",
        "--weights",
        "0.5,0.5,0.5,0.5",
    )
    assert rc == 2
    assert "single-copy" in err


def test_simulate_writes_file(tmp_path, capsys):
    path = tmp_path / "sim.json"
    rc, out, _ = run_cli(
        capsys,
        "simulate",
        "--n",
        "5",
        "--trials",
        "500",
        "--seed",
        "3",
        "--out",
        str(path),
    )
    assert rc == 0
    assert out == ""
    payload = json.loads(path.read_text())
    assert sum(payload["counts"].values()) == 500


def test_verify_passes(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--n", "5")
    assert rc == 0
    assert "PASS" in out
    assert "FAIL" not in out
    assert "all checks passed" in out
    assert "closed-form states" in out


def test_verify_rejects_empty(capsys):
    rc, _, _ = run_cli(capsys, "verify", "--n", ",")
    assert rc == 2
