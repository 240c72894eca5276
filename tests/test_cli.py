"""End-to-end tests of the command line interface.

Everything goes through main(argv) so exit codes and the JSON written to
stdout are exercised exactly as a shell user would see them.
"""

import contextlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import usdsep.cli
import usdsep.cone
import usdsep.instance
import usdsep.numerics
import usdsep.usd
from usdsep import (
    SimReport,
    ascending_factorizations,
    certify,
    complement_decomposition,
    family_product_ops,
    is_prime,
    make_instance,
)
from usdsep.cli import build_parser, main
from usdsep.instance import instance_from_dict
from usdsep.serialize import dumps


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_measurement(path, entries):
    """A measurement file: per outcome, its factors as rows of [re, im] pairs."""
    path.write_text(
        json.dumps([[np.stack([f.real, f.imag], -1).tolist() for f in entry] for entry in entries])
    )


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
    assert set(payload) == {"n", "dims", "omit", "manifest"}
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

    # Regenerating writes the same file; only the manifest timestamp may differ.
    path2 = tmp_path / "inst2.json"
    run_cli(capsys, "generate", "--n", "5", "--out", str(path2))
    stored2 = json.loads(path2.read_text())
    del stored["manifest"]["timestamp"], stored2["manifest"]["timestamp"]
    assert stored == stored2


@pytest.mark.parametrize("n", ["311", "401"])
def test_generate_past_the_old_onset(tmp_path, capsys, n):
    # These sizes once ended in a false InvariantError (exit 3).
    path = tmp_path / "inst.json"
    rc, _, _ = run_cli(capsys, "generate", "--n", n, "--out", str(path))
    assert rc == 0
    inst = instance_from_dict(json.loads(path.read_text()))
    assert inst.states.shape == (int(n), int(n) - 1)


def test_generate_writes_parameters_not_amplitudes(tmp_path, capsys):
    path = tmp_path / "inst.json"
    rc, _, _ = run_cli(capsys, "generate", "--n", "401", "--out", str(path))
    assert rc == 0
    assert path.stat().st_size < 1024


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
    # The Born average reads the one overlap array for both cells; its bits are pinned.
    payload, _ = run_json(capsys, "optimize", "--n", "199", "--dims", "2,99", "--omit", "5")
    assert payload["failure_probability"] == 0.49999999999999994


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
    for weights in ("0.8,0.8,0.8,nan", "inf,0,0,0"):
        rc, _, err = run_cli(capsys, "optimize", "--n", "5", "--weights", weights)
        assert rc == 2
        assert "weights must be finite" in err


def test_subnormal_weights_optimize_without_a_warning(capsys):
    # The secular root's slope overflows at these weights, and 5e-324's
    # coefficient underflows to 0; the suite turns any RuntimeWarning into
    # an error, so a clean run shows none was raised.
    for weights in ("1e-320,0,0,0", "1e-320,5e-324,0,0"):
        payload, err = run_json(capsys, "optimize", "--n", "5", "--weights", weights)
        assert err == ""
        assert payload["psd_min_eigenvalue"] == 1.0


def test_weights_far_past_the_pair_cap_end_without_a_rounding_defect(capsys):
    # Rounding in the Born traces grows with the weights; at
    # weights near 1e6 it is no defect of the program, so no exit 3.
    weights = ",".join(["1e6"] * 6 + ["3e5"] * 6)
    payload, _ = run_json(capsys, "optimize", "--n", "13", "--weights", weights, "--tol", "1e8")
    assert payload["failure_probability"] < 0.0  # far from a measurement, as asked
    assert payload["manifest"]["parameters"]["tol"] == 1e8


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
    overflow = tmp_path / "overflow.json"
    overflow.write_text('{"n": 1e400, "dims": [2, 2], "omit": 1}')
    rc, _, err = run_cli(capsys, "optimize", "--instance", str(overflow))
    assert rc == 2
    assert "malformed instance payload" in err


@pytest.mark.parametrize("command, option", [("certify", "--measurement"), ("optimize", "--instance")])
def test_deeply_nested_json_is_an_input_error(tmp_path, capsys, command, option):
    # json.load recurses once per level, so 100000 levels exhaust the stack.
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    rc, out, err = run_cli(capsys, command, option, str(path))
    assert (rc, out) == (2, "")
    assert err == f"error: {path}: JSON nested too deeply\n"


def test_optimize_refuses_an_instance_file_that_is_not_an_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[5]")
    rc, out, err = run_cli(capsys, "optimize", "--instance", str(path))
    assert (rc, out, err) == (2, "", "error: instance payload must be a JSON object\n")


def test_optimize_refuses_an_instance_file_with_states(tmp_path, capsys):
    # Earlier versions wrote the amplitudes too; such a file is refused
    # with a request for a fresh one, which then reads as before.
    path = tmp_path / "inst.json"
    states = [[[0.5, 0.0]] * 4] * 5
    path.write_text(json.dumps({"n": 5, "dims": [2, 2], "omit": 1, "states": states}))
    rc, out, err = run_cli(capsys, "optimize", "--instance", str(path))
    assert (rc, out) == (2, "")
    assert err == (
        "error: instance payload holds 'states', as files of earlier versions do; "
        "write a fresh file with usdsep generate\n"
    )
    run_cli(capsys, "generate", "--n", "5", "--out", str(path))
    payload, _ = run_json(capsys, "optimize", "--instance", str(path))
    assert payload["failure_probability"] == 0.5


def test_an_instance_file_past_the_size_bound_is_refused_unparsed(tmp_path, capsys, monkeypatch):
    # A fresh generate file is under 1 KiB.  A file of MAX_INSTANCE_BYTES
    # bytes still reads; one more byte is refused before json.load runs.
    limit = usdsep.cli.MAX_INSTANCE_BYTES
    path = tmp_path / "inst.json"
    text = json.dumps({"n": 5, "dims": [2, 2], "omit": 1})
    path.write_text(text + " " * (limit - len(text)))
    payload, _ = run_json(capsys, "optimize", "--instance", str(path))
    assert payload["failure_probability"] == 0.5

    def refuse(*args, **kwargs):
        raise AssertionError("the instance file was parsed")

    monkeypatch.setattr(json, "load", refuse)
    monkeypatch.setattr(json, "loads", refuse)
    path.write_text(text + " " * (limit + 1 - len(text)))
    for command in ("optimize", "certify", "simulate"):
        rc, out, err = run_cli(capsys, command, "--instance", str(path))
        assert (rc, out) == (2, "")
        assert err == (
            f"error: {path}: instance file over {limit} bytes, more than its parameters; "
            "write a fresh file with usdsep generate\n"
        )


def test_an_instance_piped_past_the_size_bound_is_refused():
    # A pipe reports no size, so the bound is on the bytes read: a 3 MiB
    # payload through stdin exits 2, and a small valid one still reads.
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    limit = usdsep.cli.MAX_INSTANCE_BYTES
    small = json.dumps({"n": 5, "dims": [2, 2], "omit": 1})
    big = json.dumps({"n": 5, "dims": [2, 2], "omit": 1, "pad": "x" * 3 * 2**20})
    runs = {}
    for name, payload in (("big", big), ("small", small)):
        runs[name] = subprocess.run(
            [sys.executable, "-m", "usdsep.cli", "optimize", "--instance", "/dev/stdin"],
            input=payload,
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=60,
        )
    assert (runs["big"].returncode, runs["big"].stdout) == (2, "")
    assert runs["big"].stderr.startswith(f"error: /dev/stdin: instance file over {limit} bytes")
    assert runs["small"].returncode == 0, runs["small"].stderr
    assert json.loads(runs["small"].stdout)["failure_probability"] == 0.5


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


def test_certify_reports_witness_and_nnls_solves(capsys):
    payload, _ = run_json(capsys, "certify", "--n", "5")
    for party in payload["parties"]:
        assert list(party) == [
            "party", "generators", "rays", "extreme", "skipped", "nnls_solves", "min_witness_bound"
        ]
        # The witness decides every class; at N = 5 its bound equals the
        # NNLS residual, 0.4668.
        assert party["nnls_solves"] == 0
        assert abs(party["min_witness_bound"] - 0.466818288227) < 1e-9


def test_certify_prints_the_witness_bound_to_12_decimals(capsys):
    # The report keeps the full double; the JSON rounds it to the 12th
    # decimal, over 1000 times the 3e-16 a 1-ulp input change moves it.
    for n, dims in ((13, None), (29, (4, 7))):
        argv = ["--n", str(n)] + (["--dims", "4,7"] if dims else [])
        rc, out, err = run_cli(capsys, "certify", *argv)
        assert rc == 0, err
        printed = re.findall(r'"min_witness_bound": ([0-9.e-]+)', out)
        report = certify(family_product_ops(make_instance(n, dims)))
        assert len(printed) == len(report.parties)
        for text, stat in zip(printed, report.parties):
            assert float(text) == round(stat.min_witness_bound, 12) != stat.min_witness_bound
            assert len(text.split(".")[1]) <= 12


def test_certify_records_the_tol_it_used(capsys):
    payload, _ = run_json(capsys, "certify", "--n", "5")
    assert payload["manifest"]["parameters"]["tol"] == 1e-8
    payload, _ = run_json(capsys, "certify", "--n", "5", "--tol", "1e-6")
    assert payload["manifest"]["parameters"]["tol"] == 1e-6
    assert payload["verdict"] == "VIOLATES"


@pytest.mark.parametrize("tol", ["1e100", "1e300", "1.7976931348623157e308"])
def test_certify_takes_any_finite_tol(capsys, tol):
    # A tol whose square overflows screens like any tol past 2: every
    # factor of a party is one ray class.
    payload, _ = run_json(capsys, "certify", "--n", "5", "--tol", tol)
    assert payload["verdict"] == "SATISFIES"
    assert [p["rays"] for p in payload["parties"]] == [1, 1]


@pytest.mark.parametrize("command", ["optimize", "certify", "simulate"])
@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_nonpositive_tol_is_input_error(capsys, command, tol):
    rc, out, err = run_cli(capsys, command, "--n", "5", "--tol", tol)
    assert rc == 2
    assert out == ""
    assert "--tol" in err


def test_signed_weights_value_is_read_as_the_option_value(capsys):
    # A value that starts with "-" and a digit is the option's value, as
    # in the "=" form, not another option: -0 is a valid weight.
    def stdout(*weights):
        rc, out, err = run_cli(capsys, "optimize", "--n", "5", *weights)
        assert rc == 0, err
        return re.sub(r'"timestamp": "[^"]*"', "", out)

    assert stdout("--weights", "-0,0.8,0.8,0.8") == stdout("--weights=-0,0.8,0.8,0.8")
    # An abbreviation argparse resolves to --weights reads its value the same way.
    for name in ("--weight", "--we", "--w"):
        assert stdout(name, "-0,0.8,0.8,0.8") == stdout("--weights", "-0,0.8,0.8,0.8")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["certify", "--to", "-1e-3"], "--tol must be positive and finite"),
        (["optimize", "--we", "-0.1,0.8,0.8,0.8"], "weights must be nonnegative"),
        # --t names both --tol and --trials of simulate: argparse refuses it.
        (["simulate", "--t", "-1"], "ambiguous option"),
        (["simulate", "--t", "-1e-3"], "ambiguous option"),
    ],
)
def test_signed_values_after_abbreviations(capsys, argv, message):
    rc, out, err = run_cli(capsys, argv[0], "--n", "5", *argv[1:])
    assert rc == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["optimize", "--weights", "-0.1,0.8,0.8,0.8"], "weights must be nonnegative"),
        (["certify", "--tol", "-1e-3"], "--tol must be positive and finite"),
    ],
    ids=["weights", "tol"],
)
def test_signed_values_reach_the_program_checks(capsys, argv, message):
    rc, out, err = run_cli(capsys, argv[0], "--n", "5", *argv[1:])
    assert rc == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv", [["optimize"], ["simulate"], ["simulate", "--copies", "2"]]
)
def test_tol_without_weights_is_input_error(capsys, argv):
    rc, out, err = run_cli(capsys, *argv, "--n", "5", "--tol", "0.5")
    assert rc == 2
    assert out == ""
    assert "--tol" in err


@pytest.mark.parametrize("argv", [["optimize"], ["simulate", "--trials", "100"]])
def test_weights_runs_record_the_tol_they_used(capsys, argv):
    argv = [*argv, "--n", "5", "--weights", "0.5,0.5,0.5,0.5"]
    payload, _ = run_json(capsys, *argv, "--tol", "1e-6")
    assert payload["manifest"]["parameters"]["tol"] == 1e-6
    payload, _ = run_json(capsys, *argv)
    assert "tol" not in payload["manifest"]["parameters"]


@pytest.mark.parametrize("command, copies", [("certify", "5")], ids=["certify"])
def test_copies_past_the_size_limit_is_input_error(capsys, monkeypatch, command, copies):
    # certify admits each party's pass from the family's shape before the
    # factors are built: 5 copies at N = 5 give 3125 factors of dimension 32
    # per party, whose pass needs about 167 MiB (the factors alone 105 MiB),
    # so with 100 MiB left nothing is built.  simulate builds no factors and
    # has no copy limit (test_simulate_any_copy_count).
    monkeypatch.setattr(usdsep.numerics, "_memory_limit", lambda: (100 * 2**20, "MemAvailable"))
    tracemalloc.start()
    try:
        rc, out, err = run_cli(capsys, command, "--n", "5", "--copies", copies)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rc, out) == (2, "")
    assert err == (
        "error: the certify pass of party 0 (3125 factors of dimension 32) needs about 167 MiB "
        "for its arrays, over the 100 MiB of MemAvailable\n"
    )
    assert peak < 1 << 20, peak


def test_a_family_of_too_many_copies_is_refused_by_its_copy_count(capsys, monkeypatch):
    # N^n overflows at 10^9 copies, so no pass is admitted from it: the
    # family's own estimate refuses it, naming the copy count.
    monkeypatch.setattr(usdsep.numerics, "_memory_limit", lambda: (100 * 2**20, "MemAvailable"))
    rc, out, err = run_cli(capsys, "certify", "--n", "5", "--copies", "1000000000")
    assert (rc, out) == (2, "")
    assert err == (
        "error: the 1000000000-copy family of N = 5 needs about inf MiB for its factors, "
        "over the 100 MiB of MemAvailable\n"
    )


def test_a_family_whose_pass_estimate_overflows_is_refused_by_its_copy_count(capsys, monkeypatch):
    # 5^300 is finite, but its pass estimate is not: one line names the copy
    # count, with no overflow warning and no 210-digit factor count.
    monkeypatch.setattr(usdsep.numerics, "_memory_limit", lambda: (100 * 2**20, "MemAvailable"))
    rc, out, err = run_cli(capsys, "certify", "--n", "5", "--copies", "300")
    assert (rc, out) == (2, "")
    assert err == (
        "error: the 300-copy family of N = 5 needs about inf MiB for its factors, "
        "over the 100 MiB of MemAvailable\n"
    )


def test_certify_two_copies(capsys):
    payload, _ = run_json(capsys, "certify", "--n", "5", "--copies", "2")
    assert payload["total"] == 50
    assert payload["bound"] == 48
    assert payload["verdict"] == "VIOLATES"


def test_certify_measurement_file(tmp_path, capsys):
    e0 = np.diag([1.0, 0.0]).astype(complex)
    e1 = np.diag([0.0, 1.0]).astype(complex)
    eye = np.eye(2, dtype=complex)
    path = tmp_path / "meas.json"
    write_measurement(path, [[e0, eye], [e1, eye]])
    payload, err = run_json(capsys, "certify", "--measurement", str(path))
    assert payload["verdict"] == "SATISFIES"
    # The idle party's lone class needs neither a witness nor NNLS.
    assert payload["parties"][1]["nnls_solves"] == 0
    assert payload["parties"][1]["min_witness_bound"] is None
    assert "verdict: SATISFIES" in err


def test_a_measurement_file_past_the_memory_left_is_refused_unparsed(tmp_path, capsys, monkeypatch):
    # A measurement file is admitted while PARSE_BYTES_PER_BYTE times its
    # size fits the memory left; one byte less of memory refuses it before
    # json.load runs.
    path = tmp_path / "meas.json"
    write_measurement(path, family_product_ops(make_instance(5)))
    size = path.stat().st_size
    need = usdsep.cli.PARSE_BYTES_PER_BYTE * size
    monkeypatch.setattr(usdsep.numerics, "_ADMIT_FLOOR", 0)  # a file this small needs no query
    monkeypatch.setattr(usdsep.numerics, "_memory_limit", lambda: (need, "MemAvailable"))
    payload, _ = run_json(capsys, "certify", "--measurement", str(path))
    assert payload["verdict"] == "VIOLATES"

    def refuse(*args, **kwargs):
        raise AssertionError("the measurement file was parsed")

    monkeypatch.setattr(json, "load", refuse)
    monkeypatch.setattr(usdsep.numerics, "_memory_limit", lambda: (need - 1, "the soft RLIMIT_AS"))
    rc, out, err = run_cli(capsys, "certify", "--measurement", str(path))
    assert (rc, out) == (2, "")
    assert err == (
        f"error: {path}: its {size} bytes need about {need / 2**20:.0f} MiB to parse, "
        f"over the {(need - 1) / 2**20:.0f} MiB of the soft RLIMIT_AS\n"
    )


def test_the_parse_bound_holds_for_the_densest_measurement_file(tmp_path):
    # One-digit [re, im] pairs without spaces make the most Python objects
    # per byte of any well-formed measurement file; a family's
    # full-precision floats make about a quarter as many.  A malformed file
    # is parsed before it is refused: one-element lists nested 100 deep
    # make the most of any JSON text, about 44 bytes per byte, and [0]
    # entries about 24.
    pair = "[1,0]"
    matrix = "[" + ",".join(["[" + ",".join([pair] * 8) + "]"] * 8) + "]"
    texts = {
        "dense": "[" + ",".join([f"[{matrix},{matrix}]"] * 400) + "]",
        "nested": "[" + ",".join(["[" * 100 + "0" + "]" * 100] * 1500) + "]",
        "zeros": "[" + ",".join(["[0]"] * 75_000) + "]",
    }
    paths = {"family": tmp_path / "family.json"}
    write_measurement(paths["family"], family_product_ops(make_instance(101)))
    for name, text in texts.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(text)
    ratios = {}
    for name, path in paths.items():
        tracemalloc.start()
        try:
            usdsep.cli._load_json(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ratios[name] = peak / path.stat().st_size
    assert ratios["family"] < ratios["dense"] < ratios["zeros"] < ratios["nested"], ratios
    assert ratios["nested"] > 40.0, ratios
    assert max(ratios.values()) <= usdsep.cli.PARSE_BYTES_PER_BYTE, ratios


def test_certify_measurement_file_must_be_a_list(tmp_path, capsys):
    path = tmp_path / "meas.json"
    # Not a list; then a pair array one nesting level short, which must be
    # an input error rather than an uncaught TypeError; then an [re, im, x]
    # triple, a ragged row and string entries; then NaN and Infinity, which
    # json writes and reads back although they are not JSON.
    for payload in (
        {"ops": []},
        [[[[1, 0]]]],
        [[[[[1, 0, 0]]]]],
        [[[[[1, 0], [0, 0]], [[0, 0]]]]],
        [[[[["1", "0"]]]]],
        [[[[[float("nan"), 0]]], [[[1, 0]]]], [[[[1, 0]]], [[[1, 0]]]]],
        [[[[[float("inf"), 0]]], [[[1, 0]]]], [[[[1, 0]]], [[[1, 0]]]]],
    ):
        path.write_text(json.dumps(payload))
        rc, _, _ = run_cli(capsys, "certify", "--measurement", str(path))
        assert rc == 2
    # One product operator with no factor at all.
    path.write_text("[[]]")
    rc, out, err = run_cli(capsys, "certify", "--measurement", str(path))
    assert (rc, out, err) == (2, "", "error: product operators need at least one factor\n")


def test_certify_measurement_file_refuses_json_booleans(tmp_path, capsys):
    # np.asarray reads a bool beside a number as 1 or 0: [true, 0] would be
    # certified as the matrix [[1]], and [true, 0.5] fail as not Hermitian.
    path = tmp_path / "meas.json"
    for text in ("[[[[[true,0]]]]]", "[[[[[true,0.5]]]]]", "[[[[[1,0]]],[[[0,false]]]]]"):
        path.write_text(text)
        rc, out, err = run_cli(capsys, "certify", "--measurement", str(path))
        assert (rc, out) == (2, "")
        assert err == (
            "error: malformed product operator array: "
            "[re, im] pairs must be numbers, not true or false\n"
        )
    # The integers 1 and 0, which equal true and false, still read as numbers.
    path.write_text("[[[[[1,0]]]]]")
    payload, _ = run_json(capsys, "certify", "--measurement", str(path))
    assert payload["verdict"] == "SATISFIES"


def test_certify_measurement_file_with_overflowing_norms(tmp_path, capsys):
    # Finite entries whose squared norms overflow are an input error, for
    # rank-1 and full-rank factors alike.
    path = tmp_path / "meas.json"
    e0, e1 = np.diag([1e160, 0.0]), np.diag([0.0, 1e160])
    for first, second in ((e0, e1), (e0 + 0.5 * e1, e1 + 0.5 * e0)):
        write_measurement(path, [[first, np.eye(2)], [second, np.eye(2)]])
        rc, _, err = run_cli(capsys, "certify", "--measurement", str(path))
        assert rc == 2
        assert "overflows" in err


@pytest.mark.parametrize(
    "scale, message",
    [
        (1e-160, "operator entries too small: a squared Frobenius norm underflows"),
        (0.0, "zero operator has no ray"),
    ],
)
def test_certify_measurement_file_with_underflowing_norms(tmp_path, capsys, scale, message):
    # A nonzero factor whose squared norm underflows is refused as too small,
    # not as zero and not as a ray of its own; an exact zero stays a zero operator.
    path = tmp_path / "meas.json"
    write_measurement(path, [[scale * np.eye(2), np.eye(2)], [np.eye(2), np.eye(2)]])
    rc, out, err = run_cli(capsys, "certify", "--measurement", str(path))
    assert rc == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "scales",
    [(1e6, 1e6, 1e6), (1e6, 1e-6, 1.0), (1e-15, 1e-15, 1e-15)],
    ids=["x1e6", "split", "x1e-15"],
)
def test_certify_measurement_file_at_any_scale(tmp_path, capsys, scales):
    # A factor's scale names no new ray: a rescaled file of the N = 13
    # family (three parties) gives the unscaled report, and one indefinite
    # factor is refused at every scale.
    path = tmp_path / "meas.json"
    entries = [list(entry) for entry in family_product_ops(make_instance(13))]
    reports = []
    for c in ((1.0, 1.0, 1.0), scales):
        write_measurement(path, [[s * f for s, f in zip(c, entry)] for entry in entries])
        rc, out, err = run_cli(capsys, "certify", "--measurement", str(path))
        assert rc == 0, err
        reports.append(_without_timestamp(out))
    assert reports[1] == reports[0]
    entries[4][1] = entries[4][1] - 1e-6 * np.eye(2)
    for c in ((1.0, 1.0, 1.0), scales):
        write_measurement(path, [[s * f for s, f in zip(c, entry)] for entry in entries])
        rc, _, err = run_cli(capsys, "certify", "--measurement", str(path))
        assert rc == 2 and "positive semidefinite" in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["optimize", "--instance", "{inst}", "--n", "7"], ["--instance", "--n"]),
        (["optimize", "--instance", "{inst}", "--dims", "2,3"], ["--dims"]),
        (["simulate", "--instance", "{inst}", "--omit", "4"], ["--omit"]),
        (["certify", "--measurement", "{meas}", "--n", "7"], ["--n", "--measurement"]),
        (["certify", "--measurement", "{meas}", "--instance", "{inst}"], ["--instance"]),
        (["certify", "--measurement", "{meas}", "--copies", "3"], ["--copies"]),
        (["certify", "--measurement", "{meas}", "--omit", "2"], ["--omit"]),
        (["certify", "--dims", "2,2"], ["--dims"]),
    ],
)
def test_one_family_source_per_run(tmp_path, capsys, argv, named):
    inst, meas = tmp_path / "five.json", tmp_path / "meas.json"
    run_cli(capsys, "generate", "--n", "5", "--out", str(inst))
    eye = np.stack([np.eye(2), np.zeros((2, 2))], -1).tolist()
    meas.write_text(json.dumps([[eye, eye]]))
    argv = [a.format(inst=inst, meas=meas) for a in argv]
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert all(flag in err for flag in named)


def test_out_of_memory_is_an_input_error(capsys, monkeypatch):
    def too_big(*args):
        raise MemoryError("Unable to allocate 1.21 TiB for an array")

    monkeypatch.setattr("usdsep.cli.make_instance", too_big)
    rc, out, err = run_cli(capsys, "optimize", "--n", "1000003")
    assert rc == 2
    assert out == ""
    assert "error: Unable to allocate 1.21 TiB" in err


# The Mersenne prime 2^61 - 1: trial division to its square root would run
# for minutes, and its (N, N - 1) state matrix cannot even be sized.
HUGE_PRIME = 2**61 - 1
# Prints the peak resident set size in MiB of the run's own address space
# (VmHWM, in KiB).  ru_maxrss would not do: Linux carries the forking
# process's peak, here the test runner's, across exec into the child's.
PEAK_RSS_MAIN = (
    "import sys\n"
    "from usdsep.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "status = open('/proc/self/status').read()\n"
    "print(int(status.split('VmHWM:')[1].split()[0]) / 1024)\n"
    "sys.exit(code)\n"
)


@pytest.mark.parametrize("route", ["generate", "optimize --instance"])
def test_huge_prime_is_refused_at_once(tmp_path, route):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": HUGE_PRIME, "dims": [2], "omit": 1}))
    if route == "generate":
        argv = ["generate", "--n", str(HUGE_PRIME)]
    else:
        argv = ["optimize", "--instance", str(path)]
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_MAIN, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert time.monotonic() - start < 2.0
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    if route == "generate":
        assert f"n = {HUGE_PRIME} is too large" in proc.stderr
    assert float(proc.stdout) < 200.0  # interpreter and numpy only; no family was built


def test_family_whose_reads_pass_int64_is_an_input_error(capsys):
    # A read's index j e is below N^2; the least prime with N^2 >= 2^63 is
    # refused before its tables are allocated.
    rc, out, err = run_cli(capsys, "generate", "--n", "3037000507")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: n = 3037000507 is too large for its tables")


def test_a_table_past_the_memory_left_is_refused_before_any_allocation(capsys, monkeypatch):
    # The build at N = 1000003 peaks near 123 MB (the padded fft route);
    # with 100 MiB left it is refused from the estimate alone.
    monkeypatch.setattr(usdsep.numerics, "_memory_limit", lambda: (100 * 2**20, "MemAvailable"))
    usdsep.instance._table.cache_clear()
    tracemalloc.start()
    try:
        rc, out, err = run_cli(capsys, "generate", "--n", "1000003")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rc, out) == (2, "")
    assert err == "error: n = 1000003 needs about 144 MiB to build its tables, over the 100 MiB of MemAvailable\n"
    assert peak < 1 << 20, peak
    assert not usdsep.instance._table.records


def test_a_certify_pass_past_the_memory_left_is_refused_before_its_stack(capsys, monkeypatch):
    # N = 12289 has dims 2 x12 and 3: its 11 MB of factors are admitted,
    # but the first d = 2 pass, party 0, holds a 1.2 GB Gram of its 12289
    # rays.  With 100 MiB left it is refused from its estimate alone.
    monkeypatch.setattr(usdsep.numerics, "_memory_limit", lambda: (100 * 2**20, "MemAvailable"))
    tracemalloc.start()
    try:
        rc, out, err = run_cli(capsys, "certify", "--n", "12289")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rc, out) == (2, "")
    assert err == (
        "error: the certify pass of party 0 (12289 factors of dimension 2) needs about "
        "1445 MiB for its arrays, over the 100 MiB of MemAvailable\n"
    )
    assert peak < 1 << 26, peak  # the family and the table only, far below the Gram


@pytest.mark.parametrize("command", ["certify", "verify"])
def test_a_family_pass_past_the_memory_left_is_refused_before_the_family_is_built(capsys, monkeypatch, command):
    # N = 227 has dims 2 and 113.  Party 1's pass needs about 111 MiB, and
    # its 227 factors alone about 45 MiB; with 100 MiB left the pass is
    # refused from the family's shape, before any factor is built.
    monkeypatch.setattr(usdsep.numerics, "_memory_limit", lambda: (100 * 2**20, "MemAvailable"))
    tracemalloc.start()
    try:
        rc, out, err = run_cli(capsys, command, "--n", "227")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rc, out) == (2, "")
    assert err == (
        "error: the certify pass of party 1 (227 factors of dimension 113) needs about 111 MiB "
        "for its arrays, over the 100 MiB of MemAvailable\n"
    )
    assert peak < 2 << 20, peak


def test_a_measurement_of_repeated_outcomes_certifies_within_its_pass_estimate(tmp_path, capsys, monkeypatch):
    # 2400 equal outcomes: every Gram entry passes the ray screen, and each
    # pass's 8 B R^2 Gram (46 MB) is admitted under 100 MiB.  The screen
    # reads that Gram row by row, so the run peaks below its pass estimate.
    path = tmp_path / "repeated.json"
    write_measurement(path, [[np.diag([1.0, 0.0]), np.eye(2) / 2]] * 2400)
    monkeypatch.setattr(usdsep.numerics, "_memory_limit", lambda: (100 * 2**20, "MemAvailable"))
    tracemalloc.start()
    try:
        payload, _ = run_json(capsys, "certify", "--measurement", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    parties = payload["parties"]
    assert [party["rays"] for party in parties] == [1, 1]
    assert [party["skipped"] for party in parties] == [False, True]
    assert (payload["total"], payload["bound"], payload["verdict"]) == (1, 4798, "SATISFIES")
    assert peak < usdsep.cone._pass_bytes(2400, 4), peak


def test_certify_a_family_the_entry_cap_used_to_refuse(capsys):
    # D = 166 = 2 x 83 and 400 = 8 x 50: one large party dimension, where the
    # 10^6-entry cap of earlier versions refused the family.
    for argv, dims in ((["--n", "167"], [2, 83]), (["--n", "401", "--dims", "8,50"], [8, 50])):
        payload, _ = run_json(capsys, "certify", *argv)
        n = int(argv[1])
        assert payload["manifest"]["parameters"]["dims"] == dims
        assert [party["extreme"] for party in payload["parties"]] == [n, n]
        assert (payload["total"], payload["bound"], payload["verdict"]) == (2 * n, 2 * n - 2, "VIOLATES")


def test_verify_a_family_the_entry_cap_used_to_refuse(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--n", "167")
    assert rc == 0
    assert "FAIL" not in out
    assert "per party [167, 167]" in out
    assert out.endswith("verify: all checks passed\n")


# Runs the CLI with its address space capped at 1 GiB: an allocation past
# the cap is a MemoryError, never an out-of-memory kill of the machine.
CAPPED_MAIN = (
    "import resource, sys\n"
    "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
    "from usdsep.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


def test_a_table_past_the_address_space_limit_exits_2_with_its_estimate():
    # N = 10000019 (D = 2 7^2 67 1523, the padded route) needs about
    # 1.9 GiB to build, over the 1 GiB the child may map.
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED_MAIN, "generate", "--n", "10000019"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: n = 10000019 needs about 1877 MiB to build its tables, "
        "over the 1024 MiB of the soft RLIMIT_AS\n"
    )


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


def test_simulate_weights_with_copies(capsys):
    # Each copy fails with 1 - w q = 1 - 0.5 * 5/8 = 11/16.
    payload, _ = run_json(
        capsys, "simulate", "--n", "5", "--copies", "2", "--weights", "0.5,0.5,0.5,0.5"
    )
    assert abs(payload["theoretical_failure"] - 121.0 / 256.0) <= 1e-12
    assert payload["misidentifications"] == 0


@pytest.mark.parametrize("n, copies", [("5", "1"), ("5", "3"), ("13", "1")])
def test_simulate_weight_past_the_pair_cap_is_input_error(capsys, n, copies):
    # A loosened --tol admits a weight above 2D/N = 1/q, whose failure cell
    # 1 - q w would be negative: an input error, not an invariant violation.
    weights = ",".join(["2"] + ["0"] * (int(n) - 2))
    rc, out, err = run_cli(
        capsys, "simulate", "--n", n, "--weights", weights, "--tol", "10",
        "--trials", "1000", "--copies", copies,
    )
    assert rc == 2
    assert out == ""
    assert "weight 2 of label 2 exceeds the pair cap 2D/N" in err


@pytest.mark.parametrize("copies", ["1", "3"])
def test_simulate_weight_at_the_pair_cap_runs(capsys, copies):
    # w = 2D/N = 1.6 at N = 5: label 2's input never fails, the others always do.
    payload, _ = run_json(
        capsys, "simulate", "--n", "5", "--weights", "1.6,0,0,0", "--tol", "1", "--copies", copies
    )
    assert abs(payload["theoretical_failure"] - 0.75) <= 1e-12
    assert payload["misidentifications"] == 0


@pytest.mark.parametrize(
    "n, copies", [(61, 2), (5, 7), (61, 3), (5, 8), (211, 2), (61, 10**6)]
)
def test_simulate_any_copy_count(capsys, n, copies):
    # The sampled law is (D, N) whatever the copies: no N^n table, no limit.
    payload, _ = run_json(
        capsys, "simulate", "--n", str(n), "--copies", str(copies), "--trials", "1000"
    )
    assert abs(payload["theoretical_failure"] - 2.0**-copies) <= 1e-12
    assert payload["misidentifications"] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize"],
        ["optimize", "--tol", "1e-3"],
        ["simulate", "--trials", "100"],
        ["simulate", "--trials", "100", "--copies", "2"],
    ],
)
@pytest.mark.parametrize("weights", ["", "0.8,,0.8"])
def test_empty_or_malformed_weights_is_input_error(capsys, argv, weights):
    rc, out, err = run_cli(capsys, *argv, "--n", "5", f"--weights={weights}")
    assert rc == 2
    assert out == ""
    assert "--weights" in err


@pytest.mark.parametrize("command", ["generate", "optimize", "certify", "simulate"])
@pytest.mark.parametrize("dims", ["", "2,,3", "2,x"])
def test_empty_or_malformed_dims_is_input_error(capsys, command, dims):
    # An empty --dims= must not fall back to the default factorization.
    rc, out, err = run_cli(capsys, command, "--n", "7", f"--dims={dims}")
    assert rc == 2
    assert out == ""
    assert f"--dims must be comma-separated integers, got {dims!r}" in err


def test_simulate_rejects_a_negative_seed(capsys):
    rc, out, err = run_cli(capsys, "simulate", "--n", "5", "--seed", "-1")
    assert rc == 2
    assert out == ""
    assert "seed must be >= 0" in err


def test_simulate_rejects_trials_past_int64(capsys):
    rc, out, err = run_cli(capsys, "simulate", "--n", "5", "--trials", "100000000000000000000")
    assert rc == 2
    assert out == ""
    assert "trials must be >= 1 and < 2**63" in err


def test_simulate_rejects_copies_past_int64(capsys):
    rc, out, err = run_cli(capsys, "simulate", "--n", "5", "--copies", str(2**63))
    assert rc == 2
    assert out == ""
    assert "copies must be >= 1 and < 2**63" in err


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


@pytest.mark.parametrize(
    "argv",
    [
        ("generate", "--n", "13"),
        ("optimize", "--n", "13"),
        ("certify", "--n", "13"),
        ("simulate", "--n", "13", "--trials", "500", "--seed", "4"),
        # "=" keeps argparse from reading the leading "-0" as an option.
        ("optimize", "--n", "13", "--weights=-0,0,0.25,0.25,0.1,0.2,0.3,0.3,0.3,0.3,0.3,0.3"),
    ],
)
def test_reports_re_emit_byte_identical(capsys, argv):
    # optimize writes its per-label arrays from numpy; re-emitting the loaded
    # report writes them as lists, so the two routes must give the same bytes.
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 0, err
    assert out.count("\n") == 1  # one JSON line
    assert dumps(json.loads(out)) == out
    if argv[-1].startswith("--weights="):
        assert '"weights": [-0.0, 0.0, 0.25, 0.25, 0.1, ' in out


def _without_timestamp(out: str) -> dict:
    payload = json.loads(out)
    del payload["manifest"]["timestamp"]
    return payload


def test_one_parser_serves_every_call_without_leaking_state(capsys):
    # main reuses one parser per process; each report must equal the one a
    # freshly built parser gives, whatever ran before it.
    sequence = [
        ("optimize", "--n", "7", "--weights", "0.5,0.5,0.5,0.5,0.5,0.5"),
        ("optimize", "--n", "7"),
        ("certify", "--n", "5"),
        ("generate", "--n", "13", "--dims", "2,6", "--omit", "3"),
    ]
    shared = []
    for argv in sequence:
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 0, err
        shared.append(_without_timestamp(out))
    assert build_parser() is build_parser()
    for argv, report in zip(sequence, shared):
        build_parser.cache_clear()
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 0, err
        assert _without_timestamp(out) == report, argv


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_dumps_rejects_non_finite(value):
    with pytest.raises(ValueError):
        dumps({"x": [1.0, value]})
    with pytest.raises(ValueError):
        dumps({"x": np.array([1.0, value]), "y": 1})


def test_verify_passes(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--n", "5")
    assert rc == 0
    assert "PASS" in out
    assert "FAIL" not in out
    assert "all checks passed" in out
    assert "closed-form states" in out


def test_a_failing_verify_row_exits_3(capsys, monkeypatch):
    # A row past its bound is printed FAIL, the other rows still run, and
    # verify ends as an invariant violation.
    bound = usdsep.cli.bound
    monkeypatch.setattr(
        usdsep.cli, "bound", lambda name, n: -1.0 if name == "failure 1/2" else bound(name, n)
    )
    rc, out, err = run_cli(capsys, "verify", "--n", "5")
    assert rc == 3
    *rows, last = out.splitlines()
    assert [row.split()[1:4] for row in rows if " FAIL " in row] == [["failure", "1/2", "FAIL"]]
    assert "closed-form reciprocals" in rows[-1] and last == "verify: CHECKS FAILED"
    assert err == "invariant violation: verification checks failed\n"


def test_verify_rejects_empty(capsys):
    rc, _, _ = run_cli(capsys, "verify", "--n", ",")
    assert rc == 2


@pytest.mark.parametrize("ns", ["5,x", "7,,11"])
def test_malformed_verify_n_is_input_error(capsys, ns):
    # An empty entry is an error, not skipped.
    rc, out, err = run_cli(capsys, "verify", f"--n={ns}")
    assert rc == 2
    assert out == ""
    assert f"--n must be comma-separated integers, got {ns!r}" in err


def test_verify_proof_rows_read_the_null_relation(capsys):
    # Both rows are corollaries of completeness and the null relation, so
    # each shows the relation residual make_instance measured.
    rc, out, _ = run_cli(capsys, "verify", "--n", "5,13,61,1009")
    assert rc == 0
    for n in (5, 13, 61, 1009):
        relation = make_instance(n).residuals["null relation"]
        rows = [line for line in out.splitlines() if line.startswith(f"n={n:<3d} ")]
        assert rows[1] == (
            f"n={n:<3d} {'independence':<24s} PASS  "
            f"(k <= D states: sigma_min sqrt((N-k)/D); relation {relation:.2e})"
        )
        assert rows[3] == (
            f"n={n:<3d} {'pairwise bound':<24s} PASS  "
            f"(<xi_k|F|xi_k> = 2D/N - w_k - w_l; relation {relation:.2e})"
        )


def test_verify_samples_nothing(capsys, monkeypatch):
    # The proof rows take no SVD, build no sampled measurement and draw no
    # random numbers; the one build left is the optimal measurement's.
    calls = {"svd": 0, "build": 0, "rng": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    monkeypatch.setattr(np.random, "default_rng", counted("rng", np.random.default_rng))
    build = counted("build", usdsep.usd.build_measurement)
    monkeypatch.setattr(usdsep.usd, "build_measurement", build)
    monkeypatch.setattr(usdsep.cli, "build_measurement", build)
    rc, _, _ = run_cli(capsys, "verify", "--n", "13")
    assert rc == 0
    assert calls == {"svd": 0, "build": 1, "rng": 0}


def test_failed_bound_is_an_invariant_violation(capsys, monkeypatch):
    monkeypatch.setitem(usdsep.numerics.BOUNDS, "completeness", -1.0)
    rc, out, err = run_cli(capsys, "generate", "--n", "5")
    assert rc == 3
    assert out == ""
    assert err.startswith("invariant violation: completeness:")


def test_failed_null_relation_is_an_invariant_violation(capsys, monkeypatch):
    monkeypatch.setitem(usdsep.numerics.BOUNDS, "null relation", -1.0)
    rc, out, err = run_cli(capsys, "generate", "--n", "5")
    assert rc == 3
    assert out == ""
    assert err.startswith("invariant violation: null relation:")


@pytest.fixture
def fresh_tables():
    """An empty table cache, emptied again afterwards: a record built under a patch never stays."""
    usdsep.instance._table.cache_clear()
    yield
    usdsep.instance._table.cache_clear()


def perturb_amplitude_table(monkeypatch):
    """Make every table built from now on off by 1e-9 in one root, the one every read gathers."""
    exact = usdsep.instance._roots

    def perturbed(n):
        roots = exact(n)
        roots[3] += 1e-9
        return roots

    monkeypatch.setattr(usdsep.instance, "_roots", perturbed)


def test_perturbed_amplitude_table_fails_completeness(capsys, monkeypatch, fresh_tables):
    # The reads and the audits go through one table of roots, so a root off
    # by 1e-9 is a family that misses completeness.
    perturb_amplitude_table(monkeypatch)
    rc, out, err = run_cli(capsys, "generate", "--n", "13")
    assert rc == 3
    assert out == ""
    assert err.startswith("invariant violation: completeness:")
    # The record the run refused stays cached: its reads at j e = 3 mod N hold the perturbed root.
    record = usdsep.instance._table(13)
    assert record.read(1, np.arange(12), 1)[3] == record.roots[3] != np.exp(6j * np.pi / 13)


@pytest.mark.parametrize(
    "row, before",
    [("unit norm", ["completeness"]), ("null relation", ["completeness", "unit norm"])],
)
def test_perturbed_amplitude_table_fails_each_table_audit(
    capsys, monkeypatch, fresh_tables, row, before
):
    # Each audit reads the table on its own: with the rows checked before it
    # out of the way, the same 1e-9 perturbation still exits 3, on this row.
    for name in before:
        monkeypatch.setitem(usdsep.numerics.BOUNDS, name, float("inf"))
    perturb_amplitude_table(monkeypatch)
    for n in ("13", "211"):  # the gather route and the fft route
        rc, out, err = run_cli(capsys, "generate", "--n", n)
        assert rc == 3
        assert out == ""
        assert err.startswith(f"invariant violation: {row}:")


def swap_power_entries(pw, n):
    pw[[2, 3]] = pw[[3, 2]]


def square_the_root(pw, n):
    # pw[k]^2 = (g^2)^k: a cycle that keeps the recurrence, but of order (N - 1) / 2.
    pw **= 2
    pw %= n


@pytest.mark.parametrize("corrupt", [swap_power_entries, square_the_root])
def test_corrupted_log_tables_fail_their_audit(capsys, monkeypatch, fresh_tables, corrupt):
    # The correlations of the audits run over the power cycle; a wrong entry
    # or a root that is not primitive is caught by the exact count, checked
    # before the audits the cycle would spoil.
    exact = usdsep.instance._power_cycle

    def corrupted(n):
        pw = exact(n)
        corrupt(pw, n)
        return pw

    monkeypatch.setattr(usdsep.instance, "_power_cycle", corrupted)
    for n in ("13", "211"):
        rc, out, err = run_cli(capsys, "generate", "--n", n)
        assert rc == 3
        assert out == ""
        assert err.startswith("invariant violation: log tables:")


def test_failed_reciprocal_bound_is_an_invariant_violation(capsys, monkeypatch):
    # The derived bound is applied like a measured residual.
    monkeypatch.setitem(usdsep.numerics.BOUNDS, "derived overlap bound", -1.0)
    rc, out, err = run_cli(capsys, "optimize", "--n", "7")
    assert rc == 3
    assert out == ""
    assert err.startswith("invariant violation: derived overlap bound:")


def test_generate_and_optimize_peak_memory(tmp_path, capsys, fresh_tables):
    # Nothing of either command is O(N^2): the table record (24 B N), its
    # audits' fft buffers, the exponents and the label tuple, and for
    # optimize the report's 2D floats as Python objects and JSON text.
    # Measured with the table built afresh: about 145 B N for generate and
    # 455 B N for optimize at N = 8101.
    n = 8101
    path = str(tmp_path / "inst.json")
    for argv in (["generate", "--out", path], ["optimize"]):
        usdsep.instance._table.cache_clear()
        tracemalloc.start()
        try:
            rc = main([argv[0], "--n", str(n), *argv[1:]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert rc == 0
        assert peak <= 640 * n, (argv[0], peak / n)


def run_peak_rss(*argv):
    """Exit code, peak resident MiB (interpreter and numpy included) and stderr of a CLI run."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_MAIN, *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc.returncode, float(proc.stdout.splitlines()[-1]), proc.stderr


def test_optimize_at_8101_peaks_under_60_mib():
    # It took 1040 MiB while instances held the (N, D) state matrix.
    rc, peak, err = run_peak_rss("optimize", "--n", "8101")
    assert rc == 0, err
    assert peak < 60.0


@pytest.mark.parametrize("argv", [["generate"], ["optimize", "--out", os.devnull]])
def test_past_a_million_states(argv):
    # The table and its audits are O(N): both commands peak at building the
    # table, about 227 MiB at N = 1000003, in 0.9 s (generate) and 1.5 s
    # (optimize, whose 32 MB report is not piped back here).
    rc, peak, err = run_peak_rss(*argv, "--n", "1000003")
    assert rc == 0, err
    assert peak < 250.0
    if argv == ["generate"]:
        assert err.startswith("completeness residual: ")


def test_small_families_never_load_numpy_fft():
    # Below the autocorrelation cut completeness is summed without numpy.fft,
    # whose first use costs about half a MiB of resident memory; N = 131 is past it.
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    script = (
        "import sys\n"
        "from usdsep.cli import main\n"
        "loaded = []\n"
        "for n in ('101', '131'):\n"
        "    assert main(['generate', '--n', n]) == 0\n"
        "    loaded.append('numpy.fft' in sys.modules)\n"
        "print(loaded)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[False, True]"


def test_simulate_warns_past_five_sigma_and_still_succeeds(capsys, monkeypatch):
    def skewed(inst, r, m, cfg):
        counts = {"fail": cfg.trials}
        return SimReport(cfg.seed, cfg.trials, cfg.copies, counts, 0, 1.0, 0.5, 0.5)

    monkeypatch.setattr(usdsep.cli, "run_discrimination", skewed)
    rc, out, err = run_cli(capsys, "simulate", "--n", "5", "--trials", "100")
    assert rc == 0
    assert "warning: empirical failure 1.00000 is more than 5 sigma from 0.50000" in err
    assert json.loads(out)["empirical_failure"] == 1.0


def test_every_bounds_row_is_applied(monkeypatch, capsys):
    read = set()

    class Recording(dict):
        def __getitem__(self, key):
            read.add(key)
            return super().__getitem__(key)

    bounds = Recording(usdsep.numerics.BOUNDS)
    monkeypatch.setattr(usdsep.numerics, "BOUNDS", bounds)
    for argv in (
        ["generate", "--n", "7"],
        ["optimize", "--n", "7"],
        ["optimize", "--n", "7", "--weights", "0.5,0.5,0.5,0.5,0.5,0.5"],
        ["certify", "--n", "7"],
        ["simulate", "--n", "7", "--trials", "1000"],
        ["simulate", "--n", "5", "--trials", "1000", "--copies", "2"],
        ["verify", "--n", "5"],
    ):
        rc, _, err = run_cli(capsys, *argv)
        assert rc == 0, (argv, err)
    # Only the library's complement decomposition applies this one.
    library_only = {"complement decomposition"}
    assert set(bounds) - library_only <= read
    complement_decomposition([2, 2], [3, 2])
    assert read == set(bounds)


PRIMES = [p for p in range(5, 602) if is_prime(p)]


def _run(*argv):
    """Exit code and stdout of main(argv); stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


@settings(max_examples=12, deadline=None, database=None)
@given(data=st.data())
def test_generate_then_optimize_any_valid_instance(data):
    n = data.draw(st.sampled_from(PRIMES))
    dims = data.draw(st.sampled_from(ascending_factorizations(n - 1)))
    omit = data.draw(st.integers(1, n))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "inst.json")
        spec = ["--n", str(n), "--dims", ",".join(map(str, dims)), "--omit", str(omit)]
        assert _run("generate", *spec, "--out", path)[0] == 0
        code, out = _run("optimize", "--instance", path)
    assert code == 0
    assert abs(json.loads(out)["failure_probability"] - 0.5) <= 1e-12


@st.composite
def bad_parameters(draw):
    """(n, dims, omit) with exactly one of the four ways to be invalid."""
    kind = draw(st.sampled_from(["nonprime", "product", "order", "omit"]))
    if kind == "nonprime":
        n = draw(st.sampled_from([m for m in range(0, 602) if not is_prime(m)]))
        return n, [2], 1
    n = draw(st.sampled_from(PRIMES))
    dims = list(draw(st.sampled_from(ascending_factorizations(n - 1))))
    omit = draw(st.integers(1, n))
    if kind == "product":
        return n, dims + [dims[-1]], omit
    if kind == "order":
        assume(len(set(dims)) > 1)
        return n, dims[::-1], omit
    return n, dims, draw(st.one_of(st.integers(-50, 0), st.integers(n + 1, n + 50)))


@settings(max_examples=12, deadline=None, database=None)
@given(params=bad_parameters())
def test_invalid_instance_file_is_an_input_error(params):
    n, dims, omit = params
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "inst.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"n": n, "dims": dims, "omit": omit}, fh)
        assert _run("optimize", "--instance", path)[0] == 2
