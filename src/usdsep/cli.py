"""Command line front end.

Subcommands: generate (write an instance file), optimize (failure
probability of the symmetric measurement), certify (extreme-ray count
certificate), simulate (Monte Carlo discrimination), verify (self-check
across instance families).  Reports are JSON on stdout with an embedded run
manifest; human-oriented one-liners go to stderr.  Exit codes: 0 success,
2 input error (including a family too large for memory), 3 violated
internal invariant (a numerics.BOUNDS row, or a failed verify).
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__
from .cone import certify
from .instance import instance_from_dict, instance_to_dict, make_instance, reciprocal_set
from .numerics import PSD_TOL, RAY_TOL, ConvergenceError, InvariantError, admit, bound, check
from .reference import two_qubit_reciprocal_states, two_qubit_states
from .serialize import dumps, pairs_to_matrix
from .simulator import SimConfig, run_discrimination
from .usd import build_measurement, failure_probability, family_product_ops, optimal_measurement

__all__ = ["main", "entry"]


def _manifest(command: str, params: dict, seed=None) -> dict:
    return {
        "command": command,
        "parameters": params,
        "version": __version__,
        "seed": seed,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


# A fresh generate file holds n, dims, omit and a manifest, under 1 KiB.  An
# instance file past this many bytes holds more, such as the states array
# of an earlier version (47 MB at N = 1009), and is refused unparsed after
# at most this many bytes and one more are read.
MAX_INSTANCE_BYTES = 2**20

# json.load holds its Python objects beside the text, and a malformed file
# is refused only after its parse.  By tracemalloc (Python 3.10 to 3.13
# alike), a measurement file of full-precision floats (a family's) peaks at
# 4.3-5.1 times its size, and the densest well-formed one, one-digit
# [re, im] pairs without spaces, at 17.3-17.8 times.  One-element lists
# nested 16 deep peak at 41.7 times, and from 64 deep on at 43.4-44.0, the
# 88 bytes of a list per 2 bytes of brackets; [0] or {} entries at 24,
# nested objects at most 38.8.  This many times a file's size bounds the
# parse of any JSON text, with room for other object sizes.
PARSE_BYTES_PER_BYTE = 48


def _load_json(path: str, limit: int | None = None):
    """The JSON value in the file at ``path``.

    With a ``limit``, at most limit + 1 bytes are read and a longer file is
    refused unparsed, so a pipe, which reports no size, is bounded too.
    Without one, a file whose parse would outgrow the memory left is
    refused before any of it is read (numerics.admit; a pipe reports no
    size and is read whole).
    """
    try:
        if limit is not None:
            with open(path, "rb") as fh:
                data = fh.read(limit + 1)
            if len(data) > limit:
                raise ValueError(
                    f"{path}: instance file over {limit} bytes, more than its parameters; "
                    "write a fresh file with usdsep generate"
                )
            return json.loads(data.decode("utf-8"))
        with open(path, "r", encoding="utf-8") as fh:
            size = os.fstat(fh.fileno()).st_size
            admit(PARSE_BYTES_PER_BYTE * size, f"{path}: its {size} bytes need", "to parse")
            return json.load(fh)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def _emit(payload: dict, out_path=None) -> None:
    text = dumps(payload)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _tol(args, default: float) -> float:
    """The --tol override, or ``default`` when it is not given."""
    if args.tol is None:
        return default
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValueError(f"--tol must be positive and finite, got {args.tol}")
    return args.tol


def _psd_tol(args) -> float:
    """The --tol override of the PSD tolerance; it only applies to --weights."""
    if args.tol is not None and args.weights is None:
        raise ValueError("--tol applies only together with --weights")
    return _tol(args, PSD_TOL)


def _check_source(args) -> None:
    """One family source per run, given only the options that apply to it."""
    sources = ("instance", "n", "measurement")
    given = [f"--{k}" for k in sources if getattr(args, k, None) is not None]
    if len(given) > 1:
        raise ValueError(f"{' and '.join(given)} cannot be used together")
    stray = [f"--{k}" for k in ("dims", "omit") if getattr(args, k, None) is not None]
    if stray and given != ["--n"]:
        raise ValueError(f"{' and '.join(stray)} can only be used with --n")
    if given == ["--measurement"] and args.copies is not None:
        raise ValueError("--copies cannot be used with --measurement")


def _comma_list(option: str, text: str, parse=int, noun: str = "integers") -> list:
    """The entries of a comma-separated option; an empty or malformed one is an input error."""
    try:
        return [parse(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"{option} must be comma-separated {noun}, got {text!r}") from None


def _instance_from_args(args) -> "Instance":
    if getattr(args, "instance", None):
        return instance_from_dict(_load_json(args.instance, MAX_INSTANCE_BYTES))
    if getattr(args, "n", None) is None:
        raise ValueError("provide --instance PATH or --n N")
    dims = None if args.dims is None else _comma_list("--dims", args.dims)
    return make_instance(args.n, dims, 1 if args.omit is None else args.omit)


def _measurement(args, inst, psd_tol: float):
    """The measurement of --weights, or the optimal one without them."""
    if args.weights is None:
        return optimal_measurement(inst)
    w = _comma_list("--weights", args.weights, float, "numbers")
    return build_measurement(inst, w, psd_tol=psd_tol)


def cmd_generate(args) -> int:
    inst = _instance_from_args(args)
    params = instance_to_dict(inst)
    payload = {**params, "manifest": _manifest("generate", params)}
    _emit(payload, args.out)
    line = f"completeness residual: {inst.residuals['completeness']:.3e}"
    print(line, file=sys.stdout if args.out else sys.stderr)
    return 0


def cmd_optimize(args) -> int:
    _emit(_optimize_report(args), args.out)
    return 0


def _optimize_report(args) -> dict:
    """The optimize payload; its two per-label entries are float arrays.

    serialize.dumps writes the arrays as they are, so of the family and the
    measurement only those two outlive this call: at N = 10^6 the label
    tuple and the other O(N) arrays (about 70 MB) are freed before the
    32 MB of JSON text is built.
    """
    psd_tol = _psd_tol(args)
    inst = _instance_from_args(args)
    m, r = _measurement(args, inst, psd_tol), reciprocal_set(inst)
    report = failure_probability(m, r)
    params = {"instance": args.instance, **instance_to_dict(inst), "weights": args.weights}
    if args.tol is not None:
        params["tol"] = psd_tol
    return {
        "failure_probability": report.failure_probability,
        "weights": m.weights,
        "q_values": r.overlaps,
        "optimal": report.optimal,
        "psd_min_eigenvalue": m.min_eigenvalue,
        "manifest": _manifest("optimize", params),
    }


def _product_ops_from_file(path: str):
    raw = _load_json(path)
    if not isinstance(raw, list):
        raise ValueError("measurement file must hold a list of product operators")
    try:
        return [[pairs_to_matrix(factor) for factor in entry] for entry in raw]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed product operator array: {exc}") from exc


def cmd_certify(args) -> int:
    tol = _tol(args, RAY_TOL)
    if args.measurement:
        product_ops = _product_ops_from_file(args.measurement)
        source = {"measurement": args.measurement}
    else:
        copies = 1 if args.copies is None else args.copies
        inst = _instance_from_args(args)
        product_ops = family_product_ops(inst, copies)
        source = {**instance_to_dict(inst), "copies": copies}
    report = certify(product_ops, tol=tol)
    payload = dataclasses.asdict(report)
    # The bound's last digits are rounding: a 1-ulp change of the inputs
    # moves it by about 3e-16, over 1000 times under the 12th decimal.
    for party in payload["parties"]:
        if party["min_witness_bound"] is not None:
            party["min_witness_bound"] = round(party["min_witness_bound"], 12)
    payload["manifest"] = _manifest("certify", {**source, "tol": tol})
    print(f"verdict: {report.verdict}", file=sys.stderr)
    _emit(payload, args.out)
    return 0


def cmd_simulate(args) -> int:
    psd_tol = _psd_tol(args)
    inst = _instance_from_args(args)
    cfg = SimConfig(seed=args.seed, trials=args.trials, copies=args.copies)
    m = _measurement(args, inst, psd_tol)
    report = run_discrimination(inst, reciprocal_set(inst), m, cfg)
    check("misidentifications", report.misidentifications)
    sigma = np.sqrt(
        report.theoretical_failure * (1.0 - report.theoretical_failure) / cfg.trials
    )
    if sigma > 0 and abs(report.empirical_failure - report.theoretical_failure) > 5 * sigma:
        print(
            f"warning: empirical failure {report.empirical_failure:.5f} is more than "
            f"5 sigma from {report.theoretical_failure:.5f}",
            file=sys.stderr,
        )
    params = {
        "instance": args.instance,
        **instance_to_dict(inst),
        "trials": cfg.trials,
        "copies": cfg.copies,
        "weights": args.weights,
    }
    if args.tol is not None:
        params["tol"] = psd_tol
    # Its fields are flat; dataclasses.asdict would deep-copy the counts, N entries.
    payload = {**vars(report), "manifest": _manifest("simulate", params, seed=cfg.seed)}
    _emit(payload, args.out)
    return 0


def _verify_one(n: int) -> list[tuple[str, bool, str]]:
    """All self-checks for the default (fully factorized) family at one n."""
    checks: list[tuple[str, bool, str]] = []
    inst = make_instance(n)

    def row(name: str, measured: float, detail: str) -> None:
        checks.append((name, measured <= bound(name, n), detail))

    residual = inst.residuals["completeness"]
    row("completeness", residual, f"residual {residual:.2e}")

    # Completeness and the null relation prove this row and "pairwise bound" (instance docstring).
    relation = inst.residuals["null relation"]
    proven = residual <= bound("completeness", n) and relation <= bound("null relation", n)
    checks.append(
        ("independence", proven, f"k <= D states: sigma_min sqrt((N-k)/D); relation {relation:.2e}")
    )

    # The bound completeness and the null relation give every overlap (instance docstring).
    r = reciprocal_set(inst)
    derived = r.residuals["derived overlap bound"]
    row("derived overlap bound", derived, f"cross overlaps and |q - N/(2D)| within {derived:.2e}")

    checks.append(
        ("pairwise bound", proven, f"<xi_k|F|xi_k> = 2D/N - w_k - w_l; relation {relation:.2e}")
    )

    m = optimal_measurement(inst)
    pr = failure_probability(m, r).failure_probability
    row("failure 1/2", abs(pr - 0.5), f"Pr(fail) {pr:.12f}")

    report = certify(family_product_ops(inst))
    rays_ok = all(s.extreme == n for s in report.parties)
    checks.append(("extreme rays", rays_ok, f"per party {[s.extreme for s in report.parties]}"))
    checks.append(
        ("verdict", report.verdict == "VIOLATES", f"total {report.total} vs bound {report.bound}")
    )

    if n == 5 and inst.dims == (2, 2):
        gap = float(np.max(np.abs(inst.states - two_qubit_states())))
        row("closed-form states", gap, f"max entry gap {gap:.2e}")
        overlap = np.abs(
            np.einsum("ja,ja->j", r.states.conj(), two_qubit_reciprocal_states())
        )
        phase_gap = float(np.max(np.abs(overlap - 1.0)))
        row("closed-form reciprocals", phase_gap, f"phase-free gap {phase_gap:.2e}")
    return checks


def cmd_verify(args) -> int:
    ns = _comma_list("--n", args.n)
    all_ok = True
    for n in ns:
        for name, ok, detail in _verify_one(n):
            all_ok = all_ok and ok
            status = "PASS" if ok else "FAIL"
            print(f"n={n:<3d} {name:<24s} {status}  ({detail})")
    print("verify:", "all checks passed" if all_ok else "CHECKS FAILED")
    if not all_ok:
        raise InvariantError("verification checks failed")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="usdsep",
        description="Unambiguous discrimination of roots-of-unity product-state "
        "families and finite-round LOCC impossibility certificates.",
    )
    parser.add_argument("--version", action="version", version=f"usdsep {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_opts(p, with_weights=False):
        p.add_argument("--instance", help="path to an instance JSON file")
        p.add_argument("--n", type=int, help="prime number of states (builds the instance)")
        p.add_argument("--dims", help="comma-separated ascending party dimensions")
        p.add_argument("--omit", type=int, help="omitted state label (default 1)")
        if with_weights:
            p.add_argument("--weights", help="comma-separated weights for the retained labels")
        p.add_argument("--tol", type=float, help="override the numeric decision tolerance")
        p.add_argument("--out", help="write the JSON report here instead of stdout")

    g = sub.add_parser("generate", help="build a family and write its instance file")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--dims")
    g.add_argument("--omit", type=int, default=1)
    g.add_argument("--out", help="output path (default stdout)")
    g.set_defaults(func=cmd_generate)

    o = sub.add_parser("optimize", help="failure probability of the (symmetric) measurement")
    add_instance_opts(o, with_weights=True)
    o.set_defaults(func=cmd_optimize)

    c = sub.add_parser("certify", help="extreme-ray certificate for a product measurement")
    c.add_argument("--measurement", help="path to a factored measurement JSON file")
    add_instance_opts(c)
    c.add_argument("--copies", type=int, help="tensor copies (default 1)")
    c.set_defaults(func=cmd_certify)

    s = sub.add_parser("simulate", help="Monte Carlo discrimination run")
    add_instance_opts(s, with_weights=True)
    s.add_argument("--trials", type=int, default=100_000)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--copies", type=int, default=1)
    s.set_defaults(func=cmd_simulate)

    v = sub.add_parser("verify", help="self-checks across instance families")
    v.add_argument("--n", default="5,7,11,13", help="comma-separated primes (default 5,7,11,13)")
    v.set_defaults(func=cmd_verify)
    return parser


def _join_signed_values(argv: list[str]) -> list[str]:
    """argv with "--tol -1e-3" (or --weights) joined by "=": argparse reads -1e-3 as an option.

    An abbreviation of either name joins too.  argparse still resolves it,
    so one that names two options, as --t names --tol and --trials, stays
    an input error.
    """
    out = []
    for arg in argv:
        prev = out[-1] if out else ""
        if len(prev) > 2 and re.match(r"-[0-9.]", arg) and any(n.startswith(prev) for n in ("--weights", "--tol")):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_signed_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_source(args)
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvariantError, ConvergenceError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
