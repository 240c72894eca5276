"""Command line front end.

Subcommands: generate (write an instance file), optimize (failure
probability of the symmetric measurement), certify (extreme-ray count
certificate), simulate (Monte Carlo discrimination), verify (self-check
across instance families).  Reports are JSON on stdout with an embedded run
manifest; human-oriented one-liners go to stderr.  Exit codes: 0 success,
2 input error, 3 violated internal invariant (including a failed verify).
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys

import numpy as np

from . import __version__
from .cone import certify
from .instance import (
    ascending_factorizations,
    instance_from_dict,
    instance_to_dict,
    make_instance,
    pairwise_overlaps,
    reciprocal_set,
)
from .numerics import ConvergenceError, InvariantError, proj
from .reference import two_qubit_reciprocal_states, two_qubit_states
from .serialize import dumps, loads, pairs_to_matrix
from .simulator import SimConfig, run_discrimination, run_multicopy_discrimination
from .usd import (
    NotPSDError,
    build_measurement,
    failure_probability,
    optimal_measurement,
)

__all__ = ["main", "entry"]


def _manifest(command: str, params: dict, seed=None) -> dict:
    return {
        "command": command,
        "parameters": params,
        "version": __version__,
        "seed": seed,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


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


def _instance_from_args(args) -> "Instance":
    if getattr(args, "instance", None):
        return instance_from_dict(_load_json(args.instance))
    if getattr(args, "n", None) is None:
        raise ValueError("provide --instance PATH or --n N")
    dims = [int(d) for d in args.dims.split(",")] if args.dims else None
    return make_instance(args.n, dims, args.omit)


def cmd_generate(args) -> int:
    dims = [int(d) for d in args.dims.split(",")] if args.dims else None
    inst = make_instance(args.n, dims, args.omit)
    payload = instance_to_dict(inst)
    payload["manifest"] = _manifest(
        "generate", {"n": inst.n, "dims": list(inst.dims), "omit": inst.omit}
    )
    residual = float(
        np.linalg.norm(
            (inst.total_dim / inst.n) * inst.projectors.sum(axis=0)
            - np.eye(inst.total_dim)
        )
    )
    _emit(payload, args.out)
    line = f"completeness residual: {residual:.3e}"
    print(line, file=sys.stdout if args.out else sys.stderr)
    return 0


def cmd_optimize(args) -> int:
    psd_tol = _tol(args, 1e-10)
    inst = _instance_from_args(args)
    r = reciprocal_set(inst)
    if args.weights:
        w = [float(x) for x in args.weights.split(",")]
        m = build_measurement(inst, w, psd_tol=psd_tol)
    else:
        m = optimal_measurement(inst)
    report = failure_probability(m, r)
    payload = {
        "failure_probability": report.failure_probability,
        "weights": [float(x) for x in report.weights],
        "q_values": [float(x) for x in report.q_values],
        "optimal": report.optimal,
        "psd_min_eigenvalue": report.psd_min_eigenvalue,
        "manifest": _manifest(
            "optimize",
            {
                "instance": args.instance,
                "n": inst.n,
                "dims": list(inst.dims),
                "omit": inst.omit,
                "weights": args.weights,
            },
        ),
    }
    _emit(payload, args.out)
    return 0


def _product_ops_from_file(path: str):
    raw = _load_json(path)
    if not isinstance(raw, list):
        raise ValueError("measurement file must hold a list of product operators")
    return [[pairs_to_matrix(factor) for factor in entry] for entry in raw]


def _product_ops_from_instance(inst, copies: int):
    if copies == 1:
        scale = inst.total_dim / inst.n
        ops = []
        for j in range(1, inst.n + 1):
            factors = [proj(ls[j - 1]) for ls in inst.local_states]
            factors[0] = scale * factors[0]
            ops.append(factors)
        return ops
    from .simulator import multicopy_measurement

    mm = multicopy_measurement(inst, copies)
    return [list(factors) for factors in mm.party_factors]


def cmd_certify(args) -> int:
    tol = _tol(args, 1e-8)
    if args.measurement:
        product_ops = _product_ops_from_file(args.measurement)
        source = {"measurement": args.measurement}
    else:
        inst = _instance_from_args(args)
        product_ops = _product_ops_from_instance(inst, args.copies)
        source = {
            "n": inst.n,
            "dims": list(inst.dims),
            "omit": inst.omit,
            "copies": args.copies,
        }
    report = certify(product_ops, tol=tol)
    payload = report.to_dict()
    payload["manifest"] = _manifest("certify", {**source, "tol": tol})
    print(f"verdict: {report.verdict}", file=sys.stderr)
    _emit(payload, args.out)
    return 0


def cmd_simulate(args) -> int:
    psd_tol = _tol(args, 1e-10)
    inst = _instance_from_args(args)
    cfg = SimConfig(seed=args.seed, trials=args.trials, copies=args.copies)
    if cfg.copies == 1:
        r = reciprocal_set(inst)
        if args.weights:
            w = [float(x) for x in args.weights.split(",")]
            m = build_measurement(inst, w, psd_tol=psd_tol)
        else:
            m = optimal_measurement(inst)
        report = run_discrimination(inst, r, m, cfg)
    else:
        if args.weights:
            raise ValueError("--weights applies to single-copy simulation only")
        report = run_multicopy_discrimination(inst, cfg)
    if report.misidentifications:
        raise InvariantError(
            f"{report.misidentifications} misidentifications; outcomes must be zero-error"
        )
    sigma = np.sqrt(
        report.theoretical_failure * (1.0 - report.theoretical_failure) / cfg.trials
    )
    if sigma > 0 and abs(report.empirical_failure - report.theoretical_failure) > 5 * sigma:
        print(
            f"warning: empirical failure {report.empirical_failure:.5f} is more than "
            f"5 sigma from {report.theoretical_failure:.5f}",
            file=sys.stderr,
        )
    payload = report.to_dict()
    payload["manifest"] = _manifest(
        "simulate",
        {
            "instance": args.instance,
            "n": inst.n,
            "dims": list(inst.dims),
            "omit": inst.omit,
            "trials": cfg.trials,
            "copies": cfg.copies,
            "weights": args.weights,
        },
        seed=cfg.seed,
    )
    _emit(payload, args.out)
    return 0


def _verify_one(n: int, rng: np.random.Generator) -> list[tuple[str, bool, str]]:
    """All self-checks for the default (fully factorized) family at one n."""
    checks: list[tuple[str, bool, str]] = []
    inst = make_instance(n)
    d = inst.total_dim

    residual = float(
        np.linalg.norm((d / n) * inst.projectors.sum(axis=0) - np.eye(d))
    )
    checks.append(("completeness", residual <= 1e-12, f"residual {residual:.2e}"))

    from .instance import check_linear_independence

    ok = True
    for _ in range(50):
        size = int(rng.integers(1, d + 1))
        subset = rng.choice(np.arange(1, n + 1), size=size, replace=False)
        indep, _ = check_linear_independence(inst, subset)
        ok = ok and indep
    full_indep, _ = check_linear_independence(inst, range(1, n + 1))
    ok = ok and not full_indep
    checks.append(("independence", ok, "random subsets of basis size"))

    r = reciprocal_set(inst)
    cross = r.states.conj() @ inst.states[[j - 1 for j in r.indices]].T
    worst = float(np.max(np.abs(cross - np.diag(np.diag(cross)))))
    checks.append(("reciprocity", worst <= 1e-10, f"max cross overlap {worst:.2e}"))

    q_gap = float(np.max(np.abs(r.overlaps - n / (2.0 * d))))
    checks.append(("overlap value", q_gap <= 1e-10, f"|q - N/(2D)| {q_gap:.2e}"))

    from .usd import verify_pairwise_bound

    bound_ok = True
    hi = 2.0 * d / n
    for _ in range(200):
        w = rng.uniform(0.0, hi, size=d)
        try:
            build_measurement(inst, w)
        except NotPSDError:
            continue
        bound_ok = bound_ok and verify_pairwise_bound(inst, w)
    checks.append(("pairwise bound", bound_ok, "PSD samples respect the pair cap"))

    m = optimal_measurement(inst)
    pr = failure_probability(m, r).failure_probability
    checks.append(("failure 1/2", abs(pr - 0.5) <= 1e-12, f"Pr(fail) {pr:.12f}"))

    ops = _product_ops_from_instance(inst, 1)
    report = certify(ops)
    rays_ok = all(s.extreme == n for s in report.parties)
    checks.append(("extreme rays", rays_ok, f"per party {[s.extreme for s in report.parties]}"))
    checks.append(
        ("verdict", report.verdict == "VIOLATES", f"total {report.total} vs bound {report.bound}")
    )

    if n == 5 and inst.dims == (2, 2):
        gap = float(np.max(np.abs(inst.states - two_qubit_states())))
        checks.append(("closed-form states", gap <= 1e-12, f"max entry gap {gap:.2e}"))
        overlap = np.abs(
            np.einsum("ja,ja->j", r.states.conj(), two_qubit_reciprocal_states())
        )
        phase_gap = float(np.max(np.abs(overlap - 1.0)))
        checks.append(
            ("closed-form reciprocals", phase_gap <= 1e-9, f"phase-free gap {phase_gap:.2e}")
        )
    return checks


def cmd_verify(args) -> int:
    ns = [int(x) for x in args.n.split(",") if x.strip()]
    if not ns:
        raise ValueError("provide at least one n, e.g. --n 5,7")
    rng = np.random.default_rng(20_260_817)
    all_ok = True
    for n in ns:
        for name, ok, detail in _verify_one(n, rng):
            all_ok = all_ok and ok
            status = "PASS" if ok else "FAIL"
            print(f"n={n:<3d} {name:<24s} {status}  ({detail})")
    print("verify:", "all checks passed" if all_ok else "CHECKS FAILED")
    if not all_ok:
        raise InvariantError("verification checks failed")
    return 0


def build_parser() -> argparse.ArgumentParser:
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
        p.add_argument("--omit", type=int, default=1, help="omitted state label (default 1)")
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
    c.add_argument("--copies", type=int, default=1, help="tensor copies (default 1)")
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, NotPSDError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvariantError, ConvergenceError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
