"""Seeded inputs, jobs and output checks for the three benchmark workloads.

A workload is an endless sequence of rounds.  A round holds one job per size
class of the workload -- a prime N, or for certify_sweep one of
CERTIFY_CLASSES (a prime and a factorization) -- in a fixed order that
spreads every stretch of the round evenly over the band.  Job cost spans
more than ten times across a band and a run holds only a few dozen of the
large jobs, so the schedule of sizes is what keeps the figures of different
seeds comparable.  The seed draws everything else.  A measuring run holds
whole rounds (run_length).

Input generation uses only the standard library; the jobs call usdsep
through its module attributes, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random

# Every numeric output check uses this one absolute tolerance.
CHECK_TOL = 1e-9
# Empirical failure rates must sit within this many binomial sigmas.
SIGMA_BAND = 5.0

WORKLOADS = ("certify_sweep", "dense_family", "multicopy_sim")

# certify_sweep's families, (N, factorization of N - 1), from least to most
# work.  The factorization sets a job's size along with N: the certificate
# tests every ray class against every other one, party by party, with an
# NNLS of d^2 rows for a party of dimension d.  Each family takes 1.2 to 1.6
# times as long as the one before it (scaled CPU seconds 0.18, 0.24, 0.38,
# 0.51, 0.77, 1.01, 1.25, 1.97, 2.71), so the runs of two families do not
# mix, and each percentile of a run is the middle run of one family.
CERTIFY_CLASSES = (
    (29, (4, 7)), (29, (2, 2, 7)), (37, (3, 3, 4)), (43, (2, 3, 7)), (53, (2, 2, 13)),
    (71, (5, 14)), (61, (2, 2, 3, 5)), (73, (2, 2, 2, 3, 3)), (101, (4, 5, 5)),
)
CERTIFY_MAX_PARTY = 16
DENSE_BAND = (101, 211)
DISC_BAND = (5, 61)
SIM_TRIALS = 50_000
# (N, copies) pairs of the multicopy jobs; simulator.DEFAULT_BUDGET admits no larger ones.
MULTICOPY_CASES = ((5, 2), (5, 3), (7, 2))
CERTIFY2_N = 5

# Rounds per second of --seconds in a measuring run: about today's rate at the
# nominal host speed, so that a run of today's code lasts about --seconds.
ROUNDS_PER_SECOND = {"certify_sweep": 0.1, "dense_family": 0.1, "multicopy_sim": 1.1}

# One fixed warm-up job per workload, run before any timing.
WARMUP = {
    "certify_sweep": {"kind": "certify", "n": 29, "dims": [4, 7], "omit": 1},
    "dense_family": {"kind": "dense", "n": 101, "dims": [4, 25], "omit": 1},
    "multicopy_sim": {"kind": "disc", "n": 5, "dims": [2, 2], "omit": 1, "seed": 0, "trials": SIM_TRIALS},
}


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def factorizations(d: int, least: int = 2) -> list[tuple[int, ...]]:
    """Ascending factorizations of d into factors >= least (any length >= 1)."""
    out = []
    for f in range(least, math.isqrt(d) + 1):
        if d % f == 0:
            out += [(f,) + rest for rest in factorizations(d // f, f)]
    if d >= least:
        out.append((d,))
    return out


def multiparty(n: int, max_party: int | None = None) -> list[tuple[int, ...]]:
    """Factorizations of n - 1 with at least two parties, optionally capped in size."""
    return [f for f in factorizations(n - 1) if len(f) >= 2 and (max_party is None or f[-1] <= max_party)]


def primes_in(lo: int, hi: int) -> list[int]:
    return [n for n in range(lo, hi + 1) if is_prime(n)]


def _radical_inverse(i: int) -> float:
    x, f = 0.0, 0.5
    while i:
        x, i, f = x + f * (i & 1), i >> 1, f / 2
    return x


def size_classes(workload: str) -> list:
    """The workload's (job template, factorization choices) classes, in round order.

    Classes are listed from least to most work and then visited in van der
    Corput order of their index, so every stretch of a round spreads evenly
    over the band.  The class with the largest N comes first.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if workload == "certify_sweep":
        classes = [({"kind": "certify", "n": n, "dims": list(dims)}, None) for n, dims in CERTIFY_CLASSES]
    elif workload == "dense_family":
        classes = [({"kind": "dense", "n": n}, multiparty(n)) for n in primes_in(*DENSE_BAND)]
    else:
        classes = [({"kind": "disc", "n": n, "trials": SIM_TRIALS}, multiparty(n)) for n in primes_in(*DISC_BAND)]
        classes += [({"kind": "multicopy", "n": n, "copies": c, "trials": SIM_TRIALS}, None) for n, c in MULTICOPY_CASES]
        classes.append(({"kind": "certify2", "n": CERTIFY2_N}, None))
    order = sorted(range(len(classes)), key=_radical_inverse)
    # Open with the largest N, whose tensors set the memory high-water mark,
    # so every run reaches it however far into the round it gets; of the
    # classes with that N, the one with the least work.
    first = max(order, key=lambda i: (classes[i][0]["n"], -i))
    return [classes[first]] + [classes[i] for i in order if i != first]


def run_length(workload: str, seconds: float) -> int:
    """Jobs in a measuring run of about ``seconds`` of today's work: whole rounds.

    The job count, not the clock, ends a run, so every run of a workload
    holds the same size classes the same number of times, and its
    percentiles rest on the same number of jobs.
    """
    return len(size_classes(workload)) * max(round(seconds * ROUNDS_PER_SECOND[workload]), 1)


def rounds(workload: str, seed: int):
    """Endless seeded sequence of rounds, each a list of job dicts.

    The seed draws every input that does not set a job's size: the
    factorization within the class, the omit label and the sampling seed.
    """
    classes = size_classes(workload)
    rng = random.Random(f"{workload}-{seed}")
    while True:
        jobs = []
        for template, choices in classes:
            job = dict(template, omit=rng.randint(1, template["n"]))
            if choices:
                job["dims"] = list(rng.choice(choices))
            if "trials" in job:
                job["seed"] = rng.randrange(2**32)
            jobs.append(job)
        yield jobs


class CheckFailed(Exception):
    """A job finished but its output is wrong."""


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _near(value: float, target: float, what: str) -> None:
    _check(abs(value - target) <= CHECK_TOL, f"{what} {value!r} != {target!r}")


def _within_sigma(report, what: str) -> None:
    p = report.theoretical_failure
    band = SIGMA_BAND * math.sqrt(p * (1.0 - p) / report.trials)
    _check(
        abs(report.empirical_failure - p) <= band,
        f"{what}: empirical failure {report.empirical_failure} outside {SIGMA_BAND} sigma of {p}",
    )


class Runner:
    """Runs jobs against an imported usdsep; ``scratch`` holds dense_family files."""

    def __init__(self, scratch: str):
        import usdsep.cli
        import usdsep.cone
        import usdsep.instance
        import usdsep.numerics
        import usdsep.simulator
        import usdsep.usd

        self.u = usdsep
        self.scratch = scratch

    def run(self, job: dict) -> None:
        """Run one job and check its output; raises on any failure."""
        getattr(self, "_" + job["kind"])(job)

    def _certify(self, job):
        u, n = self.u, job["n"]
        inst = u.instance.make_instance(n, job["dims"], job["omit"])
        r = u.instance.reciprocal_set(inst)
        m = u.usd.optimal_measurement(inst)
        report = u.usd.failure_probability(m, r)
        scale = inst.total_dim / n
        ops = []
        for j in range(n):
            factors = [u.numerics.proj(states[j]) for states in inst.local_states]
            factors[0] = scale * factors[0]
            ops.append(factors)
        cert = u.cone.certify(ops)
        _check(cert.verdict == "VIOLATES", f"verdict {cert.verdict}")
        _check(all(s.extreme == n for s in cert.parties), f"extreme counts {[s.extreme for s in cert.parties]} != {n}")
        _near(report.failure_probability, 0.5, "failure probability")
        q = n / (2.0 * inst.total_dim)
        for value in r.overlaps:
            _near(float(value), q, "q")

    def _cli(self, argv: list[str]) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.u.cli.main(argv)
        _check(code == 0, f"usdsep {argv[0]} exited {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def _dense(self, job):
        path = os.path.join(self.scratch, "instance.json")
        dims = ",".join(str(d) for d in job["dims"])
        self._cli(["generate", "--n", str(job["n"]), "--dims", dims, "--omit", str(job["omit"]), "--out", path])
        try:
            report = json.loads(self._cli(["optimize", "--instance", path]))
        finally:
            os.remove(path)
        _near(report["failure_probability"], 0.5, "failure probability")
        _check(report["optimal"] is True, "report is not optimal")

    def _disc(self, job):
        u = self.u
        inst = u.instance.make_instance(job["n"], job["dims"], job["omit"])
        r = u.instance.reciprocal_set(inst)
        m = u.usd.optimal_measurement(inst)
        cfg = u.simulator.SimConfig(seed=job["seed"], trials=job["trials"])
        report = u.simulator.run_discrimination(inst, r, m, cfg)
        _check(report.misidentifications == 0, f"{report.misidentifications} misidentifications")
        _near(report.theoretical_failure, 0.5, "theoretical failure")
        _within_sigma(report, "single copy")

    def _multicopy(self, job):
        u, copies = self.u, job["copies"]
        inst = u.instance.make_instance(job["n"], None, job["omit"])
        cfg = u.simulator.SimConfig(seed=job["seed"], trials=job["trials"], copies=copies)
        report = u.simulator.run_multicopy_discrimination(inst, cfg)
        _check(report.misidentifications == 0, f"{report.misidentifications} misidentifications")
        _near(report.theoretical_failure, 2.0**-copies, "theoretical failure")
        _within_sigma(report, f"{copies} copies")

    def _certify2(self, job):
        u, n = self.u, job["n"]
        inst = u.instance.make_instance(n, None, job["omit"])
        mm = u.simulator.multicopy_measurement(inst, 2)
        cert = u.cone.certify([list(factors) for factors in mm.party_factors])
        outcomes = n * n
        _check(cert.verdict == "VIOLATES", f"2-copy verdict {cert.verdict}")
        _check(cert.bound == 2 * (outcomes - 1), f"2-copy bound {cert.bound}")
        _check(cert.total == len(inst.dims) * outcomes, f"2-copy total {cert.total}")
