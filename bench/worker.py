"""One benchmark process: import usdsep, warm up, then run jobs in a closed loop.

Started by run.py, never by hand.  It writes "ready <cpu seconds>" on stdout
once the import and the warm-up job are done (a set-up process adds the
median CPU seconds of SETUP_REF_RUNS runs of the reference kernel), then
(unless --mode is setup) one JSON line with the job records.  Everything
else the process prints goes to stderr, so library output cannot corrupt
that protocol.  Times are CPU seconds of this process (time.process_time),
with wall seconds kept beside them; see README.md.

Modes:
  setup    stop after the warm-up job (a set-up time sample).
  measure  one client, one job at a time, next job only after the previous
           one finished, through the first run_length() jobs of the seeded
           sequence (about --seconds of work today), with the reference
           kernel timed between jobs; tracing is off.
  trace    a fixed job list (the first TRACE_JOBS jobs), run once
           untraced, once with spans and once with peak-memory tracking, so
           counts repeat exactly for a seed and the overhead compares like
           with like.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from itertools import chain, islice

import numpy as np

from calibrate import reference_kernel

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
# A measuring run stops starting jobs after this many times --seconds of wall
# time, even if its job list is not done, so a much slower program still ends.
WALL_CAP = 2.5
# The reference kernel runs once before the first job and again whenever the
# jobs have used this much CPU time since its last run.
REF_EVERY_S = 0.5
# Reference kernel runs in a set-up process, after its set-up is timed.
SETUP_REF_RUNS = 5
# Length of a traced run's fixed job list: the first jobs of the seeded sequence.
TRACE_JOBS = {"certify_sweep": 16, "dense_family": 16, "multicopy_sim": 120}
# A family just above the onset of the false completeness failure; see README.md.
ONSET_PROBE = ["generate", "--n", "311"]


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None if unavailable."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def manifest(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_jobs(runner, jobs, tracer=None):
    """Run jobs one after another; returns [cpu_s, wall_s, ok, error] per job."""
    records = []
    for i, job in enumerate(jobs):
        c0, t0 = time.process_time(), time.perf_counter()
        error = None
        try:
            if tracer is None:
                runner.run(job)
            else:
                tracer.run_job(i, runner.run, job)
        except Exception as exc:  # a failed job is counted, never fatal to the run
            error = f"{job}: {type(exc).__name__}: {exc}"
        records.append([time.process_time() - c0, time.perf_counter() - t0, error is None, error])
    return records


def traced_pass(runner, jobs, tracer):
    """Run the job list with tracer's wrappers installed; returns (records, cpu_s)."""
    tracer.install()
    try:
        start = time.process_time()
        records = run_jobs(runner, jobs, tracer)
        return records, time.process_time() - start
    finally:
        tracer.uninstall()


def onset_probe() -> int:
    """Exit code of the CLI on a family just past the false-invariant onset."""
    env = dict(os.environ, PYTHONPATH=SRC)
    path = os.path.join(OUT, f"probe-{os.getpid()}.json")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "usdsep.cli", *ONSET_PROBE, "--out", path],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
    finally:
        if os.path.exists(path):
            os.remove(path)
    return done.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = parser.parse_args(argv)

    proto, sys.stdout = sys.stdout, sys.stderr
    if not os.path.isfile(os.path.join(SRC, "usdsep", "__init__.py")):
        print(f"error: no usdsep sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.chdir(ROOT)
    import workloads

    # A fixed path relative to the root: the CLI copies it into its report,
    # and serialize.bytes_out must not depend on the process id.
    scratch = os.path.join("bench", "out", f"tmp-{args.workload}")
    os.makedirs(scratch, exist_ok=True)
    try:
        runner = workloads.Runner(scratch)
        runner.run(workloads.WARMUP[args.workload])
        # CPU seconds since the process started: the set-up cost.
        setup_cpu = time.process_time()
        if args.mode == "setup":
            refs = [sum(reference_kernel()) for _ in range(SETUP_REF_RUNS)]
            print(f"ready {setup_cpu!r} {statistics.median(refs)!r}", file=proto, flush=True)
            return 0
        print(f"ready {setup_cpu!r}", file=proto, flush=True)
        rounds = workloads.rounds(args.workload, args.seed)
        result = {"manifest": manifest(args.workload, args.seed)}
        if args.mode == "measure":
            jobs = islice(chain.from_iterable(rounds), workloads.run_length(args.workload, args.seconds))
            records, refs = [], []
            start, since_ref = time.perf_counter(), REF_EVERY_S
            for job in jobs:
                if time.perf_counter() - start >= WALL_CAP * args.seconds:
                    break
                if since_ref >= REF_EVERY_S:
                    refs.append([len(records), *reference_kernel()])
                    since_ref = 0.0
                records += run_jobs(runner, [job])
                since_ref += records[-1][0]
            refs.append([len(records), *reference_kernel()])
            # [jobs run before it, then CPU seconds of each kernel part], per kernel run
            result["reference_runs"] = refs
            result["wall_s"] = time.perf_counter() - start
        else:
            from tracing import Tracer

            jobs = list(islice(chain.from_iterable(rounds), TRACE_JOBS[args.workload]))
            start = time.process_time()
            plain = run_jobs(runner, jobs)
            result["untraced_cpu_s"] = time.process_time() - start
            tracer, peaks = Tracer(), Tracer(peaks=True)
            records, result["cpu_s"] = traced_pass(runner, jobs, tracer)
            peak_records, _ = traced_pass(runner, jobs, peaks)
            # A job fails the run if it failed in any pass; times are the traced ones.
            records = [next((r for r in rs if not r[2]), rs[0]) for rs in zip(records, plain, peak_records)]
            tracer.save(os.path.join(OUT, f"spans-{args.workload}.npz"))
            result["per_layer"] = {**tracer.metrics(), **peaks.metrics()}
            result["per_layer"]["cli.onset_probe_exit"] = onset_probe()
        result["jobs"] = records
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(result), file=proto, flush=True)
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
