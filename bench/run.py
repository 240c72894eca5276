"""usdsep benchmark: closed-loop workloads, end-to-end metrics, traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload certify_sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1            # every workload, one after another

Each workload runs in fresh Python processes (worker.py) with one BLAS
thread.  Every time is CPU seconds of a worker, scaled by the reference
kernel (calibrate.py) timed in the same process to the nominal host speed
(see README.md).  Set-up time is sampled in SETUP_SAMPLES fresh processes;
the last of them measures.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics (end-to-end metrics with --trace 0, per-layer metrics with
--trace 1, names and units as declared in BENCHMARK.json).  The full
result, with its manifest and every job record, is written under bench/out.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time

from calibrate import NOMINAL_S
from worker import WALL_CAP
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
SETUP_SAMPLES = 5
TAIL_BEYOND = 10
# glibc's mmap (and trim) threshold per workload.  dense_family takes its
# large arrays from a heap that is never trimmed: mapping its 150 MB tensors
# afresh for every job cost up to a fifth of the job in page faults, in
# system time that moved by 3x between repeats.  certify_sweep maps every
# array above 256 KiB, so each one is returned when freed: from the heap,
# its 16 MB arrays fragmented it, and the RSS high-water mark of a run was
# 88 or 103 MiB by chance.
MMAP_THRESHOLD = {"certify_sweep": 256 << 10, "dense_family": 4 << 30, "multicopy_sim": 4 << 30}
# Reference kernel runs whose median scales a job's time.
REF_WINDOW = 4
# Seconds a worker may take beyond its expected length before it is killed:
# a job that is running at the wall cap still finishes, and a traced run
# replays its fixed job list three times.  Keeps a whole run under three
# minutes.
GRACE_S = 30.0
TRACE_GRACE_S = 120.0


def percentile(values, p: int) -> float:
    """Nearest-rank p-th percentile: the smallest value with p% of values at or below it."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p * len(ordered) / 100) - 1, 0)]


def tail_percentile(values):
    """Highest whole percentile with at least TAIL_BEYOND values above it.

    Percentiles use the nearest-rank rule.  Returns (percentile, value);
    with too few values for any such percentile it returns (None, None).
    """
    for p in range(99, 0, -1):
        value = percentile(values, p)
        if sum(v > value for v in values) >= TAIL_BEYOND:
            return p, value
    return None, None


def _env(workload: str) -> dict:
    env = dict(os.environ)
    # One BLAS thread, so that CPU time measures work: an OpenBLAS thread
    # spinning while it waits would count as CPU time too.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # A fixed mmap threshold, so that the RSS high-water mark does not depend
    # on glibc's adaptive threshold.  See README.md for the two settings.
    threshold = MMAP_THRESHOLD[workload]
    env["MALLOC_MMAP_THRESHOLD_"] = env["MALLOC_TRIM_THRESHOLD_"] = str(threshold)
    return env


class Worker:
    """A worker process, the CPU seconds it spent becoming ready and, for a
    set-up process, the CPU seconds of its reference kernel."""

    def __init__(self, args, mode: str, timeout: float):
        cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
        self.deadline = time.monotonic() + timeout
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(args.workload), stdout=subprocess.PIPE, text=True)
        try:
            fields = self._line().split()
        except BaseException:
            self.stop()
            raise
        if fields[:1] != ["ready"]:
            self.stop()
            raise RuntimeError(f"{mode} worker did not become ready (exit {self.proc.returncode})")
        self.setup_s = float(fields[1])
        self.reference_s = float(fields[2]) if len(fields) > 2 else None

    def _line(self) -> str:
        left = self.deadline - time.monotonic()
        if left <= 0 or not select.select([self.proc.stdout], [], [], left)[0]:
            raise TimeoutError("worker timed out")
        return self.proc.stdout.readline()

    def result(self) -> dict:
        try:
            line = self._line()
        finally:
            self.stop()
        if self.proc.returncode != 0 or not line.strip():
            raise RuntimeError(f"worker failed (exit {self.proc.returncode})")
        return json.loads(line)

    def stop(self) -> None:
        """Wait for the process to end, killing it once its deadline has passed."""
        try:
            self.proc.wait(timeout=max(self.deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def measure(args) -> dict:
    """End-to-end run: set-up samples, then one closed-loop measurement.

    Every CPU time is multiplied by NOMINAL_S over the time of the
    reference kernel around it in the same process (local_reference); the
    unscaled figures are kept in the result file as raw_metrics.
    """
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        worker = Worker(args, "setup", GRACE_S)
        worker.stop()
        setups.append((worker.setup_s, worker.reference_s))
    worker = Worker(args, "measure", WALL_CAP * args.seconds + GRACE_S)
    result = worker.result()
    jobs, kernel = result["jobs"], result["reference_runs"]
    reference = local_reference(len(jobs), kernel)
    setups.append((worker.setup_s, statistics.median(sum(parts) for _, *parts in kernel[:REF_WINDOW])))
    scaled = job_metrics(jobs, [NOMINAL_S / ref for ref in reference])
    raw = job_metrics(jobs, [1.0] * len(jobs))
    scaled["setup_s"] = statistics.median(cpu * NOMINAL_S / ref for cpu, ref in setups)
    raw["setup_s"] = statistics.median(cpu for cpu, _ in setups)
    for metrics in (scaled, raw):
        metrics["peak_rss_mib"] = result["peak_rss_mib"]
    p, _ = tail_percentile([cpu * NOMINAL_S / ref for (cpu, _, good, _), ref in zip(jobs, reference) if good])
    result.update(metrics=scaled, raw_metrics=raw, reference_median_s=statistics.median(reference),
                  setup_samples=setups, tail_percentile=p)
    return result


def local_reference(count: int, kernel, window: int = REF_WINDOW) -> list:
    """Reference kernel time for each of ``count`` jobs.

    ``kernel`` holds [jobs run before it, part times...] per kernel run.
    A job's reference is the median over the ``window`` kernel runs
    nearest it, half before it and half after, since the host's speed
    moves within seconds.
    """
    at = [k[0] for k in kernel]
    times = [sum(parts) for _, *parts in kernel]
    out = []
    for i in range(count):
        j = bisect.bisect_right(at, i)  # kernel runs [0, j) came before job i
        lo = min(max(j - window // 2, 0), max(len(times) - window, 0))
        out.append(statistics.median(times[lo:lo + window]))
    return out


def job_metrics(jobs, scales) -> dict:
    """End-to-end job metrics from [cpu_s, wall_s, ok, error] records, each time multiplied by its scale."""
    cpu = [r[0] * scale for r, scale in zip(jobs, scales)]
    ok = [c for c, r in zip(cpu, jobs) if r[2]]
    _, tail = tail_percentile(ok)
    return {
        "jobs_per_s": len(ok) / sum(cpu),
        "job_s.p50": percentile(ok, 50) if ok else 0.0,
        "job_s.tail": tail if tail is not None else 0.0,
        "ok_frac": len(ok) / len(jobs),
    }


def trace(args) -> dict:
    """Per-layer run: one process replays a fixed job list untraced, with spans, and with peak tracking."""
    worker = Worker(args, "trace", args.seconds + TRACE_GRACE_S)
    result = worker.result()
    jobs = len(result["jobs"])
    untraced, traced = jobs / result["untraced_cpu_s"], jobs / result["cpu_s"]
    result["metrics"] = dict(result.pop("per_layer"))
    result["metrics"]["trace.jobs_per_s_delta"] = traced - untraced
    result["metrics"]["trace.overhead_frac"] = 1.0 - traced / untraced
    return result


def report(args, spec, result) -> dict:
    """Print the human summary and return the contract's result object."""
    kind = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[kind]}
    jobs = result["jobs"]
    failed = [err for *_, good, err in jobs if not good]
    print(f"{args.workload} seed {args.seed}: {len(jobs)} jobs attempted, {len(failed)} failed "
          f"(failed_frac {len(failed) / max(len(jobs), 1):.4f}); output checks "
          f"{'passed' if not failed else 'FAILED'}")
    for err in failed[:5]:
        print(f"  failed: {err}")
    for name, unit in declared.items():
        note = ""
        if name == "setup_s":
            note = f"  (median of {SETUP_SAMPLES} processes)"
        elif name == "job_s.tail":
            note = f"  (p{result['tail_percentile']}, {TAIL_BEYOND} completed jobs beyond it)"
        if "raw_metrics" in result:
            note = f"  unscaled {result['raw_metrics'][name]:.6g}{note}"
        print(f"  {name:<40s} {result['metrics'].get(name, 0):>14.6g} {unit}{note}")
    if "reference_median_s" in result:
        print(f"  reference kernel: median {result['reference_median_s']:.4f} s over "
              f"{len(result['reference_runs'])} runs; each job's time scaled by "
              f"{NOMINAL_S} s / the median of the {REF_WINDOW} runs nearest it")
    print("manifest " + json.dumps(result["manifest"]))
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return {
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {name: {"value": result["metrics"].get(name, 0), "unit": unit} for name, unit in declared.items()},
    }


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        args.workload = name
        result = trace(args) if args.trace else measure(args)
        results[name] = report(args, spec, result)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
