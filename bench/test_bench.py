"""Tests of the benchmark itself: statistics, span arithmetic, inputs and bypass predictions.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

import os
import sys
from itertools import islice

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402
from run import TAIL_BEYOND, job_metrics, local_reference, tail_percentile  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402


def test_tail_is_highest_percentile_with_ten_beyond():
    values = [float(v) for v in range(1, 101)]
    assert tail_percentile(values) == (90, 90.0)
    p, value = tail_percentile(values[:25])
    assert sum(v > value for v in values[:25]) >= TAIL_BEYOND
    # One percentile higher would leave fewer than ten values beyond.
    above = sorted(values[:25])[-(TAIL_BEYOND):]
    assert value < min(above) and p == 60


def test_tail_needs_more_than_ten_values():
    assert tail_percentile([1.0] * 5 + [2.0] * 5) == (None, None)
    assert tail_percentile([float(v) for v in range(11)])[1] == 0.0


def test_scaling_moves_times_and_rates_by_the_same_factor():
    jobs = [[0.1 * (i + 1), 0.0, True, None] for i in range(20)] + [[5.0, 0.0, False, "x"]]
    raw, scaled = job_metrics(jobs, [1.0] * 21), job_metrics(jobs, [0.5] * 21)
    for name in ("job_s.p50", "job_s.tail"):
        assert scaled[name] == pytest.approx(0.5 * raw[name])
    # A failed job's time counts against the rate; it is not a completed job.
    assert raw["jobs_per_s"] == pytest.approx(20 / (sum(0.1 * (i + 1) for i in range(20)) + 5.0))
    assert scaled["jobs_per_s"] == pytest.approx(2.0 * raw["jobs_per_s"])
    assert raw["ok_frac"] == scaled["ok_frac"] == 20 / 21


def test_a_job_is_scaled_by_the_kernel_runs_nearest_it():
    # Kernel runs before jobs 0, 2, 4 and 6 and after the last job (6 jobs).
    kernel = [[0, 1.0], [2, 2.0], [4, 3.0], [6, 4.0], [6, 5.0]]
    ref = local_reference(6, kernel, window=4)
    assert ref[0] == ref[1] == 2.5  # clamped to the first four runs
    assert ref[2] == ref[3] == 2.5 and ref[4] == ref[5] == 3.5
    # A window wider than the run takes every kernel run.
    assert local_reference(6, kernel, window=8) == [3.0] * 6


def test_run_length_is_whole_rounds():
    for name in workloads.WORKLOADS:
        per_round = len(workloads.size_classes(name))
        assert workloads.run_length(name, 30) % per_round == 0
        assert workloads.run_length(name, 30) > TAIL_BEYOND
    assert workloads.run_length("certify_sweep", 0.01) == len(workloads.size_classes("certify_sweep"))


def test_self_time_subtracts_direct_children():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7].
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    assert list(self_times(start, end, parent)) == [3.0, 3.0, 3.0, 1.0]


def test_tracer_metrics_on_a_synthetic_tree():
    tracer = Tracer()
    job = tracer.site_id("bench.job", "bench.job")
    outer = tracer.site_id("usdsep.cone.certify", "cone.certify")
    inner = tracer.site_id("usdsep.cone.nnls", "numerics.nnls")
    for sid, start, end, parent in ((job, 0.0, 8.0, -1), (outer, 1.0, 7.0, 0), (inner, 2.0, 4.0, 1), (inner, 4.0, 5.0, 1)):
        tracer.site.append(sid)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
        tracer.job.append(0)
    m = tracer.metrics()
    assert m["cone.certify.calls"] == 1 and m["cone.certify.self_s"] == 3.0
    assert m["numerics.nnls.calls"] == 2 and m["numerics.nnls.self_s"] == 3.0
    assert m["cone.nnls.calls"] == 2  # the site-level view of the same calls
    assert m["share.cone"] == 3.0 / 8.0 and m["share.numerics"] == 3.0 / 8.0 and m["share.bench"] == 2.0 / 8.0


def test_rounds_repeat_for_a_seed_and_cover_every_stratum():
    for name in workloads.WORKLOADS:
        first = list(islice(workloads.rounds(name, 7), 3))
        assert first == list(islice(workloads.rounds(name, 7), 3))
        assert first != list(islice(workloads.rounds(name, 8), 3))
    certify = next(workloads.rounds("certify_sweep", 1))
    assert {(job["n"], tuple(job["dims"])) for job in certify} == set(workloads.CERTIFY_CLASSES)
    assert len(certify) == len(workloads.CERTIFY_CLASSES)
    for n, dims in workloads.CERTIFY_CLASSES:
        assert workloads.is_prime(n) and dims in workloads.multiparty(n, workloads.CERTIFY_MAX_PARTY)
    dense = next(workloads.rounds("dense_family", 1))
    assert max(job["n"] for job in dense) == workloads.DENSE_BAND[1]


def test_factorizations_match_the_library():
    from usdsep import ascending_factorizations

    for d in (4, 12, 60, 96, 292):
        assert workloads.factorizations(d) == ascending_factorizations(d)


# One small job of every kind each workload runs.
SMALL_JOBS = {
    "certify_sweep": [{"kind": "certify", "n": 13, "dims": [2, 6], "omit": 4}],
    "dense_family": [{"kind": "dense", "n": 13, "dims": [3, 4], "omit": 2}],
    "multicopy_sim": [
        {"kind": "disc", "n": 7, "dims": [2, 3], "omit": 2, "seed": 1, "trials": 2000},
        {"kind": "multicopy", "n": 5, "copies": 2, "omit": 1, "seed": 2, "trials": 2000},
        {"kind": "certify2", "n": 5, "omit": 3},
    ],
}


def traced_metrics(name, tmp_path):
    runner = workloads.Runner(str(tmp_path))
    tracer = Tracer()
    tracer.install()
    try:
        for i, job in enumerate(SMALL_JOBS[name]):
            tracer.run_job(i, runner.run, job)
    finally:
        tracer.uninstall()
    return tracer.metrics()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("scratch")


@pytest.fixture(scope="module")
def traced(scratch):
    return {name: traced_metrics(name, scratch) for name in SMALL_JOBS}


def test_bypass_predictions(traced):
    assert traced["dense_family"].get("cone.certify.calls", 0) == 0
    assert traced["dense_family"]["cli.main.calls"] == 2
    assert traced["dense_family"]["serialize.dumps.calls"] == 2
    for name in ("certify_sweep", "multicopy_sim"):
        assert traced[name].get("serialize.dumps.calls", 0) == 0
        assert traced[name]["cone.certify.calls"] >= 1


def test_counts_repeat_exactly(traced, scratch):
    again = {name: traced_metrics(name, scratch) for name in SMALL_JOBS}
    exact = ("numerics.nnls.calls", "numerics.vec_herm.calls", "instance.reciprocal_set.calls",
             "simulator.reciprocal_set.calls", "instance.projector_bytes", "usd.measurement_bytes",
             "serialize.bytes_out", "simulator.multicopy_bytes", "cone.ray_classes")
    for name in SMALL_JOBS:
        for key in exact:
            assert traced[name].get(key) == again[name].get(key), (name, key)
    # Today each multicopy discrimination builds the reciprocal set twice.
    assert traced["multicopy_sim"]["simulator.reciprocal_set.calls"] == 3


def test_uninstall_restores_the_package():
    import usdsep.cone
    import usdsep.numerics

    before = (usdsep.cone.nnls, usdsep.numerics.vec_herm, usdsep.cone.certify)
    tracer = Tracer()
    tracer.install()
    assert usdsep.cone.nnls is not before[0]
    tracer.uninstall()
    assert (usdsep.cone.nnls, usdsep.numerics.vec_herm, usdsep.cone.certify) == before


def test_a_wrong_answer_counts_as_failed():
    report = type("Report", (), {"theoretical_failure": 0.5, "empirical_failure": 0.6, "trials": 10_000})()
    with pytest.raises(workloads.CheckFailed):
        workloads._within_sigma(report, "single copy")
