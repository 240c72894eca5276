"""Tests for the weighted discrimination measurements."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

import usdsep.cone
import usdsep.numerics
import usdsep.usd
from usdsep import (
    NotPSDError,
    build_measurement,
    failure_probability,
    family_product_ops,
    make_instance,
    optimal_measurement,
    proj,
    reciprocal_set,
)
from usdsep.usd import _top_secular_root
from tests.oracles import dense_born_table, dense_search
from tests.test_instance import all_instances


def dense_failure_operator(inst, m):
    """I - sum_j w_j P_j, written out from the projectors."""
    elements = [w * proj(inst.state(j)) for w, j in zip(m.weights, m.indices)]
    return np.eye(inst.total_dim) - sum(elements)


def test_build_measurement_symmetric_point():
    inst = make_instance(5)
    r = reciprocal_set(inst)
    m = optimal_measurement(inst)
    assert np.allclose(m.weights, 0.8, atol=1e-15)
    # Every input fails with (D/N) q = 1/2, the omitted label's cell.
    assert np.allclose(failure_probability(m, r).per_state_failure, 0.5, atol=1e-15)
    # The failure operator collapses onto the omitted projector.
    failure = dense_failure_operator(inst, m)
    assert np.linalg.norm(failure - 0.8 * proj(inst.state(1))) <= 1e-12
    assert np.linalg.matrix_rank(failure, tol=1e-10) == 1


def test_build_measurement_zero_weights():
    inst = make_instance(5)
    m = build_measurement(inst, np.zeros(4))
    rep = failure_probability(m, reciprocal_set(inst))
    assert np.allclose(rep.per_state_failure, 1.0, atol=1e-15)
    assert m.min_eigenvalue == 1.0


def test_build_measurement_keeps_its_own_weights():
    # The measurement holds a copy: editing the caller's array after the
    # build leaves the weights, their checked eigenvalue and the failure
    # probability as they were.
    inst = make_instance(5)
    w = np.full(4, 0.8)
    m = build_measurement(inst, w)
    w[:] = 5.0
    assert np.array_equal(m.weights, np.full(4, 0.8)) and not m.weights.flags.writeable
    assert m.min_eigenvalue == pytest.approx(0.0, abs=1e-12)
    assert failure_probability(m, reciprocal_set(inst)).failure_probability == pytest.approx(0.5, abs=1e-12)


def test_build_measurement_rejects_infeasible_and_malformed():
    inst = make_instance(5)
    with pytest.raises(NotPSDError):
        build_measurement(inst, [0.9, 0.9, 0.9, 0.9])
    with pytest.raises(ValueError):
        build_measurement(inst, [-0.1, 0.8, 0.8, 0.8])
    with pytest.raises(ValueError):
        build_measurement(inst, [0.8, 0.8, 0.8])
    for bad in ([0.8, 0.8, 0.8, np.nan], [np.inf, 0.0, 0.0, 0.0]):
        with pytest.raises(ValueError, match="weights must be finite"):
            build_measurement(inst, bad)


def test_failure_is_half_at_n_401():
    inst = make_instance(401)
    r = reciprocal_set(inst)
    rep = failure_probability(optimal_measurement(inst), r)
    assert abs(rep.failure_probability - 0.5) <= 1e-12
    assert np.max(np.abs(r.overlaps - 401 / 800)) <= 1e-10


def test_failure_probability_values():
    inst = make_instance(5)
    r = reciprocal_set(inst)
    m = optimal_measurement(inst)
    rep = failure_probability(m, r)
    assert abs(rep.failure_probability - 0.5) <= 1e-12
    assert rep.optimal
    assert m.min_eigenvalue >= -1e-10
    assert np.allclose(r.overlaps * m.weights, 0.5, atol=1e-12)

    rep0 = failure_probability(build_measurement(inst, np.zeros(4)), r)
    assert abs(rep0.failure_probability - 1.0) <= 1e-12
    assert not rep0.optimal

    rep_half = failure_probability(build_measurement(inst, np.full(4, 0.5)), r)
    assert abs(rep_half.failure_probability - 11.0 / 16.0) <= 1e-12


def test_failure_probability_closed_form_matches_born_rule():
    rng = np.random.default_rng(99)
    for inst in all_instances():
        r = reciprocal_set(inst)
        d = inst.total_dim
        for _ in range(10):
            w = rng.uniform(0.0, 2.0 * d / inst.n, size=d)
            try:
                m = build_measurement(inst, w)
            except NotPSDError:
                continue
            rep = failure_probability(m, r)
            closed = 1.0 - inst.n / (2.0 * d * d) * w.sum()
            assert abs(rep.failure_probability - closed) <= 1e-12


def test_failure_probability_rejects_mismatched_pairs():
    r5 = reciprocal_set(make_instance(5))
    m7 = optimal_measurement(make_instance(7))
    with pytest.raises(ValueError):
        failure_probability(m7, r5)


def test_optimal_is_half_for_all_families():
    for inst in all_instances():
        r = reciprocal_set(inst)
        rep = failure_probability(optimal_measurement(inst), r)
        assert abs(rep.failure_probability - 0.5) <= 1e-12, (inst.n, inst.dims)


def within_pair_cap(inst, w):
    """w_k + w_l <= 2D/N for every pair of retained labels, up to rounding."""
    return np.partition(w, -2)[-2:].sum() <= 2.0 * inst.total_dim / inst.n + 1e-10


def test_pairwise_bound_examples():
    inst = make_instance(5)
    assert within_pair_cap(inst, [0.8, 0.8, 0.8, 0.8])
    assert within_pair_cap(inst, [1.6, 0.0, 0.0, 0.0])
    assert not within_pair_cap(inst, [1.0, 0.7, 0.0, 0.0])
    # Positivity forces the cap: the symmetric point meets it, a pair past it is infeasible.
    build_measurement(inst, [0.8, 0.8, 0.8, 0.8])
    with pytest.raises(NotPSDError):
        build_measurement(inst, [1.0, 0.7, 0.0, 0.0])


def test_psd_feasible_weights_respect_pairwise_bound():
    # Positivity of the failure operator forces every weight pair under
    # 2D/N.  Random rays scaled to (or near) the feasibility boundary
    # give feasible vectors well outside the trivial all-below-D/N box;
    # every one of them must still satisfy the pairwise bound.
    rng = np.random.default_rng(17)
    for inst in all_instances():
        d = inst.total_dim
        projs = np.array([proj(inst.state(j)) for j in inst.retained])
        for _ in range(50):
            ray = rng.uniform(0.0, 1.0, size=d)
            top = np.linalg.eigvalsh(np.einsum("j,jab->ab", ray, projs))[-1]
            w = ray * rng.uniform(0.5, 1.0) / top
            build_measurement(inst, w)
            assert within_pair_cap(inst, w)


def test_increasing_any_weight_lowers_failure():
    inst = make_instance(5)
    r = reciprocal_set(inst)
    rng = np.random.default_rng(31)
    for _ in range(20):
        w = rng.uniform(0.0, 0.7, size=4)
        base = failure_probability(build_measurement(inst, w), r).failure_probability
        k = int(rng.integers(0, 4))
        bumped = w.copy()
        bumped[k] += 0.05
        better = failure_probability(
            build_measurement(inst, bumped), r
        ).failure_probability
        assert better < base


def test_q_values_two_routes_agree():
    # q_j is the squared partner overlap and, equally, the squared overlap
    # with the omitted state; reciprocal_set bounds the gap between the two
    # routes, which the dense cross product measures.
    for n, q in ((5, 0.625), (7, 7.0 / 12.0)):
        inst = make_instance(n)
        r = reciprocal_set(inst)
        born = dense_born_table(inst, r)
        partner = born[np.arange(n - 1), np.subtract(r.indices, 1)]
        with_omitted = born[:, inst.omit - 1]
        assert np.allclose(r.overlaps, q, atol=1e-12)
        assert np.allclose(with_omitted, q, atol=1e-12)
        assert float(np.max(np.abs(partner - with_omitted))) <= r.residuals["derived overlap bound"]


def test_oracle_optimize_never_beats_half():
    inst = make_instance(5)
    res = dense_search(inst, samples=20_000, seed=5)
    assert res.best_failure >= 0.5 - 1e-9
    assert res.feasible_count > 0
    assert res.max_weight_sum <= 16.0 / 5.0 + 1e-9
    # Reproducible for a fixed seed.
    res2 = dense_search(inst, samples=20_000, seed=5)
    assert res2.best_failure == res.best_failure
    assert np.array_equal(res2.best_weights, res.best_weights)


def test_low_failure_needs_nearly_symmetric_weights():
    """Grid search: sub-0.51 failure only happens near the symmetric point.

    Pr(f) = 1 - (5/32) sum(w), so Pr(f) < 0.51 forces sum(w) > 3.136, and
    the pairwise cap w_k + w_l <= 1.6 then pins every coordinate inside
    [3.136 - 1.6 - 0.8, 1.6 - 0.736] = [0.736, 0.864].  Enumerating that box
    on the 0.01 grid and keeping the PSD-feasible points, the largest
    max-norm deviation from 0.8 is exactly 0.06 (e.g. (0.74, 0.8, 0.8, 0.8),
    whose failure operator 0.8 P_1 + 0.06 P_2 is PSD with Pr(f) = 0.509375).
    Random grid points outside the box must all be infeasible or >= 0.51.
    """
    inst = make_instance(5)
    projs = np.array([proj(inst.state(j)) for j in (2, 3, 4, 5)])
    eye = np.eye(4, dtype=complex)
    sum_floor = 32.0 / 5.0 * (1.0 - 0.51)  # sum(w) above this iff Pr(f) < 0.51
    pair_cap = 1.6

    lo = sum_floor - pair_cap - 0.8  # one pair at the cap, one partner at most 0.8
    hi = pair_cap - lo
    grid = np.round(np.arange(np.floor(lo * 100) / 100, hi + 0.005, 0.01), 10)
    pts = np.array(list(itertools.product(grid, repeat=4)))
    pts = pts[pts.sum(axis=1) > sum_floor]
    pair_ok = np.ones(len(pts), dtype=bool)
    for a in range(4):
        for b in range(a + 1, 4):
            pair_ok &= pts[:, a] + pts[:, b] <= pair_cap + 1e-12
    cand = pts[pair_ok]
    fail_ops = eye[None] - np.einsum("sj,jab->sab", cand, projs)
    feasible = cand[np.linalg.eigvalsh(fail_ops)[:, 0] >= -1e-10]
    assert len(feasible) > 0
    deviation = np.abs(feasible - 0.8).max(axis=1)
    assert deviation.max() <= 0.06 + 1e-12

    rng = np.random.default_rng(823)
    outside = rng.integers(0, 161, size=(100_000, 4)) * 0.01
    outside = outside[np.abs(outside - 0.8).max(axis=1) > 0.06 + 1e-12]
    hot = outside[outside.sum(axis=1) > sum_floor]
    if len(hot):
        ops = eye[None] - np.einsum("sj,jab->sab", hot, projs)
        assert np.all(np.linalg.eigvalsh(ops)[:, 0] < -1e-10)


def test_measurement_annihilates_unpartnered_reciprocals():
    # Outcome k has zero Born weight on every reciprocal state but its own:
    # that is the unambiguous part of the discrimination.
    for inst in all_instances():
        r = reciprocal_set(inst)
        m = optimal_measurement(inst)
        for i, j in enumerate(m.indices):
            amps = np.abs(r.states.conj() @ inst.state(j)) ** 2 * m.weights[i]
            stray = np.delete(amps, i)
            assert stray.max() <= 1e-10


def test_per_state_failure_is_the_born_trace_of_each_input():
    inst = make_instance(13, (2, 6), 3)
    r = reciprocal_set(inst)
    m = build_measurement(inst, np.linspace(0.2, 0.8, 12))
    rep = failure_probability(m, r)
    failure = dense_failure_operator(inst, m)
    expected = [np.vdot(phi, failure @ phi).real for phi in r.states]
    assert np.allclose(rep.per_state_failure, expected, atol=1e-14)
    assert rep.per_state_failure.mean() == rep.failure_probability


def test_measurement_and_failure_allocate_no_operator():
    # A (D, D) complex operator at N = 1009 is 16 MB; the weights and the
    # per-input failures are a few kB each.
    inst = make_instance(1009)
    r = reciprocal_set(inst)
    w = np.linspace(0.0, inst.total_dim / inst.n, inst.total_dim)
    tracemalloc.start()
    try:
        rep = failure_probability(build_measurement(inst, w), r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert rep.per_state_failure.shape == (inst.total_dim,)


class DenseEigensolverCalled(RuntimeError):
    pass


def test_build_measurement_needs_no_dense_eigensolver(monkeypatch):
    def refuse(*args, **kwargs):
        raise DenseEigensolverCalled

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for n in (5, 61, 211):
        inst = make_instance(n)
        d = inst.total_dim
        assert abs(optimal_measurement(inst).min_eigenvalue) <= d * np.finfo(float).eps
        m = build_measurement(inst, np.linspace(0.0, d / n, d))
        assert m.min_eigenvalue >= 0.0
    # The oracle stays the independent dense route.
    with pytest.raises(DenseEigensolverCalled):
        dense_search(make_instance(5), samples=10, seed=0)


def test_tied_top_weight_needs_no_sort(monkeypatch):
    # Every optimal measurement ties all D weights at D/N: a tie at the top
    # weight is the root, found by a max and a count, not by np.unique.
    def refuse(*args, **kwargs):
        raise AssertionError("np.unique called")

    instances = [make_instance(n) for n in (5, 61, 211)]
    monkeypatch.setattr(np, "unique", refuse)
    assert _top_secular_root(np.full(6, 6 / 7), 7) == 6 / 7
    assert _top_secular_root(np.array([0.0, 0.1, 0.3, 0.3]), 7) == 0.3
    assert _top_secular_root(np.zeros(4), 7) == 0.0
    assert _top_secular_root(np.array([-0.0, 0.0]), 7) == 0.0
    for inst in instances:
        d = inst.total_dim
        assert optimal_measurement(inst).min_eigenvalue == 1.0 - inst.n / d * (d / inst.n)


@pytest.mark.parametrize(
    "weights", [(1e-320, 0.0, 0.0, 0.0), (3e-310, 1e-310, 0.0, 0.0), (1e-320, 5e-324, 0.0, 0.0)]
)
def test_secular_root_of_subnormal_weights(weights):
    # The slope overflows here, so the search bisects, and 5e-324's
    # coefficient w / 5 underflows to 0.  Scaling by a power of two is
    # exact: the root of the weights times 2^1000, divided back, is the
    # reference, to a few ulps of the subnormal spacing.
    w = np.array(weights)
    want = _top_secular_root(w * 2.0**1000, 5) / 2.0**1000
    assert abs(_top_secular_root(w, 5) - want) <= 4.0 * np.spacing(want)


def test_family_product_ops_admits_n_1009():
    ops = family_product_ops(make_instance(1009))
    assert len(ops) == 1009


@pytest.mark.parametrize(
    "n, dims, copies",
    [(1009, None, 1), (71, (5, 14), 1), (5, None, 2), (5, None, 3), (401, (20, 20), 1), (73, (2, 2, 2, 3, 3), 1)],
)
def test_family_peak_is_within_its_largest_pass_estimate(monkeypatch, n, dims, copies):
    # The builder admits each party's certify pass and nothing else, and
    # the largest of those estimates bounds the traced peak of the build.
    inst = make_instance(n, dims)
    family_product_ops(inst, copies)  # the local states are read once
    estimates = []
    admit_pass = usdsep.usd._admit_pass

    def record(party, r, d):
        estimates.append(usdsep.cone._pass_bytes(r, d * d))
        admit_pass(party, r, d)

    monkeypatch.setattr(usdsep.usd, "_admit_pass", record)
    tracemalloc.start()
    try:
        family_product_ops(inst, copies)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(estimates) == len(inst.dims)
    assert peak <= max(estimates), (peak, estimates)


def test_a_family_pass_past_the_memory_left_is_refused_before_its_factors(monkeypatch):
    # N = 227 has dims 2 and 113: party 1's pass needs about 111 MiB, and
    # the family's 227 factors 45 MiB, all refused before they are built.
    inst = make_instance(227)
    monkeypatch.setattr(usdsep.numerics, "_memory_limit", lambda: (100 * 2**20, "MemAvailable"))
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError) as refused:
            family_product_ops(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == (
        "the certify pass of party 1 (227 factors of dimension 113) needs about 111 MiB "
        "for its arrays, over the 100 MiB of MemAvailable"
    )
    assert peak < 2 << 20, peak


def test_a_family_whose_pass_estimate_overflows_is_refused_by_its_copy_count():
    # 5^300 is finite but its pass estimate is not: the family is refused by
    # its copy count, with no overflow warning (pytest makes one an error).
    with pytest.raises(MemoryError, match="^the 300-copy family of N = 5 needs about inf MiB for its factors, over"):
        family_product_ops(make_instance(5), 300)


def _ascending(m, least=2):
    """Every nondecreasing tuple of factors >= least whose product is m."""
    if m == 1:
        yield ()
    for f in range(least, m + 1):
        if m % f == 0:
            yield from ((f,) + rest for rest in _ascending(m // f, f))


def _factor_bytes(n, dims, copies):
    """What a family's build holds: every party's (N^n, d^n, d^n) stack and n-copy
    states and conjugates, 136 B per factor view, 80 B per outcome's list, and
    the buffers of one broadcast product."""
    r = float(n) ** copies
    sides = [float(d) ** copies for d in dims]
    per_outcome = sum(16.0 * s * (s + 2.0) + 136.0 for s in sides)
    return r * (per_outcome + 80.0) + 32.0 * min(r * max(sides) ** 2, np.getbufsize())


def test_the_largest_pass_estimate_dominates_the_factors():
    # Over every prime N < 2000, every ascending factorization and every copy
    # count whose factors need from admit's floor up to 16 TiB, the largest
    # pass needs at least 1.15 times what the factors hold (1.19 at worst,
    # at (1601; 40, 40)), so admitting the passes admits the factors.
    sieve = np.ones(2000, bool)
    sieve[:5] = False
    for p in range(2, 45):
        sieve[p * p :: p] = False
    least, families = math.inf, 0
    for n in np.flatnonzero(sieve).tolist():
        for dims in _ascending(n - 1):
            copies = 1
            while (need := _factor_bytes(n, dims, copies)) <= 2**44:
                if need >= usdsep.numerics._ADMIT_FLOOR:
                    largest = usdsep.cone._pass_bytes(float(n) ** copies, float(max(dims)) ** (2 * copies))
                    least, families = min(least, largest / need), families + 1
                copies += 1
    assert families > 4000
    assert least >= 1.15, least
