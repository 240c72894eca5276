"""Tests for the sampling layer and the multicopy measurement."""

import dataclasses
import itertools
import json
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import usdsep.cli
import usdsep.simulator
from usdsep import (
    InvariantError,
    SimConfig,
    ascending_factorizations,
    build_measurement,
    complement_decomposition,
    failure_probability,
    family_product_ops,
    is_prime,
    kron_all,
    make_instance,
    multicopy_measurement,
    optimal_measurement,
    proj,
    reciprocal_set,
    run_discrimination,
    run_multicopy_discrimination,
)
from usdsep.simulator import _named_rows, _single_rows
from tests.oracles import (
    by_label,
    group_by_label,
    reference_failure_probability,
    reference_run_discrimination,
    tuple_labels,
)


def five_sigma_band(p, trials):
    return 5.0 * np.sqrt(p * (1.0 - p) / trials)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(seed=0, trials=0)
    with pytest.raises(ValueError):
        SimConfig(seed=0, trials=10, copies=0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SimConfig(seed=-1, trials=10)
    with pytest.raises(ValueError, match=r"2\*\*63"):
        SimConfig(seed=0, trials=2**63)
    assert SimConfig(seed=0, trials=2**63 - 1).trials == 2**63 - 1
    with pytest.raises(ValueError, match=r"copies must be >= 1 and < 2\*\*63"):
        SimConfig(seed=0, trials=10, copies=2**63)
    assert SimConfig(seed=0, trials=10, copies=2**63 - 1).copies == 2**63 - 1
    # Non-integers are refused, as make_instance refuses them, instead of
    # being truncated by numpy or reaching its TypeError.
    for bad in (
        {"seed": 0, "trials": 2.5},
        {"seed": 0, "trials": True},
        {"seed": 0, "trials": 10, "copies": True},
        {"seed": 0.5, "trials": 10},
        {"seed": 0, "trials": 10, "copies": 2.0},
        {"seed": "0", "trials": 10},
        {"seed": 0, "trials": "10"},
        {"seed": 0, "trials": 10, "copies": "2"},
    ):
        with pytest.raises(ValueError, match="must be integers"):
            SimConfig(**bad)


def born_reference(inst, copies):
    """Dense outcome distributions of the n-copy symmetric measurement.

    Row i, column t: <phi_i^(x n)| (D/N)^n P_(t_1) x ... x P_(t_n) |phi_i^(x n)>
    for the label tuples t in itertools.product order.
    """
    scale = (inst.total_dim / inst.n) ** copies
    tuples = itertools.product(range(1, inst.n + 1), repeat=copies)
    elements = [scale * kron_all([proj(inst.state(j)) for j in t]) for t in tuples]
    inputs = [kron_all([phi] * copies) for phi in reciprocal_set(inst).states]
    rows = [[np.real(x.conj() @ e @ x) for e in elements] for x in inputs]
    return np.array(elements), np.array(rows)


def test_outcome_distribution_on_omitted_state():
    # The assembled product outcomes are a POVM; on the omitted state the
    # failure outcome (label 1) carries 0.8 and each other outcome 0.05.
    inst = make_instance(5)
    psi = inst.state(1)
    probs = [np.real(psi.conj() @ kron_all(f) @ psi) for f in family_product_ops(inst)]
    assert np.allclose(probs, [0.8, 0.05, 0.05, 0.05, 0.05], atol=1e-12)


def test_outcome_distribution_on_reciprocal_input():
    inst = make_instance(5)
    _, rows = born_reference(inst, 1)
    probs = rows[reciprocal_set(inst).indices.index(3)]
    expected = np.zeros(5)
    expected[3 - 1] = 0.5
    expected[inst.omit - 1] = 0.5
    assert np.allclose(probs, expected, atol=1e-12)


def test_outcome_distribution_rejections():
    # Rows that are not a probability distribution come from a broken Born
    # table.  The tampering moves delta from row 1's omitted cell to row 0's,
    # which keeps the average failure, so only the per-input rows can catch
    # it; a failure cell read as 1 minus the conclusive cells would not.
    inst = make_instance(5)
    r = reciprocal_set(inst)
    m = optimal_measurement(inst)

    def tampered(delta):
        born = r.born.copy()
        born[[0, 1], 1] += [delta, -delta]  # column 1: the omitted label's cell
        return dataclasses.replace(r, born=born)

    for copies in (1, 2):
        cfg = SimConfig(seed=0, trials=10, copies=copies)
        with pytest.raises(InvariantError, match="miss 1"):
            run_discrimination(inst, tampered(0.1), m, cfg)
        with pytest.raises(InvariantError, match="negative"):
            run_discrimination(inst, tampered(1.0), m, cfg)


def test_run_discrimination_frozen_seed():
    inst = make_instance(5)
    r = reciprocal_set(inst)
    m = optimal_measurement(inst)
    rep = run_discrimination(inst, r, m, SimConfig(seed=7, trials=100_000))
    assert rep.misidentifications == 0
    assert rep.empirical_failure == 0.50004
    assert abs(rep.theoretical_failure - 0.5) <= 1e-12
    assert abs(rep.empirical_failure - 0.5) <= five_sigma_band(0.5, 100_000)
    assert list(rep.counts.items()) == [
        ("2", 12511), ("3", 12419), ("4", 12458), ("5", 12608), ("fail", 50004)
    ]
    assert sum(rep.counts.values()) == 100_000
    assert 0.0 <= rep.tv_distance <= 0.01


def per_row_reference(rows, trials, seed):
    """The sampler's draw order spelled out: inputs first, then one row at a time."""
    rng = np.random.default_rng(seed)
    per_input = rng.multinomial(trials, np.full(len(rows), 1.0 / len(rows)))
    return np.array([rng.multinomial(c, row / row.sum()) for c, row in zip(per_input, rows)])


def random_rows(rng):
    """Outcome rows with zero bins, none all zero, normalized up to rounding."""
    n_inputs, n_outcomes = rng.integers(1, 9), rng.integers(1, 12)
    rows = rng.random((n_inputs, n_outcomes))
    rows[rng.random(rows.shape) < 0.3] = 0.0
    rows[:, 0] += 1e-3
    rows /= rows.sum(axis=1, keepdims=True)
    rows[0, 0] += 1e-12
    return rows


def test_sample_counts_match_the_per_row_reference():
    rng = np.random.default_rng(0)
    for case in range(50):
        rows = random_rows(rng)
        trials = int(rng.integers(1, 3000))
        cells = usdsep.simulator._sample_counts(rows, trials, case)
        expected = per_row_reference(rows, trials, case)
        assert cells.dtype == expected.dtype == np.int64
        assert np.array_equal(cells, expected)
        assert cells.sum() == trials


@pytest.mark.parametrize("n, copies", [(5, 1), (5, 2), (5, 3), (7, 2), (13, 1), (61, 1)])
def test_grouped_sampling_matches_the_masked_passes(n, copies):
    # The sampler draws every input's row in one grouped call; the reference
    # makes one pass per input, on the same stream.  The dense rows hold
    # rounding of about -1e-17 where they vanish, clipped as the law is.
    rows = np.maximum(born_reference(make_instance(n), copies)[1], 0.0)
    for seed in (0, 1, 7, 2**31 + 5):
        for trials in (1, 999, 20_000):
            cells = usdsep.simulator._sample_counts(rows, trials, seed)
            expected = per_row_reference(rows, trials, seed)
            assert cells.dtype == expected.dtype == np.int64
            assert np.array_equal(cells, expected)


def test_sampled_cells_follow_the_born_law():
    # Over many seeds each cell's mean count is trials * rows[i, k] / D
    # within 5 sigma of its binomial spread; a zero cell is never hit.
    rows = random_rows(np.random.default_rng(3))
    rows /= rows.sum(axis=1, keepdims=True)
    trials, seeds = 500, 2000
    total = np.zeros(rows.shape, dtype=np.int64)
    for seed in range(seeds):
        cells = usdsep.simulator._sample_counts(rows, trials, seed)
        assert not cells[rows == 0.0].any()
        total += cells
    p = rows / len(rows)
    sigma = np.sqrt(trials * p * (1.0 - p) / seeds)
    assert np.all(np.abs(total / seeds - trials * p) <= 5.0 * sigma)


def test_sample_counts_cost_does_not_grow_with_trials():
    rows = np.maximum(born_reference(make_instance(5), 2)[1], 0.0)
    start = time.perf_counter()
    cells = usdsep.simulator._sample_counts(rows, 2**62, 0)
    assert time.perf_counter() - start < 1.0
    assert cells.dtype == np.int64
    assert int(cells.sum()) == 2**62


def test_run_discrimination_allocates_no_per_trial_arrays():
    # The tallies are drawn directly, so ten million trials need no more
    # memory than a few small row tables, and a million copies no more than
    # one: the sampled law is (D, N) at every copy count.  A one-trial run
    # first keeps numpy's lazy imports out of the measured peak.
    for n, copies in ((5, 1), (61, 10**6)):
        inst = make_instance(n)
        r = reciprocal_set(inst)
        m = optimal_measurement(inst)
        run_discrimination(inst, r, m, SimConfig(seed=0, trials=1, copies=copies))
        cfg = SimConfig(seed=0, trials=10**7, copies=copies)
        tracemalloc.start()
        try:
            rep = run_discrimination(inst, r, m, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(rep.counts.values()) == 10**7
        assert peak < 2**20


def test_run_discrimination_is_deterministic():
    inst = make_instance(7)
    r = reciprocal_set(inst)
    m = optimal_measurement(inst)
    cfg = SimConfig(seed=123, trials=5_000)
    a = run_discrimination(inst, r, m, cfg)
    b = run_discrimination(inst, r, m, cfg)
    assert a.counts == b.counts
    assert a.empirical_failure == b.empirical_failure
    assert a.tv_distance == b.tv_distance


def test_run_discrimination_single_trial():
    inst = make_instance(5)
    rep = run_discrimination(
        inst,
        reciprocal_set(inst),
        optimal_measurement(inst),
        SimConfig(seed=3, trials=1),
    )
    assert sum(rep.counts.values()) == 1
    assert rep.misidentifications == 0


def test_run_discrimination_rejections():
    inst5 = make_instance(5)
    inst7 = make_instance(7)
    with pytest.raises(ValueError):
        run_discrimination(
            inst5,
            reciprocal_set(inst5),
            optimal_measurement(inst7),
            SimConfig(seed=0, trials=10),
        )


def test_run_discrimination_suboptimal_weights():
    # Lower weights keep the zero-error structure but raise the failure rate.
    inst = make_instance(5)
    r = reciprocal_set(inst)
    m = build_measurement(inst, np.full(4, 0.5))
    rep = run_discrimination(inst, r, m, SimConfig(seed=21, trials=50_000))
    assert rep.misidentifications == 0
    assert abs(rep.theoretical_failure - 11.0 / 16.0) <= 1e-12
    band = five_sigma_band(11.0 / 16.0, 50_000)
    assert abs(rep.empirical_failure - 11.0 / 16.0) <= band


def test_multicopy_single_copy_reduces_to_base_measurement():
    inst = make_instance(5)
    mm = multicopy_measurement(inst, copies=1)
    for j, factors in enumerate(mm.party_factors, start=1):
        assert np.linalg.norm(kron_all(factors) - 0.8 * proj(inst.state(j))) <= 1e-12
    assert abs(mm.theoretical_failure - 0.5) <= 1e-12


def test_multicopy_two_copies_structure():
    inst = make_instance(5)
    mm = multicopy_measurement(inst, copies=2)
    assert len(mm.party_factors) == 25
    assert all(f.shape == (4, 4) for factors in mm.party_factors for f in factors)
    assert abs(mm.theoretical_failure - 0.25) <= 1e-12


MULTICOPY_CASES = [(5, 1), (5, 2), (5, 3), (7, 2)]


@pytest.mark.parametrize("n, copies", MULTICOPY_CASES)
def test_multicopy_per_state_matches_dense_born_reference(n, copies):
    # The N^n tuple rows of the dense Born table, grouped by the label each
    # tuple names, are the (D, 2) law run_discrimination samples.
    inst = make_instance(n)
    r = reciprocal_set(inst)
    _, rows = born_reference(inst, copies)
    labels = tuple_labels(n, inst.omit, copies)
    law = _named_rows(_single_rows(r, optimal_measurement(inst)), copies)
    grouped = group_by_label(rows, labels, n)
    assert np.max(np.abs(grouped - by_label(law, r.indices, n, inst.omit))) <= 1e-12


def test_multicopy_zero_error_audit_holds_externally():
    # No tuple that names another input's label carries weight in the
    # dense Born table.
    for n, copies in MULTICOPY_CASES:
        inst = make_instance(n)
        r = reciprocal_set(inst)
        _, rows = born_reference(inst, copies)
        labels = tuple_labels(n, inst.omit, copies)
        for i, j in enumerate(r.indices):
            assert rows[i][(labels != j) & (labels != inst.omit)].max() <= 1e-10


def test_multicopy_party_factors_assemble_elements():
    # The reference elements order the tensor factors copy by copy;
    # party_factors group each party's copies together.  The two agree
    # after relabeling the basis by the corresponding axis permutation.
    for n, copies in MULTICOPY_CASES:
        inst = make_instance(n)
        mm = multicopy_measurement(inst, copies=copies)
        elements, _ = born_reference(inst, copies)
        p = len(inst.dims)
        axes_cm = list(inst.dims) * copies
        to_party_major = [k * p + alpha for alpha in range(p) for k in range(copies)]
        relabel = (
            np.arange(inst.total_dim**copies)
            .reshape(axes_cm)
            .transpose(to_party_major)
            .ravel()
        )
        assert len(mm.party_factors) == len(elements)
        for factors, element in zip(mm.party_factors, elements):
            assembled = kron_all(list(factors))
            permuted = element[np.ix_(relabel, relabel)]
            assert np.linalg.norm(assembled - permuted) <= 1e-12


def test_multicopy_failure_halves_per_copy():
    inst = make_instance(5)
    for n_copies in (1, 2, 3):
        mm = multicopy_measurement(inst, copies=n_copies)
        assert abs(mm.theoretical_failure - 0.5**n_copies) <= 1e-12


def test_multicopy_four_copies_fit():
    mm = multicopy_measurement(make_instance(5), copies=4)
    assert len(mm.party_factors) == 625
    assert abs(mm.theoretical_failure - 1.0 / 16.0) <= 1e-12


def test_multicopy_budget_guard():
    inst = make_instance(5)
    with pytest.raises(ValueError, match="limit"):
        multicopy_measurement(inst, copies=5)
    with pytest.raises(ValueError, match="limit"):
        multicopy_measurement(inst, copies=10**9)
    # Non-integer copies are refused, not truncated or passed to range().
    for bad in (0, True, 2.0, 2.5, "2"):
        with pytest.raises(ValueError):
            multicopy_measurement(inst, copies=bad)
        with pytest.raises(ValueError):
            family_product_ops(inst, bad)


def test_run_multicopy_discrimination():
    inst = make_instance(5)
    cfg = SimConfig(seed=11, trials=20_000, copies=2)
    rep = run_multicopy_discrimination(inst, cfg)
    assert rep.misidentifications == 0
    assert rep.copies == 2
    assert abs(rep.theoretical_failure - 0.25) <= 1e-12
    assert abs(rep.empirical_failure - 0.25) <= five_sigma_band(0.25, 20_000)
    assert set(rep.counts) == {"2", "3", "4", "5", "fail"}
    assert sum(rep.counts.values()) == 20_000
    again = run_multicopy_discrimination(inst, cfg)
    assert again.counts == rep.counts


def test_run_multicopy_builds_the_reciprocal_set_once(monkeypatch):
    calls = []
    original = usdsep.simulator.reciprocal_set

    def counting(inst):
        calls.append(1)
        return original(inst)

    monkeypatch.setattr(usdsep.simulator, "reciprocal_set", counting)
    inst = make_instance(5)
    rep = run_multicopy_discrimination(inst, SimConfig(seed=3, trials=1000, copies=2))
    assert len(calls) == 1
    assert set(rep.counts) == {"2", "3", "4", "5", "fail"}


def test_single_copy_table_is_built_once(monkeypatch):
    calls = []
    original = usdsep.simulator.failure_probability

    def counting(m, r):
        calls.append(1)
        return original(m, r)

    monkeypatch.setattr(usdsep.simulator, "failure_probability", counting)
    inst = make_instance(5)
    multicopy_measurement(inst, 2)
    assert len(calls) == 1
    r, m = reciprocal_set(inst), optimal_measurement(inst)
    for copies in (1, 2):
        calls.clear()
        run_discrimination(inst, r, m, SimConfig(seed=0, trials=10, copies=copies))
        assert len(calls) == 1


def test_run_multicopy_single_copy_agrees_with_single_path():
    inst = make_instance(5)
    r = reciprocal_set(inst)
    m = optimal_measurement(inst)
    for copies in (1, 2, 3):
        cfg = SimConfig(seed=5, trials=30_000, copies=copies)
        multi = run_multicopy_discrimination(inst, cfg)
        assert multi == run_discrimination(inst, r, m, cfg)
        assert multi.misidentifications == 0


def test_simulation_builds_no_certificate_factors(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("family_product_ops called")

    monkeypatch.setattr(usdsep.simulator, "family_product_ops", refuse)
    assert usdsep.cli.main(["simulate", "--n", "5", "--copies", "2", "--trials", "1000"]) == 0
    assert json.loads(capsys.readouterr().out)["copies"] == 2
    inst = make_instance(5)
    for copies in (1, 3):
        cfg = SimConfig(seed=0, trials=1000, copies=copies)
        run_discrimination(inst, reciprocal_set(inst), optimal_measurement(inst), cfg)


def test_a_weight_past_the_pair_cap_is_a_value_error():
    # psd_tol = 10 admits w = 2 > 2D/N = 1.6 at N = 5; the rows are refused
    # before the negative failure cell reaches an invariant check.
    inst = make_instance(5)
    m = build_measurement(inst, [0.0, 0.0, 2.0, 0.0], psd_tol=10.0)
    for copies in (1, 3):
        cfg = SimConfig(seed=0, trials=1000, copies=copies)
        with pytest.raises(ValueError, match=r"weight 2 of label 4 exceeds the pair cap"):
            run_discrimination(inst, reciprocal_set(inst), m, cfg)


ORACLE_PRIMES = [p for p in range(5, 62) if is_prime(p)]
ORACLE_COPIES = [1, 2, 3, 4, 5, 6, 10**6]


@st.composite
def weighted_cases(draw):
    """An instance of prime N in 5..61 (any factorization and omit label) and a measurement.

    The weights are the optimal ones, uniform on [0, D/N] (PSD-feasible:
    the retained projectors sum to at most (N/D) * identity), a few
    exactly tied levels, or uniform with zeros, possibly all of them.
    """
    n = draw(st.sampled_from(ORACLE_PRIMES))
    dims = draw(st.sampled_from(ascending_factorizations(n - 1)))
    inst = make_instance(n, dims, draw(st.integers(1, n)))
    d, kind = inst.total_dim, draw(st.sampled_from(["optimal", "random", "ties", "zeros"]))
    if kind == "optimal":
        return inst, optimal_measurement(inst)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.uniform(0.0, d / n, size=d)
    if kind == "ties":
        w = rng.choice([d / n, 0.5 * d / n, float(w[0])], size=d)
    elif kind == "zeros":
        w[rng.random(d) < draw(st.sampled_from([0.3, 1.0]))] = 0.0
    return inst, build_measurement(inst, w)


def same_outcome(route, *args):
    """The route's result, or the type and message of the error it raised."""
    try:
        return route(*args)
    except (InvariantError, ValueError) as exc:
        return type(exc), str(exc)


def assert_routes_agree(inst, r, m, cfg):
    rep = same_outcome(run_discrimination, inst, r, m, cfg)
    ref = same_outcome(reference_run_discrimination, inst, r, m, cfg)
    assert rep == ref
    if isinstance(ref, tuple):
        return
    assert list(rep.counts.items()) == list(ref.counts.items())
    for name in ("misidentifications", "empirical_failure", "theoretical_failure", "tv_distance"):
        assert type(getattr(rep, name)) is type(getattr(ref, name))
    assert all(type(v) is int for v in rep.counts.values())


@settings(max_examples=150, deadline=None, database=None)
@given(
    weighted_cases(),
    st.sampled_from(ORACLE_COPIES),
    st.integers(0, 2**32 - 1),
    st.integers(1, 10**7),
)
def test_run_discrimination_matches_the_earlier_route(case, copies, seed, trials):
    # Bit for bit: equal reports, floats compared by ==, counts in the same order.
    inst, m = case
    r = reciprocal_set(inst)
    report = failure_probability(m, r)
    born, traces, optimal = reference_failure_probability(m, r)
    assert report.failure_probability == born
    assert np.array_equal(report.per_state_failure, traces)
    assert report.optimal is optimal
    assert_routes_agree(inst, r, m, SimConfig(seed=seed, trials=trials, copies=copies))


def test_run_discrimination_matches_the_earlier_route_at_huge_trials():
    # Tallies past 2^53 round on their way to floats the same way on both routes.
    inst = make_instance(13)
    r, m = reciprocal_set(inst), optimal_measurement(inst)
    for trials in (2**53 + 1, 2**62 + 1, 2**63 - 1):
        for copies in (1, 3):
            assert_routes_agree(inst, r, m, SimConfig(seed=5, trials=trials, copies=copies))


@settings(max_examples=100, deadline=None, database=None)
@given(
    weighted_cases(),
    st.sampled_from(ORACLE_COPIES),
    st.sampled_from(["move", "scale", "stray", "cap"]),
    st.sampled_from([1e-14, 1e-11, 1e-9, 0.1, 1.0]),
    st.data(),
)
def test_tampered_tables_fail_alike_on_both_routes(case, copies, how, delta, data):
    # "move" shifts delta of failure cell between two rows, keeping the
    # average, so only the per-row checks can catch it; "scale" grows every
    # partner cell, which the Born average catches; "stray" inflates the
    # derived overlap bound; "cap" admits a weight past the pair cap 2D/N.
    inst, m = case
    r = reciprocal_set(inst)
    d = inst.total_dim
    if how == "move":
        born = r.born.copy()
        i, k = data.draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True))
        born[[i, k], 1] += [delta, -delta]
        r = dataclasses.replace(r, born=born)
    elif how == "scale":
        r = dataclasses.replace(r, born=r.born * [1.0 + delta, 1.0])
    elif how == "stray":
        r = dataclasses.replace(r, residuals={"derived overlap bound": delta**0.25})
    else:
        w = np.zeros(d)
        w[data.draw(st.integers(0, d - 1))] = (2.0 + delta) * d / inst.n
        m = build_measurement(inst, w, psd_tol=10.0)
    cfg = SimConfig(seed=data.draw(st.integers(0, 2**32 - 1)), trials=1000, copies=copies)
    assert_routes_agree(inst, r, m, cfg)


def test_complement_decomposition_example():
    terms = complement_decomposition([2, 2], [3, 2])
    assert len(terms) == 2
    first = kron_all(terms[0])
    p0 = np.zeros((3, 3), dtype=complex)
    p0[:2, :2] = np.eye(2)
    expected = kron_all([np.eye(3, dtype=complex) - p0, np.eye(2, dtype=complex)])
    assert np.linalg.norm(first - expected) <= 1e-12
    # The second party was not enlarged, so its complement term vanishes.
    assert np.linalg.norm(kron_all(terms[1])) <= 1e-12


def test_complement_decomposition_random_property():
    rng = np.random.default_rng(40)
    for _ in range(20):
        p = int(rng.integers(1, 5))
        dims = [int(rng.integers(1, 5)) for _ in range(p)]
        enlarged = [d + int(rng.integers(0, 3)) for d in dims]
        terms = complement_decomposition(dims, enlarged)
        assert len(terms) == p
        total = int(np.prod(enlarged))
        assembled = sum(kron_all(t) for t in terms)
        projs = []
        for d, e in zip(dims, enlarged):
            pi = np.zeros((e, e), dtype=complex)
            pi[:d, :d] = np.eye(d)
            projs.append(pi)
        target = np.eye(total) - kron_all(projs)
        assert np.linalg.norm(assembled - target) <= 1e-12
        for a, term in enumerate(terms):
            for f in term:
                # Every factor is an orthogonal projector.
                assert np.linalg.norm(f @ f - f) <= 1e-12
                assert np.linalg.norm(f - f.conj().T) <= 1e-12
            if enlarged[a] == dims[a]:
                assert np.linalg.norm(kron_all(term)) <= 1e-12


def test_complement_decomposition_errors():
    with pytest.raises(ValueError):
        complement_decomposition([2, 2], [3])
    with pytest.raises(ValueError):
        complement_decomposition([2, 2], [2, 1])
    with pytest.raises(ValueError):
        complement_decomposition([0, 2], [2, 2])
    with pytest.raises(ValueError, match="must be integers"):
        complement_decomposition([2.5, 2], [3.9, 2])
    with pytest.raises(ValueError, match="must be integers"):
        complement_decomposition([2, True], [3, 2])
