"""Tests for the sampling layer and the multicopy measurement."""

import numpy as np
import pytest

import usdsep.simulator
from usdsep import (
    InvariantError,
    SimConfig,
    build_measurement,
    classify_tuple,
    complement_decomposition,
    kron_all,
    make_instance,
    multicopy_measurement,
    optimal_measurement,
    outcome_distribution,
    reciprocal_set,
    run_discrimination,
    run_multicopy_discrimination,
)


def five_sigma_band(p, trials):
    return 5.0 * np.sqrt(p * (1.0 - p) / trials)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(seed=0, trials=0)
    with pytest.raises(ValueError):
        SimConfig(seed=0, trials=10, copies=0)


def test_outcome_distribution_on_omitted_state():
    inst = make_instance(5)
    m = optimal_measurement(inst)
    povm = list(m.elements) + [m.failure_op]
    probs = outcome_distribution(povm, inst.state(1))
    assert np.allclose(probs, [0.05, 0.05, 0.05, 0.05, 0.8], atol=1e-12)


def test_outcome_distribution_on_reciprocal_input():
    inst = make_instance(5)
    r = reciprocal_set(inst)
    m = optimal_measurement(inst)
    povm = list(m.elements) + [m.failure_op]
    probs = outcome_distribution(povm, r.state(3))
    expected = np.zeros(5)
    expected[m.indices.index(3)] = 0.5
    expected[-1] = 0.5
    assert np.allclose(probs, expected, atol=1e-12)


def test_outcome_distribution_rejections():
    inst = make_instance(5)
    m = optimal_measurement(inst)
    with pytest.raises(ValueError, match="incomplete"):
        outcome_distribution(list(m.elements), inst.state(1))
    povm = list(m.elements) + [m.failure_op]
    with pytest.raises(ValueError, match="unit norm"):
        outcome_distribution(povm, 2.0 * inst.state(1))
    with pytest.raises(ValueError, match="dimension"):
        outcome_distribution(povm, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        outcome_distribution([], inst.state(1))
    bad = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(ValueError, match="negative"):
        outcome_distribution([bad, np.eye(2) - bad], np.array([0.0, 1.0]))


def test_run_discrimination_frozen_seed():
    inst = make_instance(5)
    r = reciprocal_set(inst)
    m = optimal_measurement(inst)
    rep = run_discrimination(inst, r, m, SimConfig(seed=7, trials=100_000))
    assert rep.misidentifications == 0
    assert rep.empirical_failure == 0.50129
    assert abs(rep.theoretical_failure - 0.5) <= 1e-12
    assert abs(rep.empirical_failure - 0.5) <= five_sigma_band(0.5, 100_000)
    assert set(rep.counts) == {"2", "3", "4", "5", "fail"}
    assert sum(rep.counts.values()) == 100_000
    assert 0.0 <= rep.tv_distance <= 0.01


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
            optimal_measurement(inst5),
            SimConfig(seed=0, trials=10, copies=2),
        )
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


def test_classify_tuple_cases():
    assert classify_tuple((2, 2), omit=1) == 2
    assert classify_tuple((1, 4), omit=1) == 4
    assert classify_tuple((4, 1), omit=1) == 4
    assert classify_tuple((1, 1, 5), omit=1) == 5
    assert classify_tuple((1, 1), omit=1) is None
    assert classify_tuple((2, 3), omit=1) is None
    assert classify_tuple((2, 2, 3), omit=1) is None


def test_multicopy_single_copy_reduces_to_base_measurement():
    inst = make_instance(5)
    mm = multicopy_measurement(inst, copies=1)
    assert mm.tuples == ((1,), (2,), (3,), (4,), (5,))
    assert mm.labels == (None, 2, 3, 4, 5)
    for t, elem in zip(mm.tuples, mm.elements):
        assert np.linalg.norm(elem - 0.8 * inst.projector(t[0])) <= 1e-12
    assert abs(mm.theoretical_failure - 0.5) <= 1e-12


def test_multicopy_two_copies_structure():
    inst = make_instance(5)
    mm = multicopy_measurement(inst, copies=2)
    assert len(mm.tuples) == 25
    assert mm.elements.shape == (25, 16, 16)
    named = [lab for lab in mm.labels if lab is not None]
    assert sorted(named) == sorted([2, 3, 4, 5] * 3)
    assert mm.labels.count(None) == 13
    assert abs(mm.theoretical_failure - 0.25) <= 1e-12


def test_multicopy_party_factors_assemble_elements():
    # elements order the tensor factors copy by copy; party_factors group
    # each party's copies together.  The two agree after relabeling the
    # basis by the corresponding axis permutation.
    inst = make_instance(5)
    copies = 2
    mm = multicopy_measurement(inst, copies=copies)
    p = inst.party.party_count
    axes_cm = list(inst.dims) * copies
    to_party_major = [k * p + alpha for alpha in range(p) for k in range(copies)]
    relabel = (
        np.arange(inst.total_dim**copies)
        .reshape(axes_cm)
        .transpose(to_party_major)
        .ravel()
    )
    for t in (0, 7, 13, 24):
        assembled = kron_all(list(mm.party_factors[t]))
        permuted = mm.elements[t][np.ix_(relabel, relabel)]
        assert np.linalg.norm(assembled - permuted) <= 1e-12


def test_multicopy_failure_halves_per_copy():
    inst = make_instance(5)
    for n_copies in (1, 2, 3):
        mm = multicopy_measurement(inst, copies=n_copies)
        assert abs(mm.theoretical_failure - 0.5**n_copies) <= 1e-12


def test_multicopy_budget_guard():
    inst = make_instance(5)
    with pytest.raises(ValueError, match="budget"):
        multicopy_measurement(inst, copies=4)
    with pytest.raises(ValueError):
        multicopy_measurement(inst, copies=0)


def test_multicopy_zero_error_audit_holds_externally():
    inst = make_instance(5)
    mm = multicopy_measurement(inst, copies=2)
    label_arr = np.array([-1 if lab is None else lab for lab in mm.labels])
    r = reciprocal_set(inst)
    assert mm.inputs == r.indices
    for i, j in enumerate(r.indices):
        stray = mm.per_state[i][(label_arr != j) & (label_arr != -1)]
        assert stray.max() <= 1e-10


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


def test_run_multicopy_single_copy_agrees_with_single_path():
    inst = make_instance(5)
    r = reciprocal_set(inst)
    single = run_discrimination(
        inst, r, optimal_measurement(inst), SimConfig(seed=5, trials=30_000)
    )
    multi = run_multicopy_discrimination(inst, SimConfig(seed=5, trials=30_000, copies=1))
    assert multi.misidentifications == single.misidentifications == 0
    assert abs(multi.theoretical_failure - single.theoretical_failure) <= 1e-12
    band = five_sigma_band(0.5, 30_000)
    assert abs(multi.empirical_failure - 0.5) <= band
    assert abs(single.empirical_failure - 0.5) <= band


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
