"""Property tests over the whole input space: every ascending
factorization of N - 1, any omit label, random feasible weights or a random
dropped label, for prime N in 5..251 (dense projector references), 5..401
(the structured measurement against dense linear algebra, the corollaries
of the null relation, and the reciprocal set's two-cell Born table and
ratio-route completeness against the dense products of tests/oracles.py;
the table audits of a random table by both routes, also at 1009 and 2003),
5..2003 (the family's table audits against its gathered rows), 5..29989
(the instance residuals against their laws, and the failure probability
of the optimal measurement) or 5..601 (closed forms), 5..211 (the optimum's dual certificate and the projectors'
Gram, formed densely), and sampled discrimination runs for N in 5..13.

The references are written out here from the definitions: dense loops over
the N projectors, the dense weighted sum and its eigvalsh, a Kronecker
product of each state's party factors, the inverse of the matrix whose
columns are a basis of the family's states, and a per-label tally of
classified outcome tuples.
"""

import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import usdsep.instance
from usdsep import (
    NotPSDError,
    SimConfig,
    ascending_factorizations,
    build_measurement,
    failure_probability,
    is_prime,
    kron_all,
    make_instance,
    optimal_measurement,
    proj,
    reciprocal_set,
    run_discrimination,
)
from usdsep.numerics import bound
from usdsep.simulator import _named_rows, _sample_counts, _single_rows
from usdsep.usd import PSD_TOL
from tests.oracles import (
    DENSE_ROUNDING,
    by_label,
    closed_form_duals,
    dense_born_table,
    dense_completeness_residual,
    dense_dual_and_gram,
    dense_dual_residuals,
    dense_failures,
    dense_reciprocal_residuals,
    derived_bound,
    group_by_label,
    mod_gather_family,
    residuals_agree,
    tuple_labels,
    two_cell_table,
)

PRIMES = [p for p in range(5, 252) if is_prime(p)]
CLOSED_FORM_PRIMES = [p for p in range(5, 602) if is_prime(p)]
STRUCTURED_PRIMES = [p for p in range(5, 402) if is_prime(p)]
# The instance laws of numerics.BOUNDS were fit on every prime below 30,000.
FIT_PRIMES = [p for p in range(5, 30000) if is_prime(p)]
CLOSURE_BOUND = 1e-12
# The structured smallest eigenvalue against a dense eigvalsh, in units of
# D * eps (the largest gap seen over 2000 random cases was 0.38).
EIGENVALUE_BAND = 1.0


@st.composite
def instances(draw, primes):
    n = draw(st.sampled_from(primes))
    dims = draw(st.sampled_from(ascending_factorizations(n - 1)))
    omit = draw(st.integers(1, n))
    return make_instance(n, dims, omit)


@st.composite
def instances_and_weights(draw):
    inst = draw(instances(PRIMES))
    seed = draw(st.integers(0, 2**32 - 1))
    # Weights up to D/N keep the failure operator PSD: the retained
    # projectors sum to at most (N/D) * identity.
    w = np.random.default_rng(seed).uniform(
        0.0, inst.total_dim / inst.n, size=inst.total_dim
    )
    return inst, w


def gathered_audits(table, exponents):
    """The three audits as the (N, D) states gathered from ``table`` measure them."""
    n, d = len(table), len(exponents)
    states = table[np.multiply.outer(np.arange(1, n + 1), exponents) % n]
    omega_j = np.exp(2j * np.pi * (np.arange(1, n + 1) % n) / n)
    return {
        "completeness": np.linalg.norm(states.T @ states.conj() * (d / n) - np.eye(d)),
        "unit norm": np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)),
        "null relation": np.linalg.norm(states.T @ omega_j) / np.sqrt(n),
    }


def table_audits(n, table):
    """The three audits of ``table`` by the route make_instance takes at n."""
    pw, roots = usdsep.instance._power_cycle(n), usdsep.instance._table(n).roots
    return usdsep.instance._audits(pw, roots, table)


@settings(max_examples=15, deadline=None, database=None)
@given(instances(STRUCTURED_PRIMES), st.integers(0, 2**32 - 1))
def test_ratio_route_sums_the_dense_product_of_any_table(inst, seed):
    # The exponent-ratio identity, the missing residue of each row and the
    # correlation of the null relation hold for every amplitude table, not
    # only the roots of unity.  With a random table every residual is of
    # order 1, so a wrong ratio count, a missing row or a dropped exponent
    # shows far above the rounding that hides it on the family.
    rng = np.random.default_rng(seed)
    table = rng.normal(size=inst.n) + 1j * rng.normal(size=inst.n)
    dense = gathered_audits(table, inst.exponents)
    assert table_audits(inst.n, table) == pytest.approx(dense, rel=1e-12)


@pytest.mark.parametrize("n", STRUCTURED_PRIMES + [1009, 2003])
def test_rader_and_ratio_routes_sum_the_dense_product_of_any_table(n):
    # Both routes form the sums A(c) and B(c) of a random table, on either
    # side of the cut, padded or not, and _audits closes them to the dense
    # products' norms.  The exponents are taken as 0..D-1: the residuals do
    # not depend on their order, so no state matrix of the family is built.
    rng = np.random.default_rng(n)
    table = rng.normal(size=n) + 1j * rng.normal(size=n)
    pw, roots = usdsep.instance._power_cycle(n), usdsep.instance._table(n).roots
    rader = usdsep.instance._rader_sums(pw, roots, table)
    gather = usdsep.instance._gather_sums(pw, roots, table)
    assert np.max(np.abs(rader[0] - gather[0])) <= 1e-13 * gather[0][1].real  # A(1) = sum |t|^2
    assert np.max(np.abs(rader[1] - gather[1])) <= 1e-13 * np.sqrt(n) * np.abs(table).max()
    dense = gathered_audits(table, np.arange(n - 1))
    assert table_audits(n, table) == pytest.approx(dense, rel=1e-12)


@settings(max_examples=12, deadline=None, database=None)
@given(instances([p for p in range(5, 2004) if is_prime(p)]))
def test_family_table_audits_agree_with_the_gathered_rows(inst):
    # On the family itself every residual is rounding: the table's and the
    # gathered rows' lie within the same laws, the table's 10x under them.
    # Completeness's dense product is O(N^3) and is compared up to N = 401.
    n = inst.n
    states = inst.states
    assert states.tobytes() == mod_gather_family(inst)[0].tobytes()
    norms = np.linalg.norm(states, axis=1)
    omega_j = np.exp(2j * np.pi * (np.arange(1, n + 1) % n) / n)
    gathered = {
        "unit norm": float(np.max(np.abs(norms - 1.0))),
        "null relation": float(np.linalg.norm(states.T @ omega_j)) / np.sqrt(n),
    }
    if n <= 401:
        gathered["completeness"] = dense_completeness_residual(inst)
    for name, measured in gathered.items():
        assert measured <= bound(name, n), name
        assert inst.residuals[name] <= bound(name, n) / 10, name


@settings(max_examples=60, deadline=None, database=None)
@given(instances(FIT_PRIMES))
def test_the_instance_laws_hold_10x_over_the_primes_they_were_fit_on(inst):
    # The pipeline raises nothing, each instance residual stays a tenth of
    # its law, and the failure probability is 1/2 within its row.
    n = inst.n
    for name in ("completeness", "unit norm", "null relation"):
        assert inst.residuals[name] <= bound(name, n) / 10, name
    report = failure_probability(optimal_measurement(inst), reciprocal_set(inst))
    assert abs(report.failure_probability - 0.5) <= bound("failure 1/2")


@settings(max_examples=12, deadline=None, database=None)
@given(instances_and_weights())
def test_state_matrix_forms_match_dense_projector_sums(case):
    inst, w = case
    d = inst.total_dim
    r = reciprocal_set(inst)
    m = build_measurement(inst, w)
    reference = np.eye(d, dtype=complex)
    for wj, j in zip(w, inst.retained):
        reference -= wj * proj(inst.state(j))
    traces = [np.vdot(phi, reference @ phi).real for phi in r.states]
    assert np.max(np.abs(failure_probability(m, r).per_state_failure - traces)) <= CLOSURE_BOUND

    resolution = sum(proj(v) for v in inst.states) * (d / inst.n)
    dense_residual = np.linalg.norm(resolution - np.eye(d))
    assert abs(inst.residuals["completeness"] - dense_residual) <= CLOSURE_BOUND


@st.composite
def structured_cases(draw):
    """An instance and weights: random below D/N, all tied at D/N, either
    with zeros mixed in, or tied with some labels just past D/N."""
    inst = draw(instances(STRUCTURED_PRIMES))
    d, dn = inst.total_dim, inst.total_dim / inst.n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "tied", "random zeros", "tied zeros", "infeasible"]))
    w = rng.uniform(0.0, dn, size=d) if kind.startswith("random") else np.full(d, dn)
    if kind.endswith("zeros"):
        w[rng.random(d) < draw(st.floats(0.0, 1.0))] = 0.0
    if kind == "infeasible":
        raised = rng.choice(d, size=draw(st.integers(1, min(4, d))), replace=False)
        w[raised] *= 1.0 + 10.0 ** draw(st.floats(-14.0, -2.0))
    return inst, w


@settings(max_examples=30, deadline=None, database=None)
@given(structured_cases())
def test_structured_measurement_matches_dense_linear_algebra(case):
    inst, w = case
    d = inst.total_dim
    named = inst.states[[j - 1 for j in inst.retained]]
    dense = np.eye(d) - (named.T * w) @ named.conj()
    dense_min = np.linalg.eigvalsh(dense)[0]
    band = EIGENVALUE_BAND * d * np.finfo(float).eps

    m = build_measurement(inst, w, psd_tol=np.inf)  # never refuses
    r = reciprocal_set(inst)
    traces = ((r.states.conj() @ dense) * r.states).sum(axis=1).real  # <phi_i|F|phi_i>
    assert np.max(np.abs(failure_probability(m, r).per_state_failure - traces)) <= CLOSURE_BOUND
    assert abs(m.min_eigenvalue - dense_min) <= band
    if dense_min < -PSD_TOL - band:
        with pytest.raises(NotPSDError):
            build_measurement(inst, w)
    elif dense_min > -PSD_TOL + band:
        assert build_measurement(inst, w).min_eigenvalue == m.min_eigenvalue


@settings(max_examples=15, deadline=None, database=None)
@given(instances(STRUCTURED_PRIMES), st.data())
def test_printed_corollaries_of_the_null_relation(inst, data):
    # The two facts verify prints from completeness and the null relation
    # (instance module docstring), checked on the arrays.
    n, d = inst.n, inst.total_dim
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    size = data.draw(st.integers(1, d))
    subset = rng.choice(np.arange(1, n + 1), size=size, replace=False)
    sv_min = np.linalg.svd(inst.states[subset - 1].T, compute_uv=False)[-1]
    assert abs(sv_min - np.sqrt((n - size) / d)) <= 1e-12

    w = rng.uniform(0.0, 2.0 * d / n, size=d)
    drop = data.draw(st.integers(1, n - 1))
    drop += drop >= inst.omit  # any label but omit
    named = inst.states[[j - 1 for j in inst.retained]]
    dense = np.eye(d) - (named.T * w) @ named.conj()
    xi = closed_form_duals(inst, drop)
    sandwich = ((xi.vectors.conj() @ dense) * xi.vectors).sum(axis=1).real
    weight = dict(zip(inst.retained, w))
    predicted = [2.0 * d / n - weight[k] - weight[drop] for k in xi.ks]
    assert np.max(np.abs(sandwich - predicted)) <= 1e-12
    # The dense audits of the closed-form duals stay under the derived bound.
    for name, measured in dense_dual_residuals(inst, xi, drop).items():
        assert measured <= derived_bound(inst), name


def inverse_duals(inst, drop):
    """Labels other than drop and their dual rows, by inverting the basis."""
    kept = [j for j in range(1, inst.n + 1) if j != drop]
    basis = inst.states[[j - 1 for j in kept]].T
    return kept, np.linalg.inv(basis).conj()


@settings(max_examples=12, deadline=None, database=None)
@given(instances(CLOSED_FORM_PRIMES), st.data())
def test_closed_forms_match_the_definitions(inst, data):
    states = inst.states
    for j in range(inst.n):
        got = kron_all([factor[j] for factor in inst.local_states])
        assert np.max(np.abs(got - states[j])) <= CLOSURE_BOUND

    kept, rows = inverse_duals(inst, inst.omit)
    reference = rows / np.linalg.norm(rows, axis=1)[:, None]
    r = reciprocal_set(inst)
    assert list(r.indices) == kept
    states = r.states
    assert np.max(np.abs(states - reference)) <= CLOSURE_BOUND
    for i, j in enumerate(r.indices):
        assert np.array_equal(r.state(j), states[i])

    drop = data.draw(st.integers(1, inst.n - 1))
    drop += drop >= inst.omit  # any label but omit
    kept, rows = inverse_duals(inst, drop)
    xi = closed_form_duals(inst, drop)
    assert list(xi.ks) == [k for k in kept if k != inst.omit]
    reference = np.array([rows[kept.index(k)] for k in xi.ks])
    assert np.max(np.abs(xi.vectors - reference)) <= CLOSURE_BOUND


@settings(max_examples=20, deadline=None, database=None)
@given(instances([p for p in range(5, 212) if is_prime(p)]))
def test_a_dual_certificate_proves_the_optimum_and_its_uniqueness(inst):
    # The failure minimum's SDP dual: minimize Tr Z over Z >= 0 with
    # <psi_i|Z|psi_i> >= q_i / D.  Z = (I - P_omit) / (2 (N - 2)) is PSD,
    # tight on every retained state, and Tr Z = 1/2 is the primal failure,
    # so the symmetric measurement is optimal.  Its kernel is psi_omit
    # alone, so every optimum fails on t P_omit; the projectors' Gram has
    # least eigenvalue 1 - 1/D^2 > 0, so they are independent, and the
    # weights, hence the optimum, are unique.
    n, d = inst.n, inst.total_dim
    r = reciprocal_set(inst)
    z, gram = dense_dual_and_gram(inst)
    spectrum = np.linalg.eigvalsh(z)
    assert spectrum[0] >= -1e-12
    assert abs(spectrum[1] - 1.0 / (2.0 * (n - 2))) <= 1e-12
    retained = inst.states[np.array(r.indices) - 1]
    tight = np.einsum("ia,ab,ib->i", retained.conj(), z, retained).real
    assert np.max(np.abs(tight - r.overlaps / d)) <= 1e-12
    trace = np.trace(z).real
    assert abs(trace - 0.5) <= 1e-12
    assert abs(trace - failure_probability(optimal_measurement(inst), r).failure_probability) <= 1e-12
    assert abs(np.linalg.eigvalsh(gram)[0] - (1.0 - 1.0 / d**2)) <= 1e-12


@settings(max_examples=30, deadline=None, database=None)
@given(instances(STRUCTURED_PRIMES), st.integers(0, 2**32 - 1))
def test_born_table_holds_every_overlap_and_the_audits(inst, seed):
    # reciprocal_set and the completeness audit form no product; the dense
    # ones of tests/oracles.py must agree with their closed forms and stay
    # under the bound the audits read.
    r = reciprocal_set(inst)
    n, d = inst.n, inst.total_dim
    assert r.overlaps.shape == (d,)
    with pytest.raises(ValueError):
        r.overlaps[0] = 0.0
    assert np.all(r.overlaps == n / (2.0 * d))
    assert np.max(np.abs(two_cell_table(r) - dense_born_table(inst, r))) <= DENSE_ROUNDING

    derived = derived_bound(inst)
    assert r.residuals == {"derived overlap bound": derived}
    for name, measured in dense_reciprocal_residuals(inst, r).items():
        assert measured <= derived, name

    m = build_measurement(inst, np.random.default_rng(seed).uniform(0.0, d / n, size=d))
    failures = failure_probability(m, r).per_state_failure
    assert np.max(np.abs(failures - dense_failures(inst, r, m))) <= DENSE_ROUNDING

    ratio, dense = inst.residuals["completeness"], dense_completeness_residual(inst)
    assert max(ratio, dense) <= bound("completeness", n)
    assert residuals_agree(ratio, dense)


def tally_reference(table, cells, inputs, omit, trials):
    """Report fields by per-label masks over (D, N) tables by label.

    table[i] is input inputs[i]'s law over the labels and cells[i] its
    sampled tallies; the omitted label's column is the failure.
    """
    labels = np.arange(1, table.shape[1] + 1)
    labels[omit - 1] = 0
    true_labels = np.array(inputs)[:, None]
    misid = int(cells[(labels != 0) & (labels != true_labels)].sum())
    counts = {str(j): int(cells[:, labels == j].sum()) for j in inputs}
    counts["fail"] = int(cells[:, labels == 0].sum())
    marg = table.mean(axis=0)
    marginal = [marg[labels == j].sum() for j in inputs] + [marg[labels == 0].sum()]
    empirical = np.array(list(counts.values())) / trials
    tv = 0.5 * float(np.abs(empirical - marginal).sum())
    return counts, misid, counts["fail"] / trials, tv


def assert_report_matches(rep, reference):
    counts, misid, failure, tv = reference
    assert rep.counts == counts
    assert list(rep.counts) == list(counts)
    assert rep.misidentifications == misid
    assert rep.empirical_failure == failure
    assert abs(rep.tv_distance - tv) <= 1e-15


@settings(max_examples=20, deadline=None, database=None)
@given(
    instances([5, 7, 11, 13]),
    st.integers(1, 3),
    st.sampled_from([1.0, 0.5]),
    st.integers(0, 2**32 - 1),
    st.integers(1, 4000),
)
def test_sampled_tallies_match_a_per_label_reference(inst, copies, scale, seed, trials):
    # The N^n tuple rows of the dense Born table, grouped by the label
    # each tuple names, must give the sampled two-cell law; and the
    # report must hold the per-label sums of the cells the law draws.
    # Column j - 1 of a single-copy row is label j; the omitted label's
    # column is the failure.
    r = reciprocal_set(inst)
    d, n, omit = inst.total_dim, inst.n, inst.omit
    m = build_measurement(inst, np.full(d, scale * d / n))  # 1.0: the optimal one
    single = dense_born_table(inst, r)
    single[:, np.subtract(m.indices, 1)] *= m.weights
    single[:, omit - 1] = dense_failures(inst, r, m)
    single = np.clip(single, 0.0, None)
    for n_copies in sorted({1, copies}):
        rows = single
        for _ in range(n_copies - 1):
            rows = (rows[:, :, None] * single[:, None, :]).reshape(d, -1)
        grouped = group_by_label(rows, tuple_labels(n, omit, n_copies), n)
        law = _named_rows(_single_rows(r, m), n_copies)
        table = by_label(law, m.indices, n, omit)
        assert np.max(np.abs(grouped - table)) <= 1e-14
        cells = by_label(_sample_counts(law, trials, seed), m.indices, n, omit)
        reference = tally_reference(table, cells, m.indices, omit, trials)
        cfg = SimConfig(seed=seed, trials=trials, copies=n_copies)
        assert_report_matches(run_discrimination(inst, r, m, cfg), reference)


FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st

@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 5

def test_passes():
    pass
"""


def test_a_failing_property_is_reported_and_the_session_goes_on(tmp_path):
    # To report a failing example hypothesis imports libcst, which warns a
    # DeprecationWarning of its own; under this repo's warning filters that
    # must be neither an error of the run nor hide the tests after it.
    config = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    probe = tmp_path / "test_probe.py"
    probe.write_text(FAILING_PROPERTY)
    options = ["-q", "-p", "no:cacheprovider", "-c", str(config), "--rootdir", str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", *options, str(probe)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout[-2000:]
