"""Property tests over the whole input space: every ascending
factorization of N - 1, any omit label, random feasible weights or a random
dropped label, for prime N in 5..251 (dense projector references) or
5..601 (closed forms).

The references are written out here from the definitions: dense loops over
the N projectors, a Kronecker product of each state's party factors, and
the inverse of the matrix whose columns are a basis of the family's states.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from usdsep import (
    ascending_factorizations,
    build_measurement,
    completeness_residual,
    dual_basis_omit,
    is_prime,
    kron_all,
    make_instance,
    proj,
    reciprocal_set,
)

PRIMES = [p for p in range(5, 252) if is_prime(p)]
CLOSED_FORM_PRIMES = [p for p in range(5, 602) if is_prime(p)]
CLOSURE_BOUND = 1e-12


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


@settings(max_examples=12, deadline=None, database=None)
@given(instances_and_weights())
def test_state_matrix_forms_match_dense_projector_sums(case):
    inst, w = case
    d = inst.total_dim
    m = build_measurement(inst, w)
    reference = np.eye(d, dtype=complex)
    for wj, j in zip(w, inst.retained):
        reference -= wj * proj(inst.state(j))
    assert np.linalg.norm(m.failure_op - reference) <= CLOSURE_BOUND

    resolution = sum(proj(v) for v in inst.states) * (d / inst.n)
    dense_residual = np.linalg.norm(resolution - np.eye(d))
    assert abs(completeness_residual(inst) - dense_residual) <= CLOSURE_BOUND


def inverse_duals(inst, drop):
    """Labels other than drop and their dual rows, by inverting the basis."""
    kept = [j for j in range(1, inst.n + 1) if j != drop]
    basis = inst.states[[j - 1 for j in kept]].T
    return kept, np.linalg.inv(basis).conj()


@settings(max_examples=12, deadline=None, database=None)
@given(instances(CLOSED_FORM_PRIMES), st.data())
def test_closed_forms_match_the_definitions(inst, data):
    for j in range(inst.n):
        got = kron_all([factor[j] for factor in inst.local_states])
        assert np.max(np.abs(got - inst.states[j])) <= CLOSURE_BOUND

    kept, rows = inverse_duals(inst, inst.omit)
    reference = rows / np.linalg.norm(rows, axis=1)[:, None]
    r = reciprocal_set(inst)
    assert list(r.indices) == kept
    assert np.max(np.abs(r.states - reference)) <= CLOSURE_BOUND

    drop = data.draw(st.integers(1, inst.n - 1))
    drop += drop >= inst.omit  # any label but omit
    kept, rows = inverse_duals(inst, drop)
    xi = dual_basis_omit(inst, drop)
    assert list(xi.ks) == [k for k in kept if k != inst.omit]
    reference = np.array([rows[kept.index(k)] for k in xi.ks])
    assert np.max(np.abs(xi.vectors - reference)) <= CLOSURE_BOUND
