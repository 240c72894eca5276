"""Property tests over the whole input space: prime N in 5..251, every
ascending factorization of N - 1, any omit label, random feasible weights.

The references are dense loops over the N projectors, written out here so
that the library's state-matrix forms are checked against the definition.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from usdsep import (
    ascending_factorizations,
    build_measurement,
    completeness_residual,
    is_prime,
    make_instance,
    proj,
)

PRIMES = [p for p in range(5, 252) if is_prime(p)]
CLOSURE_BOUND = 1e-12


@st.composite
def instances_and_weights(draw):
    n = draw(st.sampled_from(PRIMES))
    dims = draw(st.sampled_from(ascending_factorizations(n - 1)))
    omit = draw(st.integers(1, n))
    seed = draw(st.integers(0, 2**32 - 1))
    inst = make_instance(n, dims, omit)
    # Weights up to D/N keep the failure operator PSD: the retained
    # projectors sum to at most (N/D) * identity.
    w = np.random.default_rng(seed).uniform(0.0, inst.total_dim / n, size=inst.total_dim)
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
