"""
Unambiguous discrimination of the reciprocal states
===================================================

Drop one label from the family and the remaining D states form a basis.
Their reciprocal (dual) states are what the measurement actually tells
apart: outcome k clicks only when the input was reciprocal state k, so a
conclusive answer is never wrong.  The price is a failure outcome whose
probability the weights control.
"""

import numpy as np

from usdsep import (
    NotPSDError,
    build_measurement,
    failure_probability,
    make_instance,
    optimal_measurement,
    reciprocal_set,
)

inst = make_instance(5)
r = reciprocal_set(inst)
print("retained labels:", r.indices)

# Each reciprocal state overlaps only its own partner among the retained
# states, with the universal value |<partner>|^2 = N / (2D).  Its overlap
# with the omitted state has the same square.  reciprocal_set records the
# bound that completeness and the null relation prove for every such
# overlap against its closed form.
print("overlap q per label:", np.round(r.overlaps, 6), " N/(2D) =", inst.n / (2 * inst.total_dim))
print("derived overlap bound: %.1e" % r.residuals["derived overlap bound"])

# The symmetric weights w_j = D/N make the failure operator a rank-1
# multiple of the omitted projector and the failure probability exactly 1/2.
m = optimal_measurement(inst)
rep = failure_probability(m, r)
print("\nsymmetric weights:", m.weights)
print("failure probability: %.15f" % rep.failure_probability)
print("per-input success:", np.round(r.overlaps * m.weights, 12))
# The N projectors sum to (N/D) * identity, so the failure operator is
# sum_j (D/N - w~_j) P_j over every label, w~ the weights with 0 at the
# omitted label.  Only the omitted label's coefficient survives: F is
# (D/N) P_omit, rank 1.
coefficients = np.full(inst.n, inst.total_dim / inst.n)
coefficients[np.subtract(m.indices, 1)] -= m.weights
print("failure coefficients D/N - w~ per label:", np.round(coefficients, 12))

# Any lower weights stay valid but fail more often.
lazy = failure_probability(build_measurement(inst, np.full(4, 0.5)), r)
print("\nweights 0.5 everywhere -> failure %.6f (= 11/16)" % lazy.failure_probability)

# Push any weight too high and the failure operator stops being a valid
# measurement element.
try:
    build_measurement(inst, [0.9, 0.9, 0.9, 0.9])
except NotPSDError as exc:
    print("weights 0.9 everywhere ->", exc)

# Validity also forces every pair of weights under 2D/N.
cap = 2 * inst.total_dim / inst.n
print()
for w in (m.weights, [1.0, 0.7, 0.0, 0.0]):
    top = np.sort(w)[-2:].sum()
    print("top pair of %s sums to %.2f (cap 2D/N = %.1f)" % (np.round(w, 2), top, cap))

# A randomized search over weight vectors in [0, 2D/N]^D never beats 1/2.
draws = np.random.default_rng(0).uniform(0.0, cap, size=(5_000, inst.total_dim))
rejected, best = 0, 1.0
for w in draws:
    try:
        best = min(best, failure_probability(build_measurement(inst, w), r).failure_probability)
    except NotPSDError:
        rejected += 1
print("\n%d random weight vectors, %d rejected as not PSD" % (len(draws), rejected))
print("  best failure found: %.9f (>= 1/2)" % best)

# The same 1/2 holds for every multiparty factorization at other primes.
for n, dims in [(7, None), (11, None), (13, (3, 4))]:
    other = make_instance(n, dims)
    pr = failure_probability(
        optimal_measurement(other), reciprocal_set(other)
    ).failure_probability
    print(f"N={n} dims={other.dims}: failure {pr:.15f}")
