"""
Why no finite-round local protocol reaches the optimum
======================================================

The optimal measurement is separable: every outcome is a tensor product of
per-party operators.  Whether a finite-round protocol of local operations
and classical messages can realize it is decided by counting geometry: the
per-party factors of an implementable N-outcome measurement can span at
most 2(N - 1) distinct extreme rays in total.  The family's measurement
overshoots that budget, so the certificate returns VIOLATES.
"""

import numpy as np

from usdsep import certify, family_product_ops, make_instance, proj

inst = make_instance(5)

# Party 0 contributes five factor operators, one per outcome.  They fall
# into five distinct rays and every one is extreme (rank-1 operators always
# are).  Certified alone, they are a one-party measurement.  A checked
# Farkas witness decides each class, so NNLS solves none; the least bound
# it proves equals the NNLS residual here.
party0 = certify([[proj(v)] for v in inst.local_states[0]]).parties[0]
print(f"party 0: {party0.generators} factors, {party0.rays} rays, {party0.extreme} extreme, "
      f"{party0.nnls_solves} NNLS solves, least witness bound {party0.min_witness_bound:.4f}")

# Both parties contribute 5 extreme rays; 10 > 2 * (5 - 1) = 8.
report = certify(family_product_ops(inst))
print("\nfull certificate:")
for s in report.parties:
    print(f"  party {s.party}: generators {s.generators}, rays {s.rays}, "
          f"extreme {s.extreme}, skipped {s.skipped}")
print(f"  total {report.total} vs bound {report.bound} -> {report.verdict}")

# A genuinely local measurement passes.  Here one party measures its own
# basis and the other does nothing; two rays against a bound of two.
e0 = np.diag([1.0, 0.0]).astype(complex)
e1 = np.diag([0.0, 1.0]).astype(complex)
eye = np.eye(2, dtype=complex)
control = certify([[e0, eye], [e1, eye]])
print("\ncontrol (local projective measurement):",
      f"total {control.total} vs bound {control.bound} -> {control.verdict}")

# The gap never closes: every factorization of every prime overshoots,
# and more parties overshoot by more.
print("\nacross families:")
for n, dims in [(5, None), (7, None), (11, None), (13, (2, 6)), (13, (2, 2, 3))]:
    other = make_instance(n, dims)
    rep = certify(family_product_ops(other))
    print(f"  N={other.n} dims={other.dims}: total {rep.total} "
          f"vs bound {rep.bound} -> {rep.verdict}")
