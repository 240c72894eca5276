"""
Multiple copies and enlarged local spaces
=========================================

Given n copies of the unknown state, each party tensors its single-copy
factors across its copies.  A tuple of single-copy outcomes is conclusive
when its non-omitted entries all point at one label, so the failure
probability halves with every extra copy.  The richer factor set makes the
extreme-ray budget even harder to meet, and embedding each party in a
larger space does not help: the complement of the embedding splits into
per-party product terms a protocol can absorb.
"""

import numpy as np

from usdsep import (
    SimConfig,
    certify,
    complement_decomposition,
    family_product_ops,
    kron_all,
    make_instance,
    optimal_measurement,
    reciprocal_set,
    run_discrimination,
)


def sample(inst, copies, trials):
    """Seeded run of `copies` copies of the optimal measurement on the reciprocal states."""
    cfg = SimConfig(seed=9, trials=trials, copies=copies)
    return run_discrimination(inst, reciprocal_set(inst), optimal_measurement(inst), cfg)


inst = make_instance(5)

# With the omitted label 1, the tuple (2, 2) names label 2, and so do
# (1, 2) and (2, 1): copies that failed say nothing.  The tuple (1, 1)
# fails on every copy, and (2, 3) points at two labels at once, so both
# are inconclusive.  Input i is named unless every copy fails, which each
# does with probability 1/2 on its own, so the failure halves per copy.
print("exact failure by copies:")
for n_copies in (1, 2, 3):
    rep = sample(inst, n_copies, 50_000)
    print(f"  {n_copies} copies: {rep.theoretical_failure:.15f}  "
          f"(2^-{n_copies} = {0.5 ** n_copies}), sampled {rep.empirical_failure:.5f}, "
          f"misidentifications {rep.misidentifications}")

# Grouped by the label they name, n copies are again an N-outcome
# measurement, so sampling needs no N^n table: ten copies at N = 61
# (61^10 label tuples) fail about once in a thousand trials.
rep = sample(make_instance(61), 10, 1_000_000)
print("ten copies at N = 61: empirical %.6f, theoretical %.6f (2^-10 = %.6f), "
      "misidentifications %d"
      % (rep.empirical_failure, rep.theoretical_failure, 0.5 ** 10, rep.misidentifications))

# The two-copy measurement hands each party 25 factor operators: 25 extreme
# rays per party against a budget of 2 * (25 - 1) = 48.
report = certify(family_product_ops(inst, 2))
print("\ntwo-copy certificate:")
for s in report.parties:
    print(f"  party {s.party}: extreme rays {s.extreme}")
print(f"  total {report.total} vs bound {report.bound} -> {report.verdict}")

# Enlarging each party's space embeds the measurement and leaves a
# complement I' - P_1 x P_2.  It decomposes into one product term per
# party, each a projector product, so nothing about the counting argument
# changes on the bigger space.
terms = complement_decomposition([2, 2], [3, 4])
print("\ncomplement of embedding (2,2) into (3,4): %d product terms" % len(terms))
assembled = sum(kron_all(t) for t in terms)
projs = []
for d, e in [(2, 3), (2, 4)]:
    pi = np.zeros((e, e), dtype=complex)
    pi[:d, :d] = np.eye(d)
    projs.append(pi)
target = np.eye(12) - kron_all(projs)
print("decomposition residual:", np.linalg.norm(assembled - target))
for a, term in enumerate(terms):
    shapes = [f.shape[0] for f in term]
    print(f"  term {a}: factor dimensions {shapes}, norm {np.linalg.norm(kron_all(term)):.3f}")
