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
    classify_tuple,
    complement_decomposition,
    kron_all,
    make_instance,
    multicopy_measurement,
    run_multicopy_discrimination,
)

inst = make_instance(5)

# How outcome tuples are read with the omitted label 1.
for tup in [(2, 2), (1, 4), (1, 1), (2, 3)]:
    print(f"tuple {tup} names:", classify_tuple(tup, omit=1))

# Failure halves per copy, exactly.
print("\nexact failure by copies:")
for n_copies in (1, 2, 3):
    mm = multicopy_measurement(inst, copies=n_copies)
    print(f"  {n_copies} copies: {mm.theoretical_failure:.15f}  "
          f"(2^-{n_copies} = {0.5 ** n_copies})")

# Sampled two-copy runs agree and stay error-free.
rep = run_multicopy_discrimination(inst, SimConfig(seed=9, trials=50_000, copies=2))
print("\ntwo-copy sampling: empirical %.5f, theoretical %.5f, misidentifications %d"
      % (rep.empirical_failure, rep.theoretical_failure, rep.misidentifications))

# Grouped by the label they name, n copies are again an N-outcome
# measurement, so sampling needs no N^n table: ten copies at N = 61
# (61^10 label tuples) fail about once in a thousand trials.
inst61 = make_instance(61)
rep = run_multicopy_discrimination(inst61, SimConfig(seed=9, trials=1_000_000, copies=10))
print("ten copies at N = 61: empirical %.6f, theoretical %.6f (2^-10 = %.6f), "
      "misidentifications %d"
      % (rep.empirical_failure, rep.theoretical_failure, 0.5 ** 10, rep.misidentifications))

# The two-copy measurement hands each party 25 factor operators: 25 extreme
# rays per party against a budget of 2 * (25 - 1) = 48.
mm2 = multicopy_measurement(inst, copies=2)
report = certify(mm2.party_factors)
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
