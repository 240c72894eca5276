"""
Building a product-state family and checking its structure
==========================================================

A family lives on P parties with dimensions d_1 <= ... <= d_P whose product
is D = N - 1 for a prime N >= 5.  State j carries a phase ramp at a
party-specific stride, so the N states are cyclically permuted by a local
unitary and any D of them form a basis.
"""

import numpy as np

from usdsep import make_instance

# The default splits N - 1 into its full ascending prime factorization.
inst = make_instance(5)
print("N =", inst.n, " dims =", inst.dims, " omitted label =", inst.omit)
print("global dimension D =", inst.total_dim)

# The five states, one per row (four complex amplitudes each).
np.set_printoptions(precision=3, suppress=True, linewidth=100)
print("\nstate amplitudes (rows are j = 1..5):")
print(inst.states)

# Scaled by D/N, the five projectors resolve the identity exactly.
print("\ncompleteness residual:", inst.residuals["completeness"])

# Every pair overlaps with the same magnitude 1/D; only the phase moves.
overlaps = inst.states.conj() @ inst.states.T  # entry [j-1, k-1] = <state_j|state_k>
off = overlaps[~np.eye(inst.n, dtype=bool)]
print("pairwise overlap magnitudes: min %.6f  max %.6f  (1/D = %.6f)"
      % (np.abs(off).min(), np.abs(off).max(), 1 / inst.total_dim))

# A product of local diagonal unitaries advances every label by one,
# wrapping N -> 1: amplitude m of state j is omega^(j e_m) / sqrt(D), so the
# shift is diag(omega^e_m), and party alpha's block is diag(omega^(p_alpha m)).
# Each party applies its own block; no party needs to know what the others hold.
shift = np.exp(2j * np.pi * inst.exponents / inst.n)
gap = np.abs(np.abs((shift * inst.state(2)).conj() @ inst.state(3)) - 1.0)
print("shift unitary maps state 2 onto state 3 (phase-free gap %.2e)" % gap)

# Any D = 4 of the states are linearly independent; all five cannot be,
# being five vectors in four dimensions.
sigma = np.linalg.svd(inst.states[1:].T, compute_uv=False)[-1]
print("\nsubset {2,3,4,5}: rank %d, min singular value %.6f (sqrt((N - 4)/D) = 1/2)"
      % (np.linalg.matrix_rank(inst.states[1:]), sigma))
rank = np.linalg.matrix_rank(inst.states)
print("all five:        rank %d (five vectors in four dimensions)" % rank)

# The same construction runs at any prime >= 5 and any ascending
# factorization of N - 1.
for n, dims in [(7, None), (13, (2, 6)), (13, (2, 2, 3))]:
    other = make_instance(n, dims)
    residual = other.residuals["completeness"]
    print(f"N={n} dims={other.dims}: completeness residual {residual:.2e}")
