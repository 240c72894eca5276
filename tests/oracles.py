"""Dense reference routes for the stages the pipeline computes in closed form.

``completeness_residual`` sums the entries of S^T conj(S) by exponent
ratio, and ``reciprocal_set`` and ``dual_basis_omit`` take their Born
cells, overlaps and audit bounds from the proof (instance module
docstring).  These helpers form the dense products instead: the (D, D)
resolution and the products of the states with the reciprocal states and
with the duals, as the pipeline once did.
"""

import numpy as np

# The ratio route and the dense product sum the same D^2 entries in other
# orders, so their residuals agree to rounding: within half the larger plus
# 1e-15 (the largest gap seen, at N = 1009, is 7.2e-15 of 2.8e-14).
def residuals_agree(a: float, b: float) -> bool:
    return abs(a - b) <= 0.5 * max(a, b) + 1e-15


# The dense product's own rounding in a Born cell near 1/2; the largest gap
# seen between the two-cell table and the dense one over every prime up to
# 401 is 1.2e-15, and between the per-input failures 1.1e-15.
DENSE_ROUNDING = 4e-15


def dense_completeness_residual(inst) -> float:
    """||(D/N) S^T conj(S) - I||_F through the (D, D) matrix product."""
    d = inst.total_dim
    resolution = inst.states.T @ inst.states.conj()
    resolution *= d / inst.n
    resolution.flat[:: d + 1] -= 1.0
    return float(np.linalg.norm(resolution))


def dense_cross(inst, r) -> np.ndarray:
    """(N, D) overlaps: entry [j - 1, i] = <psi_j | phi_i>."""
    return inst.states.conj() @ r.states.T


def dense_born_table(inst, r) -> np.ndarray:
    """(D, N) Born table: entry [i, j - 1] = |<phi_i | psi_j>|^2."""
    return np.abs(dense_cross(inst, r).T) ** 2


def by_label(two_cells, inputs, n, omit) -> np.ndarray:
    """(D, N) table by label from (D, 2) partner and omitted-label columns, zero elsewhere."""
    table = np.zeros((len(inputs), n), dtype=two_cells.dtype)
    table[np.arange(len(inputs)), np.subtract(inputs, 1)] = two_cells[:, 0]
    table[:, omit - 1] = two_cells[:, 1]
    return table


def two_cell_table(r) -> np.ndarray:
    """r.born scattered into the (D, N) Born table."""
    return by_label(r.born, r.indices, r.n, r.omit)


def dense_reciprocal_residuals(inst, r) -> dict:
    """reciprocal_set's four audits, measured on the dense cross product."""
    cross = dense_cross(inst, r)
    born = np.abs(cross.T) ** 2
    rows, partners = np.arange(len(r.indices)), np.subtract(r.indices, 1)
    partner, overlaps = cross[partners, rows], born[rows, partners]
    cross[partners, rows] = cross[inst.omit - 1] = 0.0
    return {
        "reciprocity": float(np.max(np.abs(cross))),
        "partner phase": float(np.max(np.abs(partner - np.abs(partner)))),
        "overlap value": float(np.max(np.abs(overlaps - inst.n / (2.0 * inst.total_dim)))),
        "q symmetry": float(np.max(np.abs(overlaps - born[:, inst.omit - 1]))),
    }


def dense_dual_residuals(inst, xi, drop) -> dict:
    """dual_basis_omit's two audits, measured on the dense product of its duals with the states."""
    ks = np.array(xi.ks)
    cross = xi.vectors.conj() @ inst.states.T  # entry [i, j - 1] = <xi_(ks[i]) | psi_j>
    predicted = -np.exp(2j * np.pi * ((ks - drop) % inst.n) / inst.n)
    dropped = float(np.max(np.abs(cross[:, drop - 1] - predicted)))
    cross[np.arange(len(ks)), ks - 1] -= 1.0
    cross[:, drop - 1] = 0.0
    return {"dual delta overlap": float(np.max(np.abs(cross))), "dual dropped overlap": dropped}


def derived_bound(inst) -> float:
    """The bound every overlap audit reads: 4 (eps + sqrt(2D/N) delta) + 2^-46."""
    eps, delta = inst.residuals["completeness"], inst.residuals["null relation"]
    return 4.0 * (eps + np.sqrt(2.0 * inst.total_dim / inst.n) * delta) + 2.0**-46


def dense_failures(inst, r, m) -> np.ndarray:
    """<phi_i|F|phi_i>: each dense Born row weighted by F's coefficients D/N - w~_j."""
    coefficients = np.full(inst.n, inst.total_dim / inst.n)
    coefficients[np.subtract(m.indices, 1)] -= m.weights
    return dense_born_table(inst, r) @ coefficients
