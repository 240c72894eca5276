"""Weighted discrimination measurements and their failure probability.

The measurement family has one outcome w_j * P_j per retained label j
(P_j the projector onto state j) plus the failure operator, defined as
whatever is left to complete the identity.  Because the N projectors sum
to (N/D) * identity, the failure operator stays positive semidefinite up
to weights w_j = D/N, and at exactly that point it collapses to the rank-1
operator (D/N) * P_omit: every outcome of the completed measurement is then
proportional to a projector onto a product state, so the measurement is
separable.  The achieved failure probability at the symmetric point is 1/2,
and no positive-semidefinite choice of weights does better.

The weights are the whole measurement; no operator is stored.  By the same
completeness identity the failure operator is sum_j (D/N - w~_j) P_j over
every label, w~ being the weights with 0 at the omitted label, so an
input's failure <phi|F|phi> is one weighted row of the reciprocal set's
Born table: its two cells, the partner's and the omitted label's.
Positivity needs only the spectrum: the nonzero eigenvalues of
sum_j w_j P_j are those of (N/D)(diag(w) - z z^dag) with
|z_j|^2 = w_j / N, because the Gram matrix of the retained states is
(N/D)(I - u u^dag) with |u_j|^2 = 1/N.  The largest eigenvalue is therefore
(N/D) mu for the largest root mu of the secular equation
1 = sum_j (w_j/N) / (w_j - mu), found in O(N) per safeguarded Newton step,
and positivity is decided with no dense eigensolver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instance import Instance, ReciprocalSet, _check_match, _is_integer
from .numerics import check

__all__ = [
    "NotPSDError",
    "WeightedMeasurement",
    "UsdReport",
    "build_measurement",
    "optimal_measurement",
    "failure_probability",
    "family_product_ops",
]

PSD_TOL = 1e-10
# Largest product family (outcomes times the entries each carries: its label
# tuple and its per-party factors) that family_product_ops builds, the one
# N^n array in the library.  Sampling forms none and has no copy limit.
MAX_FAMILY_ENTRIES = 1_000_000


class NotPSDError(ValueError):
    """The requested weights drive the failure operator indefinite."""


@dataclass(frozen=True)
class WeightedMeasurement:
    """POVM {w_j P_j for retained j} plus the completing failure operator.

    Outcome j is w_j times the projector onto family state j and the failure
    operator is I - sum_j w_j P_j, so only the weights are stored.
    """

    n: int
    dims: tuple[int, ...]
    omit: int
    indices: tuple[int, ...]
    weights: np.ndarray  # (D,), aligned with indices
    # Smallest eigenvalue of the failure operator, 1 - (N/D) mu_max from the
    # secular equation; it matches a dense eigvalsh to a few D * eps.
    min_eigenvalue: float


@dataclass(frozen=True)
class UsdReport:
    """Failure probability of a measurement against the reciprocal inputs.

    It holds only what failure_probability computes.  The weights, the
    smallest eigenvalue and the overlaps q_j are read from the measurement
    and the reciprocal set: m.weights, m.min_eigenvalue and r.overlaps.
    """

    failure_probability: float
    per_state_failure: np.ndarray  # <phi_j|F|phi_j>, aligned with m.weights
    optimal: bool


def build_measurement(inst: Instance, weights, psd_tol: float = PSD_TOL) -> WeightedMeasurement:
    """Assemble the measurement for one weight per retained label.

    Weights must be finite, nonnegative and aligned with ``inst.retained``.
    The failure operator identity - sum_j w_j P_j is checked for positivity;
    its smallest eigenvalue below -psd_tol raises NotPSDError, since the
    family is then not a measurement at all.  That eigenvalue comes from the
    secular equation (module docstring), so no operator is formed.
    """
    retained = inst.retained
    w = np.asarray(weights, dtype=float).ravel()
    if w.shape[0] != len(retained):
        raise ValueError(f"expected {len(retained)} weights, got {w.shape[0]}")
    lo, hi = float(w.min()), float(w.max())  # a NaN reads NaN in both
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"weights must be finite, got {w.tolist()}")
    if lo < 0.0:
        raise ValueError("weights must be nonnegative")
    min_eig = 1.0 - inst.n / inst.total_dim * _top_secular_root(w, inst.n)
    if min_eig < -psd_tol:
        raise NotPSDError(
            f"failure operator has eigenvalue {min_eig:.3e}; weights are infeasible"
        )
    w.setflags(write=False)
    return WeightedMeasurement(
        n=inst.n,
        dims=inst.dims,
        omit=inst.omit,
        indices=retained,
        weights=w,
        min_eigenvalue=min_eig,
    )


def _top_secular_root(w: np.ndarray, n: int) -> float:
    """Largest eigenvalue mu of diag(w) - z z^dag, |z_j|^2 = w_j / n.

    Zero weights deflate: they only add eigenvalues 0.  A group of k
    exactly tied weights v deflates to one secular term of weight k v / n
    and leaves k - 1 eigenvalues at v, so a tie at the top weight v_1 is
    the answer with no iteration (every weight at D/N gives D/N).
    Otherwise the largest root of 1 = sum_v c_v / (v - mu) is the only one
    in (v_2, v_1), and it lies above v_1 - sum_v c_v as well; the secular
    sum rises across that bracket.  Each step evaluates it at mu, moves the
    bracket end on mu's side to mu, and takes the Newton step when it lands
    inside the bracket and the midpoint otherwise.  A Newton step too small
    to move mu, or a bracket closed to adjacent floats, ends the search.
    """
    top = float(w.max())
    if top <= 0.0:
        return 0.0
    if np.count_nonzero(w == top) > 1:  # the optimal measurement's case, with no sort
        return top
    values, counts = np.unique(w[w > 0.0], return_counts=True)
    c = values * counts / n
    lo = top - float(c.sum())
    if values.size > 1:
        lo = max(lo, float(values[-2]))
    hi = top
    mu = 0.5 * (lo + hi)
    while lo < mu < hi:
        terms = c / (values - mu)
        excess = float(terms.sum()) - 1.0
        lo, hi = (mu, hi) if excess < 0.0 else (lo, mu)
        newton = mu - excess / float((terms * terms / c).sum())
        if newton == mu:
            return mu
        mu = newton if lo < newton < hi else 0.5 * (lo + hi)
    return hi


def optimal_measurement(inst: Instance) -> WeightedMeasurement:
    """The symmetric measurement with every weight at D/N.

    Its failure operator equals (D/N) * P_omit, so all N completed outcomes
    are proportional to projectors onto product states.
    """
    d = inst.total_dim
    w = np.empty(d)
    w.fill(d / inst.n)
    return build_measurement(inst, w)


def failure_probability(m: WeightedMeasurement, r: ReciprocalSet) -> UsdReport:
    """Average failure probability over uniformly likely reciprocal inputs.

    Evaluated two ways that must agree to 1e-12: the Born-rule average of
    the per-input failures <phi_i|F|phi_i> and the closed form
    1 - (1/D) sum_j q_j w_j.  Each failure is input i's two Born cells
    weighted by F's coefficients D/N - w~_j (module docstring),
    q (D/N - w_i) + q D/N in O(D), so a row sums to 1 only if the cells
    hold completeness.  The report carries the Born value and the per-input
    failures it averages.
    """
    _check_match(m, r)
    d, w = len(r.indices), m.weights
    scale = d / m.n
    traces = np.subtract(scale, w)
    traces *= r.born[:, 0]
    traces += r.born[:, 1] * scale
    born = float(traces.sum()) / d
    closed = 1.0 - float(np.multiply(r.overlaps, w).sum()) / d
    top = float(w.max())
    # Rounding grows with the weights: divide by the largest in units of the pair cap 2D/N.
    cap_units = max(1.0, m.n * top / (2.0 * d))
    check("born vs closed form", abs(born - closed) / cap_units)
    optimal = top - scale <= 1e-12 and scale - float(w.min()) <= 1e-12  # max |w - D/N|
    return UsdReport(failure_probability=born, per_state_failure=traces, optimal=optimal)


def family_product_ops(inst: Instance, copies: int = 1) -> list[list[np.ndarray]]:
    """Per-party factors of the symmetric measurement's n-copy outcomes.

    One entry per label tuple (j_1, ..., j_n), in lexicographic order;
    it lists, per party, the tensor product over copies of that party's
    projectors onto its local states j_1, ..., j_n.  The scale (D/N)^n sits
    on party 0, so the kron of an entry's factors is the outcome operator
    with each party's copies grouped together.  With copies = 1 these are
    the N outcomes (D/N) P_j, the omitted label's being the failure
    operator.  Each party's factors are read-only views into one
    (N^n, d^n, d^n) stack: one reshaped outer product per copy builds the
    n-copy local states, and one batched outer product their projectors.

    Raises ValueError for a copies that is not an integer >= 1 and for
    families past MAX_FAMILY_ENTRIES, before anything is allocated.
    """
    if not _is_integer(copies) or copies < 1:
        raise ValueError(f"copies must be an integer >= 1, got {copies!r}")
    n, d, copies = inst.n, inst.total_dim, int(copies)  # a numpy integer's powers wrap
    # Past 64 copies every family is over the limit (N^n alone is); the
    # shortcut keeps a huge copies from forming huge integers.
    entries = (
        n**copies * (copies + sum(dim ** (2 * copies) for dim in inst.dims))
        if copies <= 64
        else math.inf
    )
    if entries > MAX_FAMILY_ENTRIES:
        raise ValueError(
            f"{copies}-copy family of N = {n} exceeds the limit of {MAX_FAMILY_ENTRIES} entries"
        )
    stacks = []
    for states in inst.local_states:
        tensor = np.ones((1, 1), dtype=complex)
        for _ in range(copies):
            # Row t * N + j holds tensor row t (x) state j, first copy most significant.
            tensor = (tensor[:, None, :, None] * states[None, :, None, :]).reshape(
                len(tensor) * n, -1
            )
        stacks.append(tensor[:, :, None] * tensor[:, None, :].conj())
    stacks[0] *= (d / n) ** copies
    for stack in stacks:
        stack.setflags(write=False)
    return [list(factors) for factors in zip(*stacks)]
