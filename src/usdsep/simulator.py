"""Born-rule sampling of discrimination runs, single and multi copy.

The discrimination inputs are the reciprocal states, drawn uniformly; the
measurement outcomes either name a retained label or land in the failure
direction.  Because each outcome operator is proportional to the projector
onto a family state, an outcome j has zero Born weight on every reciprocal
state except its partner: simulations therefore never misidentify, and a
nonzero misidentification tally is a build defect rather than bad luck.

With n copies available the measurement tensors n single-copy outcomes; a
tuple of labels names state j exactly when its entries outside the omitted
label all equal j (and at least one entry does).  The all-omitted tuple, and
any tuple mixing two different retained labels, is inconclusive.  Under the
symmetric single-copy weights the per-copy conclusive probability is 1/2
independently per copy, so the failure probability decays as 2^(-n).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .instance import Instance, ReciprocalSet, reciprocal_set
from .numerics import InvariantError, kron_all, proj
from .usd import WeightedMeasurement, failure_probability

__all__ = [
    "SimConfig",
    "SimReport",
    "MulticopyMeasurement",
    "outcome_distribution",
    "run_discrimination",
    "classify_tuple",
    "multicopy_measurement",
    "run_multicopy_discrimination",
    "complement_decomposition",
]

POVM_TOL = 1e-10
DEFAULT_BUDGET = 1_000_000


@dataclass(frozen=True)
class SimConfig:
    seed: int
    trials: int
    copies: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.copies < 1:
            raise ValueError("copies must be >= 1")


@dataclass(frozen=True)
class SimReport:
    seed: int
    trials: int
    copies: int
    counts: dict  # outcome label ("1".."N" or "fail") -> tally
    misidentifications: int
    empirical_failure: float
    theoretical_failure: float
    tv_distance: float

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "copies": self.copies,
            "counts": dict(self.counts),
            "misidentifications": self.misidentifications,
            "empirical_failure": self.empirical_failure,
            "theoretical_failure": self.theoretical_failure,
            "tv_distance": self.tv_distance,
        }


@dataclass(frozen=True)
class MulticopyMeasurement:
    """Tensor-power measurement with outcome tuples classified once."""

    copies: int
    tuples: tuple[tuple[int, ...], ...]
    labels: tuple[object, ...]  # per tuple: retained label j or None (failure)
    elements: np.ndarray  # (N^n, dim^n, dim^n), copies as the outer factors
    # Per element: one factor per party, that party's copies tensored
    # together (the grouping a party holding all its copies acts with).
    # Relates to ``elements`` by the canonical reordering of tensor factors.
    party_factors: tuple
    theoretical_failure: float
    per_state: np.ndarray  # (D, N^n) exact outcome distribution per input
    inputs: tuple[int, ...]  # (D,) retained label of each per_state row


def outcome_distribution(elements, state, tol: float = POVM_TOL) -> np.ndarray:
    """Born probabilities of a POVM on a pure state.

    ``elements`` must sum to the identity within ``tol`` and the state must
    be unit norm.  Probabilities in [-1e-12, 0) are clipped to zero; more
    negative values mean an element was not positive and are an error.
    """
    elements = [np.asarray(e, dtype=complex) for e in elements]
    if not elements:
        raise ValueError("POVM needs at least one element")
    dim = elements[0].shape[0]
    closure = np.linalg.norm(sum(elements) - np.eye(dim))
    if closure > tol:
        raise ValueError(f"incomplete POVM: closure residual {closure:.3e}")
    state = np.asarray(state, dtype=complex).ravel()
    if state.shape[0] != dim:
        raise ValueError("state dimension does not match the POVM")
    if abs(np.linalg.norm(state) - 1.0) > tol:
        raise ValueError("state must be unit norm")
    probs = np.array([float(np.real(state.conj() @ e @ state)) for e in elements])
    if probs.min() < -1e-12:
        raise ValueError(f"negative outcome probability {probs.min():.3e}")
    probs = np.clip(probs, 0.0, None)
    if abs(float(probs.sum()) - 1.0) > tol:
        raise InvariantError(f"probabilities sum to {probs.sum():.12f}")
    return probs


def _sample_counts(dists: np.ndarray, trials: int, seed: int):
    """Draw (true state, outcome) pairs; dists[i] is the outcome row of input i.

    Inputs are uniform.  Sampling is inverse-CDF on a fixed draw order, so a
    given seed reproduces the tallies bit for bit.
    """
    rng = np.random.default_rng(seed)
    n_inputs, n_outcomes = dists.shape
    true_idx = rng.integers(0, n_inputs, size=trials)
    u = rng.random(trials)
    cum = np.cumsum(dists, axis=1)
    cum[:, -1] = 1.0  # close the CDF against rounding in the last bin
    outcome_idx = (cum[true_idx] < u[:, None]).sum(axis=1)
    return true_idx, outcome_idx


def run_discrimination(
    inst: Instance, r: ReciprocalSet, m: WeightedMeasurement, cfg: SimConfig
) -> SimReport:
    """Monte Carlo single-copy discrimination of the reciprocal states.

    Outcome labels are the retained state labels plus "fail".  The report
    compares the empirical failure rate with the closed-form value and
    carries the total variation distance between the empirical and exact
    outcome distributions.
    """
    if cfg.copies != 1:
        raise ValueError("run_discrimination handles a single copy; see the multicopy path")
    if (inst.n, inst.dims, inst.omit) != (m.n, m.dims, m.omit):
        raise ValueError("measurement belongs to a different instance")
    theoretical = failure_probability(m, r).failure_probability

    povm = list(m.elements) + [m.failure_op]
    labels = [str(j) for j in m.indices] + ["fail"]
    dists = np.array([outcome_distribution(povm, phi) for phi in r.states])

    true_idx, outcome_idx = _sample_counts(dists, cfg.trials, cfg.seed)
    tallies = np.bincount(outcome_idx, minlength=len(labels))
    conclusive = outcome_idx < len(m.indices)
    misid = int(np.count_nonzero(conclusive & (outcome_idx != true_idx)))

    counts = {label: int(t) for label, t in zip(labels, tallies)}
    empirical_failure = counts["fail"] / cfg.trials
    marginal = dists.mean(axis=0)
    empirical = tallies / cfg.trials
    tv = 0.5 * float(np.abs(empirical - marginal).sum())
    return SimReport(
        seed=cfg.seed,
        trials=cfg.trials,
        copies=1,
        counts=counts,
        misidentifications=misid,
        empirical_failure=empirical_failure,
        theoretical_failure=theoretical,
        tv_distance=tv,
    )


def classify_tuple(tup, omit: int):
    """Label named by an outcome tuple, or None when it is inconclusive.

    The non-omitted entries must be nonempty and all equal to name a label;
    the all-omitted tuple and any mix of two retained labels name nothing.
    """
    named = {j for j in tup if j != omit}
    if len(named) == 1:
        return named.pop()
    return None


def multicopy_measurement(
    inst: Instance, copies: int, budget: int = DEFAULT_BUDGET
) -> MulticopyMeasurement:
    """Tensor power of the symmetric single-copy measurement.

    One outcome per label tuple (j_1, ..., j_n), with element
    (D/N)^n * P_(j_1) x ... x P_(j_n).  Tuples are classified by
    classify_tuple.  The exact per-input outcome distributions are computed
    by Born traces on the reciprocal tensor powers; they certify that no
    tuple has weight on an input it does not name and that the failure
    probability is exactly 2^(-n).

    The assembled elements take N^n * D^(2n) complex entries; budgets above
    ``budget`` are rejected up front.
    """
    if copies < 1:
        raise ValueError("copies must be >= 1")
    n, d = inst.n, inst.total_dim
    entries = n**copies * d ** (2 * copies)
    if entries > budget:
        raise ValueError(
            f"multicopy family needs {entries} complex entries, over the budget {budget}"
        )
    scale = (d / n) ** copies
    tuples = tuple(itertools.product(range(1, n + 1), repeat=copies))
    labels = tuple(classify_tuple(t, inst.omit) for t in tuples)

    elements = np.array(
        [scale * kron_all([inst.projector(j) for j in t]) for t in tuples]
    )
    closure = np.linalg.norm(elements.sum(axis=0) - np.eye(d**copies))
    if closure > POVM_TOL:
        raise InvariantError(f"multicopy closure residual {closure:.3e}")

    party_factors = []
    for t in tuples:
        factors = []
        for alpha in range(inst.party.party_count):
            blocks = [proj(inst.local_states[alpha][j - 1]) for j in t]
            factor = kron_all(blocks)
            if alpha == 0:
                factor = scale * factor
            factors.append(factor)
        party_factors.append(tuple(factors))

    r = reciprocal_set(inst)
    power_states = np.array(
        [kron_all([phi] * copies) if copies > 1 else phi for phi in r.states]
    )
    per_state = np.einsum(
        "ia,kab,ib->ik", power_states.conj(), elements, power_states
    ).real
    per_state = np.clip(per_state, 0.0, None)

    # Zero-error audit: an outcome tuple may only weight the input it names.
    label_arr = np.array([-1 if lab is None else lab for lab in labels])
    for i, j in enumerate(r.indices):
        stray = per_state[i][(label_arr != j) & (label_arr != -1)]
        if stray.size and float(stray.max()) > 1e-10:
            raise InvariantError(
                f"outcome tuple naming another label has weight {stray.max():.3e}"
            )
    fail_mass = per_state[:, label_arr == -1].sum(axis=1)
    theoretical = float(fail_mass.mean())
    return MulticopyMeasurement(
        copies=copies,
        tuples=tuples,
        labels=labels,
        elements=elements,
        party_factors=tuple(party_factors),
        theoretical_failure=theoretical,
        per_state=per_state,
        inputs=r.indices,
    )


def run_multicopy_discrimination(inst: Instance, cfg: SimConfig) -> SimReport:
    """Sampled discrimination with cfg.copies tensor copies per trial.

    The exact outcome distributions come from multicopy_measurement; trials
    sample them.  Counts aggregate outcome tuples into the label they name
    ("fail" for inconclusive tuples), mirroring the single-copy report.
    """
    mm = multicopy_measurement(inst, cfg.copies)
    rows = mm.per_state / mm.per_state.sum(axis=1, keepdims=True)
    true_idx, outcome_idx = _sample_counts(rows, cfg.trials, cfg.seed)

    label_arr = np.array([-1 if lab is None else lab for lab in mm.labels])
    named = label_arr[outcome_idx]
    true_labels = np.array(mm.inputs)[true_idx]
    misid = int(np.count_nonzero((named != -1) & (named != true_labels)))

    counts = {str(j): int(np.count_nonzero(named == j)) for j in mm.inputs}
    counts["fail"] = int(np.count_nonzero(named == -1))
    empirical_failure = counts["fail"] / cfg.trials

    # Aggregated exact marginal over inputs, in the same label order.
    marg_tuples = rows.mean(axis=0)
    marginal = np.array(
        [float(marg_tuples[label_arr == j].sum()) for j in mm.inputs]
        + [float(marg_tuples[label_arr == -1].sum())]
    )
    empirical = np.array(
        [counts[str(j)] for j in mm.inputs] + [counts["fail"]], dtype=float
    ) / cfg.trials
    tv = 0.5 * float(np.abs(empirical - marginal).sum())
    return SimReport(
        seed=cfg.seed,
        trials=cfg.trials,
        copies=cfg.copies,
        counts=counts,
        misidentifications=misid,
        empirical_failure=empirical_failure,
        theoretical_failure=mm.theoretical_failure,
        tv_distance=tv,
    )


def complement_decomposition(dims, enlarged_dims):
    """Product-term decomposition of the complement of an embedded identity.

    With each party's space enlarged from dims[a] to enlarged_dims[a] and
    P_a the projector onto the original subspace, the complement of the
    embedded product projector telescopes into one product term per party:

        I' - P_1 x ... x P_P = sum_a  P_1 x ... x P_(a-1) x (I'_a - P_a) x I' x ... x I'

    Each term is a tensor product of projectors, so a protocol acting on the
    enlarged spaces can absorb the complement into per-party bookkeeping.
    Returns the list of terms, each as its list of per-party factors; terms
    where a party was not enlarged are identically zero and still returned.
    """
    dims = [int(d) for d in dims]
    enlarged = [int(d) for d in enlarged_dims]
    if len(dims) != len(enlarged):
        raise ValueError("dims and enlarged_dims must have the same length")
    if any(d < 1 for d in dims):
        raise ValueError("dims must be positive")
    if any(e < d for d, e in zip(dims, enlarged)):
        raise ValueError("every enlarged dimension must be >= the original")
    p = len(dims)
    projs = []
    for d, e in zip(dims, enlarged):
        pi = np.zeros((e, e), dtype=complex)
        pi[:d, :d] = np.eye(d)
        projs.append(pi)
    terms = []
    for a in range(p):
        factors = []
        for b in range(p):
            if b < a:
                factors.append(projs[b])
            elif b == a:
                factors.append(np.eye(enlarged[a], dtype=complex) - projs[a])
            else:
                factors.append(np.eye(enlarged[b], dtype=complex))
        terms.append(factors)

    total = int(np.prod(enlarged))
    assembled = sum(kron_all(t) for t in terms)
    target = np.eye(total) - kron_all(projs)
    gap = float(np.linalg.norm(assembled - target))
    if gap > 1e-12:
        raise InvariantError(f"complement decomposition residual {gap:.3e}")
    return terms
