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
any tuple mixing two different retained labels, is inconclusive.  Input i
fails on each copy with probability 1 - w_i q independently, so under the
symmetric weights the failure probability decays as 2^(-n).

Grouped by the label they name, n copies are again an N-outcome
measurement, and an input's Born row has two nonzero cells, its partner
and the failure (instance module docstring).  So every copy count has a
(D, 2) law, partner 1 - f^n and failure f^n with f = 1 - w_i q, and the
simulator samples it with no N^n table (multicopy_measurement keeps that
as the reference).  It draws tallies rather than trials: one multinomial
splits the trials among the inputs and one more each input's share
between its two cells, so the cost does not grow with the trials.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .instance import Instance, ReciprocalSet, _check_match, _is_integer, reciprocal_set
from .numerics import check, kron_all
from .usd import MAX_FAMILY_ENTRIES, WeightedMeasurement, failure_probability
from .usd import family_product_ops, optimal_measurement

__all__ = [
    "SimConfig",
    "SimReport",
    "MulticopyMeasurement",
    "run_discrimination",
    "classify_tuple",
    "multicopy_measurement",
    "run_multicopy_discrimination",
    "complement_decomposition",
]


@dataclass(frozen=True)
class SimConfig:
    seed: int
    trials: int
    copies: int = 1

    def __post_init__(self):
        if not all(map(_is_integer, (self.seed, self.trials, self.copies))):
            raise ValueError(f"seed, trials and copies must be integers, got {self!r}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 1 <= self.trials < 2**63:
            raise ValueError("trials must be >= 1 and < 2**63")
        if not 1 <= self.copies < 2**63:
            raise ValueError("copies must be >= 1 and < 2**63")


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


@dataclass(frozen=True)
class MulticopyMeasurement:
    """Tensor-power measurement; outcome k is the k-th label tuple of
    itertools.product(range(1, N + 1), repeat=copies)."""

    labels: tuple[object, ...]  # per tuple: retained label j or None (failure)
    # Per tuple: one factor per party, that party's copies tensored together
    # (the grouping a party holding all its copies acts with).
    party_factors: tuple
    theoretical_failure: float
    per_state: np.ndarray  # (D, N^n) exact outcome distribution per input
    inputs: tuple[int, ...]  # (D,) retained label of each per_state row


def _checked_rows(rows: np.ndarray) -> np.ndarray:
    """Exact outcome rows, one per input, validated and clipped at zero.

    A negative probability or a row sum off 1 past its BOUNDS row means the
    measurement was not a POVM: InvariantError.
    """
    check("negative outcome probability", -float(rows.min()))
    check("outcome probabilities miss 1", float(np.max(np.abs(rows.sum(axis=1) - 1.0))))
    return np.clip(rows, 0.0, None)


def _sample_counts(rows: np.ndarray, trials: int, seed: int) -> np.ndarray:
    """(inputs, outcomes) int64 tallies of ``trials`` runs; rows[i] is input i's outcome row.

    Inputs are uniform.  One multinomial splits the trials among the inputs,
    then one multinomial per input, over its normalized row, splits that
    input's share among the outcomes.  The cost is O(inputs x outcomes)
    whatever ``trials``, and a given seed reproduces the tallies bit for bit.
    """
    rng = np.random.default_rng(seed)
    per_input = rng.multinomial(trials, np.full(len(rows), 1.0 / len(rows)))
    return rng.multinomial(per_input, rows / rows.sum(axis=1, keepdims=True))


def _single_rows(r: ReciprocalSet, m: WeightedMeasurement) -> np.ndarray:
    """Checked (D, 2) outcome rows of one copy of ``m`` on the reciprocal inputs.

    Column 0 is input i's partner label, weighing w_i |<psi_i|phi_i>|^2;
    column 1 is the failure <phi_i|F|phi_i> from failure_probability.  F's
    coefficients there are not the complement of the weights, so a row
    that misses 1 shows a Born table that misses completeness.  Labels
    naming another input weigh at most sum(w) b^2, b the derived overlap bound.
    A weight past the pair cap 2D/N = 1/q, which a loosened positivity
    tolerance admits, leaves a negative failure cell: ValueError.
    """
    i, cap = int(np.argmax(m.weights)), 2.0 * len(m.indices) / m.n
    if m.weights[i] > cap:
        raise ValueError(
            f"weight {m.weights[i]:g} of label {m.indices[i]} exceeds the pair cap 2D/N = {cap:g}, "
            f"so its failure probability 1 - q w would be negative"
        )
    check("stray outcome weight", float(m.weights.sum()) * r.residuals["derived overlap bound"] ** 2)
    single = np.stack([m.weights * r.born[:, 0], failure_probability(m, r).per_state_failure], 1)
    return _checked_rows(single)


def _named_rows(single: np.ndarray, copies: int) -> np.ndarray:
    """(D, 2) law of the partner and the failure for ``copies`` copies, per reciprocal input.

    ``single`` is the checked single-copy table of _single_rows.  With p
    the normalized partner cell each copy fails with f = 1 - p, so n
    copies fail with f^n and name the partner with 1 - f^n; log1p and
    expm1 keep both off differences of numbers near 1.  One copy is the
    single-copy table itself.
    """
    if copies == 1:
        return single
    with np.errstate(divide="ignore"):  # a partner share of 1: f^n = 0
        kept = copies * np.log1p(-single[:, 0] / single.sum(axis=1))  # log f^n
    return _checked_rows(np.stack([-np.expm1(kept), np.exp(kept)], 1))


def run_discrimination(
    inst: Instance, r: ReciprocalSet, m: WeightedMeasurement, cfg: SimConfig
) -> SimReport:
    """Monte Carlo discrimination of the reciprocal states with cfg.copies copies of ``m``.

    Outcome labels are the retained state labels plus "fail".  The report
    compares the empirical failure rate with the exact one, the mean of
    (1 - w_i q)^n, and carries the total variation distance between the
    empirical and exact outcome distributions.  The copies are sampled by
    the label they name (_named_rows), so the (input, cell) tallies from
    _sample_counts are exact integers: label indices[i]'s count is input
    i's partner cell, and no tally names another input.
    """
    _check_match(inst, m)
    law = _named_rows(_single_rows(r, m), cfg.copies)
    cells = _sample_counts(law, cfg.trials, cfg.seed)
    d = len(m.indices)
    tallies = np.append(cells[:, 0], cells[:, 1].sum())  # retained labels, then "fail"
    marginal = np.append(law[:, 0] / d, law[:, 1].mean())
    counts = {str(j): int(t) for j, t in zip(m.indices, tallies)}
    counts["fail"] = int(tallies[-1])
    misid = cfg.trials - int(tallies.sum())
    tv = 0.5 * float(np.abs(tallies / cfg.trials - marginal).sum())
    return SimReport(
        seed=cfg.seed,
        trials=cfg.trials,
        copies=cfg.copies,
        counts=counts,
        misidentifications=misid,
        empirical_failure=counts["fail"] / cfg.trials,
        theoretical_failure=float(marginal[-1]),
        tv_distance=tv,
    )


def classify_tuple(tup, omit: int):
    """Label named by an outcome tuple, or None when it is inconclusive.

    The non-omitted entries must be nonempty and all equal to name a label;
    the all-omitted tuple and any mix of two retained labels name nothing.
    multicopy_measurement labels its N^n reference tuples with it.
    """
    named = {j for j in tup if j != omit}
    if len(named) == 1:
        return named.pop()
    return None


def multicopy_measurement(inst: Instance, copies: int) -> MulticopyMeasurement:
    """Tensor power of the symmetric single-copy measurement.

    One outcome per label tuple (j_1, ..., j_n), with element
    (D/N)^n * P_(j_1) x ... x P_(j_n), kept as its per-party factors from
    family_product_ops.  An input phi^(x n) gives the tuple the product of
    its single-copy Born weights, so the exact per-input distribution is the
    n-fold outer product of the single-copy rows (_single_rows, its two
    cells scattered into the N labels), labelled
    by classify_tuple: the reference for the law that _named_rows samples,
    from which the failure probability, exactly 2^(-n), is read.

    Raises ValueError for copies not an integer >= 1, and for an outcome
    table of D * N^n entries or per-party factors past
    usd.MAX_FAMILY_ENTRIES, before anything is allocated.
    """
    if not _is_integer(copies) or copies < 1:
        raise ValueError(f"copies must be an integer >= 1, got {copies!r}")
    n, d = inst.n, inst.total_dim
    # Past 64 copies N^n alone is over the limit: no huge integer is formed.
    if copies > 64 or d * n**copies > MAX_FAMILY_ENTRIES:
        raise ValueError(
            f"{copies}-copy outcome table of N = {n} exceeds the limit of {MAX_FAMILY_ENTRIES}"
        )
    r, m = reciprocal_set(inst), optimal_measurement(inst)
    cells = _single_rows(r, m)
    single = np.zeros((d, n))
    single[np.arange(d), np.subtract(r.indices, 1)], single[:, inst.omit - 1] = cells.T
    per_state = single
    for _ in range(copies - 1):
        per_state = (per_state[:, :, None] * single[:, None, :]).reshape(d, -1)
    tuples = itertools.product(range(1, n + 1), repeat=copies)
    return MulticopyMeasurement(
        labels=tuple(classify_tuple(t, inst.omit) for t in tuples),
        party_factors=tuple(tuple(f) for f in family_product_ops(inst, copies)),
        theoretical_failure=float(_named_rows(cells, copies)[:, 1].mean()),
        per_state=per_state,
        inputs=r.indices,
    )


def run_multicopy_discrimination(inst: Instance, cfg: SimConfig) -> SimReport:
    """run_discrimination of the symmetric measurement with cfg.copies copies."""
    return run_discrimination(inst, reciprocal_set(inst), optimal_measurement(inst), cfg)


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
    dims, enlarged = list(dims), list(enlarged_dims)
    if not all(map(_is_integer, dims + enlarged)):
        raise ValueError(f"dimensions must be integers, got {dims!r} and {enlarged!r}")
    if len(dims) != len(enlarged):
        raise ValueError("dims and enlarged_dims must have the same length")
    if any(d < 1 for d in dims):
        raise ValueError("dims must be positive")
    if any(e < d for d, e in zip(dims, enlarged)):
        raise ValueError("every enlarged dimension must be >= the original")
    projs = [np.diag(np.arange(e) < d).astype(complex) for d, e in zip(dims, enlarged)]
    eyes = [np.eye(e, dtype=complex) for e in enlarged]
    terms = [projs[:a] + [eyes[a] - projs[a]] + eyes[a + 1 :] for a in range(len(dims))]
    assembled = sum(kron_all(t) for t in terms)
    target = np.eye(int(np.prod(enlarged))) - kron_all(projs)
    check("complement decomposition", float(np.linalg.norm(assembled - target)))
    return terms
