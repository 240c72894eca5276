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
measurement over the same labels, so the simulator samples one (D, N) law
for every copy count and forms no N^n table (multicopy_measurement keeps
it as the reference).  It draws tallies rather than trials: one
multinomial splits the trials among the inputs and one more splits each
input's share among the labels, so the cost does not grow with the trials.
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
    """Checked (D, N) outcome rows of one copy of ``m`` on the reciprocal inputs.

    Column j - 1 is label j, weighing w_j |<psi_j|phi_i>|^2; the omitted
    label's column is <phi_i|F|phi_i> from failure_probability.  F's
    coefficients there are not the complement of the weights, so a row
    that misses 1 shows a Born table that misses completeness.
    """
    retained = np.subtract(m.indices, 1)
    single = np.empty((len(m.indices), m.n))
    single[:, retained] = m.weights * r.born[:, retained]
    single[:, m.omit - 1] = failure_probability(m, r).per_state_failure
    return _checked_rows(single)


def _named_rows(single: np.ndarray, m: WeightedMeasurement, copies: int) -> np.ndarray:
    """(D, N) law of the label that ``copies`` copies of ``m`` name, per reciprocal input.

    ``single`` is the checked single-copy table of _single_rows, which the
    caller builds once; it is not modified.  With p a normalized single-copy
    row and f its failure cell, label k is named with probability
    (p_k + f)^n - f^n, so a stray cell sums every tuple naming another
    input.  With s the mass on those labels, the partner takes
    (1 - s)^n - f^n and the omitted label's column the rest; expm1 and log1p
    keep every cell off differences of numbers near 1.  One copy is the
    single-copy table itself.
    """
    law = single
    fail, rows, partner = m.omit - 1, np.arange(len(m.indices)), np.subtract(m.indices, 1)
    other = np.ones(law.shape, dtype=bool)  # labels naming another input than the row's
    other[:, fail] = other[rows, partner] = False
    if copies > 1:
        law = single / single.sum(axis=1, keepdims=True)
        f = law[:, fail].copy()  # a copy: the failure column is overwritten below
        kept = copies * np.log1p(-law.sum(axis=1, where=other))  # log (1 - s)^n
        np.subtract((law + f[:, None]) ** copies, f[:, None] ** copies, out=law, where=other)
        law[:, fail] = f**copies - np.expm1(kept) - law.sum(axis=1, where=other)
        law[rows, partner] = np.exp(kept) - f**copies
        law = _checked_rows(law)
    check("stray outcome weight", float(law.max(where=other, initial=0.0)))
    return law


def run_discrimination(
    inst: Instance, r: ReciprocalSet, m: WeightedMeasurement, cfg: SimConfig
) -> SimReport:
    """Monte Carlo discrimination of the reciprocal states with cfg.copies copies of ``m``.

    Outcome labels are the retained state labels plus "fail".  The report
    compares the empirical failure rate with the exact one, the mean of
    (1 - w_i q)^n, and carries the total variation distance between the
    empirical and exact outcome distributions.  The copies are sampled by
    the label they name (_named_rows), so the (input, label) tallies from
    _sample_counts are exact integers: a label's count is its column sum,
    and the misidentifications are the conclusive cells off the partner.
    """
    _check_match(inst, m)
    law = _named_rows(_single_rows(r, m), m, cfg.copies)
    cells = _sample_counts(law, cfg.trials, cfg.seed)
    fail, partner = m.omit - 1, np.subtract(m.indices, 1)
    order = [*partner, fail]  # the report's outcomes: retained labels, then "fail"
    tallies, marginal = cells.sum(axis=0)[order], law.mean(axis=0)[order]
    named = int(cells[np.arange(len(partner)), partner].sum())
    counts = {str(j): int(t) for j, t in zip(m.indices, tallies)}
    counts["fail"] = int(tallies[-1])
    misid = cfg.trials - named - counts["fail"]
    tv = 0.5 * float(np.abs(tallies / cfg.trials - marginal).sum())
    return SimReport(
        seed=cfg.seed,
        trials=cfg.trials,
        copies=cfg.copies,
        counts=counts,
        misidentifications=misid,
        empirical_failure=counts["fail"] / cfg.trials,
        theoretical_failure=float(law[:, fail].mean()),
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
    n-fold outer product of the single-copy rows (_single_rows), labelled
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
    single = per_state = _single_rows(r, m)
    for _ in range(copies - 1):
        per_state = (per_state[:, :, None] * single[:, None, :]).reshape(d, -1)
    tuples = itertools.product(range(1, n + 1), repeat=copies)
    return MulticopyMeasurement(
        labels=tuple(classify_tuple(t, inst.omit) for t in tuples),
        party_factors=tuple(tuple(f) for f in family_product_ops(inst, copies)),
        theoretical_failure=float(_named_rows(single, m, copies)[:, inst.omit - 1].mean()),
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
    check("complement decomposition", float(np.linalg.norm(assembled - target)))
    return terms
