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

Both run functions share one sampling path, which draws tallies rather
than trials: one multinomial splits the trials among the inputs and one
more splits each input's share among its outcomes, so the cost does not
grow with the number of trials.  Each outcome maps to the row index of the
input it names (one past the last row when inconclusive); the report sums
the (input, outcome) tallies by that index, and one weighted bincount gives
the exact marginal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .instance import Instance, ReciprocalSet, _check_match, reciprocal_set
from .numerics import check, kron_all
from .usd import MAX_FAMILY_ENTRIES, WeightedMeasurement, failure_probability, family_product_ops

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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 1 <= self.trials < 2**63:
            raise ValueError("trials must be >= 1 and < 2**63")
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


@dataclass(frozen=True)
class MulticopyMeasurement:
    """Tensor-power measurement with outcome tuples classified once."""

    tuples: tuple[tuple[int, ...], ...]
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


def _stray(names: np.ndarray, fail: int) -> np.ndarray:
    """(inputs, outcomes) mask of the outcomes that name another input than the row's."""
    return (names != fail) & (names != np.arange(fail)[:, None])


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


def _label_rows(labels, inputs) -> np.ndarray:
    """Row index of the input each outcome's label names; len(inputs) for None."""
    row_of = {j: i for i, j in enumerate(inputs)}
    return np.array([len(inputs) if lab is None else row_of[lab] for lab in labels])


def _sampled_report(rows, names, inputs, theoretical: float, cfg: SimConfig) -> SimReport:
    """Sample tallies from ``rows`` and sum them by the input each outcome names.

    rows[i] is the exact outcome distribution of input i (label inputs[i]);
    names[k] is the row index outcome k names, or len(inputs) when it is
    inconclusive.  The (input, outcome) tallies from _sample_counts are
    exact integers: a label's count sums its outcomes' columns, and the
    misidentifications sum the cells whose outcome names another input.
    """
    cells = _sample_counts(rows, cfg.trials, cfg.seed)
    fail = len(inputs)
    tallies = np.zeros(fail + 1, dtype=np.int64)
    np.add.at(tallies, names, cells.sum(axis=0))
    marginal = np.bincount(names, weights=rows.mean(axis=0), minlength=fail + 1)
    misid = int(cells[_stray(names, fail)].sum())

    counts = {str(j): int(t) for j, t in zip(inputs, tallies)}
    counts["fail"] = int(tallies[fail])
    tv = 0.5 * float(np.abs(tallies / cfg.trials - marginal).sum())
    return SimReport(
        seed=cfg.seed,
        trials=cfg.trials,
        copies=cfg.copies,
        counts=counts,
        misidentifications=misid,
        empirical_failure=counts["fail"] / cfg.trials,
        theoretical_failure=theoretical,
        tv_distance=tv,
    )


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
    _check_match(inst, m)
    exact = failure_probability(m, r)

    # Outcome j weighs w_j |<psi_j|phi>|^2; the failure column is <phi|F|phi>.
    conclusive = m.weights * np.take(r.born, np.subtract(m.indices, 1), axis=1)
    dists = _checked_rows(np.column_stack([conclusive, exact.per_state_failure]))
    # Column k names input row k, and the last column is the failure.
    names = np.arange(len(m.indices) + 1)
    return _sampled_report(dists, names, m.indices, exact.failure_probability, cfg)


def classify_tuple(tup, omit: int):
    """Label named by an outcome tuple, or None when it is inconclusive.

    The non-omitted entries must be nonempty and all equal to name a label;
    the all-omitted tuple and any mix of two retained labels name nothing.
    """
    named = {j for j in tup if j != omit}
    if len(named) == 1:
        return named.pop()
    return None


def multicopy_measurement(inst: Instance, copies: int) -> MulticopyMeasurement:
    """Tensor power of the symmetric single-copy measurement.

    One outcome per label tuple (j_1, ..., j_n), with element
    (D/N)^n * P_(j_1) x ... x P_(j_n), kept as its per-party factors from
    family_product_ops.  Tuples are classified by classify_tuple.  An input
    phi^(x n) gives the tuple the product of its single-copy Born weights
    (D/N) |<psi_(j_k)|phi>|^2, so the exact per-input distribution is the
    n-fold outer product of the single-copy N-outcome rows.  It certifies
    that no tuple has weight on an input it does not name and that the
    failure probability is exactly 2^(-n).

    Raises ValueError for copies < 1, and for an outcome table of D * N^n
    entries or per-party factors past usd.MAX_FAMILY_ENTRIES, before
    anything is allocated.
    """
    n, d = inst.n, inst.total_dim
    # Past 64 copies N^n alone is over the limit; the shortcut keeps a huge
    # copies from forming a huge integer.
    if copies > 64 or d * n**copies > MAX_FAMILY_ENTRIES:
        raise ValueError(
            f"{copies}-copy outcome table of N = {n} exceeds the limit of {MAX_FAMILY_ENTRIES}"
        )
    party_factors = tuple(tuple(f) for f in family_product_ops(inst, copies))
    tuples = tuple(itertools.product(range(1, n + 1), repeat=copies))
    labels = tuple(classify_tuple(t, inst.omit) for t in tuples)

    r = reciprocal_set(inst)
    single = (d / n) * r.born
    per_state = single
    for _ in range(copies - 1):
        per_state = (per_state[:, :, None] * single[:, None, :]).reshape(len(r.indices), -1)
    per_state = _checked_rows(per_state)

    # Zero-error audit: an outcome tuple may only weight the input it names.
    names = _label_rows(labels, r.indices)
    fail = len(r.indices)
    check("stray outcome weight", float(per_state[_stray(names, fail)].max(initial=0.0)))
    fail_mass = per_state[:, names == fail].sum(axis=1)
    theoretical = float(fail_mass.mean())
    return MulticopyMeasurement(
        tuples=tuples,
        labels=labels,
        party_factors=party_factors,
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
    names = _label_rows(mm.labels, mm.inputs)
    return _sampled_report(mm.per_state, names, mm.inputs, mm.theoretical_failure, cfg)


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
    check("complement decomposition", float(np.linalg.norm(assembled - target)))
    return terms
