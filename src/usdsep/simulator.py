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
simulator samples it; no N^n outcome table is formed anywhere.  It draws
tallies rather than trials: one multinomial splits the trials among the
inputs and one more each input's share between its two cells, so the
cost does not grow with the trials.

The law is one (D, 2) array: the partner cells w_i |<psi_i|phi_i>|^2 and
failure_probability's per-input failures are written into it, and n > 1
copies overwrite it with 1 - f^n and f^n through out= ufuncs.  Each form
is checked from its min() and the max() of one |row sum - 1| buffer, then
clipped at zero in place by np.maximum.  The report reads the tallies
once: the counts from one tolist of the partner cells, the failure from
their sum, and the total variation distance from one (D + 1,) buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import Instance, ReciprocalSet, _check_match, _is_integer, reciprocal_set
from .numerics import check, kron_all
from .usd import WeightedMeasurement, failure_probability, family_product_ops, optimal_measurement

__all__ = [
    "SimConfig",
    "SimReport",
    "MulticopyMeasurement",
    "run_discrimination",
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
    """The symmetric measurement's n copies: the factors certify counts and the exact failure."""

    # Per label tuple, in family_product_ops order: one factor per party,
    # that party's copies tensored together.
    party_factors: tuple
    theoretical_failure: float


def _checked_rows(rows: np.ndarray) -> np.ndarray:
    """The (D, 2) law ``rows``, validated and clipped at zero in place.

    A negative probability or a row sum off 1 past its BOUNDS row means the
    measurement was not a POVM: InvariantError.  The checks read rows.min()
    and the largest |row sum - 1| of one (D,) buffer, and np.maximum clips
    into ``rows`` itself.
    """
    check("negative outcome probability", -float(rows.min()))
    miss = np.add(rows[:, 0], rows[:, 1])
    miss -= 1.0
    check("outcome probabilities miss 1", float(np.abs(miss, out=miss).max()))
    return np.maximum(rows, 0.0, out=rows)


def _sample_counts(rows: np.ndarray, trials: int, seed: int) -> np.ndarray:
    """(inputs, outcomes) int64 tallies of ``trials`` runs; rows[i] is input i's outcome row.

    Inputs are uniform.  One multinomial splits the trials among the inputs,
    then one multinomial per input, over its normalized row, splits that
    input's share among the outcomes.  The cost is O(inputs x outcomes)
    whatever ``trials``, and a given seed reproduces the tallies bit for bit.
    """
    rng = np.random.default_rng(seed)
    uniform = np.empty(len(rows))
    uniform.fill(1.0 / len(rows))
    per_input = rng.multinomial(trials, uniform)
    return rng.multinomial(per_input, rows / rows.sum(axis=1, keepdims=True))


def _single_rows(r: ReciprocalSet, m: WeightedMeasurement) -> np.ndarray:
    """Checked (D, 2) outcome rows of one copy of ``m`` on the reciprocal inputs.

    Column 0 is input i's partner label, weighing w_i |<psi_i|phi_i>|^2;
    column 1 is the failure <phi_i|F|phi_i> from failure_probability.  F's
    coefficients there are not the complement of the weights, so a row
    that misses 1 shows a Born table that misses completeness.  Labels
    naming another input weigh at most sum(w) b^2, b the derived overlap bound.
    A weight past the pair cap 2D/N = 1/q, which a loosened positivity
    tolerance admits, leaves a negative failure cell: ValueError.  Both
    columns are written into one new (D, 2) array, which _checked_rows
    then validates and clips in place.
    """
    d = len(m.indices)
    top, cap = float(m.weights.max()), 2.0 * d / m.n
    if top > cap:
        raise ValueError(
            f"weight {top:g} of label {m.indices[int(m.weights.argmax())]} exceeds the pair "
            f"cap 2D/N = {cap:g}, so its failure probability 1 - q w would be negative"
        )
    check("stray outcome weight", float(m.weights.sum()) * r.residuals["derived overlap bound"] ** 2)
    single = np.empty((d, 2))
    np.multiply(m.weights, r.born[:, 0], out=single[:, 0])
    single[:, 1] = failure_probability(m, r).per_state_failure
    return _checked_rows(single)


def _named_rows(single: np.ndarray, copies: int) -> np.ndarray:
    """(D, 2) law of the partner and the failure for ``copies`` copies, per reciprocal input.

    ``single`` is the checked single-copy table of _single_rows, which is
    overwritten with the law.  With p the normalized partner cell each copy
    fails with f = 1 - p, so n copies fail with f^n and name the partner
    with 1 - f^n; log1p and expm1 keep both off differences of numbers near
    1.  One copy is the single-copy table itself.
    """
    if copies == 1:
        return single
    partner, failure = single[:, 0], single[:, 1]
    kept = np.add(partner, failure)
    np.divide(partner, kept, out=kept)
    np.negative(kept, out=kept)
    with np.errstate(divide="ignore"):  # a partner share of 1: f^n = 0
        np.log1p(kept, out=kept)
    kept *= copies  # log f^n
    np.negative(np.expm1(kept, out=partner), out=partner)
    np.exp(kept, out=failure)
    return _checked_rows(single)


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
    i's partner cell, and no tally names another input.  The counts come
    from one tolist of the partner cells; the distance is summed in one
    (D + 1,) buffer, the retained labels' gaps and then the failure's.
    """
    _check_match(inst, m)
    law = _named_rows(_single_rows(r, m), cfg.copies)
    cells = _sample_counts(law, cfg.trials, cfg.seed)
    d, trials = len(m.indices), cfg.trials
    fail = int(cells[:, 1].sum())
    exact = float(law[:, 1].sum()) / d
    gap = np.empty(d + 1)
    gap[:d], gap[d] = cells[:, 0], fail
    gap /= trials
    gap[:d] -= np.divide(law[:, 0], d, out=law[:, 0])
    gap[d] -= exact
    tv = 0.5 * float(np.abs(gap, out=gap).sum())
    del gap, law  # freed before the counts dict, the peak of a run at large D
    counts = dict(zip(map(str, m.indices), cells[:, 0].tolist()))
    counts["fail"] = fail
    return SimReport(
        seed=cfg.seed,
        trials=trials,
        copies=cfg.copies,
        counts=counts,
        misidentifications=trials - int(cells.sum()),
        empirical_failure=fail / trials,
        theoretical_failure=exact,
        tv_distance=tv,
    )


def multicopy_measurement(inst: Instance, copies: int) -> MulticopyMeasurement:
    """Tensor power of the symmetric single-copy measurement.

    One outcome per label tuple (j_1, ..., j_n), with element
    (D/N)^n * P_(j_1) x ... x P_(j_n), kept as its per-party factors from
    family_product_ops.  The failure probability, exactly 2^(-n), is the
    mean failure cell of the (D, 2) law that run_discrimination samples.

    Raises ValueError, from family_product_ops and before anything is
    allocated, for copies not an integer >= 1 and for factors past
    usd.MAX_FAMILY_ENTRIES.
    """
    factors = family_product_ops(inst, copies)
    cells = _single_rows(reciprocal_set(inst), optimal_measurement(inst))
    return MulticopyMeasurement(
        party_factors=tuple(tuple(f) for f in factors),
        theoretical_failure=float(_named_rows(cells, copies)[:, 1].mean()),
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
