"""Extreme-ray certificates against finite-round LOCC implementability.

Any measurement a finite-round protocol of local operations can realize has
product-operator outcomes K_1 x ... x K_P whose per-party factors, viewed as
rays in the cone of positive operators, cannot be too rich: writing e_alpha
for the number of distinct extreme rays among party alpha's factors and
summing over the parties that act nontrivially, a protocol with N product
outcomes obeys

    sum_alpha e_alpha <= 2 (N - 1).

The certifier counts the left-hand side for a concrete measurement.  Rays
are grouped up to positive scaling, and a representative is extreme exactly
when it is not a nonnegative combination of the other classes, which is a
nonnegative least squares feasibility question in the isometric real
coordinates of vec_herm.  Each party's class representatives are vectorized
once and stacked as the columns of one real matrix V; class c is then
decided by NNLS of column c over V with that column removed.  Rank-1
operators are always extreme (anything positive summing to a rank-1
operator must live on its range), which covers every family built here, but
the NNLS route is kept as the deciding test so the certificate never leans
on that shortcut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import nnls, vec_herm

__all__ = [
    "LocalOperatorSet",
    "RayGroups",
    "PartyConeStat",
    "ConeReport",
    "distinct_rays",
    "is_extreme",
    "count_extreme",
    "certify",
]

RAY_TOL = 1e-8
PSD_INPUT_TOL = 1e-10
IDENTITY_RTOL = 1e-8
WARN_BAND = (1e-8, 1e-6)


@dataclass(frozen=True)
class LocalOperatorSet:
    """The factors one party contributes across all measurement outcomes."""

    party: int
    ops: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.ops:
            raise ValueError("operator set must be non-empty")
        dim = self.ops[0].shape[0]
        for op in self.ops:
            if op.shape != (dim, dim):
                raise ValueError("operators must share one square dimension")
            if float(np.linalg.eigvalsh((op + op.conj().T) / 2.0)[0]) < -PSD_INPUT_TOL:
                raise ValueError("operators must be positive semidefinite")

    @property
    def dim(self) -> int:
        return self.ops[0].shape[0]


@dataclass(frozen=True)
class RayGroups:
    """Partition of operator indices into equal-ray classes.

    ``groups[c]`` lists the operator indices in class c; ``representatives``
    holds one Frobenius-normalized operator per class.
    """

    groups: tuple[tuple[int, ...], ...]
    representatives: tuple[np.ndarray, ...]
    _class: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lookup = {i: c for c, members in enumerate(self.groups) for i in members}
        object.__setattr__(self, "_class", lookup)

    @property
    def count(self) -> int:
        return len(self.groups)

    def class_of(self, i: int) -> int:
        try:
            return self._class[i]
        except KeyError:
            raise ValueError(f"operator index {i} not present") from None


@dataclass(frozen=True)
class PartyConeStat:
    party: int
    generators: int
    rays: int
    extreme: int
    skipped: bool


@dataclass(frozen=True)
class ConeReport:
    parties: tuple[PartyConeStat, ...]
    total: int
    bound: int
    verdict: str  # "VIOLATES" or "SATISFIES"
    warnings: tuple[str, ...]
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "parties": [
                {
                    "party": s.party,
                    "generators": s.generators,
                    "rays": s.rays,
                    "extreme": s.extreme,
                    "skipped": s.skipped,
                }
                for s in self.parties
            ],
            "total": self.total,
            "bound": self.bound,
            "verdict": self.verdict,
            "warnings": list(self.warnings),
            "note": self.note,
        }


def _normalized(op: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(op))
    if norm < 1e-14:
        raise ValueError("zero operator has no ray")
    return op / norm


def distinct_rays(s: LocalOperatorSet, tol: float = RAY_TOL) -> RayGroups:
    """Group the operators into classes equal up to positive scale.

    Two operators land in one class when their Frobenius-normalized forms
    differ by at most ``tol``; positive operators leave no sign ambiguity.
    Each operator joins the first class whose representative is that close,
    and otherwise becomes the representative of a new class.  Zero
    operators are rejected since they name no ray at all.
    """
    groups: list[list[int]] = []
    reps = np.empty((len(s.ops), s.dim, s.dim), dtype=complex)
    for i, op in enumerate(s.ops):
        unit = _normalized(op)
        # Distances from differences: 2 - 2 Re<u, r> would round at about
        # 1e-16, which is the size of tol**2 itself.
        dist = np.linalg.norm(reps[: len(groups)] - unit, axis=(1, 2))
        near = np.flatnonzero(dist <= tol)
        if near.size:
            groups[near[0]].append(i)
        else:
            reps[len(groups)] = unit
            groups.append([i])
    return RayGroups(
        groups=tuple(tuple(g) for g in groups),
        representatives=tuple(reps[: len(groups)]),
    )


def _ray_matrix(rays: RayGroups) -> np.ndarray:
    """The representatives' vec_herm coordinates as columns, one call each."""
    return np.column_stack([vec_herm(rep) for rep in rays.representatives])


def _extremality_residual(v: np.ndarray, c: int, tol: float) -> float:
    """Relative NNLS residual of writing column c of v over the other columns.

    Representatives are unit Frobenius norm and vec_herm is isometric, so
    the target vector has unit length and the residual is already relative.
    A single-class set resolves to residual infinity: one ray alone is
    always extreme in the cone it generates.
    """
    if v.shape[1] == 1:
        return np.inf
    _, rnorm = nnls(np.delete(v, c, axis=1), v[:, c], tol=max(tol * 1e-4, 1e-14))
    return rnorm


def is_extreme(i: int, s: LocalOperatorSet, tol: float = RAY_TOL) -> bool:
    """Whether operator i generates an extreme ray of cone(s.ops).

    The operator's ray class is extreme iff no nonnegative combination of
    the other classes reproduces it within ``tol`` relative residual.
    """
    rays = distinct_rays(s, tol)
    return _extremality_residual(_ray_matrix(rays), rays.class_of(i), tol) > tol


def count_extreme(s: LocalOperatorSet, tol: float = RAY_TOL):
    """Number of extreme ray classes, plus per-class diagnostics.

    Each class representative is vectorized once (one vec_herm call per
    class); NNLS of each column over the others still decides extremality.
    Returns (count, rays, residuals) where residuals[c] is the relative
    NNLS residual for class c (infinity for a lone class).
    """
    rays = distinct_rays(s, tol)
    v = _ray_matrix(rays)
    residuals = np.array([_extremality_residual(v, c, tol) for c in range(rays.count)])
    return int(np.count_nonzero(residuals > tol)), rays, residuals


def certify(
    product_ops,
    n_ops: int | None = None,
    tol: float = RAY_TOL,
    identity_rtol: float = IDENTITY_RTOL,
    count_identity_generators: bool = True,
) -> ConeReport:
    """Extreme-ray count certificate for a product-operator measurement.

    Parameters
    ----------
    product_ops : sequence
        One entry per measurement outcome; each entry is the sequence of
        its per-party factor matrices (all positive semidefinite).
    n_ops : int, optional
        Expected number of outcomes; validated against len(product_ops).
    tol : float
        Ray-grouping and extremality threshold; must be positive and finite.
    identity_rtol : float
        Relative threshold for treating a factor as proportional to the
        identity.  A party whose factors are all proportional to the
        identity never acts and is excluded from the total.
    count_identity_generators : bool
        Whether identity-proportional factors of a counted party still
        enter that party's cone as generators.  They are genuine factor
        operators of the measurement, so the default keeps them.

    Returns
    -------
    ConeReport with verdict "VIOLATES" when the counted extreme rays exceed
    2 * (n_ops - 1), meaning no finite-round protocol of local operations
    can realize the measurement, and "SATISFIES" otherwise (which certifies
    nothing by itself).  NNLS residuals inside the warning band
    [1e-8, 1e-6] are reported as borderline rather than trusted silently.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    entries = [list(entry) for entry in product_ops]
    if not entries:
        raise ValueError("need at least one product operator")
    if n_ops is not None and n_ops != len(entries):
        raise ValueError(f"n_ops={n_ops} but {len(entries)} product operators given")
    n_ops = len(entries)
    p = len(entries[0])
    if p < 1:
        raise ValueError("product operators need at least one factor")
    if any(len(entry) != p for entry in entries):
        raise ValueError("all product operators must have the same party count")

    warnings: list[str] = []
    stats: list[PartyConeStat] = []
    total = 0
    for alpha in range(p):
        factors = [np.asarray(entry[alpha], dtype=complex) for entry in entries]
        ops = LocalOperatorSet(party=alpha, ops=tuple(factors))
        is_id = [_proportional_to_identity(f, identity_rtol) for f in factors]
        skipped = all(is_id)
        counted = ops
        if not skipped and not count_identity_generators and any(is_id):
            kept = tuple(f for f, ident in zip(factors, is_id) if not ident)
            counted = LocalOperatorSet(party=alpha, ops=kept)
        extreme, rays, residuals = count_extreme(counted, tol)
        lo, hi_band = WARN_BAND
        for c, rn in enumerate(residuals):
            if lo <= rn <= hi_band:
                warnings.append(
                    f"party {alpha} ray class {c}: NNLS residual {rn:.3e} is borderline"
                )
        stats.append(
            PartyConeStat(
                party=alpha,
                generators=len(ops.ops),
                rays=rays.count,
                extreme=extreme,
                skipped=skipped,
            )
        )
        if not skipped:
            total += extreme

    bound = 2 * (n_ops - 1)
    note = ""
    if p == 1:
        verdict = "SATISFIES"
        note = "single-party measurement: trivially implementable locally"
    else:
        verdict = "VIOLATES" if total > bound else "SATISFIES"
    return ConeReport(
        parties=tuple(stats),
        total=total,
        bound=bound,
        verdict=verdict,
        warnings=tuple(warnings),
        note=note,
    )


def _proportional_to_identity(op: np.ndarray, rtol: float) -> bool:
    d = op.shape[0]
    scale = np.trace(op) / d
    return float(np.linalg.norm(op - scale * np.eye(d))) <= rtol * max(
        float(np.linalg.norm(op)), 1e-14
    )
