"""Extreme-ray certificates against finite-round LOCC implementability.

Any measurement a finite-round protocol of local operations can realize has
product-operator outcomes K_1 x ... x K_P whose per-party factors, viewed as
rays in the cone of positive operators, cannot be too rich: writing e_alpha
for the number of distinct extreme rays among party alpha's factors and
summing over the parties that act nontrivially, a protocol with N product
outcomes obeys

    sum_alpha e_alpha <= 2 (N - 1).

The certifier counts the left-hand side for a concrete measurement.  Each
party's factors travel as one read-only (R, d, d) stack.  Rays are grouped
up to positive scaling, and a representative is extreme exactly when it is
not a nonnegative combination of the other classes, which is a nonnegative
least squares feasibility question in the isometric real coordinates of
vec_herm.  One vec_herm call per party maps the stack of class
representatives to the columns of one real matrix V; class c is then
decided by NNLS of column c over V with that column removed.  Rank-1
operators are always extreme (anything positive summing to a rank-1
operator must live on its range), which covers every family built here, but
the NNLS route is kept as the deciding test so the certificate never leans
on that shortcut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import nnls, vec_herm

__all__ = [
    "LocalOperatorSet",
    "RayGroups",
    "PartyConeStat",
    "ConeReport",
    "distinct_rays",
    "count_extreme",
    "certify",
]

RAY_TOL = 1e-8
PSD_INPUT_TOL = 1e-10
IDENTITY_RTOL = 1e-8
WARN_BAND = (1e-8, 1e-6)


@dataclass(frozen=True)
class LocalOperatorSet:
    """The factors one party contributes across all measurement outcomes.

    ``ops`` may be given as any sequence of equal square matrices; it is
    kept as a validated read-only (R, d, d) complex stack.
    """

    party: int
    ops: np.ndarray

    def __post_init__(self):
        if len(self.ops) == 0:
            raise ValueError("operator set must be non-empty")
        dim = np.shape(self.ops[0])[0]
        if any(np.shape(op) != (dim, dim) for op in self.ops):
            raise ValueError("operators must share one square dimension")
        stack = np.array(self.ops, dtype=complex)
        if not np.all(np.isfinite(stack)):
            raise ValueError("operators must have finite entries")
        hermitian = (stack + stack.conj().transpose(0, 2, 1)) / 2.0
        if float(np.linalg.eigvalsh(hermitian)[:, 0].min()) < -PSD_INPUT_TOL:
            raise ValueError("operators must be positive semidefinite")
        stack.setflags(write=False)
        object.__setattr__(self, "ops", stack)

    @property
    def dim(self) -> int:
        return self.ops.shape[1]


@dataclass(frozen=True)
class RayGroups:
    """Partition of operator indices into equal-ray classes.

    ``groups[c]`` lists the operator indices in class c; ``representatives``
    is the read-only (count, d, d) stack of one Frobenius-normalized
    operator per class.
    """

    groups: tuple[tuple[int, ...], ...]
    representatives: np.ndarray

    @property
    def count(self) -> int:
        return len(self.groups)


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


def distinct_rays(s: LocalOperatorSet, tol: float = RAY_TOL) -> RayGroups:
    """Group the operators into classes equal up to positive scale.

    Two operators land in one class when their Frobenius-normalized forms
    differ by at most ``tol``; positive operators leave no sign ambiguity.
    Each operator joins the first class whose representative is that close,
    and otherwise becomes the representative of a new class.  Zero
    operators are rejected since they name no ray at all.
    """
    norms = np.linalg.norm(s.ops, axis=(1, 2))
    if np.any(norms < 1e-14):
        raise ValueError("zero operator has no ray")
    units = s.ops / norms[:, None, None]
    groups: list[list[int]] = []
    reps = np.empty_like(units)
    for i, unit in enumerate(units):
        # Distances from differences: 2 - 2 Re<u, r> would round at about
        # 1e-16, which is the size of tol**2 itself.
        dist = np.linalg.norm(reps[: len(groups)] - unit, axis=(1, 2))
        near = np.flatnonzero(dist <= tol)
        if near.size:
            groups[near[0]].append(i)
        else:
            reps[len(groups)] = unit
            groups.append([i])
    reps = reps[: len(groups)]
    reps.setflags(write=False)
    return RayGroups(groups=tuple(tuple(g) for g in groups), representatives=reps)


def count_extreme(s: LocalOperatorSet, tol: float = RAY_TOL):
    """Number of extreme ray classes, plus per-class diagnostics.

    One vec_herm call maps the class representatives to the columns of V;
    class c is extreme when NNLS of column c over the other columns leaves a
    relative residual above ``tol``.  Representatives are unit Frobenius
    norm and vec_herm is isometric, so each target column has unit length
    and its residual is already relative.  Returns (count, rays, residuals)
    where residuals[c] is that residual for class c; a lone class resolves
    to infinity, since one ray alone is always extreme in the cone it
    generates.
    """
    rays = distinct_rays(s, tol)
    v = vec_herm(rays.representatives).T
    residuals = np.full(rays.count, np.inf)
    if rays.count > 1:
        for c in range(rays.count):
            _, residuals[c] = nnls(np.delete(v, c, axis=1), v[:, c], tol=max(tol * 1e-4, 1e-14))
    return int(np.count_nonzero(residuals > tol)), rays, residuals


def certify(
    product_ops,
    n_ops: int | None = None,
    tol: float = RAY_TOL,
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

    lo, hi = WARN_BAND
    warnings: list[str] = []
    stats: list[PartyConeStat] = []
    total = 0
    for alpha in range(p):
        ops = LocalOperatorSet(party=alpha, ops=[entry[alpha] for entry in entries])
        extreme, rays, residuals = count_extreme(ops, tol)
        warnings += [
            f"party {alpha} ray class {c}: NNLS residual {residuals[c]:.3e} is borderline"
            for c in np.flatnonzero((lo <= residuals) & (residuals <= hi))
        ]
        stack, d = ops.ops, ops.dim
        scale = np.trace(stack, axis1=1, axis2=2) / d
        off_identity = np.linalg.norm(stack - scale[:, None, None] * np.eye(d), axis=(1, 2))
        norms = np.linalg.norm(stack, axis=(1, 2))
        skipped = bool(np.all(off_identity <= IDENTITY_RTOL * np.maximum(norms, 1e-14)))
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

