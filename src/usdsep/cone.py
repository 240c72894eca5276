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
up to positive scaling, and a representative r_c is extreme exactly when it
is not a nonnegative combination of the other classes.  One vec_herm call
per party maps the stack to isometric real coordinates, where that is a
question about the columns of one real matrix V.

A party's pass forms each quantity once and reads it wherever it is needed.
A ray does not depend on scale, and K_1 x K_2 = (c K_1) x (K_2 / c) names
the same outcome, so LocalOperatorSet divides the scale out once: finite
Frobenius norms clear every entry at once, a norm of 0 or below the normal
range names no ray, and it keeps only the unit stack M / ||M||_F, which
every later test reads.
The one vec_herm call splits it into its diagonal and triangles once; both
the coordinates V and the asymmetry check read that split.  The ray screen
is one Gram matrix of V, the witness reads V and the representatives, and
certify's identity test reads the unit diagonal (see _near_identity), so
no pass forms M - (Tr M / d) I.

Every factor must be positive semidefinite relative to its scale:
lambda_min(H) >= -PSD_INPUT_TOL for the Hermitian part H of its unit
form.  One batched Cholesky of 2 (H + s I) per party, formed in one
buffer, proves it, s = PSD_INPUT_TOL - 8 d (d + 1) u with u the unit
roundoff: the backward error of a completed Cholesky (Higham, Accuracy
and Stability of Numerical Algorithms, 2nd ed., 2002, Thm 10.3, and
sec. 3.6 for complex arithmetic) stays below 3.1 d (d + 1) u (||H||_F + s),
relative to the scale of the matrix, so the factor 2 changes nothing, and
with ||H||_F <= 1 and the rounding of the shifted diagonal it stays below
PSD_INPUT_TOL - s.  Only where it fails, or s <= 0, does a batched
eigvalsh decide.

Each class is first put to a Farkas witness (the dual of the active-set
nonnegative least squares of Lawson & Hanson, Solving Least Squares
Problems, 1974, ch. 23): a Hermitian Y_c with <Y_c, r_k> >= 0 for every
other class k proves that the distance from r_c to the cone of the others
is at least -<Y_c, r_c> / ||Y_c||.  The witness is a guess,
Y_c = I - (1 + eps_c) |u_c><u_c| with u_c near the top eigenvector of
r_c, and is trusted only after one matmul against V has checked every
inequality.
A class whose checked bound clears both the extremality tolerance and the
warning band is extreme, with no rank-1 shortcut; every other class is
decided by NNLS of its column over the remaining columns of V, exactly as
without the witness.  Counts, verdicts and warnings therefore do not depend
on the witness, which only saves solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import _frob, _strict_upper, nnls, vec_herm

__all__ = [
    "LocalOperatorSet",
    "RayGroups",
    "Extremality",
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
_EPS = float(np.finfo(float).eps)
_TINY_NORM = float(np.finfo(float).tiny) ** 0.5  # the least norm whose square is a normal float64


@dataclass(frozen=True)
class LocalOperatorSet:
    """The factors one party contributes across all measurement outcomes, as rays.

    ``ops`` may be given as any sequence of equal square matrices, d >= 1.
    It is kept as one validated read-only (R, d, d) complex stack, copied
    once, of their unit forms M / ||M||_F: a ray does not depend on scale,
    so the raw scale is not kept.
    """

    ops: np.ndarray

    def __post_init__(self):
        if len(self.ops) == 0:
            raise ValueError("operator set must be non-empty")
        try:
            stack = np.array(self.ops, dtype=complex)
            square = stack.ndim == 3 and stack.shape[1] == stack.shape[2] > 0
        except ValueError:  # ragged: numpy cannot stack operators of different shapes
            square = False
        if not square:
            raise ValueError("operators must share one square dimension")
        with np.errstate(over="ignore"):  # an overflowing square is refused below
            norms = _frob(stack)
        # A non-finite entry makes its operator's norm non-finite, so finite
        # norms clear every entry; only an infinite norm needs the entries
        # read again, to tell them from finite ones too large to square.
        if not np.isfinite(norms).all():
            if not np.isfinite(stack).all():
                raise ValueError("operators must have finite entries")
            raise ValueError(
                "operator entries too large: a squared Frobenius norm overflows float64 "
                "(entries must stay below about 1e154)"
            )
        # Below _TINY_NORM the squares lose their digits, and the unit forms with them.
        if norms.min() < _TINY_NORM:
            if not stack[norms < _TINY_NORM].any(axis=(1, 2)).all():
                raise ValueError("zero operator has no ray")
            raise ValueError(
                "operator entries too small: a squared Frobenius norm underflows float64 "
                "(a nonzero operator needs an entry above about 1e-154)"
            )
        # The float view times 1 / norm, in place: the bits of complex division by a real.
        flat = stack.view(float)
        flat *= (1.0 / norms)[:, None, None]
        _require_psd(stack)
        stack.setflags(write=False)
        object.__setattr__(self, "ops", stack)

    @property
    def dim(self) -> int:
        return self.ops.shape[1]


def _require_psd(units: np.ndarray) -> None:
    """Raise unless each unit operator's Hermitian part H has lambda_min(H) >= -PSD_INPUT_TOL."""
    count, d = units.shape[:2]
    shift = PSD_INPUT_TOL - 4.0 * d * (d + 1) * _EPS
    if shift > 0.0:
        twice = np.conjugate(units.transpose(0, 2, 1), order="C")
        twice += units  # 2 H, and below 2 (H + shift I), in the one buffer
        twice.reshape(count, d * d)[:, :: d + 1] += 2.0 * shift
        try:
            np.linalg.cholesky(twice)
            return
        except np.linalg.LinAlgError:
            pass
    hermitian = (units + np.conjugate(units.transpose(0, 2, 1))) * 0.5
    if float(np.linalg.eigvalsh(hermitian)[:, 0].min()) < -PSD_INPUT_TOL:
        raise ValueError("operators must be positive semidefinite")


@dataclass(frozen=True)
class RayGroups:
    """Partition of operator indices into equal-ray classes.

    ``groups[c]`` lists the operator indices in class c; ``representatives``
    is the read-only (count, d, d) stack of one Frobenius-normalized
    operator per class, and ``coords`` its read-only (count, d^2) vec_herm
    rows.
    """

    groups: tuple[tuple[int, ...], ...]
    representatives: np.ndarray
    coords: np.ndarray

    @property
    def count(self) -> int:
        return len(self.groups)


@dataclass(frozen=True)
class Extremality:
    """What count_extreme found for one party.

    ``witnessed[c]`` marks the classes a checked witness decided, and
    ``nnls_solves`` counts the classes NNLS decided.
    """

    count: int
    rays: RayGroups
    residuals: np.ndarray
    witnessed: np.ndarray
    nnls_solves: int


@dataclass(frozen=True)
class PartyConeStat:
    """One party's line of the certificate.

    ``nnls_solves`` counts the ray classes the witness left to NNLS, and
    ``min_witness_bound`` is the smallest bound the witness proved, or None
    when it decided no class.
    """

    party: int
    generators: int
    rays: int
    extreme: int
    skipped: bool
    nnls_solves: int
    min_witness_bound: float | None


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
    and otherwise becomes the representative of a new class.  The forms
    are ``s.ops``, already of unit norm; LocalOperatorSet refused zero operators.
    """
    units = s.ops
    coords = vec_herm(units)
    # Screen: unit vectors within tol have a Gram entry of at least
    # 1 - tol**2 / 2.  Rounding in the normalization, in vec_herm and in a
    # dot product of d**2 terms stays below a small multiple of d**2 eps
    # (Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.1), so
    # 16 d**2 eps of slack never drops a pair; a pair that passes only costs
    # a confirmation.  Each operator matches itself, so the diagonal is
    # masked, and the pairs are listed only when some entry passes.  Unit
    # vectors lie at most 2 apart: a tol past 2, whose square may overflow, screens as 2.
    slack = 16.0 * s.dim**2 * _EPS
    gram = coords @ coords.T
    gram.flat[:: len(gram) + 1] = -np.inf
    cut = 1.0 - min(tol, 2.0) ** 2 / 2.0 - slack
    rows = cols = np.zeros(0, dtype=np.intp)
    if gram.max() >= cut:
        rows, cols = np.nonzero(gram >= cut)
        earlier = cols < rows
        rows, cols = rows[earlier], cols[earlier]
    if not rows.size:  # no pair passed the screen: every operator is its own class
        groups = tuple((i,) for i in range(len(units)))
    else:
        head = np.arange(len(units))  # head[i]: the operator representing i's class
        splits = np.flatnonzero(np.diff(rows)) + 1
        for i, cand in zip(rows[np.r_[0, splits]], np.split(cols, splits)):
            cand = cand[head[cand] == cand]
            # Confirm by difference norms, in class order: 2 - 2 Re<u, r>
            # would round at about 1e-16, which is the size of tol**2 itself.
            near = np.flatnonzero(_frob(units[cand] - units[i]) <= tol)
            if near.size:
                head[i] = cand[near[0]]
        order = np.argsort(head, kind="stable")  # class by class, members ascending
        heads, starts = np.unique(head[order], return_index=True)
        groups = tuple(tuple(g.tolist()) for g in np.split(order, starts[1:]))
        units, coords = units[heads], coords[heads]
    units.setflags(write=False)
    coords.setflags(write=False)
    return RayGroups(groups=groups, representatives=units, coords=coords)


def _witness_bounds(rays: RayGroups) -> np.ndarray:
    """Checked Farkas lower bound on each class's NNLS residual, -inf where unchecked.

    The guess for class c is Y_c = I - t_c |u_c><u_c|, u_c close to the
    top eigenvector of r_c and t_c = 1 + eps_c just below the largest value
    that keeps <Y_c, r_k> = Tr r_k - t_c <u_c|r_k|u_c> >= 0 for every other
    k.  Whatever the guess, W = vec_herm(Y) V^T is then computed from Y
    alone; a row whose off-diagonal entries are all nonnegative proves
    ||V x - v_c|| >= -W[c, c] / ||Y_c|| for every x >= 0.  W holds rounding
    of order t_c d**2 eps, and a residual below 1 has ||x||_1 <= 2 sqrt(d)
    (each Tr r_k >= 1), so rounding moves a bound by far less than 1e-6.
    """
    v, reps = rays.coords, rays.representatives
    count, d = reps.shape[:2]
    # u_c by power iteration from the column of r_c with the largest
    # diagonal entry (vec_herm puts the diagonal first): exact for a rank-1
    # r_c, and for any other r_c a guess like the rest of Y_c.  Batched eigh
    # would do as well but adds about 1 MiB of LAPACK code to the resident
    # set.  Only the direction matters, so u_c is normalized once, at the end.
    u = reps[np.arange(count), :, v[:, :d].argmax(axis=1), None]
    for _ in range(3):
        u = reps @ u
    u = u[:, :, 0]
    u /= np.sqrt(np.vecdot(u, u).real)[:, None]
    # y[c] = vec_herm(|u_c><u_c|), written from u_c in vec_herm's layout:
    # an (R, d, d) stack and vec_herm's temporaries would set the peak
    # memory of the whole certificate.  It becomes vec_herm(Y_c) in place.
    rows, cols = _strict_upper(d)
    y = np.empty_like(v)
    np.vecdot(u[:, :, None].view(float), u[:, :, None].view(float), out=y[:, :d])  # |u_i|^2
    np.multiply(u.take(rows, axis=1), u.conj().take(cols, axis=1), out=y[:, d:].view(complex))
    y[:, d:] *= np.sqrt(2.0)
    q = y @ v.T
    q /= v[:, :d].sum(axis=1)  # <u_c|r_k|u_c> / Tr r_k
    q.flat[:: count + 1] = -np.inf
    # 1 / t_c is the largest ratio, shrunk by 1e-12 so the binding class
    # does not land at 0 +- rounding.  A class nearly orthogonal to all the
    # others would take t_c -> infinity; capping t_c at 1e3 keeps Y finite.
    y *= ((1e-12 - 1.0) / np.maximum(q.max(axis=1), 1e-3))[:, None]
    y[:, :d] += 1.0  # vec_herm(I)
    w = np.matmul(y, v.T, out=q)
    bounds = -w.diagonal() / np.sqrt(np.vecdot(y, y))
    w.flat[:: count + 1] = np.inf
    bounds[w.min(axis=1) < 0.0] = -np.inf
    return bounds


def count_extreme(s: LocalOperatorSet, tol: float = RAY_TOL) -> Extremality:
    """Number of extreme ray classes, plus per-class diagnostics.

    The class representatives are unit Frobenius norm and their vec_herm
    rows form V, so each class's distance to the cone of the others is
    already relative.  Class c is extreme when that distance exceeds
    ``tol``.  A checked witness decides c first, when it proves a distance
    above both ``tol`` and the warning band; otherwise NNLS of column c over
    the other columns of V decides.  ``residuals[c]`` is the witness's
    proven lower bound where the witness decided and the NNLS residual
    elsewhere; a lone class resolves to infinity, since one ray alone is
    always extreme in the cone it generates.
    """
    rays = distinct_rays(s, tol)
    if rays.count == 1:
        residuals, witnessed, undecided = np.full(1, np.inf), np.zeros(1, dtype=bool), ()
    else:
        bounds = _witness_bounds(rays)
        witnessed = bounds > max(tol, WARN_BAND[1])
        residuals = np.where(witnessed, bounds, np.inf)
        undecided = np.flatnonzero(~witnessed)
        v = rays.coords.T
        for c in undecided:
            _, residuals[c] = nnls(np.delete(v, c, axis=1), v[:, c], tol=max(tol * 1e-4, 1e-14))
    return Extremality(
        count=int(np.count_nonzero(residuals > tol)),
        rays=rays,
        residuals=residuals,
        witnessed=witnessed,
        nnls_solves=len(undecided),
    )


def _near_identity(s: LocalOperatorSet) -> bool:
    """Whether every operator M has ||M - (Tr M / d) I|| <= IDENTITY_RTOL ||M||.

    On the unit forms U = M / ||M|| that distance squared is 1 - |Tr U|^2 / d,
    so the trace alone rules out any operator with |Tr U|^2 below
    (1 - 1e-6) d, far beyond rounding.  Near the identity that difference
    keeps no digits, so a party that passes is measured directly: the
    diagonal's spread about its mean, plus the off-diagonal entries, which
    in the flattened matrix are the first d of each run of d + 1 entries
    after a diagonal one.
    """
    units, d = s.ops, s.dim
    diag = units.diagonal(axis1=1, axis2=2)
    mean = diag.sum(axis=1) / d
    if np.abs(mean).min() < math.sqrt((1.0 - 1e-6) / d):
        return False
    spread = diag - mean[:, None]
    off = units.reshape(len(units), d * d)[:, 1:].reshape(len(units), d - 1, d + 1)[:, :, :d].view(float)
    gap = np.vecdot(spread, spread).real + np.vecdot(off, off).sum(axis=1)
    return bool(np.all(np.sqrt(gap) <= IDENTITY_RTOL))


def certify(product_ops, tol: float = RAY_TOL) -> ConeReport:
    """Extreme-ray count certificate for a product-operator measurement.

    Parameters
    ----------
    product_ops : sequence
        One entry per measurement outcome; each entry is the sequence of
        its per-party factor matrices (all positive semidefinite).  The
        number of entries is the outcome count N of the bound.
    tol : float
        Ray-grouping and extremality threshold; must be positive and finite.

    Returns
    -------
    ConeReport with verdict "VIOLATES" when the counted extreme rays exceed
    2 * (N - 1), meaning no finite-round protocol of local operations can
    realize the measurement, and "SATISFIES" otherwise (which certifies
    nothing by itself).  NNLS residuals inside the warning band
    [1e-8, 1e-6] are reported as borderline rather than trusted silently.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    entries = [list(entry) for entry in product_ops]
    if not entries:
        raise ValueError("need at least one product operator")
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
        ops = LocalOperatorSet([entry[alpha] for entry in entries])
        found = count_extreme(ops, tol)
        residuals = found.residuals
        proven = residuals[found.witnessed]
        if found.nnls_solves:  # a witnessed bound clears the band, and a lone class is infinite
            warnings += [
                f"party {alpha} ray class {c}: NNLS residual {residuals[c]:.3e} is borderline"
                for c in np.flatnonzero((lo <= residuals) & (residuals <= hi))
            ]
        skipped = _near_identity(ops)
        stats.append(
            PartyConeStat(
                party=alpha,
                generators=len(ops.ops),
                rays=found.rays.count,
                extreme=found.count,
                skipped=skipped,
                nnls_solves=found.nnls_solves,
                min_witness_bound=float(proven.min()) if proven.size else None,
            )
        )
        if not skipped:
            total += found.count

    bound = 2 * (len(entries) - 1)
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

