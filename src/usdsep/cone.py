"""Extreme-ray certificates against finite-round LOCC implementability.

Any measurement a finite-round protocol of local operations can realize has
product-operator outcomes K_1 x ... x K_P whose per-party factors, viewed as
rays in the cone of positive operators, cannot be too rich: writing e_alpha
for the number of distinct extreme rays among party alpha's factors and
summing over the parties that act nontrivially, a protocol with N product
outcomes obeys

    sum_alpha e_alpha <= 2 (N - 1).

The certifier counts the left-hand side for a concrete measurement.  Rays
are grouped up to positive scaling, and a representative r_c is extreme
exactly when it is not a nonnegative combination of the other classes.
vec_herm maps the Hermitian factors to isometric real coordinates, where
Frobenius geometry is plain dot products and extremality is a question
about the columns of one real matrix V.

certify runs one pass per party, in party order: validation and unit
scaling, vec_herm, the ray screen, the witness, the identity test and
NNLS, and the first party that fails a check raises its error.  Every
party pays a pass's fixed cost, 0.05 to 0.1 ms of numpy calls with one
BLAS thread on a 2-vCPU host, so a measurement of many small parties
pays it many times: one outcome of 2000 one-dimensional parties takes
about 0.11 s.  Each pass is admitted (numerics.admit, through
_admit_pass) once, by its estimated peak, before its stack is built; the
ray screen then reads the Gram the pass holds one operator's row at a
time.  A pass's estimate needs only its shape, so usd.family_product_ops
admits a family's passes before it builds the family's factors.

A pass forms each quantity once and reads it wherever it is needed.
A ray does not depend on scale, and K_1 x K_2 = (c K_1) x (K_2 / c) names
the same outcome, so the validation (_unit_rows) divides the scale out
once, on a local (R, d, d) complex stack: finite Frobenius norms clear
every entry at once, and a norm of 0 or below the normal range names no
ray.  Its one vec_herm call splits the unit forms M / ||M||_F into
diagonal and triangles once; both the asymmetry check and the read-only
(R, d^2) rows V read that split, and V is all the pass keeps.  One
function (_classes) owns the pass's one (R, R) buffer, which NNLS
never sees: the ray screen's Gram matrix of V, its diagonal -inf, which
the witness divides in place into its overlaps.  It sums the traces and
the off-diagonal mass once, for both the witness's norm and the identity
test, which reads V's diagonal and triangle coordinates, so no pass forms
M - (Tr M / d) I.

Every factor must be positive semidefinite relative to its scale:
lambda_min(H) >= -PSD_INPUT_TOL for the Hermitian part H of its unit
form.  One batched Cholesky per pass proves it, run on the unit stack
itself with its diagonal shifted in place by
s = PSD_INPUT_TOL - 5e-13 - 8 d (d + 1) u, u the unit roundoff.  LAPACK
reads only the lower triangle and the real part of the diagonal, and the
Hermitian matrix H' they make lies within ||M - M^dag||_F / 2 <= 5e-13 of
H, since vec_herm has already refused any unit form with more asymmetry.
The backward error of a completed Cholesky of H' + s I (Higham, Accuracy
and Stability of Numerical Algorithms, 2nd ed., 2002, Thm 10.3, and
sec. 3.6 for complex arithmetic) stays below 3.1 d (d + 1) u
(||H'||_F + s), relative to the scale of the matrix; with ||H'||_F
<= 1 + 5e-13 and the rounding of the shifted diagonal it stays below
8 d (d + 1) u, so lambda_min(H) >= -PSD_INPUT_TOL.  Only where it fails,
or s <= 0, does a batched eigvalsh decide, on the unit stack again: its
diagonal is put back and H's lower triangle, which the rows V already
hold, is written over the stack's, so LAPACK reads H itself and the pass
holds one complex stack from validation to verdict.

Each class is first put to a Farkas witness (the dual of the active-set
nonnegative least squares of Lawson & Hanson, Solving Least Squares
Problems, 1974, ch. 23): a Hermitian Y_c with <Y_c, r_k> >= 0 for every
other class k proves that the distance from r_c to the cone of the others
is at least -<Y_c, r_c> / ||Y_c||.  The witness is Y_c = I - t_c r_c, and
its inequalities hold by the choice of t_c: with overlaps
q_ck = <r_c, r_k> / Tr r_k, each <Y_c, r_k> = Tr r_k (1 - t_c q_ck) is
positive for t_c just below the least 1 / q_ck.  The overlaps are the
screen's Gram entries over the traces, so the witness makes no product of
its own.  A class whose bound clears both the extremality tolerance and
the warning band is extreme; every other class is decided by NNLS of its
column over the remaining columns of V, exactly as without the witness.
Counts, verdicts and warnings therefore do not depend on the witness,
which only saves solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import IDENTITY_RTOL, PSD_INPUT_TOL, RAY_TOL, WARN_BAND
from .numerics import ConvergenceError, _flat_triangles, admit, nnls, vec_herm

__all__ = ["PartyConeStat", "ConeReport", "certify"]

_EPS = float(np.finfo(float).eps)
_TINY_NORM = float(np.finfo(float).tiny) ** 0.5  # the least norm whose square is a normal float64


def _unit_rows(factors) -> np.ndarray:
    """The validated read-only (R, d^2) vec_herm rows V of one party's unit forms M / ||M||_F.

    ``factors`` holds R equal square matrices.  Every refusal of a factor
    is raised here; the complex unit stack stays local to this call.
    """
    try:
        stack = np.array(factors, dtype=complex)
        square = stack.ndim == 3 and stack.shape[1] == stack.shape[2] > 0
    except ValueError:  # ragged: numpy cannot stack operators of different shapes
        square = False
    if not square:
        raise ValueError("operators must share one square dimension")
    # np.array made the stack contiguous, so its float view holds each operator in one row.
    flat = stack.view(float).reshape(len(stack), -1)
    with np.errstate(over="ignore"):  # an overflowing square is refused below
        norms = np.sqrt(np.vecdot(flat, flat))
    # A non-finite entry makes its operator's norm non-finite, and the
    # largest norm is NaN or infinite exactly when some norm is, so one
    # finite maximum clears every entry; only then are the entries read
    # again, to tell them from finite ones too large to square.
    if not math.isfinite(norms.max()):
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
    flat *= (1.0 / norms)[:, None]
    rows = vec_herm(stack)  # its asymmetry check runs before the positivity proof
    _require_psd(stack, rows)
    rows.setflags(write=False)
    return rows


def _require_psd(units: np.ndarray, rows: np.ndarray) -> None:
    """Raise unless each unit operator's Hermitian part H has lambda_min(H) >= -PSD_INPUT_TOL.

    ``units`` is the caller's own stack, whose asymmetry vec_herm has
    bounded by 1e-12, and ``rows`` its vec_herm rows: the real parts of its
    diagonals, then sqrt(2) times H's upper triangle.  Both LAPACK routines
    read only the lower triangle and the diagonal's real part.  The
    Cholesky shifts the stack's diagonals in place and reads its own lower
    triangle, within 5e-13 of H's (module docstring); the eigvalsh route
    puts the diagonals back and writes H's lower triangle,
    conj(h_rc) = conj(row) sqrt(1/2), over the stack's, so it reads H.
    """
    d = units.shape[-1]
    flat = units.reshape(units.shape[:-2] + (d * d,))  # a view into the stack
    shift = PSD_INPUT_TOL - 5e-13 - 4.0 * d * (d + 1) * _EPS
    if shift > 0.0:
        diag = flat[..., :: d + 1].real
        diag += shift
        try:
            np.linalg.cholesky(units)
            return
        except np.linalg.LinAlgError:
            diag[...] = rows[..., :d]
    lower = rows[..., d:].view(complex) * math.sqrt(0.5)  # the one triangle-sized temporary
    flat[..., _flat_triangles(d)[1]] = np.conjugate(lower, out=lower)
    if float(np.linalg.eigvalsh(units)[..., 0].min()) < -PSD_INPUT_TOL:
        raise ValueError("operators must be positive semidefinite")


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


def _classes(rows: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, bool]:
    """The ray classes, witness bounds and identity test of one party's
    (R, d^2) vec_herm rows V of unit forms U = M / ||M||_F.

    Returns (head, bounds, near_identity).  head[i] is the operator heading
    i's class: each operator joins the first class whose representative
    lies within tol of it, and otherwise heads a new class.  bounds[c] is
    the witness's lower bound on class c's NNLS residual, the classes in
    the order of their heads.  near_identity tells whether every operator M
    has ||M - (Tr M / d) I|| <= IDENTITY_RTOL ||M||.

    vec_herm is an isometry on Hermitian matrices, and validation refused
    any asymmetry above 1e-12, so distances between unit forms are
    distances between their rows.  Screen: unit vectors within tol have a
    Gram entry of at least 1 - tol**2 / 2.  Rounding in the normalization,
    in vec_herm and in a dot product of d**2 terms stays below a small
    multiple of d**2 eps (Higham, Accuracy and Stability of Numerical
    Algorithms, sec. 3.1), so 16 d**2 eps of slack never drops a pair; a
    pair that passes only costs a confirmation.  Each operator matches
    itself, and no class is its own witness, so the Gram diagonal is -inf.
    Only when some entry passes does the screen read the rows that hold
    one, each up to its own operator, in operator order, and mask the
    members of classes out of the overlaps; it lists no pairs.  Unit
    vectors lie at most 2 apart: a tol past 2, whose square may overflow,
    screens as 2.

    The witness's overlaps q_ck run over the other representatives, and a
    class with none is infinitely far from their cone.
    Every inequality of Y_c = I - t_c r_c holds by the choice of t_c, so
    the bound is -<Y_c, r_c> / ||Y_c|| = (t_c ||r_c||^2 - Tr r_c) / ||Y_c||.
    ||Y_c|| is summed as the squares of Y_c's coordinates.  The completed
    square d - (Tr r_c)^2 / ||r_c||^2 + ||r_c||^2 (t_c - Tr r_c / ||r_c||^2)^2
    loses its first term to rounding near the identity, where that term is
    0; clamped there, ||Y_c|| comes out too small, and a class 1e-9 from the
    identity and 0.03 from the cone of two others gets a bound of about 1.
    Each q entry is a dot product of d**2 terms, off by about
    d**2 eps ||r_c|| (Higham, ch. 3), and a residual below 1 has
    ||x||_1 <= 2 sqrt(d) (each Tr r_k >= 1), so rounding moves a bound by
    far less than 1e-6.

    The identity test measures its distance directly, since
    1 - (Tr U)^2 / d keeps no digits near the identity: the diagonal rows'
    spread about their mean, plus the off-diagonal rows.
    """
    r, dd = rows.shape
    d = math.isqrt(dd)
    gram = rows @ rows.T
    gram.reshape(r * r)[:: r + 1] = -np.inf
    cut = 1.0 - min(tol, 2.0) ** 2 / 2.0 - 16.0 * dd * _EPS
    head = np.arange(r)  # until a pair passes the screen, every operator heads its own class
    member = None  # the operators that joined an earlier class, once the screen finds any
    if gram.max() >= cut:
        for i in np.flatnonzero(gram.max(axis=1) >= cut).tolist():
            cand = np.flatnonzero(gram[i, :i] >= cut)
            cand = cand[head[cand] == cand]
            # Confirm by difference norms, in class order: 2 - 2 Re<u, r>
            # would round at about 1e-16, which is the size of tol**2 itself.
            gap = rows[cand] - rows[i]
            near = np.flatnonzero(np.sqrt(np.vecdot(gap, gap)) <= tol)
            if near.size:
                head[i] = cand[near[0]]
        member = head != np.arange(r)
    diag, off = rows[:, :d], rows[:, d:]
    traces = diag.sum(axis=1)
    off_mass = np.vecdot(off, off)
    # The overlaps q_ck = <r_c, r_k> / Tr r_k, in place; each trace is
    # positive, so the -inf diagonal stays -inf.
    np.divide(gram, traces, out=gram)
    if member is not None and member.any():  # nor is a class compared with a member of any class
        np.copyto(gram, -np.inf, where=member)
    most = gram.max(axis=1)
    # 1 / t_c is the largest ratio, shrunk by 1e-12 so the binding class
    # does not land at 0 +- rounding.  A class nearly orthogonal to all the
    # others would take t_c -> infinity; capping t_c at 1e3 keeps Y finite.
    t = (1.0 - 1e-12) / np.maximum(most, 1e-3)
    # ||Y_c||^2: the squares of its diagonal, plus t_c^2 times those of r_c's triangles.
    y_diag = 1.0 - t[:, None] * diag
    norms = np.sqrt(np.vecdot(y_diag, y_diag) + t**2 * off_mass)
    bounds = (t * np.vecdot(rows, rows) - traces) / norms
    if member is not None:
        bounds = bounds[~member]
    if len(bounds) == 1:  # no other class: one ray alone is extreme in its cone
        bounds[0] = np.inf
    # sqrt is monotone, so the largest distance is the root of the largest square.
    spread = diag - traces[:, None] / d
    near_identity = math.sqrt((np.vecdot(spread, spread) + off_mass).max()) <= IDENTITY_RTOL
    return head, bounds, near_identity


def _pass_bytes(r: float, dd: float) -> float:
    """The peak bytes of one party's certify pass of r factors with dd = d^2 entries each.

    Per factor, beside its 8 d^2 B of rows: validation holds the complex
    unit stack (16 d^2) and next to it vec_herm's triangles (16 d (d - 1))
    or the Cholesky's output (16 d^2); the eigvalsh fallback decides on the
    stack itself, through one triangle of 8 d (d - 1).  The screen holds
    8 R of the (R, R) Gram and 16 d^2 of the rows one operator is
    confirmed against, and 2 R more are headroom: with 8 R alone, most
    N = 1009 and 2003 family passes would sit only 1.02-1.05 times above
    their traced peaks.  256 B more per factor cover the vectors of up to d
    entries and the screen's views.
    Per pass, 8 KiB cover Python's own objects, and 20 B per entry of its
    largest array, up to numpy's buffer size, the ufuncs' buffers.
    usd.family_product_ops admits a family by these passes alone: the
    10 R Gram term is what keeps them above the factors of three or more
    parties (its docstring).
    """
    per_factor = 8.0 * dd + max(32.0 * dd, 10.0 * r + 16.0 * dd) + 256.0
    return 8192.0 + 20.0 * min(r * max(dd, r), np.getbufsize()) + r * per_factor


def _admit_pass(party: int, r: float, d: float) -> None:
    """Refuse (numerics.admit), from its shape alone, a party's pass that would not fit.

    The pass runs r factors of dimension d; r and d may be float64 powers,
    infinite for a family of too many copies.
    """
    subject = f"the certify pass of party {party} ({r:.0f} factors of dimension {d:.0f}) needs"
    admit(_pass_bytes(r, d * d), subject, "for its arrays")


def _party_line(party: int, factors, tol: float) -> tuple[PartyConeStat, list[str]]:
    """One party's PartyConeStat and borderline warnings, from its own pass.

    The pass is admitted before its stack is built.  The classes the
    witness leaves undecided go to NNLS.
    """
    r = len(factors)
    try:
        dd = np.size(factors[0])
    except ValueError:  # a ragged factor, refused on stacking before anything is built
        dd = 0
    _admit_pass(party, r, math.isqrt(dd))
    rows = _unit_rows(factors)
    head, bounds, skipped = _classes(rows, tol)
    # NNLS decides every class in the warning band, so that its warnings stay:
    # the witness is loose away from a family's middle rays (d = 2 rays at
    # Bloch angles -1e-3, 0, 1e-3 all have bound 2.5e-7, NNLS 7.07e-4 at both
    # ends), and the band's top also covers the witness's rounding.
    undecided = bounds <= max(tol, WARN_BAND[1])  # a lone class's infinite bound is decided
    solves = int(np.count_nonzero(undecided))
    least = float(np.where(undecided, np.inf, bounds).min() if solves else bounds.min())  # witnessed
    warnings = []
    if solves:
        v = rows[head == np.arange(r)].T
        for c in np.flatnonzero(undecided).tolist():
            _, bounds[c] = nnls(np.delete(v, c, axis=1), v[:, c], tol=max(tol * 1e-4, 1e-14))
        lo, hi = WARN_BAND
        warnings = [
            f"party {party} ray class {c}: NNLS residual {bounds[c]:.3e} is borderline"
            for c in np.flatnonzero((lo <= bounds) & (bounds <= hi))
        ]
    stat = PartyConeStat(
        party=party,
        generators=r,
        rays=len(bounds),
        # a witnessed bound clears tol, and a lone class's is infinite
        extreme=int(np.count_nonzero(bounds > tol)) if solves else len(bounds),
        skipped=skipped,
        nnls_solves=solves,
        min_witness_bound=least if least < np.inf else None,
    )
    return stat, warnings


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

    The parties run one pass each, in party order, and the first party
    that fails a check raises its error.  Each pass has a fixed cost of
    about 0.1 ms (module docstring), paid by every party.
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

    stats, warnings = [], []
    # A list, since a zip would hold one iterator per outcome through every pass.
    for alpha, factors in enumerate(list(zip(*entries))):
        stat, lines = _party_line(alpha, factors, tol)
        stats.append(stat)
        warnings += lines
    total = sum(stat.extreme for stat in stats if not stat.skipped)

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
