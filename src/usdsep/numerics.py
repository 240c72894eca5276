"""Dense complex linear algebra primitives shared by the other modules.

Everything operates on plain numpy arrays: complex vectors and matrices for
states and operators, real vectors for the coordinates used by the cone
feasibility tests.  None mutate their arguments.  The module also holds
the table of invariant bounds, the decision tolerances, and admit, the
one rule that lets an allocation go ahead; it and _memory_limit read the
memory left, and every other function is pure.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "InvariantError",
    "BOUNDS",
    "bound",
    "check",
    "ConvergenceError",
    "kron_all",
    "proj",
    "vec_herm",
    "nnls",
]

class InvariantError(RuntimeError):
    """A quantity that should hold by construction failed its internal check."""


# Every internal invariant, name -> largest residual it may show.  A value
# past its bound is a defect of the program, never of the input, so check
# raises InvariantError (CLI exit 3); the decision tolerances follow the
# table.  A "derived" row reads a bound proven from measured residuals;
# "derived overlap bound" covers every closed-form overlap of the
# reciprocal states and duals (instance docstring).
#
# The three instance rows are rounding laws in the family size N, in unit
# roundoffs U (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
# ed., chs. 3 and 24): a length-L fft or correlation errs by about
# U log2 L per entry, and the Frobenius residual of completeness sums D^2
# entries whose errors share N sums, hence sqrt(D).  Each constant was fit
# on every prime N < 30000 and 45 primes up to 4.2 * 10^6 so that the
# largest measured residual sits at least 10x under the law; each law is
# below the earlier constant 1e-12 at every N <= 4051.
_U = 2.0**-53  # unit roundoff of a float64
BOUNDS = {
    "log tables": 0,  # entries of the power cycle the audits' sums run over that are wrong
    # (D/N) sum P_j - I, Frobenius; 11.5 U sqrt(D) log2 N, 9.7e-13 at N = 4051
    "completeness": lambda n: 11.5 * _U * math.sqrt(n - 1) * math.log2(n),
    "unit norm": lambda n: 8 * _U * math.log2(n),  # largest | ||psi_j|| - 1 |
    "null relation": lambda n: 16 * _U * math.log2(n),  # ||sum_j omega^j psi_j|| / sqrt(N)
    "derived overlap bound": 1e-10,  # derived: 4 (eps + sqrt(2D/N) delta) + 2^-46
    # The next residual grows with the weights, so it is divided by
    # max(1, N max(w) / (2D)).  That is 1 whenever every weight is within the
    # pair cap 2D/N, as on every PSD measurement, where the bound is raw.
    "born vs closed form": 1e-12,  # Born average of the two q cells vs 1 - sum q w / D
    "negative outcome probability": 1e-12,  # most negative exact probability, negated
    "outcome probabilities miss 1": 1e-10,  # largest |row sum - 1| of the outcome rows
    "stray outcome weight": 1e-10,  # derived: sum(w) b^2, a copy's weight naming another input
    "misidentifications": 0,  # sampled conclusive outcomes are exactly zero-error
    "complement decomposition": 1e-12,  # telescoped terms against I' - P_1 x ... x P_P
    "failure 1/2": 1e-12,  # verify: |Pr(fail) - 1/2| at the symmetric weights
    "closed-form states": 1e-12,  # verify: N = 5 states against the two-qubit family
    "closed-form reciprocals": 1e-9,  # verify: phase-free gap of the N = 5 reciprocals
}


# Decision tolerances, each with its reason.  They decide a question about
# the input, so a value past one is an input's verdict or exit 2, never
# exit 3; --tol overrides RAY_TOL in certify and PSD_TOL under --weights.
# Ray grouping and extremality; the d = 2 family margin (pi/N)^2 is under it from N ~ 31,416
RAY_TOL = 1e-8
# Least eigenvalue of a certify factor's unit form, far above its rounding 8 d (d + 1) u
PSD_INPUT_TOL = 1e-10
# A party whose factors all lie this near multiples of I, relative, acts trivially: skipped
IDENTITY_RTOL = 1e-8
# NNLS residuals reported as borderline; the top also covers the witness's rounding
WARN_BAND = (1e-8, 1e-6)
# Least eigenvalue of the failure operator under --weights; the secular root errs by a few D u
PSD_TOL = 1e-10

# An allocation estimated at most this many bytes is admitted without a
# query: a table build the instance cache could hold (instance._TABLE_BYTES),
# or the parse of a measurement file of about 1.4 MB.
_ADMIT_FLOOR = 1 << 26


def bound(name: str, n=None) -> float:
    """BOUNDS[name], evaluated at the family size n for a row whose bound is a law in N.

    A law row without n is a ValueError; an unknown name is a KeyError.
    """
    value = BOUNDS[name]
    if not callable(value):
        return value
    if n is None:
        raise ValueError(f"the {name!r} bound is a law in the family size: pass n")
    return value(n)


def check(name: str, measured, n=None):
    """Return ``measured`` when it lies within bound(name, n), else raise InvariantError.

    NaN fails every bound; an unknown name is a KeyError, and a law row
    without n a ValueError (see bound).
    """
    limit = bound(name, n)
    if not measured <= limit:
        raise InvariantError(f"{name}: {measured:.3e} exceeds the bound {limit:.3g}")
    return measured


def _memory_limit() -> tuple[float, str]:
    """The bytes this process may still allocate, and their source.

    The smaller of MemAvailable (/proc/meminfo) and the soft RLIMIT_AS; one
    that cannot be read limits nothing.
    """
    limits = [(math.inf, "no limit")]
    try:
        with open("/proc/meminfo") as f:
            kib = next(int(line.split()[1]) for line in f if line.startswith("MemAvailable:"))
        limits.append((1024 * kib, "MemAvailable"))
    except (OSError, StopIteration, ValueError):
        pass
    try:
        import resource
    except ImportError:  # not every platform has resource limits
        return min(limits)
    soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    if soft != resource.RLIM_INFINITY:
        limits.append((soft, "the soft RLIMIT_AS"))
    return min(limits)


def admit(need: float, subject: str, purpose: str) -> None:
    """Refuse, before it is made, an allocation of about ``need`` bytes that would not fit.

    The one memory-admission rule.  An estimate at or below _ADMIT_FLOOR is
    admitted without a query.  A larger one past _memory_limit(), or one
    that is not finite, raises MemoryError (CLI exit 2) reading
    "<subject> about <need> MiB <purpose>, over the <limit> MiB of <source>".
    """
    if need <= _ADMIT_FLOOR:
        return
    limit, source = _memory_limit()
    if need > limit or not math.isfinite(need):
        raise MemoryError(
            f"{subject} about {need / 2**20:.0f} MiB {purpose}, "
            f"over the {limit / 2**20:.0f} MiB of {source}"
        )


class ConvergenceError(RuntimeError):
    """An iterative routine hit its iteration cap before converging."""


def kron_all(factors):
    """Kronecker product of a sequence of arrays, first factor most significant."""
    factors = list(factors)
    if not factors:
        raise ValueError("kron_all needs at least one factor")
    return functools.reduce(np.kron, factors[1:], np.asarray(factors[0]))


def proj(v):
    """Rank-1 operator |v><v| built from a (not necessarily unit) vector."""
    v = np.asarray(v, dtype=complex).ravel()
    return v[:, None] * v.conj()


@functools.cache
def _flat_triangles(d):
    """Read-only flat indices of m_rc and of m_cr, r < c, in a flattened d x d matrix."""
    rows, cols = np.triu_indices(d, k=1)
    index = np.array([rows * d + cols, cols * d + rows])
    index.setflags(write=False)
    return index


def vec_herm(h):
    """Isometric real vectorization of a Hermitian matrix or a stack of them.

    Coordinates are the diagonal (ascending index), then for each strict
    upper-triangle entry in row-major order its sqrt(2)*Re followed by
    sqrt(2)*Im.  With this scaling Tr(A B) equals the Euclidean inner
    product of vec_herm(A) and vec_herm(B), so Frobenius geometry on
    Hermitian matrices becomes plain dot-product geometry on R^(d^2).  A
    (..., d, d) stack maps to (..., d^2), one row per matrix.

    It forms no averaged copy: the diagonal and the two triangles of ``h``
    give the coordinates of its Hermitian part (h + h^dag)/2 exactly, short
    of overflow or subnormal entries.  Asymmetry of any one matrix beyond
    1e-12 of its Frobenius norm is an input error, not averaged away.
    """
    m = np.asarray(h, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    d = m.shape[-1]
    flat = m.reshape(m.shape[:-2] + (d * d,))
    diag = flat[..., :: d + 1]
    # take, not m[..., rows, cols]: its row-major result streams into out
    upper, lower = (flat.take(index, axis=-1) for index in _flat_triangles(d))
    np.conjugate(lower, out=lower)
    out = np.empty(flat.shape)
    out[..., :d] = diag.real
    np.add(upper, lower, out=out[..., d:].view(complex))  # 2 h_rc: Re, Im interleaved
    out[..., d:] *= math.sqrt(0.5)
    # ||M - M^dag||_F^2 = 4 sum_i (Im m_ii)^2 + 2 sum_(r<c) |m_rc - conj(m_cr)|^2 may reach
    # 1e-24 max(||M||_F^2, 1) in each matrix, so a stack whose total is below passes whole.
    upper -= lower
    if 4.0 * np.vdot(diag.imag, diag.imag) + 2.0 * np.vdot(upper, upper).real > 1e-24:
        gap = np.sqrt(4.0 * np.vecdot(diag.imag, diag.imag) + 2.0 * np.vecdot(upper, upper).real)
        # Frobenius norms by vecdot, which, unlike np.linalg.norm, forms no temporary of m's size
        if (gap > 1e-12 * np.maximum(np.sqrt(np.vecdot(flat, flat).real), 1.0)).any():
            raise ValueError(f"matrix is not Hermitian: asymmetry {gap.max():.3e}")
    return out


def nnls(a, b, tol=1e-10, max_iter=None):
    """Nonnegative least squares: minimize ||a @ x - b||_2 subject to x >= 0.

    Classical active-set iteration after Lawson & Hanson (Solving Least
    Squares Problems, 1974, ch. 23).  Coordinates move between the passive
    (free) and active (clamped to zero) sets; each outer step frees the
    coordinate with the largest dual value a.T @ (b - a @ x) whose trial
    value comes out positive, and inner steps retreat along the segment to
    the unconstrained solution until the passive iterate is strictly
    positive.

    Parameters
    ----------
    a : array, shape (m, n)
    b : array, shape (m,)
    tol : float
        Relative threshold on the dual vector below which no coordinate is
        considered able to reduce the residual further.
    max_iter : int, optional
        Iteration cap, default 100 * n.  Exceeding it raises
        ConvergenceError; on the small well-conditioned systems used here
        that only happens for genuinely degenerate input.

    Returns
    -------
    (x, rnorm) : nonnegative solution and the Euclidean residual norm.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    if a.ndim != 2:
        raise ValueError("a must be a matrix")
    m, n = a.shape
    if n < 1:
        raise ValueError("a must have at least one column")
    if b.shape[0] != m:
        raise ValueError("a and b have incompatible shapes")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter is None:
        max_iter = 100 * n

    scale = max(1.0, float(np.max(np.abs(a.T @ b))))
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    iters = 0

    def solve():
        """Least squares over the passive columns, zero elsewhere; each call is one iteration."""
        nonlocal iters
        iters += 1
        if iters > max_iter:
            raise ConvergenceError(f"nnls exceeded {max_iter} iterations")
        z = np.zeros(n)
        z[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
        return z

    while True:
        w = a.T @ (b - a @ x)
        w[passive] = -np.inf
        # Lawson & Hanson's entering test: coordinate t enters only when its
        # first trial value is positive.  Otherwise its dual was lifted past
        # tol by rounding alone; it is set aside until x moves, and the
        # next-largest dual is tried.  With none left, x is optimal.
        while np.max(w) > tol * scale:
            t = int(np.argmax(w))
            passive[t] = True
            z = solve()
            if z[t] > 0.0:
                break
            passive[t] = False
            w[t] = -np.inf
        else:
            return x, float(np.linalg.norm(b - a @ x))
        # Every other passive coordinate of x is positive, so each one with
        # z <= 0 blocks: retreat toward z until the first reaches zero, clamp
        # it back into the active set, and solve again.
        while not np.all(z[passive] > 0.0):
            blocking = passive & (z <= 0.0)
            alpha = float(np.min(x[blocking] / (x[blocking] - z[blocking])))
            x = x + alpha * (z - x)
            hit_zero = passive & (x <= 1e-14)
            x[hit_zero] = 0.0
            passive[hit_zero] = False
            z = solve()
        x = z
