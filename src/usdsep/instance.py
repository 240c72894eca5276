"""Roots-of-unity product-state families and their reciprocal bases.

A problem instance fixes a prime N >= 5 together with an ascending
factorization of D = N - 1 into party dimensions.  With omega = exp(2 pi i/N),
state j (j = 1..N) is a product over parties of uniform-amplitude phase states

    psi_j_alpha = d_alpha^(-1/2) * sum_m omega^(j p_alpha m) |m>,

where p_alpha is the product of the dimensions of the earlier parties.  The
exponents sum_alpha p_alpha m_alpha sweep 0..D-1 exactly once, so globally
state j is the j-th column of the N-point Fourier matrix restricted to its
first D rows, over sqrt(D).  Every amplitude is read by one rule from one
table of the N-th roots of unity, roots[j e mod N] / sqrt(d) for a label j,
an exponent e and a dimension d, so an instance stores only O(N): its
parameters, the exponents and its audit residuals.  The states, the party
factors and the reciprocal states are gathers of that table, built on read.

Two identities of the (D, N) matrix Psi of the states give the rest, and
each N's table is audited for both: completeness, Psi Psi^dag = (N/D) I,
and the one linear relation sum_j omega^j psi_j = 0, that is Psi u = 0 for the unit
vector u_j = omega^j / sqrt(N).  So (D/N) Psi^dag Psi is the rank-D projector
with kernel u: <psi_j|psi_k> = (N/D) (delta_jk - u_j conj(u_k)), which is
-omega^(j-k) / D off the diagonal.  Any k <= D of the states then have
smallest singular value sqrt((N - k)/D) > 0, while all N are dependent.
Dropping state l leaves a basis whose duals are, for k != l,

    xi_k = (D/N) (psi_k - omega^(l-k) psi_l),

with <xi_k|psi_j> = delta_jk for j != l and <xi_k|psi_l> = -omega^(k-l).
Both overlaps of xi_k with psi_k and with psi_l have unit magnitude, so the
normalized reciprocal state has one squared overlap q = N/(2D) with its
partner and with the omitted state alike, and none with any other state.
As |xi_k|^2 = 2D/N, for l != omit the failure operator F = I - sum_j w_j P_j
(w_omit = 0) has <xi_k|F|xi_k> = 2D/N - w_k - w_l, so a PSD F forces the
pair cap w_k + w_l <= 2D/N.

Completeness is summed by exponent ratio.  With t = omega^s / sqrt(D) the
table the states are gathered from, states[j-1, m] = t[j e_m mod N].  For
e_m' = b != 0, s = j b runs over every residue as j does, so entry (m, m')
of S^T conj(S) is A(e_m / b), A(c) = sum_s t[c s mod N] conj(t[s]): the
same terms reordered.  The nonzero exponents are 1..N-2, so ratio 1 occurs
D - 1 times and every other ratio D - 2 times (a = c b excludes only
b = -1/c); exponent 0 adds a row and a column of A(0) and the corner N t_0^2.

The sums run over the multiplicative group mod N (Rader, Proc. IEEE 56,
1107 (1968)), the cycle pw[k] = g^k mod N of a primitive root g.  From
N = 128 up, A(g^b) = |t_0|^2 + sum_a x_(a+b) conj(x_a), x_a = t[g^a], is
one circular autocorrelation (an fft/ifft pair, O(N log N)); below, one
(N, N) gather t[c s mod N] serves instead.  There the fft route is slower
up to about N = 100 (a cold family at N = 5 took about 90 against 60 us,
one CPU thread) and faster only near the cut (about 120 against 180 us at
N = 127); it would put completeness at 0.114 of its law against 0.096 for
the gather, short of the 10x margin numerics.BOUNDS states; and loading
numpy.fft costs about half a MiB of resident memory.
The fft has length D when every prime factor of D has its own numpy.fft
pass (at most 11), else it is a linear correlation zero-padded to a power
of two, folded back to circular: below N = 30000 the generic passes for
larger primes rounded up to 2.2 u sqrt(D) log2 N, the padded route 0.93,
and for large primes the generic passes take seconds.

The other two audits read the same table.  Row j < N holds t at every
residue but j (N - 1) = -j, and row N is D copies of t_0, so the squared
row norms are sum_s |t_s|^2 - |t_(-j)|^2 and D |t_0|^2: unit norm in O(N).
Column m of the null relation sum_j omega^j psi_j is
B(e_m) = sum_s omega^s t[s e_m mod N] (s = j mod N); B(0) = t_0 sum_s omega^s,
and B(g^b) = t_0 + sum_a omega^(g^a) t[g^(a+b)] is one cross-correlation
sharing the fft of x, or the same (N, N) gather times the roots below 128.
e = N - 1 is no exponent, so B(N - 1) is dropped.  The audits read
t = roots / sqrt(D) itself, which is bitwise every state a read returns (a
gather and an elementwise divide commute), and a fourth, exact audit
counts the entries of pw that break the cycle, so the sums run over every
residue.  The index j e of a read is below N^2, which must fit in int64:
an N with N^2 >= 2^63 is refused before anything is allocated, as are a
composite N and an N whose build would not fit in the memory left.  Each N's
roots and residuals are built once and cached, within _TABLE_BYTES, and
the cycle lives only while they are built; make_instance checks the
residuals against numerics.BOUNDS: none may break the cycle (the "log
tables" row), and the other three keep the growth laws in N stated there.

Completeness and the null relation prove every overlap audit of the
reciprocal states and of the duals.  With eps and delta their residuals,
P = (D/N) Psi^dag Psi lies within eps (Frobenius) of the projector onto
its range, whose kernel vector is within sin theta <= sqrt(D/N) delta /
sqrt(1 - eps) of u (Davis & Kahan), so within beta = eps + sqrt(2D/N)
delta / sqrt(1 - eps) of I - u u^dag.  The overlap <xi_k|psi_j> is
P_kj - omega^(k-l) P_lj, whose closed form is the one above, so it lies
within 2 beta of it.  The reciprocal states are the closed forms
phi_k = sqrt(D/(2N)) (psi_k - omega^(l-k) psi_l), normalized by that
exact scale rather than by a measured norm; each audit of one sums at
most four entries of the gap, scaled by q or sqrt(q), q <= 5/8: at most
2.5 beta to first order.  So one numerics.BOUNDS row, "derived overlap
bound", checks 4 (eps + sqrt(2D/N) delta) + 2^-46 for them all, the last
term 128 unit roundoffs for forming the closed forms and their
normalization in floating point.

State labels j are 1-based throughout because the phases depend on j mod N;
party indices are plain 0-based positions.
"""

from __future__ import annotations

import collections
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .numerics import admit, check

__all__ = [
    "Instance",
    "ReciprocalSet",
    "is_prime",
    "prime_factors",
    "ascending_factorizations",
    "make_instance",
    "reciprocal_set",
    "instance_to_dict",
    "instance_from_dict",
]

_RADER_FROM = 128  # least N whose audit sums are correlations (module docstring)
_FFT_RADIX = 11  # largest prime with its own numpy.fft pass; a larger one costs accuracy
# The per-N table cache holds at most 64 MiB of records, 16 B N each: the
# tables of every prime below 8527 at once, or one near N = 4.2 * 10^6.
_TABLE_BYTES = 1 << 26


def is_prime(n: int) -> bool:
    return n >= 2 and prime_factors(n) == (n,)


def prime_factors(n: int) -> tuple[int, ...]:
    """Prime factorization of n in ascending order, with multiplicity."""
    if n < 2:
        raise ValueError("n must be >= 2")
    out = []
    f = 2
    while f * f <= n:
        while n % f == 0:
            out.append(f)
            n //= f
        f += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def ascending_factorizations(d: int, min_factor: int = 2) -> list[tuple[int, ...]]:
    """All ascending factorizations of d into factors >= 2 (any length >= 1)."""
    if d < 2:
        raise ValueError("d must be >= 2")
    out = []
    for f in range(min_factor, d):
        if d % f == 0 and d // f >= f:
            for rest in ascending_factorizations(d // f, f):
                out.append((f,) + rest)
    if d >= min_factor:
        out.append((d,))
    return out


@dataclass(frozen=True)
class _Table:
    """Everything a family of prime N reads: its read-only roots, 16 B N, and their audits."""

    roots: np.ndarray  # (N,) omega^t, the one table every read gathers
    residuals: dict  # the cycle count and the three audits of roots / sqrt(D), measured once

    @property
    def nbytes(self) -> int:
        return self.roots.nbytes

    def read(self, labels, exponents, dim: int) -> np.ndarray:
        """roots[j e mod N] / sqrt(dim) over the outer grid of labels j and exponents e."""
        index = np.multiply.outer(labels, exponents, dtype=np.int64)
        index %= len(self.roots)
        values = self.roots[index]
        values /= np.sqrt(dim)
        return values


class _TableCache:
    """Per-N table records, least recently used first, of at most _TABLE_BYTES in all.

    The newest record stays even when it alone is larger.
    """

    def __init__(self):
        self.records, self.held = collections.OrderedDict(), 0

    def __call__(self, n: int) -> _Table:
        record = self.records.pop(n, None)
        if record is None:
            record = _build_table(n)
            self.held += record.nbytes
        self.records[n] = record
        while self.held > _TABLE_BYTES and len(self.records) > 1:
            self.held -= self.records.popitem(last=False)[1].nbytes
        return record

    def cache_clear(self) -> None:
        self.records.clear()
        self.held = 0


_table = _TableCache()


def _build_table(n: int) -> _Table:
    """The roots and four audit residuals of prime n; the power cycle they read is dropped.

    Refused before anything is allocated: an n with n^2 >= 2^63, as a
    read's index j e < n^2 must fit in int64 (ValueError); a composite n,
    by trial division of under 55,000 steps below that bound (ValueError);
    and an n whose build would not fit in memory (MemoryError, from
    numerics.admit).
    """
    if n * n >= 1 << 63:
        raise ValueError(f"n = {n} is too large for its tables: n^2 must stay below 2^63")
    if not is_prime(n):
        raise ValueError(f"n must be a prime >= 5, got {n}")
    admit(_build_bytes(n), f"n = {n} needs", "to build its tables")
    pw, roots = _power_cycle(n), _roots(n)
    roots.setflags(write=False)
    # roots / sqrt(D) is bitwise every state read: a gather and a divide commute.
    residuals = {"log tables": _cycle_errors(pw), **_audits(pw, roots, roots / np.sqrt(n - 1))}
    return _Table(roots, residuals)


def _build_bytes(n: int) -> int:
    """The peak bytes of _build_table(n), never under its traced peak.

    The cycle, the roots and the audited table hold 40 B N, and Python's
    own objects about 1.2 kB.  The fft route adds 36 B per entry of its
    length P and of D (traced: 72 B D when P = D, 36-40 B P when padded),
    at most 1.25 times the traced peak in all; the (N, N) gather below
    _RADER_FROM adds 32 B N^2, at most 1.33 times.
    """
    d = n - 1
    return 2048 + 40 * n + (36 * (_fft_size(d) + d) if n >= _RADER_FROM else 32 * n * n)


def _power_cycle(n: int) -> np.ndarray:
    """pw[k] = g^k mod prime n for k < n - 1, g the least primitive root."""
    pw = np.empty(n - 1, dtype=np.int64)
    order, qs = n - 1, set(prime_factors(n - 1))
    g = next(g for g in range(2, n) if all(pow(g, order // q, n) != 1 for q in qs))
    pw[0], filled = 1, 1
    while filled < order:  # doubling: g^(k + filled) = g^k g^filled
        block = pw[filled : 2 * filled]
        np.multiply(pw[: len(block)], pow(g, filled, n), out=block)
        block %= n
        filled += len(block)
    return pw


def _cycle_errors(pw: np.ndarray) -> int:
    """Entries of pw that break the cycle of _power_cycle: 0 unless one is wrong.

    Exact integer checks in O(N): pw[0] = 1; pw[k + 1] = pw[1] pw[k] mod N,
    so pw[k] = pw[1]^k mod N with 0 <= pw[1] < N; and no pw[k] <= 1 for
    0 < k < N - 1, so pw[1] is nonzero of order N - 1 and the cycle is a
    permutation of 1..N-1, the one the correlations of _rader_sums run over.
    """
    steps = pw[:-1] * pw[1]
    steps %= len(pw) + 1
    wrong = np.count_nonzero(pw[1:] != steps) + np.count_nonzero(pw[1:] <= 1)
    return int(pw[0] != 1) + int(wrong)


def _roots(n: int) -> np.ndarray:
    """omega^t for t = 0..n-1: the one table every amplitude is gathered from."""
    roots = 2j * np.pi * np.arange(n)
    roots /= n
    np.exp(roots, out=roots)
    return roots


def _audits(pw: np.ndarray, roots: np.ndarray, table: np.ndarray) -> dict:
    """Completeness, unit norm and null relation of an amplitude table (module docstring).

    For any table, not only the roots': each residual is what the (N, D)
    states gathered from it would measure, from the sums A and B of one
    route and the missing residue of each row.
    """
    n, d = len(table), len(table) - 1
    ratios, relation = (_rader_sums if n >= _RADER_FROM else _gather_sums)(pw, roots, table)
    ratios *= d / n
    ratios[1] -= 1.0
    sq = np.abs(ratios) ** 2
    corner = d / n * (n * abs(table[0]) ** 2) - 1.0
    total = (d - 1) * (sq[1] + 2.0 * sq[0]) + (d - 2) * float(sq[2:].sum()) + corner**2
    power = table.real**2 + table.imag**2
    norms = np.sqrt(np.append(power.sum() - power[1:], d * power[0]))
    return {
        "completeness": math.sqrt(total),
        "unit norm": float(np.max(np.abs(norms - 1.0))),
        "null relation": float(np.linalg.norm(relation[:-1])) / math.sqrt(n),
    }


def _gather_sums(pw, roots, table) -> tuple[np.ndarray, np.ndarray]:
    """A(c) and B(c) for c = 0..N-1 from one (N, N) gather t[c s mod N]."""
    residues = np.arange(len(table))
    gathered = np.take(table, np.outer(residues, residues) % len(table), mode="clip")
    return gathered @ table.conj(), gathered @ roots


def _rader_sums(pw, roots, table) -> tuple[np.ndarray, np.ndarray]:
    """The sums of _gather_sums as correlations over g^a sharing one fft (module docstring).

    Transforms run in place where they can; _build_bytes bounds the peak.
    """
    n, d, t0 = len(table), len(table) - 1, table[0]
    size = _fft_size(d)
    cross = np.fft.fft(roots[pw].conj(), size)
    x = np.fft.fft(table[pw], size)
    np.conjugate(cross, out=cross)
    cross *= x
    relation = np.full(n, t0 * roots.sum())
    relation[pw] = _circular(cross, d, t0)
    del cross
    power = np.abs(x)
    power **= 2
    x[:] = power  # kept complex for an in-place ifft
    del power
    ratios = np.full(n, t0 * table.conj().sum())
    ratios[pw] = _circular(x, d, abs(t0) ** 2)
    return ratios, relation


def _fft_size(d: int) -> int:
    """Length D when its prime factors have fixed fft passes, else a padded power of two."""
    return d if max(prime_factors(d)) <= _FFT_RADIX else 1 << (2 * d - 1).bit_length()


def _circular(spectrum: np.ndarray, d: int, shift) -> np.ndarray:
    """shift + lags 0..d-1 of the circular correlation with this length-d or padded spectrum.

    Computed in the spectrum's buffer (fft out=, numpy >= 2.0): a padded
    correlation's lag b - d wraps to b.
    """
    lags = np.fft.ifft(spectrum, out=spectrum)
    head = lags[:d]
    if len(lags) > d:
        head += lags[len(lags) - d :]
    head += shift
    return head


@dataclass(frozen=True)
class Instance:
    """One discrimination problem: N product states on a fixed party split.

    ``exponents`` is the kron-order exponent permutation the states are
    read with; it makes sum_j w_j P_j the Toeplitz matrix whose entry
    (m, m') depends only on exponents[m] - exponents[m'] mod N.  Nothing
    larger than O(N) is stored: ``states`` and ``state`` gather the N's
    table of roots on each read, and ``local_states`` is gathered on the
    first read and kept.  Stored arrays are read-only; treat the instance as
    a value.
    """

    n: int
    dims: tuple[int, ...]  # ascending party dimensions, product D = N - 1
    omit: int
    # (D,) kron-order exponents: a permutation of 0..D-1 with
    # states[j-1, m] = omega^(j * exponents[m]) / sqrt(D).
    exponents: np.ndarray
    residuals: dict  # measured audit residuals by numerics.BOUNDS row name

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    @functools.cached_property
    def retained(self) -> tuple[int, ...]:
        """State labels kept for discrimination (all j except ``omit``); built once, shared."""
        return (*range(1, self.omit), *range(self.omit + 1, self.n + 1))

    @property
    def states(self) -> np.ndarray:
        """(N, D) states, row j-1 the global state j; 16 B N^2, gathered on each read."""
        return _table(self.n).read(np.arange(1, self.n + 1), self.exponents, self.total_dim)

    def state(self, j: int) -> np.ndarray:
        """The (D,) global state j, gathered in O(D)."""
        if not 1 <= j <= self.n:
            raise ValueError(f"state label {j} out of range 1..{self.n}")
        return _table(self.n).read(j, self.exponents, self.total_dim)

    @functools.cached_property
    def local_states(self) -> tuple[np.ndarray, ...]:
        """Per party, the (N, d_alpha) factors omega^(j p_alpha m) / sqrt(d_alpha), row j-1."""
        table, local, p = _table(self.n), [], 1
        for d in self.dims:
            factor = table.read(np.arange(1, self.n + 1), p * np.arange(d), d)
            factor.setflags(write=False)
            local.append(factor)
            p *= d
        return tuple(local)


@dataclass(frozen=True)
class ReciprocalSet:
    """Normalized reciprocal states for the retained family.

    Row i of ``states`` is the reciprocal state for label ``indices[i]``: it
    is orthogonal to every retained state except its own partner, and the
    partner overlap is real positive.  ``overlaps`` holds q_j = N / (2 D), row
    j's squared overlap with its partner and the omitted state: its two Born cells.
    Nothing (D, D) is stored: ``states`` and ``state`` build the closed
    form phi_k (module docstring, l = omit) from the table of roots when
    read, ``state`` in O(D).
    """

    n: int
    dims: tuple[int, ...]
    omit: int
    indices: tuple[int, ...]
    exponents: np.ndarray  # (D,) the instance's read-only exponents, shared
    overlaps: np.ndarray  # (D,) read-only; row i's two nonzero Born cells are both q
    residuals: dict  # the derived overlap bound, by its numerics.BOUNDS row name

    @property
    def states(self) -> np.ndarray:
        """(D, D) reciprocal states, row i pairing with indices[i]; built on each read."""
        return self._closed_form(self.indices)

    def state(self, j: int) -> np.ndarray:
        if j not in self.indices:
            absent = sorted(set(range(1, self.n + 1)).difference(self.indices))
            raise ValueError(
                f"no row for label {j!r}: this holds labels 1..{self.n} except {absent}"
            )
        return self._closed_form([j])[0]

    def _closed_form(self, labels) -> np.ndarray:
        ks, l, table, d = np.asarray(labels), self.omit, _table(self.n), self.n - 1
        rows = table.read(ks, self.exponents, d)
        omitted = table.read(l, self.exponents, d)
        rows -= np.multiply.outer(table.roots[(l - ks) % self.n], omitted)
        rows *= math.sqrt((self.n - 1) / (2.0 * self.n))  # sqrt(D/(2N)) = 1 / |xi_k|
        return rows


def _check_match(a, b) -> None:
    """ValueError unless a and b come from the same (n, dims, omit) family."""
    if (a.n, a.dims, a.omit) != (b.n, b.dims, b.omit):
        raise ValueError(
            f"{type(a).__name__} and {type(b).__name__} belong to different instances"
        )


def _is_integer(value) -> bool:
    """An int or numpy integer, not a bool; the exact type int skips the slow ABC test."""
    return type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )


def make_instance(n: int, dims=None, omit: int = 1) -> Instance:
    """Build the product-state family for prime n >= 5.

    Parameters
    ----------
    n : int
        Prime number of states, at least 5.
    dims : sequence of int, optional
        Ascending party dimensions, each at least 2, with product n - 1.
        Defaults to the full prime factorization of n - 1.
    omit : int
        1-based label of the state excluded from discrimination (its
        projector becomes the failure direction).  Default 1.

    Raises
    ------
    ValueError for a float, bool or string where an integer belongs (it is
    never truncated), non-prime n, a bad factorization, or omit out of
    range or n^2 >= 2^63; MemoryError, before anything is allocated, for
    an n whose table build would not fit in the memory left (_build_table).
    InvariantError when a residual of n's table is past its numerics.BOUNDS
    law.
    """
    if not all(map(_is_integer, [n, omit] if dims is None else [n, omit, *dims])):
        raise ValueError(
            f"n, omit and each of dims must be integers, got n={n!r}, dims={dims!r}, omit={omit!r}"
        )
    n, omit = int(n), int(omit)
    if n < 5:
        raise ValueError(f"n must be a prime >= 5, got {n}")
    if dims is not None:
        dims = tuple(int(d) for d in dims)
        if not dims:
            raise ValueError("at least one party is required")
        if any(d < 2 for d in dims):
            raise ValueError("every party dimension must be >= 2")
        if list(dims) != sorted(dims):
            raise ValueError("party dimensions must be ascending")
        if math.prod(dims) != n - 1:
            raise ValueError(
                f"party dimensions {dims} multiply to {math.prod(dims)}, expected {n - 1}"
            )
    if not 1 <= omit <= n:
        raise ValueError(f"omit must be in 1..{n}, got {omit}")
    table = _table(n)
    if dims is None:
        dims = prime_factors(n - 1)
    # sum_alpha p_alpha m_alpha, p_alpha the product of the earlier dimensions, is
    # mixed radix with party 0 least significant; kron order reads it with
    # party 0 most significant, so the digits are reversed by one transpose.
    exponents = np.arange(n - 1, dtype=np.int64).reshape(dims[::-1]).T.ravel()
    exponents.setflags(write=False)
    residuals = {name: check(name, value, n) for name, value in table.residuals.items()}
    return Instance(n, dims, omit, exponents, residuals)


def _derived_bound(inst: Instance) -> float:
    """4 (eps + sqrt(2D/N) delta) + 2^-46: every overlap audit's proven bound (module docstring)."""
    eps, delta = inst.residuals["completeness"], inst.residuals["null relation"]
    return 4.0 * (eps + math.sqrt(2.0 * inst.total_dim / inst.n) * delta) + 2.0**-46


def reciprocal_set(inst: Instance) -> ReciprocalSet:
    """Reciprocal states of the retained family.

    The reciprocal state for label k is the dual xi_k with l = omit (module
    docstring), normalized: the unique direction orthogonal to every other
    retained state.  Its squared overlap is q = N / (2 D) with its partner
    and with the omitted state alike: ``overlaps`` is this closed form and
    every nonzero Born cell, and the "derived overlap bound" row checks its audits.
    The set shares the instance's exponents and stores no (D, D) array.
    """
    n, d = inst.n, inst.total_dim
    overlaps = np.empty(d)
    overlaps.fill(n / (2.0 * d))  # q, the one squared overlap
    overlaps.setflags(write=False)
    return ReciprocalSet(
        n=n,
        dims=inst.dims,
        omit=inst.omit,
        indices=inst.retained,
        exponents=inst.exponents,
        overlaps=overlaps,
        residuals={"derived overlap bound": check("derived overlap bound", _derived_bound(inst))},
    )


def instance_to_dict(inst: Instance) -> dict:
    """JSON-ready mapping of the parameters that fix the family: n, dims, omit."""
    return {"n": inst.n, "dims": list(inst.dims), "omit": inst.omit}


def instance_from_dict(payload: dict) -> Instance:
    """Rebuild an instance from its JSON mapping through make_instance.

    ``n``, ``omit`` and every entry of the ``dims`` list must be integers;
    a float, a bool or a string is a malformed payload, not truncated.
    A ``states`` array, which files of earlier versions carry, is refused
    before anything is built: the parameters fix the family, and a fresh
    ``usdsep generate`` writes them alone.
    """
    if not isinstance(payload, dict):
        raise ValueError("instance payload must be a JSON object")
    try:
        n, dims, omit = payload["n"], payload["dims"], payload["omit"]
    except KeyError as exc:
        raise ValueError(f"malformed instance payload: {exc}") from exc
    if "states" in payload:
        raise ValueError(
            "instance payload holds 'states', as files of earlier versions do; "
            "write a fresh file with usdsep generate"
        )
    if not isinstance(dims, list) or not all(map(_is_integer, [n, omit, *dims])):
        raise ValueError(
            f"malformed instance payload: n, omit and each of dims must be integers, "
            f"got n={n!r}, dims={dims!r}, omit={omit!r}"
        )
    return make_instance(n, dims, omit)
