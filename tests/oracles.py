"""Dense reference routes for the stages the pipeline computes in closed form.

make_instance sums the entries of S^T conj(S) by exponent ratio for its
completeness residual, and ``reciprocal_set`` takes its Born cells,
overlaps and audit bound from the proof (instance module docstring).
These helpers form the dense products instead: the (D, D) resolution and
the products of the states with the reciprocal states and with the duals
of ``closed_form_duals``, as the pipeline once did.  ``mod_gather_family`` is the
family's gather by products and remainders mod N from the audited table
roots / sqrt(D); every read, which gathers the roots and then divides, must
match it bit for bit.

``dense_dual_and_gram`` forms the optimum's dual certificate and the
projectors' Gram densely, for the abstract's optimality and uniqueness.

``dense_search`` screens random weight vectors by a dense eigvalsh of
each failure operator, the independent check that build_measurement's
secular equation never admits a failure below 1/2.

``reference_certify`` is the certificate's earlier per-party route: an
eigvalsh positivity test, np.linalg.norm over complex stacks, and vec_herm
by way of an averaged Hermitian copy.  cone.certify must reach the same
groups, counts, verdicts, warnings and solves by its one-pass route.

``reference_run_discrimination`` is the simulator's earlier route, kept
as it was: the (D, 2) law formed by np.stack, checked by np.max and
clipped by np.clip, the tallies and the marginal joined by np.append, the
failure columns averaged by .mean(), and failure_probability's earlier
per-input failures.  run_discrimination must return an equal SimReport,
float for float, and raise the same errors.
"""

import itertools
import math
from types import SimpleNamespace

import numpy as np

import usdsep.instance
from usdsep import SimReport, nnls
from usdsep.cone import IDENTITY_RTOL, PSD_INPUT_TOL, RAY_TOL, WARN_BAND, ConeReport, PartyConeStat
from usdsep.instance import _check_match
from usdsep.numerics import check

# The ratio route and the dense product sum the same D^2 entries in other
# orders, so their residuals agree to rounding: within half the larger plus
# 1e-15 (the largest gap seen, at N = 1009, is 7.2e-15 of 2.8e-14).
def residuals_agree(a: float, b: float) -> bool:
    return abs(a - b) <= 0.5 * max(a, b) + 1e-15


# The dense product's own rounding in a Born cell near 1/2; the largest gap
# seen between the two-cell table and the dense one over every prime up to
# 401 is 1.2e-15, and between the per-input failures 1.1e-15.
DENSE_ROUNDING = 4e-15


def mod_gather_family(inst):
    """(states, local_states) by the mod-N gather of the audited amplitude table.

    Entry [j - 1, m] of the states is roots / sqrt(D), the table the audits
    read, at j e_m mod N, and party alpha's factor is the roots table at
    j p_alpha m mod N over sqrt(d_alpha).
    """
    n, js = inst.n, np.arange(1, inst.n + 1)
    roots = usdsep.instance._table(n).roots
    table = roots / np.sqrt(n - 1)
    states = np.take(table, np.multiply.outer(js, inst.exponents) % n, mode="clip")
    local, p = [], 1
    for d in inst.dims:
        local.append(roots[np.multiply.outer(js, p * np.arange(d)) % n] / np.sqrt(d))
        p *= d
    return states, local


def dense_completeness_residual(inst) -> float:
    """||(D/N) S^T conj(S) - I||_F through the (D, D) matrix product."""
    d = inst.total_dim
    resolution = inst.states.T @ inst.states.conj()
    resolution *= d / inst.n
    resolution.flat[:: d + 1] -= 1.0
    return float(np.linalg.norm(resolution))


def dense_cross(inst, r) -> np.ndarray:
    """(N, D) overlaps: entry [j - 1, i] = <psi_j | phi_i>."""
    return inst.states.conj() @ r.states.T


def dense_born_table(inst, r) -> np.ndarray:
    """(D, N) Born table: entry [i, j - 1] = |<phi_i | psi_j>|^2."""
    return np.abs(dense_cross(inst, r).T) ** 2


def by_label(two_cells, inputs, n, omit) -> np.ndarray:
    """(D, N) table by label from (D, 2) partner and omitted-label columns, zero elsewhere."""
    table = np.zeros((len(inputs), n), dtype=two_cells.dtype)
    table[np.arange(len(inputs)), np.subtract(inputs, 1)] = two_cells[:, 0]
    table[:, omit - 1] = two_cells[:, 1]
    return table


def tuple_labels(n, omit, copies) -> np.ndarray:
    """The label each n-copy outcome tuple names, in lexicographic order: j when every
    entry outside omit is j, else omit (the failure: all omitted, or two labels)."""
    named = (set(t) - {omit} for t in itertools.product(range(1, n + 1), repeat=copies))
    return np.array([s.pop() if len(s) == 1 else omit for s in named])


def group_by_label(rows, labels, n) -> np.ndarray:
    """(D, N) sums of the (D, N^n) tuple rows over the tuples naming each label."""
    grouped = np.zeros((len(rows), n))
    np.add.at(grouped, (slice(None), labels - 1), rows)
    return grouped


def two_cell_table(r) -> np.ndarray:
    """r.overlaps as both cells of each row (partner, omitted label) in the (D, N) Born table."""
    return by_label(np.stack([r.overlaps, r.overlaps], axis=1), r.indices, r.n, r.omit)


def dense_reciprocal_residuals(inst, r) -> dict:
    """The four overlap audits the derived bound covers, measured on the dense cross product."""
    cross = dense_cross(inst, r)
    born = np.abs(cross.T) ** 2
    rows, partners = np.arange(len(r.indices)), np.subtract(r.indices, 1)
    partner, overlaps = cross[partners, rows], born[rows, partners]
    cross[partners, rows] = cross[inst.omit - 1] = 0.0
    return {
        "reciprocity": float(np.max(np.abs(cross))),
        "partner phase": float(np.max(np.abs(partner - np.abs(partner)))),
        "overlap value": float(np.max(np.abs(overlaps - inst.n / (2.0 * inst.total_dim)))),
        "q symmetry": float(np.max(np.abs(overlaps - born[:, inst.omit - 1]))),
    }


def closed_form_duals(inst, drop):
    """Duals (D/N) (psi_k - omega^(l-k) psi_l), l = drop, as .vectors; k outside {omit, l}: .ks."""
    n, states = inst.n, inst.states
    ks = np.array([k for k in range(1, n + 1) if k not in (inst.omit, drop)])
    phases = np.exp(2j * np.pi * ((drop - ks) % n) / n)[:, None]
    vectors = inst.total_dim / n * (states[ks - 1] - phases * states[drop - 1])
    return SimpleNamespace(ks=tuple(ks.tolist()), vectors=vectors)


def dense_dual_residuals(inst, xi, drop) -> dict:
    """Deltas and dropped-state overlaps of the duals xi, measured by their dense product."""
    ks = np.array(xi.ks)
    cross = xi.vectors.conj() @ inst.states.T  # entry [i, j - 1] = <xi_(ks[i]) | psi_j>
    predicted = -np.exp(2j * np.pi * ((ks - drop) % inst.n) / inst.n)
    dropped = float(np.max(np.abs(cross[:, drop - 1] - predicted)))
    cross[np.arange(len(ks)), ks - 1] -= 1.0
    cross[:, drop - 1] = 0.0
    return {"dual delta overlap": float(np.max(np.abs(cross))), "dual dropped overlap": dropped}


def derived_bound(inst) -> float:
    """The bound every overlap audit reads: 4 (eps + sqrt(2D/N) delta) + 2^-46."""
    eps, delta = inst.residuals["completeness"], inst.residuals["null relation"]
    return 4.0 * (eps + np.sqrt(2.0 * inst.total_dim / inst.n) * delta) + 2.0**-46


def dense_failures(inst, r, m) -> np.ndarray:
    """<phi_i|F|phi_i>: each dense Born row weighted by F's coefficients D/N - w~_j."""
    coefficients = np.full(inst.n, inst.total_dim / inst.n)
    coefficients[np.subtract(m.indices, 1)] -= m.weights
    return dense_born_table(inst, r) @ coefficients


def dense_dual_and_gram(inst):
    """The dual certificate Z = (I - P_omit) / (2 (N - 2)) as a dense (D, D)
    matrix, and the (N, N) Hilbert-Schmidt Gram Tr(P_j P_k) = |<psi_j|psi_k>|^2
    of the N projectors, both from the dense (N, D) states."""
    states = inst.states
    omitted = states[inst.omit - 1]
    z = (np.eye(inst.total_dim) - np.outer(omitted, omitted.conj())) / (2.0 * (inst.n - 2))
    return z, np.abs(states.conj() @ states.T) ** 2


def dense_search(inst, samples, seed):
    """Uniform weights on [0, 2D/N]^D kept where eigvalsh finds I - sum_j w_j P_j PSD.

    Failures are the closed form 1 - N sum(w) / (2 D^2); returns the best
    weights and failure, the feasible count and the largest feasible weight sum.
    """
    d = inst.total_dim
    named = inst.states[[j - 1 for j in inst.retained]]
    pool = np.random.default_rng(seed).uniform(0.0, 2.0 * d / inst.n, size=(samples, d))
    min_eigs = [  # 10^4 (D, D) failure operators at a time
        np.linalg.eigvalsh(np.eye(d) - (named.T * block[:, None, :]) @ named.conj())[:, 0]
        for block in np.split(pool, range(10_000, samples, 10_000))
    ]
    feasible = pool[np.concatenate(min_eigs) >= -1e-10]
    sums = feasible.sum(axis=1)
    best = int(np.argmax(sums))
    return SimpleNamespace(
        best_weights=feasible[best],
        best_failure=1.0 - inst.n / (2.0 * d * d) * float(sums[best]),
        feasible_count=len(feasible),
        max_weight_sum=float(sums[best]),
    )


def reference_hermitize(m, rtol=1e-12):
    """(M + M^dag)/2 of a stack, rejecting asymmetry past rtol by np.linalg.norm."""
    m = np.asarray(m, dtype=complex)
    adjoint = m.conj().swapaxes(-1, -2)
    scale = np.linalg.norm(m, axis=(-2, -1))
    gap = np.linalg.norm(m - adjoint, axis=(-2, -1))
    if np.any(gap > rtol * np.maximum(scale, 1.0)):
        raise ValueError(f"matrix is not Hermitian: asymmetry {np.max(gap):.3e}")
    return (m + adjoint) / 2.0


def reference_vec_herm(h):
    """vec_herm of the averaged copy: diagonal, then sqrt(2) Re and Im of the upper triangle."""
    h = reference_hermitize(h)
    d = h.shape[-1]
    rows, cols = np.triu_indices(d, k=1)
    off = h[..., rows, cols]
    out = np.empty(h.shape[:-2] + (d * d,), dtype=float)
    out[..., :d] = h.diagonal(axis1=-2, axis2=-1).real
    out[..., d::2] = np.sqrt(2.0) * off.real
    out[..., d + 1 :: 2] = np.sqrt(2.0) * off.imag
    return out


def reference_stack(ops) -> np.ndarray:
    """The validated (R, d, d) stack, positivity decided by eigvalsh alone; refused, as
    cone.certify refuses it, when a squared Frobenius norm is zero, underflows
    or overflows."""
    stack = np.array(ops, dtype=complex)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.shape[1] == 0:
        raise ValueError("operators must share one square dimension")
    if not np.all(np.isfinite(stack)):
        raise ValueError("operators must have finite entries")
    # Each norm from the stack over its largest entry, which neither squares
    # to an overflow nor underflows: the refusals read the exact norm.
    largest = np.abs(stack).max(axis=(1, 2))
    if np.any(largest == 0.0):
        raise ValueError("zero operator has no ray")
    norms = largest * np.linalg.norm(stack / largest[:, None, None], axis=(1, 2))
    # The certificate squares each norm, so the square must be a finite normal float64.
    if np.any(norms < np.sqrt(np.finfo(float).tiny)):
        raise ValueError("operator entries too small: a squared Frobenius norm underflows float64")
    if np.any(norms > np.sqrt(np.finfo(float).max)):
        raise ValueError("operator entries too large: a squared Frobenius norm overflows float64")
    if eigvalsh_rejects(stack):
        raise ValueError("operators must be positive semidefinite")
    return stack


def eigvalsh_rejects(stack) -> bool:
    """The eigvalsh test: the Hermitian part of some operator scaled to unit Frobenius
    norm has an eigenvalue below -PSD_INPUT_TOL."""
    units = stack / np.linalg.norm(stack, axis=(1, 2))[:, None, None]
    hermitian = (units + units.conj().transpose(0, 2, 1)) / 2.0
    return float(np.linalg.eigvalsh(hermitian)[:, 0].min()) < -PSD_INPUT_TOL


def reference_rays(stack, tol):
    """First-match grouping with np.linalg.norm: (groups, representatives, coords)."""
    units = stack / np.linalg.norm(stack, axis=(1, 2))[:, None, None]
    coords = reference_vec_herm(units)
    slack = 16.0 * stack.shape[1] ** 2 * np.finfo(float).eps
    rows, cols = np.nonzero(coords @ coords.T >= 1.0 - tol**2 / 2.0 - slack)
    earlier = cols < rows
    rows, cols = rows[earlier], cols[earlier]
    head = np.arange(len(units))
    if rows.size:
        splits = np.flatnonzero(np.diff(rows)) + 1
        for i, cand in zip(rows[np.r_[0, splits]], np.split(cols, splits)):
            cand = cand[head[cand] == cand]
            near = np.flatnonzero(np.linalg.norm(units[cand] - units[i], axis=(1, 2)) <= tol)
            if near.size:
                head[i] = cand[near[0]]
    heads = np.flatnonzero(head == np.arange(len(units)))
    members = {h: [] for h in heads.tolist()}
    for i, h in enumerate(head.tolist()):
        members[h].append(i)
    return tuple(tuple(m) for m in members.values()), units[heads], coords[heads]


def reference_witness_bounds(reps, v) -> np.ndarray:
    """The checked Farkas bounds of Y_c = I - t_c r_c, inequalities by matmul and norms by
    np.linalg.norm."""
    d = reps.shape[1]
    q = v @ v.T
    q /= v[:, :d].sum(axis=1)
    np.fill_diagonal(q, -np.inf)
    t = (1.0 - 1e-12) / np.maximum(q.max(axis=1), 1e-3)
    y = -t[:, None] * v
    y[:, :d] += 1.0
    w = np.matmul(y, v.T, out=q)
    own = w.diagonal().copy()
    np.fill_diagonal(w, np.inf)
    return np.where(w.min(axis=1) >= 0.0, -own / np.linalg.norm(y, axis=1), -np.inf)


def reference_party(stack, tol):
    """One party's (groups, residuals, witnessed, nnls_solves) by the earlier route."""
    groups, reps, coords = reference_rays(stack, tol)
    residuals = np.full(len(groups), np.inf)
    witnessed = np.zeros(len(groups), dtype=bool)
    undecided = ()
    if len(groups) > 1:
        bounds = reference_witness_bounds(reps, coords)
        witnessed = bounds > max(tol, WARN_BAND[1])
        residuals[witnessed] = bounds[witnessed]
        undecided = np.flatnonzero(~witnessed)
        v = coords.T
        for c in undecided:
            _, residuals[c] = nnls(np.delete(v, c, axis=1), v[:, c], tol=max(tol * 1e-4, 1e-14))
    return groups, residuals, witnessed, len(undecided)


def reference_certify(product_ops, tol=RAY_TOL):
    """cone.certify by the earlier per-party route; also returns each party's groups."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    entries = [list(entry) for entry in product_ops]
    lo, hi = WARN_BAND
    warnings, stats, all_groups, total = [], [], [], 0
    for alpha in range(len(entries[0])):
        stack = reference_stack([entry[alpha] for entry in entries])
        groups, residuals, witnessed, solves = reference_party(stack, tol)
        proven = residuals[witnessed]
        warnings += [
            f"party {alpha} ray class {c}: NNLS residual {residuals[c]:.3e} is borderline"
            for c in np.flatnonzero((lo <= residuals) & (residuals <= hi))
        ]
        d = stack.shape[1]
        scale = np.trace(stack, axis1=1, axis2=2) / d
        off_identity = np.linalg.norm(stack - scale[:, None, None] * np.eye(d), axis=(1, 2))
        norms = np.linalg.norm(stack, axis=(1, 2))
        skipped = bool(np.all(off_identity <= IDENTITY_RTOL * np.maximum(norms, 1e-14)))
        count = int(np.count_nonzero(residuals > tol))
        stats.append(
            PartyConeStat(
                party=alpha,
                generators=len(stack),
                rays=len(groups),
                extreme=count,
                skipped=skipped,
                nnls_solves=solves,
                min_witness_bound=float(proven.min()) if proven.size else None,
            )
        )
        all_groups.append(groups)
        total += 0 if skipped else count
    bound = 2 * (len(entries) - 1)
    single = len(entries[0]) == 1
    report = ConeReport(
        parties=tuple(stats),
        total=total,
        bound=bound,
        verdict="SATISFIES" if single or total <= bound else "VIOLATES",
        warnings=tuple(warnings),
        note="single-party measurement: trivially implementable locally" if single else "",
    )
    return report, all_groups


def reference_failure_probability(m, r):
    """(Born failure, per-input failures, optimal) as failure_probability once formed them."""
    _check_match(m, r)
    d = len(r.indices)
    traces = r.overlaps * (d / m.n - m.weights) + r.overlaps * (d / m.n)
    born = float(traces.mean())
    closed = 1.0 - float((r.overlaps * m.weights).sum()) / d
    cap_units = max(1.0, m.n * float(m.weights.max()) / (2.0 * d))
    check("born vs closed form", abs(born - closed) / cap_units)
    optimal = bool(np.max(np.abs(m.weights - d / m.n)) <= 1e-12)
    return born, traces, optimal


def _reference_checked_rows(rows):
    check("negative outcome probability", -float(rows.min()))
    check("outcome probabilities miss 1", float(np.max(np.abs(rows.sum(axis=1) - 1.0))))
    return np.clip(rows, 0.0, None)


def _reference_sample_counts(rows, trials, seed):
    rng = np.random.default_rng(seed)
    per_input = rng.multinomial(trials, np.full(len(rows), 1.0 / len(rows)))
    return rng.multinomial(per_input, rows / rows.sum(axis=1, keepdims=True))


def _reference_single_rows(r, m):
    i, cap = int(np.argmax(m.weights)), 2.0 * len(m.indices) / m.n
    if m.weights[i] > cap:
        raise ValueError(
            f"weight {m.weights[i]:g} of label {m.indices[i]} exceeds the pair cap 2D/N = {cap:g}, "
            f"so its failure probability 1 - q w would be negative"
        )
    check("stray outcome weight", float(m.weights.sum()) * r.residuals["derived overlap bound"] ** 2)
    single = np.stack([m.weights * r.overlaps, reference_failure_probability(m, r)[1]], 1)
    return _reference_checked_rows(single)


def _reference_named_rows(single, copies):
    if copies == 1:
        return single
    with np.errstate(divide="ignore"):
        kept = copies * np.log1p(-single[:, 0] / single.sum(axis=1))
    return _reference_checked_rows(np.stack([-np.expm1(kept), np.exp(kept)], 1))


def reference_run_discrimination(inst, r, m, cfg):
    """run_discrimination by the earlier route (module docstring)."""
    _check_match(inst, m)
    law = _reference_named_rows(_reference_single_rows(r, m), cfg.copies)
    cells = _reference_sample_counts(law, cfg.trials, cfg.seed)
    d = len(m.indices)
    tallies = np.append(cells[:, 0], cells[:, 1].sum())
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
