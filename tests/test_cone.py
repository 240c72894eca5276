"""Tests for the extreme-ray certificate against finite-round protocols."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import usdsep.cone
from usdsep import (
    LocalOperatorSet,
    certify,
    count_extreme,
    distinct_rays,
    family_product_ops,
    make_instance,
    nnls,
    proj,
    vec_herm,
)
from usdsep.cone import IDENTITY_RTOL, PSD_INPUT_TOL, RAY_TOL, WARN_BAND
from tests.oracles import eigvalsh_rejects, reference_certify
from tests.test_instance import all_instances
from tests.test_properties import instances

pytest.importorskip("scipy")

from tests.lp_oracle import conic_representable_lp, rand_psd, random_operator_sets


def class_of(rays, i):
    """The class holding operator i, read from the groups."""
    (c,) = [c for c, members in enumerate(rays.groups) if i in members]
    return c


def extreme_per_operator(s):
    """Whether each operator's ray class is extreme, from count_extreme's residuals."""
    found = count_extreme(s)
    return [bool(found.residuals[class_of(found.rays, i)] > RAY_TOL) for i in range(len(s.ops))]


def test_distinct_rays_groups_by_positive_scale():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    s = LocalOperatorSet((a, 3.0 * a, b))
    assert s.ops.shape == (3, 2, 2) and not s.ops.flags.writeable
    rays = distinct_rays(s)
    assert rays.count == 2
    assert rays.groups == ((0, 1), (2,))
    assert class_of(rays, 1) == 0
    assert not any(5 in members for members in rays.groups)
    assert rays.representatives.shape == (2, 2, 2)
    assert not rays.representatives.flags.writeable
    assert np.array_equal(rays.representatives, np.stack([a, b]))


def test_operator_set_keeps_one_unit_stack():
    # A ray does not depend on scale, so the set keeps the unit forms
    # M / ||M||_F in place of the operators: one read-only (R, d, d) array.
    rng = np.random.default_rng(35)
    ops = [10.0 ** rng.uniform(-100, 100) * rand_psd(rng, 4) for _ in range(6)]
    s = LocalOperatorSet(ops)
    assert s.ops.shape == (6, 4, 4) and not s.ops.flags.writeable
    assert np.max(np.abs(np.linalg.norm(s.ops, axis=(1, 2)) - 1.0)) <= 1e-15
    for got, op in zip(s.ops, ops):
        assert np.allclose(got, op / np.linalg.norm(op), rtol=0.0, atol=1e-15)
    arrays = [v for v in vars(s).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 1 and arrays[0] is s.ops


def first_match_rays(ops, tol):
    """Reference grouping: one norm per (operator, representative) pair."""
    groups, reps = [], []
    for i, op in enumerate(ops):
        unit = op / np.linalg.norm(op)
        for c, rep in enumerate(reps):
            if np.linalg.norm(unit - rep) <= tol:
                groups[c].append(i)
                break
        else:
            groups.append([i])
            reps.append(unit)
    return tuple(tuple(g) for g in groups), reps


def test_distinct_rays_tolerance_boundary_follows_first_match():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    bump = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex) / np.sqrt(2.0)
    near = a + 0.5 * RAY_TOL * bump  # unit a moves by just under 0.5 RAY_TOL
    far = a + 2.0 * RAY_TOL * bump  # and here by just under 2 RAY_TOL
    ops = (a, b, near, far, 7.0 * b, 3.0 * far)
    rays = distinct_rays(LocalOperatorSet(ops))
    groups, reps = first_match_rays(ops, RAY_TOL)
    assert rays.groups == groups == ((0, 2), (1, 4), (3, 5))
    assert len(rays.representatives) == len(reps)
    for got, want in zip(rays.representatives, reps):
        assert np.array_equal(got, want)
    assert [class_of(rays, i) for i in range(len(ops))] == [0, 1, 0, 2, 1, 2]


def test_count_extreme_vectorizes_each_class_once(monkeypatch):
    calls = []
    original = usdsep.cone.vec_herm

    def counting(h):
        calls.append(np.shape(h))
        return original(h)

    monkeypatch.setattr(usdsep.cone, "vec_herm", counting)
    inst = make_instance(13)
    s = LocalOperatorSet(tuple(proj(v) for v in inst.local_states[0]))
    found = count_extreme(s)
    assert found.count == found.rays.count == 13
    # One call per party, on the stack of all its class representatives.
    assert calls == [(13, 2, 2)]

    calls.clear()
    rep = certify(family_product_ops(inst))
    assert sum(p.rays for p in rep.parties) == 13 * len(inst.dims)
    assert calls == [(13, d, d) for d in inst.dims]


def test_distinct_rays_family_has_n_classes():
    inst = make_instance(5)
    ops = tuple(proj(v) for v in inst.local_states[0])
    rays = distinct_rays(LocalOperatorSet(ops))
    assert rays.count == 5


def test_zero_operator_has_no_ray():
    z = np.zeros((2, 2), dtype=complex)
    a = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        distinct_rays(LocalOperatorSet((a, z)))


def test_operator_set_validation():
    with pytest.raises(ValueError):
        LocalOperatorSet(())
    with pytest.raises(ValueError):
        LocalOperatorSet((np.eye(2, dtype=complex), np.eye(3, dtype=complex)))
    not_psd = np.diag([1.0, -0.2]).astype(complex)
    with pytest.raises(ValueError):
        LocalOperatorSet((not_psd,))
    for value in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            LocalOperatorSet((np.eye(2), np.diag([1.0, value]).astype(complex)))
    # Zero-size operators name no dimension at all.
    empty = np.zeros((0, 0))
    with pytest.raises(ValueError, match="one square dimension"):
        LocalOperatorSet((empty, empty))
    with pytest.raises(ValueError, match="one square dimension"):
        certify([[empty, empty]])
    with pytest.raises(ValueError, match="product operators need at least one factor"):
        certify([[]])


def test_operator_set_rejects_norms_that_overflow():
    # Entries near 1e160 are finite, but their squares are not: the set is
    # refused for that, before any positivity test, rank-1 or full rank.
    rank_one = [1e160 * proj(v) for v in make_instance(5).local_states[0]]
    full_rank = [1e160 * np.diag([1.0, t]).astype(complex) for t in (0.5, 1.0, 2.0)]
    for ops in (rank_one, full_rank):
        with pytest.raises(ValueError, match="squared Frobenius norm overflows"):
            LocalOperatorSet(ops)
        with pytest.raises(ValueError, match="squared Frobenius norm overflows"):
            certify([[op, np.eye(2)] for op in ops])


def test_operator_set_tells_an_underflowing_norm_from_a_zero_operator():
    # Below about 1e-154 the squared norm leaves the normal range and the
    # unit form loses its digits (1e-160 I would split off a second ray
    # class), so a nonzero factor there is refused as too small; an exact
    # zero stays a zero operator.
    for scale in (1e-155, 1e-160, 1e-300, 5e-324):
        with pytest.raises(ValueError, match="too small: a squared Frobenius norm underflows"):
            certify([[scale * np.eye(2), np.eye(2)], [np.eye(2), np.eye(2)]])
    with pytest.raises(ValueError, match="zero operator has no ray"):
        LocalOperatorSet((np.eye(2), np.zeros((2, 2)), 1e-160 * np.eye(2)))
    assert distinct_rays(LocalOperatorSet((1e-150 * np.eye(2), np.eye(2)))).count == 1


@pytest.mark.parametrize("scale", [1e-160, 1e160])
@pytest.mark.parametrize("n, dims, copies", [(5, None, 1), (29, (4, 7), 1), (5, None, 2)])
def test_certify_and_the_reference_route_refuse_the_same_scales(n, dims, copies, scale):
    # A factor whose squared Frobenius norm leaves the normal float64 range,
    # in any party, is refused by both routes with the same reason.
    entries = [list(entry) for entry in family_product_ops(make_instance(n, dims), copies)]
    for alpha in range(len(entries[0])):
        scaled = [list(entry) for entry in entries]
        scaled[3][alpha] = scale * scaled[3][alpha]
        with pytest.raises(ValueError, match="squared Frobenius norm") as want:
            reference_certify(scaled)
        with pytest.raises(ValueError) as got:
            certify(scaled)
        assert str(got.value).startswith(str(want.value))


def test_operator_set_rejects_one_indefinite_factor_among_many():
    good = tuple(np.diag([1.0, t]).astype(complex) for t in np.linspace(0.0, 1.0, 20))
    LocalOperatorSet(good)
    bad = np.diag([1.0, -1e-6]).astype(complex)
    with pytest.raises(ValueError, match="positive semidefinite"):
        LocalOperatorSet(good[:7] + (bad,) + good[7:])
    with pytest.raises(ValueError, match="one square dimension"):
        LocalOperatorSet(good + (np.eye(2, 3, dtype=complex),))


def test_rank_one_projectors_are_extreme():
    inst = make_instance(5)
    s = LocalOperatorSet(tuple(proj(v) for v in inst.local_states[0]))
    assert extreme_per_operator(s) == [True] * 5
    found = count_extreme(s)
    assert found.count == found.rays.count == 5
    assert np.all(found.residuals > 1e-6)


def test_planted_combination_is_not_extreme():
    rng = np.random.default_rng(7)
    a = rand_psd(rng, 3, rank=1)
    b = rand_psd(rng, 3, rank=1)
    c = 0.4 * a + 0.6 * b
    s = LocalOperatorSet((a, b, c))
    assert extreme_per_operator(s) == [True, True, False]
    found = count_extreme(s)
    assert found.rays.groups == ((0,), (1,), (2,))
    assert found.count == 2


def test_lone_class_is_extreme():
    a = np.diag([1.0, 2.0]).astype(complex)
    s = LocalOperatorSet((a, 2.0 * a))
    found = count_extreme(s)
    assert found.rays.count == 1 and found.count == 1
    assert np.isinf(found.residuals[0])


def test_certify_symmetric_family_violates():
    inst = make_instance(5)
    rep = certify(family_product_ops(inst))
    assert rep.total == 10
    assert rep.bound == 8
    assert rep.verdict == "VIOLATES"
    assert all(s.extreme == 5 and not s.skipped for s in rep.parties)
    assert rep.warnings == ()


def test_certify_every_family_violates():
    for inst in all_instances():
        rep = certify(family_product_ops(inst))
        per_party = [s.extreme for s in rep.parties]
        assert per_party == [inst.n] * len(inst.dims), (inst.n, inst.dims)
        assert rep.total == inst.n * len(inst.dims)
        assert rep.bound == 2 * (inst.n - 1)
        assert rep.verdict == "VIOLATES"
        # The checked witness settles every family class without NNLS.
        assert [s.nnls_solves for s in rep.parties] == [0] * len(inst.dims)


def test_certify_local_control_satisfies():
    # A party measuring its own basis while the other does nothing is the
    # canonical one-round protocol; the certificate must not flag it.
    e0 = np.diag([1.0, 0.0]).astype(complex)
    e1 = np.diag([0.0, 1.0]).astype(complex)
    eye = np.eye(2, dtype=complex)
    rep = certify([[e0, eye], [e1, eye]])
    assert rep.total == 2
    assert rep.bound == 2
    assert rep.verdict == "SATISFIES"
    assert not rep.parties[0].skipped
    assert rep.parties[1].skipped


def test_certify_multicopy_pair_violates():
    rep = certify(family_product_ops(make_instance(5), 2))
    assert [s.extreme for s in rep.parties] == [25, 25]
    assert rep.total == 50
    assert rep.bound == 48
    assert rep.verdict == "VIOLATES"


def test_certify_single_party_note():
    e0 = np.diag([1.0, 0.0]).astype(complex)
    e1 = np.diag([0.0, 1.0]).astype(complex)
    rep = certify([[e0], [e1]])
    assert rep.verdict == "SATISFIES"
    assert rep.note != ""


def test_certify_invariances():
    # Rays do not depend on scale, and K_1 x K_2 = (c K_1) x (K_2 / c) is
    # the same outcome: with every factor scaled on its own over 200
    # decades, certify still gives the reference route's unscaled report,
    # on the benchmark's families, two copies of N = 5 and generated inputs.
    rng = np.random.default_rng(12)
    for n, dims, copies in FAMILY_CASES:
        entries = family_product_ops(make_instance(n, dims), copies)
        assert_matches_reference(entries, RAY_TOL, rng=rng)
    for _ in range(30):
        kinds = rng.choice(KINDS, size=int(rng.integers(1, 4)))
        r, tol = int(rng.integers(2, 13)), float(rng.choice([1e-8, 1e-6, 1e-3, 0.05]))
        parties = [party_factors(rng, kind, r, tol) for kind in kinds]
        entries = [[party[j] for party in parties] for j in range(r)]
        well_posed = not (tol < 1e-6 and "near identity" in kinds)
        assert_matches_reference(entries, tol, well_posed, rng=rng)

    inst = make_instance(5)
    base = certify(family_product_ops(inst))
    perm = list(rng.permutation(5))
    shuffled = [family_product_ops(inst)[i] for i in perm]
    rep = certify(shuffled)
    assert rep.total == base.total and rep.verdict == base.verdict


def test_certify_duplicates_do_not_inflate_rays():
    inst = make_instance(5)
    entries = family_product_ops(inst)
    rep = certify(entries + [entries[0]])
    assert [s.generators for s in rep.parties] == [6, 6]
    assert [s.rays for s in rep.parties] == [5, 5]
    assert rep.total == 10
    assert rep.bound == 10
    assert rep.verdict == "SATISFIES"


def test_certify_identity_generator_flag():
    e0 = np.diag([1.0, 0.0]).astype(complex)
    e1 = np.diag([0.0, 1.0]).astype(complex)
    eye = np.eye(2, dtype=complex)

    # With both basis projectors present, the identity is their sum: it adds
    # a ray class but never an extreme one.
    entries = [[e0, e0], [e1, e1], [eye, e0]]
    kept = certify(entries)
    assert [s.rays for s in kept.parties] == [3, 2]
    assert [s.extreme for s in kept.parties] == [2, 2]

    # With only one projector beside it, the identity ray is extreme in the
    # party's cone and counts as a generator.
    entries = [[e0, e0], [eye, e1]]
    assert [s.extreme for s in certify(entries).parties] == [2, 2]


def test_certify_input_validation():
    eye = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        certify([])
    with pytest.raises(ValueError):
        certify([[eye, eye], [eye]])


def test_certify_rejects_nonpositive_tol():
    e0 = np.diag([1.0, 0.0]).astype(complex)
    e1 = np.diag([0.0, 1.0]).astype(complex)
    half_j = np.full((2, 2), 0.5, dtype=complex)
    entries = [[e0, e0], [e1, e1], [e0 + e1, half_j], [e0, e0]]
    rep = certify(entries)
    assert [s.rays for s in rep.parties] == [3, 3]
    assert (rep.total, rep.bound, rep.verdict) == (5, 6, "SATISFIES")
    # A negative tol would keep the duplicate e0 as its own class and count
    # every class as extreme: 8 > 6, a false VIOLATES.
    for bad in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="tol"):
            certify(entries, tol=bad)


def test_certify_takes_a_tol_whose_square_overflows():
    # Unit rays lie at most 2 apart, so every tol past 2 joins each party's
    # factors into one class, 1e300 and the largest float included.
    e0 = np.diag([1.0, 0.0]).astype(complex)
    e1 = np.diag([0.0, 1.0]).astype(complex)
    entries = [[e0, e0], [e1, e1], [e0 + e1, np.full((2, 2), 0.5, dtype=complex)]]
    for tol in (3.0, 1e100, 1e300, np.finfo(float).max, np.float64(1e300)):
        rep = certify(entries, tol=tol)
        assert [s.rays for s in rep.parties] == [1, 1], tol
        assert rep.verdict == "SATISFIES"


def test_borderline_residual_raises_warning_not_verdict_change():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    bump = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    c = 0.5 * (a + b) + 1e-7 * bump
    rep = certify([[a, a], [b, b], [c, a]])
    assert any("borderline" in w for w in rep.warnings)
    # The residual (about 2e-7) clears the 1e-8 cut, so the class still
    # counts as extreme; the warning flags the call as fragile.
    assert rep.parties[0].extreme == 3


def test_nnls_extremality_matches_lp_oracle():
    rng = np.random.default_rng(2718)
    cases = 0
    for ops in random_operator_sets(rng, 30):
        s = LocalOperatorSet(ops)
        found = count_extreme(s)
        rays, residuals = found.rays, found.residuals
        for c in range(rays.count):
            others = [rays.representatives[k] for k in range(rays.count) if k != c]
            nnls_extreme = residuals[c] > 1e-8
            if not others:
                lp_extreme = True
            else:
                lp_extreme = not conic_representable_lp(
                    rays.representatives[c], others
                )
            assert nnls_extreme == lp_extreme, (cases, c)
            cases += 1
    assert cases >= 60


def planted_rays(rng, tol, d=None):
    """Rank-1 operators near random rank-1 bases, at distances just under
    and just over tol, plus chains and rescaled copies, in random order.

    For unit a and b = cos(phi) a + sin(phi) a_perp the projectors are
    sqrt(2) sin(phi) apart, so each distance is planted exactly.  The
    dimension d >= 2 is drawn from 2..4 unless given.
    """
    d = int(rng.integers(2, 5)) if d is None else d
    ops = []
    for _ in range(int(rng.integers(1, 5))):
        a, perp = np.linalg.qr(rng.normal(size=(d, 2)) + 1j * rng.normal(size=(d, 2)))[0].T
        ops.append(proj(a))
        for factor in (1 - 1e-6, 1 + 1e-6, 0.6, 1.2):
            phi = np.arcsin(min(factor * tol, 1.0) / np.sqrt(2.0))
            ops.append(proj(np.cos(phi) * a + np.sin(phi) * perp))
    ops += [rand_psd(rng, d) for _ in range(int(rng.integers(0, 3)))]
    ops += [2.5 * ops[k] for k in rng.integers(0, len(ops), size=2)]
    return tuple(ops[k] * rng.uniform(0.5, 2.0) for k in rng.permutation(len(ops)))


@settings(max_examples=40, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1e-8, 1e-6, 1e-4, 1e-2, 0.1, 0.5]))
def test_distinct_rays_screen_matches_first_match(seed, tol):
    ops = planted_rays(np.random.default_rng(seed), tol)
    rays = distinct_rays(LocalOperatorSet(ops), tol)
    groups, reps = first_match_rays(ops, tol)
    assert rays.groups == groups
    assert len(rays.representatives) == len(reps)
    np.testing.assert_allclose(rays.representatives, np.stack(reps), rtol=0, atol=1e-15)
    np.testing.assert_allclose(rays.coords, vec_herm(rays.representatives), rtol=0, atol=1e-15)


def nnls_only_residuals(rays, tol):
    """Reference: every class decided by NNLS over vec_herm columns."""
    v = vec_herm(rays.representatives).T
    residuals = np.full(rays.count, np.inf)
    if rays.count > 1:
        for c in range(rays.count):
            _, residuals[c] = nnls(np.delete(v, c, axis=1), v[:, c], tol=max(tol * 1e-4, 1e-14))
    return residuals


E0, E1, EYE = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex), np.eye(2)
PHI = np.arcsin(1e-3 / np.sqrt(2.0))
FIXED_SETS = {
    "local control, measuring party": (E0, E1),
    "local control, idle party": (EYE, EYE),
    # Projectors 1e-3 apart: the witness proves about 5e-7, inside the
    # warning band, while NNLS finds 1e-3; only NNLS may decide here.
    "near pair": (E0, proj([np.cos(PHI), np.sin(PHI)])),
    **{
        f"two copies of N = 5, party {alpha}": tuple(
            entry[alpha] for entry in family_product_ops(make_instance(5), 2)
        )
        for alpha in range(2)
    },
}


@st.composite
def operator_sets(draw):
    kind = draw(st.sampled_from(["family", "rank one", "lp oracle", "fixed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "family":
        inst = draw(instances([5, 7, 11, 13, 29, 31, 37]))
        alpha = draw(st.integers(0, len(inst.dims) - 1))
        return tuple(entry[alpha] for entry in family_product_ops(inst))
    if kind == "rank one":
        d = int(rng.integers(2, 5))
        k = int(rng.integers(2, 10))
        vecs = rng.normal(size=(k, d)) + 1j * rng.normal(size=(k, d))
        return tuple(proj(v) for v in vecs)
    if kind == "lp oracle":
        return next(random_operator_sets(rng, int(rng.integers(1, 4))))
    return FIXED_SETS[draw(st.sampled_from(sorted(FIXED_SETS)))]


@settings(max_examples=60, deadline=None, database=None)
@given(operator_sets(), st.sampled_from([1e-8, 1e-6, 1e-3, 0.05]))
def test_witness_decisions_match_nnls_only(ops, tol):
    found = count_extreme(LocalOperatorSet(ops), tol)
    reference = nnls_only_residuals(found.rays, tol)
    lo, hi = WARN_BAND
    assert list(found.residuals > tol) == list(reference > tol)
    assert list((lo <= found.residuals) & (found.residuals <= hi)) == list(
        (lo <= reference) & (reference <= hi)
    )
    decided = found.witnessed
    assert found.nnls_solves == (np.count_nonzero(~decided) if found.rays.count > 1 else 0)
    # Where the witness decided, its bound cleared both cuts and stays below
    # the NNLS residual, up to rounding.
    assert np.all(found.residuals[decided] > max(tol, hi))
    assert np.all(found.residuals[decided] <= reference[decided] + 1e-12)
    assert np.array_equal(found.residuals[~decided], reference[~decided])


def random_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def party_factors(rng, kind, r, tol):
    """r factors of one party of dimension 1 to 14: near-duplicate rays at the tolerance
    edge, near-identity factors, rank > 1 factors or rank-1 ones, each at a random
    positive scale.  At d = 1 every factor is a positive number: one ray, the identity."""
    d = int(rng.integers(1, 15))
    if kind == "near duplicates":
        planted = planted_rays(rng, tol, max(d, 2))
        ops = [planted[k % len(planted)] for k in range(r)]
    elif kind == "near identity":
        # Off the identity by 0.5 or 2 times IDENTITY_RTOL relative: skipped or not.
        ops = []
        for _ in range(r):
            h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            h = (h + h.conj().T) / 2.0
            h -= np.trace(h) / d * np.eye(d)
            gap = rng.choice([0.5, 2.0]) * IDENTITY_RTOL * np.sqrt(d)
            ops.append(np.eye(d) + (gap * h / np.linalg.norm(h) if d > 1 else 0.0))
    elif kind == "rank > 1":
        ops = [rand_psd(rng, d, rank=int(rng.integers(min(2, d), d + 1))) for _ in range(r)]
    else:
        ops = [proj(v) for v in rng.normal(size=(r, d)) + 1j * rng.normal(size=(r, d))]
    return [op * 10.0 ** rng.uniform(-2.0, 3.0) for op in ops]


KINDS = ("near duplicates", "near identity", "rank > 1", "rank one")


def assert_matches_reference(entries, tol, well_posed=True, rng=None):
    """certify against reference_certify: groups, rays, skipped and generators always;
    with ``well_posed`` also counts, verdict, note, warnings, NNLS solves and the
    witness bound, within 1e-12 relative plus 1e-14 absolute.  With ``rng``,
    certify reads every factor times its own 10^U(-100, 100)."""
    want, want_groups = reference_certify(entries, tol)
    if rng is not None:
        entries = [[f * 10.0 ** rng.uniform(-100.0, 100.0) for f in entry] for entry in entries]
    got = certify(entries, tol)
    parties = [[entry[alpha] for entry in entries] for alpha in range(len(entries[0]))]
    assert [distinct_rays(LocalOperatorSet(p), tol).groups for p in parties] == want_groups
    for g, w in zip(got.parties, want.parties, strict=True):
        assert (g.party, g.generators, g.rays, g.skipped) == (w.party, w.generators, w.rays, w.skipped)
    if not well_posed:
        return
    assert (got.total, got.bound, got.verdict) == (want.total, want.bound, want.verdict)
    assert (got.note, got.warnings) == (want.note, want.warnings)
    for g, w in zip(got.parties, want.parties, strict=True):
        assert (g.extreme, g.nnls_solves) == (w.extreme, w.nnls_solves)
        assert (g.min_witness_bound is None) == (w.min_witness_bound is None)
        if w.min_witness_bound is not None:
            # The bound is -<Y, r_c> / ||Y||, a sum of O(1) terms: its rounding is
            # absolute, a few 1e-16 (seen: 4.3e-16), which for the smallest
            # bounds (down to the 1e-6 cut) is more than 1e-12 relative.
            gap = abs(g.min_witness_bound - w.min_witness_bound)
            assert gap <= 1e-12 * abs(w.min_witness_bound) + 1e-14


@settings(max_examples=60, deadline=None, database=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.sampled_from(KINDS), min_size=1, max_size=3),
    st.integers(2, 12),
    st.sampled_from([1e-8, 1e-6, 1e-3, 0.05]),
)
def test_certify_matches_the_reference_route(seed, kinds, r, tol):
    rng = np.random.default_rng(seed)
    parties = [party_factors(rng, kind, r, tol) for kind in kinds]
    entries = [[party[j] for party in parties] for j in range(r)]
    # Near-identity rays lie 0.5e-8 to 4e-8 apart, so at tol = 1e-8 they
    # stay separate classes whose NNLS columns differ only at 1e-8.  The
    # reference route's own residual digits, and so its warnings, then
    # move under a 1-ulp change of one input entry; only the well-posed
    # outputs are compared there.
    assert_matches_reference(entries, tol, well_posed=not (tol < 1e-6 and "near identity" in kinds))


# The nine (N, factorization) families of the certify_sweep benchmark.
SWEEP_FAMILIES = (
    (29, (4, 7)), (29, (2, 2, 7)), (37, (3, 3, 4)), (43, (2, 3, 7)), (53, (2, 2, 13)),
    (71, (5, 14)), (61, (2, 2, 3, 5)), (73, (2, 2, 2, 3, 3)), (101, (4, 5, 5)),
)
FAMILY_CASES = [(n, dims, 1) for n, dims in SWEEP_FAMILIES] + [(5, None, 2)]


@pytest.mark.parametrize("n, dims, copies", FAMILY_CASES)
def test_certify_families_match_the_reference_route(n, dims, copies):
    assert_matches_reference(family_product_ops(make_instance(n, dims), copies), RAY_TOL)


def test_positivity_at_the_tolerance_edge_follows_eigvalsh():
    # Factors at any scale whose smallest eigenvalue, over their Frobenius
    # norm, sits 0.1% inside or outside -PSD_INPUT_TOL, conjugated by random
    # unitaries: the Cholesky route must accept or reject each exactly where
    # eigvalsh does.
    rng = np.random.default_rng(2024)
    decisions = set()
    for _ in range(40):
        d = int(rng.integers(2, 9))
        factor = rng.choice([1.0 - 1e-3, 1.0 + 1e-3])
        rest = rng.uniform(0.0, 10.0 ** rng.uniform(-100, 100), size=d - 1)
        # c = -lambda_min / ||edge||, where ||edge||^2 = lambda_min^2 + |rest|^2.
        c = PSD_INPUT_TOL * factor
        values = np.r_[-c * np.linalg.norm(rest) / np.sqrt(1.0 - c * c), rest]
        u = random_unitary(rng, d)
        edge = (u * values) @ u.conj().T
        stack = [rand_psd(rng, d) for _ in range(3)] + [edge]
        rejects = eigvalsh_rejects(np.array(stack))
        assert rejects == (factor > 1.0)
        decisions.add(rejects)
        if rejects:
            with pytest.raises(ValueError, match="positive semidefinite"):
                LocalOperatorSet(stack)
        else:
            LocalOperatorSet(stack)
    assert decisions == {True, False}


def test_certify_decides_positivity_without_eigenvalues(monkeypatch):
    calls = []
    original = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    inst = make_instance(13)
    rep = certify(family_product_ops(inst))
    assert rep.verdict == "VIOLATES"
    assert calls == []

    # One indefinite factor still fails the Cholesky, and eigvalsh rejects it.
    entries = [list(entry) for entry in family_product_ops(inst)]
    entries[4][1] = entries[4][1] - 1e-6 * np.eye(len(entries[4][1]))
    with pytest.raises(ValueError, match="positive semidefinite"):
        certify(entries)
    assert calls


def test_certify_peak_memory_holds_one_stack_per_party():
    # Each party holds one (R, d, d) stack of unit forms, with no copy of
    # the raw operators beside it: on (71; 5, 14), whose d = 14 stack is
    # 218 KiB, the traced peak of certify is about 807 KiB (1025 KiB with
    # both stacks held).
    entries = family_product_ops(make_instance(71, (5, 14)))
    certify(entries)
    tracemalloc.start()
    try:
        certify(entries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 850 * 1024, peak


# certify on the benchmark's families and two copies of N = 5, pinned from
# the route that held the raw stack beside the unit forms: (total, bound,
# each party's least witness bound).  Every report there VIOLATES with no
# warning and no note, and every party counts its R generators as R rays,
# all extreme, none skipped and none left to NNLS.
PINNED_REPORTS = {
    (29, (4, 7), 1): (58, 56, (0.035111490689432624, 0.08588872603859213)),
    (29, (2, 2, 7), 1): (
        87, 56, (0.011827160748996028, 0.011827160748996025, 0.08588872603859213),
    ),
    (37, (3, 3, 4), 1): (
        111, 72, (0.013757741071913, 0.013757741071913031, 0.021275239180257755),
    ),
    (43, (2, 3, 7), 1): (
        129, 84, (0.005356782140362735, 0.010154737601671914, 0.036717515244317045),
    ),
    (53, (2, 2, 13), 1): (
        159, 104, (0.0035217897804662363, 0.003521789780466362, 0.06407493015548534),
    ),
    (71, (5, 14), 1): (142, 140, (0.007906412386725603, 0.038141197051932654)),
    (61, (2, 2, 3, 5), 1): (
        244, 120,
        (0.0026570943019222503, 0.002657094301922252, 0.005023551880848293, 0.010747387755618556),
    ),
    (73, (2, 2, 2, 3, 3), 1): (
        365, 144,
        (0.0018543415734935972, 0.001854341573493544, 0.001854341573493544,
         0.0035030550836789498, 0.0035030550836789498),
    ),
    (101, (4, 5, 5), 1): (
        303, 200, (0.0028012663898126402, 0.0038883156688963344, 0.0038883156688963344),
    ),
    (5, None, 2): (50, 48, (0.2915245845340475, 0.29152458453404767)),
}


@pytest.mark.parametrize("n, dims, copies", FAMILY_CASES)
def test_certify_families_match_the_pinned_reports(n, dims, copies):
    total, bound, bounds = PINNED_REPORTS[n, dims, copies]
    rep = certify(family_product_ops(make_instance(n, dims), copies))
    assert (rep.total, rep.bound, rep.verdict) == (total, bound, "VIOLATES")
    assert (rep.warnings, rep.note) == ((), "")
    r = n**copies
    for alpha, stat in enumerate(rep.parties):
        assert (stat.party, stat.generators, stat.rays, stat.extreme) == (alpha, r, r, r)
        assert (stat.skipped, stat.nnls_solves) == (False, 0)
    # The bound sums O(1) terms through BLAS: equal here, and within 1e-12
    # relative wherever another BLAS kernel rounds them differently.
    assert [s.min_witness_bound for s in rep.parties] == pytest.approx(bounds, rel=1e-12)
