"""Tests for the extreme-ray certificate against finite-round protocols."""

import numpy as np
import pytest

import usdsep.cone
from usdsep import (
    LocalOperatorSet,
    certify,
    count_extreme,
    distinct_rays,
    is_extreme,
    make_instance,
    multicopy_measurement,
    proj,
)
from usdsep.cone import RAY_TOL
from tests.test_instance import all_instances

pytest.importorskip("scipy")

from tests.lp_oracle import conic_representable_lp, rand_psd, random_operator_sets


def family_product_ops(inst):
    """Per-outcome product factors of the symmetric separable measurement."""
    scale = inst.total_dim / inst.n
    out = []
    for j in range(1, inst.n + 1):
        factors = []
        for alpha in range(inst.party.party_count):
            f = proj(inst.local_states[alpha][j - 1])
            if alpha == 0:
                f = scale * f
            factors.append(f)
        out.append(factors)
    return out


def test_distinct_rays_groups_by_positive_scale():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    s = LocalOperatorSet(party=0, ops=(a, 3.0 * a, b))
    rays = distinct_rays(s)
    assert rays.count == 2
    assert rays.groups == ((0, 1), (2,))
    assert rays.class_of(1) == 0
    with pytest.raises(ValueError):
        rays.class_of(5)


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
    rays = distinct_rays(LocalOperatorSet(party=0, ops=ops))
    groups, reps = first_match_rays(ops, RAY_TOL)
    assert rays.groups == groups == ((0, 2), (1, 4), (3, 5))
    assert len(rays.representatives) == len(reps)
    for got, want in zip(rays.representatives, reps):
        assert np.array_equal(got, want)
    assert [rays.class_of(i) for i in range(len(ops))] == [0, 1, 0, 2, 1, 2]


def test_count_extreme_vectorizes_each_class_once(monkeypatch):
    calls = []
    original = usdsep.cone.vec_herm

    def counting(h):
        calls.append(1)
        return original(h)

    monkeypatch.setattr(usdsep.cone, "vec_herm", counting)
    inst = make_instance(13)
    s = LocalOperatorSet(party=0, ops=tuple(proj(v) for v in inst.local_states[0]))
    count, rays, _ = count_extreme(s)
    assert count == rays.count == 13
    assert len(calls) == rays.count

    calls.clear()
    rep = certify(family_product_ops(inst))
    assert len(calls) == sum(p.rays for p in rep.parties) == 13 * inst.party.party_count


def test_distinct_rays_family_has_n_classes():
    inst = make_instance(5)
    ops = tuple(proj(v) for v in inst.local_states[0])
    rays = distinct_rays(LocalOperatorSet(party=0, ops=ops))
    assert rays.count == 5


def test_zero_operator_has_no_ray():
    z = np.zeros((2, 2), dtype=complex)
    a = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        distinct_rays(LocalOperatorSet(party=0, ops=(a, z)))


def test_operator_set_validation():
    with pytest.raises(ValueError):
        LocalOperatorSet(party=0, ops=())
    with pytest.raises(ValueError):
        LocalOperatorSet(
            party=0, ops=(np.eye(2, dtype=complex), np.eye(3, dtype=complex))
        )
    not_psd = np.diag([1.0, -0.2]).astype(complex)
    with pytest.raises(ValueError):
        LocalOperatorSet(party=0, ops=(not_psd,))


def test_rank_one_projectors_are_extreme():
    inst = make_instance(5)
    s = LocalOperatorSet(party=0, ops=tuple(proj(v) for v in inst.local_states[0]))
    for i in range(5):
        assert is_extreme(i, s)
    count, rays, residuals = count_extreme(s)
    assert count == rays.count == 5
    assert np.all(residuals > 1e-6)


def test_planted_combination_is_not_extreme():
    rng = np.random.default_rng(7)
    a = rand_psd(rng, 3, rank=1)
    b = rand_psd(rng, 3, rank=1)
    c = 0.4 * a + 0.6 * b
    s = LocalOperatorSet(party=0, ops=(a, b, c))
    assert is_extreme(0, s)
    assert is_extreme(1, s)
    assert not is_extreme(2, s)
    count, _, _ = count_extreme(s)
    assert count == 2


def test_lone_class_is_extreme():
    a = np.diag([1.0, 2.0]).astype(complex)
    s = LocalOperatorSet(party=0, ops=(a, 2.0 * a))
    count, rays, residuals = count_extreme(s)
    assert rays.count == 1 and count == 1
    assert np.isinf(residuals[0])


def test_certify_symmetric_family_violates():
    inst = make_instance(5)
    rep = certify(family_product_ops(inst), n_ops=5)
    assert rep.total == 10
    assert rep.bound == 8
    assert rep.verdict == "VIOLATES"
    assert all(s.extreme == 5 and not s.skipped for s in rep.parties)
    assert rep.warnings == ()


def test_certify_every_family_violates():
    for inst in all_instances():
        rep = certify(family_product_ops(inst), n_ops=inst.n)
        per_party = [s.extreme for s in rep.parties]
        assert per_party == [inst.n] * inst.party.party_count, (inst.n, inst.dims)
        assert rep.total == inst.n * inst.party.party_count
        assert rep.bound == 2 * (inst.n - 1)
        assert rep.verdict == "VIOLATES"


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
    mc = multicopy_measurement(make_instance(5), copies=2)
    rep = certify(mc.party_factors, n_ops=25)
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
    inst = make_instance(5)
    base = certify(family_product_ops(inst))
    rng = np.random.default_rng(12)

    scaled = []
    for entry in family_product_ops(inst):
        c = rng.uniform(0.5, 2.0, size=len(entry))
        scaled.append([ci * f for ci, f in zip(c, entry)])
    rep = certify(scaled)
    assert rep.total == base.total and rep.verdict == base.verdict

    perm = list(rng.permutation(5))
    shuffled = [family_product_ops(inst)[i] for i in perm]
    rep = certify(shuffled)
    assert rep.total == base.total and rep.verdict == base.verdict


def test_certify_duplicates_do_not_inflate_rays():
    inst = make_instance(5)
    entries = family_product_ops(inst)
    rep = certify(entries + [entries[0]], n_ops=6)
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
    # a ray class but never an extreme one, whichever way the flag is set.
    entries = [[e0, e0], [e1, e1], [eye, e0]]
    kept = certify(entries)
    assert [s.rays for s in kept.parties] == [3, 2]
    assert [s.extreme for s in kept.parties] == [2, 2]
    dropped = certify(entries, count_identity_generators=False)
    assert [s.rays for s in dropped.parties] == [2, 2]
    assert [s.extreme for s in dropped.parties] == [2, 2]
    assert [s.generators for s in dropped.parties] == [3, 3]

    # With only one projector beside it, the identity ray is extreme in the
    # party's cone, so the flag changes the counted total.
    entries = [[e0, e0], [eye, e1]]
    assert [s.extreme for s in certify(entries).parties] == [2, 2]
    assert [
        s.extreme
        for s in certify(entries, count_identity_generators=False).parties
    ] == [1, 2]


def test_certify_input_validation():
    eye = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        certify([])
    with pytest.raises(ValueError):
        certify([[eye, eye]], n_ops=3)
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
        s = LocalOperatorSet(party=0, ops=ops)
        count, rays, residuals = count_extreme(s)
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
