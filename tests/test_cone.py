"""Tests for the extreme-ray certificate against finite-round protocols."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import usdsep.cli
import usdsep.cone
from usdsep import (
    certify,
    family_product_ops,
    make_instance,
    nnls,
    proj,
    vec_herm,
)
from usdsep.cone import IDENTITY_RTOL, PSD_INPUT_TOL, RAY_TOL, WARN_BAND
from tests.locc_protocols import protocol_leaves
from tests.oracles import eigvalsh_rejects, reference_certify
from tests.test_cli import write_measurement
from tests.test_instance import all_instances
from tests.test_properties import instances

pytest.importorskip("scipy")

from tests.lp_oracle import conic_representable_lp, rand_psd, random_operator_sets


def party_stat(ops, tol=RAY_TOL):
    """certify's line for one party's factors alone."""
    return certify([[op] for op in ops], tol).parties[0]


def ray_classes(ops, tol=RAY_TOL):
    """One party's ray classes by certify's kernels: the groups, members ascending
    and in the order of their heads; the heads' unit forms, taken from ``ops``,
    and their vec_herm rows; and each class's witness bound."""
    rows = usdsep.cone._unit_rows(ops)
    head, bounds, _ = usdsep.cone._classes(rows, tol)
    groups = {}
    for i, h in enumerate(head.tolist()):
        groups.setdefault(h, []).append(i)
    units = np.stack([ops[h] / np.linalg.norm(ops[h]) for h in groups])
    return tuple(map(tuple, groups.values())), units, rows[head == np.arange(len(ops))], bounds


def class_of(groups, i):
    """The class holding operator i."""
    (c,) = [c for c, members in enumerate(groups) if i in members]
    return c


def extreme_per_operator(ops):
    """Whether each operator's ray class is extreme, by NNLS alone."""
    groups, _, coords, _ = ray_classes(ops)
    residuals = nnls_only_residuals(coords, RAY_TOL)
    return [bool(residuals[class_of(groups, i)] > RAY_TOL) for i in range(len(ops))]


def test_distinct_rays_groups_by_positive_scale():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    groups, reps, _, _ = ray_classes((a, 3.0 * a, b))
    assert groups == ((0, 1), (2,))
    assert class_of(groups, 1) == 0
    assert not any(5 in members for members in groups)
    assert np.array_equal(reps, np.stack([a, b]))
    stat = party_stat((a, 3.0 * a, b))
    assert (stat.generators, stat.rays, stat.extreme) == (3, 2, 2)


def test_validation_keeps_only_the_unit_rows():
    # A ray does not depend on scale, so the validation keeps the vec_herm
    # rows of the unit forms M / ||M||_F in place of the operators: one
    # read-only (R, d^2) float array.
    rng = np.random.default_rng(35)
    ops = [10.0 ** rng.uniform(-100, 100) * rand_psd(rng, 4) for _ in range(6)]
    rows = usdsep.cone._unit_rows(ops)
    assert rows.shape == (6, 16) and rows.dtype == float and not rows.flags.writeable
    assert np.max(np.abs(np.linalg.norm(rows, axis=1) - 1.0)) <= 1e-15
    for got, op in zip(rows, ops):
        assert np.allclose(got, vec_herm(op / np.linalg.norm(op)), rtol=0.0, atol=1e-15)


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
    groups, got_reps, _, _ = ray_classes(ops)
    want_groups, reps = first_match_rays(ops, RAY_TOL)
    assert groups == want_groups == ((0, 2), (1, 4), (3, 5))
    assert len(got_reps) == len(reps)
    for got, want in zip(got_reps, reps):
        assert np.array_equal(got, want)
    assert [class_of(groups, i) for i in range(len(ops))] == [0, 1, 0, 2, 1, 2]


def test_count_extreme_vectorizes_each_class_once(monkeypatch):
    calls = []
    original = usdsep.cone.vec_herm

    def counting(h):
        calls.append(np.shape(h))
        return original(h)

    monkeypatch.setattr(usdsep.cone, "vec_herm", counting)
    inst = make_instance(13)
    stat = party_stat([proj(v) for v in inst.local_states[0]])
    assert stat.rays == stat.extreme == 13
    # One call per party, on the stack of all its operators.
    assert calls == [(13, 2, 2)]

    calls.clear()
    rep = certify(family_product_ops(inst))
    assert sum(p.rays for p in rep.parties) == 13 * len(inst.dims)
    # One call per party, in party order.
    assert inst.dims == (2, 2, 3)
    assert calls == [(13, 2, 2), (13, 2, 2), (13, 3, 3)]


def test_distinct_rays_family_has_n_classes():
    inst = make_instance(5)
    ops = tuple(proj(v) for v in inst.local_states[0])
    assert party_stat(ops).rays == 5


def test_zero_operator_has_no_ray():
    z = np.zeros((2, 2), dtype=complex)
    a = np.eye(2, dtype=complex)
    with pytest.raises(ValueError, match="zero operator has no ray"):
        party_stat((a, z))


def test_operator_set_validation():
    with pytest.raises(ValueError, match="need at least one product operator"):
        certify([])
    with pytest.raises(ValueError):
        party_stat((np.eye(2, dtype=complex), np.eye(3, dtype=complex)))
    not_psd = np.diag([1.0, -0.2]).astype(complex)
    with pytest.raises(ValueError):
        party_stat((not_psd,))
    for value in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            party_stat((np.eye(2), np.diag([1.0, value]).astype(complex)))
    # Zero-size operators name no dimension at all.
    empty = np.zeros((0, 0))
    with pytest.raises(ValueError, match="one square dimension"):
        party_stat((empty, empty))
    with pytest.raises(ValueError, match="one square dimension"):
        certify([[empty, empty]])
    with pytest.raises(ValueError, match="product operators need at least one factor"):
        certify([[]])


def test_a_ragged_factor_is_refused_on_stacking():
    # A nested list whose rows differ in length gives a pass no size to be
    # admitted by; it is refused where the stack is built, before any array.
    with pytest.raises(ValueError, match="one square dimension"):
        certify([[[[1.0, 0.0], [0.0]], np.eye(2)]])


def test_operator_set_rejects_norms_that_overflow():
    # Entries near 1e160 are finite, but their squares are not: the set is
    # refused for that, before any positivity test, rank-1 or full rank.
    rank_one = [1e160 * proj(v) for v in make_instance(5).local_states[0]]
    full_rank = [1e160 * np.diag([1.0, t]).astype(complex) for t in (0.5, 1.0, 2.0)]
    for ops in (rank_one, full_rank):
        with pytest.raises(ValueError, match="squared Frobenius norm overflows"):
            party_stat(ops)
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
        party_stat((np.eye(2), np.zeros((2, 2)), 1e-160 * np.eye(2)))
    assert party_stat((1e-150 * np.eye(2), np.eye(2))).rays == 1


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
    party_stat(good)
    bad = np.diag([1.0, -1e-6]).astype(complex)
    with pytest.raises(ValueError, match="positive semidefinite"):
        party_stat(good[:7] + (bad,) + good[7:])
    with pytest.raises(ValueError, match="one square dimension"):
        party_stat(good + (np.eye(2, 3, dtype=complex),))


def test_rank_one_projectors_are_extreme():
    inst = make_instance(5)
    ops = tuple(proj(v) for v in inst.local_states[0])
    assert extreme_per_operator(ops) == [True] * 5
    # The witness decides every class, with a bound past the warning band.
    stat = party_stat(ops)
    assert (stat.rays, stat.extreme, stat.nnls_solves) == (5, 5, 0)
    assert stat.min_witness_bound > 1e-6


def test_planted_combination_is_not_extreme():
    rng = np.random.default_rng(7)
    a = rand_psd(rng, 3, rank=1)
    b = rand_psd(rng, 3, rank=1)
    c = 0.4 * a + 0.6 * b
    assert extreme_per_operator((a, b, c)) == [True, True, False]
    assert ray_classes((a, b, c))[0] == ((0,), (1,), (2,))
    # No witness can prove c extreme, so NNLS decides it.
    stat = party_stat((a, b, c))
    assert (stat.rays, stat.extreme, stat.nnls_solves) == (3, 2, 1)


def test_lone_class_is_extreme():
    a = np.diag([1.0, 2.0]).astype(complex)
    assert np.isinf(ray_classes((a, 2.0 * a))[3]).all()
    stat = party_stat((a, 2.0 * a))
    assert (stat.rays, stat.extreme, stat.nnls_solves) == (1, 1, 0)
    assert stat.min_witness_bound is None


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


@settings(max_examples=100, deadline=None, database=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(2, 4), min_size=2, max_size=4),
    st.lists(st.integers(2, 3), max_size=4),
    st.booleans(),
)
def test_random_finite_round_protocols_satisfy_the_bound(seed, dims, outcomes, final_bases):
    # The inequality of cone.py's docstring, sum_alpha e_alpha <= 2 (N - 1),
    # holds for the N leaves of every finite-round protocol, so a VIOLATES
    # here would be a false alarm.  A party that has stopped acting keeps
    # one factor across many leaves, so most passes run the ray screen's
    # confirmations.  Final bases run only up to 600 leaves.
    final_bases = final_bases and math.prod(outcomes) * math.prod(dims) <= 600
    rep = certify(protocol_leaves(np.random.default_rng(seed), dims, outcomes, final_bases))
    assert (rep.verdict, rep.total <= rep.bound) == ("SATISFIES", True), (rep.total, rep.bound)


def report_counts(rep):
    """Everything of a report but the witness bounds."""
    stats = [(s.generators, s.rays, s.extreme, s.skipped, s.nnls_solves) for s in rep.parties]
    return rep.total, rep.bound, rep.verdict, rep.warnings, stats


@settings(max_examples=20, deadline=None, database=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(2, 4), min_size=2, max_size=4),
    st.lists(st.integers(2, 3), max_size=4),
    st.booleans(),
)
def test_a_protocol_report_keeps_under_scaling_and_repeated_leaves(seed, dims, outcomes, final_bases):
    # A ray does not depend on scale: every factor scaled on its own over
    # +-100 decades leaves the report as it was, its witness bounds within
    # 1e-9 relative.  A repeated leaf, exact or with one factor moved by a
    # PSD term of 0.05 RAY_TOL of its norm, joins the classes its copy
    # heads: every party's rays and extreme rays stay, and the bound grows
    # by 2.
    rng = np.random.default_rng(seed)
    final_bases = final_bases and math.prod(outcomes) * math.prod(dims) <= 600
    leaves = protocol_leaves(rng, dims, outcomes, final_bases)
    base = certify(leaves)
    scaled = certify([[f * 10.0 ** rng.uniform(-100.0, 100.0) for f in leaf] for leaf in leaves])
    assert report_counts(scaled) == report_counts(base)
    for got, want in zip(scaled.parties, base.parties, strict=True):
        assert (got.min_witness_bound is None) == (want.min_witness_bound is None)
        if want.min_witness_bound is not None:
            assert got.min_witness_bound == pytest.approx(want.min_witness_bound, rel=1e-9)
    j, alpha = int(rng.integers(len(leaves))), int(rng.integers(len(dims)))
    moved = list(leaves[j])
    moved[alpha] = moved[alpha] + 0.05 * RAY_TOL * np.linalg.norm(moved[alpha]) * rand_psd(rng, dims[alpha], 1)
    for extra in (leaves[j], moved):
        rep = certify(leaves + [extra])
        assert [(s.rays, s.extreme) for s in rep.parties] == [(s.rays, s.extreme) for s in base.parties]
        assert rep.bound == base.bound + 2


@pytest.mark.parametrize("n", range(2, 7))
def test_sequential_adaptive_bases_meet_the_bound(n):
    # n qubits measured in turn, each in a basis drawn for the outcomes
    # before it: qubit k holds 2^k rank-1 rays, all extreme, and the total
    # 2 + 4 + ... + 2^n = 2 (2^n - 1) meets the bound for N = 2^n exactly,
    # so one over-counted ray fails.
    rep = certify(protocol_leaves(np.random.default_rng(n), [2] * n, [], final_bases=True))
    assert [s.extreme for s in rep.parties] == [2**k for k in range(1, n + 1)]
    assert rep.total == rep.bound == 2 * (2**n - 1)
    assert rep.verdict == "SATISFIES"


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
        _, reps, coords, bounds = ray_classes(ops)
        residuals = nnls_only_residuals(coords, RAY_TOL)
        witnessed = bounds > max(RAY_TOL, WARN_BAND[1])
        lp = []
        for c in range(len(reps)):
            others = [reps[k] for k in range(len(reps)) if k != c]
            lp_extreme = not others or not conic_representable_lp(reps[c], others)
            # NNLS decides as the LP does, and a checked witness only ever
            # proves an extreme class.
            assert (residuals[c] > 1e-8) == lp_extreme, (cases, c)
            assert lp_extreme or not witnessed[c], (cases, c)
            lp.append(lp_extreme)
            cases += 1
        assert party_stat(ops).extreme == sum(lp)
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
    groups, got_reps, coords, _ = ray_classes(ops, tol)
    want_groups, reps = first_match_rays(ops, tol)
    assert groups == want_groups
    assert len(got_reps) == len(reps)
    np.testing.assert_allclose(got_reps, np.stack(reps), rtol=0, atol=1e-15)
    np.testing.assert_allclose(coords, vec_herm(got_reps), rtol=0, atol=1e-15)


def nnls_only_residuals(coords, tol):
    """Reference: every class decided by NNLS over the columns of its representatives'
    vec_herm rows."""
    v = coords.T
    residuals = np.full(len(coords), np.inf)
    if len(coords) > 1:
        for c in range(len(coords)):
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
    kind = draw(st.sampled_from(["family", "rank one", "rank > 1", "near identity", "lp oracle", "fixed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind in ("rank > 1", "near identity"):
        return tuple(party_factors(rng, kind, int(rng.integers(2, 10)), RAY_TOL))
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
    _, _, coords, bounds = ray_classes(ops, tol)
    reference = nnls_only_residuals(coords, tol)
    lo, hi = WARN_BAND
    # The witness decides where its bound clears both cuts; that bound stays
    # below the NNLS residual, up to rounding, so NNLS decides those classes
    # alike.  A lone class is decided by its infinite bound.
    decided = bounds > max(tol, hi)
    assert np.all(bounds[decided] <= reference[decided] + 1e-12)
    assert np.all(reference[decided] > max(tol, hi))
    # certify's line and warnings are then the NNLS-only ones.
    rep = certify([[op] for op in ops], tol)
    (stat,) = rep.parties
    assert stat.extreme == np.count_nonzero(reference > tol)
    assert stat.nnls_solves == np.count_nonzero(~decided)
    proven = bounds[decided & (bounds < np.inf)]
    assert stat.min_witness_bound == (proven.min() if proven.size else None)
    assert list(rep.warnings) == [
        f"party 0 ray class {c}: NNLS residual {reference[c]:.3e} is borderline"
        for c in np.flatnonzero((lo <= reference) & (reference <= hi))
    ]


def random_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def party_factors(rng, kind, r, tol, d=None):
    """r factors of one party of dimension d, drawn from 1 to 14 unless given: near-duplicate
    rays at the tolerance edge, near-identity factors, rank > 1 factors or rank-1 ones, each
    at a random positive scale.  At d = 1 every factor is a positive number: one ray, the
    identity."""
    d = int(rng.integers(1, 15)) if d is None else d
    if kind == "near duplicates":
        planted = planted_rays(rng, tol, max(d, 2))
        ops = [planted[k % len(planted)] for k in range(r)]
    elif kind == "near identity":
        # Off the identity by 0.5 or 2 times IDENTITY_RTOL relative: skipped or not.
        ops = []
        for _ in range(r):
            h = random_traceless(rng, d) if d > 1 else 0.0
            gap = rng.choice([0.5, 2.0]) * IDENTITY_RTOL * np.sqrt(d)
            ops.append(np.eye(d) + gap * h)
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
    assert [ray_classes(p, tol)[0] for p in parties] == want_groups
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
    st.booleans(),
)
def test_certify_matches_the_reference_route(seed, kinds, r, tol, shared):
    # With ``shared`` every party has one dimension from 2 to 14, so two or
    # three parties of mixed kinds give passes of one shape.
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 15)) if shared else None
    parties = [party_factors(rng, kind, r, tol, d) for kind in kinds]
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


def one_party_error(factors):
    """The message certify raises for these factors as its one party."""
    with pytest.raises(ValueError) as info:
        party_stat(factors)
    return str(info.value)


# Two factors of dimension d, refused at different stages: the
# stacking, the norms, vec_herm's asymmetry check and the positivity test.
INVALID = {
    "ragged": lambda d: [np.eye(d), np.eye(d + 1)],
    "zero": lambda d: [np.eye(d), np.zeros((d, d))],
    "indefinite": lambda d: [np.eye(d), np.diag([1.0] * (d - 1) + [-0.5])],
    "not Hermitian": lambda d: [np.eye(d), np.eye(d) + np.triu(np.ones((d, d)), 1) * 0.1],
}


@pytest.mark.parametrize(
    "early, late",
    [("ragged", "not Hermitian"), ("zero", "not Hermitian"), ("indefinite", "not Hermitian"),
     ("ragged", "indefinite"), ("zero", "indefinite"), ("not Hermitian", "indefinite")],
)
@pytest.mark.parametrize("dims", [(2, 3, 2), (3, 2, 2)])
def test_certify_raises_the_lowest_invalid_partys_error(dims, early, late):
    # Party 1 and party 2 fail different checks, party 1 the later one
    # except in ("indefinite", "not Hermitian"); with dims (2, 3, 2) they
    # have different dimensions, with (3, 2, 2) one.  Either way party 1's
    # own error is raised.
    parties = [
        [np.eye(dims[0])] * 2,
        INVALID[late](dims[1]),
        INVALID[early](dims[2]),
    ]
    entries = [[party[j] for party in parties] for j in range(2)]
    want = one_party_error(parties[1])
    assert want != one_party_error(parties[2])
    with pytest.raises(ValueError) as info:
        certify(entries)
    assert str(info.value) == want


def test_the_first_failing_party_raises_from_its_own_pass(monkeypatch):
    # Three parties of one dimension: party 0 valid, party 1 indefinite and
    # party 2 not Hermitian.  Each party runs one pass, in party order, so
    # party 1's pass raises, and party 2's is never built.
    calls = []
    unit_rows = usdsep.cone._unit_rows
    monkeypatch.setattr(usdsep.cone, "_unit_rows", lambda factors: calls.append(1) or unit_rows(factors))
    parties = [[np.eye(2)] * 2, INVALID["indefinite"](2), INVALID["not Hermitian"](2)]
    with pytest.raises(ValueError, match="positive semidefinite"):
        certify([[party[j] for party in parties] for j in range(2)])
    assert len(calls) == 2


def test_each_party_of_a_family_is_proved_positive_by_its_own_cholesky(monkeypatch):
    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a.shape) or cholesky(a))
    rep = certify(family_product_ops(make_instance(73, [2, 2, 2, 3, 3])))
    assert [s.extreme for s in rep.parties] == [73] * 5
    assert calls == [(73, d, d) for d in (2, 2, 2, 3, 3)]


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
                party_stat(stack)
        else:
            party_stat(stack)
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


def test_an_asymmetric_indefinite_factor_is_refused_as_not_hermitian():
    # vec_herm's asymmetry check runs before the positivity proof, whose
    # Cholesky reads only the lower triangle: a factor failing both is
    # refused for its asymmetry, alone or beside another party.
    for d in (2, 3):
        factor = np.diag([1.0] * (d - 1) + [-0.5]) + np.triu(np.ones((d, d)), 1) * 0.1
        assert eigvalsh_rejects(np.array([factor]))
        with pytest.raises(ValueError, match="not Hermitian"):
            party_stat([np.eye(d), factor])
        with pytest.raises(ValueError, match="not Hermitian"):
            certify([[np.eye(d), np.eye(d)], [np.eye(d), factor]])


def test_certify_leaves_the_callers_factors_unchanged(monkeypatch):
    # The Cholesky shifts the diagonal of the pass's own unit stack, never
    # the caller's arrays: they stay bit-identical when the Cholesky
    # completes, and when it fails and eigvalsh accepts or refuses.
    calls = []
    original = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    family = [list(entry) for entry in family_product_ops(make_instance(13))]
    # lambda_min / ||M||_F at 0.999 and 1.001 of -PSD_INPUT_TOL: inside the
    # tolerance, but past what the shifted Cholesky can prove.
    edge = [np.diag([1.0, -PSD_INPUT_TOL * factor]) for factor in (0.999, 1.001)]
    cases = ((family, True), ([[edge[0]], [np.eye(2)]], True), ([[edge[1]], [np.eye(2)]], False))
    for entries, accepted in cases:
        before = [[f.copy() for f in entry] for entry in entries]
        calls.clear()
        if accepted:
            certify(entries)
        else:
            with pytest.raises(ValueError, match="positive semidefinite"):
                certify(entries)
        assert bool(calls) == (entries is not family)
        for got, want in zip(entries, before):
            for f, g in zip(got, want):
                assert f.dtype == g.dtype and f.tobytes() == g.tobytes()


@pytest.mark.parametrize("move, refused", [(1e-13, False), (1e-11, True)])
def test_the_positivity_proof_reads_the_lower_triangle(move, refused):
    # One family factor's strict upper triangle moved by ``move`` of its
    # norm: inside vec_herm's asymmetry check (1e-12 of the norm) the
    # report keeps its counts, verdict and warnings; past it the factor is
    # refused as not Hermitian.
    entries = [list(entry) for entry in family_product_ops(make_instance(13))]
    want = certify(entries)
    factor = entries[4][2]
    rng = np.random.default_rng(44)
    upper = np.triu(rng.normal(size=factor.shape) + 1j * rng.normal(size=factor.shape), 1)
    entries[4][2] = factor + upper * (move * np.linalg.norm(factor) / np.linalg.norm(upper))
    if refused:
        with pytest.raises(ValueError, match="not Hermitian"):
            certify(entries)
        return

    def summary(rep):
        return rep.total, rep.verdict, rep.warnings, [(s.rays, s.extreme, s.skipped) for s in rep.parties]

    assert summary(certify(entries)) == summary(want)


def test_certify_peak_memory_holds_one_stack_per_party():
    # Each party keeps only the (R, d^2) vec_herm rows of its unit forms,
    # with no copy of the raw operators beside them: on (71; 5, 14), whose
    # d = 14 complex stack is 218 KiB, the traced peak of certify was about
    # 807 KiB holding the unit stack, 1025 KiB with both stacks held, and is
    # about 666 KiB.
    entries = family_product_ops(make_instance(71, (5, 14)))
    certify(entries)
    tracemalloc.start()
    try:
        certify(entries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 850 * 1024, peak


def test_certify_peak_memory_at_n_1009_holds_one_party_at_a_time():
    # Each party of the default family at N = 1009 (dims 2, 2, 2, 2, 3, 3,
    # 7) runs its own pass, one after another.  The traced peak was 10,389,121 B when certify ran party by
    # party, 10,162,385 B in passes, 10,048,849 B with the rank-1 witness
    # route and 9,612,569 B once the witness made no checking product,
    # 9,725,889 B with the witness's norm summed as squares of its
    # (R, d) diagonal, 8,934,793 B once a pass kept only the vec_herm rows
    # after validation, and is 9,024,209 B now that the identity test runs
    # while the Gram buffer is held; the pin is the first plus 5%.
    entries = family_product_ops(make_instance(1009))
    certify(entries)
    tracemalloc.start()
    try:
        certify(entries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * 10_389_121, peak


def test_certify_peak_memory_of_a_rank_two_party_at_n_1009():
    # Factors P_j + 0.1 P_(j+1) on the d = 7 party of the N = 1009 family:
    # 1009 rank-2 classes, all decided by the witness I - t r_c, whose
    # overlaps are the ray screen's Gram buffer over the traces, so the
    # pass holds one (R, R) array, 8.1 MB.  The traced peak was 10,062,777 B
    # when the witness allocated its own (R, R) array after the screen's
    # was freed, 10,240,577 B with a power-iteration guess writing into the
    # screen's buffer, 9,626,353 B holding the unit stack through the pass,
    # 8,835,201 B, and is 8,924,537 B with the identity test run while the
    # Gram buffer is held; the pin is the first plus 5%,
    # and a pass holding both arrays peaks at 18,094,033 B.
    states = make_instance(1009).local_states[6]
    entries = [[proj(states[j]) + 0.1 * proj(states[(j + 1) % 1009])] for j in range(1009)]
    stat = certify(entries).parties[0]
    assert (stat.rays, stat.extreme, stat.nnls_solves) == (1009, 1009, 0)
    tracemalloc.start()
    try:
        certify(entries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * 10_062_777, peak


def pass_estimates_and_peaks(entries):
    """(estimate, traced peak) of each party's certify pass over these product operators,
    checked: the estimate is never under the peak, and at most 1.4 times it
    on a pass past 1 MiB, 2.5 times on a smaller one."""
    found = []
    for alpha, factors in enumerate(zip(*entries)):
        usdsep.cone._party_line(alpha, factors, RAY_TOL)
        tracemalloc.start()
        try:
            usdsep.cone._party_line(alpha, factors, RAY_TOL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        found.append((usdsep.cone._pass_bytes(len(factors), factors[0].size), peak))
    assert found
    for estimate, peak in found:
        # Past 1 MiB the arrays dominate; below it, 8 KiB and the ufuncs' buffers weigh.
        assert peak <= estimate <= (1.4 if peak > 2**20 else 2.5) * peak, (estimate, peak)
    return found


def read_measurement(tmp_path, entries):
    """The product operators of a measurement file written from ``entries``."""
    path = tmp_path / "meas.json"
    write_measurement(path, entries)
    return usdsep.cli._product_ops_from_file(str(path))


@pytest.mark.parametrize("n, dims, copies", [(1009, None, 1), (71, (5, 14), 1), (5, None, 2)])
def test_pass_estimate_bounds_the_traced_peak_of_each_family_pass(n, dims, copies):
    # The estimate that admits a pass against its traced peak: 1.29-1.34
    # times it on the seven 8 MB passes at N = 1009, 2.23 and 1.11 on
    # (71; 5, 14), 1.98 on each two-copy party's pass.
    pass_estimates_and_peaks(family_product_ops(make_instance(n, dims), copies))


@pytest.mark.parametrize("fallback", [False, True], ids=["cholesky", "eigvalsh"])
def test_pass_estimate_bounds_the_traced_peak_of_a_measurement_file(tmp_path, monkeypatch, fallback):
    # The N = 101 family (dims 2, 2, 5, 5) read from a file, one array per
    # factor.  With one d = 5 factor at lambda_min = -0.999 PSD_INPUT_TOL
    # its Cholesky fails and eigvalsh decides that pass, on the unit stack
    # itself: 1.84 and 1.99 times the peak on the Cholesky route, and 1.99
    # on the d = 5 pass where eigvalsh runs.
    entries = [list(entry) for entry in family_product_ops(make_instance(101))]
    if fallback:
        state = make_instance(101).local_states[2][7]
        other = np.eye(5)[0] - state.conj()[0] * state
        entries[7][2] = proj(state) - 0.999 * PSD_INPUT_TOL * proj(other / np.linalg.norm(other))
    eigvalsh, calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    pass_estimates_and_peaks(read_measurement(tmp_path, entries))
    assert calls == ([(101, 5, 5)] * 2 if fallback else [])


def test_pass_estimate_bounds_the_traced_peak_of_a_measurement_of_repeated_rays():
    # 600 outcomes cycling 3 rank-1 d = 2 rays and 5 rank-1 d = 3 rays at
    # random positive scales: nearly every Gram entry passes the ray screen.
    # Read row by row, the passes peak at 2.84 and 2.88 MiB against estimates
    # of 3.80 and 3.87 MiB.  A screen that lists its passing pairs in int64
    # arrays takes the d = 2 pass to 5.39 MiB, past its estimate.
    rng = np.random.default_rng(27)
    rays = [rand_psd(rng, d, 1) for d in (2, 2, 2, 3, 3, 3, 3, 3)]
    scales = rng.uniform(0.1, 10.0, size=(600, 2))
    entries = [[a * rays[j % 3], b * rays[3 + j % 5]] for j, (a, b) in enumerate(scales)]
    assert [stat.rays for stat in certify(entries).parties] == [3, 5]
    pass_estimates_and_peaks(entries)


def rank_two_passes(d, r, fallback=False):
    """One party's r random rank-2 factors of dimension d; with ``fallback``,
    factor 0 has lambda_min = -0.999 PSD_INPUT_TOL, so eigvalsh decides."""
    rng = np.random.default_rng(d * r)
    factors = [rand_psd(rng, d, 2) for _ in range(r)]
    if fallback:
        v = np.linalg.eigh(factors[0])[1][:, 0]  # a null vector of the rank-2 factor
        factors[0] = factors[0] - 0.999 * PSD_INPUT_TOL * proj(v)
    return [[f] for f in factors]


@pytest.mark.parametrize(
    "d, r, fallback",
    [(d, r, False) for d in (30, 40, 60) for r in (10, 20, 50)] + [(60, 20, True), (100, 8, True)],
)
def test_pass_estimate_is_tight_on_few_large_factors(monkeypatch, d, r, fallback):
    # Where 32 d^2 > 10 R + 16 d^2 the estimate counts one complex stack
    # beside the Cholesky's output, and the eigvalsh fallback writes the
    # Hermitian part into that stack, so no pass sits more than 1.15 times
    # above its traced peak: 1.02-1.11 on the Cholesky route and 1.03-1.05
    # where eigvalsh decides (1.40-1.42 and 1.34-1.35 while the estimate
    # counted the fallback's two copies of the stack).
    eigvalsh, calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    ((estimate, peak),) = pass_estimates_and_peaks(rank_two_passes(d, r, fallback))
    assert calls == ([(r, d, d)] * 2 if fallback else [])
    assert estimate <= 1.15 * peak, (estimate, peak)


def test_one_outcome_of_many_one_dimensional_parties():
    # 64 parties of dimension 1 run 64 passes of one factor each: every
    # party has one ray, extreme in its cone, and acts trivially.
    rep = certify([[np.eye(1)] * 64])
    assert [(s.party, s.rays, s.extreme, s.skipped) for s in rep.parties] == [
        (alpha, 1, 1, True) for alpha in range(64)
    ]
    assert (rep.total, rep.bound, rep.verdict) == (0, 0, "SATISFIES")


N13_BOUNDS = (0.060639538095576366, 0.060639538095576324, 0.12086228543774243)


def test_rank_one_passes_run_no_power_iteration():
    # Every factor of these families is rank 1, and each class's witness is
    # I - t r_c, as for every other factor: the reports are the ones the
    # rank-1 route gave.
    rep = certify(family_product_ops(make_instance(13)))
    assert (rep.total, rep.bound, rep.verdict, rep.warnings) == (39, 24, "VIOLATES", ())
    assert [(s.rays, s.extreme, s.nnls_solves) for s in rep.parties] == [(13, 13, 0)] * 3
    assert [s.min_witness_bound for s in rep.parties] == pytest.approx(N13_BOUNDS, rel=1e-12)
    total, bound, bounds = PINNED_REPORTS[5, None, 2]
    rep = certify(family_product_ops(make_instance(5), 2))
    assert (rep.total, rep.bound, rep.verdict) == (total, bound, "VIOLATES")
    assert [s.nnls_solves for s in rep.parties] == [0, 0]
    assert [s.min_witness_bound for s in rep.parties] == pytest.approx(bounds, rel=1e-12)


def n13_with_a_rank_two_factor():
    """The N = 13 family with outcome 4's party-1 factor made rank 2."""
    entries = [list(entry) for entry in family_product_ops(make_instance(13))]
    entries[4][1] = entries[4][1] + 0.5 * entries[5][1]
    return entries


def test_a_rank_two_factor_keeps_its_report():
    # One rank-2 factor on party 1 at N = 13: its pass takes the same witness
    # as the rank-1 passes, and the report is the one the power-iteration
    # guess gave.
    rep = certify(n13_with_a_rank_two_factor())
    assert (rep.total, rep.bound, rep.verdict, rep.warnings) == (38, 24, "VIOLATES", ())
    assert [(s.rays, s.extreme, s.nnls_solves) for s in rep.parties] == [
        (13, 13, 0), (13, 12, 1), (13, 13, 0)
    ]
    assert [s.min_witness_bound for s in rep.parties] == pytest.approx(N13_BOUNDS, rel=1e-12)


def test_the_witness_makes_no_checking_product(monkeypatch):
    # Its inequalities hold by the choice of t_c, so every pass, the one
    # with a rank-2 factor too, reads its overlaps from the screen's Gram
    # and calls np.matmul never.
    calls, matmul = [], np.matmul

    def counting(a, b, *args, **kwargs):
        calls.append((a.shape, b.shape))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", counting)
    certify(family_product_ops(make_instance(13)))
    certify(family_product_ops(make_instance(5), 2))
    certify(n13_with_a_rank_two_factor())
    assert calls == []


def test_rank_two_sets_leave_no_more_classes_to_nnls():
    # 200 seeded sets of 3 to 12 rank-2 factors of dimension 2 to 7.  Each
    # class's witness is I - t r_c: the sets count the same 1477 extreme
    # rays as with the power-iteration guess, and the witness leaves 51
    # classes to NNLS where that guess left 74.
    rng = np.random.default_rng(2024)
    solves = extreme = 0
    for _ in range(200):
        d, r = int(rng.integers(2, 8)), int(rng.integers(3, 13))
        (stat,) = certify([[rand_psd(rng, d, rank=2)] for _ in range(r)]).parties
        solves += stat.nnls_solves
        extreme += stat.extreme
    assert extreme == 1477
    assert solves <= 51, solves


def test_the_witness_norm_keeps_its_digits_near_the_identity():
    # A factor about 1e-9 from the identity beside two that lie on one side
    # of it, (I - 0.06 H +- 0.15 K) for traceless unit H and K: its class is
    # 0.03 from their cone, not extreme at tol 0.05.  ||I - t r||^2 as a
    # completed square, d - (Tr r)^2 / ||r||^2 + ..., loses its first term
    # to rounding here, and clamped at 0 it gave that class a bound of
    # about 1 in 371 of 400 such draws.
    rng = np.random.default_rng(5)
    for _ in range(20):
        h, k = (random_traceless(rng, 4) for _ in range(2))
        k -= np.vdot(h, k).real * h
        k /= np.linalg.norm(k)
        eye = np.eye(4)
        ops = (eye + rng.uniform(0.5, 2.0) * 1e-9 * h, eye - 0.06 * h + 0.15 * k, eye - 0.06 * h - 0.15 * k)
        _, _, coords, bounds = ray_classes(ops, 0.05)
        residuals = nnls_only_residuals(coords, 0.05)
        assert residuals[0] < 0.05 < residuals[1:].min()
        assert np.all(bounds <= residuals + 1e-12), (bounds, residuals)
        stat = party_stat(ops, 0.05)
        assert (stat.rays, stat.extreme) == (3, 2)


def test_the_warning_band_goes_to_nnls_where_the_witness_is_loose():
    # Rank-1 d = 2 rays at Bloch angles -phi, 0 and phi, phi = 1e-3: every
    # witness bound is 2.5e-7, inside the warning band, but NNLS finds
    # 7.07e-4, 2.5e-7 and 7.07e-4.  A dispatch cut at tol alone would take
    # all three classes from the witness and drop the middle one's warning.
    phi = 1e-3
    ops = [proj([np.cos(a / 2.0), np.sin(a / 2.0)]) for a in (-phi, 0.0, phi)]
    _, _, coords, bounds = ray_classes(ops)
    np.testing.assert_allclose(bounds, 2.5e-7, rtol=1e-5)
    np.testing.assert_allclose(nnls_only_residuals(coords, RAY_TOL), [7.07107e-4, 2.5e-7, 7.07107e-4], rtol=1e-5)
    rep = certify([[op] for op in ops])
    stat = rep.parties[0]
    assert (stat.rays, stat.extreme, stat.nnls_solves, stat.min_witness_bound) == (3, 3, 3, None)
    assert rep.warnings == ("party 0 ray class 1: NNLS residual 2.500e-07 is borderline",)


def random_traceless(rng, d):
    """A random traceless Hermitian d x d matrix of unit Frobenius norm."""
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (h + h.conj().T) / 2.0
    h -= np.trace(h).real / d * np.eye(d)
    return h / np.linalg.norm(h)


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
