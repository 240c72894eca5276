"""Tests for the product-state family construction and its dual structures."""

import dataclasses
import io
import math
import sys
import tracemalloc
import types

import numpy as np
import pytest

import usdsep.instance
from usdsep import (
    SimConfig,
    ascending_factorizations,
    complement_decomposition,
    family_product_ops,
    instance_from_dict,
    instance_to_dict,
    is_prime,
    make_instance,
    multicopy_measurement,
    prime_factors,
    proj,
    reciprocal_set,
)
from usdsep.numerics import bound
from tests.oracles import (
    DENSE_ROUNDING,
    closed_form_duals,
    dense_born_table,
    dense_completeness_residual,
    dense_dual_residuals,
    dense_reciprocal_residuals,
    derived_bound,
    mod_gather_family,
    residuals_agree,
    two_cell_table,
)

PRIMES = (5, 7, 11, 13)


def all_instances():
    """Every ascending factorization with at least two parties, plus defaults."""
    out = []
    for n in PRIMES:
        for dims in ascending_factorizations(n - 1):
            if len(dims) >= 2:
                out.append(make_instance(n, dims))
    return out


def test_exponents_are_the_read_only_permutation_the_states_are_read_with():
    for inst in all_instances() + [make_instance(211, (2, 3, 5, 7), 17)]:
        n, d, e = inst.n, inst.total_dim, inst.exponents
        assert e.shape == (d,)
        assert not e.flags.writeable
        assert np.array_equal(np.sort(e), np.arange(d))
        roots = np.exp(2j * np.pi * np.arange(n) / n)
        js = np.arange(1, n + 1)[:, None]
        assert np.array_equal(inst.states, roots[(js * e) % n] / np.sqrt(d))


def test_log_tables_of_every_prime_below_20000():
    # The "log tables" row audits one power cycle.  Exact integer checks,
    # each cycle built afresh rather than read from the cache.
    errors = usdsep.instance._cycle_errors
    for n in (p for p in range(5, 20_000) if is_prime(p)):
        pw = usdsep.instance._power_cycle(n)
        assert len(pw) == n - 1
        assert np.array_equal(np.sort(pw), np.arange(1, n)), n
        assert pw[0] == 1 and np.array_equal(pw[1:], pw[1] * pw[:-1] % n), n
        assert errors(pw) == 0, n
        # The cycle of g^2 keeps the recurrence; only its order, (N - 1) / 2, is caught.
        assert errors(pw**2 % n) == 1, n


def test_a_family_whose_reads_pass_int64_is_refused_before_any_allocation():
    # A read's index j e is below N^2, so N^2 must stay below 2^63; the
    # least prime past that bound is refused before any table exists.
    n = 3037000507
    assert is_prime(n) and (n - 8) ** 2 < 2**63 <= n * n
    usdsep.instance._table.cache_clear()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"n = {n} is too large for its tables"):
            make_instance(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16, peak
    assert not usdsep.instance._table.records


def test_reads_match_the_mod_gather_bit_for_bit():
    for n in (p for p in range(5, 402) if is_prime(p)):
        for dims in ascending_factorizations(n - 1):
            inst = make_instance(n, dims)
            states, local = mod_gather_family(inst)
            assert inst.states.tobytes() == states.tobytes(), (n, dims)
            assert [f.tobytes() for f in inst.local_states] == [f.tobytes() for f in local]


def test_roots_are_evaluated_once_per_n(monkeypatch):
    # The states, the local factors and the three audits all read the
    # roots of unity; one cached table record per N serves them.
    exp, calls = np.exp, []

    def counted(*args, **kwargs):
        calls.append(args)
        return exp(*args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)
    usdsep.instance._table.cache_clear()
    first = make_instance(101)
    assert len(calls) == 1
    second = make_instance(101, (2, 50), 7)
    first.local_states, second.states, reciprocal_set(second).states
    assert len(calls) == 1
    assert first.states.tobytes() == make_instance(101).states.tobytes()
    assert first.residuals == second.residuals


def test_a_state_label_of_any_integer_type_reads_the_same_row():
    inst = make_instance(13, (2, 6))
    for j in (np.int32(3), np.int64(3), np.uint8(3), np.uint64(3)):
        assert inst.state(j).tobytes() == inst.state(3).tobytes() == inst.states[2].tobytes()
    for j in (0, 14):
        with pytest.raises(ValueError, match=f"state label {j} out of range 1..13"):
            inst.state(j)


def test_local_states_are_built_once_and_kept():
    inst = make_instance(13, (2, 6))
    assert inst.local_states is inst.local_states
    assert [f.shape for f in inst.local_states] == [(13, 2), (13, 6)]
    assert not any(f.flags.writeable for f in inst.local_states)
    assert inst.retained is inst.retained


def test_a_table_record_is_its_roots():
    # The power cycle is read only while the record is built, so a record
    # keeps the roots and the residuals: 16 B N.
    record = usdsep.instance._table(1009)
    assert [f.name for f in dataclasses.fields(record)] == ["roots", "residuals"]
    assert not hasattr(record, "pw")
    assert record.nbytes == record.roots.nbytes == 16 * 1009
    assert not record.roots.flags.writeable


def test_table_cache_holds_a_bounded_number_of_bytes(monkeypatch):
    # A record is its 16 B N of roots; past the bound
    # the least recently used records go, and the newest stays even when it
    # alone is larger.
    cache = usdsep.instance._table
    monkeypatch.setattr(usdsep.instance, "_TABLE_BYTES", 16 * 3000)
    cache.cache_clear()
    try:
        for n in (1009, 1013, 1019, 1021):
            make_instance(n)
            assert cache.held == sum(r.nbytes for r in cache.records.values()) <= 16 * 3000
        assert list(cache.records) == [1019, 1021]
        make_instance(1019)
        make_instance(4051)
        assert list(cache.records) == [4051] and cache.held == 16 * 4051 > 16 * 3000
    finally:
        cache.cache_clear()


def _fake_rlimit(soft):
    """A stand-in for the resource module whose soft RLIMIT_AS is ``soft``."""
    return types.SimpleNamespace(RLIMIT_AS=9, RLIM_INFINITY=-1, getrlimit=lambda which: (soft, -1))


def test_memory_limit_reads_each_source_it_can(monkeypatch):
    # Each source is faked in process; no limit of this process changes.
    meminfo = "MemTotal: 16777216 kB\nMemAvailable: 8388608 kB\n"
    monkeypatch.setattr(usdsep.instance, "open", lambda path: io.StringIO(meminfo), raising=False)
    monkeypatch.setitem(sys.modules, "resource", _fake_rlimit(-1))
    assert usdsep.instance._memory_limit() == (8 << 30, "MemAvailable")
    monkeypatch.setitem(sys.modules, "resource", _fake_rlimit(64 << 20))
    assert usdsep.instance._memory_limit() == (64 << 20, "the soft RLIMIT_AS")
    # From the limit, a build past it is refused before anything is allocated.
    refused = "n = 1000003 needs about 144 MiB to build its tables, over the 64 MiB of the soft"
    with pytest.raises(MemoryError, match=refused):
        usdsep.instance._build_table(1000003)

    def unreadable(path):
        raise PermissionError(path)

    monkeypatch.setattr(usdsep.instance, "open", unreadable, raising=False)
    assert usdsep.instance._memory_limit() == (64 << 20, "the soft RLIMIT_AS")
    monkeypatch.setitem(sys.modules, "resource", None)  # import resource fails
    assert usdsep.instance._memory_limit() == (math.inf, "no limit")
    monkeypatch.setattr(usdsep.instance, "open", lambda path: io.StringIO(meminfo), raising=False)
    assert usdsep.instance._memory_limit() == (8 << 30, "MemAvailable")


@pytest.mark.parametrize("n", [131, 211, 2003, 4051, 32771, 65537, 100003])
def test_build_bytes_bounds_the_traced_peak(n):
    # Both fft routes: length D at 211, 4051 and 65537, padded at 131,
    # 2003, 32771 and 100003.  The estimate that admits a build is never
    # under its traced peak, and at most 1.25 times it.
    usdsep.instance._build_table(n)
    tracemalloc.start()
    try:
        usdsep.instance._build_table(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= usdsep.instance._build_bytes(n) <= 1.25 * peak, peak


def test_completeness_residual_peak_memory():
    # Building and auditing a table holds the 16 B N record, the audited
    # roots / sqrt(D) and a few length-N fft buffers, no (N, N) gather and
    # no 262 MB state matrix: about 460 kB at N = 4051.  The first build
    # loads numpy.fft.
    n = 4051
    usdsep.instance._build_table(n)
    tracemalloc.start()
    try:
        residual = usdsep.instance._build_table(n).residuals["completeness"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert residual == usdsep.instance._table(n).residuals["completeness"]
    assert residual <= bound("completeness", n)
    assert peak < 1 << 20, peak


def test_prime_helpers():
    assert is_prime(5) and is_prime(13) and not is_prime(6) and not is_prime(1)
    assert [n for n in (0, 1, 2, 3, 4, 9, 25, 2003) if is_prime(n)] == [2, 3, 2003]
    assert prime_factors(12) == (2, 2, 3)
    assert sorted(ascending_factorizations(12)) == [(2, 2, 3), (2, 6), (3, 4), (12,)]
    with pytest.raises(ValueError, match="n must be >= 2"):
        prime_factors(1)
    with pytest.raises(ValueError, match="d must be >= 2"):
        ascending_factorizations(1)


def test_make_instance_matches_closed_form_states():
    inst = make_instance(5)
    assert inst.dims == (2, 2)
    w = np.exp(2j * np.pi / 5.0)
    # State j has amplitude exp(2 pi i j (m1 + 2 m2)/5)/2 at |m1 m2>.
    expected = 0.5 * np.array(
        [[1.0, w ** (2 * j), w**j, w ** (3 * j)] for j in range(1, 6)]
    )
    assert np.max(np.abs(inst.states - expected)) <= 1e-12
    assert np.allclose(inst.state(5), 0.5 * np.ones(4), atol=1e-12)


def test_make_instance_default_dims_and_completeness():
    inst = make_instance(13)
    assert inst.dims == (2, 2, 3)
    for got in all_instances():
        d = got.total_dim
        resolution = (d / got.n) * sum(proj(v) for v in got.states)
        assert np.linalg.norm(resolution - np.eye(d)) <= 1e-12
        assert np.max(np.abs(np.linalg.norm(got.states, axis=1) - 1.0)) <= 1e-12


def test_large_families_pass_their_audits():
    # Phases are read from one table of N-th roots of unity at exponents
    # reduced mod N.  Unreduced angles of up to 2 pi D drove the completeness
    # residual past its bound of 1e-12 from N = 307 on.
    for n in (401, 1009):
        inst = make_instance(n)
        assert inst.residuals["completeness"] <= bound("completeness", n)
        r = reciprocal_set(inst)
        assert np.max(np.abs(r.overlaps - n / (2.0 * (n - 1)))) <= 1e-10


@pytest.mark.parametrize("n", [5, 211, 1009])
def test_audits_keep_what_they_measured(n):
    inst = make_instance(n)
    table = usdsep.instance._table(n)
    pw = usdsep.instance._power_cycle(n)
    audits = usdsep.instance._audits(pw, table.roots, table.roots / np.sqrt(n - 1))
    assert inst.residuals == {"log tables": 0, **audits}
    assert inst.residuals == table.residuals
    assert residuals_agree(inst.residuals["completeness"], dense_completeness_residual(inst))
    # Unit norm and the null relation are read from the table; the gathered
    # rows measure the same quantities within the same laws, and the table's
    # residuals sit 10x under them.
    norms = np.linalg.norm(inst.states, axis=1)
    assert float(np.max(np.abs(norms - 1.0))) <= bound("unit norm", n)
    omega_j = np.exp(2j * np.pi * (np.arange(1, n + 1) % n) / n)
    relation = np.linalg.norm(inst.states.T @ omega_j) / np.sqrt(n)
    assert relation <= bound("null relation", n)
    for name in ("unit norm", "null relation"):
        assert inst.residuals[name] <= bound(name, n) / 10

    # reciprocal_set forms no product: its one row reads the bound the two
    # residuals above give, which the dense products of its states and of
    # the closed-form duals stay under.
    r = reciprocal_set(inst)
    derived = derived_bound(inst)
    assert r.residuals == {"derived overlap bound": derived}
    dual = dense_dual_residuals(inst, closed_form_duals(inst, n), n)
    for name, measured in {**dense_reciprocal_residuals(inst, r), **dual}.items():
        assert measured <= derived, name
    assert np.max(np.abs(two_cell_table(r) - dense_born_table(inst, r))) <= DENSE_ROUNDING
    for name, measured in {**inst.residuals, **r.residuals}.items():
        assert 0.0 <= measured <= bound(name, n), name


def test_make_instance_rejects_bad_input():
    with pytest.raises(ValueError):
        make_instance(6)
    with pytest.raises(ValueError):
        make_instance(3)
    with pytest.raises(ValueError):
        make_instance(7, dims=(3, 2))
    with pytest.raises(ValueError):
        make_instance(7, dims=(2, 2))
    with pytest.raises(ValueError):
        make_instance(7, dims=(1, 6))
    with pytest.raises(ValueError):
        make_instance(5, omit=6)


@pytest.mark.parametrize(
    "n, dims, omit",
    [
        pytest.param(5.9, None, 1, id="float n"),
        pytest.param(5, [2.7, 2.2], 1, id="float dims"),
        pytest.param(5, None, 1.5, id="float omit"),
        pytest.param(5.9, [2.7, 2.2], 1.5, id="float everywhere"),
        pytest.param(True, None, 1, id="bool n"),
        pytest.param(5, [True, 2], 1, id="bool dims"),
        pytest.param(5, None, True, id="bool omit"),
        pytest.param("5", None, 1, id="string n"),
        pytest.param(5, "22", 1, id="string dims"),
        pytest.param(5, ["2", "2"], 1, id="string dims entries"),
        pytest.param(5, None, "1", id="string omit"),
    ],
)
def test_make_instance_rejects_non_integers(n, dims, omit):
    # Never truncated or split: (5.9, [2.7, 2.2], 1.5) is not the N = 5,
    # dims (2, 2), omit 1 family, and "22" is not dims (2, 2).
    with pytest.raises(ValueError, match="must be integers"):
        make_instance(n, dims, omit)


def test_make_instance_accepts_numpy_integers():
    inst = make_instance(np.int64(13), np.array([2, 6]), np.int32(4))
    assert (inst.n, inst.dims, inst.omit) == (13, (2, 6), 4)
    assert all(type(v) is int for v in (inst.n, inst.omit, *inst.dims))


# Every caller of instance._is_integer: a call with the value in one
# integer slot, a valid value for that slot, and the message a rejected
# value raises there.
_FAMILY = "n, omit and each of dims must be integers"
_SIM = "seed, trials and copies must be integers"
INTEGER_CALLERS = {
    "make_instance n": (lambda v: make_instance(v), 5, _FAMILY),
    "make_instance dims": (lambda v: make_instance(11, [2, v]), 5, _FAMILY),
    "make_instance omit": (lambda v: make_instance(7, None, v), 5, _FAMILY),
    "instance_from_dict n": (
        lambda v: instance_from_dict({"n": v, "dims": [2, 2], "omit": 1}),
        5,
        "malformed instance payload: " + _FAMILY,
    ),
    "instance_from_dict dims": (
        lambda v: instance_from_dict({"n": 11, "dims": [2, v], "omit": 1}),
        5,
        "malformed instance payload: " + _FAMILY,
    ),
    "SimConfig seed": (lambda v: SimConfig(seed=v, trials=10), 5, _SIM),
    "SimConfig trials": (lambda v: SimConfig(seed=0, trials=v), 5, _SIM),
    "SimConfig copies": (lambda v: SimConfig(seed=0, trials=10, copies=v), 5, _SIM),
    "family_product_ops copies": (
        lambda v: family_product_ops(make_instance(5), v),
        2,
        "copies must be an integer >= 1",
    ),
    "multicopy_measurement copies": (
        lambda v: multicopy_measurement(make_instance(5), v),
        2,
        "copies must be an integer >= 1",
    ),
    "complement_decomposition": (
        lambda v: complement_decomposition([2, v], [3, 5]),
        5,
        "dimensions must be integers",
    ),
}


@pytest.mark.parametrize("caller", INTEGER_CALLERS)
@pytest.mark.parametrize("kind", [int, np.int64, np.int32, np.uint8])
def test_every_integer_slot_accepts_python_and_numpy_integers(caller, kind):
    call, valid, _ = INTEGER_CALLERS[caller]
    call(kind(valid))


@pytest.mark.parametrize("caller", INTEGER_CALLERS)
@pytest.mark.parametrize("value", [True, np.bool_(True), 5.0, "5"], ids=repr)
def test_every_integer_slot_rejects_bools_floats_and_strings(caller, value):
    call, _, message = INTEGER_CALLERS[caller]
    with pytest.raises(ValueError, match=message):
        call(value)


def test_make_instance_checks_the_party_dimensions():
    for dims, message in (
        ((), "at least one party"),
        ((1, 6), "must be >= 2"),
        ((3, 2), "ascending"),
        ((2, 2), "multiply to 4, expected 6"),
    ):
        with pytest.raises(ValueError, match=message):
            make_instance(7, dims)


def test_shift_unitary_advances_labels():
    # The shift is the diagonal unitary omega^exponents: state j has entries
    # omega^(j e_m) / sqrt(D), so it maps state j to j + 1 (N wraps to 1).
    inst = make_instance(5)
    u = np.exp(2j * np.pi * inst.exponents / 5.0)
    # Party 0 advances by diag(1, omega), party 1 by diag(1, omega^2).
    w = np.exp(2j * np.pi / 5.0)
    assert np.allclose(u, np.kron([1.0, w], [1.0, w**2]), atol=1e-15)
    assert np.allclose(inst.states * u, np.roll(inst.states, -1, axis=0), atol=1e-12)
    # N applications cycle back to the start exactly.
    assert np.allclose(u**5, 1.0, atol=1e-12)


def test_retained_and_dual_labels_skip_exactly_the_excluded_labels():
    # The closed-form duals of every drop label are dual to the states of
    # exactly the labels outside {omit, drop}: deltas there, zero on omit.
    n = 11
    for omit in range(1, n + 1):
        inst = make_instance(n, omit=omit)
        assert inst.retained == tuple(j for j in range(1, n + 1) if j != omit)
        for drop in set(range(1, n + 1)) - {omit}:
            xi = closed_form_duals(inst, drop)
            assert xi.ks == tuple(k for k in range(1, n + 1) if k not in (omit, drop))
            cross = xi.vectors.conj() @ inst.states.T
            cross[:, drop - 1] = 0.0
            assert np.max(np.abs(cross - np.eye(n)[np.subtract(xi.ks, 1)])) <= 1e-12


def singular_values(inst, labels):
    """Descending singular values of the matrix whose columns are the labelled states."""
    return np.linalg.svd(inst.states[np.subtract(labels, 1)].T, compute_uv=False)


def test_linear_independence_examples():
    inst = make_instance(5)
    sv = singular_values(inst, [2, 3, 4, 5])
    assert sv[-1] > 1e-10 * sv[0]
    # Frozen from the SVD oracle: the smallest singular value is exactly 1/2.
    assert abs(sv[-1] - 0.5) <= 1e-9
    assert sv[-1] > 0.1
    # All N states span only D = N - 1 dimensions.
    assert np.linalg.matrix_rank(inst.states) == 4


def test_any_basis_sized_subset_is_independent():
    rng = np.random.default_rng(2026)
    for inst in all_instances():
        d = inst.total_dim
        for _ in range(50):
            size = int(rng.integers(1, d + 1))
            subset = rng.choice(np.arange(1, inst.n + 1), size=size, replace=False)
            sv = singular_values(inst, subset)
            dependent = f"dependent subset {sorted(subset)} at n={inst.n} dims={inst.dims}"
            assert sv[-1] > 1e-10 * sv[0], dependent
            assert abs(sv[-1] - np.sqrt((inst.n - size) / d)) <= 1e-12
        assert np.linalg.matrix_rank(inst.states) == d


@pytest.mark.parametrize("n", [5, 13, 211])
def test_null_relation_residual_sees_a_wrong_relation(n):
    # The audit's residual is no constant: coefficients other than omega^j
    # leave one basis entry of size N / sqrt(D), so it reads sqrt(N/D).
    inst = make_instance(n)
    j = np.arange(1, n + 1)
    for coefficients in (np.exp(4j * np.pi * j / n), np.exp(-2j * np.pi * j / n), np.ones(n)):
        assert np.linalg.norm(inst.states.T @ coefficients) / np.sqrt(n) >= 0.1


def test_label_accessors_name_the_missing_label():
    inst = make_instance(5)
    r = reciprocal_set(inst)
    with pytest.raises(ValueError, match=r"label 1: this holds labels 1\.\.5 except \[1\]"):
        r.state(1)
    assert np.array_equal(r.state(2), r.states[0])


def test_pairwise_overlaps_magnitude_and_phase():
    inst = make_instance(5)
    g = inst.states.conj() @ inst.states.T  # G[j-1, k-1] = <state_j | state_k>
    assert np.allclose(np.diag(g), 1.0, atol=1e-12)
    off = g[~np.eye(5, dtype=bool)]
    assert np.max(np.abs(np.abs(off) - 0.25)) <= 1e-12
    # <Psi_j|Psi_k> is one term short of a vanishing root-of-unity sum:
    # -exp(-2 pi i (k - j)/5)/4.
    for j in range(5):
        for k in range(5):
            if j != k:
                pred = -np.exp(-2j * np.pi * (k - j) / 5.0) / 4.0
                assert abs(g[j, k] - pred) <= 1e-12


def test_phase_weighted_sum_vanishes():
    for inst in all_instances():
        acc = sum(
            np.exp(2j * np.pi * j / inst.n) * inst.state(j)
            for j in range(1, inst.n + 1)
        )
        assert np.linalg.norm(acc) <= 1e-12


def test_reciprocal_set_orthogonality_and_overlap():
    inst = make_instance(5)
    r = reciprocal_set(inst)
    assert r.indices == (2, 3, 4, 5)
    retained = inst.states[[1, 2, 3, 4]]
    cross = r.states.conj() @ retained.T
    off = cross - np.diag(np.diag(cross))
    assert np.max(np.abs(off)) <= 1e-10
    partner = np.diag(cross)
    assert np.all(partner.real > 0.0)
    assert np.max(np.abs(partner.imag)) <= 1e-12
    assert np.allclose(r.overlaps, 0.625, atol=1e-12)
    # Specific cross pair called out as a sanity anchor.
    assert abs(r.state(2).conj() @ inst.state(3)) <= 1e-12


def test_reciprocal_set_checks_its_one_row_once(monkeypatch):
    reads = []

    class Recording(dict):
        def __getitem__(self, key):
            reads.append(key)
            return super().__getitem__(key)

    inst = make_instance(7)
    monkeypatch.setattr(usdsep.numerics, "BOUNDS", Recording(usdsep.numerics.BOUNDS))
    reciprocal_set(inst)
    assert reads == ["derived overlap bound"]


def test_reciprocal_overlap_value_across_families():
    for inst in all_instances():
        r = reciprocal_set(inst)
        assert np.max(np.abs(r.overlaps - inst.n / (2.0 * inst.total_dim))) <= 1e-10


def test_reciprocal_set_respects_omit_relabeling():
    # Advancing every label by one (the shift unitary) maps the omit=1
    # family onto the omit=2 one, so the overlap spectrum cannot move.
    base = make_instance(5, omit=1)
    shifted = make_instance(5, omit=2)
    u = np.exp(2j * np.pi * base.exponents / base.n)  # diagonal of the shift unitary
    r_base = reciprocal_set(base)
    r_shift = reciprocal_set(shifted)
    assert np.allclose(r_shift.overlaps, r_base.overlaps, atol=1e-12)
    for j in r_base.indices:
        succ = 1 if j == base.n else j + 1
        if succ == shifted.omit:
            continue
        mapped = u * r_base.state(j)
        overlap = abs(mapped.conj() @ r_shift.state(succ))
        assert abs(overlap - 1.0) <= 1e-10


def test_dual_basis_omit_deltas_and_unimodular_overlap():
    # The closed-form duals of the basis without state 2 (instance module
    # docstring): deltas on 3..5, zero on 1, unimodular overlaps with 2.
    inst = make_instance(5)
    xi = closed_form_duals(inst, 2)
    assert xi.ks == (3, 4, 5)
    for k, vec in zip(xi.ks, xi.vectors):
        for j in range(1, 6):
            got = complex(vec.conj() @ inst.state(j))
            if j == 2:
                pred = -np.exp(2j * np.pi * (k - 2) / 5.0)
                assert abs(got - pred) <= 1e-10
                assert abs(abs(got) - 1.0) <= 1e-10
            elif j == k:
                assert abs(got - 1.0) <= 1e-10
            else:
                assert abs(got) <= 1e-10


def test_instance_dict_round_trip():
    inst = make_instance(7)
    payload = instance_to_dict(inst)
    assert payload["n"] == 7
    assert payload["dims"] == [2, 3]
    assert payload["omit"] == 1
    back = instance_from_dict(payload)
    assert back.n == inst.n and back.dims == inst.dims and back.omit == inst.omit
    assert np.max(np.abs(back.states - inst.states)) <= 1e-12


def test_instance_from_dict_rejects_tampering():
    with pytest.raises(ValueError):
        instance_from_dict({"n": 5, "dims": [2, 2]})
    # Parameters must be JSON integers: floats, bools, strings and an
    # overflowing 1e400 (which json reads as inf) are not truncated.
    for params in (
        {"n": 1e400, "dims": [2, 2], "omit": 1},
        {"n": 5, "dims": [2, 2], "omit": 1e400},
        {"n": 5, "dims": [2, 1e400], "omit": 1},
        {"n": 5.7, "dims": [2, 2], "omit": 1},
        {"n": 5, "dims": [2, 2], "omit": 1.9},
        {"n": 5, "dims": [2, 2], "omit": True},
        {"n": 5, "dims": [2.0, 2], "omit": 1},
        {"n": 5, "dims": "22", "omit": 1},
    ):
        with pytest.raises(ValueError, match="malformed instance payload"):
            instance_from_dict(params)


def test_instance_from_dict_refuses_a_states_array(monkeypatch):
    # Files of earlier versions carry the [re, im] amplitudes under
    # "states".  The parameters fix the family, so the array is refused
    # unread, whatever it holds, before any family is built or gathered.
    inst = make_instance(13, (2, 6), 4)
    matching = np.stack([inst.states.real, inst.states.imag], -1).tolist()
    tampered = [[[re + 1e-3, im] for re, im in row] for row in matching]
    malformed = [[["1", "0"]] * 12] * 13
    calls = []
    build, gather = usdsep.instance.make_instance, usdsep.instance.Instance.states.fget
    monkeypatch.setattr(usdsep.instance, "make_instance", lambda *a: calls.append(a) or build(*a))
    counted = property(lambda inst: calls.append(inst.n) or gather(inst))
    monkeypatch.setattr(usdsep.instance.Instance, "states", counted)
    for states in (matching, tampered, malformed, matching[:12]):
        with pytest.raises(ValueError, match=r"holds 'states'.*usdsep generate"):
            instance_from_dict({**instance_to_dict(inst), "states": states})
    assert calls == []
    assert instance_from_dict(instance_to_dict(inst)).dims == (2, 6)
    assert calls == [(13, [2, 6], 4)]
