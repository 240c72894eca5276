"""Tests for the dense linear algebra kernel and the table of invariant bounds."""

import ast
import math
import pathlib

import numpy as np
import pytest

import usdsep
import usdsep.numerics
from usdsep import (
    ConvergenceError,
    InvariantError,
    kron_all,
    make_instance,
    nnls,
    proj,
    vec_herm,
)
from usdsep.numerics import BOUNDS, bound, check
from usdsep.reference import two_qubit_reciprocal_states

W5 = np.exp(2j * np.pi / 5.0)


def test_kron_diagonal_phases():
    a = np.diag([1.0, W5])
    b = np.diag([1.0, W5**2])
    got = np.kron(a, b)
    assert np.allclose(got, np.diag([1.0, W5**2, W5, W5**3]), atol=1e-15)


def test_kron_columns():
    a = np.array([1.0, 1.0]) / np.sqrt(2.0)
    b = np.array([1.0, -1.0]) / np.sqrt(2.0)
    got = np.kron(a, b)
    assert np.allclose(got, np.array([1.0, -1.0, 1.0, -1.0]) / 2.0)


def test_kron_associative():
    rng = np.random.default_rng(101)
    for _ in range(20):
        dims = rng.integers(2, 4, size=3)
        mats = [
            rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for d in dims
        ]
        left = np.kron(np.kron(mats[0], mats[1]), mats[2])
        right = np.kron(mats[0], np.kron(mats[1], mats[2]))
        assert np.linalg.norm(left - right) <= 1e-12 * max(np.linalg.norm(left), 1.0)
        assert np.allclose(kron_all(mats), left)


def test_kron_all_empty_rejected():
    with pytest.raises(ValueError):
        kron_all([])


def random_hermitian_stack(rng, k, d):
    a = rng.normal(size=(k, d, d)) + 1j * rng.normal(size=(k, d, d))
    return (a + a.conj().transpose(0, 2, 1)) / 2.0


def test_hermitize_and_vec_herm_stack_equal_per_matrix_results():
    rng = np.random.default_rng(31)
    for k, d in [(1, 2), (7, 3), (12, 5)]:
        stack = random_hermitian_stack(rng, k, d)
        vecs = vec_herm(stack)
        assert vecs.shape == (k, d * d)
        assert np.array_equal(vecs, np.stack([vec_herm(h) for h in stack]))


def test_stack_with_one_non_hermitian_member_is_rejected():
    stack = random_hermitian_stack(np.random.default_rng(32), 6, 3)
    stack[4, 0, 1] += 1e-6
    with pytest.raises(ValueError, match="not Hermitian"):
        vec_herm(stack)
    for shape in ((2, 3), (4, 2, 3)):
        with pytest.raises(ValueError, match="expected a square matrix"):
            vec_herm(np.ones(shape))


def test_asymmetry_is_judged_per_matrix_not_per_stack():
    # Each matrix sits 10% inside its own asymmetry bound, so the stack's
    # total asymmetry exceeds any one matrix's bound; only the matrix moved
    # 10% past its bound is rejected, with its own asymmetry in the message.
    rng = np.random.default_rng(33)
    stack = random_hermitian_stack(rng, 8, 3)
    stack /= np.linalg.norm(stack, axis=(1, 2))[:, None, None]  # ||M|| = 1: each bound is 1e-12
    skew = np.zeros((3, 3), dtype=complex)
    skew[0, 1] = 1.0  # ||skew - skew^dag|| = sqrt(2)
    inside = stack + 0.9e-12 / np.sqrt(2.0) * skew
    assert np.array_equal(vec_herm(inside), np.stack([vec_herm(h) for h in inside]))
    inside[5] += 0.2e-12 / np.sqrt(2.0) * skew
    with pytest.raises(ValueError, match=r"not Hermitian: asymmetry 1\.100e-12"):
        vec_herm(inside)


# Eigenvalues of the reduced reciprocal states, frozen from an independent
# oracle: explicit-loop partial trace plus the closed-form 2x2 eigenvalue
# formula (trace/determinant), run against the closed-form state vectors.
REDUCED_EIGS = (0.05278640450004202, 0.9472135954999578)


def reduced(psi, dims):
    """Reduced states a a^dag and a^T conj(a) of the two parties; a is psi shaped to dims."""
    a = np.reshape(psi, dims)
    return a @ a.conj().T, a.T @ a.conj()


def test_partial_trace_reduced_reciprocal_state():
    phi = two_qubit_reciprocal_states()[0]
    red = reduced(phi, (2, 2))[0]
    assert abs(np.trace(red) - 1.0) <= 1e-12
    vals = np.linalg.eigvalsh(red)
    assert np.allclose(vals, REDUCED_EIGS, atol=1e-12)


def test_partial_trace_product_state():
    a = np.array([1.0, 1j]) / np.sqrt(2.0)
    b = np.array([1.0, 0.0, 0.0])
    first, second = reduced(np.kron(a, b), (2, 3))
    assert np.allclose(first, proj(a), atol=1e-12)
    assert np.allclose(second, proj(b), atol=1e-12)


def test_vec_herm_identity_coordinates():
    assert np.allclose(vec_herm(np.eye(2)), [1.0, 1.0, 0.0, 0.0])


def test_vec_herm_is_isometric():
    rng = np.random.default_rng(12)
    for d in (2, 3, 5):
        for _ in range(10):
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            a = (a + a.conj().T) / 2.0
            b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            b = (b + b.conj().T) / 2.0
            assert abs(np.trace(a @ b).real - vec_herm(a) @ vec_herm(b)) <= 1e-12 * max(
                1.0, np.linalg.norm(a) * np.linalg.norm(b)
            )


def test_vec_herm_reproduces_projector_overlap():
    inst = make_instance(5)
    dot = vec_herm(proj(inst.state(1))) @ vec_herm(proj(inst.state(2)))
    assert abs(dot - 1.0 / 16.0) <= 1e-12


def test_nnls_examples():
    a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    x, rnorm = nnls(a, np.array([1.0, 2.0, 3.0]))
    assert np.allclose(x, [1.0, 2.0], atol=1e-12)
    assert abs(rnorm - 3.0) <= 1e-12

    x, rnorm = nnls(np.array([[1.0], [0.0]]), np.array([-2.0, 0.0]))
    assert np.allclose(x, [0.0])
    assert abs(rnorm - 2.0) <= 1e-12

    a = np.array([[1.0, 1.0], [1.0, -1.0]])
    x, rnorm = nnls(a, np.array([2.0, 0.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-10)
    assert rnorm <= 1e-10


def test_nnls_matches_reference_implementation():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(23)
    for _ in range(40):
        m = int(rng.integers(2, 10))
        n = int(rng.integers(1, 8))
        a = rng.normal(size=(m, n))
        b = rng.normal(size=m)
        x, rnorm = nnls(a, b)
        assert np.all(x >= 0.0)
        _, ref_rnorm = scipy_opt.nnls(a, b)
        assert rnorm <= ref_rnorm + 1e-8
        assert ref_rnorm <= rnorm + 1e-8


def test_nnls_input_validation_and_cap():
    with pytest.raises(ValueError, match="a must be a matrix"):
        nnls(np.ones(3), np.ones(3))
    with pytest.raises(ValueError):
        nnls(np.ones((2, 0)), np.ones(2))
    with pytest.raises(ValueError):
        nnls(np.ones((2, 2)), np.ones(3))
    with pytest.raises(ValueError):
        nnls(np.ones((2, 2)), np.ones(2), tol=0.0)
    with pytest.raises(ConvergenceError):
        nnls(np.eye(3), np.ones(3), max_iter=1)


def test_nnls_ends_where_rounding_lifts_an_entering_dual():
    # At tol = 1e-300 rounding alone lifts coordinate 1's dual past tol, and
    # its trial value comes out exactly 0.0; before the entering test the
    # solver re-added it until ConvergenceError.
    scipy_opt = pytest.importorskip("scipy.optimize")
    a = np.array([[2.0, 0.0, -1.0, -1.0], [1.0, -1.0, -1.0, 1.0]])
    b = np.array([-2.0, 0.0])
    x, rnorm = nnls(a, b, tol=1e-300)
    assert np.all(x >= 0.0)
    _, ref_rnorm = scipy_opt.nnls(a, b)
    assert abs(rnorm - ref_rnorm) <= 1e-12
    assert abs(rnorm - float(np.linalg.norm(b - a @ x))) <= 1e-15


@pytest.mark.parametrize("trial", [0.0, -1.0])
def test_nnls_sets_aside_an_entering_coordinate_until_x_moves(monkeypatch, trial):
    # The largest dual is coordinate 1's.  A faked first solve gives it a
    # non-positive trial value, so it is set aside and coordinate 0 enters;
    # once x has moved, coordinate 1 is tried again and enters.
    original = np.linalg.lstsq
    passives = []

    def faked(sub, b, rcond=None):
        passives.append(sub.shape[1])
        solution = original(sub, b, rcond=rcond)
        if len(passives) == 1:
            solution[0][:] = trial
        return solution

    monkeypatch.setattr(np.linalg, "lstsq", faked)
    x, rnorm = nnls(np.eye(2), np.array([1.0, 2.0]))
    assert passives == [1, 1, 2]
    assert x.tolist() == [1.0, 2.0] and rnorm == 0.0


def test_entropy_of_reduced_reciprocal_states():
    # Frozen from the oracle run: 0.29811751339456366 in base 2 (the base in
    # which the value sits near 0.3; base e gives 0.20663931388498344).
    for phi in two_qubit_reciprocal_states():
        lam = np.linalg.eigvalsh(reduced(phi, (2, 2))[0])
        assert abs(-(lam * np.log2(lam)).sum() - 0.29811751339456366) <= 1e-9
        assert abs(-(lam * np.log(lam)).sum() - 0.20663931388498344) <= 1e-9


def test_check_returns_the_value_within_its_bound():
    assert check("completeness", 3e-14, 4051) == 3e-14
    assert check("completeness", bound("completeness", 4051), 4051) == bound("completeness", 4051)
    assert check("misidentifications", 0) == 0


@pytest.mark.parametrize(
    "name, measured",
    [("completeness", 2e-12), ("closed-form reciprocals", 1.1e-9), ("misidentifications", 1)],
)
def test_check_raises_past_the_bound(name, measured):
    with pytest.raises(InvariantError, match=name):
        check(name, measured, 4051)


def test_check_fails_on_nan_and_unknown_names():
    for name in BOUNDS:
        with pytest.raises(InvariantError):
            check(name, float("nan"), 5)
    with pytest.raises(KeyError):
        check("no such invariant", 0.0)


def test_law_rows_need_the_family_size():
    for name in ("completeness", "unit norm", "null relation"):
        with pytest.raises(ValueError, match="pass n"):
            bound(name)
        with pytest.raises(ValueError, match="pass n"):
            check(name, 0.0)
    assert bound("misidentifications") == 0
    assert check("log tables", 0) == 0


def test_instance_rows_are_laws_no_looser_than_before_up_to_4051():
    # The three instance rows grow with N; up to N = 4051 each lies under
    # the constant 1e-12 they replaced, and past about 10^6 completeness
    # rises above it, where its fft rounding does.
    rows = ("completeness", "unit norm", "null relation")
    assert all(callable(BOUNDS[name]) for name in rows)
    for n in (5, 13, 211, 1009, 4051):
        assert all(0.0 < bound(name, n) <= 1e-12 for name in rows)
        assert bound("derived overlap bound", n) == BOUNDS["derived overlap bound"]
    assert bound("completeness", 1000003) > 1e-11
    assert bound("completeness", 13) < bound("completeness", 14) < bound("completeness", 1009)


class _InvariantErrorSites(ast.NodeVisitor):
    """(module, innermost enclosing function) of every InvariantError(...) call."""

    def __init__(self, module):
        self.module, self.scope, self.found = module, "<module>", []

    def visit_FunctionDef(self, node):
        outer, self.scope = self.scope, node.name
        self.generic_visit(node)
        self.scope = outer

    def visit_Call(self, node):
        if getattr(node.func, "id", getattr(node.func, "attr", None)) == "InvariantError":
            self.found.append((self.module, self.scope))
        self.generic_visit(node)


def test_invariant_errors_are_raised_from_one_place():
    # Every exit-3 check goes through numerics.check; the verify summary is
    # the one other site, since it sums up rows it has already printed.
    found = []
    for path in sorted(pathlib.Path(usdsep.__file__).parent.glob("*.py")):
        sites = _InvariantErrorSites(path.stem)
        sites.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += sites.found
    assert sorted(found) == [("cli", "cmd_verify"), ("numerics", "check")]


class _CallSites(_InvariantErrorSites):
    """(module, innermost enclosing function) of every call to ``name``."""

    def __init__(self, module, name):
        super().__init__(module)
        self.name = name

    def visit_Call(self, node):
        if getattr(node.func, "id", getattr(node.func, "attr", None)) == self.name:
            self.found.append((self.module, self.scope))
        self.generic_visit(node)


def call_sites(name):
    found = []
    for path in sorted(pathlib.Path(usdsep.__file__).parent.glob("*.py")):
        sites = _CallSites(path.stem, name)
        sites.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += sites.found
    return sorted(found)


def test_memory_is_admitted_by_one_rule():
    # Every MemoryError and every query of the memory left is numerics.admit's,
    # and each allocation that may outgrow the memory asks it first.
    assert call_sites("MemoryError") == call_sites("_memory_limit") == [("numerics", "admit")]
    assert call_sites("admit") == [
        ("cli", "_load_json"),
        ("cone", "_admit_pass"),
        ("instance", "_build_table"),
        ("usd", "family_product_ops"),
    ]


def test_admit_asks_for_the_memory_left_only_past_its_floor(monkeypatch):
    asked = []
    left = [100 * 2**20, "MemAvailable"]
    monkeypatch.setattr(usdsep.numerics, "_memory_limit", lambda: asked.append(1) or tuple(left))
    floor = usdsep.numerics._ADMIT_FLOOR
    usdsep.numerics.admit(floor, "it needs", "to run")
    assert asked == []
    usdsep.numerics.admit(100 * 2**20, "it needs", "to run")  # exactly the memory left
    assert asked == [1]
    with pytest.raises(MemoryError) as refused:
        usdsep.numerics.admit(100 * 2**20 + 1, "it needs", "to run")
    assert str(refused.value) == "it needs about 100 MiB to run, over the 100 MiB of MemAvailable"
    # An estimate that is not finite is refused even where nothing limits memory.
    left[:] = [math.inf, "no limit"]
    for need in (math.inf, math.nan):
        with pytest.raises(MemoryError, match="it needs about (inf|nan) MiB to run, over the inf MiB of no limit"):
            usdsep.numerics.admit(need, "it needs", "to run")
