"""Acceptance gate: ten go/no-go checks on the package's core claims.

Each test prints one pass/fail line (run with ``pytest -s`` to see them all)
and asserts the same condition, with explicit tolerances and a wall-clock
budget where the check is computational.  Together they pin down:

  01  the four-state two-qubit family and its reciprocal set in closed form
  02  failure probability exactly 1/2 for every multiparty factorization
  03  the uniform overlap value q = N/(2D)
  04  no randomized weight choice beats 1/2 (with the weight-sum cap)
  05  extreme-ray certificates: N rays per party, verdict VIOLATES
  06  seeded Monte Carlo: zero misidentifications, 3-sigma failure band
  07  multicopy failure 2^-n with closure, and the 2-copy VIOLATES verdict
  08  equal reduced-state entropies near 0.3 bits
  09  complement-of-embedding decomposition on randomized enlargements
  10  NNLS extremality equals an independent LP membership oracle
"""

import time

import numpy as np

from usdsep import (
    SimConfig,
    certify,
    family_product_ops,
    make_instance,
    optimal_measurement,
    proj,
    reciprocal_set,
    run_discrimination,
    failure_probability,
    complement_decomposition,
    kron_all,
)
from usdsep.reference import two_qubit_reciprocal_states, two_qubit_states
from tests.oracles import dense_search
from tests.test_instance import all_instances


def report(name: str, ok: bool, detail: str) -> None:
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_01_closed_form_family_and_reciprocals():
    t0 = time.perf_counter()
    inst = make_instance(5, dims=(2, 2))
    state_gap = float(np.max(np.abs(inst.states - two_qubit_states())))
    r = reciprocal_set(inst)
    overlaps = np.abs(
        np.einsum("ja,ja->j", r.states.conj(), two_qubit_reciprocal_states())
    )
    phase_free = float(overlaps.min())
    elapsed = time.perf_counter() - t0
    ok = state_gap <= 1e-12 and phase_free >= 1.0 - 1e-9 and elapsed < 1.0
    report(
        "01 closed-form family",
        ok,
        f"state gap {state_gap:.2e}, reciprocal overlap {phase_free:.12f}, {elapsed:.2f}s",
    )
    assert state_gap <= 1e-12
    assert phase_free >= 1.0 - 1e-9
    assert elapsed < 1.0


def test_02_failure_probability_is_half_everywhere():
    t0 = time.perf_counter()
    worst = 0.0
    cases = 0
    for inst in all_instances():
        r = reciprocal_set(inst)
        pr = failure_probability(optimal_measurement(inst), r).failure_probability
        worst = max(worst, abs(pr - 0.5))
        cases += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and cases == 6 and elapsed < 10.0
    report(
        "02 symmetric failure 1/2",
        ok,
        f"{cases} factorizations, worst |Pr - 1/2| {worst:.2e}, {elapsed:.2f}s",
    )
    assert cases == 6
    assert worst <= 1e-12
    assert elapsed < 10.0


def test_03_overlap_values():
    worst = 0.0
    for inst in all_instances():
        r = reciprocal_set(inst)
        target = inst.n / (2.0 * inst.total_dim)
        qa = r.overlaps
        qb = np.abs(r.states.conj() @ inst.state(inst.omit)) ** 2
        worst = max(
            worst,
            float(np.max(np.abs(qa - target))),
            float(np.max(np.abs(qb - target))),
        )
    ok = worst <= 1e-10
    report("03 overlap value q", ok, f"worst |q - N/(2D)| {worst:.2e}")
    assert worst <= 1e-10


def test_04_randomized_search_never_beats_half():
    t0 = time.perf_counter()
    inst = make_instance(5)
    res = dense_search(inst, samples=1_200_000, seed=0)
    elapsed = time.perf_counter() - t0
    cap = 16.0 / 5.0 + 1e-9
    ok = (
        res.feasible_count >= 100_000
        and res.best_failure >= 0.5 - 1e-9
        and res.max_weight_sum <= cap
        and elapsed < 60.0
    )
    report(
        "04 search optimality",
        ok,
        f"{res.feasible_count} feasible, best {res.best_failure:.9f}, "
        f"max weight sum {res.max_weight_sum:.6f} <= {cap:.6f}, {elapsed:.1f}s",
    )
    assert res.feasible_count >= 100_000
    assert res.best_failure >= 0.5 - 1e-9
    assert res.max_weight_sum <= cap
    assert elapsed < 60.0


def test_05_certificates_violate_for_every_family():
    t0 = time.perf_counter()
    details = []
    ok = True
    for inst in all_instances():
        scale = inst.total_dim / inst.n
        ops = []
        for j in range(1, inst.n + 1):
            factors = [proj(ls[j - 1]) for ls in inst.local_states]
            factors[0] = scale * factors[0]
            ops.append(factors)
        rep = certify(ops)
        per_party_ok = all(s.extreme == inst.n for s in rep.parties)
        ok = ok and per_party_ok and rep.verdict == "VIOLATES"
        details.append(f"N={inst.n} dims={inst.dims}: {rep.total}>{rep.bound}")

    e0 = np.diag([1.0, 0.0]).astype(complex)
    e1 = np.diag([0.0, 1.0]).astype(complex)
    eye = np.eye(2, dtype=complex)
    control = certify([[e0, eye], [e1, eye]])
    ok = ok and control.verdict == "SATISFIES"
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    report(
        "05 ray certificates",
        ok,
        f"{'; '.join(details)}; control {control.verdict}, {elapsed:.1f}s",
    )
    assert ok
    assert control.verdict == "SATISFIES"
    assert elapsed < 30.0


def test_06_monte_carlo_band():
    t0 = time.perf_counter()
    inst = make_instance(5)
    rep = run_discrimination(
        inst,
        reciprocal_set(inst),
        optimal_measurement(inst),
        SimConfig(seed=7, trials=100_000),
    )
    elapsed = time.perf_counter() - t0
    gap = abs(rep.empirical_failure - 0.5)
    ok = rep.misidentifications == 0 and gap <= 0.00474 and elapsed < 5.0
    report(
        "06 seeded Monte Carlo",
        ok,
        f"misidentifications {rep.misidentifications}, empirical "
        f"{rep.empirical_failure:.5f} (|gap| {gap:.5f} <= 0.00474), {elapsed:.1f}s",
    )
    assert rep.misidentifications == 0
    assert gap <= 0.00474
    assert elapsed < 5.0


def test_07_multicopy_failure_decay_and_certificate():
    t0 = time.perf_counter()
    inst = make_instance(5)
    r, m = reciprocal_set(inst), optimal_measurement(inst)
    worst = 0.0
    worst_closure = 0.0
    for n_copies in (1, 2, 3):
        sim = run_discrimination(inst, r, m, SimConfig(seed=7, trials=1, copies=n_copies))
        worst = max(worst, abs(sim.theoretical_failure - 0.5**n_copies))
        dim = inst.total_dim**n_copies
        total = sum(kron_all(factors) for factors in family_product_ops(inst, n_copies))
        closure = float(np.linalg.norm(total - np.eye(dim)))
        worst_closure = max(worst_closure, closure)
    rep = certify(family_product_ops(inst, 2))
    elapsed = time.perf_counter() - t0
    ok = (
        worst <= 1e-12
        and worst_closure <= 1e-10
        and rep.verdict == "VIOLATES"
        and elapsed < 60.0
    )
    report(
        "07 multicopy decay",
        ok,
        f"worst |Pr - 2^-n| {worst:.2e}, closure {worst_closure:.2e}, "
        f"2-copy verdict {rep.verdict} ({rep.total}>{rep.bound}), {elapsed:.1f}s",
    )
    assert worst <= 1e-12
    assert worst_closure <= 1e-10
    assert rep.verdict == "VIOLATES"
    assert elapsed < 60.0


def test_08_reduced_entropies():
    # Entropies are reported in log base 2; the shared value must sit at
    # 0.3 bits up to 0.05.  The reduced state of party 0 is a a^dag, a the
    # (2, 2) amplitude array of phi.
    entropies = []
    for phi in two_qubit_reciprocal_states():
        a = phi.reshape(2, 2)
        lam = np.linalg.eigvalsh(a @ a.conj().T)
        lam = lam[lam > 0.0]
        entropies.append(float(-(lam * np.log2(lam)).sum()))
    entropies = np.array(entropies)
    spread = float(entropies.max() - entropies.min())
    value = float(entropies.mean())
    ok = spread <= 1e-9 and abs(value - 0.3) <= 0.05
    report(
        "08 reduced entropy",
        ok,
        f"value {value:.12f} bits (base 2), spread {spread:.2e}",
    )
    assert spread <= 1e-9
    assert abs(value - 0.3) <= 0.05


def test_09_complement_decomposition_randomized():
    rng = np.random.default_rng(1009)
    worst = 0.0
    for _ in range(20):
        p = int(rng.integers(1, 4))
        dims = [int(rng.integers(1, 4)) for _ in range(p)]
        enlarged = [int(rng.integers(d, 6)) for d in dims]
        terms = complement_decomposition(dims, enlarged)
        projs = []
        for d, e in zip(dims, enlarged):
            pi = np.zeros((e, e), dtype=complex)
            pi[:d, :d] = np.eye(d)
            projs.append(pi)
        target = np.eye(int(np.prod(enlarged))) - kron_all(projs)
        assembled = sum(kron_all(t) for t in terms)
        worst = max(worst, float(np.linalg.norm(assembled - target)))
    ok = worst <= 1e-12
    report("09 complement decomposition", ok, f"worst residual {worst:.2e} over 20 draws")
    assert worst <= 1e-12


def test_10_extremality_oracle_equivalence():
    from tests.lp_oracle import conic_representable_lp, random_operator_sets
    from tests.test_cone import nnls_only_residuals, party_stat, ray_classes

    rng = np.random.default_rng(314159)
    cases = 0
    disagreements = 0
    for ops in random_operator_sets(rng, 100):
        _, reps, coords, bounds = ray_classes(ops)
        residuals = nnls_only_residuals(coords, 1e-8)
        lp = []
        for c in range(len(reps)):
            others = [reps[k] for k in range(len(reps)) if k != c]
            lp_extreme = not others or not conic_representable_lp(reps[c], others)
            nnls_extreme = residuals[c] > 1e-8
            # A checked witness bound past the band proves the class extreme.
            witnessed = bounds[c] > 1e-6
            cases += 1
            if nnls_extreme != lp_extreme or (witnessed and not lp_extreme):
                disagreements += 1
            lp.append(lp_extreme)
        if party_stat(ops).extreme != sum(lp):
            disagreements += 1
    ok = disagreements == 0 and cases >= 200
    report(
        "10 oracle equivalence",
        ok,
        f"{cases} ray classes over 100 sets, {disagreements} disagreements",
    )
    assert disagreements == 0
    assert cases >= 200
