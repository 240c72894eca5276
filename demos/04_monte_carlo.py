"""
Sampling discrimination runs
============================

Each trial prepares a uniformly random reciprocal state and fires the
weighted measurement.  The simulator draws the tallies of all trials at
once: a multinomial split of the trials over the inputs, then one over each
input's exact outcome row, so a million trials cost no more than ten.
Conclusive outcomes are never wrong by construction, so the only statistics
worth watching are the failure rate and its agreement with the closed form.
Everything is seeded: the same configuration reproduces the same tallies
bit for bit.
"""

import numpy as np

from usdsep import (
    SimConfig,
    build_measurement,
    failure_probability,
    make_instance,
    optimal_measurement,
    reciprocal_set,
    run_discrimination,
)

inst = make_instance(5)
r = reciprocal_set(inst)
m = optimal_measurement(inst)

# The exact outcome distribution for one input: outcome j fires with the
# rank-1 Born weight w_j |<psi_j|phi>|^2, the failure operator takes the
# rest, read from failure_probability's per-input cells.  Its own outcome
# and the failure direction split the probability evenly at the symmetric
# weights.
phi = r.state(3)
named = np.array([inst.state(j) for j in m.indices])
probs = np.append(
    m.weights * np.abs(named.conj() @ phi) ** 2,
    failure_probability(m, r).per_state_failure[r.indices.index(3)],
)
print("exact outcome distribution for input 3:", np.round(probs, 6))

# A hundred thousand seeded trials.
cfg = SimConfig(seed=7, trials=100_000)
rep = run_discrimination(inst, r, m, cfg)
print("\ncounts:", rep.counts)
print("misidentifications:", rep.misidentifications)
print("empirical failure:  %.5f" % rep.empirical_failure)
print("theoretical failure: %.5f" % rep.theoretical_failure)
print("total variation to exact marginal: %.5f" % rep.tv_distance)

three_sigma = 3 * np.sqrt(0.25 / cfg.trials)
print("within three sigma (%.5f)?" % three_sigma,
      abs(rep.empirical_failure - 0.5) <= three_sigma)

# Same seed, same numbers.
again = run_discrimination(inst, r, m, cfg)
print("\nrepeat run identical:", again.counts == rep.counts)

# Suboptimal weights shift the failure rate to their own closed form while
# conclusive outcomes stay error-free.
weak = build_measurement(inst, np.full(4, 0.5))
rep_weak = run_discrimination(inst, r, weak, SimConfig(seed=7, trials=100_000))
print("\nweights 0.5: empirical %.5f vs theoretical %.5f, misidentifications %d"
      % (rep_weak.empirical_failure, rep_weak.theoretical_failure,
         rep_weak.misidentifications))

# Other primes sample just as well.
inst7 = make_instance(7)
rep7 = run_discrimination(
    inst7,
    reciprocal_set(inst7),
    optimal_measurement(inst7),
    SimConfig(seed=11, trials=50_000),
)
print("\nN=7: empirical %.5f, misidentifications %d"
      % (rep7.empirical_failure, rep7.misidentifications))
