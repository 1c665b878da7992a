"""Entropy from orbit data: spanning/separated counts and the pair-decay rate.

For the linear automorphism [[2,1],[1,1]] the number of delta-close orbit
pairs decays like e^(-h t) under the dynamic metric d_t, giving an
estimator that works at modest ensemble sizes where covering counts
saturate.  Gamma-classes probe entropy expansivity, and refinement
entropies of Parry-weighted symbol data recover log(phi).
"""

import numpy as np

from torusdyn import (
    GOLDEN_MEAN,
    FinitePartition,
    WeightedMeasure,
    cat_map,
    entropy_estimate,
    gamma_sets,
    jensen_bound,
    parry_measure,
    refine_entropy,
    separated_count,
    spanning_count,
)
from torusdyn.entropy import class_probe, count_ladder, pair_survival_ladder
from torusdyn.hyperbolic import orbit_ensemble

tm = cat_map()
target = np.log(tm.lam_u)
F = orbit_ensemble(tm, 1000, 10, rng=np.random.default_rng(0))

print("greedy counts at delta = 0.05 (they saturate at the orbit count):")
print("  covers r(t):", count_ladder(F, 10, 0.05))
print("  close pairs:", pair_survival_ladder(F, 10, 0.05))
for delta in (0.05, 0.1):
    r, s = spanning_count(F, 10, delta), separated_count(F, 10, delta)
    print(f"  sandwich at delta={delta}: r={r} <= s={s} <= r(delta/2)={spanning_count(F, 10, delta/2)}")
h = entropy_estimate(F, 10, 0.05)
print(f"pair-decay estimate h = {h:.4f}   (log lambda_u = {target:.4f})")

# --- expansivity probe: two-sided closeness classes carry no entropy
F2 = orbit_ensemble(tm, 400, 40, backward=30, rng=np.random.default_rng(1))
classes = gamma_sets(F2, 0.01, 30)    # every orbit's class from one pass
print(f"Gamma_0.01 classes over horizon 30: max size {max(len(c) for c in classes)}; "
      f"probe = {class_probe(F2, classes, 0.05):.3f}")

# --- symbolic side: Parry-weighted block entropy at depth 14
nu = parry_measure(GOLDEN_MEAN)
path = nu.sample(np.random.default_rng(2), 200_014)
mu = WeightedMeasure.uniform(np.zeros((200_000, 1)))
f = np.concatenate([np.arange(1, len(path)), [-1]])
est = refine_entropy(mu, FinitePartition(path, 2), f, 14)
print(f"(1/14) H_14 of Parry-weighted golden mean: {est:.4f} "
      f"(log phi = {np.log((1 + np.sqrt(5)) / 2):.4f})")

# --- the elementary inequality behind the entropy bookkeeping
a = np.random.default_rng(3).uniform(0, 2, 16)
lhs, rhs = jensen_bound(a)
print(f"-sum a log a = {lhs:.3f} <= 1 + (sum a) log n = {rhs:.3f}")
