"""Canal perturbations: dig a valley along an orbit, watch the minimizers.

phi = eps * d(x, core)^k vanishes to second order on its core, so core
orbits survive the perturbed flow, the critical value can only drop, and
low-action loops concentrate near the core exactly when the core carries
the minimizing set.
"""

import numpy as np

from torusdyn import CanalPotential, FourierSeries, MechanicalLagrangian, perturb
from torusdyn.perturbation import core_force_residual, experiment_localization

pendulum = MechanicalLagrangian(1, FourierSeries(1, cos={1: 1.0}))

# --- canal at the unstable equilibrium (the Aubry set): nothing moves
cp = CanalPotential([[0.0]], eps=0.1, k=2)
print(f"canal values: phi(0) = {float(cp([0.0]))}, phi(0.25) = {float(cp([0.25])):.4f}")
print(f"force the canal exerts on its core: {core_force_residual(cp):.1e}")
report = experiment_localization(pendulum, cp)
print("canal on the equilibrium:")
print(f"  c(L) = {report['c_base']:.4f} -> c(L+phi) = {report['c_perturbed']:.4f} "
      f"(monotone: {report['monotone']})")
print(f"  best loop sits {report['best_loop_core_distance']:.3f} from the core "
      f"(localized: {report['localized']})")

# --- canal at the potential minimum: the minimizing loop stays away
cp_off = CanalPotential([[0.5]], eps=0.2, k=2)
report = experiment_localization(pendulum, cp_off)
print("canal on the stable equilibrium (off the Aubry set):")
print(f"  c(L) = {report['c_base']:.4f} -> c(L+phi) = {report['c_perturbed']:.4f}")
print(f"  best loop sits {report['best_loop_core_distance']:.3f} from the core "
      f"(localized: {report['localized']})")

# --- a 2-torus canal around an equator circle
U2 = FourierSeries(2, cos={(0, 1): 0.3})
L2 = MechanicalLagrangian(2, U2)
equator = CanalPotential([[0.0, 0.5]], eps=0.5, k=2, winds=[[1, 0]])
print(f"equator canal on T^2: phi on core = {float(equator([0.37, 0.5])):.1e}, "
      f"phi at the far parallel = {float(equator([0.2, 0.0])):.4f} (eps/4 = 0.125)")
L2p = perturb(L2, equator)
pts = np.random.default_rng(0).random((4, 2))
print("U - phi sampled:", np.round(L2p.potential(pts), 4))
