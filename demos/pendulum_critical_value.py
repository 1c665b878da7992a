"""Critical value and action potentials of the pendulum on the circle.

The mechanical Lagrangian L = v^2/2 - cos(2 pi x) has its unstable
equilibrium at x = 0 with potential maximum 1, and for mechanical systems
the Mane critical value equals that maximum.  Below it, closed loops of
negative (L+k)-action appear; at it, the unstable equilibrium carries the
whole Aubry set.
"""

import numpy as np

from torusdyn import (
    FourierSeries,
    MechanicalLagrangian,
    NegativeLoopSearch,
    PhaseState,
    action,
    action_potential,
    apriori_speed_bound,
    critical_value,
    el_flow,
    energy,
    staticity_defect,
)

pendulum = MechanicalLagrangian(1, FourierSeries(1, cos={1: 1.0}))
search = NegativeLoopSearch(pendulum)

# --- the critical value, the best loop threshold of the negative-loop search
c = critical_value(pendulum, search=search)
print(f"critical value c(L) = {c:.4f}   (analytic: max U = 1)")

# --- below c the potential diverges, with an explicit certificate loop
av = action_potential(pendulum, 0.5, [0.0], [0.5], search=search)
print(f"Phi_0.5(0, 1/2) = -infinity? {av.is_minus_infinity}")
loop = av.certificate
print(f"  certificate: loop of (L+0.5)-action {action(pendulum, loop, 0.5):.3f} "
      f"at x = {loop.knots[0, 0]:.3f}")

# --- at the critical boundary k = max U the potential is finite; the
#     separatrix gives 2/pi between the potential maximum and minimum
k_star = 1.0
av = action_potential(pendulum, k_star, [0.0], [0.5], search=search)
print(f"Phi_c(0, 1/2) = {av.value:.4f}   (separatrix integral 2/pi = {2/np.pi:.4f})")

# --- staticity defect: at x = y it is 0 by the shortcut Phi_k(x, x) = 0,
#     for every x, so the first line is no test of the Aubry set
print(f"defect at the equilibrium: {staticity_defect(pendulum, k_star, [0.0], [0.0]):.2e}")
print(f"defect max vs min:         {staticity_defect(pendulum, k_star, [0.0], [0.5]):.4f} "
      f"(4/pi = {4/np.pi:.4f})")

# --- the flow conserves energy along the separatrix
traj = el_flow(pendulum, PhaseState([0.5], [2.0]), T=10.0, dt=1e-3)
E = 0.5 * (traj.vs**2).sum(axis=1) + pendulum.potential(traj.xs)
print(f"energy drift over the separatrix, T=10: {np.max(np.abs(E - 1.0)):.2e}")

# --- a priori speed bound for orbits of bounded mean action
for C in (0.5, 1.0, 2.0):
    print(f"mean action < {C}: speeds stay below A0 = {apriori_speed_bound(pendulum, C):.3f}")
