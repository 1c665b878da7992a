"""Shadowing pseudo-orbits of the hyperbolic automorphism [[2,1],[1,1]].

Jump errors decompose along the exact stable/unstable eigenbasis; summing
stable parts forward and unstable parts backward produces a true orbit
within Q*delta of the pseudo-orbit, with Q computable from the
eigenvalues.  Periodic pseudo-orbits close up to genuine periodic points.
"""

import numpy as np

from torusdyn import PseudoOrbit, Specification, bracket, cat_map, expansivity_gap
from torusdyn.hyperbolic import (
    apply,
    orbit,
    periodic_shadow,
    random_pseudo_orbit,
    shadow,
    shadow_specification,
)
from torusdyn.torus import torus_metric, wrap

tm = cat_map()
print(f"lambda_u = {tm.lam_u:.6f}, lambda_s = {tm.lam_s:.6f}, "
      f"shadowing constant Q = {tm.shadowing_q:.4f}")

# --- one long random pseudo-orbit
rng = np.random.default_rng(0)
p = random_pseudo_orbit(tm, 10_000, 1e-4, rng)
x0, eps = shadow(tm, p)
print(f"pseudo-orbit length 10^4, delta 1e-4: shadowed within {eps:.2e} "
      f"(Q*delta = {tm.shadowing_q * 1e-4:.2e})")

# --- a periodic pseudo-orbit near an exact 5-cycle of the lattice (k/11)
cycle = orbit(tm, [1 / 11, 0.0], 200, modulus=11)
period = next(i for i in range(1, 200) if np.array_equal(cycle[i], cycle[0]))
noisy = wrap(cycle[:period] + rng.uniform(-1, 1, (period, 2)) * 1e-4)
res = periodic_shadow(tm, PseudoOrbit(tm, noisy))
print(f"periodic pseudo-orbit (period {period}): point {np.round(res.point, 6)}, "
      f"eps {res.eps_achieved:.2e}, |T^N x - x| in the cover {res.cover_residual:.1e}")

# --- canonical coordinates: W^s(x) meets W^u(y) at the bracket point
x = np.array([0.40, 0.40])
y = wrap(x + 0.02 * rng.standard_normal(2))
w, exists = bracket(tm, x, y)
print(f"bracket exists: {exists}; forward distance to orbit of x after 10 steps: "
      f"{torus_metric(apply(tm, w, 10), apply(tm, x, 10)):.2e}")

# --- expansivity: orbits that stay close for |n| <= L started exponentially close
L = 8
beta = 0.01
d0 = beta * np.exp(-L * np.log(tm.lam_u)) / tm.expansivity_D
gap = expansivity_gap(tm, x, wrap(x + d0 * tm.e_s), L, beta)
print(f"beta-close over |n|<={L}: gap {gap:.2e} <= D beta e^(-lambda L) = "
      f"{tm.expansivity_D * beta * np.exp(-np.log(tm.lam_u) * L):.2e}")

# --- specifications: orbit segments with gaps >= L and small jumps
xs = rng.random(2)
times, points = [0], [xs]
for gap_len in (4, 5, 6):
    xs = wrap(apply(tm, xs, gap_len) + rng.uniform(-5e-5, 5e-5, 2))
    times.append(times[-1] + gap_len)
    points.append(xs)
spec = Specification(tm, times, np.array(points))
x0, eps = shadow_specification(tm, spec)
print(f"specification with gaps >= {spec.gap}, delta {spec.delta:.1e}: "
      f"shadowed within {eps:.2e}")
