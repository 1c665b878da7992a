"""Canal potentials: nonnegative perturbations vanishing on a closed core curve.

phi(x) = eps * min(d(x, core), r_plateau)^k with d the exact torus distance
to a polyline core (point-segment distances over the 3^dim winding lifts).
Powers k >= 2 make the gradient vanish on the core, so core orbits of the
Euler-Lagrange flow survive the perturbation, while the critical value can
only decrease: c(L + phi) <= c(L).
"""

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .action import _action_value_grad, _lift, _split, critical_value
from .fields import SumField
from .lagrangian import MechanicalLagrangian
from .torus import grid, wrap


class DimMismatch(ValueError):
    """Canal core and Lagrangian live on different tori."""


class CanalPotential:
    """eps * min(d(x, core), plateau)^k around a polyline core on T^dim.

    The core is a vertex list with integer winding offsets per segment
    (single vertex with a zero wind: a point core, stored as one segment of
    length 0; single vertex with a nonzero wind: a closed winding loop).
    """

    def __init__(self, core, eps, k=2, plateau=None, winds=None, closed=True):
        core = wrap(np.atleast_2d(core))
        self.core = core
        self.dim = core.shape[1]
        self.eps = float(eps)
        self.k = int(k)
        self.plateau = None if plateau is None else float(plateau)
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.k < 2:
            raise ValueError("exponent k must be >= 2 for a C^1 perturbation")
        m = len(core)
        n_segs = m if closed or m == 1 else m - 1
        if winds is None:
            winds = np.zeros((n_segs, self.dim), dtype=int)
        winds = np.atleast_2d(np.asarray(winds, dtype=int))
        if winds.shape != (n_segs, self.dim):
            raise ValueError("one winding vector per segment required")
        if np.any(np.abs(winds) > 1):
            raise ValueError("segment winds beyond +-1 exceed the 3^dim lift search")
        starts, ends = [], []
        for i in range(n_segs):
            a = core[i]
            b = core[(i + 1) % m] + winds[i]
            # split into short pieces recentered into [0,1): the 3^dim lift
            # search is then always exact
            pieces = max(int(np.ceil(2 * np.abs(b - a).max())), 1)
            cuts = np.linspace(0.0, 1.0, pieces + 1)
            for lo, hi in zip(cuts, cuts[1:]):
                pa, pb = a + lo * (b - a), a + hi * (b - a)
                shift = np.floor((pa + pb) / 2.0)
                starts.append(pa - shift)
                ends.append(pb - shift)
        self._seg_a = np.array(starts)
        self._seg_v = np.array(ends) - self._seg_a
        self._lifts = np.array(list(product((-1.0, 0.0, 1.0), repeat=self.dim)))

    def _distance_and_direction(self, x):
        """Torus distance to the core and the unit direction away from it."""
        x = wrap(np.atleast_2d(x))
        n = len(x)
        y = x[:, None, :] + self._lifts[None, :, :]      # (n, 3^d, d)
        rel = y[:, :, None, :] - self._seg_a[None, None, :, :]     # (n, L, S, d)
        vv = (self._seg_v * self._seg_v).sum(axis=1)               # (S,)
        # a segment of length 0 has t = 0, so its projection is its vertex exactly
        t = np.einsum("nlsd,sd->nls", rel, self._seg_v) / np.maximum(vv, 1e-300)
        t = np.clip(t, 0.0, 1.0)
        proj = self._seg_a[None, None] + t[..., None] * self._seg_v[None, None]
        diff = y[:, :, None, :] - proj
        dist = np.linalg.norm(diff, axis=-1)
        flat = dist.reshape(n, -1)
        best = np.argmin(flat, axis=1)
        d = flat[np.arange(n), best]
        away = diff.reshape(n, -1, x.shape[1])[np.arange(n), best]
        with np.errstate(invalid="ignore", divide="ignore"):
            unit = np.where(d[:, None] > 0, away / np.maximum(d[:, None], 1e-300), 0.0)
        return d, unit

    def distance(self, x):
        squeeze = np.asarray(x).ndim == 1
        d, _ = self._distance_and_direction(np.atleast_2d(x).reshape(-1, self.dim))
        return float(d[0]) if squeeze else d.reshape(np.asarray(x).shape[:-1])

    def __call__(self, x):
        x_arr = np.asarray(x, dtype=float)
        d, _ = self._distance_and_direction(x_arr.reshape(-1, self.dim))
        if self.plateau is not None:
            d = np.minimum(d, self.plateau)
        return (self.eps * d**self.k).reshape(x_arr.shape[:-1])

    def grad(self, x):
        x_arr = np.asarray(x, dtype=float)
        d, unit = self._distance_and_direction(x_arr.reshape(-1, self.dim))
        slope = self.eps * self.k * d ** (self.k - 1)
        if self.plateau is not None:
            slope = np.where(d < self.plateau, slope, 0.0)
        return (slope[:, None] * unit).reshape(x_arr.shape)

    def value_bounds(self):
        reach = 0.5 * np.sqrt(self.dim)
        if self.plateau is not None:
            reach = min(reach, self.plateau)
        return 0.0, self.eps * reach**self.k

    def core_samples(self, per_segment=64):
        """Points along the core (the vertex itself for a point core)."""
        if not self._seg_v.any():
            return self.core.copy()
        t = np.linspace(0.0, 1.0, per_segment, endpoint=False)
        pts = self._seg_a[:, None, :] + t[None, :, None] * self._seg_v[:, None, :]
        return wrap(pts.reshape(-1, self.dim))


def canal(cp: CanalPotential, x):
    """Evaluate the canal potential (module-level spelling of cp(x))."""
    val = cp(x)
    return float(val) if np.ndim(val) == 0 else val


def perturb(L: MechanicalLagrangian, cp: CanalPotential):
    """L + phi as a Lagrangian: the potential energy drops to U - phi."""
    if L.dim != cp.dim:
        raise DimMismatch(f"Lagrangian on T^{L.dim}, canal on T^{cp.dim}")
    return MechanicalLagrangian(L.dim, SumField([(1.0, L.potential), (-1.0, cp)]),
                                L.oneform)


def core_force_residual(L: MechanicalLagrangian, cp: CanalPotential, per_segment=256):
    """Extra force the perturbation exerts along the core (must vanish, k >= 2)."""
    pts = cp.core_samples(per_segment)
    return float(np.max(np.linalg.norm(cp.grad(pts), axis=-1)))


@dataclass
class CanalExperimentConfig:
    tolerance: float = 2e-2
    seed: int = 0
    n_random_loops: int = 300


def _loop_candidates(dim, rng, n_random, t_choices, grid_n=64):
    """(cover knots, duration) of constant loops on a grid, then of
    null-homologous random-waypoint loops in draw order."""
    mesh = grid(grid_n, dim)
    loops = [(np.vstack([x, x]), 1.0) for x in mesh[::max(len(mesh) // 256, 1)]]
    for _ in range(n_random):
        X = rng.random((int(rng.integers(3, 6)), dim))
        loops.append((np.vstack([X, X[:1]]), float(rng.choice(t_choices))))
    return loops


def experiment_localization(L: MechanicalLagrangian, cp: CanalPotential,
                            config: CanalExperimentConfig = None):
    """Perturb, re-estimate the critical value, and watch where low-action
    loops live relative to the canal core.

    Guarantees in the report: the monotonicity c(L+phi) <= c(L) + tol is
    checked (and must hold: phi >= 0); the localization of minimizing
    loops near the core is reported, not asserted.
    """
    config = config or CanalExperimentConfig()
    L_pert = perturb(L, cp)
    c_base = critical_value(L)
    c_pert = critical_value(L_pert)
    monotone = c_pert <= c_base + config.tolerance
    if not monotone:
        raise RuntimeError(f"monotonicity violated: c(L+phi)={c_pert} > c(L)={c_base}")

    rng = np.random.default_rng(config.seed)
    loops = _loop_candidates(L.dim, rng, config.n_random_loops, np.geomspace(0.5, 8.0, 5))
    # one batch per knot count: normalized actions, largest core distances
    actions, dists = np.empty(len(loops)), np.empty(len(loops))
    sizes = np.array([len(X) for X, _ in loops])
    for n in np.unique(sizes):
        idx = np.flatnonzero(sizes == n)
        X = _lift(*_split(np.array([loops[i][0] for i in idx])))
        T = np.array([loops[i][1] for i in idx])
        actions[idx] = _action_value_grad(L_pert, X, T, c_pert, need_grad=False)[0] / T
        dists[idx] = cp.distance(wrap(X)).max(axis=1)
    # radius where the canal exceeds the critical-value resolution
    near_r = min((1e-2 / cp.eps) ** (1.0 / cp.k), 0.45 * np.sqrt(cp.dim))
    on = dists <= near_r
    best = int(np.argmin(actions))       # the first least action in sample order
    best_on = float(actions[on].min()) if on.any() else None
    best_off = float(actions[~on].min()) if not on.all() else None
    report = {
        "c_base": c_base,
        "c_perturbed": c_pert,
        "monotone": bool(monotone),
        "core_force_residual": core_force_residual(L, cp),
        "near_core_radius": near_r,
        "best_loop_action": float(actions[best]),
        "best_loop_core_distance": float(dists[best]),
        "best_on_core_action": best_on,
        "best_off_core_action": best_off,
        "localized": bool(dists[best] <= near_r),
    }
    if best_on is not None and best_off is not None:
        report["action_gap_off_minus_on"] = best_off - best_on
    return report
