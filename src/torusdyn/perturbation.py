"""Canal potentials: nonnegative perturbations vanishing on a closed core curve.

phi(x) = eps * min(d(x, core), r_plateau)^k with d the exact torus distance
to a polyline core (point-segment distances over the 3^dim winding lifts).
Powers k >= 2 make the gradient vanish on the core, so core orbits of the
Euler-Lagrange flow survive the perturbation, while the critical value can
only decrease: c(L + phi) <= c(L).
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

from .action import NegativeLoopSearch, critical_value
from .fields import SumField
from .lagrangian import MechanicalLagrangian
from .torus import wrap


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
        if not 0 < self.eps < np.inf:
            raise ValueError(f"eps must be positive and finite, got {self.eps!r}")
        if self.plateau is not None and not 0 < self.plateau < np.inf:
            raise ValueError(f"plateau must be positive and finite, got {self.plateau!r}")
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


def perturb(L: MechanicalLagrangian, cp: CanalPotential):
    """L + phi as a Lagrangian: the potential energy drops to U - phi."""
    if L.dim != cp.dim:
        raise DimMismatch(f"Lagrangian on T^{L.dim}, canal on T^{cp.dim}")
    return MechanicalLagrangian(L.dim, SumField([(1.0, L.potential), (-1.0, cp)]),
                                L.oneform)


_RESIDUAL_SAMPLES = 256     # core samples per segment that `core_force_residual` checks


def core_force_residual(L: MechanicalLagrangian, cp: CanalPotential):
    """Extra force the perturbation exerts along the core (must vanish, k >= 2)."""
    pts = cp.core_samples(_RESIDUAL_SAMPLES)
    return float(np.max(np.linalg.norm(cp.grad(pts), axis=-1)))


@dataclass
class CanalExperimentConfig:
    tolerance: float = 2e-2


def experiment_localization(L: MechanicalLagrangian, cp: CanalPotential,
                            config: CanalExperimentConfig = None):
    """Perturb, re-estimate the critical value, and report where the loop
    that certifies c(L + phi) lies relative to the canal core.

    The loop is `NegativeLoopSearch(L + phi).best_loop()`, the one
    `critical_value` reads c(L + phi) off: the constant loop at the maximum
    of U - phi, or a refined winding or battery loop when c(L + phi) exceeds
    that maximum.  Its core distance is the largest over its knots.
    Guarantees in the report: the monotonicity c(L+phi) <= c(L) + tol is
    checked (and must hold: phi >= 0); the localization is reported, not
    asserted.
    """
    config = config or CanalExperimentConfig()
    search = NegativeLoopSearch(perturb(L, cp))
    c_base = critical_value(L)
    c_pert = critical_value(search.L, search=search)
    monotone = c_pert <= c_base + config.tolerance
    if not monotone:
        raise RuntimeError(f"monotonicity violated: c(L+phi)={c_pert} > c(L)={c_base}")
    _, X = search.best_loop()
    dist = float(np.max(cp.distance(search.x_max if X is None else X)))
    # radius where the canal exceeds the critical-value resolution
    near_r = min((1e-2 / cp.eps) ** (1.0 / cp.k), 0.45 * np.sqrt(cp.dim))
    return {
        "c_base": c_base,
        "c_perturbed": c_pert,
        "monotone": bool(monotone),
        "core_force_residual": core_force_residual(L, cp),
        "near_core_radius": near_r,
        "best_loop_core_distance": dist,
        "localized": bool(dist <= near_r),
    }
