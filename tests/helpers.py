"""Helpers that only the tests call: two CSV writers that feed the readers,
the value of a Lagrangian and the sample times of a trajectory, the discrete
Euler-Lagrange residual of a path, the numpy Euler-Lagrange vector field the
flow tests step as their reference and the Jacobian of a one-form it reads,
the canal potential as it evaluated every lifted piece of its core at once,
the roof crossings of a suspension flow where the flow-invariance tests
split their panels, and the eigencomponents of jumps and the shadowing
corrections of them given as arrays."""

import numpy as np

from torusdyn.action import BrokenPath, _path_action
from torusdyn.config import format_csv
from torusdyn.entropy import LabeledOrbitEnsemble
from torusdyn.hyperbolic import ToralAutomorphism, _scan_corrections
from torusdyn.fields import OneForm
from torusdyn.lagrangian import MechanicalLagrangian, Trajectory
from torusdyn.perturbation import CanalPotential
from torusdyn.suspension import CeilingFunction, SymbolWindow
from torusdyn.torus import wrap


def format_polyline_csv(verts, winds=None):
    verts = np.atleast_2d(verts).astype(float)
    header, rows = [f"x{i+1}" for i in range(verts.shape[1])], verts.tolist()
    if winds is not None:
        header += [f"w{i+1}" for i in range(verts.shape[1])]
        rows = [v + w for v, w in zip(rows, np.asarray(winds).astype(int).tolist())]
    return format_csv(header, rows)


def ensemble_to_csv(F: LabeledOrbitEnsemble):
    header = ["orbit", "step"] + [f"x{i+1}" for i in range(F.orbits.shape[2])]
    pts = F.orbits.tolist()
    return format_csv(header, ([o, s - F.origin] + pts[o][s]
                               for o in range(F.n_orbits) for s in range(F.n_steps)))


def lagrangian(L: MechanicalLagrangian, x, v):
    """L(x, v) = |v|^2/2 + eta(x).v - U(x) at points x and velocities v."""
    x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
    kin = 0.5 * (v * v).sum(axis=-1)
    mag = 0.0 if L.oneform.is_zero() else (L.oneform(x) * v).sum(axis=-1)
    return kin + mag - L.potential(x)


def times(traj: Trajectory):
    """The sample times 0, dt, 2 dt, ... of a trajectory."""
    return traj.dt * np.arange(len(traj))


def el_residual(L: MechanicalLagrangian, p: BrokenPath):
    """Sup norm of the discrete Euler-Lagrange equations at interior knots
    (k drops out: k T is constant in the knots)."""
    X = p.cover_knots()
    if len(X) < 3:
        return 0.0
    dt = p.T / (len(X) - 1)
    grad = _path_action(L, X[None], 0.0, p.T)[2](1.0 / p.T, -p.T, 1.0)
    return float(np.abs(grad[0, 1:-1]).max() / dt)


def force(L: MechanicalLagrangian, x):
    return -L.potential.grad(x)


def jacobian(eta: OneForm, x):
    """J[..., i, j] = d eta_i / d x_j."""
    return np.stack([c.grad(x) for c in eta.components], axis=-2)


def curl2(eta: OneForm, x):
    """d eta = (d1 eta_2 - d2 eta_1) dx1^dx2 on T^2."""
    if eta.dim != 2:
        raise ValueError("curl2 needs dim 2")
    j = jacobian(eta, x)
    return j[..., 1, 0] - j[..., 0, 1]


def acceleration(L: MechanicalLagrangian, x, v):
    """-grad U, plus b J v on T^2 with b = d eta the magnetic field."""
    acc = force(L, x)
    if not L.is_mechanical():
        b = curl2(L.oneform, x)[..., None]
        acc = acc + b * np.stack([v[..., 1], -v[..., 0]], axis=-1)
    return acc


class BroadcastCanal(CanalPotential):
    """`CanalPotential` evaluated with every point against every lifted piece
    of the core at once, in (n, 3^d, S, d) arrays: the kernel and the three
    evaluations that read it as they were before the running minimum."""

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


def roof_crossings(w: SymbolWindow, t, tau: CeilingFunction):
    """Heights s in (0, tau(w)) where the time-t flow of (w, s) crosses a roof.

    These are the kinks of s -> suspend_flow((w, s), t); integrands composed
    with the flow are smooth between consecutive crossings.
    """
    top = tau(w)
    pts = []
    if t > 0:
        cum, base = 0.0, w
        while True:
            cum += tau(base)
            s = cum - t
            if s >= top:
                break
            if s > 0.0:
                pts.append(s)
            base = base.shift(1)
    elif t < 0:
        cum, base = 0.0, w
        while True:
            s = cum - t  # crossing below height 0 after j backward shifts
            if s <= 0.0:
                break
            if s < top:
                pts.append(s)
            base = base.shift(-1)
            cum -= tau(base)
    return sorted(pts)


def components(tm: ToralAutomorphism, vec):
    """Coordinates (stable, unstable) of displacement vectors."""
    out = np.asarray(vec, dtype=float) @ tm._basis_inv.T
    return out[..., 0], out[..., 1]


def _corrections(tm: ToralAutomorphism, es, eu):
    """Corrections (a, b), each (rows, n + 1), for rows of stable/unstable jump
    components (rows, n): `_scan_corrections` on arrays."""
    es, eu = np.atleast_2d(es), np.atleast_2d(eu)

    def part(r, s0, s1, out):
        out[0], out[1] = es[r, s0:s1], eu[r, s0:s1]

    a, b = _scan_corrections(tm, *es.shape, part)
    return a.T, b.T
