"""Helpers that only the tests call: two CSV writers that feed the readers,
the discrete Euler-Lagrange residual of a path, the numpy Euler-Lagrange
vector field the flow tests step as their reference, the roof crossings of a
suspension flow that `LiftedMeasure.integrate` takes as breakpoints, and the
eigencomponents of jumps and the shadowing corrections of them given as
arrays."""

import numpy as np

from torusdyn.action import BrokenPath, _action_value_grad
from torusdyn.config import format_csv
from torusdyn.entropy import LabeledOrbitEnsemble
from torusdyn.hyperbolic import ToralAutomorphism, _scan_corrections
from torusdyn.fields import OneForm
from torusdyn.lagrangian import MechanicalLagrangian
from torusdyn.suspension import CeilingFunction, SymbolWindow


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


def el_residual(L: MechanicalLagrangian, p: BrokenPath):
    """Sup norm of the discrete Euler-Lagrange equations at interior knots
    (k drops out: k T is constant in the knots)."""
    X = p.cover_knots()
    if len(X) < 3:
        return 0.0
    dt = p.T / (len(X) - 1)
    _, grad = _action_value_grad(L, X[None], p.T, 0.0)
    return float(np.abs(grad[0, 1:-1]).max() / dt)


def force(L: MechanicalLagrangian, x):
    return -L.potential.grad(x)


def curl2(eta: OneForm, x):
    """d eta = (d1 eta_2 - d2 eta_1) dx1^dx2 on T^2."""
    if eta.dim != 2:
        raise ValueError("curl2 needs dim 2")
    j = eta.jacobian(x)
    return j[..., 1, 0] - j[..., 0, 1]


def acceleration(L: MechanicalLagrangian, x, v):
    """-grad U, plus b J v on T^2 with b = d eta the magnetic field."""
    acc = force(L, x)
    if not L.is_mechanical():
        b = curl2(L.oneform, x)[..., None]
        acc = acc + b * np.stack([v[..., 1], -v[..., 0]], axis=-1)
    return acc


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
