"""Mechanical Lagrangians L(x,v) = |v|^2/2 + eta(x).v - U(x) on the torus.

The fiber Hessian is the identity (convexity constant 1), the energy
E = |v|^2/2 + U(x) is conserved by the Euler-Lagrange flow, and the
magnetic one-form eta only bends trajectories through its exterior
derivative.  Integrators: Stormer-Verlet and its 4th-order composition
for the purely mechanical case, a classical one-step RK4 otherwise.

`el_flow` steps one point, so it runs on Python floats: it builds one
acceleration closure per call and each integrator is one scalar loop.
The closure takes one gradient closure g(x0, x1) -> (g0, g1) per field,
on T^1 as on T^2: `point_grad` when U and the active components of eta
all have it (Fourier series, or wrappers forwarding to them), which sums
their modes with math.sin/math.cos; otherwise numpy `grad` on one point
for every field (sums, canal potentials, user fields).
"""

from dataclasses import dataclass
from math import isfinite, isnan

import numpy as np

from .fields import FourierSeries, OneForm
from .torus import wrap

# 4th-order triple-jump composition coefficients for Verlet substeps
_YOSHIDA_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_YOSHIDA = (_YOSHIDA_W1, 1.0 - 2.0 * _YOSHIDA_W1, _YOSHIDA_W1)


class NonFiniteState(FloatingPointError):
    """The integrated state left the finite floats."""


class InvalidBound(ValueError):
    """Speed-bound hypothesis class is empty for the given action level."""


@dataclass(frozen=True)
class PhaseState:
    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", wrap(self.x))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        if self.x.shape != self.v.shape:
            raise ValueError("position/velocity shape mismatch")


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled flow segment; positions stored mod 1."""

    dt: float
    xs: np.ndarray          # (n, d)
    vs: np.ndarray          # (n, d)

    def __post_init__(self):
        if len(self.xs) < 2:
            raise ValueError("a trajectory needs at least two samples")

    def __len__(self):
        return len(self.xs)

    @property
    def times(self):
        return self.dt * np.arange(len(self))


@dataclass(frozen=True)
class MechanicalLagrangian:
    """L(x, v) = |v|^2/2 + eta(x).v - U(x) on T^dim, dim in {1, 2}."""

    dim: int
    potential: object = None          # scalar field U
    oneform: OneForm = None           # covector field eta

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if self.potential is None:
            object.__setattr__(self, "potential", FourierSeries(self.dim))
        if self.oneform is None:
            object.__setattr__(self, "oneform", OneForm.zero(self.dim))
        if getattr(self.potential, "dim", self.dim) != self.dim or self.oneform.dim != self.dim:
            raise ValueError("field dimension mismatch")

    def lagrangian(self, x, v):
        x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
        kin = 0.5 * (v * v).sum(axis=-1)
        mag = 0.0 if self.oneform.is_zero() else (self.oneform(x) * v).sum(axis=-1)
        return kin + mag - self.potential(x)

    def is_mechanical(self):
        """True when the magnetic term cannot bend trajectories."""
        return self.dim == 1 or self.oneform.is_zero()


def energy(L: MechanicalLagrangian, s: PhaseState):
    """E = dL/dv . v - L = |v|^2/2 + U(x); the magnetic term cancels."""
    return float(0.5 * (s.v * s.v).sum() + L.potential(s.x))


def _point_acceleration(L):
    """acc(x0, x1, v0, v1) -> (a0, a1) on Python floats; x1 = v1 = 0 on T^1.

    One gradient source per Lagrangian: each field's `point_grad` (Fourier
    series, and wrappers forwarding to one), or numpy `grad` on one point
    for every field when any field lacks it; mixing the two would sum
    modes in two orders.  Then one closure per force law: -grad U, and on
    T^2 with an active eta the magnetic law.
    """
    magnetic = not L.is_mechanical()
    fields = [L.potential] + (L.oneform.components if magnetic else [])
    if all(hasattr(f, "point_grad") for f in fields):
        grad_u, *grad_eta = (f.point_grad() for f in fields)
    else:
        def numpy_grad(f):
            return lambda x0, x1: (*f.grad(np.array([x0, x1][:L.dim])).tolist(), 0.0)[:2]
        grad_u, *grad_eta = (numpy_grad(f) for f in fields)
    if not magnetic:
        def acc(x0, x1, v0, v1):
            g0, g1 = grad_u(x0, x1)
            return -g0, -g1
        return acc
    grad_e1, grad_e2 = grad_eta

    def acc(x0, x1, v0, v1):
        g0, g1 = grad_u(x0, x1)
        b = grad_e2(x0, x1)[0] - grad_e1(x0, x1)[1]
        return -g0 + b * v1, -g1 + b * -v0
    return acc


# The loops below step a 2-D state (a zero second coordinate on T^1) in a
# fixed order of operations, v + (h/2) F then x + h vh, and RK4's
# ((k1 + 2 k2) + 2 k3) + k4, which tests/golden/el_flow_digests.json pins
# bit for bit.  Each returns the (n + 1, 4) rows x0, x1, v0, v1 with
# positions unwrapped, and stops before the first non-finite state.

def _splitting(weights):
    """Kick-drift-kick loop over substeps w dt, w in `weights`: Verlet for
    (1.0,), whose substep w dt = dt and 0.5 (w dt) = dt / 2 are exact."""
    def integrate(acc, x0, x1, v0, v1, dt, n):
        rows = [(x0, x1, v0, v1)]
        subs = [(w * dt, 0.5 * (w * dt)) for w in weights]
        a0, a1 = acc(x0, x1, v0, v1)
        for _ in range(n):
            for h, half in subs:
                vh0, vh1 = v0 + half * a0, v1 + half * a1
                x0, x1 = x0 + h * vh0, x1 + h * vh1
                a0, a1 = acc(x0, x1, vh0, vh1)
                v0, v1 = vh0 + half * a0, vh1 + half * a1
            if not (isfinite(x0) and isfinite(x1) and isfinite(v0) and isfinite(v1)):
                break
            rows.append((x0, x1, v0, v1))
        return rows
    return integrate


def _rk4(acc, x0, x1, v0, v1, dt, n):
    rows = [(x0, x1, v0, v1)]
    half, sixth = 0.5 * dt, dt / 6.0
    for _ in range(n):
        k1v0, k1v1 = acc(x0, x1, v0, v1)
        k2x0, k2x1 = v0 + half * k1v0, v1 + half * k1v1
        k2v0, k2v1 = acc(x0 + half * v0, x1 + half * v1, k2x0, k2x1)
        k3x0, k3x1 = v0 + half * k2v0, v1 + half * k2v1
        k3v0, k3v1 = acc(x0 + half * k2x0, x1 + half * k2x1, k3x0, k3x1)
        k4x0, k4x1 = v0 + dt * k3v0, v1 + dt * k3v1
        k4v0, k4v1 = acc(x0 + dt * k3x0, x1 + dt * k3x1, k4x0, k4x1)
        x0 = x0 + sixth * (v0 + 2.0 * k2x0 + 2.0 * k3x0 + k4x0)
        x1 = x1 + sixth * (v1 + 2.0 * k2x1 + 2.0 * k3x1 + k4x1)
        v0 = v0 + sixth * (k1v0 + 2.0 * k2v0 + 2.0 * k3v0 + k4v0)
        v1 = v1 + sixth * (k1v1 + 2.0 * k2v1 + 2.0 * k3v1 + k4v1)
        if not (isfinite(x0) and isfinite(x1) and isfinite(v0) and isfinite(v1)):
            break
        rows.append((x0, x1, v0, v1))
    return rows


_INTEGRATORS = {"verlet": _splitting((1.0,)), "yoshida4": _splitting(_YOSHIDA), "rk4": _rk4}


def el_flow(L: MechanicalLagrangian, s0: PhaseState, T, dt, integrator=None):
    """Integrate the Euler-Lagrange flow for time T with step dt.

    Defaults to the symplectic 4th-order Verlet composition when the
    magnetic term is inert, otherwise RK4 (the velocity-dependent force
    breaks the kick-drift splitting).  Steps run on Python floats through
    one acceleration closure (see `_point_acceleration`).
    """
    if not (isfinite(T) and isfinite(dt)):
        raise ValueError(f"T and dt must be finite, got T={T!r}, dt={dt!r}")
    if dt <= 0 or T < dt:
        raise ValueError("need dt > 0 and T >= dt")
    if integrator is None:
        integrator = "yoshida4" if L.is_mechanical() else "rk4"
    if integrator not in _INTEGRATORS:
        raise ValueError(f"unknown integrator {integrator!r}, "
                         f"expected one of {', '.join(sorted(_INTEGRATORS))}")
    if integrator in ("verlet", "yoshida4") and not L.is_mechanical():
        raise ValueError("Verlet splitting needs an inert magnetic term")
    if s0.x.shape != (L.dim,):
        raise ValueError(f"state of shape {s0.x.shape} on T^{L.dim}")
    if not (np.isfinite(s0.x).all() and np.isfinite(s0.v).all()):
        raise NonFiniteState("non-finite initial state")
    x0, x1 = (*s0.x.tolist(), 0.0)[:2]
    v0, v1 = (*s0.v.tolist(), 0.0)[:2]
    n = int(round(T / dt))
    rows = _INTEGRATORS[integrator](_point_acceleration(L), x0, x1, v0, v1, dt, n)
    if len(rows) <= n:
        raise NonFiniteState(f"the state left the finite floats at step {len(rows)} of {n}")
    out = np.array(rows)
    return Trajectory(dt=dt, xs=wrap(out[:, :L.dim]), vs=out[:, 2:2 + L.dim].copy())


def apriori_speed_bound(L: MechanicalLagrangian, C):
    """Speed bound A0 for EL solutions with mean action below C.

    Chain: superlinearity constant B with L > |v| - B gives a time with
    |v| <= B + C; the energy is then at most max U + (B+C)^2/2, and the
    conserved-energy lower bound E >= min U + |v|^2/2 caps the speed.
    All potential bounds are rigorous coefficient-sum bounds.
    """
    if isnan(C):
        raise ValueError("the mean action level C is NaN")
    u_lo, u_hi = L.potential.value_bounds()
    eta_sup = L.oneform.sup_norm_bound()
    inf_l = -(u_hi + 0.5 * eta_sup**2)   # fiberwise minimum of L, minimized over x
    if C <= inf_l:
        raise InvalidBound(f"mean action below inf L = {inf_l:.6g}: no such orbits")
    b = 0.5 * (1.0 + eta_sup) ** 2 + u_hi
    speed_at_mean = b + C
    energy_cap = u_hi + 0.5 * speed_at_mean**2
    return float(np.sqrt(2.0 * (energy_cap - u_lo)))
