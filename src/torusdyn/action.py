"""Discretized action functionals and the critical-value machinery.

Curves are broken paths: uniformly-timed knots on the torus with integer
winding offsets per segment, evaluated by Gauss-Legendre quadrature of
k + L along the linear interpolant in the universal cover.  Fixed-endpoint
minimizers come from quasi-Newton descent on the knots across winding
classes; the action potential takes the minimum over a log grid of
durations, watching for closed loops of negative action, whose existence
marks the sub-critical regime and is certified by the loop itself.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .fields import grid_extremum
from .lagrangian import MechanicalLagrangian


class NoConvergence(RuntimeError):
    """Minimizer stopped above the residual target; carries the best iterate."""

    def __init__(self, msg, path=None, residual=None):
        super().__init__(msg)
        self.path = path
        self.residual = residual


class BudgetExceeded(RuntimeError):
    """No negative-loop bracket found within the search budget."""


class BelowCritical(ValueError):
    """Action potential diverged to -infinity where a finite value was needed."""


def _mod1(x):
    """x mod 1 landing strictly in [0, 1) (N % 1.0 can return exactly 1.0)."""
    y = np.asarray(x, dtype=float) % 1.0
    return np.where(y >= 1.0, 0.0, y)


def _split(X):
    """Torus knots and segment windings of cover knots X (..., n, d)."""
    knots = _mod1(X)
    return knots, np.rint(np.diff(X, axis=-2) - np.diff(knots, axis=-2))


def _lift(knots, winds):
    """Cover knots from torus knots (..., n, d) and segment windings (..., n-1, d)."""
    steps = np.diff(knots, axis=-2) + winds
    start = np.zeros_like(knots[..., :1, :])
    return knots[..., :1, :] + np.concatenate([start, np.cumsum(steps, axis=-2)], axis=-2)


@dataclass(frozen=True)
class BrokenPath:
    """Piecewise-linear path: torus knots, per-segment winding offsets, total time."""

    knots: np.ndarray     # (n, d) in [0, 1)
    winds: np.ndarray     # (n-1, d) integers
    T: float

    def __post_init__(self):
        object.__setattr__(self, "knots", _mod1(np.atleast_2d(np.asarray(self.knots, dtype=float))))
        object.__setattr__(self, "winds", np.atleast_2d(np.asarray(self.winds, dtype=int)))
        if len(self.knots) < 2:
            raise ValueError("a path needs at least two knots")
        if self.winds.shape != (len(self.knots) - 1, self.knots.shape[1]):
            raise ValueError("winding offsets must be one integer vector per segment")
        if self.T <= 0:
            raise ValueError("total time must be positive")

    @property
    def n_knots(self):
        return len(self.knots)

    @property
    def dim(self):
        return self.knots.shape[1]

    def cover_knots(self):
        """Lift to the universal cover starting at the first knot."""
        return _lift(self.knots, self.winds)

    @classmethod
    def from_cover(cls, X, T):
        knots, winds = _split(np.atleast_2d(np.asarray(X, dtype=float)))
        return cls(knots, winds.astype(int), T)

    @classmethod
    def constant(cls, x, T):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return cls(np.vstack([x, x]), np.zeros((1, len(x)), dtype=int), T)

    def total_winding(self):
        return self.winds.sum(axis=0)


@dataclass(frozen=True)
class ActionValue:
    """Finite potential value, or the minus-infinity sentinel with its witness."""

    value: float
    certificate: BrokenPath = None

    def __post_init__(self):
        if self.value is None and self.certificate is None:
            raise ValueError("unbounded value requires a certificate loop")

    @property
    def is_minus_infinity(self):
        return self.value is None


_GL_CACHE = {}


def _gl_nodes(n):
    if n not in _GL_CACHE:
        x, w = np.polynomial.legendre.leggauss(n)
        _GL_CACHE[n] = ((x + 1) / 2.0, w / 2.0)   # mapped to [0, 1]
    return _GL_CACHE[n]


def _action_value_grad(L: MechanicalLagrangian, X, T, k, n_quad=8, need_grad=True):
    """Actions of a batch of cover paths X (B, n, d) with durations T, plus
    their gradients in the knots.

    Every operation acts on each batch row alone, so a path's value and
    gradient do not depend on the rest of its batch.
    """
    n = X.shape[1]
    dt = np.broadcast_to(np.asarray(T, dtype=float), X.shape[:1]) / (n - 1)   # (B,)
    s, w = _gl_nodes(n_quad)
    disp = np.diff(X, axis=1)                      # (B, n-1, d)
    v = disp / dt[:, None, None]
    pts = X[:, :-1, None, :] + s[None, None, :, None] * disp[:, :, None, :]   # (B, n-1, q, d)
    u_vals = L.potential(pts)
    kin = 0.5 * (v * v).sum(axis=2)
    per_seg = kin + k - u_vals @ w
    magnetic = not L.oneform.is_zero()
    if magnetic:
        eta = L.oneform(pts)
        per_seg = per_seg + np.einsum("biqd,q,bid->bi", eta, w, v)
    value = dt * per_seg.sum(axis=1)
    if not need_grad:
        return value, None
    grad = np.zeros_like(X)
    # velocity part: +-sum_q w_q (v + eta)
    gvel = v.copy()
    if magnetic:
        gvel = gvel + np.einsum("biqd,q->bid", eta, w)
    grad[:, :-1] -= gvel
    grad[:, 1:] += gvel
    # position part: dt * sum_q w_q weight(s_q) (D eta^T v - grad U)
    gpos = -L.potential.grad(pts)
    if magnetic:
        jac = L.oneform.jacobian(pts)
        gpos = gpos + np.einsum("biqmd,bim->biqd", jac, v)
    left = dt[:, None, None] * np.einsum("biqd,q->bid", gpos, w * (1 - s))
    right = dt[:, None, None] * np.einsum("biqd,q->bid", gpos, w * s)
    grad[:, :-1] += left
    grad[:, 1:] += right
    return value, grad


def action(L: MechanicalLagrangian, p: BrokenPath, k, n_quad=8):
    """Composite quadrature of k + L along the path; exact on free segments."""
    value, _ = _action_value_grad(L, p.cover_knots()[None], p.T, k, n_quad, need_grad=False)
    return float(value[0])


def el_residual(L: MechanicalLagrangian, p: BrokenPath, k=0.0, n_quad=8):
    """Sup norm of the discrete Euler-Lagrange equations at interior knots."""
    X = p.cover_knots()
    if len(X) < 3:
        return 0.0
    dt = p.T / (len(X) - 1)
    _, grad = _action_value_grad(L, X[None], p.T, k, n_quad)
    return float(np.abs(grad[0, 1:-1]).max() / dt)


def _minimize_knots(L, x_from, disp, T, n_knots, k=0.0, n_quad=8, maxiter=400,
                    x_init=None, residual_target=1e-6):
    """Descend the action over interior knots of the straight-line seed."""
    d = len(x_from)
    line = np.linspace(0.0, 1.0, n_knots)[:, None]
    X0 = x_init if x_init is not None else x_from + line * disp
    shape = (n_knots - 2, d)
    dt = T / (n_knots - 1)

    def fun(z):
        X = np.vstack([X0[:1], z.reshape(shape) + 0.0, X0[-1:]])
        val, grad = _action_value_grad(L, X[None], T, k, n_quad)
        return float(val[0]), grad[0, 1:-1].ravel()

    z = X0[1:-1].ravel()
    val = res_grad = None
    for _ in range(3):   # restarts reset the quasi-Newton memory near stalls
        res = minimize(fun, z, jac=True, method="L-BFGS-B",
                       options={"maxiter": maxiter, "ftol": 1e-16, "gtol": 1e-12})
        z, val, res_grad = res.x, float(res.fun), np.abs(res.jac).max()
        if res_grad / dt <= 0.2 * residual_target:
            break
    if res_grad / dt > 0.2 * residual_target:
        # Newton polish of the stationarity system; hessp by differencing
        # the analytic gradient
        def hessp(p, v):
            eps = 1e-6 / max(np.abs(v).max(), 1e-12)
            return (fun(p + eps * v)[1] - fun(p - eps * v)[1]) / (2 * eps)

        res = minimize(fun, z, jac=True, hessp=hessp, method="Newton-CG",
                       options={"maxiter": 50, "xtol": 1e-14})
        if np.abs(res.jac).max() <= res_grad:
            z, val, res_grad = res.x, float(res.fun), np.abs(res.jac).max()
    X = np.vstack([X0[:1], z.reshape(shape), X0[-1:]])
    return BrokenPath.from_cover(X, T), val, float(res_grad / dt)


def _winding_classes(dim, w_max):
    from itertools import product

    classes = sorted(product(range(-w_max, w_max + 1), repeat=dim),
                     key=lambda w: (sum(abs(c) for c in w), w))
    return [np.array(w, dtype=float) for w in classes]


def default_knot_count(T):
    """Knot budget growing with duration, capped to keep descent cheap."""
    return int(np.clip(int(8 * T) + 7, 9, 97))


def tonelli_minimizer(L: MechanicalLagrangian, x, y, T, n_knots=None, w_max=3,
                      residual_tol=1e-6, maxiter=400, n_quad=8):
    """Fixed-endpoint, fixed-time local action minimizer across winding classes.

    Raises NoConvergence (carrying the best iterate and its residual) when
    the discrete Euler-Lagrange residual stays above `residual_tol`.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float)) % 1.0
    y = np.atleast_1d(np.asarray(y, dtype=float)) % 1.0
    if n_knots is None:
        n_knots = default_knot_count(T)
    if n_knots < 3:
        raise ValueError("need at least 3 knots")
    base = (y - x + 0.5) % 1.0 - 0.5
    u_lo, u_hi = L.potential.value_bounds()
    best = None
    for wind in _winding_classes(L.dim, w_max):
        disp = base + wind
        lower = (disp @ disp) / (2 * T) - u_hi * T
        if best is not None and lower > best[1] + 1e-9:
            continue
        path, val, res = _minimize_knots(L, x, disp, T, n_knots, 0.0, n_quad, maxiter)
        if best is None or val < best[1]:
            best = (path, val, res)
    path, val, res = best
    if res > residual_tol:
        raise NoConvergence(f"residual {res:.2e} above {residual_tol:.0e}", path, res)
    return path


def duration_grid(t_min=0.05, t_max=50.0, count=40):
    return np.geomspace(t_min, t_max, count)


class NegativeLoopSearch:
    """Closed-loop battery certifying the sub-critical regime.

    Candidates: constant loops at sampled potential maxima (decisive for
    purely mechanical Lagrangians), action-minimized winding loops (the
    magnetic route), and random-waypoint loops, within an evaluation
    budget.  The library holds each loop's zero-level action and duration
    in two arrays, priced by one batched quadrature per knot count, so
    retesting at a new k is one vectorized multiply-add; a BrokenPath is
    built only for a loop that is returned or refined.

    A search belongs to one Lagrangian and also carries the k-independent
    Tonelli minimizers of `action_potential`, so potentials at several k
    that share it minimize each (x, y, T) once.
    """

    def __init__(self, L: MechanicalLagrangian, budget=10000, seed=0, w_max=2,
                 loop_t_grid=None, n_knots=33):
        self.L = L
        self.budget = budget
        _, _, self.u_max, self.x_max = grid_extremum(L.potential, L.dim)
        self.loop_t_grid = duration_grid(0.25, 32.0, 9) if loop_t_grid is None else loop_t_grid
        self.w_max = w_max
        self.n_knots = n_knots
        self._a0 = np.zeros(0)   # action at k=0, per library loop
        self._T = np.zeros(0)    # duration, per library loop
        self._loops = []         # BrokenPath, or the raw cover knots of a random loop
        self._tonelli = {}       # (x, y, T, w_max, n_quad) -> Tonelli minimizer
        self._seeded = False
        self._rng = np.random.default_rng(seed)
        self._purely_mechanical = L.oneform.is_zero()

    def _zero_level(self, X, T):
        """Actions at k=0 of the closed loops with cover knots X (B, n, d)."""
        return _action_value_grad(self.L, X, T, 0.0, need_grad=False)[0]

    def _seed_library(self, k_hint):
        d = self.L.dim
        # winding loops in every nonzero class, over the duration grid
        line = np.linspace(0, 1, self.n_knots)[:, None]
        loops = []
        for wind in _winding_classes(d, self.w_max):
            if not np.any(wind):
                continue
            for T in self.loop_t_grid:
                X = BrokenPath.from_cover(self.x_max + line * wind, T).cover_knots()
                p, _, _ = _minimize_knots(self.L, X[0], X[-1] - X[0], T, len(X), k_hint,
                                          x_init=X, maxiter=200)
                loops.append(p)
        # random-waypoint loops, drawn one at a time and priced per knot count
        n_random = max(self.budget - len(loops) - 512, 0)
        raw, T_random = [], np.empty(n_random)
        for i in range(n_random):
            m = int(self._rng.integers(3, 6))
            X = self._rng.random((m, d))
            raw.append(np.vstack([X, X[:1]]))
            T_random[i] = float(self._rng.choice(self.loop_t_grid))
        a0_random = np.empty(n_random)
        sizes = np.array([len(X) for X in raw], dtype=int)
        for n in np.unique(sizes):
            idx = np.flatnonzero(sizes == n)
            cover = _lift(*_split(np.stack([raw[i] for i in idx])))   # as from_cover lifts
            a0_random[idx] = self._zero_level(cover, T_random[idx])
        a0_wind = self._zero_level(np.stack([p.cover_knots() for p in loops]),
                                   np.array([p.T for p in loops])) if loops else np.zeros(0)
        self._a0 = np.concatenate([a0_wind, a0_random])
        self._T = np.concatenate([[p.T for p in loops], T_random])
        self._loops = loops + raw
        self._seeded = True

    def _loop(self, i):
        """Library loop i as a BrokenPath."""
        p = self._loops[i]
        return p if isinstance(p, BrokenPath) else BrokenPath.from_cover(p, float(self._T[i]))

    def find(self, k, refine=True):
        """A closed loop with negative (L + k)-action, or None at budget."""
        # constant loops: action (k - U(x)) T, decisive at the potential max
        if k < self.u_max - 1e-12:
            return BrokenPath.constant(self.x_max, 1.0)
        if self._purely_mechanical:
            # (L + k)-integrand is pointwise >= (|v| ... ) >= 0 once k >= max U
            return None
        if not self._seeded:
            self._seed_library(k)
        evals = self._a0 + k * self._T
        order = np.argsort(evals)
        if len(order) and evals[order[0]] < -1e-9:
            return self._loop(int(order[0]))
        if refine:
            for i in order[:4]:
                i = int(i)
                X = self._loop(i).cover_knots()
                p, val, _ = _minimize_knots(self.L, X[0], X[-1] - X[0], float(self._T[i]),
                                            len(X), k, x_init=X, maxiter=200)
                if val < -1e-9:
                    self._a0[i] = action(self.L, p, 0.0)
                    self._loops[i] = p
                    return p
        return None


def action_potential(L: MechanicalLagrangian, k, x, y, t_grid=None, w_max=3,
                     search: NegativeLoopSearch = None, n_quad=8, refine_steps=10):
    """Mane potential estimate: minimize (L+k)-action over duration and winding.

    Returns the minus-infinity sentinel with a certificate loop whenever
    the negative-loop search succeeds at this k.  Otherwise, when x = y
    mod 1 (up to rounding, 1e-12), returns exactly 0.0 without minimizing:
    with no negative loop Phi_k(x, x) >= 0, and constant curves of vanishing
    duration reach 0.

    The fixed-endpoint minimizers do not depend on k.  When `search`
    belongs to L, they are cached on it by (x, y, T, w_max, n_quad), so
    calls that share a search (as `potential_table` does across k) minimize
    each duration once and re-evaluate only the (L+k)-action of the path.
    """
    search = search if search is not None else NegativeLoopSearch(L)
    loop = search.find(k)
    if loop is not None:
        val = action(L, loop, k)
        if val < 0:
            return ActionValue(None, loop)
    x = np.atleast_1d(np.asarray(x, dtype=float)) % 1.0
    y = np.atleast_1d(np.asarray(y, dtype=float)) % 1.0
    if np.abs((y - x + 0.5) % 1.0 - 0.5).max() <= 1e-12:
        return ActionValue(0.0)
    grid = duration_grid() if t_grid is None else np.asarray(t_grid, dtype=float)
    cache = search._tonelli if search.L is L else {}

    def value_at(T):
        key = (tuple(x), tuple(y), float(T), w_max, n_quad)
        if key not in cache:
            try:
                cache[key] = tonelli_minimizer(L, x, y, T, w_max=w_max, n_quad=n_quad)
            except NoConvergence as nc:
                cache[key] = nc.path
        return action(L, cache[key], k, n_quad)

    vals = [value_at(T) for T in grid]
    i = int(np.argmin(vals))
    best_v = vals[i]
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    # golden-section refinement on log duration
    a, b = np.log(lo), np.log(hi)
    gr = (np.sqrt(5) - 1) / 2
    c, d = b - gr * (b - a), a + gr * (b - a)
    fc, fd = value_at(np.exp(c)), value_at(np.exp(d))
    for _ in range(refine_steps):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = value_at(np.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = value_at(np.exp(d))
    best_v = min(best_v, fc, fd)
    return ActionValue(float(best_v))


def critical_value(L: MechanicalLagrangian, tol=1e-2, search: NegativeLoopSearch = None,
                   max_doublings=60):
    """Bisection on k between a certified negative loop and the no-loop regime.

    The upper end starts at the rigorous bound max U + |eta|^2/2 above
    which the integrand of (L+k) is pointwise nonnegative.
    """
    search = search if search is not None else NegativeLoopSearch(L)
    u_lo, u_hi = L.potential.value_bounds()
    k_hi = u_hi + 0.5 * L.oneform.sup_norm_bound() ** 2 + 1e-9
    k_lo, step = None, 1.0
    probe = k_hi
    for _ in range(max_doublings):
        probe -= step
        step *= 2.0
        if search.find(probe) is not None:
            k_lo = probe
            break
    if k_lo is None:
        raise BudgetExceeded("no negative loop found above k_hi - 2^60")
    while k_hi - k_lo > tol:
        mid = 0.5 * (k_lo + k_hi)
        if search.find(mid) is not None:
            k_lo = mid
        else:
            k_hi = mid
    return 0.5 * (k_lo + k_hi)


def staticity_defect(L: MechanicalLagrangian, c, x, y, **kwargs):
    """Phi_c(x, y) + Phi_c(y, x); zero picks out projected-Aubry pairs."""
    fwd = action_potential(L, c, x, y, **kwargs)
    bwd = action_potential(L, c, y, x, **kwargs)
    if fwd.is_minus_infinity or bwd.is_minus_infinity:
        raise BelowCritical(f"k={c} admits negative loops; defect undefined")
    return fwd.value + bwd.value


def potential_table(L: MechanicalLagrangian, ks, pairs, search=None, **kwargs):
    """Rows (k, x, y, phi, status) for CSV emission."""
    search = search if search is not None else NegativeLoopSearch(L)
    rows = []
    for k in ks:
        for x, y in pairs:
            av = action_potential(L, k, x, y, search=search, **kwargs)
            phi = "" if av.is_minus_infinity else repr(av.value)
            status = "neg_inf" if av.is_minus_infinity else "finite"
            rows.append((repr(float(k)), _fmt_pt(x), _fmt_pt(y), phi, status))
    return rows


def _fmt_pt(p):
    p = np.atleast_1d(np.asarray(p, dtype=float))
    return ";".join(repr(float(v)) for v in p)
