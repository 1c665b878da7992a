"""Discretized action functionals and the critical-value machinery.

Curves are broken paths: uniformly-timed knots on the torus with integer
winding offsets per segment, evaluated by Gauss-Legendre quadrature of
k + L along the linear interpolant in the universal cover.  Fixed-endpoint
minimizers come from quasi-Newton descent on the knots across winding
classes; the action potential takes the minimum over a log grid of
durations, watching for closed loops of negative action, whose existence
marks the sub-critical regime and is certified by the loop itself.  The
critical value is the best closed-form loop threshold over a battery.
"""

from dataclasses import dataclass

import numpy as np

from .fields import grid_extremum
from .lagrangian import MechanicalLagrangian
from .torus import wrap


class NoConvergence(RuntimeError):
    """Minimizer stopped above the residual target; carries the best iterate."""

    def __init__(self, msg, path=None, residual=None):
        super().__init__(msg)
        self.path = path
        self.residual = residual


class BelowCritical(ValueError):
    """Action potential diverged to -infinity where a finite value was needed."""


def _split(X):
    """Torus knots and segment windings of cover knots X (..., n, d)."""
    knots = wrap(X)
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
        object.__setattr__(self, "knots", wrap(np.atleast_2d(np.asarray(self.knots, dtype=float))))
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


def _action_terms(L: MechanicalLagrangian, X, n_quad=8):
    """Per-segment terms of uniformly timed cover paths X (B, n, d), and grad.

    Segment i, of duration dt, has (L + k)-action kin_i/dt + dt (k - u_i) + m_i:
    kin_i = |dX_i|^2 / 2, and u_i, m_i the quadratures of U and of eta.dX_i.
    At T = (n-1) dt the action is K/T + T (k - Ubar) + M, K = (n-1) sum kin,
    Ubar = mean u, M = sum m.  grad(a, b, c) is the knot gradient of
    a K + b Ubar + c M for per-row weights.  Batch rows do not interact.
    """
    n = X.shape[1]
    s, w = _gl_nodes(n_quad)
    disp = np.diff(X, axis=1)                      # (B, n-1, d)
    pts = X[:, :-1, None, :] + s[None, None, :, None] * disp[:, :, None, :]   # (B, n-1, q, d)
    kin = 0.5 * (disp * disp).sum(axis=2)
    u = L.potential(pts) @ w
    magnetic = not L.oneform.is_zero()
    if magnetic:
        etaw = np.einsum("biqd,q->bid", L.oneform(pts), w)
        m = (etaw * disp).sum(axis=2)
    else:
        m = np.zeros_like(kin)

    def grad(a, b, c):
        a, b, c = (np.asarray(v, dtype=float)[..., None, None] for v in (a, b, c))
        # K part and the velocity part of M: +-(a (n-1) dX + c sum_q w_q eta)
        gvel = ((n - 1) * a) * disp
        # position part: sum_q w_q weight(s_q) (b grad U / (n-1) + c D eta^T dX)
        gpos = (b[..., None] / (n - 1)) * L.potential.grad(pts)
        if magnetic:
            gvel = gvel + c * etaw
            gpos = gpos + c[..., None] * np.einsum("biqmd,bim->biqd",
                                                   L.oneform.jacobian(pts), disp)
        g = np.zeros_like(X)
        g[:, :-1] += np.einsum("biqd,q->bid", gpos, w * (1 - s)) - gvel
        g[:, 1:] += np.einsum("biqd,q->bid", gpos, w * s) + gvel
        return g

    return kin, u, m, grad


def _action_value_grad(L: MechanicalLagrangian, X, T, k, n_quad=8, need_grad=True):
    """Actions of cover paths X (B, n, d) at durations T, and knot gradients."""
    kin, u, m, grad = _action_terms(L, X, n_quad)
    dt = np.asarray(T, dtype=float)[..., None] / (X.shape[1] - 1)
    # summed segment by segment: totals K/T and T Ubar cancel more digits,
    # and the descent's stopping tests act at that rounding level
    value = (kin / dt + dt * (k - u) + m).sum(axis=1)
    return value, (grad(1.0 / T, -T, 1.0) if need_grad else None)


def _thresholds(L: MechanicalLagrangian, X, need_grad=False):
    """theta, (K, Ubar, u) and grad theta of closed loops X (B, n, d), K > 0.

    Minimizing K/T + T (k - Ubar) + M over T (AM-GM): a loop has negative
    (L + k)-action at some duration exactly when k < theta = Ubar + K u^2,
    u = max(-M, 0) / (2K), with witness T* = sqrt(K / (k - Ubar)).  By the
    envelope identity grad theta = -grad A_theta(X, 1/u) * u.
    """
    kin, useg, m, grad = _action_terms(L, X)
    K, ubar = (X.shape[1] - 1) * kin.sum(axis=1), useg.mean(axis=1)
    u = np.maximum(-m.sum(axis=1), 0.0) / (2.0 * K)
    return ubar + K * u * u, (K, ubar, u), (grad(-u * u, 1.0, -u) if need_grad else None)


def _action_lower_bound(L: MechanicalLagrangian, disp, T, k):
    """Rigorous lower bound on the (L + k)-action of every broken path of
    duration T whose cover displacement is `disp`.

    Split eta into the midpoint eta_bar of its component bounds (the
    constant Fourier term) and a rest of sup norm at most s.  Then

      B = l^2/(2T) - s l + eta_bar . disp + (k - u_hi) T,  l = max(|disp|, s T),

    for u_hi the coefficient bound on U.  The segments' total length
    l0 >= |disp| gives kinetic sum >= l0^2/(2T) (Cauchy-Schwarz); the
    Gauss-Legendre weights are positive with sum 1, so every u_i <= u_hi,
    the eta_bar parts of the m_i sum to eta_bar . disp exactly and the rest
    to at least -s l0; and l0^2/(2T) - s l0 over l0 >= |disp| is least at
    l0 = l.  For eta = 0 this is |disp|^2/(2T) + (k - u_hi) T.
    """
    u_hi = L.potential.value_bounds()[1]
    shift, s = 0.0, 0.0
    if not L.oneform.is_zero():
        lo, hi = np.array([c.value_bounds() for c in L.oneform.components]).T
        shift, s = float((lo + hi) / 2 @ disp), float(np.linalg.norm((hi - lo) / 2))
    ell = np.maximum(np.sqrt(disp @ disp), s * T)
    return ell * ell / (2 * T) - s * ell + shift + (k - u_hi) * T


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
    from scipy.optimize import minimize

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

    Classes are tried by increasing |winding|; a class is skipped when
    `_action_lower_bound` at its displacement exceeds the best action so
    far by more than 1e-9.  The bound charges the mean of eta exactly and
    only its oscillating rest per unit length, so a class that eta rewards
    stays in play.

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
    best = None
    for wind in _winding_classes(L.dim, w_max):
        disp = base + wind
        if best is not None and _action_lower_bound(L, disp, T, 0.0) > best[1] + 1e-9:
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


def _ascend(L: MechanicalLagrangian, X, n_knots):
    """L-BFGS ascent of the threshold of the closed loop X (m, d), its
    segments cut into equal pieces up to n_knots knots, winding fixed."""
    from scipy.optimize import minimize

    d = X.shape[1]
    wind = X[-1] - X[0]
    r = -(-(n_knots - 1) // (len(X) - 1))
    z0 = X[:-1, None, :] + (np.arange(r) / r)[:, None] * np.diff(X, axis=0)[:, None, :]

    def close(z):
        Y = z.reshape(-1, d)
        return np.vstack([Y, Y[:1] + wind])

    def fun(z):
        theta, _, grad = _thresholds(L, close(z)[None], need_grad=True)
        g = grad[0, :-1]
        g[0] += grad[0, -1]
        return -float(theta[0]), -g.ravel()

    res = minimize(fun, z0.ravel(), jac=True, method="L-BFGS-B",
                   options={"maxiter": 200, "ftol": 1e-15, "gtol": 1e-10})
    return close(res.x)


class NegativeLoopSearch:
    """Closed-loop battery certifying the sub-critical regime.

    A loop certifies c(L) >= theta = Ubar + max(-M, 0)^2 / (4K): below
    theta it has negative (L + k)-action at T* = sqrt(K / (k - Ubar)).  The
    battery, priced once in one quadrature per knot count: the constant
    loop at the maximum of U (theta = max U; all there is for purely
    mechanical L), a straight `n_knots` loop in each nonzero winding class
    up to `w_max`, and random-waypoint loops filling `budget`.  Loops with
    M >= 0 have theta = Ubar <= max U; the four best with M < 0 get one
    L-BFGS ascent of theta.  `find(k)` checks best theta > k.  Classes
    beyond `w_max` are seen only through the random loops: U = 0 with
    eta = (0.6, -0.8), where c = 0.5 needs winding (-3, 4), gives 0.49.

    A search belongs to one Lagrangian and also caches the k-independent
    Tonelli minimizers of `action_potential` by (x, y, T).
    """

    def __init__(self, L: MechanicalLagrangian, budget=10000, seed=0, w_max=2, n_knots=33):
        self.L = L
        self.budget = budget
        _, _, self.u_max, self.x_max = grid_extremum(L.potential, L.dim)
        self.w_max = w_max
        self.n_knots = n_knots
        self._tonelli = {}       # (x, y, T, w_max, n_quad) -> Tonelli minimizer
        self._best = None        # see _best_loop
        self._rng = np.random.default_rng(seed)
        self._purely_mechanical = L.oneform.is_zero()

    def _candidates(self):
        """The four battery loops with M < 0 of highest threshold."""
        winds = np.array([w for w in _winding_classes(self.L.dim, self.w_max) if np.any(w)])
        groups = [self.x_max + np.linspace(0, 1, self.n_knots)[None, :, None] * winds[:, None, :]]
        sizes = self._rng.integers(3, 6, size=max(self.budget - len(winds) - 1, 0))
        for m in np.unique(sizes):
            X = self._rng.random((np.count_nonzero(sizes == m), m, self.L.dim))
            groups.append(np.concatenate([X, X[:, :1]], axis=1))
        loops, thetas = [], []
        for X in groups:
            theta, (_, _, u), _ = _thresholds(self.L, X)
            loops.extend(X[u > 0])
            thetas.extend(theta[u > 0])
        return [loops[i] for i in np.argsort(thetas)[::-1][:4]]

    def _best_loop(self):
        """(theta, cover knots) of the best loop; knots None: the constant loop."""
        if self._best is None:
            self._best = (self.u_max, None)
            # a purely mechanical (L + k)-integrand is >= 0 once k >= max U
            for X in [] if self._purely_mechanical else self._candidates():
                for Y in (X, _ascend(self.L, X, self.n_knots)):
                    theta = float(_thresholds(self.L, Y[None])[0][0])
                    self._best = max(self._best, (theta, Y), key=lambda b: b[0])
        return self._best

    def find(self, k):
        """A closed loop of negative (L + k)-action, or None at k >= best theta."""
        # constant loops: action (k - U(x)) T, decisive at the potential max
        if k < self.u_max - 1e-12:
            return BrokenPath.constant(self.x_max, 1.0)
        theta, X = self._best_loop()
        if X is None or k >= theta:
            return None
        _, (K, ubar, u), _ = _thresholds(self.L, X[None])
        # at k <= Ubar no duration minimizes; 1/u gives (k - theta)/u < 0
        T = np.sqrt(K[0] / (k - ubar[0])) if k > ubar[0] else 1.0 / u[0]
        return BrokenPath.from_cover(X, float(T))


def action_potential(L: MechanicalLagrangian, k, x, y, t_grid=None, w_max=3,
                     search: NegativeLoopSearch = None, n_quad=8, refine_steps=10):
    """Mane potential estimate: minimize (L+k)-action over duration and winding.

    Returns the minus-infinity sentinel with a certificate loop whenever
    the negative-loop search succeeds at this k.  Otherwise, when x = y
    mod 1 (up to rounding, 1e-12), returns exactly 0.0 without minimizing:
    with no negative loop Phi_k(x, x) >= 0, and constant curves of vanishing
    duration reach 0.

    The grid durations are visited by increasing B(T), the least
    `_action_lower_bound` over the winding classes `tonelli_minimizer`
    tries (every path it returns lies in one), and a duration is skipped
    once B(T) exceeds the best action so far by more than 1e-9.  A skipped
    value lies strictly above the minimum, so the argmin, its bracket and
    the golden-section refinement, hence Phi, are those of minimizing
    every duration.  The default grid (0.05 to 50) gets a near-diagonal
    floor: the minimizers have energy k, so speed at most
    A0 = sqrt(2 (k - u_lo)) (u_lo the coefficient bound on U) and duration
    at least d / A0, d = |minimal lift of y - x|; when
    d / A0 < 0.05, the durations 0.05 r^-j (r the grid ratio) are prepended
    until one lies below d / A0.

    The fixed-endpoint minimizers do not depend on k.  When `search`
    belongs to L, they are cached on it by (x, y, T, w_max, n_quad), so
    calls that share a search (as `potential_table` does across k) minimize
    each duration once and re-evaluate only the (L+k)-action of the path;
    a later k minimizes the durations an earlier one skipped.
    """
    search = search if search is not None else NegativeLoopSearch(L)
    loop = search.find(k)
    if loop is not None:
        val = action(L, loop, k)
        if val < 0:
            return ActionValue(None, loop)
    x = np.atleast_1d(np.asarray(x, dtype=float)) % 1.0
    y = np.atleast_1d(np.asarray(y, dtype=float)) % 1.0
    base = (y - x + 0.5) % 1.0 - 0.5
    if np.abs(base).max() <= 1e-12:
        return ActionValue(0.0)
    dist = float(np.sqrt(base @ base))
    if t_grid is None:
        # energy-k arcs have speed sqrt(2 (k - U)) <= a0, hence duration >= d / a0
        grid = duration_grid()
        a0 = np.sqrt(max(2.0 * (k - L.potential.value_bounds()[0]), 0.0))
        ratio = grid[1] / grid[0]
        n_low = int(np.log(grid[0] * a0 / dist) // np.log(ratio)) + 1 if dist < grid[0] * a0 else 0
        grid = np.concatenate([grid[0] * ratio ** -np.arange(n_low, 0, -1), grid])
    else:
        grid = np.asarray(t_grid, dtype=float)
    cache = search._tonelli if search.L is L else {}

    def value_at(T):
        key = (tuple(x), tuple(y), float(T), w_max, n_quad)
        if key not in cache:
            try:
                cache[key] = tonelli_minimizer(L, x, y, T, w_max=w_max, n_quad=n_quad)
            except NoConvergence as nc:
                cache[key] = nc.path
        return action(L, cache[key], k, n_quad)

    bounds = np.min([_action_lower_bound(L, base + w, grid, k)
                     for w in _winding_classes(L.dim, w_max)], axis=0)
    vals = np.full(len(grid), np.inf)
    for j in np.argsort(bounds, kind="stable"):
        if bounds[j] > vals.min() + 1e-9:
            break
        vals[j] = value_at(grid[j])
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


def critical_value(L: MechanicalLagrangian, tol=1e-2, search: NegativeLoopSearch = None):
    """Mane critical value c(L) (least k with no negative (L + k)-loop) as
    the best threshold theta = Ubar + max(-M, 0)^2 / (4K) of `search`.

    A certified lower bound: at T* = sqrt(K / (k - Ubar)) the best loop has
    negative action for every k below it.  Exact (max U) for purely
    mechanical L; at most max U + sup|eta|^2 / 2; windings beyond `w_max`
    are missed (see `NegativeLoopSearch`).  `tol` no longer changes the
    result; it stays for the CLI `--tol` flag.
    """
    search = search if search is not None else NegativeLoopSearch(L)
    return search._best_loop()[0]


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
