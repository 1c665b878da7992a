"""Discretized action functionals and the critical-value machinery.

Curves are broken paths: uniformly-timed knots on the torus with integer
winding offsets per segment, evaluated by Gauss-Legendre quadrature of
k + L along the linear interpolant in the universal cover.  Minimizers
come from damped Newton descent on the knots across winding classes, with
the block-tridiagonal Hessian taken from coloured differences of the
gradient and each damped step one numpy LAPACK solve, in every torus
dimension: of the action at a fixed duration (Tonelli minimizers), or of
its least value over the duration in closed form, the free-time action
(the action potential, extrapolated in the knot count).  Closed loops of
negative action mark the sub-critical regime and certify it.  The
critical value is the best closed-form loop threshold theta over a
battery, its four best candidates raised by Newton in k on the same
free-time solve, re-based at the middle knot after each solve."""

from dataclasses import dataclass
from functools import cache

import numpy as np

from .fields import grid_maximum
from .lagrangian import MechanicalLagrangian
from .torus import minimal_lift, wrap


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
        if not 0 < self.T < np.inf:
            raise ValueError(f"total time must be positive and finite, got {self.T}")

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


_N_QUAD = 8                # Gauss-Legendre nodes per segment
_KNOTS = 33                # knots of a battery loop and of Phi's first solve
_RESIDUAL_TARGET = 1e-6    # Euler-Lagrange residual a solve is converged at


@cache
def _gl_nodes():
    """(nodes, weights) of the `_N_QUAD`-node Gauss-Legendre rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(_N_QUAD)
    return (x + 1) / 2.0, w / 2.0


def _prolong(X, r):
    """X (m, d) with each segment cut into r: X_i, then ((r - j) X_i + j X_{i+1}) / r
    for 0 < j < r, and X[-1].  X_i stays bit for bit, where (7 X_i) / 7 may not."""
    j, a = np.arange(1, r)[:, None], X[:-1, None, :]
    cut = np.concatenate([a, ((r - j) * a + j * X[1:, None, :]) / r], axis=1)
    return np.vstack([cut.reshape(-1, X.shape[1]), X[-1:]])


def _action_terms(L: MechanicalLagrangian, X, n_values=None, origin=0.0):
    """Per-segment terms of uniformly timed cover paths origin + X (B, n, d), and grad.

    Segment i, of duration dt, has (L + k)-action kin_i/dt + dt (k - u_i) + m_i:
    kin_i = |dX_i|^2 / 2, and u_i, m_i the quadratures of U and of eta.dX_i.
    At T = (n-1) dt the action is K/T + T (k - Ubar) + M, K = (n-1) sum kin,
    Ubar = mean u, M = sum m.  grad(a, b, c) is the knot gradient of
    a K + b Ubar + c M for per-row weights.  Batch rows do not interact.
    u covers the first `n_values` rows only (all when None).  The origin
    enters only where U and eta are sampled: relative knots keep their
    displacements free of cover rounding.
    """
    n = X.shape[1]
    s, w = _gl_nodes()
    disp = np.diff(X, axis=1)                      # (B, n-1, d)
    pts = (X[:, :-1, None, :] + origin) + s[None, None, :, None] * disp[:, :, None, :]   # (B, n-1, q, d)
    kin = 0.5 * (disp * disp).sum(axis=2)
    u = L.potential(pts[:n_values]) @ w
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
            # D eta^T dX as d elementwise products; einsum is 3.6x slower here
            jac = L.oneform.jacobian(pts)
            gpos = gpos + c[..., None] * sum(jac[..., i, :] * disp[:, :, None, i, None]
                                             for i in range(X.shape[2]))
        g = np.zeros_like(X)
        g[:, :-1] += np.einsum("biqd,q->bid", gpos, w * (1 - s)) - gvel
        g[:, 1:] += np.einsum("biqd,q->bid", gpos, w * s) + gvel
        return g

    return kin, u, m, grad


def _action_value_grad(L: MechanicalLagrangian, X, T, k, need_grad=True, n_values=None,
                       origin=0.0):
    """Actions of the first `n_values` (default all) cover paths origin + X
    (B, n, d) at durations T, and the knot gradients of all B."""
    kin, u, m, grad = _action_terms(L, X, n_values, origin)
    dt = np.asarray(T, dtype=float)[..., None] / (X.shape[1] - 1)
    # summed segment by segment: totals K/T and T Ubar cancel more digits,
    # and the descent's stopping tests act at that rounding level
    value = (kin[:n_values] / dt + dt * (k - u) + m[:n_values]).sum(axis=1)
    return value, (grad(1.0 / T, -T, 1.0) if need_grad else None)


def _thresholds(L: MechanicalLagrangian, X):
    """theta and (K, Ubar, u) of closed loops X (B, n, d).

    Minimizing K/T + T (k - Ubar) + M over T (AM-GM): a loop has negative
    (L + k)-action at some duration exactly when k < theta = Ubar + K u^2,
    u = max(-M, 0) / (2K), with witness T* = sqrt(K / (k - Ubar)).  A
    constant loop (K = 0, so M = 0) has u = 0 and theta = Ubar.
    """
    kin, useg, m, _ = _action_terms(L, X)
    K, ubar = (X.shape[1] - 1) * kin.sum(axis=1), useg.mean(axis=1)
    u = np.divide(np.maximum(-m.sum(axis=1), 0.0), 2.0 * K, out=np.zeros_like(K), where=K > 0)
    return ubar + K * u * u, (K, ubar, u)


def _action_lower_bound(L: MechanicalLagrangian, disp, T, k):
    """Rigorous lower bound on the (L + k)-action of every broken path of
    duration T (any duration when T is None) whose cover displacement is `disp`.

    Split eta into the midpoint eta_bar of its component bounds (the
    constant Fourier term) and a rest of sup norm at most s.  Then

      B = l^2/(2T) - s l + eta_bar . disp + (k - u_hi) T,  l = max(|disp|, s T),

    for u_hi the coefficient bound on U.  The segments' total length
    l0 >= |disp| gives kinetic sum >= l0^2/(2T) (Cauchy-Schwarz); the
    Gauss-Legendre weights are positive with sum 1, so every u_i <= u_hi,
    the eta_bar parts of the m_i sum to eta_bar . disp exactly and the rest
    to at least -s l0; and l0^2/(2T) - s l0 over l0 >= |disp| is least at
    l0 = l.  For eta = 0 this is |disp|^2/(2T) + (k - u_hi) T.  Least over
    T, with kappa = k - u_hi: |disp| (sqrt(2 kappa) - s) + eta_bar . disp
    when s^2 <= 2 kappa (at T = |disp| / sqrt(2 kappa)), and -inf otherwise.
    """
    kappa = k - L.potential.value_bounds()[1]
    shift, s = 0.0, 0.0
    if not L.oneform.is_zero():
        lo, hi = np.array([c.value_bounds() for c in L.oneform.components]).T
        shift, s = float((lo + hi) / 2 @ disp), float(np.linalg.norm((hi - lo) / 2))
    if T is None:
        if s * s > 2 * kappa:
            return -np.inf
        return np.sqrt(disp @ disp) * (np.sqrt(2 * kappa) - s) + shift
    ell = np.maximum(np.sqrt(disp @ disp), s * T)
    return ell * ell / (2 * T) - s * ell + shift + kappa * T


def action(L: MechanicalLagrangian, p: BrokenPath, k):
    """Composite quadrature of k + L along the path; exact on free segments."""
    value, _ = _action_value_grad(L, p.cover_knots()[None], p.T, k, need_grad=False)
    return float(value[0])


_FD_STEP = 2.0 ** -23     # X + h is exact for cover coordinates below 2^29
_STEP_FLOOR = 1e-15       # steps below _STEP_FLOOR (1 + max|X|) no longer move the knots


def _hessian(grads, m, d):
    """Hessian (m d, m d) of the interior knots from coloured differences.

    grads (1 + 3d, n, d): the gradient at X, then at X with coordinate j of
    every interior knot i = c (mod 3) moved by h, row 1 + c d + j.  Knot i
    couples only to i - 1 and i + 1, so each row of the Hessian sees exactly
    one moved knot of each colour (Curtis, Powell and Reid 1974).  Entry
    (r d + i, s d + j) is d^2 f / dx_{r,i} dx_{s,j}, averaged with its transpose.
    """
    g = grads[0, 1:-1]
    dG = ((grads[1:, 1:-1] - g) / _FD_STEP).reshape(-1, d, m, d)   # (colour, j, knot, i)
    r = np.arange(m)
    rows, cols = np.concatenate([r, r[1:], r[:-1]]), np.concatenate([r, r[:-1], r[1:]])
    H = np.zeros((m, d, m, d))
    H[rows, :, cols, :] = dG[cols % 3, :, rows, :].transpose(0, 2, 1)
    H = H.reshape(m * d, m * d)
    return (H + H.T) / 2


def _newton_step(H, g, mu, rank1=None):
    """s (m, d) with (H + mu I - sigma w w^T) s = -g, rank1 = (w, sigma) or
    None; None unless H + mu I is positive definite (Cholesky) and the
    Sherman-Morrison denominator 1 - sigma w^T (H + mu I)^-1 w is positive."""
    damped = H.copy()
    damped.flat[::len(H) + 1] += mu
    try:
        if not np.linalg.cholesky(damped).trace() > 0.0:     # LAPACK lets NaN through
            return None
    except np.linalg.LinAlgError:
        return None
    cols = np.array([g] if rank1 is None else [g, rank1[0]])
    x = np.linalg.solve(damped, cols.reshape(len(cols), -1).T).T.reshape(cols.shape)
    if rank1 is None:
        return -x[0]
    (s, z), (w, sigma) = x, rank1                   # s = (H + mu I)^-1 g
    denom = 1.0 - sigma * float((w * z).sum())
    return -(s + z * (sigma * float((w * s).sum()) / denom)) if denom > 0.0 else None


def _free_time_action(L: MechanicalLagrangian, X, k, origin=0.0):
    """(F, T*, sigma, grad of `_action_terms`) of the path origin + X[0];
    None when g = k - Ubar <= 0.

    F = 2 sqrt(K g) + M, the least of the action K/T + T g + M over T, at
    T* = sqrt(K / g), is the discrete Maupertuis-Jacobi length (Contreras
    and Iturriaga, Global minimizers of autonomous Lagrangians, 1999, sec. 2).
    grad F = grad(1/T*, -T*, 1); the Hessian of F is the fixed-T Hessian at
    T* minus sigma w w^T, w = grad(1/T*, T*, 0), sigma = 1 / (2 sqrt(K g)):
    rank 1, as 2 sqrt(K g) is homogeneous of degree 1 in (K, g).
    """
    kin, u, m, grad = _action_terms(L, X, 1, origin)
    K, gap = (X.shape[1] - 1) * float(kin[0].sum()), k - float(u[0].mean())
    if not gap > 0.0:
        return None
    root = np.sqrt(K * gap)
    return 2.0 * root + float(m[0].sum()), np.sqrt(K / gap), 0.5 / root, grad


def _minimize_knots(L, x_from, disp, T, n_knots, k=0.0, maxiter=400, x_init=None):
    """Damped Newton descent over the interior knots of the straight-line
    seed (or `x_init`, relative to x_from); (path, value, residual).

    The value is the (L + k)-action at duration T or, T None, the free-time
    action of `_free_time_action`, whose T* the path gets.  Knots are taken
    relative to x_from, added only where U and eta are sampled.  One
    batched `_action_terms` call per iteration gives the value, gradient,
    the coloured differences of the Hessian (`_hessian`, assembled once per
    accepted state) and, free in time, w; the step solves
    (H + mu I - sigma w w^T) s = -g by numpy's LAPACK (`_newton_step`), with
    one Sherman-Morrison correction free in time.  mu follows Nielsen's
    gain-ratio update (Madsen, Nielsen and Tingleff, Methods for Non-Linear
    Least Squares Problems, 2004); a failed Cholesky factorization or a
    non-positive Sherman-Morrison denominator, or a trial with k <= Ubar,
    raises mu.  Where the values agree to rounding the gain is the
    trapezoid -(g + g_new).s / 2.  Stops once the Euler-Lagrange residual
    max|g| / dt is <= 0.2 `_RESIDUAL_TARGET`, after `maxiter` accepted steps,
    or when the step no longer moves X.
    """
    d = len(x_from)
    line = np.linspace(0.0, 1.0, n_knots)[:, None]
    X = np.array(x_init if x_init is not None else line * disp, dtype=float)
    m = n_knots - 2
    probe = np.zeros((1 + 3 * d + (T is None), n_knots, d))   # X, the probes, (X for w)
    for c in range(3):
        for j in range(d):
            probe[1 + c * d + j, 1 + c:-1:3, j] = _FD_STEP

    def evaluate(X):
        """(value, grad, the gradients `_hessian` takes, (w, sigma) or None, T);
        None where k <= Ubar."""
        if T is not None:
            vals, grads = _action_value_grad(L, X + probe, T, k, n_values=1, origin=x_from)
            return float(vals[0]), grads[0, 1:-1], grads, None, T
        if (free := _free_time_action(L, X + probe, k, x_from)) is None:
            return None
        f, t_star, sigma, grad = free
        sign = np.append(np.ones(len(probe) - 1), -1.0)
        grads = grad(1.0 / t_star, -t_star * sign, sign > 0)
        return f, grads[0, 1:-1], grads[:-1], (grads[-1, 1:-1], sigma), t_star

    if (state := evaluate(X)) is None:
        raise NoConvergence(f"k = {k} does not exceed the mean of U on the seed path")
    f, g, probes, rank1, dur = state
    H = _hessian(probes, m, d)
    r = np.arange(m)
    mu, nu = 1e-3 * float(np.abs(H.reshape(m, d, m, d)[r, :, r, :]).max()), 2.0
    steps = 0
    while steps < maxiter and np.abs(g).max() > 0.2 * _RESIDUAL_TARGET * dur / (m + 1):
        while (step := _newton_step(H, g, mu, rank1)) is None and mu < np.inf:
            mu, nu = mu * nu, 2.0 * nu
        if step is None or np.abs(step).max() <= _STEP_FLOOR * (1.0 + np.abs(X).max()):
            break
        trial = X.copy()
        trial[1:-1] += step
        if (state := evaluate(trial)) is None:
            mu, nu = mu * nu, 2.0 * nu
            continue
        gain = f - state[0]
        if abs(gain) <= 1e-12 * (1.0 + abs(f)):     # below what the summed value resolves
            gain = -0.5 * float(((g + state[1]) * step).sum())
        rho = gain / (0.5 * float((step * (mu * step - g)).sum()))
        if rho > 0.0:
            steps += 1
            X, (f, g, probes, rank1, dur) = trial, state
            H = _hessian(probes, m, d)
            mu, nu = mu * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), 2.0
        else:
            mu, nu = mu * nu, 2.0 * nu
    return BrokenPath.from_cover(x_from + X, dur), f, float(np.abs(g).max() / (dur / (m + 1)))


def _winding_classes(dim, w_max):
    from itertools import product

    classes = sorted(product(range(-w_max, w_max + 1), repeat=dim),
                     key=lambda w: (sum(abs(c) for c in w), w))
    return [np.array(w, dtype=float) for w in classes]


def _least_over_classes(L, base, w_max, T, k, solve):
    """(path, value, residual) of the least `solve(base + w)` over the winding
    classes w by increasing |w|, skipping a class when `_action_lower_bound`
    at its displacement exceeds the best value so far by more than 1e-9."""
    best = None
    for wind in _winding_classes(L.dim, w_max):
        disp = base + wind
        if best is None or _action_lower_bound(L, disp, T, k) <= best[1] + 1e-9:
            out = solve(disp)
            best = out if best is None or out[1] < best[1] else best
    return best


def _points(L: MechanicalLagrangian, x, y):
    """x and y as float arrays; ValueError unless each has L.dim coordinates."""
    x, y = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (x, y))
    if x.shape != (L.dim,) or y.shape != (L.dim,):
        raise ValueError(f"x and y need L.dim = {L.dim} coordinates, got {x.size} and {y.size}")
    return x, y


def tonelli_minimizer(L: MechanicalLagrangian, x, y, T, n_knots=None, w_max=3, maxiter=400):
    """Fixed-endpoint, fixed-time local action minimizer across winding classes
    (`_least_over_classes`; the bound charges the mean of eta exactly, so a
    class that eta rewards stays in play).

    Raises NoConvergence (carrying the best iterate and its residual) when
    the discrete Euler-Lagrange residual is above `_RESIDUAL_TARGET`, and
    ValueError for x or y without L.dim coordinates, non-finite x or y, or
    a T that is not positive and finite.
    """
    x, y = _points(L, x, y)
    if not (0 < T < np.inf and np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError(f"T must be positive and finite and x, y finite, got {T}, {x}, {y}")
    x, y = wrap(x), wrap(y)
    # a knot budget growing with duration, capped to keep descent cheap
    n_knots = int(np.clip(int(8 * T) + 7, 9, 97)) if n_knots is None else n_knots
    if n_knots < 3:
        raise ValueError("need at least 3 knots")
    path, _, res = _least_over_classes(
        L, minimal_lift(y - x), w_max, T, 0.0,
        lambda disp: _minimize_knots(L, x, disp, T, n_knots, maxiter=maxiter))
    if not res <= _RESIDUAL_TARGET:
        raise NoConvergence(f"residual {res:.2e} above {_RESIDUAL_TARGET:.0e}", path, res)
    return path


def _refine_loop(L: MechanicalLagrangian, X, n_knots, u_max):
    """(theta, loop) of the closed loop X (m, d), its segments cut into equal
    pieces to at least n_knots knots, raised by Newton in k: k <- theta(argmin F_k),
    F_k the free-time action of `_minimize_knots(T=None)` started from the
    loop before, and theta the root in k of F_k of the new loop.  F_k <= 0 at
    the loop before, so theta never falls.  Starts at k = max(theta, max U):
    below max U no minimizer exists.  Each solve pins the first knot, so the
    loop is re-based at its middle knot after it.  Stops when theta no longer
    exceeds k, when it exceeds k by at most 4 ulp (a rise at rounding level,
    after which the next solve takes no step), after 40 solves, or when
    k <= Ubar on a seed; returns the last loop whose theta exceeded k, else
    the cut seed, with its theta.  A constant loop X is returned as it is,
    at theta = Ubar: its free-time action has sigma = 1 / (2 sqrt(K g)) with
    K = 0, and cut, its knots may no longer be equal.
    """
    if (X == X[0]).all():
        return float(_thresholds(L, X[None])[0][0]), X
    W = _prolong(X, -(-(n_knots - 1) // (len(X) - 1)))
    best, h = (float(_thresholds(L, W[None])[0][0]), W), (len(W) - 1) // 2
    k = max(best[0], u_max)
    for _ in range(40):
        try:
            path, _, _ = _minimize_knots(L, W[0], W[-1] - W[0], None, len(W), k, x_init=W - W[0])
        except NoConvergence:
            break
        W = path.cover_knots()
        W = np.vstack([W[h:-1], W[:h + 1] + (W[-1] - W[0])])
        theta = float(_thresholds(L, W[None])[0][0])
        if not theta > k:
            break
        rounding = theta - k <= 4.0 * np.spacing(k)
        best, k = (theta, W), theta
        if rounding:
            break
    return best


class NegativeLoopSearch:
    """Closed-loop battery certifying the sub-critical regime.

    A loop certifies c(L) >= theta = Ubar + max(-M, 0)^2 / (4K): below
    theta it has negative (L + k)-action at T* = sqrt(K / (k - Ubar)).  The
    battery, priced once in one quadrature per knot count: the constant
    loop at the maximum of U (theta = max U), a straight `n_knots` (33) loop
    through it in each nonzero winding class up to `w_max` (2), and, on T^2
    with non-constant eta only, random-waypoint loops from `seed` (0)
    filling `budget` (10,000): class constants, as no caller varies them.
    A candidate has M < 0 and winds or has theta > max U: loops with
    M >= 0 have theta = Ubar <= max U, and a null-homologous loop below
    max U only shrinks to a point under the free-time solve.  A random
    loop closes on its first knot in the cover, so it is null-homologous
    and its M is the flux of d eta through it, rounding on T^1 and for
    constant eta: there none can be a candidate, and with eta = 0 no loop
    is, which leaves max U.  The four best candidates are raised by
    `_refine_loop`; every loop keeps the theta it was priced at.
    `find(k)` checks best theta > k.  Classes beyond `w_max` are never
    tried: U = 0 with eta = (0.6, -0.8), where c = 0.5 needs winding
    (-3, 4), gives the 0.49 of the class (-1, 1) loop.

    Potentials at several k can share one search and its battery.
    """

    n_knots, w_max, budget, seed = _KNOTS, 2, 10000, 0

    def __init__(self, L: MechanicalLagrangian):
        self.L = L
        self.u_max, self.x_max = grid_maximum(L.potential, L.dim)
        self._best = None        # see best_loop

    def _battery(self):
        """The battery's loops (B, m, d), in groups of one knot count m."""
        winds = np.array([w for w in _winding_classes(self.L.dim, self.w_max) if np.any(w)])
        groups = [self.x_max + np.linspace(0, 1, self.n_knots)[None, :, None] * winds[:, None, :]]
        # Stokes: a null-homologous loop has M = 0 unless d eta != 0, which needs T^2
        if self.L.dim == 2 and any(lo < hi for lo, hi in
                                   (c.value_bounds() for c in self.L.oneform.components)):
            rng = np.random.default_rng(self.seed)
            sizes = rng.integers(3, 6, size=self.budget - len(winds) - 1)
            for m in np.unique(sizes):
                X = rng.random((np.count_nonzero(sizes == m), m, self.L.dim))
                groups.append(np.concatenate([X, X[:, :1]], axis=1))
        return groups

    def _candidates(self):
        """(theta, loop) of the four candidates (see the class) of highest theta."""
        loops, thetas = [], []
        for X in self._battery():
            theta, (_, _, u) = _thresholds(self.L, X)
            keep = (u > 0) & (np.any(X[:, -1] != X[:, 0], axis=1) | (theta > self.u_max))
            loops.extend(X[keep])
            thetas.extend(theta[keep])
        return [(float(thetas[i]), loops[i]) for i in np.argsort(thetas)[::-1][:4]]

    def best_loop(self):
        """(theta, cover knots) of the loop that certifies c(L) >= theta: the
        best of the constant loop at `x_max` (knots None, theta = max U) and
        the candidates, each priced once and refined (see the class)."""
        if self._best is None:
            priced = [(self.u_max, None)]
            for theta, X in self._candidates():
                priced += [(theta, X), _refine_loop(self.L, X, self.n_knots, self.u_max)]
            self._best = max(priced, key=lambda b: b[0])
        return self._best

    def find(self, k):
        """A closed loop of negative (L + k)-action, or None at k >= best theta."""
        # constant loops: action (k - U(x)) T, decisive at the potential max
        if k < self.u_max - 1e-12:
            return BrokenPath.constant(self.x_max, 1.0)
        theta, X = self.best_loop()
        if X is None or k >= theta:
            return None
        _, (K, ubar, u) = _thresholds(self.L, X[None])
        # at k <= Ubar no duration minimizes; 1/u gives (k - theta)/u < 0
        T = np.sqrt(K[0] / (k - ubar[0])) if k > ubar[0] else 1.0 / u[0]
        return BrokenPath.from_cover(X, float(T))


def action_potential(L: MechanicalLagrangian, k, x, y, w_max=3,
                     search: NegativeLoopSearch = None):
    """Mane potential estimate: the least free-time (L+k)-action over knots
    and winding classes, extrapolated in the knot count.

    Returns the minus-infinity sentinel with a certificate loop whenever
    the negative-loop search succeeds at this k.  Otherwise, when x = y
    mod 1 (up to rounding, 1e-12), returns exactly 0.0 without minimizing:
    with no negative loop Phi_k(x, x) >= 0, and constant curves of vanishing
    duration reach 0.

    No duration is searched (see `_free_time_action`).  Each winding class
    (`_least_over_classes`, bounded over all T) is solved at 33 knots, then
    at 65 from the midpoint prolongation, and gives the Richardson value
    (4 F_65 - F_33) / 3: the error of F falls 4x per knot doubling.  Raises
    NoConvergence (with the 65-knot path and the larger residual of the two
    solves) when the winning class misses the residual target, and
    ValueError for k NaN or +inf, x or y without L.dim coordinates,
    non-finite x or y, or w_max < 0.  The
    target is 1e-6, or the rounding floor 2 _STEP_FLOOR (1 + max|X|) / dt^2
    where larger: the residual a knot step too small to move the knots
    leaves, linear in k.  Where 1 / dt^2 overflows, 1e-6 stands.
    """
    x, y = _points(L, x, y)
    if np.isnan(k) or k == np.inf or not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError(f"k must be finite or -inf and x, y finite, got {k}, {x}, {y}")
    if w_max < 0:
        raise ValueError(f"w_max must be nonnegative, got {w_max}")
    loop = (search if search is not None else NegativeLoopSearch(L)).find(k)
    if loop is not None and action(L, loop, k) < 0:
        return ActionValue(None, loop)
    x, y = wrap(x), wrap(y)
    base = minimal_lift(y - x)
    if np.abs(base).max() <= 1e-12:
        return ActionValue(0.0)

    def richardson(disp):
        path, coarse, res = _minimize_knots(L, x, disp, None, _KNOTS, k)
        seed = _prolong(path.cover_knots() - x, 2)
        path, fine, res_fine = _minimize_knots(L, x, disp, None, len(seed), k, x_init=seed)
        return path, (4.0 * fine - coarse) / 3.0, max(res, res_fine)

    path, value, res = _least_over_classes(L, base, w_max, None, k, richardson)
    rate = (path.n_knots - 1) / float(path.T)                # 1 / dt
    floor = 2.0 * _STEP_FLOOR * (1.0 + float(np.abs(path.cover_knots() - x).max())) * (rate * rate)
    target = max(_RESIDUAL_TARGET, floor if floor < np.inf else 0.0)
    if not res <= target:
        raise NoConvergence(f"action potential: residual {res:.2e} above {target:.0e}", path, res)
    return ActionValue(float(value))


def critical_value(L: MechanicalLagrangian, tol=1e-2, search: NegativeLoopSearch = None):
    """Mane critical value c(L) (least k with no negative (L + k)-loop) as
    the best threshold theta = Ubar + max(-M, 0)^2 / (4K) of `search`: max U
    and its battery's four best candidate loops, each priced once and raised
    by Newton in k (`_refine_loop`: k <- theta of the least free-time action
    F_k, the root of F_k = 2 sqrt(K (k - Ubar)) + M, with the loop re-based
    at its middle knot after each solve).  Random-waypoint loops enter the
    battery only on T^2 with non-constant eta, where d eta can be nonzero.

    A certified lower bound: at T* = sqrt(K / (k - Ubar)) the best loop has
    negative action for every k below it.  Exact (max U) for purely
    mechanical L, where no loop is a candidate; at most
    max U + sup|eta|^2 / 2; windings beyond `w_max` are missed (see
    `NegativeLoopSearch`).  `tol` no longer changes the result; it stays for
    the CLI `--tol` flag.
    """
    search = search if search is not None else NegativeLoopSearch(L)
    return search.best_loop()[0]


def staticity_defect(L: MechanicalLagrangian, c, x, y, search=None, w_max=3):
    """Phi_c(x, y) + Phi_c(y, x); zero picks out static pairs.  At x = y it
    is 0 by the shortcut Phi_k(x, x) = 0, so it tests nothing of the Aubry set.
    Both potentials share one `NegativeLoopSearch`."""
    search = search if search is not None else NegativeLoopSearch(L)
    fwd = action_potential(L, c, x, y, w_max, search)
    bwd = action_potential(L, c, y, x, w_max, search)
    if fwd.is_minus_infinity or bwd.is_minus_infinity:
        raise BelowCritical(f"k={c} admits negative loops; defect undefined")
    return fwd.value + bwd.value


def potential_table(L: MechanicalLagrangian, ks, pairs, search=None, w_max=3):
    """Rows (k, x, y, phi, status) for CSV emission."""
    search = search if search is not None else NegativeLoopSearch(L)
    rows = []
    for k in ks:
        for x, y in pairs:
            av = action_potential(L, k, x, y, w_max, search)
            phi, status = ("", "neg_inf") if av.is_minus_infinity else (repr(av.value), "finite")
            rows.append((repr(float(k)), _fmt_pt(x), _fmt_pt(y), phi, status))
    return rows


def _fmt_pt(p):
    return ";".join(repr(float(v)) for v in np.atleast_1d(p))
