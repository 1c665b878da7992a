"""Discretized action functionals and the critical-value machinery.

Curves are broken paths: uniformly-timed knots on the torus with integer
winding offsets per segment, evaluated by Gauss-Legendre quadrature of
k + L along the linear interpolant in the universal cover.  Fixed-endpoint
minimizers come from damped Newton descent on the knots across winding
classes, with the block-tridiagonal Hessian of the discrete action taken
from coloured differences of its gradient.  The action potential takes
the minimum over a log grid of durations, watching for closed loops of
negative action, whose existence marks the sub-critical regime and is
certified by the loop itself.  The critical value is the best closed-form
loop threshold over a battery, each of its four best loops lifted by an
L-BFGS ascent."""

from dataclasses import dataclass

import numpy as np

from .fields import grid_extremum
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


def _action_terms(L: MechanicalLagrangian, X, n_quad=8, n_values=None):
    """Per-segment terms of uniformly timed cover paths X (B, n, d), and grad.

    Segment i, of duration dt, has (L + k)-action kin_i/dt + dt (k - u_i) + m_i:
    kin_i = |dX_i|^2 / 2, and u_i, m_i the quadratures of U and of eta.dX_i.
    At T = (n-1) dt the action is K/T + T (k - Ubar) + M, K = (n-1) sum kin,
    Ubar = mean u, M = sum m.  grad(a, b, c) is the knot gradient of
    a K + b Ubar + c M for per-row weights.  Batch rows do not interact.
    u covers the first `n_values` rows only (all when None).
    """
    n = X.shape[1]
    s, w = _gl_nodes(n_quad)
    disp = np.diff(X, axis=1)                      # (B, n-1, d)
    pts = X[:, :-1, None, :] + s[None, None, :, None] * disp[:, :, None, :]   # (B, n-1, q, d)
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


def _action_value_grad(L: MechanicalLagrangian, X, T, k, n_quad=8, need_grad=True,
                       n_values=None):
    """Actions of the first `n_values` (default all) cover paths X (B, n, d)
    at durations T, and the knot gradients of all B."""
    kin, u, m, grad = _action_terms(L, X, n_quad, n_values)
    dt = np.asarray(T, dtype=float)[..., None] / (X.shape[1] - 1)
    # summed segment by segment: totals K/T and T Ubar cancel more digits,
    # and the descent's stopping tests act at that rounding level
    value = (kin[:n_values] / dt + dt * (k - u) + m[:n_values]).sum(axis=1)
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


_FD_STEP = 2.0 ** -23     # X + h is exact for cover coordinates below 2^29


def _hessian_blocks(grads, m, d):
    """Block-tridiagonal Hessian of the interior knots from coloured differences.

    grads (1 + 3d, n, d): the gradient at X, then at X with coordinate j of
    every interior knot i = c (mod 3) moved by h, row 1 + c d + j.  Knot i
    couples only to i - 1 and i + 1, so each row of the Hessian sees exactly
    one moved knot of each colour (Curtis, Powell and Reid 1974).  Returns
    the diagonal blocks A (m, d, d) and the couplings B (m - 1, d, d),
    B[i] = d^2 f / dx_i dx_{i+1}, each averaged with its transpose.
    """
    g = grads[0, 1:-1]
    dG = ((grads[1:, 1:-1] - g) / _FD_STEP).reshape(-1, d, m, d)   # (colour, j, knot, i)
    r = np.arange(m)
    A = dG[r % 3, :, r, :]
    up = dG[(r[:-1] + 1) % 3, :, r[:-1], :]          # d g_{r,i} / d x_{r+1,j} at [r, j, i]
    down = dG[r[:-1] % 3, :, r[:-1] + 1, :]          # d g_{r+1,j} / d x_{r,i} at [r, i, j]
    return (A + A.transpose(0, 2, 1)) / 2, (up.transpose(0, 2, 1) + down) / 2


def _ldl_solve_1(a, b, mu, r):
    """x with (H + mu I) x = r, H tridiagonal (diagonal a, off-diagonal b),
    by an LDL^T sweep in Python floats; None when a pivot is not positive."""
    piv = a[0] + mu
    if not piv > 0.0:
        return None
    pivs, ls, ys = [piv], [], [r[0]]
    for i in range(1, len(a)):
        l = b[i - 1] / piv
        piv = a[i] + mu - l * b[i - 1]
        if not piv > 0.0:
            return None
        pivs.append(piv)
        ls.append(l)
        ys.append(r[i] - l * ys[-1])
    x = [ys[-1] / piv]
    for i in range(len(a) - 2, -1, -1):
        x.append(ys[i] / pivs[i] - ls[i] * x[-1])
    return x[::-1]


def _ldl_solve_2(A, B, mu, r):
    """x with (H + mu I) x = r, H block tridiagonal with symmetric 2x2
    diagonal blocks A and couplings B (H[i, i+1] = B[i], H[i+1, i] = B[i]^T),
    by a block LDL^T sweep in Python floats; None when a pivot block is not
    positive definite.  Forward: D_i = A_i + mu I - B^T D^-1 B of the knot
    before, z_i = D_i^-1 (r_i - B^T z_(i-1)); back: x_i = z_i - D_i^-1 B_i x_(i+1).
    """
    zs, ws = [], []
    w = z = None
    for i, ((p, q), (_, s)) in enumerate(A):
        p, s, r0, r1 = p + mu, s + mu, r[i][0], r[i][1]
        if i:
            (e, f), (g, h) = B[i - 1]
            w00, w01, w10, w11 = w
            p -= e * w00 + g * w10
            q -= e * w01 + g * w11
            s -= f * w01 + h * w11
            r0 -= e * z[0] + g * z[1]
            r1 -= f * z[0] + h * z[1]
        det = p * s - q * q
        if not (p > 0.0 and det > 0.0):
            return None
        ip, iq, js = s / det, -q / det, p / det          # D_i^-1
        z = (ip * r0 + iq * r1, iq * r0 + js * r1)
        zs.append(z)
        if i < len(A) - 1:
            (e, f), (g, h) = B[i]
            w = (ip * e + iq * g, ip * f + iq * h, iq * e + js * g, iq * f + js * h)
            ws.append(w)
    x = [zs[-1]]
    for i in range(len(A) - 2, -1, -1):
        (z0, z1), (w00, w01, w10, w11), (x0, x1) = zs[i], ws[i], x[-1]
        x.append((z0 - w00 * x0 - w01 * x1, z1 - w10 * x0 - w11 * x1))
    return x[::-1]


def _minimize_knots(L, x_from, disp, T, n_knots, k=0.0, n_quad=8, maxiter=400,
                    x_init=None, residual_target=1e-6):
    """Damped Newton descent of the action over the interior knots of the
    straight-line seed (or `x_init`); (path, action, residual).

    One batched `_action_value_grad` call per iteration gives the value and
    gradient at the trial knots and the forward differences for the
    block-tridiagonal Hessian (`_hessian_blocks`); the step solves
    (H + mu I) s = -g by a block LDL^T sweep.  mu follows Levenberg-Marquardt
    with Nielsen's gain-ratio update (Madsen, Nielsen and Tingleff, Methods
    for Non-Linear Least Squares Problems, 2004), and a pivot that is not
    positive raises mu.  Where the two actions agree to rounding, the gain is
    the trapezoid -(g + g_new).s / 2, exact on quadratics.  Stops once
    max|g| / dt <= 0.2 residual_target, after `maxiter` Newton steps (steps
    the gain ratio accepts; a rejected trial raises mu and tries again), or
    when the step no longer moves the knots.
    """
    d = len(x_from)
    line = np.linspace(0.0, 1.0, n_knots)[:, None]
    X = np.array(x_init if x_init is not None else x_from + line * disp, dtype=float)
    m = n_knots - 2
    dt = T / (n_knots - 1)
    probe = np.zeros((3, d, n_knots, d))
    for c in range(3):
        for j in range(d):
            probe[c, j, 1 + c:-1:3, j] = _FD_STEP
    probe = np.concatenate([np.zeros((1, n_knots, d)), probe.reshape(-1, n_knots, d)])
    solve = _ldl_solve_1 if d == 1 else _ldl_solve_2

    def evaluate(X):
        vals, grads = _action_value_grad(L, X + probe, T, k, n_quad, n_values=1)
        return float(vals[0]), grads[0, 1:-1], _hessian_blocks(grads, m, d)

    f, g, (A, B) = evaluate(X)
    mu, nu = 1e-3 * float(np.abs(A).max()), 2.0
    steps = 0
    while steps < maxiter and np.abs(g).max() > 0.2 * residual_target * dt:
        if d == 1:
            a, b, r = A[:, 0, 0].tolist(), B[:, 0, 0].tolist(), (-g[:, 0]).tolist()
        else:
            a, b, r = A.tolist(), B.tolist(), (-g).tolist()
        while (step := solve(a, b, mu, r)) is None and mu < np.inf:
            mu, nu = mu * nu, 2.0 * nu
        if step is None:
            break
        step = np.array(step).reshape(m, d)
        if np.abs(step).max() <= 1e-15 * (1.0 + np.abs(X).max()):
            break
        trial = X.copy()
        trial[1:-1] += step
        f_new, g_new, blocks = evaluate(trial)
        gain = f - f_new
        if abs(gain) <= 1e-12 * (1.0 + abs(f)):     # below what the summed action resolves
            gain = -0.5 * float(((g + g_new) * step).sum())
        rho = gain / (0.5 * float((step * (mu * step - g)).sum()))
        if rho > 0.0:
            steps += 1
            X, f, g, (A, B) = trial, f_new, g_new, blocks
            mu, nu = mu * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), 2.0
        else:
            mu, nu = mu * nu, 2.0 * nu
    return BrokenPath.from_cover(X, T), f, float(np.abs(g).max() / dt)


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
    x = wrap(np.atleast_1d(np.asarray(x, dtype=float)))
    y = wrap(np.atleast_1d(np.asarray(y, dtype=float)))
    if n_knots is None:
        n_knots = default_knot_count(T)
    if n_knots < 3:
        raise ValueError("need at least 3 knots")
    base = minimal_lift(y - x)
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
    """Ascent of the threshold of the closed loop X (m, d), its segments cut
    into equal pieces up to n_knots knots, winding fixed.

    L-BFGS on -theta (two-loop recursion over the last 10 pairs, Nocedal and
    Wright, Numerical Optimization, 2006, Alg. 7.4) with a backtracking Armijo
    search; the first step has unit length.  Stops after 200 steps, on
    max|grad| <= 1e-10, on a relative gain <= 1e-15 or when the search finds
    no decrease.
    """
    d = X.shape[1]
    wind = X[-1] - X[0]
    r = -(-(n_knots - 1) // (len(X) - 1))
    z = (X[:-1, None, :] + (np.arange(r) / r)[:, None] * np.diff(X, axis=0)[:, None, :]).ravel()

    def close(z):
        Y = z.reshape(-1, d)
        return np.vstack([Y, Y[:1] + wind])

    def fun(z):
        theta, _, grad = _thresholds(L, close(z)[None], need_grad=True)
        g = grad[0, :-1]
        g[0] += grad[0, -1]
        return -float(theta[0]), -g.ravel()

    f, g = fun(z)
    pairs = []                      # (s, y, 1 / y.s), oldest first
    for _ in range(200):
        if np.abs(g).max() <= 1e-10:
            break
        p = -g
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * (s @ p))
            p = p - alphas[-1] * y
        if pairs:
            s, y, _ = pairs[-1]
            p = p * ((s @ y) / (y @ y))
        else:
            p = p / np.sqrt(p @ p)
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            p = p + (a - rho * (y @ p)) * s
        slope, t = float(g @ p), 1.0
        for _ in range(40):
            f_new, g_new = fun(z + t * p)
            if f_new <= f + 1e-4 * t * slope:
                break
            t /= 2.0
        else:
            break
        s, y = t * p, g_new - g
        if y @ s > 0.0:
            pairs = (pairs + [(s, y, 1.0 / (y @ s))])[-10:]
        done = f - f_new <= 1e-15 * max(abs(f), abs(f_new), 1.0)
        z, f, g = z + s, f_new, g_new
        if done:
            break
    return close(z)


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
    x = wrap(np.atleast_1d(np.asarray(x, dtype=float)))
    y = wrap(np.atleast_1d(np.asarray(y, dtype=float)))
    base = minimal_lift(y - x)
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
