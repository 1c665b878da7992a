"""Discretized action functionals and the critical-value machinery.

Curves are broken paths: uniformly-timed knots on the torus with integer
winding offsets per segment, evaluated by Gauss-Legendre quadrature of
k + L along the linear interpolant in the universal cover.  Minimizers
come from damped Newton descent on the knots across winding classes, with
the block-tridiagonal Hessian taken from coloured differences of the
gradient: of the action at a fixed duration (Tonelli minimizers), or of
its least value over the duration in closed form, the free-time action
(the action potential, extrapolated in the knot count).  Closed loops of
negative action mark the sub-critical regime and certify it.  The
critical value is the best closed-form loop threshold over a battery,
each of its four best loops lifted by an L-BFGS ascent."""

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


def _action_terms(L: MechanicalLagrangian, X, n_quad=8, n_values=None, origin=0.0):
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
    s, w = _gl_nodes(n_quad)
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


def _action_value_grad(L: MechanicalLagrangian, X, T, k, n_quad=8, need_grad=True,
                       n_values=None, origin=0.0):
    """Actions of the first `n_values` (default all) cover paths origin + X
    (B, n, d) at durations T, and the knot gradients of all B."""
    kin, u, m, grad = _action_terms(L, X, n_quad, n_values, origin)
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
_STEP_FLOOR = 1e-15       # steps below _STEP_FLOOR (1 + max|X|) no longer move the knots


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
    """x with (H + mu I) x = r, H tridiagonal (diagonal a, off-diagonal b), by
    an LDL^T sweep in Python floats, for the columns of r at once (r[i] and
    x[i] list one value per column); None when a pivot is not positive."""
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
        ys.append([v - l * y for v, y in zip(r[i], ys[-1])])
    x = [[y / piv for y in ys[-1]]]
    for i in range(len(a) - 2, -1, -1):
        x.append([y / pivs[i] - ls[i] * v for y, v in zip(ys[i], x[-1])])
    return x[::-1]


def _ldl_solve_2(A, B, mu, r):
    """As `_ldl_solve_1` for symmetric 2x2 diagonal blocks A and couplings B
    (H[i, i+1] = B[i] = H[i+1, i]^T; r[i], x[i] list a 2-vector per column):
    pivot blocks D_i = A_i + mu I - B^T D^-1 B of the knot before, forward
    z_i = D_i^-1 (r_i - B^T z_(i-1)), back x_i = z_i - D_i^-1 B_i x_(i+1)."""
    zs, ws = [], []
    for i, ((p, q), (_, s)) in enumerate(A):
        p, s, ri = p + mu, s + mu, r[i]
        if i:
            ((e, f), (g, h)), (w00, w01, w10, w11) = B[i - 1], ws[-1]
            p -= e * w00 + g * w10
            q -= e * w01 + g * w11
            s -= f * w01 + h * w11
            ri = [(r0 - e * z0 - g * z1, r1 - f * z0 - h * z1)
                  for (r0, r1), (z0, z1) in zip(ri, zs[-1])]
        det = p * s - q * q
        if not (p > 0.0 and det > 0.0):
            return None
        ip, iq, js = s / det, -q / det, p / det          # D_i^-1
        zs.append([(ip * r0 + iq * r1, iq * r0 + js * r1) for r0, r1 in ri])
        if i < len(A) - 1:
            (e, f), (g, h) = B[i]
            ws.append((ip * e + iq * g, ip * f + iq * h, iq * e + js * g, iq * f + js * h))
    x = [zs[-1]]
    for i in range(len(A) - 2, -1, -1):
        w00, w01, w10, w11 = ws[i]
        x.append([(z0 - w00 * x0 - w01 * x1, z1 - w10 * x0 - w11 * x1)
                  for (z0, z1), (x0, x1) in zip(zs[i], x[-1])])
    return x[::-1]


def _free_time_action(L: MechanicalLagrangian, X, k, n_quad=8, origin=0.0):
    """(F, T*, sigma, grad of `_action_terms`) of the path origin + X[0];
    None when g = k - Ubar <= 0.

    F = 2 sqrt(K g) + M, the least of the action K/T + T g + M over T, at
    T* = sqrt(K / g), is the discrete Maupertuis-Jacobi length (Contreras
    and Iturriaga, Global minimizers of autonomous Lagrangians, 1999, sec. 2).
    grad F = grad(1/T*, -T*, 1); the Hessian of F is the fixed-T Hessian at
    T* minus sigma w w^T, w = grad(1/T*, T*, 0), sigma = 1 / (2 sqrt(K g)):
    rank 1, as 2 sqrt(K g) is homogeneous of degree 1 in (K, g).
    """
    kin, u, m, grad = _action_terms(L, X, n_quad, 1, origin)
    K, gap = (X.shape[1] - 1) * float(kin[0].sum()), k - float(u[0].mean())
    if not gap > 0.0:
        return None
    root = np.sqrt(K * gap)
    return 2.0 * root + float(m[0].sum()), np.sqrt(K / gap), 0.5 / root, grad


def _minimize_knots(L, x_from, disp, T, n_knots, k=0.0, n_quad=8, maxiter=400,
                    x_init=None, residual_target=1e-6):
    """Damped Newton descent over the interior knots of the straight-line
    seed (or `x_init`, relative to x_from); (path, value, residual).

    The value is the (L + k)-action at duration T or, T None, the free-time
    action of `_free_time_action`, whose T* the path gets.  Knots are taken
    relative to x_from, added only where U and eta are sampled.  One
    batched `_action_terms` call per iteration gives the value, gradient,
    Hessian blocks (`_hessian_blocks`) and, free in time, w; the step solves
    (H + mu I - sigma w w^T) s = -g by a block LDL^T sweep, plus one
    Sherman-Morrison back-solve free in time.  mu follows Nielsen's
    gain-ratio update (Madsen, Nielsen and Tingleff, Methods for Non-Linear
    Least Squares Problems, 2004); a non-positive pivot or Sherman-Morrison
    denominator, or a trial with k <= Ubar, raises mu.  Where the values
    agree to rounding the gain is the trapezoid -(g + g_new).s / 2.  Stops
    once the Euler-Lagrange residual max|g| / dt is <= 0.2 residual_target,
    after `maxiter` accepted steps, or when the step no longer moves X.
    """
    d = len(x_from)
    line = np.linspace(0.0, 1.0, n_knots)[:, None]
    X = np.array(x_init if x_init is not None else line * disp, dtype=float)
    m = n_knots - 2
    probe = np.zeros((1 + 3 * d + (T is None), n_knots, d))   # X, the probes, (X for w)
    for c in range(3):
        for j in range(d):
            probe[1 + c * d + j, 1 + c:-1:3, j] = _FD_STEP
    solve = _ldl_solve_1 if d == 1 else _ldl_solve_2

    def evaluate(X):
        """(value, grad, Hessian blocks, (w, sigma) or None, T); None where k <= Ubar."""
        if T is not None:
            vals, grads = _action_value_grad(L, X + probe, T, k, n_quad, n_values=1, origin=x_from)
            return float(vals[0]), grads[0, 1:-1], _hessian_blocks(grads, m, d), None, T
        if (free := _free_time_action(L, X + probe, k, n_quad, x_from)) is None:
            return None
        f, t_star, sigma, grad = free
        sign = np.append(np.ones(len(probe) - 1), -1.0)
        grads = grad(1.0 / t_star, -t_star * sign, sign > 0)
        return (f, grads[0, 1:-1], _hessian_blocks(grads[:-1], m, d),
                (grads[-1, 1:-1], sigma), t_star)

    def newton_step(A, B, g, mu, rank1):
        """s with (H + mu I - sigma w w^T) s = -g; None unless positive definite."""
        rhs = np.stack([-g] if rank1 is None else [-g, rank1[0]], axis=1)   # (m, columns, d)
        if d == 1:
            A, B, rhs = A[:, 0, 0], B[:, 0, 0], rhs[..., 0]
        if (xs := solve(A.tolist(), B.tolist(), mu, rhs.tolist())) is None:
            return None
        xs = np.array(xs).reshape(m, -1, d)
        if rank1 is None:
            return xs[:, 0]
        (step, z), (w, sigma) = xs.transpose(1, 0, 2), rank1
        denom = 1.0 - sigma * float((w * z).sum())
        return step + z * (sigma * float((w * step).sum()) / denom) if denom > 0.0 else None

    if (state := evaluate(X)) is None:
        raise NoConvergence(f"k = {k} does not exceed the mean of U on the seed path")
    f, g, (A, B), rank1, dur = state
    mu, nu = 1e-3 * float(np.abs(A).max()), 2.0
    steps = 0
    while steps < maxiter and np.abs(g).max() > 0.2 * residual_target * dur / (m + 1):
        while (step := newton_step(A, B, g, mu, rank1)) is None and mu < np.inf:
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
            X, (f, g, (A, B), rank1, dur) = trial, state
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


def default_knot_count(T):
    """Knot budget growing with duration, capped to keep descent cheap."""
    return int(np.clip(int(8 * T) + 7, 9, 97))


def tonelli_minimizer(L: MechanicalLagrangian, x, y, T, n_knots=None, w_max=3,
                      residual_tol=1e-6, maxiter=400, n_quad=8):
    """Fixed-endpoint, fixed-time local action minimizer across winding classes
    (`_least_over_classes`; the bound charges the mean of eta exactly, so a
    class that eta rewards stays in play).

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
    path, _, res = _least_over_classes(
        L, minimal_lift(y - x), w_max, T, 0.0,
        lambda disp: _minimize_knots(L, x, disp, T, n_knots, 0.0, n_quad, maxiter))
    if res > residual_tol:
        raise NoConvergence(f"residual {res:.2e} above {residual_tol:.0e}", path, res)
    return path


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
    L-BFGS ascent of theta.  `find(k)` checks best theta > k.  The random
    loops close on their first knot in the cover, so all are null-homologous
    and raise theta only where d eta != 0; classes beyond `w_max` are never
    tried.  U = 0 with eta = (0.6, -0.8), where c = 0.5 needs winding
    (-3, 4), gives the 0.49 of the class (-1, 1) loop.

    Potentials at several k can share one search and its battery.
    """

    def __init__(self, L: MechanicalLagrangian, budget=10000, seed=0, w_max=2, n_knots=33):
        self.L = L
        self.budget = budget
        _, _, self.u_max, self.x_max = grid_extremum(L.potential, L.dim)
        self.w_max = w_max
        self.n_knots = n_knots
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


def action_potential(L: MechanicalLagrangian, k, x, y, w_max=3,
                     search: NegativeLoopSearch = None, n_quad=8):
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
    ValueError for k NaN or +inf, non-finite x or y, or w_max < 0.  The
    target is 1e-6, or the rounding floor 2 _STEP_FLOOR (1 + max|X|) / dt^2
    where larger: the residual a knot step too small to move the knots
    leaves, linear in k.  Where 1 / dt^2 overflows, 1e-6 stands.
    """
    x, y = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (x, y))
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
        path, coarse, res = _minimize_knots(L, x, disp, None, 33, k, n_quad)
        X, seed = path.cover_knots() - x, np.empty((65, L.dim))
        seed[::2], seed[1::2] = X, (X[:-1] + X[1:]) / 2
        path, fine, res_fine = _minimize_knots(L, x, disp, None, 65, k, n_quad, x_init=seed)
        return path, (4.0 * fine - coarse) / 3.0, max(res, res_fine)

    path, value, res = _least_over_classes(L, base, w_max, None, k, richardson)
    rate = (path.n_knots - 1) / float(path.T)                # 1 / dt
    floor = 2.0 * _STEP_FLOOR * (1.0 + float(np.abs(path.cover_knots() - x).max())) * (rate * rate)
    target = max(1e-6, floor if floor < np.inf else 0.0)
    if not res <= target:
        raise NoConvergence(f"action potential: residual {res:.2e} above {target:.0e}", path, res)
    return ActionValue(float(value))


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
    """Phi_c(x, y) + Phi_c(y, x); zero picks out static pairs.  At x = y it
    is 0 by the shortcut Phi_k(x, x) = 0, so it tests nothing of the Aubry set."""
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
