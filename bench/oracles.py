"""Independent oracles for every checked benchmark output.

Nothing here imports torusdyn: each reference value comes from a closed
form, a 1-D quadrature, a dense eigen-solve or an exact recount written
for the benchmark alone.  Oracles run after the timed pass, so their
cost is in neither `setup_s` nor `wall_s`; scipy is imported only there.
"""

import math

import numpy as np

TWO_PI = 2.0 * math.pi
LOG_PHI = math.log((1.0 + math.sqrt(5.0)) / 2.0)
LOG_CAT = math.log((3.0 + math.sqrt(5.0)) / 2.0)


class Trig1:
    """U(x) = sum_m c_m cos(2 pi m x) + s_m sin(2 pi m x) on T^1."""

    def __init__(self, cos, sin=None):
        self.cos = dict(cos)
        self.sin = dict(sin or {})

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for m, a in self.cos.items():
            out = out + a * np.cos(TWO_PI * m * x)
        for m, b in self.sin.items():
            out = out + b * np.sin(TWO_PI * m * x)
        return out

    def max(self, n=1 << 16):
        return float(self(np.arange(n) / n).max())


def check(label, value, oracle, tol):
    """One oracle comparison: |value - oracle| against tol."""
    value = float(value)
    return {"label": label, "value": value, "oracle": float(oracle),
            "err": abs(value - float(oracle)), "tol": float(tol)}


def bound(label, value, lo, hi, tol):
    """Bracket check: the distance outside [lo, hi] against tol."""
    value = float(value)
    return {"label": label, "value": value, "oracle": [float(lo), float(hi)],
            "err": max(0.0, lo - value, value - hi), "tol": float(tol)}


# --- action potentials and critical values -------------------------------

def _speed(U, k):
    return lambda s: math.sqrt(max(2.0 * (k - float(U(s))), 0.0))


def maupertuis_phi(U, k, x, y):
    """Phi_k(x, y) on T^1 for k > max U: the shorter of the two
    Jacobi-metric arcs from x to y (windings only add whole loops)."""
    from scipy.integrate import quad

    d = (y - x) % 1.0
    if d == 0.0:
        return 0.0
    f = _speed(U, k)
    loop = quad(f, 0.0, 1.0, limit=200)[0]
    arc = quad(f, x, x + d, limit=200)[0]
    return min(arc, loop - arc)


def magnetic_c_t1(U, eta0):
    """c(L) for L = v^2/2 + eta0 v - U on T^1: max U while
    |eta0| <= int sqrt(2(max U - U)), else the k with int sqrt(2(k-U)) = |eta0|."""
    from scipy.integrate import quad
    from scipy.optimize import brentq

    u_max = U.max()

    def loop(k):
        return quad(_speed(U, k), 0.0, 1.0, limit=200)[0]

    if abs(eta0) <= loop(u_max):
        return u_max
    return brentq(lambda k: loop(k) - abs(eta0), u_max, u_max + 0.5 * eta0 ** 2 + 1.0,
                  xtol=1e-13)


def l1_norm(coeffs):
    return sum(abs(v) for v in coeffs.values())


def trig2_eval(cos, pts):
    """sum over modes m of cos_m cos(2 pi m.x) on T^2."""
    out = np.zeros(pts.shape[:-1])
    for m, a in cos.items():
        out = out + a * np.cos(TWO_PI * (pts @ np.asarray(m, dtype=float)))
    return out


def magnetic_bracket_t2(u_cos, eta_cos):
    """Rigorous [max U, max U + sup|eta|^2/2]: a grid maximum below the true
    maximum, and coefficient l1 sums above the true maxima."""
    n = 512
    ticks = np.arange(n) / n
    grid = np.stack(np.meshgrid(ticks, ticks, indexing="ij"), axis=-1)
    lo = float(trig2_eval(u_cos, grid).max())
    u_const = u_cos.get((0, 0), 0.0)
    u_hi = u_const + sum(abs(v) for m, v in u_cos.items() if m != (0, 0))
    eta_sup = math.sqrt(sum(l1_norm(c) ** 2 for c in eta_cos))
    return lo, u_hi + 0.5 * eta_sup ** 2


# --- flows ----------------------------------------------------------------

def energy_drift(potential, xs, vs, e0):
    """max |E - E0| with E = |v|^2/2 + U(x) recomputed from the samples."""
    e = 0.5 * (np.asarray(vs) ** 2).sum(axis=1) + potential(np.asarray(xs))
    return float(np.max(np.abs(e - e0)))


# --- subshifts --------------------------------------------------------------

def strong_components(bits):
    """Strongly connected components (Kosaraju, iterative), as index lists."""
    a = np.asarray(bits, dtype=bool)
    succ = [list(np.flatnonzero(row)) for row in a]
    pred = [list(np.flatnonzero(col)) for col in a.T]
    order, seen = [], [False] * len(a)
    for root in range(len(a)):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(succ[root]))]
        while stack:
            node, it = stack[-1]
            nxt = next((v for v in it if not seen[v]), None)
            if nxt is None:
                stack.pop()
                order.append(node)
            else:
                seen[nxt] = True
                stack.append((nxt, iter(succ[nxt])))
    comp = [-1] * len(a)
    comps = []
    for root in reversed(order):
        if comp[root] >= 0:
            continue
        comp[root] = len(comps)
        members, stack = [], [root]
        while stack:
            node = stack.pop()
            members.append(node)
            for v in pred[node]:
                if comp[v] < 0:
                    comp[v] = comp[root]
                    stack.append(v)
        comps.append(members)
    return comps


def log_perron(bits):
    """log of the spectral radius, from eigvals of each strongly connected block.

    On a whole reducible matrix a defective eigenvalue makes eigvals err by
    eps^(1/k) (2e-6 seen at rho = 1); the Perron root of an irreducible block
    is simple, so per-block eigenvalues are accurate."""
    a = np.asarray(bits, dtype=float)
    rho = 0.0
    for idx in strong_components(bits):
        block = a[np.ix_(idx, idx)]
        if len(idx) > 1 or block[0, 0]:
            rho = max(rho, float(np.max(np.abs(np.linalg.eigvals(block)))))
    return math.log(rho)


def min_period(bits):
    """min{p : trace(A^p) > 0} by boolean matrix powers."""
    a = np.asarray(bits, dtype=np.int64)
    power = a.copy()
    for p in range(1, len(a) + 1):
        if np.trace(power) > 0:
            return p
        power = np.minimum(power @ a, 1)
    return None


def bq_bound(bits):
    return 1.0 + len(bits) * math.exp(1.0 - log_perron(bits))


def golden_lift_height(bonus):
    """(1/E tau) E[int_0^tau s ds] for the golden-mean Parry measure and
    tau = 1 + bonus [w_0 = 1]; Parry weights are (phi^2, 1)/(phi^2 + 1)."""
    phi2 = ((1.0 + math.sqrt(5.0)) / 2.0) ** 2
    p1 = 1.0 / (phi2 + 1.0)
    p0 = 1.0 - p1
    tau1 = 1.0 + bonus
    return (0.5 * (p0 + p1 * tau1 ** 2)) / (p0 + p1 * tau1)


# --- orbit ensembles and shadowing -----------------------------------------

def cat_q():
    """Shadowing constant 1/(1 - 1/lam_u) + 1/(1 - |lam_s|) of [[2,1],[1,1]]."""
    lam_u = (3.0 + math.sqrt(5.0)) / 2.0
    return 1.0 / (1.0 - 1.0 / lam_u) + 1.0 / (1.0 - 1.0 / lam_u)


def _torus_dist(pts):
    d = np.abs(pts[:, None, :] - pts[None, :, :])
    d = np.minimum(d, 1.0 - d)
    return np.sqrt((d * d).sum(axis=-1))


def greedy_size(d, delta):
    covered = np.zeros(len(d), dtype=bool)
    size = 0
    for i in range(len(d)):
        if not covered[i]:
            size += 1
            covered |= d[i] <= delta
    return size


def dynamic_ladder(orbits, steps):
    """[d_t for t < steps], d_t the running max of torus distances up to step t."""
    d = np.zeros((len(orbits), len(orbits)))
    out = []
    for t in range(steps):
        d = np.maximum(d, _torus_dist(orbits[:, t, :]))
        out.append(d)
    return out


def cyclic_jump(points):
    """Largest jump |T p_i - p_{i+1}| of a periodic pseudo-orbit, closing jump included."""
    pts = np.asarray(points, dtype=float)
    mapped = np.stack([2.0 * pts[:, 0] + pts[:, 1], pts[:, 0] + pts[:, 1]], axis=1)
    jump = np.roll(pts, -1, axis=0) - mapped
    jump = (jump + 0.5) % 1.0 - 0.5
    return float(np.max(np.linalg.norm(jump, axis=1)))


# Shadowing checks recompute distances from the points the library returns.
# A double start fixes its true orbit only for a few dozen steps (its rounding
# grows like lam_u^i), so long orbits are checked over SHADOW_PREFIX steps,
# plus the unstable coordinate that the whole pseudo-orbit forces on the start.
SHADOW_PREFIX = 20       # float rounding reaches ~3e-8 by step 20, far below Q delta


def _cat_eigen():
    """(lam_s, e_s, lam_u, e_u) of [[2,1],[1,1]] from eigh (orthonormal vectors)."""
    w, v = np.linalg.eigh(np.array([[2.0, 1.0], [1.0, 1.0]]))
    return w[0], v[:, 0], w[1], v[:, 1]


def cat_step(pts):
    """One float step of the cat map, mod 1, on (..., 2) points."""
    x, y = pts[..., 0], pts[..., 1]
    return np.stack([(2.0 * x + y) % 1.0, (x + y) % 1.0], axis=-1)


def _lift(z):
    return (z + 0.5) % 1.0 - 0.5


def torus_gap(a, b):
    return np.linalg.norm(_lift(np.asarray(a) - np.asarray(b)), axis=-1)


def orbit_prefix_gap(starts, points, steps=SHADOW_PREFIX):
    """max over orbits and i <= steps of d(T^i x0, p_i), x0 the returned starts."""
    x = np.asarray(starts, dtype=float)
    worst = 0.0
    for i in range(min(steps + 1, points.shape[1])):
        worst = max(worst, float(torus_gap(x, points[:, i]).max()))
        x = cat_step(x)
    return worst


def start_unstable_gap(starts, points, terms=80):
    """max |u(x0 - p_0) - sum_i u(e_i) lam_u^-(i+1)| over orbits, e_i the jumps.

    Every true orbit within Q delta of a whole pseudo-orbit of length N has
    this unstable coordinate at its start, up to 2 Q delta lam_u^-(N-1)."""
    _, _, lam_u, e_u = _cat_eigen()
    n = min(terms, points.shape[1] - 1)
    eu = _lift(points[:, 1:n + 1] - cat_step(points[:, :n])) @ e_u
    b0 = eu @ lam_u ** -(np.arange(n) + 1.0)
    return float(np.max(np.abs(_lift(np.asarray(starts) - points[:, 0]) @ e_u - b0)))


def shadow_sup(points):
    """sup_i |x_i - p_i| of the shadow hyperbolic.shadow documents: stable
    corrections summed forward from 0, unstable ones backward to 0."""
    lam_s, e_s, lam_u, e_u = _cat_eigen()
    pts = np.asarray(points, dtype=float)
    jumps = _lift(pts[1:] - cat_step(pts[:-1]))
    a, b = [0.0], [0.0]
    for e in jumps @ e_s:
        a.append(lam_s * a[-1] - e)
    for e in (jumps @ e_u)[::-1]:
        b.append((b[-1] + e) / lam_u)
    corr = np.outer(a, e_s) + np.outer(b[::-1], e_u)
    return float(np.max(np.linalg.norm(corr, axis=1)))


def periodic_gaps(point, cycle):
    """(max_i d(T^i x, p_i), d(T^n x, x)) for the returned point x, exactly.

    The point is a double, hence an exact rational; its orbit is iterated in
    rational arithmetic, so the residual is that of the point itself."""
    from fractions import Fraction

    def dist(u, v):
        d = [abs(a - b) % 1 for a, b in zip(u, v)]
        return math.sqrt(sum(float(min(c, 1 - c)) ** 2 for c in d))

    x0 = [Fraction(float(v)) for v in point]
    x, worst = x0, 0.0
    for p in cycle:
        worst = max(worst, dist(x, [Fraction(float(v)) for v in p]))
        x = [(2 * x[0] + x[1]) % 1, (x[0] + x[1]) % 1]
    return worst, dist(x, x0)
