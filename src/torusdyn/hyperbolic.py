"""Linear hyperbolic toral automorphisms and shadowing with explicit constants.

A 2x2 integer matrix with determinant +-1 and spectral radius above 1 acts
on the 2-torus with exact stable/unstable eigen-splittings.  Pseudo-orbits
are corrected into true orbits by pushing stable error components forward
and pulling unstable ones backward through geometric series, which makes
the shadowing constant Q computable from the eigenvalues alone.  Periodic
pseudo-orbits are closed up exactly: their periodic points are rational, and
the cyclic closing equations are solved in exact integer arithmetic.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .torus import _lift_inplace, _wrap_into, minimal_lift, wrap
from .torus import grid as torus_grid
from .torus import torus_metric as torus_distance   # one metric, two public names


class OutOfLocalChart(ValueError):
    """Bracket requested outside the local product chart."""


class ThresholdExceeded(ValueError):
    """Pseudo-orbit jumps too large for unambiguous lifting."""


class HypothesisViolated(ValueError):
    """Orbits leave the closeness tube assumed by the estimate."""

    def __init__(self, msg, step=None):
        super().__init__(msg)
        self.step = step


def _int_matmul(a, b):
    return [[a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]],
            [a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]]]


def _int_matpow(m, n):
    """Exact integer power of a 2x2 unimodular matrix, n of any sign."""
    if n < 0:
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        inv = [[m[1][1] * det, -m[0][1] * det], [-m[1][0] * det, m[0][0] * det]]
        return _int_matpow(inv, -n)
    out = [[1, 0], [0, 1]]
    base = [list(map(int, row)) for row in m]
    while n:
        if n & 1:
            out = _int_matmul(out, base)
        base = _int_matmul(base, base)
        n >>= 1
    return out


class ToralAutomorphism:
    """Hyperbolic automorphism of T^2 with exact eigen-splitting."""

    def __init__(self, matrix=((2, 1), (1, 1))):
        m = np.asarray(matrix, dtype=np.int64)
        if m.shape != (2, 2):
            raise ValueError("expected a 2x2 integer matrix")
        det = int(round(np.linalg.det(m)))
        if det not in (-1, 1):
            raise ValueError(f"determinant must be +-1, got {det}")
        tr = int(m[0, 0] + m[1, 1])
        disc = tr * tr - 4 * det
        if disc <= 0:
            raise ValueError("eigenvalues are not real")
        lam1 = (tr + np.sqrt(disc)) / 2.0
        lam2 = (tr - np.sqrt(disc)) / 2.0
        lam_u, lam_s = (lam1, lam2) if abs(lam1) > abs(lam2) else (lam2, lam1)
        if abs(lam_u) <= 1.0 + 1e-9:
            raise ValueError("spectral radius must exceed 1")
        self.matrix = m
        self.det = det
        self.lam_u = float(lam_u)
        self.lam_s = float(lam_s)
        self.e_u = self._eigenvector(lam_u)
        self.e_s = self._eigenvector(lam_s)
        # basis data for the bracket and for norm conversion
        self._basis = np.column_stack([self.e_s, self.e_u])
        self._basis_inv = np.linalg.inv(self._basis)
        self.basis_condition = float(np.linalg.cond(self._basis))
        self.delta0 = 0.1    # local product chart radius
        self.expansivity_D = float(np.sqrt(2.0) * self.basis_condition**2)

    def _eigenvector(self, lam):
        a, b = float(self.matrix[0, 0]), float(self.matrix[0, 1])
        if abs(b) > 1e-14:
            v = np.array([b, lam - a])
        else:
            v = np.array([lam - float(self.matrix[1, 1]), float(self.matrix[1, 0])])
        return v / np.linalg.norm(v)

    @property
    def shadowing_q(self):
        """Q = 1/(1 - 1/lam_u) + 1/(1 - |lam_s|)."""
        return 1.0 / (1.0 - 1.0 / abs(self.lam_u)) + 1.0 / (1.0 - abs(self.lam_s))

    def components(self, vec):
        """Coordinates (stable, unstable) of displacement vectors."""
        out = np.asarray(vec, dtype=float) @ self._basis_inv.T
        return out[..., 0], out[..., 1]

    def __repr__(self):
        return f"ToralAutomorphism({self.matrix.tolist()})"


def cat_map():
    """The default automorphism [[2, 1], [1, 1]]."""
    return ToralAutomorphism()


def _exact_images(m, x, steps):
    """Rows M^j x mod 1 for j = 0..steps, M a 2x2 integer matrix, x one point.

    A double is an exact binary fraction, so over a common power-of-two
    denominator M acts on the numerators in Python ints; each row is the
    exact value rounded once.  A non-finite x gives rows of NaN.
    """
    u, v = (float(c) for c in x)
    if not (math.isfinite(u) and math.isfinite(v)):
        return np.full((steps + 1, 2), np.nan)
    (nu, du), (nv, dv) = u.as_integer_ratio(), v.as_integer_ratio()
    den = max(du, dv)
    nu, nv = nu * (den // du), nv * (den // dv)
    (a, b), (c, d) = m
    rows = []
    for _ in range(steps + 1):
        nu, nv = nu % den, nv % den
        rows.append((nu / den, nv / den))     # int / int rounds correctly
        nu, nv = a * nu + b * nv, c * nu + d * nv
    return wrap(rows)                         # x/den can round up to 1.0


def apply(tm: ToralAutomorphism, x, n=1):
    """T^n x mod 1, exactly for the double points x and rounded once."""
    power = _int_matpow(tm.matrix.tolist(), n)
    pts = np.asarray(x, dtype=float)
    images = [_exact_images(power, p, 1)[1] for p in pts.reshape(-1, 2)]
    return np.array(images).reshape(pts.shape)


def _lattice_orbit(mat, k, n_steps, q):
    """[k, M k, ..., M^n_steps k] mod q for int64 lattice points k (..., 2)."""
    out = [k]
    for _ in range(n_steps):
        k = (k @ mat.T) % q
        out.append(k)
    return out


def orbit(tm: ToralAutomorphism, x0, n_steps, modulus=None):
    """Forward orbit x, Tx, ..., T^(n_steps) x as an (n_steps+1, 2) array.

    Each point is the exact iterate of the double x0, rounded once, so long
    orbits carry no accumulated rounding error.  With `modulus` q the orbit
    is instead computed on the rational lattice (k/q) in int64 arithmetic.
    """
    if modulus is None:
        return _exact_images(tm.matrix.tolist(), x0, n_steps)
    q = int(modulus)
    k = np.asarray(np.round(np.asarray(x0, dtype=float) * q), dtype=np.int64) % q
    return np.array(_lattice_orbit(tm.matrix, k, n_steps, q)) / q


def orbit_ensemble(tm: ToralAutomorphism, n_orbits, n_steps, *, backward=0,
                   grid=False, rng=None, modulus=2**31):
    """Ensemble of exact orbits on the rational lattice (k/modulus).

    Returns a LabeledOrbitEnsemble whose origin column holds the initial
    points; `backward` extra columns of inverse iterates precede it.  The
    modular integer arithmetic keeps long and backward orbits exact.
    """
    from .entropy import LabeledOrbitEnsemble

    if n_steps < 0 or backward < 0:
        raise ValueError(f"steps must be nonnegative, got n_steps={n_steps}, "
                         f"backward={backward}")
    q = int(modulus)
    if grid:
        side = int(round(np.sqrt(n_orbits)))
        if side * side != n_orbits:
            raise ValueError("grid ensembles need a square orbit count")
        ticks = (np.arange(side) * (q // side)) % q
        k0 = np.stack(np.meshgrid(ticks, ticks, indexing="ij"), axis=-1).reshape(-1, 2)
    else:
        if rng is None:
            raise ValueError("random ensembles need an rng")
        k0 = rng.integers(0, q, size=(n_orbits, 2))
    k0 = k0.astype(np.int64)
    m = tm.matrix
    adj = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=np.int64)
    minv = (tm.det * adj) % q
    back = _lattice_orbit(minv, k0, backward, q)[:0:-1]   # T^-backward k0, ..., T^-1 k0
    stack = np.stack(back + _lattice_orbit(m, k0, n_steps, q), axis=1).astype(float) / q
    return LabeledOrbitEnsemble(stack, dt=1.0, origin=backward)


def perturbed_orbit_ensemble(tm: ToralAutomorphism, eps, n_orbits, n_steps, *,
                             grid=False, rng=None):
    """Forward float orbits of x -> T x + eps*g(x) mod 1 for a fixed smooth g."""
    from .entropy import LabeledOrbitEnsemble

    if grid:
        side = int(round(np.sqrt(n_orbits)))
        if side * side != n_orbits:
            raise ValueError("grid ensembles need a square orbit count")
        x = torus_grid(side, 2)
    else:
        x = rng.random((n_orbits, 2))
    mf = tm.matrix.astype(float)

    def g(pts):
        return np.stack([np.sin(2 * np.pi * pts[:, 1]),
                         np.cos(2 * np.pi * (pts[:, 0] + pts[:, 1]))], axis=1)

    cols = [x]
    for _ in range(n_steps):
        x = wrap(x @ mf.T + eps * g(x))
        cols.append(x)
    return LabeledOrbitEnsemble(np.stack(cols, axis=1), dt=1.0)


class PseudoOrbit:
    """Finite sequence on T^2 with jump errors d(T x_i, x_{i+1}) <= delta."""

    def __init__(self, tm: ToralAutomorphism, points, delta=None):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 2 or len(points) < 2:
            raise ValueError("expected an (n, 2) array with n >= 2")
        self.tm = tm
        with np.errstate(invalid="ignore"):   # a non-finite point makes its jumps NaN
            self.points = points = wrap(points)
            mapped = points[:-1] @ tm.matrix.T.astype(float)
            _wrap_into(mapped, mapped)
            self.jumps = jumps = _lift_inplace(np.subtract(points[1:], mapped, out=mapped))
        sq = jumps[:, 0] * jumps[:, 0]
        sq += jumps[:, 1] * jumps[:, 1]
        actual = float(np.sqrt(sq.max()))     # max of the norms: sqrt is monotone
        if not math.isfinite(actual):
            raise ValueError("pseudo-orbit points must be finite")
        if delta is None:
            delta = actual
        elif actual > delta + 1e-12:
            raise ValueError(f"claimed jump bound {delta} but observed {actual}")
        self.delta = float(delta)

    def __len__(self):
        return len(self.points)


def _lockstep(tm: ToralAutomorphism, starts, jumps):
    """Rows x_{i+1} = wrap(A x_i + jump_i) from starts (m, 2) and jumps (m, n-1, 2).

    All rows step at once, by one matrix-vector product per row, so each
    row equals its orbit stepped alone bit for bit.
    """
    mf = tm.matrix.astype(float)
    pts = np.empty((len(starts), jumps.shape[1] + 1, 2))
    pts[:, 0] = starts
    for i in range(jumps.shape[1]):
        pts[:, i + 1] = wrap(np.matmul(mf, pts[:, i, :, None])[..., 0] + jumps[:, i])
    return pts


def _draw(n, delta, rng, x0=None):
    """A start and n-1 jumps of norm <= delta, drawn in that order."""
    start = rng.random(2) if x0 is None else wrap(x0)
    angles = rng.uniform(0, 2 * np.pi, n - 1)
    radii = delta * np.sqrt(rng.random(n - 1))
    return start, np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])


def random_pseudo_orbit(tm, n, delta, rng, x0=None):
    """Pseudo-orbit with i.i.d. jumps of norm <= delta."""
    start, jumps = _draw(n, delta, rng, x0)
    return PseudoOrbit(tm, _lockstep(tm, start[None], jumps[None])[0], delta)


def random_pseudo_orbit_batch(tm, count, n, delta, rng):
    """`count` independent pseudo-orbits generated in lockstep (vectorized).

    Each orbit draws its start and jumps in turn, so the batch equals
    `count` successive `random_pseudo_orbit` calls bit for bit.
    """
    if count == 0:
        return []
    starts, jumps = zip(*(_draw(n, delta, rng) for _ in range(count)))
    return [PseudoOrbit(tm, p, delta) for p in _lockstep(tm, np.array(starts), np.array(jumps))]


_SEGMENT = 256          # steps each segment of the correction scan owns


def _warmup(tm: ToralAutomorphism):
    """Steps W after which a start's influence on a correction is below 2^-88.

    Both recursions contract by rho = max(|lam_s|, 1/|lam_u|) per step, so
    rho^W <= 2^-88, far below the rounding of the corrections: W = 64 for
    the cat map, 127 for [[1, 1], [1, 0]].
    """
    rho = max(abs(tm.lam_s), 1.0 / abs(tm.lam_u))
    return math.ceil(88 * math.log(2) / -math.log(rho))


def _scan(x, lam, scaled, out):
    """out[t] = x[t] + lam*out[t-1] along the first axis, lam*out[-1] given.

    `scaled` holds lam*out[t-1] and is updated in place, so a second call
    continues the recursion where the first one stopped.
    """
    for xt, yt in zip(x, out):
        np.add(xt, scaled, out=yt)
        np.multiply(lam, yt, out=scaled)


def _corrections(tm: ToralAutomorphism, es, eu):
    """Bounded corrections (a, b) for rows of stable/unstable jump components.

    a_{i+1} = lam_s a_i - es_i from a_0 = 0 is summed forward, and
    b_i = (b_{i+1} + eu_i)/lam_u from b_n = 0 backward.  Both are the
    first-order recursion y_i = x_i + lam y_{i-1}, in the order of operations
    of a direct-form IIR filter (scipy.signal.lfilter([1], [1, -lam])), and
    run together: step t of one time-major scan takes -es_t and, in reversed
    time, eu_{n-1-t}/lam_u, and gives a_{t+1} and b_{n-1-t}.

    The time axis is cut into segments of _SEGMENT steps, and all segments of
    all rows step together: W + _SEGMENT numpy steps instead of n.  Every
    segment but the first starts W = _warmup(tm) steps early from 0 and is
    kept when its warm-up value at the seam has the bits of the previous
    segment's value there; the recursion is deterministic, so from then on
    the two agree.  A segment whose seam differs, because a start's influence
    outlives W (on long runs of zero jumps the exact value decays while the
    warm-up stays 0), is run again from the exact seam value, in seam order.
    The result equals the sequential recursion bit for bit; a and b are
    (rows, n + 1) views of the time-major scan output.
    """
    es, eu = np.atleast_2d(es), np.atleast_2d(eu)
    rows, n = es.shape
    seg, warm = _SEGMENT, _warmup(tm)
    count = 1 if n <= warm + seg else -(-(n - warm) // seg)
    span = n if count == 1 else warm + seg
    length = (count - 1) * seg + span          # padded scan length, >= n
    x = np.empty((length, 2, rows))
    np.negative(es.T, out=x[:n, 0])
    np.divide(eu[:, ::-1].T, tm.lam_u, out=x[:n, 1])
    x[n:] = 0.0
    y = np.empty((length + 1, 2, rows))
    y[0] = 0.0                                 # a_0 and b_n
    ys = y[1:]
    lam = np.array([[tm.lam_s], [1.0 / tm.lam_u]])

    def segments(v):     # (span, count, 2, rows) view: segment k starts at step k*seg
        st = v.strides[0]
        return as_strided(v, (span, count) + v.shape[1:], (st, seg * st) + v.strides[1:])

    # segments overlap by `warm` steps, and a segment's warm-up values are
    # overwritten by its predecessor's exact ones, so keep those at the seams
    xw, yw = segments(x), segments(ys)
    scaled = np.zeros((count, 2, rows))
    _scan(xw[:warm], lam, scaled, yw[:warm])
    seam_warm = yw[warm - 1, 1:].copy() if count > 1 else None
    _scan(xw[warm:], lam, scaled, yw[warm:])
    for k in range(1, count):       # in seam order, so a re-run's seam is re-checked
        t = k * seg + warm
        if not np.array_equal(seam_warm[k - 1].view(np.int64), ys[t - 1].view(np.int64)):
            _scan(x[t:t + seg], lam, lam * ys[t - 1], ys[t:t + seg])
    return y[:n + 1, 0].T, y[n::-1, 1].T


def shadow(tm: ToralAutomorphism, p: PseudoOrbit):
    """True orbit start x0 with d(T^i x0, p_i) <= Q delta, and the achieved sup.

    The one-orbit case of `shadow_batch`: the jump errors are decomposed in
    the eigenbasis; stable components are summed forward, unstable ones
    backward, each a geometric series, which is exact for the linear model.
    Distances to the pseudo-orbit are the correction norms themselves, so no
    unstable float iteration is needed.
    """
    starts, eps = shadow_batch(tm, [p])
    return starts[0], float(eps[0])


def shadow_batch(tm: ToralAutomorphism, orbits):
    """Shadow many equal-length pseudo-orbits at once; returns (starts, eps array).

    One segmented correction scan (`_corrections`) runs over the time axis
    for all orbits and both eigencomponents.  The corrections are then
    recomposed coordinate by coordinate on its time-major output in two
    buffers, reused through `out=`, and eps is the square root of the
    largest squared norm (sqrt is correctly rounded and monotone, so that is
    the largest norm).  Each row equals `shadow` of that orbit bit for bit.
    """
    deltas = np.array([p.delta for p in orbits])
    if np.any(deltas >= 0.25):
        raise ThresholdExceeded(f"delta={float(deltas.max())} >= 0.25 risks ambiguous lifts")
    a, b = _corrections(tm, *tm.components(np.stack([p.jumps for p in orbits])))
    a, b = a.T, b.T                      # (n + 1, rows) views of the scan output
    (es0, es1), (eu0, eu1) = tm.e_s, tm.e_u
    cx = np.multiply(a, es0)
    cy = np.multiply(b, eu0)
    np.add(cx, cy, out=cx)
    np.multiply(b, eu1, out=cy)
    np.add(np.multiply(a, es1, out=a), cy, out=cy)     # a is not read again
    starts = wrap(np.stack([p.points[0] for p in orbits]) + np.stack([cx[0], cy[0]], axis=1))
    np.multiply(cx, cx, out=cx)
    np.add(cx, np.multiply(cy, cy, out=cy), out=cx)
    return starts, np.sqrt(np.max(cx, axis=0))


@dataclass
class PeriodicShadowResult:
    point: np.ndarray          # the exact point rounded to doubles
    eps_achieved: float
    cover_residual: float
    exact: tuple               # the periodic point as two Fractions in [0, 1)


def periodic_shadow(tm: ToralAutomorphism, p: PseudoOrbit):
    """Exact periodic point shadowing a periodic pseudo-orbit.

    The pseudo-orbit is read cyclically (the closing jump from T p_{N-1}
    back to p_0 included).  Its points are exact rationals, and jumps below
    1/4 fix the integer offsets n_i = rint(A p_i - p_{i+1}) unambiguously.
    The shadowing orbit x_{i+1} = A x_i - n_i closes when
    (A^N - I) x_0 = sum_i A^(N-1-i) n_i, solved over the integers by the
    adjugate; the periodic points of a hyperbolic toral automorphism are
    exactly its rational points.  eps_achieved is the sup of |x_i - p_i| over
    the exact orbit, and cover_residual the distance of A^N x_0 - x_0 to the
    nearest lattice vector, re-checked with the integer power A^N.
    """
    pts = p.points
    n = len(pts)
    closing = minimal_lift(pts[0] - wrap(pts[-1] @ tm.matrix.T.astype(float)))
    delta = max(p.delta, float(np.linalg.norm(closing)))
    if delta >= 0.25:
        raise ThresholdExceeded(f"delta={delta} >= 0.25 risks ambiguous lifts")

    (a, b), (c, d) = tm.matrix.tolist()
    exact_pts = [(Fraction(x), Fraction(y)) for x, y in pts.tolist()]
    offsets = [(round(a * x + b * y - u), round(c * x + d * y - v))
               for (x, y), (u, v) in zip(exact_pts, exact_pts[1:] + exact_pts[:1])]
    m0 = m1 = 0                       # Horner: m = sum_i A^(N-1-i) n_i
    for k0, k1 in offsets:
        m0, m1 = a * m0 + b * m1 + k0, c * m0 + d * m1 + k1
    (p00, p01), (p10, p11) = power = _int_matpow(tm.matrix.tolist(), n)
    den = (p00 - 1) * (p11 - 1) - p01 * p10          # det(A^N - I), never 0
    sign = 1 if den > 0 else -1
    den *= sign
    z0 = sign * ((p11 - 1) * m0 - p01 * m1), sign * ((p00 - 1) * m1 - p10 * m0)

    # the orbit x_i = z_i / den, exactly; int / int rounds correctly
    z, eps = z0, 0.0
    for pt, (k0, k1) in zip(exact_pts, offsets):
        gaps = [(zi * v.denominator - v.numerator * den) / (den * v.denominator)
                for zi, v in zip(z, pt)]
        eps = max(eps, float(np.hypot(*gaps)))
        z = a * z[0] + b * z[1] - k0 * den, c * z[0] + d * z[1] - k1 * den

    res = [(pi[0] * z0[0] + pi[1] * z0[1] - zi) % den for pi, zi in zip(power, z0)]
    cover_residual = float(np.hypot(*(min(r, den - r) / den for r in res)))
    exact = tuple(Fraction(zi % den, den) for zi in z0)
    return PeriodicShadowResult(wrap([float(v) for v in exact]), eps, cover_residual, exact)


def bracket(tm: ToralAutomorphism, x, y, gamma=0.05):
    """Local product point w = W^s_loc(x) cap W^u_loc(y) in canonical coordinates.

    Solves x + s e_s = y + u e_u for the minimal lift of y - x; the
    intersection exists iff both |s| and |u| stay within gamma.
    """
    x, y = wrap(x), wrap(y)
    z = minimal_lift(y - x)
    if np.linalg.norm(z) > tm.delta0:
        raise OutOfLocalChart(f"d(x,y)={np.linalg.norm(z):.4f} exceeds {tm.delta0}")
    sol = np.linalg.solve(np.column_stack([tm.e_s, -tm.e_u]), z)
    s, u = float(sol[0]), float(sol[1])
    w = wrap(x + s * tm.e_s)
    exists = abs(s) <= gamma and abs(u) <= gamma
    return w, exists


def expansivity_gap(tm: ToralAutomorphism, x, y, L, beta):
    """d(x, y) for orbits beta-close over |n| <= L; contract d <= D beta e^(-lambda L).

    Raises HypothesisViolated (reporting the first bad step) if the orbits
    leave the beta-tube.
    """
    x, y = wrap(x), wrap(y)
    for n in range(-L, L + 1):
        d = torus_distance(apply(tm, x, n), apply(tm, y, n))
        if d > beta:
            raise HypothesisViolated(f"d(T^{n} x, T^{n} y) = {d:.3g} > beta={beta}", step=n)
    return float(torus_distance(x, y))


class Specification:
    """Strictly increasing integer times with gaps >= L and points on T^2.

    delta-possibility means each point, flowed over its gap, lands within
    delta of the next point.
    """

    def __init__(self, tm: ToralAutomorphism, times, points, gap_lower_bound=None):
        times = [int(t) for t in times]
        points = wrap(points)
        if len(times) != len(points) or len(times) < 2:
            raise ValueError("need matching times and points, at least two")
        gaps = [t2 - t1 for t1, t2 in zip(times, times[1:])]
        if min(gaps) <= 0:
            raise ValueError("times must be strictly increasing")
        self.gap = min(gaps)
        if gap_lower_bound is not None and self.gap < gap_lower_bound:
            raise ValueError(f"gap {self.gap} below required {gap_lower_bound}")
        self.tm = tm
        self.times = times
        self.points = points
        errs = [torus_distance(apply(tm, points[i], gaps[i]), points[i + 1])
                for i in range(len(gaps))]
        self.delta = float(max(errs))

    def fill(self):
        """Expand into the pseudo-orbit whose only jumps sit at the t_i.

        Each gap is filled with the exact orbit of its point (`orbit`), so
        the jumps inside a gap are rounding-sized however long it is.
        """
        segs = []
        for i in range(len(self.times) - 1):
            gap = self.times[i + 1] - self.times[i]
            segs.append(orbit(self.tm, self.points[i], gap - 1))
        segs.append(self.points[-1][None, :])
        return PseudoOrbit(self.tm, np.vstack(segs))


def shadow_specification(tm: ToralAutomorphism, spec: Specification):
    """Shadow a specification by filling its gaps with true orbit segments."""
    return shadow(tm, spec.fill())
