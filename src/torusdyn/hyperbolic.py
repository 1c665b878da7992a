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

from .entropy import LabeledOrbitEnsemble
from .torus import _lift_inplace, _wrap_into, minimal_lift, torus_metric, wrap


class OutOfLocalChart(ValueError):
    """Bracket requested outside the local product chart."""


class ThresholdExceeded(ValueError):
    """Pseudo-orbit jumps too large for unambiguous lifting."""


class HypothesisViolated(ValueError):
    """Orbits leave the closeness tube assumed by the estimate."""

    def __init__(self, msg, step=None):
        super().__init__(msg)
        self.step = step


def _int_matpow(m, n):
    """M^n in Python ints (an object array) for a 2x2 unimodular int64 m; M^-1 = det adj M."""
    (a, b), (c, d) = m.tolist()
    if n < 0:
        det = a * d - b * c
        (a, b), (c, d), n = (d * det, -b * det), (-c * det, a * det), -n
    return np.linalg.matrix_power(np.array([[a, b], [c, d]], dtype=object), n)


def _numerators(x):
    """Integer numerators k (object array, x's shape, 0 if not finite) and the least q with
    k/q = x: every double is n/d with d a power of two, so q is the largest d."""
    ratios = list(map(float.as_integer_ratio, np.where(np.isfinite(x), x, 0.0).ravel().tolist()))
    q = max((d for _, d in ratios), default=1)
    return np.array([n * (q // d) for n, d in ratios], dtype=object).reshape(np.shape(x)), q


class ToralAutomorphism:
    """Hyperbolic automorphism of T^2 with exact eigen-splitting."""

    def __init__(self, matrix=((2, 1), (1, 1))):
        try:
            m = np.asarray(matrix, dtype=np.int64)
        except OverflowError:
            big = next(v for v in np.ravel(np.asarray(matrix, dtype=object))
                       if not -2**63 <= v < 2**63)
            raise ValueError(f"matrix entry {big} is outside the int64 range "
                             f"[-2^63, 2^63 - 1]") from None
        if m.shape != (2, 2):
            raise ValueError("expected a 2x2 integer matrix")
        (a, b), (c, d) = m.tolist()             # Python ints: det and trace are exact
        det = a * d - b * c
        if det not in (-1, 1):
            raise ValueError(f"determinant must be +-1, got {det}")
        tr = a + d
        disc = tr * tr - 4 * det
        if disc < 0:
            raise ValueError("not hyperbolic: the eigenvalues are not real")
        root = math.sqrt(disc)
        lam_u = (tr + root) / 2.0 if tr >= 0 else (tr - root) / 2.0   # a sum: no cancellation
        lam_s = det / lam_u                     # (tr - root)/2 cancels to 0.0 for large traces
        if abs(lam_u) <= 1.0 + 1e-9:
            raise ValueError(f"not hyperbolic: the eigenvalues {lam_u:g} and {lam_s:g} "
                             "have modulus 1")
        self.matrix = m
        self.det = det
        self.lam_u = float(lam_u)
        self.lam_s = float(lam_s)
        self.e_u = self._eigenvector(lam_u)
        self.e_s = self._eigenvector(lam_s)
        # basis data for the bracket and for norm conversion
        self._basis = np.column_stack([self.e_s, self.e_u])
        self._basis_inv = np.linalg.inv(self._basis)
        self.expansivity_D = float(np.sqrt(2.0) * float(np.linalg.cond(self._basis))**2)

    def _eigenvector(self, lam):
        # b != 0: with b = 0 the eigenvalues are a, d = +-1, which __init__ rejects
        a, b = float(self.matrix[0, 0]), float(self.matrix[0, 1])
        v = np.array([b, lam - a])
        return v / np.linalg.norm(v)

    @property
    def shadowing_q(self):
        """Q = 1/(1 - 1/lam_u) + 1/(1 - |lam_s|)."""
        return 1.0 / (1.0 - 1.0 / abs(self.lam_u)) + 1.0 / (1.0 - abs(self.lam_s))

    def __repr__(self):
        return f"ToralAutomorphism({self.matrix.tolist()})"


def cat_map():
    """The default automorphism [[2, 1], [1, 1]]."""
    return ToralAutomorphism()


def apply(tm: ToralAutomorphism, x, n=1):
    """T^n x mod 1 for points x (..., 2) by one product of M^n with their numerators:
    each exact image rounded once, NaN for a non-finite point."""
    k, q = _numerators(x)
    out = _lattice_orbit(tm.matrix, k, 0, q, start=n)[..., 0, :]
    out[~np.isfinite(x).all(axis=-1)] = np.nan
    return out


def _lattice_modulus(modulus):
    """`modulus` as an int q in [1, 2^63), so lattice points k/q have int64 numerators."""
    if not (isinstance(modulus, (int, np.integer)) and 1 <= modulus < 2**63):
        raise ValueError(f"modulus must be an integer in [1, 2^63), got {modulus!r}")
    return int(modulus)


def _lattice_dtype(mat, q):
    """int64 when (q - 1) times M's largest absolute row sum fits it, else object (Python ints)."""
    return np.int64 if (q - 1) * max(abs(a) + abs(b) for a, b in mat.tolist()) < 2**63 else object


def _lattice_orbit(mat, k, n_steps, q, start=0):
    """Rows M^start k/q, ..., M^(start+n_steps) k/q mod 1 along axis -2, for integer
    numerators k (..., 2) over q: exact, and each rounded once.  The one stepper from
    numerators to images: k is reduced mod q, M^start mod q applied once, and each
    product runs in int64 where `_lattice_dtype` allows and in Python ints past that."""
    k = np.asarray(k) % q
    if start:
        power = _int_matpow(mat, start) % q
        dtype = _lattice_dtype(power, q)
        k = k.astype(dtype) @ power.astype(dtype).T % q
    dtype = _lattice_dtype(mat, q)
    mat, k = mat.astype(dtype), k.astype(dtype)
    out = [k]
    for _ in range(n_steps):
        k = (k @ mat.T) % q
        out.append(k)
    if q > 2**53:                 # a numerator need not be a double: divide in Python ints
        return wrap((np.stack(out, axis=-2).astype(object) / q).astype(float))  # may round to 1.0
    return np.stack(out, axis=-2).astype(float) / q   # k < q <= 2^53 are doubles: one rounding


def orbit(tm: ToralAutomorphism, x0, n_steps, modulus=None):
    """Forward orbit x, Tx, ..., T^(n_steps) x as an (n_steps+1, 2) array.

    Each point is the exact iterate of the double x0, rounded once, so long
    orbits carry no accumulated rounding error.  With `modulus` q, an integer
    in [1, 2^63), it is instead the exact orbit of the lattice point
    rint(x0 q)/q, in int64 where no product can leave it and Python ints past.
    """
    if n_steps < 0:
        raise ValueError(f"steps must be nonnegative, got n_steps={n_steps}")
    finite = np.isfinite(x0).all()
    if modulus is None:
        if not finite:
            return np.full((n_steps + 1, 2), np.nan)
        k, q = _numerators(x0)
    else:
        q = _lattice_modulus(modulus)
        if not finite:
            raise ValueError(f"lattice orbits need a finite point, got x0="
                             f"{np.asarray(x0, dtype=float).tolist()}")
        k = np.array([int(v) for v in np.round(np.asarray(x0, dtype=float) * q).tolist()],
                     dtype=object)
    return _lattice_orbit(tm.matrix, k, n_steps, q)


def orbit_ensemble(tm: ToralAutomorphism, n_orbits, n_steps, *, rng, backward=0,
                   modulus=2**31):
    """Ensemble of exact orbits from n_orbits random points of the lattice (k/modulus).

    Returns a LabeledOrbitEnsemble whose origin column holds the initial
    points, drawn from `rng`; `backward` extra columns of inverse iterates
    precede it.  The modular integer arithmetic of `orbit`, one pass from
    T^-backward of the initial points, keeps long and backward orbits exact.
    """
    if n_steps < 0 or backward < 0:
        raise ValueError(f"steps must be nonnegative, got n_steps={n_steps}, "
                         f"backward={backward}")
    q = _lattice_modulus(modulus)
    k0 = rng.integers(0, q, size=(n_orbits, 2))
    return LabeledOrbitEnsemble(_lattice_orbit(tm.matrix, k0, backward + n_steps, q,
                                               start=-backward), origin=backward)


def perturbed_orbit_ensemble(tm: ToralAutomorphism, eps, n_orbits, n_steps, *, rng):
    """Forward float orbits of x -> T x + eps*g(x) mod 1 for a fixed smooth g, from
    n_orbits random points drawn from `rng`."""
    x = rng.random((n_orbits, 2))
    mf = tm.matrix.astype(float)

    def g(pts):
        return np.stack([np.sin(2 * np.pi * pts[:, 1]),
                         np.cos(2 * np.pi * (pts[:, 0] + pts[:, 1]))], axis=1)

    cols = [x]
    for _ in range(n_steps):
        x = wrap(x @ mf.T + eps * g(x))
        cols.append(x)
    return LabeledOrbitEnsemble(np.stack(cols, axis=1))


def _float_images(mat):
    """Whether float products M x, x in [0, 1)^2, are exact enough for jumps: their
    rounding, about M's largest absolute row sum times 2^-53, is at most 2^-43, a
    tenth of the 1e-12 slack of PseudoOrbit's bound check.  The cat map's is 2^-51."""
    return max(abs(a) + abs(b) for a, b in mat.tolist()) <= 2**10


class PseudoOrbit:
    """Finite sequence on T^2 with jump errors d(T x_i, x_{i+1}) <= delta.

    `jumps` is an (n - 1, 2) array, the transposed view of a C-contiguous
    (2, n - 1) array: the points are mapped as A @ points[:-1].T, the
    orientation in which BLAS is fastest for a long thin operand, and each
    entry is the same two-term dot product as in points[:-1] @ A.T.  Where
    that product's rounding is not far below the jumps (`_float_images`),
    the images are the exact ones of `apply` instead.  The norm check and
    `shadow_batch` read `jumps.T`, one contiguous row per coordinate; the
    jumps are kept, so `shadow_batch` reads them rather than mapping the
    points again.
    """

    def __init__(self, tm: ToralAutomorphism, points, delta=None):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 2 or len(points) < 2:
            raise ValueError("expected an (n, 2) array with n >= 2")
        if delta is not None and not delta >= 0:      # written so that NaN fails too
            raise ValueError(f"claimed jump bound must be >= 0, got {delta}")
        with np.errstate(invalid="ignore"):   # a non-finite point makes its jumps NaN
            self.points = points = wrap(points)
            if _float_images(tm.matrix):
                mapped = tm.matrix.astype(float) @ points[:-1].T
                _wrap_into(mapped, mapped)
            else:
                mapped = np.ascontiguousarray(apply(tm, points[:-1]).T)
            rows = _lift_inplace(np.subtract(points[1:].T, mapped, out=mapped))
            self.jumps = rows.T
        sq = rows[0] * rows[0]
        sq += rows[1] * rows[1]
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
    row equals its orbit stepped alone bit for bit.  Where the float
    product's rounding is not far below the jumps (`_float_images`), A x_i is
    the exact image of `apply` instead.
    """
    mf = tm.matrix.astype(float) if _float_images(tm.matrix) else None
    pts = np.empty((len(starts), jumps.shape[1] + 1, 2))
    pts[:, 0] = starts
    for i in range(jumps.shape[1]):
        image = apply(tm, pts[:, i]) if mf is None else np.matmul(mf, pts[:, i, :, None])[..., 0]
        pts[:, i + 1] = wrap(image + jumps[:, i])
    return pts


def _draw(n, delta, rng):
    """A start and n-1 jumps of norm <= delta, drawn in that order."""
    start = rng.random(2)
    angles = rng.uniform(0, 2 * np.pi, n - 1)
    radii = delta * np.sqrt(rng.random(n - 1))
    return start, np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])


def random_pseudo_orbit(tm, n, delta, rng):
    """Pseudo-orbit with i.i.d. jumps of norm <= delta: a batch of one."""
    return random_pseudo_orbit_batch(tm, 1, n, delta, rng)[0]


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
_BLOCK = 1 << 14        # elements (steps x rows) in a cache-sized block of the recomposition
_GROUP = 128            # most rows the load takes together; its scratch holds 4 * _BLOCK per half
_DELTA0 = 0.1           # local product chart radius of `bracket`


def _warmup(tm: ToralAutomorphism):
    """Steps W after which a start's influence on a correction is below 2^-88.

    Both recursions contract by rho = max(|lam_s|, 1/|lam_u|) per step, so
    rho^W <= 2^-88, far below the rounding of the corrections: W = 64 for
    the cat map, 127 for [[1, 1], [1, 0]].
    """
    rho = max(abs(tm.lam_s), 1.0 / abs(tm.lam_u))
    return math.ceil(88 * math.log(2) / -math.log(rho))


def _scan(x, lam, scaled, out):
    """out[t] = lam*out[t-1] - x[t] along the first axis, lam*out[-1] given.

    `scaled` holds lam*out[t-1] and is updated in place, so a second call
    continues the recursion where the first one stopped.  out may be x.
    """
    for xt, yt in zip(x, out):
        np.subtract(scaled, xt, out=yt)
        np.multiply(lam, yt, out=scaled)


def _load(x, part, n, lam_u, t0):
    """x[i] <- (es_t, eu_{n-1-t}/-lam_u) for the steps t = t0 + i, and 0 from step n on.

    part(r, s0, s1, out) writes row r's es and eu over the steps s0..s1-1
    into out (2, s1 - s0).  Rows go up to _GROUP at a time through one
    (2, group, width) scratch of 4 * _BLOCK elements per half (1 MB in all):
    each row writes its window, the unstable half is divided by -lam_u where
    it is contiguous, and each half goes into the buffer by one copy, the
    stable half to the window's steps and the unstable half, reversed, to
    the mirrored ones.  A copy runs along the rows of its group, so the
    group is as wide as the window (at least 512 steps) allows.  When the
    halves of x need different windows (a re-run of one segment), each is
    read in a pass of its own.  eu/-lam_u = -(eu/lam_u) exactly.
    """
    rows = x.shape[2]
    m, group = max(0, min(t0 + len(x), n) - t0), min(rows, _GROUP)
    width = 4 * _BLOCK // group
    u = n - t0 - m                   # the eu step of x[m - 1]
    scratch = np.empty((2, group, min(width, m)))
    for s, halves in [(t0, (0, 1))] if u == t0 else [(t0, (0,)), (u, (1,))]:
        for g0 in range(0, rows, group):
            g1 = min(g0 + group, rows)
            for i0 in range(0, m, width):
                i1 = min(i0 + width, m)
                w = scratch[:, :g1 - g0, :i1 - i0]
                for r in range(g0, g1):
                    part(r, s + i0, s + i1, w[:, r - g0])
                if 0 in halves:
                    np.copyto(x[i0:i1, 0, g0:g1], w[0].T)
                if 1 in halves:
                    np.divide(w[1], -lam_u, out=w[1])
                    np.copyto(x[m - i1:m - i0, 1, g0:g1][::-1], w[1].T)
    x[m:] = 0.0


def _scan_corrections(tm: ToralAutomorphism, rows, n, part):
    """Bounded corrections (a, b), time-major (n + 1, rows) views of one buffer.

    The rows' stable and unstable jump components (es, eu) over n steps are
    read through part(r, s0, s1, out), as `_load` describes.
    a_{i+1} = lam_s a_i - es_i from a_0 = 0 is summed forward, and
    b_i = (b_{i+1} + eu_i)/lam_u from b_n = 0 backward.  Both are the
    first-order recursion y_i = x_i + lam y_{i-1}, in the order of operations
    of a direct-form IIR filter (scipy.signal.lfilter([1], [1, -lam])), and
    run together: step t of one time-major scan takes -es_t and, in reversed
    time, eu_{n-1-t}/lam_u, and gives a_{t+1} and b_{n-1-t}.  The buffer
    holds the negated inputs, es_t and eu_{n-1-t}/-lam_u, and the scan
    subtracts them (x + y = y - (-x) exactly), so the stable half is a copy.

    One time-major buffer (steps, 2, rows) holds the input (`_load`) and is
    overwritten by the output, step by step.  The time axis is cut into
    segments of _SEGMENT steps, and all segments of all rows step together:
    W + _SEGMENT numpy steps instead of n, each on whole (segments, 2, rows)
    arrays with lam stored at full size, so that no operand broadcasts.  Each
    segment first runs W = _warmup(tm) warm-up steps from 0 over the end of
    the previous one (segment 0 over W zero steps of padding, and it then
    starts from its exact value 0), writing only into a scratch array; then
    its own steps in place.  A segment is kept when the warm-up value at its
    seam has the bits of the previous segment's value there; the recursion is
    deterministic, so from then on the two agree.  A segment whose seam
    differs, because a start's influence outlives W (on long runs of zero
    jumps the exact value decays while the warm-up stays 0), is loaded again,
    its window only, and run again from the exact seam value, in seam order.
    The result equals the sequential recursion bit for bit.
    """
    seg, warm = _SEGMENT, _warmup(tm)
    count = 1 if n <= warm + seg else -(-n // seg)
    if count == 1:
        seg, warm = n, 0                        # nothing to warm up
    z = np.empty((warm + 1 + count * seg, 2, rows))
    z[:warm + 1] = 0.0                          # warm-up padding, then a_0 = b_n = 0
    steps = z[warm + 1:]                        # steps[t] holds x_t, then y_t
    _load(steps, part, n, tm.lam_u, 0)
    lam = np.empty((count, 2, rows))
    lam[:, 0], lam[:, 1] = tm.lam_s, 1.0 / tm.lam_u

    st = z.strides[0]                           # segment k: steps k*seg - warm ..
    zw = as_strided(z[1:], (warm + seg, count, 2, rows), (st, seg * st) + z.strides[1:])
    seam_warm = np.empty((count, 2, rows))      # each warm-up step overwrites it
    scaled = np.zeros((count, 2, rows))
    _scan(zw[:warm], lam, scaled, as_strided(seam_warm, (warm,) + seam_warm.shape,
                                             (0,) + seam_warm.strides))
    scaled[0] = 0.0
    _scan(zw[warm:], lam, scaled, zw[warm:])
    for k in range(1, count):       # in seam order, so a re-run's seam is re-checked
        t = k * seg
        if not np.array_equal(seam_warm[k].view(np.int64), steps[t - 1].view(np.int64)):
            again = steps[t:t + seg]
            _load(again, part, n, tm.lam_u, t)
            _scan(again, lam[0], lam[0] * steps[t - 1], again)
    y = z[warm:warm + n + 1]
    return y[:, 0], y[::-1, 1]


def _jump_components(tm: ToralAutomorphism, orbits):
    """part(r, s0, s1, out) for `_scan_corrections`: the (stable, unstable)
    components of orbit r's jumps s0..s1-1, as basis_inv @ p.jumps.T[:, s0:s1].
    A one-step window is cut from a two-step product: numpy takes a
    one-column product through gemv, which may round otherwise than gemm."""
    jumps, n = [p.jumps.T for p in orbits], len(orbits[0]) - 1

    def part(r, s0, s1, out):
        if s1 - s0 == 1 < n:
            lo = min(s0, n - 2)
            out[:] = (tm._basis_inv @ jumps[r][:, lo:lo + 2])[:, s0 - lo:s1 - lo]
        else:
            np.matmul(tm._basis_inv, jumps[r][:, s0:s1], out=out)

    return part


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

    The jumps are split into eigencomponents straight into the time-major
    buffer of the segmented correction scan (`_scan_corrections`): `_load`
    takes up to _GROUP orbits at a time, one window of steps after another,
    each as `basis_inv @ p.jumps.T[:, window]` (`_jump_components`, the
    eigencomponents of the stacked jumps without the stacked copy)
    into one cache-sized scratch, and copies each half into the buffer.  The
    scan runs over the time axis for all orbits and both eigencomponents,
    and a re-run of one segment reads only that segment's windows again.
    The corrections are recomposed coordinate by coordinate on the scan's
    time-major output in blocks of _BLOCK // rows steps, in block-sized
    buffers that stay in cache; a block-sized running max of the squared
    norms is reduced over time once at the end, and eps is its square root
    (max is exact, and sqrt is correctly rounded and monotone, so that is
    the largest norm).  Each row equals `shadow` of that orbit bit for bit.
    """
    if not orbits:
        raise ValueError("shadow_batch needs at least one pseudo-orbit")
    lengths = sorted({len(p) for p in orbits})
    if len(lengths) > 1:
        raise ValueError(f"pseudo-orbits must have equal lengths, got lengths {lengths}")
    deltas = np.array([p.delta for p in orbits])
    if not np.all(deltas < 0.25):        # written so that a NaN bound fails too
        bad = float(deltas[~(deltas < 0.25)][0])
        raise ThresholdExceeded(f"delta={bad} is not below 0.25: ambiguous lifts")
    a, b = _scan_corrections(tm, len(orbits), lengths[0] - 1, _jump_components(tm, orbits))
    (es0, es1), (eu0, eu1) = tm.e_s, tm.e_u
    heads = np.stack([p.points[0] for p in orbits])
    starts = wrap(heads + np.stack([a[0] * es0 + b[0] * eu0, a[0] * es1 + b[0] * eu1], axis=1))
    block = max(1, _BLOCK // len(orbits))
    cx, cy, tmp = np.empty((3, min(block, len(a)), len(orbits)))
    run = np.zeros(cx.shape)             # squared norms are >= 0, so 0 is neutral
    for t0 in range(0, len(a), block):
        ab, bb = a[t0:t0 + block], b[t0:t0 + block]
        x, y, w, r = cx[:len(ab)], cy[:len(ab)], tmp[:len(ab)], run[:len(ab)]
        np.add(np.multiply(ab, es0, out=x), np.multiply(bb, eu0, out=w), out=x)
        np.add(np.multiply(ab, es1, out=w), np.multiply(bb, eu1, out=y), out=y)
        np.add(np.multiply(x, x, out=x), np.multiply(y, y, out=y), out=x)
        np.maximum(r, x, out=r)
    return starts, np.sqrt(run.max(axis=0))


@dataclass
class PeriodicShadowResult:
    point: np.ndarray          # the exact point rounded to doubles
    eps_achieved: float
    cover_residual: float
    exact: tuple               # the periodic point as two Fractions in [0, 1)


def periodic_shadow(tm: ToralAutomorphism, p: PseudoOrbit):
    """Exact periodic point shadowing a periodic pseudo-orbit.

    The pseudo-orbit is read cyclically (the closing jump from T p_{N-1}
    back to p_0 included).  Its points are exact binary fractions k_i/q, and
    jumps below 1/4 fix the integer offsets n_i = rint(A p_i - p_{i+1})
    unambiguously: floor((2 (A k_i - k_{i+1}) + q) / 2q) meets no tie.
    The shadowing orbit x_{i+1} = A x_i - n_i closes when
    (A^N - I) x_0 = sum_i A^(N-1-i) n_i, solved over the integers by the
    adjugate; the periodic points of a hyperbolic toral automorphism are
    exactly its rational points.  eps_achieved is the sup of |x_i - p_i| over
    the exact orbit, and cover_residual the distance of A^N x_0 - x_0 to the
    nearest lattice vector, re-checked with the integer power A^N.
    """
    pts = p.points
    n = len(pts)
    k, q = _numerators(pts)
    lifted = k @ tm.matrix.T.astype(object) - np.roll(k, -1, axis=0)
    offsets = (lifted * 2 + q) // (2 * q)
    r0, r1 = (lifted[-1] - offsets[-1] * q).tolist()   # q times the closing jump's minimal lift
    delta = max(p.delta, math.hypot(r0 / q, r1 / q))
    if not delta < 0.25:                 # written so that a NaN bound fails too
        raise ThresholdExceeded(f"delta={delta} is not below 0.25: ambiguous lifts")

    (a, b), (c, d) = tm.matrix.tolist()
    m0 = m1 = 0                       # Horner: m = sum_i A^(N-1-i) n_i
    for k0, k1 in offsets.tolist():
        m0, m1 = a * m0 + b * m1 + k0, c * m0 + d * m1 + k1
    (p00, p01), (p10, p11) = power = _int_matpow(tm.matrix, n).tolist()
    den = (p00 - 1) * (p11 - 1) - p01 * p10          # det(A^N - I), never 0
    sign = 1 if den > 0 else -1
    den *= sign
    z0 = sign * ((p11 - 1) * m0 - p01 * m1), sign * ((p00 - 1) * m1 - p10 * m0)

    # the orbit x_i = z_i / den, exactly; its gaps to p_i are int / int, rounded once
    z, zs = z0, []
    for k0, k1 in offsets.tolist():
        zs.append(z)
        z = a * z[0] + b * z[1] - k0 * den, c * z[0] + d * z[1] - k1 * den
    gaps = ((np.array(zs, dtype=object) * q - k * den) / (den * q)).astype(float)
    eps = float(np.hypot(gaps[:, 0], gaps[:, 1]).max())

    res = [(pi[0] * z0[0] + pi[1] * z0[1] - zi) % den for pi, zi in zip(power, z0)]
    cover_residual = float(np.hypot(*(min(r, den - r) / den for r in res)))
    exact = tuple(Fraction(zi % den, den) for zi in z0)
    return PeriodicShadowResult(wrap([float(v) for v in exact]), eps, cover_residual, exact)


def bracket(tm: ToralAutomorphism, x, y):
    """Local product point w = W^s_loc(x) cap W^u_loc(y) in canonical coordinates.

    Solves x + s e_s = y + u e_u for the minimal lift of y - x; the
    intersection exists iff both |s| and |u| stay within 0.05.
    """
    x, y = wrap(x), wrap(y)
    z = minimal_lift(y - x)
    if np.linalg.norm(z) > _DELTA0:
        raise OutOfLocalChart(f"d(x,y)={np.linalg.norm(z):.4f} exceeds {_DELTA0}")
    sol = np.linalg.solve(np.column_stack([tm.e_s, -tm.e_u]), z)
    s, u = float(sol[0]), float(sol[1])
    w = wrap(x + s * tm.e_s)
    exists = abs(s) <= 0.05 and abs(u) <= 0.05
    return w, exists


def expansivity_gap(tm: ToralAutomorphism, x, y, L, beta):
    """d(x, y) for orbits beta-close over |n| <= L; contract d <= D beta e^(-lambda L).

    Raises HypothesisViolated (reporting the first bad step) if the orbits
    leave the beta-tube, and ValueError unless L >= 0 and beta is finite and >= 0.
    """
    if not (L >= 0 and 0 <= beta < math.inf):    # written so that a NaN beta fails too
        raise ValueError(f"expansivity_gap needs L >= 0 and a finite beta >= 0, "
                         f"got L={L}, beta={beta}")
    pts = wrap([x, y])
    k, q = _numerators(pts)
    rows = _lattice_orbit(tm.matrix, k, 2 * L, q, start=-L)    # T^-L, then 2L steps by T
    rows[~np.isfinite(pts).all(axis=1)] = np.nan
    d = torus_metric(rows[0], rows[1])
    if (d > beta).any():
        n = int(np.argmax(d > beta)) - L
        raise HypothesisViolated(f"d(T^{n} x, T^{n} y) = {d[n + L]:.3g} > beta={beta}", step=n)
    return float(torus_metric(pts[0], pts[1]))


class Specification:
    """Strictly increasing integer times, their least gap `gap`, and points on T^2.

    delta-possibility means each point, flowed over its gap, lands within
    delta of the next point.
    """

    def __init__(self, tm: ToralAutomorphism, times, points):
        times = [int(t) for t in times]
        points = wrap(points)
        if len(times) != len(points) or len(times) < 2:
            raise ValueError("need matching times and points, at least two")
        gaps = [t2 - t1 for t1, t2 in zip(times, times[1:])]
        if min(gaps) <= 0:
            raise ValueError("times must be strictly increasing")
        self.gap = min(gaps)
        self.tm = tm
        self.times = times
        self.points = points
        errs = [torus_metric(apply(tm, points[i], gaps[i]), points[i + 1])
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
