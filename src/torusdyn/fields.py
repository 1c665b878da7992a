"""Smooth periodic scalar and covector fields on the d-torus.

Potentials are truncated Fourier series, so values, gradients and rigorous
sup-norm bounds come straight from the coefficients with no
finite-difference noise, and `FourierSeries.point_grad` gives the gradient
at one point as one closure on T^1 and T^2 alike.  Arbitrary scalar fields
(for example perturbing canal potentials) plug into the same protocol:
callable on point batches, with a `grad` method and conservative
`value_bounds`.
"""

import math

import numpy as np

from .torus import grid, wrap

TWO_PI = 2.0 * np.pi


class FourierSeries:
    """Real trigonometric polynomial sum_k [a_k cos(2pi k.x) + b_k sin(2pi k.x)].

    Coefficients are dicts mapping integer index tuples to finite floats
    (a non-finite one is a ValueError naming its mode); the zero index
    contributes a constant (its sin term vanishes).

    Values and gradients take one point (x of shape (d,)) or a batch
    (..., d).  A stack of three or more axes whose blocks have more than
    one row is evaluated as one (N, d) block and reshaped back: numpy
    would otherwise call BLAS once per block, and each entry is the same
    dot product either way.  A block of one row stays stacked, because
    numpy then takes a vector product whose bits differ.  With no sine
    coefficient the sine half is skipped; `grad` adds +0.0 in place of
    the zero cosine term, so a zero comes out with the same sign as with
    it.
    """

    def __init__(self, dim, cos=None, sin=None):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim
        self.cos = {self._key(k): float(v) for k, v in (cos or {}).items() if v != 0.0}
        self.sin = {self._key(k): float(v) for k, v in (sin or {}).items() if v != 0.0}
        for name, coeffs in (("cos", self.cos), ("sin", self.sin)):
            for k, v in coeffs.items():
                if not math.isfinite(v):
                    raise ValueError(f"{name} coefficient of mode {k} must be finite, got {v}")
        self.sin.pop((0,) * dim, None)
        keys = sorted(set(self.cos) | set(self.sin))
        self._modes = np.array(keys, dtype=float).reshape(len(keys), dim)
        self._a = np.array([self.cos.get(k, 0.0) for k in keys])
        self._b = np.array([self.sin.get(k, 0.0) for k in keys])
        self._has_sin = bool(self.sin)

    def _key(self, k):
        k = (k,) if np.isscalar(k) else tuple(int(i) for i in k)
        if len(k) != self.dim:
            raise ValueError(f"index {k} has wrong dimension")
        return k

    def _phase(self, x):
        """2pi k.x per mode, on a stack of multi-row blocks flattened to (N, d)."""
        if x.ndim > 2 and x.shape[-2] > 1:
            x = x.reshape(-1, x.shape[-1])
        return TWO_PI * (x @ self._modes.T)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if not len(self._a):
            return np.zeros(x.shape[:-1])
        phase = self._phase(x)
        value = np.cos(phase) @ self._a
        if self._has_sin:
            value += np.sin(phase) @ self._b
        return value.reshape(x.shape[:-1])

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        if not len(self._a):
            return np.zeros(x.shape)
        phase = self._phase(x)
        coeff = -np.sin(phase) * self._a
        coeff += np.cos(phase) * self._b if self._has_sin else 0.0
        coeff *= TWO_PI
        return (coeff @ self._modes).reshape(x.shape)

    def point_grad(self):
        """The gradient at one point as a closure on Python floats.

        g(x0, x1=0.0) -> (g0, g1) on T^1 and T^2: `grad`'s arithmetic mode
        by mode with math.sin/math.cos, for callers that step one point at
        a time, where numpy's per-call cost dominates.  On T^1 the modes get
        a second index 0, so x1 is ignored and g1 is 0.0; the padded term
        x1 * 0 = +0.0 can only turn a -0.0 phase into +0.0, which changes
        the sign of a zero term of a sum that starts at +0.0, and no bit.
        The constant mode and a zero sine coefficient's term are left out
        for the same reason.  Equal to `grad` bit for bit up to the order
        numpy's `@` sums in (exact for one or two modes with indices in
        {-1, 0, 1}).  A phase that overflows gives nan, as in `grad`.
        """
        if self.dim > 2:
            raise ValueError("point_grad supports dim 1 and 2")
        pad = [0.0] * (2 - self.dim)
        terms = [(*k, *pad, a, b) for k, a, b in
                 zip(self._modes.tolist(), self._a.tolist(), self._b.tolist()) if any(k)]

        def g(x0, x1=0.0):
            g0 = g1 = 0.0
            try:
                for k0, k1, a, b in terms:
                    phase = TWO_PI * (x0 * k0 + x1 * k1)
                    coeff = -math.sin(phase) * a
                    if b:
                        coeff += math.cos(phase) * b
                    coeff *= TWO_PI
                    g0 += coeff * k0
                    g1 += coeff * k1
            except ValueError:      # math.sin of an infinite phase
                return math.nan, math.nan
            return g0, g1
        return g

    def value_bounds(self):
        """Rigorous (lo, hi): constant term +- the l1 norm of the other modes."""
        const = self.cos.get((0,) * self.dim, 0.0)
        spread = sum(abs(v) for k, v in self.cos.items() if any(k)) \
            + sum(abs(v) for v in self.sin.values())
        return const - spread, const + spread

    def is_zero(self):
        return not len(self._a)

    @classmethod
    def zero(cls, dim):
        return cls(dim)


class SumField:
    """Signed sum of scalar fields sharing a dimension."""

    def __init__(self, terms):
        self.terms = [(float(sign), field) for sign, field in terms]
        self.dim = self.terms[0][1].dim

    def __call__(self, x):
        return sum(sign * field(x) for sign, field in self.terms)

    def grad(self, x):
        return sum(sign * field.grad(x) for sign, field in self.terms)

    def value_bounds(self):
        lo = hi = 0.0
        for sign, field in self.terms:
            flo, fhi = field.value_bounds()
            if sign >= 0:
                lo, hi = lo + sign * flo, hi + sign * fhi
            else:
                lo, hi = lo + sign * fhi, hi + sign * flo
        return lo, hi


class OneForm:
    """Covector field on T^d with FourierSeries (or compatible) components."""

    def __init__(self, components):
        self.components = list(components)
        self.dim = len(self.components)
        for c in self.components:
            if c.dim != self.dim:
                raise ValueError("component dimension mismatch")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.stack([c(x) for c in self.components], axis=-1)

    def jacobian(self, x):
        """J[..., i, j] = d eta_i / d x_j."""
        return np.stack([c.grad(x) for c in self.components], axis=-2)

    def curl2(self, x):
        """d eta = (d1 eta_2 - d2 eta_1) dx1^dx2 on T^2."""
        if self.dim != 2:
            raise ValueError("curl2 needs dim 2")
        j = self.jacobian(x)
        return j[..., 1, 0] - j[..., 0, 1]

    def sup_norm_bound(self):
        """Rigorous bound on |eta(x)| (l2 of per-component l1 bounds)."""
        per = []
        for c in self.components:
            lo, hi = c.value_bounds()
            per.append(max(abs(lo), abs(hi)))
        return float(np.linalg.norm(per))

    def is_zero(self):
        return all(getattr(c, "is_zero", lambda: False)() for c in self.components)

    @classmethod
    def zero(cls, dim):
        return cls([FourierSeries.zero(dim) for _ in range(dim)])


def _newton_polish(field, x, sign):
    """Up to 20 Newton steps toward the extremum of `field` near x: sign +1
    for a minimum, -1 for a maximum.  The Hessian is a central difference of
    the gradient (step 1e-5), taken in the same batched call as the gradient;
    the polish stops once the Hessian of sign * field is not positive
    definite or a step is below 1e-15."""
    dim = len(x)
    offsets = np.vstack([np.zeros(dim), 1e-5 * np.eye(dim), -1e-5 * np.eye(dim)])
    for _ in range(20):
        grads = sign * field.grad(x + offsets)
        hess = (grads[1:dim + 1] - grads[dim + 1:]).T / 2e-5
        hess = (hess + hess.T) / 2
        if np.any(np.linalg.eigvalsh(hess) <= 0.0):
            break
        step = np.linalg.solve(hess, grads[0])
        x = x - step
        if np.abs(step).max() <= 1e-15:
            break
    return x


# points per batch of `grid_extremum`: a field's temporaries grow with its batch,
# and a three-segment `CanalPotential` on T^2 holds about 3 KB a point (a 48 MB
# peak at this size, 670 MB for the whole 512^2 grid)
_GRID_BATCH = 1 << 14


def grid_extremum(field, dim, n=512, refine=True):
    """Numeric (min, argmin, max, argmax) of a periodic scalar field.

    Dense grid scan followed by a Newton polish of each extremum, kept when
    it improves on the grid value; an oracle helper, not a rigorous bound.
    The grid is evaluated in batches of whole rows of n points, at most
    `_GRID_BATCH` points where n allows, so the field's temporaries stay
    bounded while the values, and the first grid point of least and of
    largest value, are those of one batch over the whole grid.
    """
    mesh = grid(n, dim)
    step = max(1, _GRID_BATCH // n) * n
    vals = np.concatenate([field(mesh[i:i + step]) for i in range(0, len(mesh), step)])
    lo_i, hi_i = int(np.argmin(vals)), int(np.argmax(vals))
    best = {"min": (float(vals[lo_i]), mesh[lo_i]), "max": (float(vals[hi_i]), mesh[hi_i])}
    if refine:
        for kind, sign in (("min", 1.0), ("max", -1.0)):
            x = _newton_polish(field, best[kind][1], sign)
            val = float(field(x))
            if sign * val < sign * best[kind][0]:
                best[kind] = (val, wrap(x))
    return best["min"][0], best["min"][1], best["max"][0], best["max"][1]
