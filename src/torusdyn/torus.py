"""Reduction of torus coordinates (points to [0, 1), displacements to
[-1/2, 1/2)), the uniform grid and the flat torus metric."""

import numpy as np


def _wrap_into(x, out):
    """out <- x % 1.0 in [0, 1), bit for bit on finite input: x - floor(x), and
    1.0 (a tiny negative x rounds up to it) replaced by 0.0.  out may be x.
    The replacing pass runs only when the max is not below 1.0 (or is NaN)."""
    np.subtract(x, np.floor(x), out=out)
    if not out.max(initial=0.0) < 1.0:
        np.copyto(out, 0.0, where=out >= 1.0)
    return out


def _lift_inplace(y):
    """y <- (y + 0.5) % 1.0 - 0.5, bit for bit on finite input."""
    np.add(y, 0.5, out=y)
    np.subtract(y, np.floor(y), out=y)
    np.subtract(y, 0.5, out=y)
    return y


def wrap(x):
    """Reduce torus coordinates to [0, 1) (the fractional part can round to 1.0)."""
    x = np.asarray(x, dtype=float)
    return _wrap_into(x, np.empty(x.shape))


def minimal_lift(x):
    """Representative of a torus displacement with entries in [-1/2, 1/2)."""
    return _lift_inplace(np.array(x, dtype=float))[()]   # a scalar for 0-d input


def grid(n, dim):
    """The n^dim grid points (i_1, ..., i_dim) / n as rows, the first slowest."""
    axes = [np.arange(n) / n] * dim
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)


def torus_metric(a, b):
    """Flat torus distance, broadcasting over leading axes: each coordinate
    gap d = |a - b| mod 1 (exact) counts as min(d, 1 - d)."""
    d = np.abs(np.asarray(a) - np.asarray(b)) % 1.0
    d = np.minimum(d, 1.0 - d)
    return np.sqrt((d * d).sum(axis=-1))
