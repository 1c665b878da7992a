"""Reduction of torus coordinates: points to [0, 1), displacements to [-1/2, 1/2)."""

import numpy as np


def _frac(x):
    """x - floor(x): equal to x % 1.0 bit for bit on finite input, and cheaper."""
    return x - np.floor(x)


def wrap(x):
    """Reduce torus coordinates to [0, 1) (the fractional part can round to 1.0)."""
    y = _frac(np.asarray(x, dtype=float))
    return np.where(y >= 1.0, 0.0, y)


def minimal_lift(x):
    """Representative of a torus displacement with entries in [-1/2, 1/2)."""
    return _frac(np.asarray(x, dtype=float) + 0.5) - 0.5
