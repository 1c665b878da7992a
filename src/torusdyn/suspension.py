"""Suspension flows over subshifts with Lipschitz ceiling functions.

Points of the suspension are (symbol window, height) pairs with height
below the ceiling; the flow moves vertically and applies the roof
identification (x, s + tau(x)) ~ (shift x, s).  Shift-invariant measures
on the base (Markov or weighted periodic orbits) lift to flow-invariant
probabilities, represented in weak form through an integrator.
"""

from bisect import bisect_right
from dataclasses import dataclass
from functools import cache

import numpy as np

from .sft import TransitionMatrix, perron_pair, strong_components


class WindowExhausted(ValueError):
    """The finite symbol window is too short for the requested flow time."""


class NonInvariant(ValueError):
    """The base measure fails the shift-invariance check."""


# Rounding slack of every MarkovMeasure check, and the least mass of an edge of P.
_TOL = 1e-12


@dataclass(frozen=True)
class SymbolWindow:
    """Finite two-sided representative of a symbol sequence.

    `center` is the index of coordinate 0 inside `symbols`.
    """

    symbols: tuple
    center: int

    def __post_init__(self):
        if not 0 <= self.center < len(self.symbols):
            raise ValueError("center outside the window")

    def __getitem__(self, i):
        j = self.center + i
        if not 0 <= j < len(self.symbols):
            raise WindowExhausted(f"coordinate {i} beyond the stored window")
        return self.symbols[j]

    def shift(self, k=1):
        """sigma^k as a re-centering of the same stored symbols."""
        c = self.center + k
        if not 0 <= c < len(self.symbols):
            raise WindowExhausted(f"shift by {k} leaves the stored window")
        return SymbolWindow(self.symbols, c)

    @classmethod
    def periodic(cls, cycle, radius):
        """Window of the given radius cut from the periodic sequence."""
        cycle = tuple(cycle)
        if not cycle:
            raise ValueError("a periodic window needs a nonempty cycle, got the empty cycle ()")
        p = len(cycle)
        reps = (2 * radius) // p + 2
        symbols = cycle * reps
        start = (-radius) % p
        return cls(tuple(symbols[start:start + 2 * radius + 1]), radius)


@dataclass(frozen=True)
class CeilingFunction:
    """Positive ceiling tau on symbol windows.

    `radius` bounds the coordinates tau reads; its values lie in
    [tau_min, tau_max], and 0 < tau_min <= tau_max < inf.
    """

    fn: callable
    radius: int
    tau_min: float
    tau_max: float

    def __post_init__(self):
        # written so that NaN fails too
        if not 0 < self.tau_min:
            raise ValueError(f"ceiling bound 'tau_min' must be > 0, got {self.tau_min}")
        if not self.tau_min <= self.tau_max < np.inf:
            raise ValueError(f"ceiling bound 'tau_max' must be finite and >= tau_min = "
                             f"{self.tau_min}, got {self.tau_max}")

    def __call__(self, w: SymbolWindow):
        val = float(self.fn(w))
        if not self.tau_min - 1e-12 <= val <= self.tau_max + 1e-12:
            raise ValueError(f"ceiling value {val} escapes [{self.tau_min}, {self.tau_max}]")
        return val

    @classmethod
    def constant(cls, c):
        return cls(lambda w: c, radius=0, tau_min=c, tau_max=c)

    @classmethod
    def symbol_bonus(cls, base=1.0, bonus=0.5, symbol=1):
        """tau(w) = base + bonus*[w_0 = symbol]; depends on one coordinate."""
        # np.minimum keeps a NaN that the builtin min would drop
        return cls(lambda w: base + bonus * (w[0] == symbol), radius=0,
                   tau_min=float(np.minimum(base, base + bonus)),
                   tau_max=float(np.maximum(base, base + bonus)))


@dataclass(frozen=True)
class SuspensionPoint:
    base: SymbolWindow
    height: float

    def __post_init__(self):
        if not np.isfinite(self.height):
            raise ValueError(f"suspension point height must be finite, got {self.height}")


def suspend_flow(pt: SuspensionPoint, t, tau: CeilingFunction):
    """Flow a suspension point vertically for time t, applying the roof rule.

    Raises WindowExhausted when the finite representative cannot absorb
    the necessary shifts, and ValueError for a non-finite t.
    """
    if not np.isfinite(t):
        raise ValueError(f"flow time t must be finite, got {t}")
    base, height = pt.base, pt.height + t
    while height >= (top := tau(base)):
        height -= top
        base = base.shift(1)
    while height < 0:
        base = base.shift(-1)
        height += tau(base)
    return SuspensionPoint(base, height)


class _WindowMeasure:
    """A shift-invariant measure given by its weighted windows of each radius."""

    def expect_window(self, f, radius):
        """Exact E[f(window)] over the weighted windows of the given radius."""
        return float(sum(wt * f(w) for w, wt in self.windows(radius)))


class MarkovMeasure(_WindowMeasure):
    """Stationary Markov measure (stochastic matrix P, stationary vector p).

    Its support must respect the transition matrix when one is supplied.
    """

    def __init__(self, P, p, A: TransitionMatrix = None):
        P = np.asarray(P, dtype=float)
        p = np.asarray(p, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1] or len(p) != P.shape[0]:
            raise ValueError("shape mismatch")
        if not (np.isfinite(P).all() and np.isfinite(p).all()):
            raise NonInvariant("P and p must be finite")
        if np.any(P < -_TOL) or np.any(p < -_TOL):
            raise NonInvariant("negative probabilities")
        if np.max(np.abs(P.sum(axis=1) - 1.0)) > _TOL:
            raise NonInvariant("rows of P must sum to 1")
        if abs(p.sum() - 1.0) > _TOL or np.max(np.abs(p @ P - p)) > _TOL:
            raise NonInvariant("p is not stationary for P to the required tolerance")
        if A is not None and np.any((P > _TOL) & ~A.bits):
            raise NonInvariant("P moves mass along forbidden transitions")
        self.P = P
        self.p = p
        self.m = len(p)

    def cylinder(self, word):
        """Probability of the cylinder fixing the given consecutive symbols."""
        word = tuple(word)
        w = self.p[word[0]]
        for a, b in zip(word, word[1:]):
            w *= self.P[a, b]
        return float(w)

    def windows(self, radius):
        """All windows of the given radius with positive cylinder weight."""
        words = TransitionMatrix(self.P > 0).legal_words(2 * radius + 1)
        return [(SymbolWindow(w, radius), self.cylinder(w)) for w in words if self.p[w[0]] > 0]

    def sample(self, rng, length):
        """One stationary sample path of the chain, of `length` >= 1 symbols."""
        if not length >= 1:
            raise ValueError(f"sample length must be >= 1, got {length}")
        s = int(rng.choice(self.m, p=self.p))
        cums = np.cumsum(self.P, axis=1)
        # a draw past a rounded row total takes the row's last possible symbol
        for cum, row in zip(cums, self.P):
            cum[np.flatnonzero(row > 0)[-1]:] = np.inf
        cums = cums.tolist()
        path = [s]
        # symbol j takes the draws in [cums[j - 1], cums[j]): none when P[s, j] = 0
        for u in rng.random(length - 1).tolist():
            s = bisect_right(cums[s], u)
            path.append(s)
        return np.array(path)

    def entropy_rate(self):
        """-sum_i p_i P_ij log P_ij."""
        mask = self.P > 0
        return float(-(self.p[:, None] * np.where(mask, self.P * np.log(np.where(mask, self.P, 1.0)), 0.0)).sum())


class OrbitMeasure(_WindowMeasure):
    """Convex combination of periodic-orbit measures on the shift."""

    def __init__(self, cycles, weights=None):
        self.cycles = [tuple(c) for c in cycles]
        if not self.cycles or not all(self.cycles):
            raise ValueError("an orbit measure needs at least one cycle, and no empty cycle")
        if weights is None:
            weights = np.full(len(self.cycles), 1.0 / len(self.cycles))
        self.weights = np.asarray(weights, dtype=float)
        if self.weights.shape != (len(self.cycles),):
            raise ValueError(f"one weight per cycle: {len(self.cycles)} cycles, "
                             f"weights of shape {self.weights.shape}")
        # written so that NaN fails too
        if not (np.isfinite(self.weights).all() and (self.weights >= 0).all()):
            raise NonInvariant(f"orbit weights must be finite and nonnegative, "
                               f"got {self.weights.tolist()}")
        if not abs(self.weights.sum() - 1.0) <= 1e-12:
            raise NonInvariant(f"orbit weights sum to {self.weights.sum()}, not 1")

    def windows(self, radius):
        return [(w, wt / len(cyc)) for cyc, wt in zip(self.cycles, self.weights)
                for w in _phase_windows(cyc, radius)]


def _phase_windows(cycle, radius):
    """The periodic windows of the given radius centred on each phase of `cycle`."""
    return [SymbolWindow.periodic(cycle[i:] + cycle[:i], radius) for i in range(len(cycle))]


def parry_measure(A: TransitionMatrix):
    """Maximal-entropy Markov measure of an irreducible SFT.

    P_ij = A_ij v_j / (rho v_i) and p_i = u_i v_i / (u . v), from the right
    and left Perron vectors v and u (`perron_pair` of A and of its
    transpose).  The Parry measure is the unique measure of maximal entropy
    only when A is irreducible, so a matrix with more than one strongly
    connected component is refused with ValueError.
    """
    n_comp = len(strong_components(A.bits))
    if n_comp != 1:
        raise ValueError(f"the Parry measure needs an irreducible transition matrix; "
                         f"this one has {n_comp} strongly connected components")
    bits = A.bits.astype(float)
    right = perron_pair(A.bits)
    v = right.vector
    u = perron_pair(A.bits.T).vector
    P = bits * v[None, :] / (right.root * v[:, None])
    P /= P.sum(axis=1, keepdims=True)  # scrub rounding
    p = u * v
    p /= p.sum()
    return MarkovMeasure(P, p, A)


class LiftedMeasure:
    """Flow-invariant probability on the suspension, in weak (integrator) form.

    integrate(f, ...) returns (1/E[tau]) E_nu[ int_0^tau(w) f(w, s) ds ],
    the normalized lift of the base measure nu.
    """

    def __init__(self, nu, tau: CeilingFunction):
        if not hasattr(nu, "expect_window"):
            raise NonInvariant("base measure must expose expect_window")
        self.nu = nu
        self.tau = tau
        self.total_time = nu.expect_window(tau, tau.radius)

    def integrate(self, f, radius=None):
        """Integrate f(window, height) against the lifted probability, one
        Gauss-Legendre panel per fiber.

        `radius` is the window radius f needs (defaults to the ceiling's).
        """
        if radius is None:
            radius = self.tau.radius
        radius = max(radius, self.tau.radius)
        return self.nu.expect_window(lambda w: _panel_sum(f, w, self.tau(w)),
                                     radius) / self.total_time


@cache
def _gauss_legendre():
    """(nodes, weights) of the 32-node Gauss-Legendre rule on [-1, 1]."""
    return np.polynomial.legendre.leggauss(32)


def _panel_sum(f, w, top):
    """32-node Gauss-Legendre sum of f(w, s) over the fiber [0, top] above the
    window w; + 0.0 turns a product that underflows to -0.0 into 0.0."""
    nodes, weights = _gauss_legendre()
    half = top / 2.0
    return half * sum(wq * f(w, half + half * xq) for xq, wq in zip(nodes, weights)) + 0.0


def lift_measure(nu, tau: CeilingFunction):
    return LiftedMeasure(nu, tau)


def orbit_weight(cycle, tau: CeilingFunction, cost):
    """Integral of cost(window, height) over one period of a suspended cycle."""
    cycle = tuple(cycle)
    if not cycle:
        raise ValueError("an orbit weight needs a nonempty cycle, got the empty cycle ()")
    radius = max(tau.radius, 1) + len(cycle)
    return float(sum(_panel_sum(cost, w, tau(w)) for w in _phase_windows(cycle, radius)))
