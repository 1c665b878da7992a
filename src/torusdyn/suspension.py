"""Suspension flows over subshifts with Lipschitz ceiling functions.

Points of the suspension are (symbol window, height) pairs with height
below the ceiling; the flow moves vertically and applies the roof
identification (x, s + tau(x)) ~ (shift x, s).  Shift-invariant measures
on the base (Markov or weighted periodic orbits) lift to flow-invariant
probabilities, represented in weak form through an integrator.
"""

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .sft import TransitionMatrix, perron_pair, strong_components


class WindowExhausted(ValueError):
    """The finite symbol window is too short for the requested flow time."""


class NonInvariant(ValueError):
    """The base measure fails the shift-invariance check."""


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

    @property
    def left_radius(self):
        return self.center

    @property
    def right_radius(self):
        return len(self.symbols) - 1 - self.center

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
        p = len(cycle)
        reps = (2 * radius) // p + 2
        symbols = cycle * reps
        start = (-radius) % p
        return cls(tuple(symbols[start:start + 2 * radius + 1]), radius)


@dataclass(frozen=True)
class CeilingFunction:
    """Positive ceiling tau on symbol windows.

    `radius` bounds the coordinates tau reads; `lipschitz` is its constant
    in the cylinder metric when known.
    """

    fn: callable
    radius: int
    tau_min: float
    tau_max: float
    lipschitz: float = 0.0

    def __post_init__(self):
        if not 0 < self.tau_min <= self.tau_max:
            raise ValueError("need 0 < tau_min <= tau_max")

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
        return cls(lambda w: base + bonus * (w[0] == symbol), radius=0,
                   tau_min=min(base, base + bonus), tau_max=max(base, base + bonus),
                   lipschitz=abs(bonus))


@dataclass(frozen=True)
class SuspensionPoint:
    base: SymbolWindow
    height: float


def suspend_flow(pt: SuspensionPoint, t, tau: CeilingFunction):
    """Flow a suspension point vertically for time t, applying the roof rule.

    Raises WindowExhausted when the finite representative cannot absorb
    the necessary shifts.
    """
    base, height = pt.base, pt.height + t
    while height >= tau(base):
        height -= tau(base)
        base = base.shift(1)
    while height < 0:
        base = base.shift(-1)
        height += tau(base)
    return SuspensionPoint(base, height)


def roof_crossings(w: SymbolWindow, t, tau: CeilingFunction):
    """Heights s in (0, tau(w)) where the time-t flow of (w, s) crosses a roof.

    These are the kinks of s -> suspend_flow((w, s), t); integrands composed
    with the flow are smooth between consecutive crossings.
    """
    top = tau(w)
    pts = []
    if t > 0:
        cum, base = 0.0, w
        while True:
            cum += tau(base)
            s = cum - t
            if s >= top:
                break
            if s > 0.0:
                pts.append(s)
            base = base.shift(1)
    elif t < 0:
        cum, base = 0.0, w
        while True:
            s = cum - t  # crossing below height 0 after j backward shifts
            if s <= 0.0:
                break
            if s < top:
                pts.append(s)
            base = base.shift(-1)
            cum -= tau(base)
    return sorted(pts)


class MarkovMeasure:
    """Stationary Markov measure (stochastic matrix P, stationary vector p).

    Its support must respect the transition matrix when one is supplied.
    """

    def __init__(self, P, p, A: TransitionMatrix = None, tol=1e-12):
        P = np.asarray(P, dtype=float)
        p = np.asarray(p, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1] or len(p) != P.shape[0]:
            raise ValueError("shape mismatch")
        if not (np.isfinite(P).all() and np.isfinite(p).all()):
            raise NonInvariant("P and p must be finite")
        if np.any(P < -tol) or np.any(p < -tol):
            raise NonInvariant("negative probabilities")
        if np.max(np.abs(P.sum(axis=1) - 1.0)) > tol:
            raise NonInvariant("rows of P must sum to 1")
        if abs(p.sum() - 1.0) > tol or np.max(np.abs(p @ P - p)) > tol:
            raise NonInvariant("p is not stationary for P to the required tolerance")
        if A is not None and np.any((P > tol) & ~A.bits):
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
        words = [(s,) for s in range(self.m) if self.p[s] > 0]
        for _ in range(2 * radius):
            words = [w + (t,) for w in words for t in np.flatnonzero(self.P[w[-1]] > 0)]
        return [(SymbolWindow(w, radius), self.cylinder(w)) for w in words]

    def expect_window(self, f, radius):
        """Exact E_nu[f(window)] by cylinder enumeration."""
        return float(sum(wt * f(w) for w, wt in self.windows(radius)))

    def sample(self, rng, length):
        """One stationary sample path of the chain."""
        s = int(rng.choice(self.m, p=self.p))
        cums = np.cumsum(self.P, axis=1).tolist()
        path = [s]
        for u in rng.random(length - 1).tolist():
            s = bisect_left(cums[s], u)
            path.append(s)
        return np.array(path)

    def entropy_rate(self):
        """-sum_i p_i P_ij log P_ij."""
        mask = self.P > 0
        return float(-(self.p[:, None] * np.where(mask, self.P * np.log(np.where(mask, self.P, 1.0)), 0.0)).sum())


class OrbitMeasure:
    """Convex combination of periodic-orbit measures on the shift."""

    def __init__(self, cycles, weights=None):
        self.cycles = [tuple(c) for c in cycles]
        if weights is None:
            weights = np.full(len(cycles), 1.0 / len(cycles))
        self.weights = np.asarray(weights, dtype=float)
        if abs(self.weights.sum() - 1.0) > 1e-12 or np.any(self.weights < 0):
            raise NonInvariant("orbit weights must be a probability vector")

    def windows(self, radius):
        out = []
        for cyc, wt in zip(self.cycles, self.weights):
            p = len(cyc)
            for phase in range(p):
                rot = cyc[phase:] + cyc[:phase]
                out.append((SymbolWindow.periodic(rot, radius), wt / p))
        return out

    def expect_window(self, f, radius):
        return float(sum(wt * f(w) for w, wt in self.windows(radius)))


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

    def integrate(self, f, radius=None, n_quad=32, breakpoints=None):
        """Integrate f(window, height) against the lifted probability.

        `radius` is the window radius f needs (defaults to the ceiling's);
        `breakpoints(w)` may list interior heights where f kinks, so each
        smooth panel is quadratured separately.
        """
        if radius is None:
            radius = self.tau.radius
        radius = max(radius, self.tau.radius)
        rule = np.polynomial.legendre.leggauss(n_quad)

        def fiber(w):
            top = self.tau(w)
            cuts = [0.0, top]
            if breakpoints is not None:
                cuts = sorted(set(cuts) | {float(b) for b in breakpoints(w) if 0.0 < b < top})
            return _panel_sum(f, w, cuts, rule)

        return self.nu.expect_window(fiber, radius) / self.total_time


def _panel_sum(f, w, cuts, rule):
    """Gauss-Legendre `rule` (nodes, weights) sum of f(w, s) over each panel
    [cuts[i], cuts[i + 1]] of the fiber above the window w."""
    nodes, weights = rule
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        total += half * sum(wq * f(w, mid + half * xq) for xq, wq in zip(nodes, weights))
    return total


def lift_measure(nu, tau: CeilingFunction):
    return LiftedMeasure(nu, tau)


def orbit_weight(cycle, tau: CeilingFunction, cost, n_quad=32):
    """Integral of cost(window, height) over one period of a suspended cycle."""
    cycle = tuple(cycle)
    radius = max(tau.radius, 1) + len(cycle)
    rule = np.polynomial.legendre.leggauss(n_quad)
    total = 0.0
    for phase in range(len(cycle)):
        w = SymbolWindow.periodic(cycle[phase:] + cycle[:phase], radius)
        total += _panel_sum(cost, w, (0.0, tau(w)), rule)
    return float(total)
