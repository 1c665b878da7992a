"""Entropy estimators on sampled orbit data.

Spanning and separated counts use the dynamic metric d_T(x, y) =
max_{s<=T} d(orbit_x(s), orbit_y(s)) over an ensemble of finitely many
sampled orbits, with greedy covers/packings (lowest index first, so runs
are reproducible).  Growth of the counts across horizons yields an
entropy estimate; partition, conditional and refinement entropies act on
weighted sample measures; Gamma-sets probe entropy expansivity.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .config import csv_cells, csv_rows
from .torus import torus_metric


class HorizonExceeded(ValueError):
    """Orbit data shorter than the requested refinement horizon."""


class NoValidRadius(ValueError):
    """Inner-partition cores cannot reach the requested mass deficit."""

    def __init__(self, msg, achieved=None):
        super().__init__(msg)
        self.achieved = achieved


@dataclass
class LabeledOrbitEnsemble:
    """Equal-length sampled orbits in a metric space, one sample a time step.

    Times T and horizons count steps.  `origin` is the array index of time
    zero; columns before it hold backward iterates for two-sided probes.
    `metric(p, q)` is called on paired (P, dim) point arrays and returns
    the P distances between p[i] and q[i]; it must act row by row, so a
    row's distance does not depend on the other rows.
    """

    orbits: np.ndarray          # (n_orbits, n_steps, dim)
    metric: callable = field(default=torus_metric)
    origin: int = 0

    def __post_init__(self):
        self.orbits = np.asarray(self.orbits, dtype=float)
        if self.orbits.ndim != 3:
            raise ValueError("orbits must be (n_orbits, n_steps, dim)")
        if not np.isfinite(self.orbits).all():
            raise ValueError("orbits must have finite coordinates")
        if not 0 <= self.origin < self.orbits.shape[1]:
            raise ValueError("origin outside the sampled window")

    @property
    def n_orbits(self):
        return self.orbits.shape[0]

    @property
    def n_steps(self):
        return self.orbits.shape[1]

    def steps_for(self, T):
        """Number of forward samples covering [0, T]."""
        T = _radius(T, "T")
        steps = int(round(T)) + 1
        if self.origin + steps > self.n_steps:
            raise ValueError(f"T={T} exceeds the sampled horizon")
        return steps

    def restrict(self, indices):
        return LabeledOrbitEnsemble(self.orbits[np.asarray(indices)], self.metric,
                                    origin=self.origin)


def _radius(value, name):
    """A scale delta or eps, a time T or a horizon, as a float: finite and
    nonnegative, else ValueError."""
    value = float(value)
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")
    return value


def _squared(F):
    """Whether the ladder of F sums squared coordinate gaps in its own kernel:
    `torus_metric` on 1-7 coordinates in [0, 1), where a gap |x - y| < 1
    folds as min(d, 1 - d) without `% 1.0`.

    numpy sums fewer than 8 terms left to right, as the kernel does; longer
    sums are pairwise, so those ensembles go through the metric call.
    """
    # NaN fails both bounds
    return (F.metric is torus_metric and 0 < F.orbits.shape[2] < 8
            and F.orbits.min(initial=0.0) >= 0.0 and F.orbits.max(initial=0.0) < 1.0)


def _step_values(F, c, a, b, squared):
    """Step distances at column c between orbits a and b, pair by pair.

    When `squared` (see `_squared`), the folded squared gaps are accumulated
    one coordinate at a time in the metric's own order of operations, and
    one correctly rounded sqrt gives the metric's value bit for bit.
    Otherwise the metric is called on the paired (P, dim) points.
    """
    x = F.orbits[:, c, :]
    if not squared:
        return F.metric(x[a], x[b])
    a, b = a.astype(np.intp), b.astype(np.intp)   # numpy casts int32 indices on every gather
    for k in range(x.shape[1]):
        xk = np.ascontiguousarray(x[:, k])
        diff = xk[a]
        diff -= xk[b]
        np.abs(diff, out=diff)
        np.minimum(diff, 1.0 - diff, out=diff)
        diff *= diff
        acc = diff if k == 0 else np.add(acc, diff, out=acc)
    return np.sqrt(acc, out=acc)


_CHUNK = 1 << 16    # pairs per kernel call, so its temporaries stay in cache
_FLOOR = 16         # fewest close pairs a step needs to enter the decay fit


def _close_pair_ladder(F: LabeledOrbitEnsemble, columns, a, b, radius):
    """Yields, after each column, the pairs (a, b) whose running distance is <= radius.

    d_T is a running max, so a pair whose step distance is once not <= radius
    (NaN included) stays apart at every later horizon; it is dropped for
    good and never evaluated again.  Survivors keep their start order.
    """
    squared = _squared(F)
    for c in columns:
        keep = np.empty(len(a), dtype=bool)
        for s in range(0, len(a), _CHUNK):
            np.less_equal(_step_values(F, c, a[s:s + _CHUNK], b[s:s + _CHUNK], squared), radius,
                          out=keep[s:s + _CHUNK])
        if not keep.all():
            a, b = a[keep], b[keep]
        yield a, b


def _all_pairs(n):
    """Every orbit pair i < j as int32 arrays (a, b), sorted by a then b."""
    a = np.repeat(np.arange(n, dtype=np.int32), np.arange(n - 1, -1, -1))
    b = np.empty_like(a)
    start = 0
    for i in range(n - 1):
        b[start:start + n - 1 - i] = np.arange(i + 1, n, dtype=np.int32)
        start += n - 1 - i
    return a, b


def _greedy_net_size(n, a, b):
    """Size of the lowest-index greedy net over n orbits with close pairs a < b.

    The pairs come sorted by a, so they form a CSR adjacency from each orbit
    to its later close orbits.  Orbit i becomes a center unless an earlier
    center covers it, and a center covers its later neighbours, so the
    centers are exactly the orbits left uncovered.
    """
    ptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(a, minlength=n), out=ptr[1:])
    covered = np.zeros(n, dtype=bool)
    for i in np.flatnonzero(ptr[1:] > ptr[:-1]):
        if not covered[i]:
            covered[b[ptr[i]:ptr[i + 1]]] = True
    return n - int(np.count_nonzero(covered))


def ladder_counts(F: LabeledOrbitEnsemble, T, delta, covers=False):
    """One pass over the d_T ladder up to horizon T at scale delta.

    Returns (greedy cover size at T, close-pair counts per step, greedy
    cover sizes per step); the cover sizes stay empty unless requested.
    """
    radius = _radius(delta, "delta")
    columns = range(F.origin, F.origin + F.steps_for(T))
    pair_counts, cover_sizes = [], []
    for a, b in _close_pair_ladder(F, columns, *_all_pairs(F.n_orbits), radius):
        pair_counts.append(len(a))
        if covers:
            cover_sizes.append(_greedy_net_size(F.n_orbits, a, b))
    return _greedy_net_size(F.n_orbits, a, b), pair_counts, cover_sizes


def spanning_count(F: LabeledOrbitEnsemble, T, delta):
    """Greedy (T, delta)-cover size r^ of the ensemble.

    Greedy centers are pairwise more than delta apart, so
    r(F,T,delta) <= r^ <= r(F,T,delta/2).
    """
    return ladder_counts(F, T, delta)[0]


def separated_count(F: LabeledOrbitEnsemble, T, delta):
    """Greedy maximal (T, delta)-separated set size s^ (packing, s^ <= s).

    The lowest-index greedy net's centers are pairwise more than delta
    apart and leave no orbit uncovered, so they form a maximal separated
    set, and s^ = r^ by construction.  The check r^ <= s^ is then an
    identity; the half with content is r^ <= r(delta/2) (Walters, An
    Introduction to Ergodic Theory, 7.2).
    """
    return ladder_counts(F, T, delta)[0]


def count_ladder(F: LabeledOrbitEnsemble, T, delta):
    """Greedy cover sizes r^(t) for every sampled horizon t = 0..T."""
    return ladder_counts(F, T, delta, covers=True)[2]


def pair_survival_ladder(F: LabeledOrbitEnsemble, T, delta):
    """Number of orbit pairs that are still not (t, delta)-separated, t = 0..T."""
    return ladder_counts(F, T, delta)[1]


def decay_rate(counts):
    """Least-squares decay rate of log counts over the steps holding >= `_FLOOR` pairs."""
    counts = np.array(counts, dtype=float)
    usable = np.flatnonzero(counts >= _FLOOR)
    t_max = int(usable[-1]) if len(usable) else 0
    if t_max == 0:
        return 0.0
    steps = np.arange(t_max + 1, dtype=float)
    slope = np.polyfit(steps, np.log(counts[:t_max + 1]), 1)[0]
    return float(max(-slope, 0.0))


def entropy_estimate(F: LabeledOrbitEnsemble, T, delta):
    """Entropy estimate: decay rate of delta-close orbit pairs under d_t.

    Cover counts of a finite ensemble saturate at the orbit count within a
    couple of steps, which caps any (1/T) log r^ at log(n)/T; the number
    of not-yet-separated pairs instead decays like e^(-h t) with no such
    floor.  The estimate is the least-squares slope of its logarithm over
    the horizons still holding at least `_FLOOR` pairs.
    """
    return decay_rate(pair_survival_ladder(F, T, delta))


def _orbit_rows(F: LabeledOrbitEnsemble, rows):
    """`rows` as an index array (default every orbit); ValueError unless integers in [0, n)."""
    if rows is None:
        return np.arange(F.n_orbits)
    rows = np.asarray(list(rows))
    if rows.size == 0:
        return rows.astype(np.intp)
    if (rows.ndim != 1 or not np.issubdtype(rows.dtype, np.integer)
            or rows.min() < 0 or rows.max() >= F.n_orbits):
        raise ValueError(f"rows must be orbit indices in [0, {F.n_orbits}), got {rows.tolist()}")
    return rows


def gamma_sets(F: LabeledOrbitEnsemble, eps, horizon, rows=None):
    """Gamma_eps(x) for each x in `rows` (default every orbit), from one pass.

    Gamma_eps(x) holds the orbit indices that stay eps-close to orbit x for
    all |n| <= horizon; the pass walks the two-sided window once for all
    requested rows.
    """
    radius = _radius(eps, "eps")
    steps = int(round(_radius(horizon, "horizon")))
    if F.origin - steps < 0 or F.origin + steps >= F.n_steps:
        raise ValueError("two-sided data shorter than the requested horizon")
    uniq, where = np.unique(_orbit_rows(F, rows), return_inverse=True)
    n = F.n_orbits
    a = np.repeat(uniq.astype(np.int32), n)
    b = np.tile(np.arange(n, dtype=np.int32), len(uniq))
    for a, b in _close_pair_ladder(F, range(F.origin - steps, F.origin + steps + 1), a, b, radius):
        pass
    sets = np.split(b.astype(np.intp), np.searchsorted(a, uniq[1:]))
    return [sets[k] for k in where]


def gamma_set(x, F: LabeledOrbitEnsemble, eps, horizon):
    """Orbit indices that stay eps-close to orbit x for all |n| <= horizon."""
    return gamma_sets(F, eps, horizon, [x])[0]


def class_probe(F: LabeledOrbitEnsemble, classes, delta):
    """Max forward entropy estimate over orbit classes with at least two members."""
    _radius(delta, "delta")
    forward_T = float(F.n_steps - 1 - F.origin)
    worst = 0.0
    for members in classes:
        if len(members) >= 2:
            worst = max(worst, entropy_estimate(F.restrict(members), forward_T, delta))
    return worst


def h_expansivity_probe(F: LabeledOrbitEnsemble, eps, horizon, delta, sample=None):
    """Max entropy estimate over the Gamma_eps indistinguishability classes.

    Near zero when eps is below an expansivity constant; with eps at the
    diameter it degenerates to the plain ensemble estimate.  The classes
    of the `sample` rows (default every orbit) come from one `gamma_sets`
    pass.
    """
    return class_probe(F, gamma_sets(F, eps, horizon, sample), delta)


@dataclass
class WeightedMeasure:
    """Atomic probability on sample points."""

    points: np.ndarray    # (n, dim) coordinates
    weights: np.ndarray   # (n,) nonnegative, summing to 1

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if len(self.weights) != len(self.points):
            raise ValueError("one weight per atom")
        if not (np.isfinite(self.weights).all() and (self.weights >= 0).all()):
            raise ValueError("weights must be finite and nonnegative")
        total = self.weights.sum()
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"weights sum to {total}, not 1")

    @classmethod
    def uniform(cls, points):
        points = np.asarray(points, dtype=float)
        return cls(points, np.full(len(points), 1.0 / len(points)))


@dataclass
class FinitePartition:
    """Cell labels in {0..k-1} for every sample point."""

    labels: np.ndarray
    k: int = None

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=int)
        if self.k is None:
            self.k = int(self.labels.max()) + 1 if len(self.labels) else 0
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.k):
            raise ValueError("labels out of range")

    @classmethod
    def trivial(cls, n):
        return cls(np.zeros(n, dtype=int), 1)


def _plogp(p):
    p = np.asarray(p, dtype=float)
    out = np.zeros_like(p)
    mask = p > 0
    out[mask] = -p[mask] * np.log(p[mask])
    return out


def partition_entropy(mu: WeightedMeasure, P: FinitePartition):
    """H_mu(P) = -sum mu(cell) log mu(cell), with 0 log 0 = 0."""
    masses = np.bincount(P.labels, weights=mu.weights, minlength=P.k)
    return float(_plogp(masses).sum())


def conditional_entropy(mu: WeightedMeasure, P: FinitePartition, Q: FinitePartition):
    """H_mu(P | Q) = -sum mu(A&B) log( mu(A&B)/mu(B) ).

    The joint masses come from the same bincount accumulation as
    partition_entropy, so conditioning on the trivial partition reproduces
    H_mu(P) bit for bit.
    """
    joint = np.bincount(P.labels * Q.k + Q.labels, weights=mu.weights,
                        minlength=P.k * Q.k).reshape(P.k, Q.k)
    q_mass = joint.sum(axis=0)
    total = 0.0
    for j in range(Q.k):
        if q_mass[j] > 0:
            total += q_mass[j] * _plogp(joint[:, j] / q_mass[j]).sum()
    return float(total)


def refine_entropy(mu: WeightedMeasure, P: FinitePartition, f, N):
    """(1/N) H_mu( join of f^{-n} P for n < N ), by label-itinerary histograms.

    `f` maps atom indices to atom indices (-1 marks missing images).  The
    histogram key of an atom is its label itinerary of length N, read as a
    base-k int64 number one digit per step and updated in place.  Before a
    digit would overflow 2^63, the keys are replaced by their dense ranks;
    ranks keep the lexicographic order.  The masses are one weighted
    bincount over the keys, with the empty bins dropped, and the keys are
    ranked first only when their range outgrows the atoms.  A bincount sums
    each bin in atom order, so the masses, summed in itinerary order, are
    the same bits for every k and N either way.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    f = np.asarray(f, dtype=int)
    n = len(mu.weights)
    k = P.k
    keys = np.zeros(n, dtype=np.int64)
    bound = 1                      # keys lie in [0, bound)
    idx = np.arange(n)
    for step in range(N):
        if np.any(idx < 0):
            raise HorizonExceeded(f"orbit data ends before horizon {N}")
        if bound * k > 2 ** 63:
            _, keys = np.unique(keys, return_inverse=True)
            bound = int(keys.max()) + 1
        keys *= k
        keys += P.labels[idx]
        bound *= k
        if step + 1 < N:
            idx = f[idx]
    if bound > n:
        _, keys = np.unique(keys, return_inverse=True)
    masses = np.bincount(keys, weights=mu.weights)[np.bincount(keys) > 0]
    return float(_plogp(masses).sum()) / N


def jensen_bound(a):
    """(lhs, rhs) with lhs = -sum a_i log a_i and rhs = 1 + (sum a_i) log n.

    Always lhs <= rhs; when sum a_i = 1 additionally lhs <= log n.
    """
    a = np.asarray(a, dtype=float)
    if np.any(a < 0):
        raise ValueError("entries must be nonnegative")
    n = len(a)
    lhs = float(_plogp(a).sum())
    rhs = 1.0 + float(a.sum()) * np.log(n) if n else 1.0
    return lhs, rhs


def build_inner_partition(mu: WeightedMeasure, P: FinitePartition, eps):
    """Shrink each cell to a compact core, collecting shaved mass in cell 0.

    Core i keeps the atoms of cell i at torus distance >= r_i from the cell's
    complement, with r_i the largest sampled radius whose shaved mass
    stays below eps; the remainder cell 0 then has mass < k*eps.
    Returns (partition with cells 0..k, array of chosen radii).
    """
    if eps <= 0:
        raise NoValidRadius("deficit budget must be positive", achieved=0.0)
    n = len(mu.weights)
    labels = np.zeros(n, dtype=int)
    radii = np.zeros(P.k)
    pair_d = torus_metric(mu.points[:, None, :], mu.points[None, :, :])
    for c in range(P.k):
        inside = P.labels == c
        if not inside.any():
            continue
        outside = ~inside
        if not outside.any():
            # lone cell on a closed space: no complement, keep it whole
            labels[inside] = c + 1
            continue
        dist_to_comp = pair_d[np.ix_(inside, outside)].min(axis=1)
        cell_idx = np.flatnonzero(inside)
        order = np.argsort(dist_to_comp, kind="stable")
        # shaved[j] = mass removed when the core keeps atoms order[j:]
        shaved = np.concatenate([[0.0], np.cumsum(mu.weights[cell_idx][order])])
        pick = int(np.flatnonzero(shaved < eps)[-1])
        if pick == len(cell_idx):
            continue  # whole cell lighter than eps: core empty, collar absorbs it
        radius = float(dist_to_comp[order[pick]])
        if radius <= 0.0:
            positive = np.flatnonzero(dist_to_comp[order] > 0)
            needed = shaved[positive[0]] if len(positive) else float(shaved[-1])
            raise NoValidRadius(
                f"cell {c}: atoms too sparse for a positive inset radius",
                achieved=float(needed))
        labels[cell_idx[order[pick:]]] = c + 1
        radii[c] = radius
    return FinitePartition(labels, P.k + 1), radii


# ---------------------------------------------------------------------------
# CSV ensemble input: rows of (orbit id, step, coordinates...)

def ensemble_from_csv(text):
    """Ensemble from CSV rows `orbit,step,x1,...`: every orbit has one row
    per step, and the step labels are consecutive integers (negative steps
    hold backward iterates; step 0, when present, is the origin)."""
    _, rows = csv_rows(text)
    values = csv_cells(rows, lambda w: ("orbit", "step") + ("coordinate",) * (w - 2)
                       if w >= 2 else None, "orbit,step,coordinate")
    lines = [n for n, _ in rows]
    if not values:
        raise ValueError("no data rows")
    dims = sorted({len(v) - 2 for v in values})
    if len(dims) > 1:
        raise ValueError(f"ensemble rows carry different coordinate counts {dims}")
    if dims == [0]:
        raise ValueError("ensemble rows carry no coordinate columns")
    # the first line of each (orbit, step) pair
    first = {(v[0], v[1]): n for n, v in zip(reversed(lines), reversed(values))}
    if len(first) < len(values):
        n, o, s = next((n, v[0], v[1]) for n, v in zip(lines, values) if first[v[0], v[1]] != n)
        raise ValueError(f"line {n}: orbit {o} step {s} repeats line {first[o, s]}")
    steps = sorted({v[1] for v in values})
    gap = next((i for i in range(1, len(steps)) if steps[i] != steps[i - 1] + 1), None)
    if gap is not None:
        n = next(n for n, v in zip(lines, values) if v[1] == steps[gap])
        raise ValueError(f"line {n}: step {steps[gap]} leaves a gap; step labels must be "
                         f"consecutive integers and step {steps[gap - 1] + 1} is missing")
    orbit_ids = sorted({v[0] for v in values})
    id_pos = {o: i for i, o in enumerate(orbit_ids)}
    orbits = np.full((len(orbit_ids), len(steps), dims[0]), np.nan)
    at = ([id_pos[v[0]] for v in values], [v[1] - steps[0] for v in values])
    orbits[at] = [v[2:] for v in values]
    if len(values) != orbits.shape[0] * orbits.shape[1]:
        o, t = np.argwhere(np.isnan(orbits[:, :, 0]))[0].tolist()
        raise ValueError(f"ragged ensemble: orbit {orbit_ids[o]} has no row for step "
                         f"{steps[0] + t}")
    return LabeledOrbitEnsemble(orbits, origin=-steps[0] if steps[0] <= 0 <= steps[-1] else 0)
