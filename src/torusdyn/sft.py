"""Subshifts of finite type.

A 0/1 transition matrix A determines the two-sided shift space of all
bi-infinite symbol sequences whose consecutive pairs are allowed by A.
This module provides word counting, topological entropy via the Perron
root, shortest periodic orbits together with the 1 + M*e^(1-h) period
bound, the n-block recoding Z^(n) whose symbols are legal n-words, and
the a^(-n) cylinder metric on symbol windows.

The Perron root comes from `perron_pair`, Noda's shifted inverse iteration
(T. Noda, Numer. Math. 17 (1971) 382-386): each step solves
(hi I - B) y = x with hi = max(Bx/x), the Collatz-Wielandt upper bound, so
every iterate carries the certified bracket min(Bx/x) <= rho <= max(Bx/x).
The bracket shrinks quadratically on any irreducible nonnegative block
(L. Elsner, Linear Algebra Appl. 15 (1976) 235-242), and the iteration
runs until it is within `_RTOL` and stops shrinking, so the vector is good
to rounding level.  Each solve first eliminates the chains of single-successor
symbols by back-substitution, so only the branching symbols enter a dense
LU (`_shifted_solver`), and the bracket's B x is taken on the same chain
plan: one product per chain row, a dense row only for a branching symbol.
A chain-heavy block therefore never allocates an m x m float array.
`top_entropy` takes the largest root over the strongly connected
components that carry a cycle; `suspension.parry_measure` uses the right
and left pairs of an irreducible matrix.
"""

from dataclasses import dataclass, field
from itertools import count, pairwise

import numpy as np


class ZeroShift(ValueError):
    """The essential part of the transition matrix is empty."""


class NoCycle(ValueError):
    """The transition graph is acyclic."""


class EmptyRecode(ValueError):
    """No legal words of the requested length."""


class IllegalConcatenation(ValueError):
    """A block cycle violates the 2n-word transition rule."""


class WindowMismatch(ValueError):
    """Symbol windows have different radii."""


# Up to this many symbols `_shifted_solver` keeps the dense LU and product of
# the whole block.  On chain-heavy blocks the chain plan draws level near 48
# symbols (0.69 against 0.67 ms a `perron_pair` of `cycle_chord`), wins by
# 6 % at 64 and by 2.7x at 128 (one BLAS thread, 2-core Xeon).
_SMALL = 64
_RTOL = 1e-12        # relative width of the Perron bracket `perron_pair` certifies
_MAX_SOLVES = 100    # shifted solves `perron_pair` takes at most


def _rows(flat, m):
    """Column lists of the rows of an m x m matrix, as ascending Python ints,
    from the ascending flat indices of its entries: row i owns [i m, (i + 1) m)."""
    bounds = flat.searchsorted(np.arange(0, m * m + 1, m)).tolist()
    cols = (flat % m).tolist()
    return [cols[a:b] for a, b in pairwise(bounds)]


def _successors(bits):
    """Successor lists of a square matrix, from one scan of its entries."""
    return _rows(np.asarray(bits).ravel().nonzero()[0], len(bits))


class TransitionMatrix:
    """0/1 transition matrix of a subshift of finite type."""

    def __init__(self, bits):
        bits = np.asarray(bits)
        if bits.ndim != 2 or bits.shape[0] != bits.shape[1]:
            raise ValueError("transition matrix must be square")
        if bits.dtype != bool and not np.isin(bits, (0, 1)).all():
            raise ValueError("transition matrix entries must be 0 or 1")
        self.bits = bits.astype(bool)
        self.m = bits.shape[0]
        if not self.bits.any():
            raise ValueError("transition matrix allows no transition")

    def __eq__(self, other):
        return isinstance(other, TransitionMatrix) and np.array_equal(self.bits, other.bits)

    def __repr__(self):
        return f"TransitionMatrix(m={self.m})"

    def essential_part(self):
        """Iteratively drop symbols without outgoing or incoming edges.

        A worklist over in- and out-degree counts: dropping a symbol lowers
        the counts of its neighbours only.  The successor and predecessor
        lists come from one scan of the entries, the predecessors by sorting
        their transposed flat indices.  Returns (reduced TransitionMatrix or
        None, kept symbol indices).
        """
        bits, m = self.bits, self.m
        flat = bits.ravel().nonzero()[0]
        rows, cols = np.divmod(flat, m)
        succ, pred = _rows(flat, m), _rows(np.sort(cols * m + rows), m)
        n_out, n_in = [len(r) for r in succ], [len(c) for c in pred]
        keep = [bool(a and b) for a, b in zip(n_out, n_in)]
        dead = [v for v, k in enumerate(keep) if not k]
        while dead:
            v = dead.pop()
            for w in succ[v]:
                n_in[w] -= 1
                if not n_in[w] and keep[w]:
                    keep[w] = False
                    dead.append(w)
            for u in pred[v]:
                n_out[u] -= 1
                if not n_out[u] and keep[u]:
                    keep[u] = False
                    dead.append(u)
        kept = np.flatnonzero(keep)
        if not kept.size:
            return None, np.array([], dtype=int)
        sub = bits if kept.size == m else bits[np.ix_(kept, kept)]
        return TransitionMatrix(sub), kept  # the constructor copies

    def is_legal_word(self, word):
        """A(w_i, w_{i+1}) = 1 for all consecutive symbols."""
        word = tuple(word)
        if any(not (0 <= s < self.m) for s in word):
            return False
        return all(self.bits[word[i], word[i + 1]] for i in range(len(word) - 1))

    def legal_words(self, n):
        """All legal words of length n, lexicographic order."""
        if n < 1:
            raise ValueError("word length must be >= 1")
        succ = _successors(self.bits)
        words = [(s,) for s in range(self.m)]
        for _ in range(n - 1):
            words = [w + (t,) for w in words for t in succ[w[-1]]]
        return words


@dataclass
class PeriodicOrbit:
    """A periodic symbol sequence, stored as one period."""

    cycle: tuple

    def __post_init__(self):
        self.cycle = tuple(self.cycle)
        if not self.cycle:
            raise ValueError("empty cycle")

    @property
    def period(self):
        return len(self.cycle)


def strong_components(bits):
    """Strongly connected components of the graph of a 0/1 matrix.

    Iterative Tarjan: one depth-first pass, each component popped off the
    stack when its root finishes.  Returns a list of index arrays.
    """
    succ = _successors(bits)
    m = len(succ)
    index = [-1] * m
    low = [0] * m
    on_stack = [False] * m
    stack, work, comps = [], [], []
    counter = count()

    def enter(v):
        index[v] = low[v] = next(counter)
        stack.append(v)
        on_stack[v] = True
        work.append((v, iter(succ[v])))

    for root in range(m):
        if index[root] >= 0:
            continue
        enter(root)
        while work:
            v, edges = work[-1]
            for w in edges:
                if index[w] < 0:
                    enter(w)
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = []
                    while not comp or comp[-1] != v:
                        comp.append(stack.pop())
                        on_stack[comp[-1]] = False
                    comps.append(np.array(sorted(comp)))
    return comps


@dataclass
class PerronPair:
    """Perron root of a nonnegative block with its certified bracket.

    lower <= rho <= upper are the Collatz-Wielandt bounds min(Bx/x) and
    max(Bx/x) of the positive vector x (scaled to max 1), `root` is their
    midpoint, and `steps` counts the shifted solves that produced x.
    """

    root: float
    lower: float
    upper: float
    vector: np.ndarray = field(repr=False)
    steps: int


def _chain_order(B):
    """Chain vertices of B, each after its successor, and every row's successor.

    A chain vertex has exactly one successor, and following successors from
    it reaches a vertex of another out-degree; the rest, including every
    single-successor vertex on a cycle of such vertices, stay in the dense
    solve.  The successor list holds the column of each row's largest entry,
    the one positive entry of a chain row.
    """
    deg = np.count_nonzero(B, axis=1)
    if not (deg == 1).any():
        return [], None
    nxt = B.argmax(axis=1).tolist()
    state = [0 if d == 1 else 1 for d in deg.tolist()]  # 0 unseen, 1 reaches K, 2 never
    order = []
    for start in range(len(B)):
        path, v = [], start
        while state[v] == 0:
            state[v] = 2
            path.append(v)
            v = nxt[v]
        if state[v] == 1:
            path.reverse()
            for u in path:
                state[u] = 1
            order += path
    return order, nxt


def _shifted_solver(B):
    """(solve, product): solve(hi, x) -> y with (hi I - B) y = x, and product(x) = B x.

    A chain vertex v (`_chain_order`) with successor s has
    y_v = (x_v + B[v,s] y_s)/hi; walking its chain to the first vertex r(v)
    of K, the remaining vertices, gives y_v = a_v + c_v y_r(v).  Each step
    builds a and c in one pass over the chain vertices (a = 0, c = 1 on K),
    solves the k x k Schur complement (hi I - B_KK - M) y_K = x_K + B_KC a,
    with M = B_KC c summed into the roots, and sets y = a + c y_K[r] at
    once: O(m + k^3) a step.  The product reads the same plan: a chain row
    has the one entry B[v,s], so (B x)_v = B[v,s] x_s, and the k branching
    rows B_K, copied to floats once, give B_K x: O(m + k m) a step, and no
    m x m array is built.  A block of at most `_SMALL` symbols or without
    chain vertices is converted to floats whole and keeps the dense solve
    and product.
    """
    m = len(B)
    order, nxt = _chain_order(B) if m > _SMALL else ([], None)
    if not order:
        B = np.asarray(B, dtype=float)
        shifted = np.empty_like(B)

        def solve(hi, x):
            np.negative(B, out=shifted)
            shifted.flat[::m + 1] += hi
            return np.linalg.solve(shifted, x)

        def product(x):
            return B @ x
        return solve, product

    chain = np.array(order)
    in_k = np.ones(m, dtype=bool)
    in_k[chain] = False
    K = np.flatnonzero(in_k)
    k = len(K)
    root = np.zeros(m, dtype=int)
    root[K] = np.arange(k)
    root = root.tolist()
    succ = [nxt[v] for v in order]
    for v, s in zip(order, succ):
        root[v] = root[s]
    root = np.array(root)
    weight = np.asarray(B[chain, succ], dtype=float)
    links = list(zip(order, succ, weight.tolist()))
    succ = np.array(succ)
    BK = np.asarray(B[K], dtype=float)
    BKK = BK[:, K]
    eu, ec = np.nonzero(BK[:, chain])  # edges u -> s from K into the chains
    es = chain[ec]
    ew = BK[eu, es]
    cell = eu * k + root[es]

    def solve(hi, x):
        a, c, xs = [0.0] * m, [1.0] * m, x.tolist()
        for v, s, w in links:
            a[v] = (xs[v] + w * a[s]) / hi
            c[v] = w * c[s] / hi
        a, c = np.array(a), np.array(c)
        shifted = np.negative(BKK)
        shifted.flat[::k + 1] += hi
        shifted -= np.bincount(cell, ew * c[es], minlength=k * k).reshape(k, k)
        y_k = np.linalg.solve(shifted, x[K] + np.bincount(eu, ew * a[es], minlength=k))
        return a + c * y_k[root]

    def product(x):
        y = np.empty(m)
        y[chain] = weight * x[succ]
        y[K] = BK @ x
        return y
    return solve, product


def perron_pair(bits):
    """Perron root and positive vector of an irreducible nonnegative block.

    Noda's iteration: from x = 1, take the ratios r = Bx/x, whose extremes
    bracket the root, lo = min r <= rho <= hi = max r, then solve
    (hi I - B) y = x and set x = y/max y.  For irreducible B and hi > rho the
    solution is positive and the bracket shrinks quadratically.  A pure
    cycle or a bipartite block has lo = hi at x = 1 and needs no solve.
    The solve eliminates the chains of single-successor vertices first
    (`_shifted_solver`), so only the branching vertices enter a dense LU,
    and the bracket comes from B x taken on the same chain plan: a chain
    row by its one entry, a branching row densely.  A contracted block
    builds no m x m array; a bool block needs no entry check.

    The iteration stops once hi - lo <= `_RTOL` hi and the width either
    stopped halving or is within 4 ulp of hi, so the vector is good to
    rounding level and not only to rtol; it also stops when the shifted
    system is singular or its solution is not finite and positive, or after
    `_MAX_SOLVES` solves.  It raises RuntimeError if the bracket is then
    still wider than `_RTOL` hi, and ValueError on an empty or non-square
    block or on entries that are negative or not finite.
    """
    B = np.asarray(bits)
    if B.ndim != 2 or B.shape[0] != B.shape[1] or B.size == 0:
        raise ValueError(f"perron_pair needs a nonempty square matrix, got shape {B.shape}")
    if B.dtype != bool and not 0 <= B.min() <= B.max() < np.inf:  # NaN fails every comparison
        raise ValueError("perron_pair needs finite nonnegative entries")
    solve, product = _shifted_solver(B)
    x = np.ones(B.shape[0])
    width_prev = np.inf
    steps = 0
    while True:
        r = product(x) / x
        lo, hi = float(r.min()), float(r.max())
        width = hi - lo
        if steps == _MAX_SOLVES or (width <= _RTOL * hi and (
                width > width_prev / 2 or width <= 4 * np.spacing(hi))):
            break
        try:
            y = solve(hi, x)
        except np.linalg.LinAlgError:
            break
        top = y.max()
        if not (y.min() > 0 and top < np.inf):     # NaN fails both tests
            break
        x = y / top
        width_prev = width
        steps += 1
    if width > _RTOL * hi:
        raise RuntimeError(f"Perron bracket [{lo!r}, {hi!r}] wider than rtol={_RTOL} "
                           f"after {steps} shifted solves")
    return PerronPair(0.5 * (lo + hi), lo, hi, x, steps)


def top_entropy(A: TransitionMatrix):
    """log of the Perron root of A.

    The Perron root of a reducible matrix is the largest root over its
    strongly connected components, each of them irreducible, so
    `perron_pair` runs once per component with a cycle (Noda's shifted
    inverse iteration, certified to `_RTOL`); ZeroShift when there is none.
    """
    roots = []
    for idx in strong_components(A.bits):
        block = A.bits if len(idx) == A.m else A.bits[np.ix_(idx, idx)]
        if len(idx) == 1 and not block[0, 0]:
            continue  # transient symbol, no cycle through it
        roots.append(perron_pair(block).root)
    if not roots:
        raise ZeroShift("essential part of the shift is empty")
    return float(np.log(max(roots)))


def count_words(A: TransitionMatrix, n):
    """Exact number of legal n-words (Python integers, never overflows)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    counts = [1] * A.m
    rows = _successors(A.bits)
    for _ in range(n - 1):
        counts = [sum(counts[j] for j in rows[i]) for i in range(A.m)]
    return sum(counts)


def _cycle_through(rows, s, limit):
    """Shortest cycle through s of length below `limit`, by BFS from s, or None.

    Of several, the cycle closes at the first symbol in BFS order with an
    edge back to s.  The BFS keeps only parent pointers, s its own root.
    """
    parent = {s: s}
    frontier = [s]
    depth = 1                      # the length of a cycle closed from the frontier
    while frontier and depth < limit:
        nxt = []
        for u in frontier:
            for v in rows[u]:
                if v == s:
                    path = [u]
                    while path[-1] != s:
                        path.append(parent[path[-1]])
                    return tuple(reversed(path))
                if v not in parent:
                    parent[v] = u
                    nxt.append(v)
        frontier = nxt
        depth += 1
    return None


def shortest_cycle(A: TransitionMatrix):
    """Minimum-period periodic orbit, by BFS from every symbol.

    The BFS from each symbol stops at the period found so far, since only a
    strictly shorter cycle replaces it: the orbit starts at the lowest
    symbol of least period.
    """
    rows = _successors(A.bits)
    best = None
    for s in range(A.m):
        best = _cycle_through(rows, s, len(best) if best else A.m + 1) or best
    if best is None:
        raise NoCycle("transition graph is acyclic")
    return PeriodicOrbit(best)


def brute_force_min_period(A: TransitionMatrix):
    """Independent oracle: min{k <= m : trace(A^k) > 0} via exact integer powers."""
    ints = A.bits.astype(object).astype(int)
    power = np.eye(A.m, dtype=object)
    for k in range(1, A.m + 1):
        power = power @ ints
        if sum(power[i, i] for i in range(A.m)) > 0:
            return k
    raise NoCycle(f"no cycle of period <= {A.m}")


def bq_bound(A: TransitionMatrix):
    """Upper bound 1 + M*e^(1-h) on the shortest period, h = top_entropy(A)."""
    h = top_entropy(A)
    return 1.0 + A.m * np.exp(1.0 - h)


@dataclass
class BlockRecoding:
    """The subshift Z^(n): symbols are legal n-words of the source."""

    matrix: TransitionMatrix
    words: list
    n: int


def block_recode(A: TransitionMatrix, n):
    """Recode a subshift into the 1-step shift on its legal n-words.

    A transition u -> v is allowed iff the concatenation uv of length 2n
    is legal in A.  For a 1-step SFT that is the single bridge transition
    between the last symbol of u and the first of v.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    words = A.legal_words(n)
    if not words:
        raise EmptyRecode(f"no legal {n}-words")
    bits = A.bits[np.ix_([u[-1] for u in words], [v[0] for v in words])]
    if not bits.any():
        raise EmptyRecode(f"no legal {2 * n}-words")
    return BlockRecoding(TransitionMatrix(bits), words, n)


def project_cycle(recoding: BlockRecoding, z: PeriodicOrbit, source=None):
    """Concatenate the n-word symbols of a Z^(n) cycle into a base cycle.

    Given the `TransitionMatrix` it was recoded from, every cyclic length-n
    window of the result must be a legal n-word of `source`; violations
    mean the 2n rule was broken upstream.
    """
    A = recoding.matrix
    cyc = z.cycle
    for i in range(len(cyc)):
        if not A.bits[cyc[i], cyc[(i + 1) % len(cyc)]]:
            raise IllegalConcatenation(f"transition {i} illegal in Z^({recoding.n})")
    word = tuple(s for i in cyc for s in recoding.words[i])
    if source is not None:
        n = recoding.n
        doubled = word + word
        for i in range(len(word)):
            if not source.is_legal_word(doubled[i:i + n]):
                raise IllegalConcatenation(f"window at {i} not a legal {n}-word")
    return PeriodicOrbit(word)


def d_a_distance(u, w, a=2.0):
    """Cylinder metric a^(-n) on symbol windows of equal radius.

    n is the largest k with agreement on all |i| <= k.  Full agreement on
    the window returns 0 (true distance is <= a^(-radius)); disagreement
    at the center returns a (boundary convention).
    """
    if not a > 1:               # NaN fails too
        raise ValueError(f"metric base a must be > 1, got {a}")
    u, w = tuple(u), tuple(w)
    if len(u) != len(w) or len(u) % 2 == 0:
        raise WindowMismatch("windows must share the same odd length")
    r = len(u) // 2
    if u[r] != w[r]:
        return float(a)
    n = 0
    while n < r and u[r - n - 1] == w[r - n - 1] and u[r + n + 1] == w[r + n + 1]:
        n += 1
    if n == r:
        return 0.0
    return float(a) ** (-n)


def closed_walks(A: TransitionMatrix, p):
    """All legal words of length p whose wraparound transition is also legal.

    The set is closed under rotation, so cyclic shift acts on it; there are
    trace(A^p) of them.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    return [w for w in A.legal_words(p) if A.bits[w[-1], w[0]]]


def cylinder_growth(A: TransitionMatrix, n):
    """Measured K_n = (# n-words) * e^(-n*h); exposed as data only."""
    h = top_entropy(A)
    return count_words(A, n) * np.exp(-n * h)


def random_transition_matrix(rng, m, density):
    """Random essential transition matrix with the given edge density.

    Every symbol of a nonempty essential part has a successor inside it, so
    the part always carries a cycle.
    """
    for _ in range(100):
        bits = rng.random((m, m)) < density
        if not bits.any():
            continue
        ess, _ = TransitionMatrix(bits).essential_part()
        if ess is not None:
            return ess
    raise RuntimeError("failed to sample an essential matrix")


GOLDEN_MEAN = TransitionMatrix([[1, 1], [1, 0]])


def full_shift(m):
    if m < 1:
        raise ValueError(f"a full shift needs at least one symbol, got {m}")
    return TransitionMatrix(np.ones((m, m), dtype=bool))
