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
runs until it is within rtol and stops shrinking, so the vector is good to
rounding level.  Each solve first eliminates the chains of single-successor
symbols by back-substitution, so only the branching symbols enter a dense
LU (`_shifted_solver`).  `top_entropy` takes the largest root over the strongly
connected components that carry a cycle; `suspension.parry_measure`
uses the right and left pairs of an irreducible matrix.
"""

from dataclasses import dataclass, field
from itertools import count, product

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


# Up to this many symbols Python lists beat one numpy call per row, and a
# dense LU beats the chain plan of `perron_pair` and its per-step overhead
# (measured crossovers 48-96 symbols for both, one BLAS thread).
_SMALL = 64


def _successors(bits):
    """Successor lists of a square 0/1 matrix, as ascending Python ints."""
    if len(bits) > _SMALL:
        return [np.flatnonzero(row).tolist() for row in bits]
    return [[j for j, b in enumerate(row) if b] for row in np.asarray(bits).tolist()]


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
        the counts of its neighbours only.  Returns (reduced
        TransitionMatrix or None, kept symbol indices).
        """
        bits = self.bits
        n_out = np.count_nonzero(bits, axis=1).tolist()
        n_in = np.count_nonzero(bits, axis=0).tolist()
        keep = [bool(a and b) for a, b in zip(n_out, n_in)]
        dead = [v for v, k in enumerate(keep) if not k]
        while dead:
            v = dead.pop()
            for w in np.flatnonzero(bits[v]).tolist():
                n_in[w] -= 1
                if not n_in[w] and keep[w]:
                    keep[w] = False
                    dead.append(w)
            for u in np.flatnonzero(bits[:, v]).tolist():
                n_out[u] -= 1
                if not n_out[u] and keep[u]:
                    keep[u] = False
                    dead.append(u)
        kept = np.flatnonzero(keep)
        if not kept.size:
            return None, np.array([], dtype=int)
        sub = bits if kept.size == self.m else bits[np.ix_(kept, kept)]
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

    # word-source protocol used by block_recode
    def words(self, n):
        return self.legal_words(n)

    def is_legal(self, word):
        return self.is_legal_word(word)


class FiniteWordSource:
    """Subshift language given by an explicit finite list of legal words.

    Legal n-words are the length-n subwords of the listed words; lengths
    beyond the longest listed word are not defined.
    """

    def __init__(self, words):
        self._by_length = {}
        for w in words:
            w = tuple(w)
            for n in range(1, len(w) + 1):
                bucket = self._by_length.setdefault(n, set())
                for i in range(len(w) - n + 1):
                    bucket.add(w[i:i + n])

    def words(self, n):
        if n not in self._by_length:
            raise ValueError(f"no words of length {n} available")
        return sorted(self._by_length[n])

    def is_legal(self, word):
        word = tuple(word)
        if len(word) not in self._by_length:
            raise ValueError(f"no words of length {len(word)} available")
        return word in self._by_length[len(word)]


@dataclass
class PeriodicOrbit:
    """A periodic symbol sequence, stored as one period."""

    cycle: tuple
    minimal: bool = False

    def __post_init__(self):
        self.cycle = tuple(self.cycle)
        if not self.cycle:
            raise ValueError("empty cycle")

    @property
    def period(self):
        return len(self.cycle)

    def is_legal(self, A: TransitionMatrix):
        """Legality of the cycle including the wraparound transition."""
        return A.is_legal_word(self.cycle + (self.cycle[0],))


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
    """solve(hi, x) -> y with (hi I - B) y = x, the single-successor chains eliminated.

    A chain vertex v (`_chain_order`) with successor s has
    y_v = (x_v + B[v,s] y_s)/hi; walking its chain to the first vertex r(v)
    of K, the remaining vertices, gives y_v = a_v + c_v y_r(v).  Each step
    builds a and c in one pass over the chain vertices (a = 0, c = 1 on K),
    solves the k x k Schur complement (hi I - B_KK - M) y_K = x_K + B_KC a,
    with M = B_KC c summed into the roots, and sets y = a + c y_K[r] at
    once: O(m + k^3) a step.  A block of at most `_SMALL` symbols or
    without chain vertices keeps the dense solve.
    """
    m = len(B)
    order, nxt = _chain_order(B) if m > _SMALL else ([], None)
    if not order:
        shifted = np.empty_like(B)

        def solve(hi, x):
            np.negative(B, out=shifted)
            shifted.flat[::m + 1] += hi
            return np.linalg.solve(shifted, x)
        return solve

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
    links = list(zip(order, succ, B[chain, succ].tolist()))
    BKK = B[np.ix_(K, K)]
    eu, ec = np.nonzero(B[np.ix_(K, chain)])  # edges u -> s from K into the chains
    es = chain[ec]
    ew = B[K[eu], es]
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
    return solve


def perron_pair(bits, rtol=1e-12, max_iter=100):
    """Perron root and positive vector of an irreducible nonnegative block.

    Noda's iteration: from x = 1, take the ratios r = Bx/x, whose extremes
    bracket the root, lo = min r <= rho <= hi = max r, then solve
    (hi I - B) y = x and set x = y/max y.  For irreducible B and hi > rho the
    solution is positive and the bracket shrinks quadratically.  A pure
    cycle or a bipartite block has lo = hi at x = 1 and needs no solve.
    The solve eliminates the chains of single-successor vertices first
    (`_shifted_solver`), so only the branching vertices enter a dense LU;
    the bracket is always taken from B x on the whole block.

    The iteration stops once hi - lo <= rtol*hi and the width either
    stopped halving or is within 4 ulp of hi, so the vector is good to
    rounding level and not only to rtol; it also stops when the shifted
    system is singular or its solution is not finite and positive.  It
    raises RuntimeError if the bracket is then still wider than rtol*hi,
    and ValueError on an empty or non-square block or on entries that are
    negative or not finite.  `max_iter` bounds the number of solves.
    """
    B = np.array(bits, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1] or B.size == 0:
        raise ValueError(f"perron_pair needs a nonempty square matrix, got shape {B.shape}")
    if not 0 <= B.min() <= B.max() < np.inf:  # NaN fails every comparison
        raise ValueError("perron_pair needs finite nonnegative entries")
    solve = _shifted_solver(B)
    x = np.ones(B.shape[0])
    width_prev = np.inf
    steps = 0
    while True:
        r = (B @ x) / x
        lo, hi = float(r.min()), float(r.max())
        width = hi - lo
        if steps == max_iter or (width <= rtol * hi and (
                width > width_prev / 2 or width <= 4 * np.spacing(hi))):
            break
        try:
            y = solve(hi, x)
        except np.linalg.LinAlgError:
            break
        if not (np.isfinite(y).all() and (y > 0).all()):
            break
        x = y / y.max()
        width_prev = width
        steps += 1
    if width > rtol * hi:
        raise RuntimeError(f"Perron bracket [{lo!r}, {hi!r}] wider than rtol={rtol} "
                           f"after {steps} shifted solves")
    return PerronPair(0.5 * (lo + hi), lo, hi, x, steps)


def top_entropy(A: TransitionMatrix, rtol=1e-12, max_iter=100):
    """log of the Perron root of A.

    The Perron root of a reducible matrix is the largest root over its
    strongly connected components, each of them irreducible, so
    `perron_pair` runs once per component with a cycle (Noda's shifted
    inverse iteration, certified to rtol; `max_iter` bounds its shifted
    solves per component); ZeroShift when there is none.
    """
    roots = []
    for idx in strong_components(A.bits):
        block = A.bits if len(idx) == A.m else A.bits[np.ix_(idx, idx)]
        if len(idx) == 1 and not block[0, 0]:
            continue  # transient symbol, no cycle through it
        roots.append(perron_pair(block, rtol, max_iter).root)
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


def shortest_cycle(A: TransitionMatrix):
    """Minimum-period periodic orbit, by BFS from every symbol."""
    rows = _successors(A.bits)
    best = None
    for s in range(A.m):
        # BFS over the transition graph; dist[u] = shortest path length s -> u
        dist = {s: 0}
        parent = {}
        frontier = [s]
        found = None
        while frontier and found is None:
            nxt = []
            for u in frontier:
                for v in rows[u]:
                    if v == s:
                        found = u
                        break
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        parent[v] = u
                        nxt.append(v)
                if found is not None:
                    break
            frontier = nxt
        if found is None:
            continue
        path = [found]
        while path[-1] != s:
            path.append(parent[path[-1]])
        cycle = tuple(reversed(path))
        if best is None or len(cycle) < len(best):
            best = cycle
    if best is None:
        raise NoCycle("transition graph is acyclic")
    return PeriodicOrbit(best, minimal=True)


def brute_force_min_period(A: TransitionMatrix, max_period=None):
    """Independent oracle: min{k : trace(A^k) > 0} via exact integer powers."""
    if max_period is None:
        max_period = A.m
    ints = A.bits.astype(object).astype(int)
    power = np.eye(A.m, dtype=object)
    for k in range(1, max_period + 1):
        power = power @ ints
        if sum(power[i, i] for i in range(A.m)) > 0:
            return k
    raise NoCycle(f"no cycle of period <= {max_period}")


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
    index: dict = field(repr=False, default_factory=dict)

    def __post_init__(self):
        self.index = {w: i for i, w in enumerate(self.words)}


def block_recode(source, n):
    """Recode a subshift into the 1-step shift on its legal n-words.

    A transition u -> v is allowed iff the concatenation uv of length 2n
    is legal in the source.  For a 1-step SFT source this reduces to the
    single bridge transition between the last symbol of u and the first
    of v.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    words = [tuple(w) for w in source.words(n)]
    if not words:
        raise EmptyRecode(f"no legal {n}-words")
    k = len(words)
    bits = np.zeros((k, k), dtype=bool)
    if isinstance(source, TransitionMatrix):
        for i, u in enumerate(words):
            for j, v in enumerate(words):
                bits[i, j] = source.bits[u[-1], v[0]]
    else:
        legal_2n = set(map(tuple, source.words(2 * n)))
        for i, u in enumerate(words):
            for j, v in enumerate(words):
                bits[i, j] = (u + v) in legal_2n
    if not bits.any():
        raise EmptyRecode(f"no legal {2 * n}-words")
    return BlockRecoding(TransitionMatrix(bits), words, n)


def project_cycle(recoding: BlockRecoding, z: PeriodicOrbit, source=None):
    """Concatenate the n-word symbols of a Z^(n) cycle into a base cycle.

    Every cyclic length-n window of the result must be a legal n-word of
    the source; violations mean the 2n rule was broken upstream.
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
            if not source.is_legal(doubled[i:i + n]):
                raise IllegalConcatenation(f"window at {i} not a legal {n}-word")
    return PeriodicOrbit(word)


def d_a_distance(u, w, a=2.0):
    """Cylinder metric a^(-n) on symbol windows of equal radius.

    n is the largest k with agreement on all |i| <= k.  Full agreement on
    the window returns 0 (true distance is <= a^(-radius)); disagreement
    at the center returns a (boundary convention).
    """
    if a <= 1:
        raise ValueError("metric base a must be > 1")
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


# ---------------------------------------------------------------------------
# matrix and word-list I/O

def format_matrix(A: TransitionMatrix, fmt="grid"):
    """Serialize as a 0/1 grid or as run-length tokens `count*bit`."""
    if fmt == "grid":
        return "\n".join("".join("1" if b else "0" for b in row) for row in A.bits) + "\n"
    if fmt == "rle":
        flat = A.bits.astype(int).ravel()
        runs = []
        start = 0
        for i in range(1, len(flat) + 1):
            if i == len(flat) or flat[i] != flat[start]:
                runs.append(f"{i - start}*{flat[start]}")
                start = i
        return f"rle {A.m}\n" + " ".join(runs) + "\n"
    raise ValueError(f"unknown matrix format {fmt!r}")


def parse_matrix(text):
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    if lines[0].startswith("rle"):
        head = lines[0].split()
        if len(head) != 2:
            raise ValueError(f"run-length header {lines[0]!r} must be `rle <size>`")
        m = int(head[1])
        if m < 1:
            raise ValueError(f"run-length size {m} must be at least 1")
        counts, values = [], []
        for tok in " ".join(lines[1:]).split():
            count, bit = (int(v) for v in tok.split("*"))
            if count < 0:
                raise ValueError(f"run length {count} in {tok!r} is negative")
            if bit not in (0, 1):
                raise ValueError("transition matrix entries must be 0 or 1")
            counts.append(count)
            values.append(bit)
        if sum(counts) != m * m:
            raise ValueError(f"run-length data has {sum(counts)} bits, expected {m * m}")
        bits = np.repeat(np.array(values, dtype=np.int8), counts).reshape(m, m)
    else:
        rows = []
        for ln in lines:
            row = [int(c) for c in (ln.split() if " " in ln else ln)]
            rows.append(row)
        if any(len(r) != len(rows) for r in rows):
            raise ValueError("matrix grid is not square")
        bits = np.array(rows)
    return TransitionMatrix(bits)


def load_matrix(path):
    with open(path) as fh:
        return parse_matrix(fh.read())


def save_matrix(A: TransitionMatrix, path, fmt="grid"):
    with open(path, "w") as fh:
        fh.write(format_matrix(A, fmt))


def format_words(words):
    """Newline-delimited symbol strings; commas when symbols exceed one digit."""
    out = []
    for w in words:
        w = tuple(w)
        if all(0 <= s <= 9 for s in w):
            out.append("".join(str(s) for s in w))
        else:
            out.append(",".join(str(s) for s in w))
    return "\n".join(out) + "\n"


def parse_words(text):
    words = []
    for ln in text.strip().splitlines():
        ln = ln.strip()
        if not ln:
            continue
        if "," in ln:
            word = tuple(int(t) for t in ln.split(","))
        else:
            word = tuple(int(c) for c in ln)
        if any(s < 0 for s in word):
            raise ValueError(f"negative symbol in word {ln!r}")
        words.append(word)
    return words


def random_transition_matrix(rng, m, density, require_cycle=True, max_tries=100):
    """Random essential transition matrix with the given edge density."""
    for _ in range(max_tries):
        bits = rng.random((m, m)) < density
        if not bits.any():
            continue
        ess, _ = TransitionMatrix(bits).essential_part()
        if ess is None:
            continue
        if require_cycle:
            try:
                shortest_cycle(ess)
            except NoCycle:
                continue
        return ess
    raise RuntimeError("failed to sample an essential matrix")


GOLDEN_MEAN = TransitionMatrix([[1, 1], [1, 0]])


def full_shift(m):
    if m < 1:
        raise ValueError(f"a full shift needs at least one symbol, got {m}")
    return TransitionMatrix(np.ones((m, m), dtype=bool))
