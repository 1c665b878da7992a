import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusdyn import sft
from torusdyn.sft import (
    GOLDEN_MEAN,
    PeriodicOrbit,
    TransitionMatrix,
    block_recode,
    bq_bound,
    brute_force_min_period,
    count_words,
    d_a_distance,
    full_shift,
    perron_pair,
    project_cycle,
    shortest_cycle,
    top_entropy,
)
from torusdyn.suspension import parry_measure

LOG_PHI = np.log((1 + np.sqrt(5)) / 2)


class TestTopEntropy:
    def test_full_shift(self):
        assert abs(top_entropy(full_shift(4)) - np.log(4)) <= 1e-12

    def test_golden_mean_closed_form(self):
        assert abs(top_entropy(GOLDEN_MEAN) - LOG_PHI) <= 1e-9

    def test_single_cycle_zero_entropy(self):
        perm = TransitionMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert abs(top_entropy(perm)) <= 1e-12

    def test_empty_essential_part(self):
        # one edge, no return path: essential part is empty
        A = TransitionMatrix([[0, 1], [0, 0]])
        with pytest.raises(sft.ZeroShift):
            top_entropy(A)


def cycle_chord(m):
    """The m-cycle with the one chord 0 -> m/2; irreducible, slow for power iteration."""
    bits = np.zeros((m, m), dtype=bool)
    bits[np.arange(m), (np.arange(m) + 1) % m] = True
    bits[0, m // 2] = True
    return bits


TIMED_CYCLE_CHORD = """
import sys, time
import numpy as np
sys.path.insert(0, sys.argv[1])
from torusdyn.sft import TransitionMatrix, top_entropy
m = int(sys.argv[2])
bits = np.zeros((m, m), dtype=bool)
bits[np.arange(m), (np.arange(m) + 1) % m] = True
bits[0, m // 2] = True
t0 = time.perf_counter()
h = top_entropy(TransitionMatrix(bits))
print(repr(h), time.perf_counter() - t0)
"""


def timed_cycle_chord(m):
    """(h, seconds) of top_entropy(cycle_chord(m)) in a fresh process on one BLAS thread.

    Timed as the benchmark runs it: on a shared 2-core host, 1 process in 30
    ran every two-thread 800 x 800 LU factorization 15x slower than the
    other 29 did.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(sft.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", TIMED_CYCLE_CHORD, src, str(m)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    h, elapsed = proc.stdout.split()
    return float(h), float(elapsed)


def eig_root(bits):
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(bits, dtype=float)))))


def first_return_root(m):
    """Perron root of cycle_chord(m), m even, from its first-return equation.

    The returns to symbol 0 take m steps round the cycle or m/2 + 1 through
    the chord, so the root solves rho^(-m) + rho^(-(m/2+1)) = 1 on (1, 2).
    The cost and the accuracy do not depend on m.
    """
    from scipy.optimize import brentq

    return brentq(lambda r: r ** -m + r ** -(m // 2 + 1) - 1.0, 1.0, 2.0,
                  xtol=1e-300, rtol=4 * np.finfo(float).eps)


def reference_perron_pair(bits, rtol=1e-12, max_iter=100):
    """The dense Noda iteration, one LU of the whole shifted block a step."""
    B = np.array(bits, dtype=float)
    m = B.shape[0]
    shifted = np.empty_like(B)
    x = np.ones(m)
    width_prev = np.inf
    steps = 0
    while True:
        r = (B @ x) / x
        lo, hi = float(r.min()), float(r.max())
        width = hi - lo
        if steps == max_iter or (width <= rtol * hi and (
                width > width_prev / 2 or width <= 4 * np.spacing(hi))):
            break
        np.negative(B, out=shifted)
        shifted.flat[::m + 1] += hi
        try:
            y = np.linalg.solve(shifted, x)
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
    return sft.PerronPair(0.5 * (lo + hi), lo, hi, x, steps)


def subdivided(m, density, seed, weighted):
    """A random irreducible graph on m vertices, every edge replaced by a path.

    Each path has 1 to 50 new vertices of a single successor; weighted
    blocks carry entries in [0.5, 2] instead of 1.
    """
    rng = np.random.default_rng(seed)
    base = rng.random((m, m)) < density
    perm = rng.permutation(m)
    base[perm, np.roll(perm, -1)] = True  # a Hamiltonian cycle makes it irreducible
    edges = np.argwhere(base)
    lengths = rng.integers(1, 51, len(edges))
    B = np.zeros((m + int(lengths.sum()),) * 2)
    new = m
    for (u, v), n in zip(edges, lengths):
        path = [u, *range(new, new + n), v]
        new += n
        B[path[:-1], path[1:]] = rng.uniform(0.5, 2.0, n + 1) if weighted else 1.0
    return B


class TestPerronPair:
    def test_cycle_chord_800_fast_and_exact(self):
        h, elapsed = timed_cycle_chord(800)
        assert abs(h - np.log(eig_root(cycle_chord(800)))) <= 1e-12
        assert elapsed < 1.0

    def test_cycle_chord_3000_fast_and_exact(self):
        # a dense LU of the 3000 x 3000 shifted block takes about 1 s a step
        h, elapsed = timed_cycle_chord(3000)
        assert abs(h - np.log(first_return_root(3000))) <= 4 * np.finfo(float).eps
        assert elapsed < 1.0

    @pytest.mark.parametrize("m", [200, 800])
    def test_first_return_root_matches_eigvals(self, m):
        rho = first_return_root(m)
        assert abs(rho - eig_root(cycle_chord(m))) <= 1e-14 * rho

    @pytest.mark.parametrize("m", [200, 800])
    def test_cycle_chord_root_at_rounding_level(self, m):
        pair = perron_pair(cycle_chord(m))
        rho = first_return_root(m)
        assert pair.steps <= 11
        assert pair.lower <= rho <= pair.upper
        assert abs(pair.root - rho) <= 2 * np.spacing(rho)

    @pytest.mark.parametrize("m", [2, 200, 800])
    def test_bracket_contains_eigvals_root(self, m):
        # eigvals is the oracle where it is accurate, the golden mean; on
        # cycle_chord(800) it lands 1 ulp below the root with one BLAS thread
        # and 39 ulp above with two, outside a bracket that is 4 ulp wide, so
        # the chords take the exact first-return root, which agrees with
        # eigvals to 1e-14 (test_first_return_root_matches_eigvals)
        bits = cycle_chord(m) if m > 2 else GOLDEN_MEAN.bits
        pair = perron_pair(bits)
        assert pair.lower <= pair.root <= pair.upper
        assert pair.upper - pair.lower <= 1e-12 * pair.root
        rho = first_return_root(m) if m > 2 else eig_root(bits)
        slack = 4 * np.spacing(rho)
        assert pair.lower - slack <= rho <= pair.upper + slack

    @pytest.mark.parametrize("bits,root", [
        ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 1.0),
        ([[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]], 2.0),
    ])
    def test_imprimitive_blocks_need_no_solve(self, bits, root):
        pair = perron_pair(bits)
        assert pair.steps == 0
        assert pair.root == pair.lower == pair.upper == root
        assert np.array_equal(pair.vector, np.ones(len(bits)))

    def test_reducible_takes_larger_component_root(self):
        # golden-mean block {0, 1} feeds a full 3-shift block {2, 3, 4}
        bits = np.zeros((5, 5), dtype=bool)
        bits[:2, :2] = GOLDEN_MEAN.bits
        bits[2:, 2:] = True
        bits[1, 2] = True
        assert abs(top_entropy(TransitionMatrix(bits)) - np.log(3.0)) <= 1e-12
        assert abs(top_entropy(TransitionMatrix(bits.T)) - np.log(3.0)) <= 1e-12

    def test_strong_components_match_csgraph(self):
        from scipy.sparse.csgraph import connected_components

        rng = np.random.default_rng(9)
        for _ in range(300):
            m = int(rng.integers(1, 30))
            bits = rng.random((m, m)) < rng.uniform(0.0, 0.3)
            n, labels = connected_components(bits, directed=True, connection="strong")
            expected = sorted(np.flatnonzero(labels == c).tolist() for c in range(n))
            assert sorted(c.tolist() for c in sft.strong_components(bits)) == expected

    def test_max_iter_bounds_the_solves(self):
        with pytest.raises(RuntimeError, match="after 2 shifted solves"):
            perron_pair(cycle_chord(200), max_iter=2)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.floats(0.0, 0.6), st.integers(0, 2**32 - 1))
    def test_random_irreducible(self, m, density, seed):
        rng = np.random.default_rng(seed)
        bits = rng.random((m, m)) < density
        perm = rng.permutation(m)
        bits[perm, np.roll(perm, -1)] = True  # a Hamiltonian cycle makes it irreducible
        pair = perron_pair(bits)
        assert (pair.vector > 0).all()
        assert pair.upper - pair.lower <= 1e-12 * pair.root
        assert abs(pair.root - eig_root(bits)) <= 1e-12 * pair.root

    def test_parry_measure_stationary_at_rounding_level(self):
        for m in (200, 800):
            nu = parry_measure(TransitionMatrix(cycle_chord(m)))
            assert np.max(np.abs(nu.p @ nu.P - nu.p)) <= 1e-15

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.floats(0.0, 0.5), st.integers(0, 2**32 - 1), st.booleans())
    def test_chain_heavy_blocks(self, m, density, seed, weighted):
        B = subdivided(m, density, seed, weighted)
        pair = perron_pair(B)
        assert (pair.vector > 0).all()
        assert pair.upper - pair.lower <= 1e-12 * pair.root
        assert abs(pair.root - eig_root(B)) <= 1e-12 * pair.root

    def test_weighted_long_cycle_stays_dense(self):
        # every vertex has one successor but none reaches a branching one
        m = 100
        w = np.random.default_rng(3).uniform(0.5, 2.0, m)
        B = np.zeros((m, m))
        B[np.arange(m), (np.arange(m) + 1) % m] = w
        pair, ref = perron_pair(B), reference_perron_pair(B)
        assert pair.steps > 0 and pair.vector.tobytes() == ref.vector.tobytes()
        rho = np.exp(np.log(w).mean())
        assert abs(pair.root - rho) <= 1e-12 * rho

    def test_contracted_block_builds_no_dense_copy(self):
        # the whole 3000 x 3000 block as floats would take 72 MB
        import tracemalloc

        bits = cycle_chord(3000)
        tracemalloc.start()
        try:
            pair = perron_pair(bits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pair.lower <= first_return_root(3000) <= pair.upper
        assert peak < 5e6

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 120), st.floats(0.0, 0.3), st.integers(0, 2**32 - 1))
    def test_dense_blocks_match_reference_bit_for_bit(self, m, density, seed):
        # blocks with no single-successor vertex, or too small to contract
        rng = np.random.default_rng(seed)
        bits = rng.random((m, m)) < density
        perm = rng.permutation(m)
        bits[perm, np.roll(perm, -1)] = True
        if m > sft._SMALL:
            bits[perm, np.roll(perm, -2)] = True  # out-degree >= 2 everywhere
        pair, ref = perron_pair(bits), reference_perron_pair(bits)
        assert (pair.root, pair.lower, pair.upper, pair.steps) == (
            ref.root, ref.lower, ref.upper, ref.steps)
        assert pair.vector.tobytes() == ref.vector.tobytes()

    @pytest.mark.parametrize("bits", [
        [[np.nan, 1], [1, 0]],
        [[np.inf, 1], [1, 0]],
        [[-1, 1], [1, 0]],
    ], ids=["nan", "inf", "negative"])
    def test_refuses_entries_it_cannot_certify(self, bits):
        with pytest.raises(ValueError, match="finite nonnegative"):
            perron_pair(bits)

    @pytest.mark.parametrize("bits", [[], np.zeros((0, 0)), [[1, 1]], [1, 1]],
                             ids=["empty-list", "empty-matrix", "non-square", "vector"])
    def test_refuses_empty_or_non_square(self, bits):
        with pytest.raises(ValueError, match="nonempty square"):
            perron_pair(bits)


def reference_essential_part(bits):
    """Kept symbols by repeated submatrix sweeps, dropping rows or columns without a 1."""
    keep = np.ones(len(bits), dtype=bool)
    while True:
        sub = bits[np.ix_(keep, keep)]
        alive = sub.any(axis=1) & sub.any(axis=0)
        if alive.all():
            return np.flatnonzero(keep)
        keep[np.flatnonzero(keep)[~alive]] = False


class TestSuccessorLists:
    @pytest.mark.parametrize("m", [1, 5, 64, 65, 150, 1000])
    def test_match_flatnonzero_rows(self, m):
        rng = np.random.default_rng(m)
        bits = rng.random((m, m)) < 0.2
        bits[rng.random(m) < 0.3] = False  # rows without a successor
        weights = np.where(bits, rng.uniform(0.5, 2.0, (m, m)), 0.0)
        for matrix in (bits, bits.astype(float), weights, bits.T, weights.T):
            expected = [np.flatnonzero(row).tolist() for row in matrix]
            assert sft._successors(matrix) == expected

    def test_essential_part_matches_submatrix_sweeps(self):
        rng = np.random.default_rng(17)
        for big in [0] * 300 + [1000, 3000]:
            m = big or int(rng.integers(1, 90))
            bits = rng.random((m, m)) < (1 / m if big else rng.uniform(0.0, 0.1))
            bits[0, 0] |= not bits.any()
            ess, kept = TransitionMatrix(bits).essential_part()
            expected = reference_essential_part(bits)
            assert kept.tolist() == expected.tolist()
            if ess is None:
                assert expected.size == 0
            else:
                assert np.array_equal(ess.bits, bits[np.ix_(expected, expected)])

    def test_words_and_cycles_are_python_ints(self):
        A = TransitionMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert all(type(s) is int for s in shortest_cycle(A).cycle)
        assert all(type(s) is int for w in A.legal_words(3) for s in w)


class TestTransitionMatrixEntries:
    @pytest.mark.parametrize("bits", [[[np.nan, 1], [1, 0]], [[2, 1], [1, 0]],
                                      [[0.5, 1], [1, 0]], [[-1, 1], [1, 0]]],
                             ids=["nan", "two", "half", "negative"])
    def test_refuses_entries_other_than_0_and_1(self, bits):
        with pytest.raises(ValueError, match="entries must be 0 or 1"):
            TransitionMatrix(bits)

    def test_accepts_0_1_ints_floats_and_bools(self):
        expected = np.array([[True, True], [True, False]])
        for bits in ([[1, 1], [1, 0]], [[1.0, 1.0], [1.0, 0.0]], expected):
            assert np.array_equal(TransitionMatrix(bits).bits, expected)


class TestCountWords:
    def test_golden_mean_fibonacci(self):
        assert [count_words(GOLDEN_MEAN, n) for n in range(1, 7)] == [2, 3, 5, 8, 13, 21]

    def test_full_shift_power(self):
        assert count_words(full_shift(3), 5) == 3**5

    def test_single_cycle(self):
        perm = TransitionMatrix([[0, 1], [1, 0]])
        for n in (1, 4, 9):
            assert count_words(perm, n) == 2

    def test_no_overflow(self):
        # way past int64 territory
        assert count_words(full_shift(10), 30) == 10**30

    def test_word_count_rate_decreases_to_entropy(self):
        h = top_entropy(GOLDEN_MEAN)
        rates = [np.log(count_words(GOLDEN_MEAN, n)) / n for n in range(1, 13)]
        assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))
        assert rates[-1] - h <= 0.02


def reference_shortest_cycle(A):
    """The full BFS from every symbol that `shortest_cycle` replaced, kept as its reference."""
    rows = sft._successors(A.bits)
    best = None
    for s in range(A.m):
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
        raise sft.NoCycle("transition graph is acyclic")
    return best


def reference_random_transition_matrix(rng, m, density, max_tries=100):
    """The sampler with its shortest-cycle pass, which never rejected a draw."""
    for _ in range(max_tries):
        bits = rng.random((m, m)) < density
        if not bits.any():
            continue
        ess, _ = TransitionMatrix(bits).essential_part()
        if ess is None:
            continue
        reference_shortest_cycle(ess)
        return ess
    raise RuntimeError("failed to sample an essential matrix")


class TestShortestCycle:
    def test_self_loop(self):
        A = TransitionMatrix([[0, 1], [1, 1]])
        assert shortest_cycle(A).period == 1

    def test_golden_mean_period_one(self):
        orbit = shortest_cycle(GOLDEN_MEAN)
        assert orbit.period == 1 and orbit.cycle == (0,)

    def test_three_cycle(self):
        perm = TransitionMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        orbit = shortest_cycle(perm)
        assert orbit.period == 3
        assert perm.is_legal_word(orbit.cycle + orbit.cycle[:1])

    def test_acyclic_raises(self):
        A = TransitionMatrix([[0, 1], [0, 0]])
        with pytest.raises(sft.NoCycle):
            shortest_cycle(A)

    def test_agrees_with_trace_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            A = sft.random_transition_matrix(rng, int(rng.integers(2, 9)), rng.uniform(0.2, 0.8))
            assert shortest_cycle(A).period == brute_force_min_period(A)

    def test_same_cycle_as_full_bfs(self):
        # the cut BFS returns the reference's cycle, not only its period
        rng = np.random.default_rng(17)
        cases = [GOLDEN_MEAN, TransitionMatrix(cycle_chord(200))]
        for i in range(400):
            m = int(rng.integers(1, 81))
            bits = rng.random((m, m)) < rng.uniform(0.5, 4.0) / m
            if i % 2:
                np.fill_diagonal(bits, False)
            if bits.any():
                cases.append(TransitionMatrix(bits))
        acyclic = 0
        for A in cases:
            try:
                expected = reference_shortest_cycle(A)
            except sft.NoCycle:
                acyclic += 1
                with pytest.raises(sft.NoCycle):
                    shortest_cycle(A)
                continue
            assert shortest_cycle(A).cycle == expected
        assert 0 < acyclic < len(cases) // 2

    def test_sampler_matches_reference(self):
        for seed in range(100):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for m, density in ((1, 0.5), (3, 0.2), (7, 0.1), (12, 0.4)):
                assert sft.random_transition_matrix(rng, m, density) == \
                    reference_random_transition_matrix(ref, m, density)
            assert rng.random() == ref.random()


class TestBqBound:
    def test_full_shift_three(self):
        assert abs(bq_bound(full_shift(3)) - (1 + np.e)) <= 1e-9

    def test_golden_mean_value(self):
        expected = 1 + 2 * np.exp(1 - LOG_PHI)
        assert abs(bq_bound(GOLDEN_MEAN) - expected) <= 1e-9
        assert shortest_cycle(GOLDEN_MEAN).period <= expected

    def test_single_self_loop(self):
        A = TransitionMatrix([[1]])
        assert abs(bq_bound(A) - (1 + np.e)) <= 1e-9

    def test_random_matrices_respect_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            A = sft.random_transition_matrix(rng, int(rng.integers(2, 13)), rng.uniform(0.1, 0.9))
            assert shortest_cycle(A).period <= bq_bound(A) + 1e-9

    def test_short_word_determined_by_symbol_set(self):
        # proof-order uniqueness claim, checked on instances: if the shortest
        # period is k+1, the symbol set of a legal k-word determines the word
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(300):
            bits = rng.random((int(rng.integers(3, 8)),) * 2) < rng.uniform(0.15, 0.5)
            np.fill_diagonal(bits, False)  # no period-1 orbits
            ess, _ = TransitionMatrix(bits).essential_part() if bits.any() else (None, None)
            if ess is None:
                continue
            try:
                k = shortest_cycle(ess).period - 1
            except sft.NoCycle:
                continue
            A = ess
            if not 1 <= k <= 6:
                continue
            seen = {}
            for w in A.legal_words(k):
                key = frozenset(w)
                assert seen.setdefault(key, w) == w
            checked += 1
        assert checked > 20


class TestBlockRecode:
    def test_golden_mean_n2_symbols(self):
        rec = block_recode(GOLDEN_MEAN, 2)
        assert rec.words == [(0, 0), (0, 1), (1, 0)]
        assert top_entropy(rec.matrix) >= 2 * LOG_PHI - 1e-9

    def test_full_shift_recode(self):
        rec = block_recode(full_shift(2), 2)
        assert rec.matrix.m == 4
        assert rec.matrix.bits.all()
        assert abs(top_entropy(rec.matrix) - 2 * np.log(2)) <= 1e-9

    def test_fixed_point_shift(self):
        A = TransitionMatrix([[1]])
        rec = block_recode(A, 5)
        assert rec.matrix.m == 1 and rec.matrix.bits[0, 0]

    def test_entropy_inequality_small_n(self):
        three = TransitionMatrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        for A in (GOLDEN_MEAN, three):
            h = top_entropy(A)
            for n in range(1, 7):
                rec = block_recode(A, n)
                assert top_entropy(rec.matrix) >= n * h - 1e-9

    def test_word_list_source_matches_matrix_source(self):
        # the 1-step bridge gather against the generic rule: u -> v iff uv is a legal 2n-word
        for bits, n in ((GOLDEN_MEAN.bits, 3), (np.ones((3, 3)), 4), (cycle_chord(6), 2),
                        ([[1, 1, 0], [0, 1, 1], [1, 0, 1]], 3), ([[1]], 2)):
            A = TransitionMatrix(bits)
            rec = block_recode(A, n)
            legal_2n = set(A.legal_words(2 * n))
            words = sorted({w[i:i + n] for w in legal_2n for i in range(n + 1)})
            assert rec.words == words
            assert np.array_equal(rec.matrix.bits,
                                  [[u + v in legal_2n for v in words] for u in words])


class TestProjectCycle:
    def test_self_loop_projection(self):
        rec = block_recode(GOLDEN_MEAN, 2)
        z = PeriodicOrbit((0,))  # the word 00 has a self-loop
        proj = project_cycle(rec, z, source=GOLDEN_MEAN)
        assert proj.cycle == (0, 0)

    def test_two_cycle_projection(self):
        rec = block_recode(GOLDEN_MEAN, 2)
        i, j = rec.words.index((0, 1)), rec.words.index((0, 0))
        proj = project_cycle(rec, PeriodicOrbit((i, j)), source=GOLDEN_MEAN)
        assert proj.cycle == (0, 1, 0, 0)
        doubled = proj.cycle * 2
        assert all(GOLDEN_MEAN.is_legal_word(doubled[t:t + 2]) for t in range(4))

    def test_concatenation_with_illegal_window_rejected(self):
        # (0,1) -> (1,0) would project to 0110, whose window 11 is illegal,
        # and the 2n rule indeed forbids that transition
        rec = block_recode(GOLDEN_MEAN, 2)
        i, j = rec.words.index((0, 1)), rec.words.index((1, 0))
        assert not rec.matrix.bits[i, j]
        with pytest.raises(sft.IllegalConcatenation):
            project_cycle(rec, PeriodicOrbit((i, j)), source=GOLDEN_MEAN)

    def test_recoded_full_shift_period(self):
        rec = block_recode(full_shift(2), 3)
        z = shortest_cycle(rec.matrix)
        proj = project_cycle(rec, z, source=full_shift(2))
        assert proj.period == 3 * z.period

    def test_illegal_transition_raises(self):
        # golden-mean Z^(2) allows every bridge, so test on the 3-cycle
        perm = TransitionMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        rec3 = block_recode(perm, 2)
        w01 = rec3.words.index((0, 1))
        assert not rec3.matrix.bits[w01, w01]
        with pytest.raises(sft.IllegalConcatenation):
            project_cycle(rec3, PeriodicOrbit((w01, w01)), source=perm)

    def test_projections_have_legal_windows(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            A = sft.random_transition_matrix(rng, int(rng.integers(2, 6)), rng.uniform(0.3, 0.8))
            for n in (2, 3):
                rec = block_recode(A, n)
                z = shortest_cycle(rec.matrix)
                proj = project_cycle(rec, z, source=A)  # raises on any illegal window
                assert proj.period == n * z.period


class TestDaDistance:
    def test_identical_windows(self):
        w = (0, 1, 0, 1, 0)
        assert d_a_distance(w, w) == 0.0

    def test_agree_up_to_three(self):
        u = (9, 0, 1, 0, 1, 0, 1, 0, 9)  # radius 4, disagree at |i|=4
        w = (8, 0, 1, 0, 1, 0, 1, 0, 8)
        assert d_a_distance(u, w, a=2.0) == 2.0 ** (-3)

    def test_center_disagreement_convention(self):
        assert d_a_distance((0, 1, 0), (0, 0, 0), a=3.0) == 3.0

    def test_radius_mismatch(self):
        with pytest.raises(sft.WindowMismatch):
            d_a_distance((0, 1, 0), (0, 1, 0, 1, 0))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4), st.data())
    def test_ultrametric(self, r, data):
        n = 2 * r + 1
        sym = st.tuples(*[st.integers(0, 1)] * n)
        u, v, w = data.draw(sym), data.draw(sym), data.draw(sym)
        duv = d_a_distance(u, v)
        assert duv <= max(d_a_distance(u, w), d_a_distance(w, v)) + 1e-15


def reference_rle(A):
    """Run-length text `rle m` then `count*bit` tokens, written per cell: the
    tests' writer for the run-length input that `parse_matrix` reads."""
    flat = A.bits.astype(int).ravel()
    runs = []
    start = 0
    for i in range(1, len(flat) + 1):
        if i == len(flat) or flat[i] != flat[start]:
            runs.append(f"{i - start}*{flat[start]}")
            start = i
    return f"rle {A.m}\n" + " ".join(runs) + "\n"


class TestMatrixIO:
    def test_grid_round_trip(self):
        text = sft.format_matrix(GOLDEN_MEAN)
        assert sft.parse_matrix(text) == GOLDEN_MEAN

    def test_rle_round_trip(self):
        rng = np.random.default_rng(7)
        cases = [sft.random_transition_matrix(rng, 9, 0.4), GOLDEN_MEAN, TransitionMatrix([[1]]),
                 full_shift(4), TransitionMatrix(np.eye(5)), TransitionMatrix(cycle_chord(40)),
                 TransitionMatrix(rng.random((30, 30)) < 0.5)]
        for A in cases:
            assert sft.parse_matrix(reference_rle(A)) == A

    def test_spaced_grid(self):
        assert sft.parse_matrix("1 1\n1 0\n") == GOLDEN_MEAN


def test_cylinder_growth_exposed():
    k6 = sft.cylinder_growth(GOLDEN_MEAN, 6)
    assert k6 > 0


def reference_top_entropy(A, rtol=1e-12, max_iter=100):
    """`top_entropy` through `essential_part`, before it walked the
    components of A directly, verbatim."""
    ess, _ = A.essential_part()
    if ess is None:
        raise sft.ZeroShift("essential part of the shift is empty")
    root = 0.0
    for idx in sft.strong_components(ess.bits):
        block = ess.bits if len(idx) == ess.m else ess.bits[np.ix_(idx, idx)]
        if len(idx) == 1 and not block[0, 0]:
            continue  # transient symbol, no cycle through it
        root = max(root, perron_pair(block, rtol, max_iter).root)
    return float(np.log(root))


def layered_bits(rng, m, density, n_layers):
    """Random 0/1 matrix whose symbols fall into layers: edges stay inside a
    layer or lead to a later one, so there are several components, and
    layers of one symbol without a self-loop are transient."""
    layer = np.sort(rng.integers(0, n_layers, size=m))
    rng.shuffle(layer)
    bits = (rng.random((m, m)) < density) & (layer[:, None] <= layer[None, :])
    return bits


class TestTopEntropyOverComponents:
    """Walking the components of A gives the value through the essential part."""

    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(1, 40), density=st.floats(0.02, 0.6), n_layers=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_essential_part(self, m, density, n_layers, seed):
        bits = layered_bits(np.random.default_rng(seed), m, density, n_layers)
        if not bits.any():
            return
        A = TransitionMatrix(bits)
        try:
            expected = reference_top_entropy(A)
        except sft.ZeroShift:
            with pytest.raises(sft.ZeroShift):
                top_entropy(A)
            return
        assert top_entropy(A) == expected

    def test_transients_and_several_components(self):
        # symbols 0-1 a 2-cycle, 2 transient, 3-5 the golden mean and a
        # fixed point 6, each reached only forward
        bits = np.zeros((7, 7), dtype=bool)
        for i, j in [(0, 1), (1, 0), (1, 2), (2, 3), (3, 3), (3, 4), (4, 3), (4, 5),
                     (5, 6), (6, 6), (2, 6)]:
            bits[i, j] = True
        A = TransitionMatrix(bits)
        assert top_entropy(A) == reference_top_entropy(A)
        assert abs(top_entropy(A) - LOG_PHI) <= 1e-12

    def test_acyclic_raises_zero_shift(self):
        A = TransitionMatrix(np.triu(np.ones((5, 5), dtype=bool), k=1))
        for fn in (reference_top_entropy, top_entropy):
            with pytest.raises(sft.ZeroShift):
                fn(A)
