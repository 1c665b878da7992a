import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from torusdyn import hyperbolic as hyp
from torusdyn.hyperbolic import (
    PseudoOrbit,
    Specification,
    ToralAutomorphism,
    apply,
    bracket,
    cat_map,
    expansivity_gap,
    periodic_shadow,
    random_pseudo_orbit,
    shadow,
    shadow_batch,
    shadow_specification,
)
from torusdyn.torus import _lift_inplace, _wrap_into, torus_metric, wrap

from helpers import _corrections, components

LAM_U = (3 + np.sqrt(5)) / 2
FIB = [0, 1]
while len(FIB) < 93:                    # F_0 .. F_92, the int64 limit
    FIB.append(FIB[-1] + FIB[-2])


class TestAutomorphism:
    def test_default_eigen_data(self):
        tm = cat_map()
        assert abs(tm.lam_u - LAM_U) < 1e-12
        assert abs(tm.lam_s - 1 / LAM_U) < 1e-12
        # symmetric matrix: orthogonal eigenbasis
        assert abs(tm.e_s @ tm.e_u) < 1e-12

    def test_rejects_non_hyperbolic(self):
        with pytest.raises(ValueError, match="not hyperbolic: the eigenvalues are not real"):
            ToralAutomorphism([[0, 1], [-1, 0]])  # rotation, complex eigenvalues
        with pytest.raises(ValueError, match="determinant must be"):
            ToralAutomorphism([[2, 1], [1, 2]])  # determinant 3

    @pytest.mark.parametrize("matrix", [[[1, 0], [3, 1]], [[1, 0], [3, -1]],
                                        [[-1, 0], [2, 1]], [[-1, 0], [5, -1]]])
    def test_zero_upper_right_entry_is_not_hyperbolic(self, matrix):
        # b = 0 leaves the real eigenvalues a, d = +-1, so no eigenvector needs b != 0;
        # a repeated one was reported as "eigenvalues are not real"
        (a, _), (_, d) = matrix
        with pytest.raises(ValueError, match=f"not hyperbolic: the eigenvalues "
                                             f"({a} and {d}|{d} and {a}) have modulus 1"):
            ToralAutomorphism(matrix)

    def test_det_minus_one(self):
        tm = ToralAutomorphism([[1, 1], [1, 0]])
        assert tm.det == -1
        assert tm.lam_s < 0 < tm.lam_u
        assert abs(tm.lam_u * tm.lam_s + 1) < 1e-12

    @pytest.mark.parametrize("matrix,entry", [
        ([[99999999999999999999, 1], [1, 1]], "99999999999999999999"),
        ([[2, 1], [1, -2**63 - 1]], str(-2**63 - 1)),
    ])
    def test_entry_outside_int64_is_named(self, matrix, entry):
        # numpy's OverflowError ("Python int too large to convert to C long")
        # named no entry, and the CLI did not catch it
        with pytest.raises(ValueError, match=f"matrix entry {entry} is outside the int64 range"):
            ToralAutomorphism(matrix)


    def test_fibonacci_determinants_are_exact(self):
        # [[F_n, F_n-1], [F_n-1, F_n-2]] has determinant (-1)^(n-1); the float
        # determinant read 0 at n = 41 and -305753269 at n = 60
        fib = [0, 1]
        while len(fib) < 93:
            fib.append(fib[-1] + fib[-2])
        for n in range(3, 93):
            tm = ToralAutomorphism([[fib[n], fib[n - 1]], [fib[n - 1], fib[n - 2]]])
            assert tm.det == (-1) ** (n - 1), n
            assert tm.lam_u == pytest.approx(((1 + 5 ** 0.5) / 2) ** (n - 1), rel=1e-12)

    def test_stable_eigenvalue_is_det_over_the_unstable_one(self):
        # lam_s = (tr - sqrt(disc))/2 cancelled: 0.0 at n = 41, where |lam_s| = 1/lam_u
        # is 4.37e-9; det/lam_u carries lam_u's relative accuracy over
        for n in range(3, 93):
            tm = ToralAutomorphism([[FIB[n], FIB[n - 1]], [FIB[n - 1], FIB[n - 2]]])
            assert abs(tm.lam_s * tm.lam_u - tm.det) <= 2 * 2.0 ** -52, n
        assert ToralAutomorphism([[FIB[41], FIB[40]], [FIB[40], FIB[39]]]).lam_s \
            == 4.370130339181067e-9
        assert cat_map().lam_s == 0.38196601125010515      # (3 - sqrt 5)/2, correctly rounded

    def test_fibonacci_pseudo_orbits_keep_their_jumps(self):
        # float products of [[F92, F91], [F91, F90]] near 1e19 are multiples of 2048: the
        # generated pseudo-orbit failed its own bound check ("observed 0.1398"); past
        # _float_images the images are exact, and each jump comes back to 2^-42
        rng = np.random.default_rng(92)
        for n in range(3, 93):
            tm = ToralAutomorphism([[FIB[n], FIB[n - 1]], [FIB[n - 1], FIB[n - 2]]])
            start, jumps = hyp._draw(200, 1e-4, rng)
            p = PseudoOrbit(tm, hyp._lockstep(tm, start[None], jumps[None])[0], 1e-4)
            assert np.abs(p.jumps - jumps).max() <= 2.0 ** -42, n
            assert shadow(tm, p)[1] <= tm.shadowing_q * 1e-4, n


class TestApply:
    def test_identity_power(self):
        x = np.array([0.3, 0.7])
        assert np.allclose(apply(cat_map(), x, 0), x)

    def test_fixed_point(self):
        assert np.allclose(apply(cat_map(), [0.0, 0.0], 5), [0.0, 0.0])

    def test_half_half(self):
        assert np.allclose(apply(cat_map(), [0.5, 0.5], 1), [0.5, 0.0])

    def test_inverse_power(self):
        tm = cat_map()
        x = np.array([0.123, 0.456])
        y = apply(tm, apply(tm, x, 7), -7)
        assert torus_metric(x, y) < 1e-9

    @pytest.mark.parametrize("n", [40, 100, 800, -800])
    @pytest.mark.parametrize("entries", [(2, 1, 1, 1), (3, 1, 1, 0)])
    def test_long_powers_match_fraction_oracle(self, entries, n):
        # the float power of A overflows the mantissa past n ~ 30; the exact
        # image of the double point, rounded once, does not
        tm = ToralAutomorphism(np.array(entries).reshape(2, 2))
        pts = np.array([[0.3, 0.7], [0.123, 0.456], [1e-300, 0.5 - 2**-60]])
        got = apply(tm, pts, n)
        for x, y in zip(pts, got):
            exact = _fraction_power(tm, [Fraction(v) for v in x], n)
            want = [0.0 if float(v) == 1.0 else float(v) for v in exact]
            assert np.array_equal(y, want), (x, n)
        assert np.array_equal(apply(tm, pts[0], n), got[0])

    def test_long_power_is_not_the_float_matrix_power(self):
        # n = 40 used to return (0, 0): the float entries of A^40 lose all of x
        got = apply(cat_map(), [0.3, 0.7], 40)
        assert torus_metric(got, [0.0, 0.0]) > 0.01

    def test_non_finite_point_gives_nan(self):
        assert np.isnan(apply(cat_map(), [np.nan, 0.5], 3)).all()

    def test_exact_orbit_modulus(self):
        tm = cat_map()
        pts = hyp.orbit(tm, [5 / 64, 3 / 64], 200, modulus=2**31)
        # exact rational orbit: re-apply one step and compare
        step = apply(tm, pts[100], 1)
        assert torus_metric(step, pts[101]) < 1e-12

    @pytest.mark.parametrize("matrix,x0", [
        (((2, 1), (1, 1)), (0.3, 0.7)),
        (((FIB[92], FIB[91]), (FIB[91], FIB[90])), (0.3, 0.7)),   # steps in Python ints
        (((2, 1), (1, 1)), (1e-300, 1 - 2**-53)),      # q = 2^1049: Python-int division
    ], ids=["cat", "F92", "tiny"])
    def test_orbit_matches_fraction_oracle(self, matrix, x0):
        # float steps drift like lam_u^i * 1e-16, 0.33 off by step 40 from here
        tm = ToralAutomorphism(matrix)
        pts = hyp.orbit(tm, x0, 200)
        exact = _fraction_orbit(tm, [Fraction(v) for v in x0], 200)
        want = [[0.0 if float(v) == 1.0 else float(v) for v in x] for x in exact]
        assert np.array_equal(pts, want)


class TestBracket:
    def test_same_point(self):
        tm = cat_map()
        x = np.array([0.2, 0.9])
        w, exists = bracket(tm, x, x)
        assert exists and torus_metric(w, x) < 1e-12

    def test_point_on_unstable_leaf(self):
        # y on the unstable leaf of x: the leaves W^s(x) and W^u(y) cross at x
        tm = cat_map()
        x = np.array([0.4, 0.4])
        y = wrap(x + 0.01 * tm.e_u)
        w, exists = bracket(tm, x, y)
        assert exists and torus_metric(w, x) < 1e-12

    def test_point_on_stable_leaf(self):
        tm = cat_map()
        x = np.array([0.4, 0.4])
        y = wrap(x + 0.01 * tm.e_s)
        w, exists = bracket(tm, x, y)
        assert exists and torus_metric(w, y) < 1e-12

    def test_random_pair_orbit_convergence(self):
        tm = cat_map()
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.random(2)
            y = wrap(x + rng.uniform(-0.01, 0.01, 2))
            w, exists = bracket(tm, x, y)
            assert exists
            # forward along the stable leaf of x, backward to y
            assert torus_metric(apply(tm, w, 12), apply(tm, x, 12)) < 0.02 * abs(tm.lam_s) ** 10
            assert torus_metric(apply(tm, w, -12), apply(tm, y, -12)) < 0.02 / tm.lam_u ** 10

    def test_out_of_chart(self):
        tm = cat_map()
        with pytest.raises(hyp.OutOfLocalChart):
            bracket(tm, [0.0, 0.0], [0.4, 0.4])

    def test_bracket_lipschitz(self):
        tm = cat_map()
        rng = np.random.default_rng(1)
        bound = 2 * tm.basis_condition
        for _ in range(50):
            x = rng.random(2)
            y = wrap(x + rng.uniform(-0.02, 0.02, 2))
            y2 = wrap(y + rng.uniform(-1e-4, 1e-4, 2))
            w1, _ = bracket(tm, x, y)
            w2, _ = bracket(tm, x, y2)
            assert torus_metric(w1, w2) <= bound * torus_metric(y, y2) + 1e-12


class TestShadow:
    def test_true_orbit_zero_correction(self):
        tm = cat_map()
        pts = hyp.orbit(tm, [0.11, 0.23], 40)
        x0, eps = shadow(tm, PseudoOrbit(tm, pts))
        assert eps < 1e-12
        assert torus_metric(x0, pts[0]) < 1e-12

    def test_single_stable_jump(self):
        tm = cat_map()
        delta = 1e-4
        pts = hyp.orbit(tm, [0.3, 0.8], 30)
        pts[1:] = wrap(pts[1:] + delta * tm.e_s)  # one stable-axis jump at i=0
        x0, eps = shadow(tm, PseudoOrbit(tm, pts))
        assert eps <= delta / (1 - abs(tm.lam_s)) + 1e-12

    def test_within_q_delta(self):
        tm = cat_map()
        rng = np.random.default_rng(42)
        q = tm.shadowing_q
        for _ in range(25):
            p = random_pseudo_orbit(tm, 300, 1e-3, rng)
            x0, eps = shadow(tm, p)
            assert eps <= q * p.delta

    def test_shadow_distances_verified_directly(self):
        # short orbit: verify d(T^i x0, p_i) by explicit iteration
        tm = cat_map()
        rng = np.random.default_rng(3)
        p = random_pseudo_orbit(tm, 12, 1e-3, rng)
        x0, eps = shadow(tm, p)
        dists = [float(torus_metric(apply(tm, x0, i), p.points[i])) for i in range(12)]
        assert max(dists) <= eps + 1e-8

    def test_linearity_in_errors(self):
        tm = cat_map()
        rng = np.random.default_rng(7)
        base = hyp.orbit(tm, rng.random(2), 50)
        noise = rng.uniform(-1, 1, base.shape) * 1e-4
        noise[0] = 0.0
        p1 = PseudoOrbit(tm, wrap(base + noise))
        p2 = PseudoOrbit(tm, wrap(base + 2 * noise))
        _, eps1 = shadow(tm, p1)
        _, eps2 = shadow(tm, p2)
        assert abs(eps2 - 2 * eps1) < 1e-9

    def test_threshold(self):
        tm = cat_map()
        rng = np.random.default_rng(5)
        with pytest.raises(hyp.ThresholdExceeded):
            shadow(tm, random_pseudo_orbit(tm, 10, 0.3, rng))

    def test_batch_agrees_with_single(self):
        tm = cat_map()
        rng = np.random.default_rng(9)
        orbits = [random_pseudo_orbit(tm, 64, 1e-3, rng) for _ in range(8)]
        starts, eps = shadow_batch(tm, orbits)
        for i, p in enumerate(orbits):
            x0, e = shadow(tm, p)
            assert torus_metric(starts[i], x0) < 1e-12
            assert abs(eps[i] - e) < 1e-12


class TestNumpyKernels:
    """The numpy-only shadowing kernels against the scipy and % 1.0 forms they replaced."""

    def test_corrections_match_lfilter(self):
        from scipy.signal import lfilter

        for tm in (cat_map(), ToralAutomorphism([[1, 1], [1, 0]])):
            rng = np.random.default_rng(4)
            es, eu = components(tm, rng.uniform(-1e-4, 1e-4, (7, 500, 2)))
            a, b = _corrections(tm, es, eu)
            tail_a = lfilter([1.0], [1.0, -tm.lam_s], -es, axis=1)
            tail_b = lfilter([1.0], [1.0, -1.0 / tm.lam_u], eu[:, ::-1] / tm.lam_u,
                             axis=1)[:, ::-1]
            assert np.array_equal(a, np.concatenate([np.zeros((7, 1)), tail_a], axis=1))
            assert np.array_equal(b, np.concatenate([tail_b, np.zeros((7, 1))], axis=1))

    def test_wrap_and_lift_match_mod(self):
        rng = np.random.default_rng(8)
        x = np.concatenate([rng.uniform(-3, 3, 100_000), rng.uniform(-1e-12, 1e-12, 1000),
                            [-1e-17, 1e-17, -0.0, 0.0, -1.0, 1.0, 0.5, -0.5, 2.5, -2.5,
                             np.nextafter(1.0, 0.0), -np.nextafter(1.0, 0.0)]])
        y = x % 1.0
        assert np.array_equal(wrap(x), np.where(y >= 1.0, 0.0, y))
        assert np.array_equal(hyp.minimal_lift(x), (x + 0.5) % 1.0 - 0.5)

    def test_batch_rows_equal_single_bit_for_bit(self):
        tm = cat_map()
        rng = np.random.default_rng(12)
        orbits = hyp.random_pseudo_orbit_batch(tm, 5, 400, 1e-4, rng)
        starts, eps = shadow_batch(tm, orbits)
        for i, p in enumerate(orbits):
            x0, e = _shadow_one_orbit(tm, p)
            assert np.array_equal(starts[i], x0) and eps[i] == e

    @pytest.mark.parametrize("entries", [(2, 1, 1, 1), (3, 2, 1, 1), (5, 3, 3, 2), (3, 1, 1, 0)])
    @pytest.mark.parametrize("n", [2, 3, 17, 1000, 10_000])
    def test_shadow_equals_one_orbit_body(self, entries, n):
        tm = ToralAutomorphism(np.array(entries).reshape(2, 2))
        p = random_pseudo_orbit(tm, n, 1e-4, np.random.default_rng(n))
        x0, e = shadow(tm, p)
        ref_x0, ref_e = _shadow_one_orbit(tm, p)
        assert np.array_equal(x0, ref_x0) and e == ref_e and type(e) is float


def _shadow_one_orbit(tm, p):
    """The one-orbit `shadow` before it became a row of `shadow_batch`, verbatim."""
    if p.delta >= 0.25:
        raise hyp.ThresholdExceeded(f"delta={p.delta} >= 0.25 risks ambiguous lifts")
    es, eu = components(tm, p.jumps)
    a, b = _corrections(tm, es, eu)
    s, u = a[0], b[0]       # ToralAutomorphism.recompose(s, u), inlined
    corrections = np.outer(np.asarray(s).ravel(), tm.e_s).reshape(np.shape(s) + (2,)) \
        + np.outer(np.asarray(u).ravel(), tm.e_u).reshape(np.shape(u) + (2,))
    x0 = wrap(p.points[0] + corrections[0])
    eps = float(np.max(np.sqrt(corrections[..., 0] * corrections[..., 0]
                               + corrections[..., 1] * corrections[..., 1])))   # _norms
    return x0, eps


def _reference_corrections(tm, es, eu):
    """The sequential `_corrections` before the segmented scan, verbatim."""
    es, eu = np.atleast_2d(es), np.atleast_2d(eu)
    rows, n = es.shape
    x = np.concatenate([-es, eu[:, ::-1] / tm.lam_u]).T.copy()
    lam = np.repeat([tm.lam_s, 1.0 / tm.lam_u], rows)
    y = np.empty_like(x)
    scaled = np.zeros(2 * rows)     # lam * y_{i-1}
    for i in range(n):
        np.add(x[i], scaled, out=y[i])
        np.multiply(lam, y[i], out=scaled)
    a = np.concatenate([np.zeros((rows, 1)), y[:, :rows].T], axis=1)
    b = np.concatenate([y[::-1, rows:].T, np.zeros((rows, 1))], axis=1)
    return a, b


def _same_bits(u, v):
    u, v = np.asarray(u), np.asarray(v)
    return u.shape == v.shape and np.array_equal(u.view(np.int64), v.view(np.int64))


MATRICES = [(2, 1, 1, 1), (3, 2, 1, 1), (5, 3, 3, 2), (3, 1, 1, 0)]


class TestSegmentedCorrections:
    """The segmented, seam-checked scan against the one sequential recursion."""

    @staticmethod
    def _check(tm, es, eu):
        a, b = _corrections(tm, es, eu)
        ref_a, ref_b = _reference_corrections(tm, es, eu)
        assert _same_bits(a, ref_a) and _same_bits(b, ref_b)

    @staticmethod
    def _count_scans(monkeypatch):
        calls = []
        scan = hyp._scan

        def counted(*args):
            calls.append(len(args[0]))
            scan(*args)
        monkeypatch.setattr(hyp, "_scan", counted)
        return calls

    @pytest.mark.parametrize("entries", MATRICES)
    @pytest.mark.parametrize("rows", [1, 2, 7, 100])
    def test_lengths_around_the_segment(self, entries, rows):
        tm = ToralAutomorphism(np.array(entries).reshape(2, 2))
        seg, warm = hyp._SEGMENT, hyp._warmup(tm)
        rng = np.random.default_rng(rows)
        for n in (1, 2, seg - 1, seg, seg + 1, warm + seg, warm + seg + 1,
                  3 * seg + warm + 1):
            es, eu = components(tm, rng.uniform(-1e-4, 1e-4, (rows, n, 2)))
            self._check(tm, es, eu)

    def test_warmup(self):
        assert hyp._warmup(cat_map()) == 64
        for entries in MATRICES + [(1, 1, 1, 0)]:
            tm = ToralAutomorphism(np.array(entries).reshape(2, 2))
            rho = max(abs(tm.lam_s), 1 / abs(tm.lam_u))
            w = hyp._warmup(tm)
            assert rho ** w <= 2.0 ** -88 < rho ** (w - 1)

    @pytest.mark.parametrize("entries", MATRICES + [(1, 1, 1, 0)])
    def test_all_zero_jumps(self, entries):
        tm = ToralAutomorphism(np.array(entries).reshape(2, 2))
        es, eu = components(tm, np.zeros((3, 2000, 2)))
        self._check(tm, es, eu)
        self._check(tm, -es, -eu)

    @pytest.mark.parametrize("entries", MATRICES)
    @pytest.mark.parametrize("every", [200, 1827])
    def test_zero_stretches_force_reruns(self, entries, every, monkeypatch):
        # jumps only every 200 steps, as a filled specification has: each seam
        # lies in a zero stretch longer than W, where the exact value decays
        # while the warm-up stays 0, so the segment is run again.  With jumps
        # at the ends only, a segment and the warm-up of the next one are
        # both 0 until the first is run again, so the next seam is rechecked
        tm = ToralAutomorphism(np.array(entries).reshape(2, 2))
        n = 1828
        assert hyp._warmup(tm) < 199 and n > 3 * hyp._SEGMENT
        jumps = np.zeros((4, n, 2))
        jumps[:, ::every] = np.random.default_rng(3).uniform(
            -1e-4, 1e-4, (4, len(range(0, n, every)), 2))
        es, eu = components(tm, jumps)
        calls = self._count_scans(monkeypatch)
        self._check(tm, es, eu)
        assert len(calls) > 2                         # the main pass is two calls
        assert all(c == hyp._SEGMENT for c in calls[2:])

    def test_random_jumps_need_no_rerun(self, monkeypatch):
        tm = cat_map()
        es, eu = components(tm, np.random.default_rng(5).uniform(-1e-4, 1e-4, (3, 5000, 2)))
        calls = self._count_scans(monkeypatch)
        self._check(tm, es, eu)
        assert len(calls) == 2

    @settings(max_examples=60, deadline=None)
    @given(entries=st.sampled_from(MATRICES), n=st.integers(1, 1200), rows=st.integers(1, 4),
           scale=st.sampled_from([1e-300, 1e-200, 1e-20, 1e-4, 0.1]),
           zero_frac=st.sampled_from([0.0, 0.5, 0.99, 1.0]), seed=st.integers(0, 2**32 - 1))
    def test_matches_sequential_recursion(self, entries, n, rows, scale, zero_frac, seed):
        tm = ToralAutomorphism(np.array(entries).reshape(2, 2))
        rng = np.random.default_rng(seed)
        es, eu = rng.uniform(-scale, scale, (2, rows, n))
        es[rng.random(es.shape) < zero_frac] = 0.0
        eu[rng.random(eu.shape) < zero_frac] = -0.0
        self._check(tm, es, eu)

    @pytest.mark.parametrize("entries", MATRICES)
    def test_shadow_of_a_bench_sized_batch(self, entries):
        tm = ToralAutomorphism(np.array(entries).reshape(2, 2))
        orbits = hyp.random_pseudo_orbit_batch(tm, 100, 2000, 1e-4, np.random.default_rng(7))
        starts, eps = shadow_batch(tm, orbits)
        es, eu = components(tm, np.stack([p.jumps for p in orbits]))
        a, b = _reference_corrections(tm, es, eu)
        cx = a * tm.e_s[0] + b * tm.e_u[0]
        cy = a * tm.e_s[1] + b * tm.e_u[1]
        heads = np.stack([p.points[0] for p in orbits])
        assert _same_bits(starts, wrap(heads + np.stack([cx[:, 0], cy[:, 0]], axis=1)))
        assert _same_bits(eps, np.max(np.sqrt(cx * cx + cy * cy), axis=1))


def _reference_shadow(tm, orbits):
    """Starts and eps from `_reference_corrections` and a full-array recomposition."""
    es, eu = components(tm, np.stack([p.jumps for p in orbits]))
    a, b = _reference_corrections(tm, es, eu)
    cx = a * tm.e_s[0] + b * tm.e_u[0]
    cy = a * tm.e_s[1] + b * tm.e_u[1]
    heads = np.stack([p.points[0] for p in orbits])
    return (wrap(heads + np.stack([cx[:, 0], cy[:, 0]], axis=1)),
            np.max(np.sqrt(cx * cx + cy * cy), axis=1))


def _lattice_pseudo_orbits(tm, rows, n, every, rng, q=2**20):
    """Pseudo-orbits on the lattice (1/q)Z^2 whose jumps are exactly 0 except
    every `every` steps: the products and sums on k/q are exact doubles."""
    k = rng.integers(0, q, (rows, 2))
    pts = []
    for i in range(n):
        pts.append(k)
        k = (k @ tm.matrix.T) % q
        if (i + 1) % every == 0:
            k = (k + rng.integers(-3, 4, (rows, 2))) % q
    return [PseudoOrbit(tm, p) for p in np.stack(pts, axis=1) / q]


class TestBlockedLayout:
    """The blocked load and recomposition against the full-array forms, at block edges."""

    @pytest.mark.parametrize("entries", MATRICES)
    @pytest.mark.parametrize("rows", [1, 100])
    def test_lengths_around_the_block(self, entries, rows):
        tm = ToralAutomorphism(np.array(entries).reshape(2, 2))
        block = hyp._BLOCK // rows                 # steps per block
        rng = np.random.default_rng(rows)
        for m in ((1, 2) if rows > 1 else (1,)):
            for n_points in (m * block - 1, m * block, m * block + 1):
                orbits = hyp.random_pseudo_orbit_batch(tm, rows, n_points, 1e-4, rng)
                starts, eps = shadow_batch(tm, orbits)
                ref_starts, ref_eps = _reference_shadow(tm, orbits)
                assert _same_bits(starts, ref_starts) and _same_bits(eps, ref_eps)
                es, eu = components(tm, np.stack([p.jumps for p in orbits]))
                TestSegmentedCorrections._check(tm, es, eu)

    @pytest.mark.parametrize("entries", MATRICES)
    def test_zero_stretches_rerun_in_shadow_batch(self, entries, monkeypatch):
        tm = ToralAutomorphism(np.array(entries).reshape(2, 2))
        orbits = _lattice_pseudo_orbits(tm, 4, 1829, 200, np.random.default_rng(2))
        off_seams = np.arange(1828) % 200 != 199
        assert not any(np.any(p.jumps[off_seams]) for p in orbits)
        calls = TestSegmentedCorrections._count_scans(monkeypatch)
        starts, eps = shadow_batch(tm, orbits)
        assert len(calls) > 2                      # some segment ran again
        ref_starts, ref_eps = _reference_shadow(tm, orbits)
        assert _same_bits(starts, ref_starts) and _same_bits(eps, ref_eps)

    def test_peak_memory_of_a_bench_sized_batch(self):
        import tracemalloc

        tm = cat_map()
        orbits = hyp.random_pseudo_orbit_batch(tm, 100, 10_000, 1e-4, np.random.default_rng(1))
        jump_bytes = 100 * 9_999 * 2 * 8           # the stacked jumps
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            shadow_batch(tm, orbits)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the one scan buffer (its last segment padded) and the 1 MB load
        # scratch: 1.10x; a stacked component array loaded into the buffer
        # took 2.07x, and separate input and output buffers with full-size
        # recomposition temporaries 3.03x
        assert peak <= 1.5 * jump_bytes


class TestOrbitLoader:
    """The orbits loaded straight into the scan buffer, group by group and window by window,
    against `_reference_shadow`."""

    @pytest.mark.parametrize("entries", [(2, 1, 1, 1), (1, 1, 1, 0)])
    @pytest.mark.parametrize("rows", [1, hyp._GROUP - 1, hyp._GROUP, hyp._GROUP + 1, 100])
    def test_rows_and_lengths_around_the_edges(self, entries, rows):
        tm = ToralAutomorphism(np.array(entries).reshape(2, 2))
        seg, warm = hyp._SEGMENT, hyp._warmup(tm)
        width = 4 * hyp._BLOCK // min(rows, hyp._GROUP)      # steps per load window
        block = hyp._BLOCK // rows                           # steps per recomposition block
        rng = np.random.default_rng(rows)
        for n in sorted({1, 2, seg - 1, seg, seg + 1, warm + seg, warm + seg + 1,
                         width - 1, width, width + 1, block - 1, block, block + 1}):
            orbits = hyp.random_pseudo_orbit_batch(tm, rows, n + 1, 1e-4, rng)
            self._check(tm, orbits)

    @staticmethod
    def _check(tm, orbits):
        # the corrections at every step, then what shadow_batch makes of them
        a, b = hyp._scan_corrections(tm, len(orbits), len(orbits[0]) - 1,
                                     hyp._jump_components(tm, orbits))
        es, eu = components(tm, np.stack([p.jumps for p in orbits]))
        ref_a, ref_b = _reference_corrections(tm, es, eu)
        assert _same_bits(a.T, ref_a) and _same_bits(b.T, ref_b)
        starts, eps = shadow_batch(tm, orbits)
        ref_starts, ref_eps = _reference_shadow(tm, orbits)
        assert _same_bits(starts, ref_starts) and _same_bits(eps, ref_eps)

    @pytest.mark.parametrize("entries", MATRICES)
    def test_reruns_driven_by_the_last_group(self, entries, monkeypatch):
        # one sparse lattice orbit after a full group of random ones: its zero
        # stretches alone make seams differ, and each segment re-run reloads
        # both groups; the last segment holds one step, so its re-run cuts a
        # one-step window from both ends of the orbits
        tm = ToralAutomorphism(np.array(entries).reshape(2, 2))
        n = 7 * hyp._SEGMENT + 1                              # jumps
        rng = np.random.default_rng(6)
        orbits = (hyp.random_pseudo_orbit_batch(tm, hyp._GROUP, n + 1, 1e-4, rng)
                  + _lattice_pseudo_orbits(tm, 1, n + 1, 200, rng))
        loads = []
        load = hyp._load

        def recorded(x, part, n_steps, lam_u, t0):
            loads.append(t0)
            load(x, part, n_steps, lam_u, t0)
        monkeypatch.setattr(hyp, "_load", recorded)
        self._check(tm, orbits)
        assert loads[0] == 0 and n - 1 in loads[1:]          # the last segment ran again


def _reference_jumps(tm, points):
    """PseudoOrbit's jumps before the transposed product, verbatim."""
    with np.errstate(invalid="ignore"):
        points = wrap(points)
        mapped = points[:-1] @ tm.matrix.T.astype(float)
        _wrap_into(mapped, mapped)
        return _lift_inplace(np.subtract(points[1:], mapped, out=mapped))


class TestJumpLayout:
    """A @ points[:-1].T gives the bits of points[:-1] @ A.T, coordinate-major."""

    @pytest.mark.parametrize("entries", MATRICES + [(1, 1, 1, 0), (0, 1, 1, -1), (5, -2, -7, 3),
                                                    (-2, 1, 1, -1), (-1, -1, -1, 0)])
    @pytest.mark.parametrize("n", [2, 3, 17, 1000, 20_001])
    def test_jumps_equal_the_row_major_product(self, entries, n):
        tm = ToralAutomorphism(np.array(entries).reshape(2, 2))
        rng = np.random.default_rng(n)
        clouds = [rng.random((n, 2)),                          # no jump below 0.25
                  rng.integers(-2**20, 2**21, (n, 2)) / 2**20,  # exact lattice points, unwrapped
                  rng.normal(0.0, 30.0, (n, 2)),
                  hyp._lockstep(tm, rng.random((1, 2)), rng.normal(0.0, 1e-3, (1, n - 1, 2)))[0]]
        for pts in clouds:
            p = PseudoOrbit(tm, pts)
            ref = _reference_jumps(tm, pts)
            assert p.jumps.shape == (n - 1, 2) and p.jumps.T.flags.c_contiguous
            assert _same_bits(p.jumps, ref)
            assert p.delta == float(np.sqrt(np.max(ref[:, 0] * ref[:, 0] + ref[:, 1] * ref[:, 1])))


class TestShadowInputChecks:
    def test_nan_or_negative_claimed_bound(self):
        tm = cat_map()
        pts = hyp.orbit(tm, [0.1, 0.2], 20)
        for delta in (float("nan"), -1e-4):
            with pytest.raises(ValueError, match="claimed jump bound"):
                PseudoOrbit(tm, pts, delta)
        assert PseudoOrbit(tm, pts, 0.0).delta == 0.0

    def test_nan_bound_fails_the_threshold(self):
        tm = cat_map()
        p = PseudoOrbit(tm, hyp.orbit(tm, [0.1, 0.2], 20))
        p.delta = float("nan")
        with pytest.raises(hyp.ThresholdExceeded, match="nan"):
            shadow_batch(tm, [p])
        cycle = PseudoOrbit(tm, hyp.orbit(tm, [0.0, 0.0], 4))
        cycle.delta = float("nan")
        with pytest.raises(hyp.ThresholdExceeded, match="nan"):
            periodic_shadow(tm, cycle)

    def test_empty_batch(self):
        with pytest.raises(ValueError, match="at least one pseudo-orbit"):
            shadow_batch(cat_map(), [])

    def test_unequal_lengths(self):
        tm = cat_map()
        rng = np.random.default_rng(1)
        orbits = [random_pseudo_orbit(tm, n, 1e-4, rng) for n in (30, 20, 30)]
        with pytest.raises(ValueError, match=r"equal lengths, got lengths \[20, 30\]"):
            shadow_batch(tm, orbits)


def _per_orbit_loop(tm, n, delta, rng):
    """The one-orbit generator before lockstep stepping, verbatim."""
    pts = np.empty((n, 2))
    pts[0] = rng.random(2)
    mf = tm.matrix.astype(float)
    angles = rng.uniform(0, 2 * np.pi, n - 1)
    radii = delta * np.sqrt(rng.random(n - 1))
    jumps = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    for i in range(n - 1):
        pts[i + 1] = wrap(mf @ pts[i] + jumps[i])
    return PseudoOrbit(tm, pts, delta)


class TestLockstepGenerator:
    """All orbits step together; each draws its numbers as one call would."""

    @pytest.mark.parametrize("entries", [(2, 1, 1, 1), (3, 2, 1, 1), (5, 3, 3, 2)])
    def test_batch_equals_per_orbit_loop(self, entries):
        tm = ToralAutomorphism(np.array(entries).reshape(2, 2))
        ref_rng, rng = np.random.default_rng(9), np.random.default_rng(9)
        expected = [_per_orbit_loop(tm, 3000, 1e-4, ref_rng) for _ in range(7)]
        got = hyp.random_pseudo_orbit_batch(tm, 7, 3000, 1e-4, rng)
        assert len(got) == 7
        for p, q in zip(got, expected):
            assert np.array_equal(p.points, q.points) and p.delta == q.delta
        assert np.array_equal(rng.random(3), ref_rng.random(3))

    @pytest.mark.parametrize("entries", [(2, 1, 1, 1), (5, 3, 3, 2)])
    def test_single_orbit_equals_per_orbit_loop(self, entries):
        tm = ToralAutomorphism(np.array(entries).reshape(2, 2))
        p = random_pseudo_orbit(tm, 500, 1e-3, np.random.default_rng(4))
        assert np.array_equal(p.points, _per_orbit_loop(tm, 500, 1e-3,
                                                        np.random.default_rng(4)).points)


class TestPeriodicShadow:
    def test_fixed_point(self):
        tm = cat_map()
        pts = np.zeros((5, 2))
        res = periodic_shadow(tm, PseudoOrbit(tm, pts))
        assert torus_metric(res.point, [0, 0]) < 1e-12
        assert res.cover_residual <= 1e-12

    def test_true_periodic_orbit_unchanged(self):
        tm = cat_map()
        # exact 5-periodic rational orbit of the cat map mod 11: [[2,1],[1,1]] on (k/11)
        pts = hyp.orbit(tm, [1 / 11, 0 / 11], 20, modulus=11)
        period = next(i for i in range(1, 21) if np.allclose(pts[i], pts[0]))
        p = PseudoOrbit(tm, pts[:period])
        res = periodic_shadow(tm, p)
        assert res.eps_achieved < 1e-12
        assert torus_metric(res.point, pts[0]) < 1e-12
        assert res.cover_residual <= 1e-12

    def test_noisy_periodic_orbit(self):
        tm = cat_map()
        rng = np.random.default_rng(13)
        pts = hyp.orbit(tm, [3 / 11, 7 / 11], 40, modulus=11)
        period = next(i for i in range(1, 40) if np.allclose(pts[i], pts[0]))
        cyc = wrap(pts[:period] + rng.uniform(-1, 1, (period, 2)) * 1e-4)
        res = periodic_shadow(tm, PseudoOrbit(tm, cyc))
        assert res.cover_residual <= 1e-12
        delta = max(PseudoOrbit(tm, np.vstack([cyc, cyc[0]])).delta, 0)
        assert res.eps_achieved <= tm.shadowing_q * delta
        # the point really is periodic under float iteration too
        x = res.point.copy()
        for _ in range(period):
            x = apply(tm, x, 1)
        assert torus_metric(x, res.point) < 1e-6

    @pytest.mark.parametrize("modulus,period", [(64, 48), (128, 96)])
    def test_long_dyadic_cycle_closes_exactly(self, modulus, period):
        tm = cat_map()
        cyc, k = _noisy_lattice_cycle(tm, modulus, (1, 0), seed=modulus)
        assert len(cyc) == period
        res = periodic_shadow(tm, PseudoOrbit(tm, cyc))
        assert res.exact == (Fraction(1, modulus), Fraction(0))
        assert res.cover_residual == 0.0
        assert res.eps_achieved <= tm.shadowing_q * _cyclic_delta(tm, cyc)
        noise = torus_metric(np.array(k, dtype=float) / modulus, cyc).max()
        assert abs(res.eps_achieved - noise) <= 1e-15
        # the double point is k/q itself, so its rational orbit closes
        x = [Fraction(v) for v in res.point]
        assert x == list(res.exact)
        assert _fraction_orbit(tm, x, period)[-1] == x

    def test_long_cycle_mod_81(self):
        # not dyadic: the exact point is periodic and the double only rounds it
        tm = cat_map()
        cyc, _ = _noisy_lattice_cycle(tm, 81, (1, 0), seed=81)
        assert len(cyc) == 108
        res = periodic_shadow(tm, PseudoOrbit(tm, cyc))
        x = list(res.exact)
        assert x == [Fraction(1, 81), Fraction(0)]
        orbit_x = _fraction_orbit(tm, x, 108)
        assert orbit_x[-1] == x and all(o != x for o in orbit_x[1:-1])
        assert res.cover_residual == 0.0
        assert np.array_equal(res.point, [float(v) for v in x])

    @pytest.mark.parametrize("modulus,start,seed,eps_parent", [
        (11, (3, 7), 5, 0.00013458029536002819),
        (29, (2, 5), 7, 0.00011797459313663646),
        (11, (1, 0), 3, 9.81744003551374e-05),
        (29, (4, 1), 9, 0.00011894807881613857),
    ])
    def test_short_cycle_eps_matches_high_precision_solve(self, modulus, start, seed,
                                                           eps_parent):
        # eps_parent: the earlier 40-digit eigenbasis solve of the same cycles
        tm = cat_map()
        pts = hyp.orbit(tm, np.array(start) / modulus, 60, modulus=modulus)
        period = next(i for i in range(1, 60) if np.array_equal(pts[i], pts[0]))
        assert period == {11: 5, 29: 7}[modulus]
        cyc = wrap(pts[:period] + np.random.default_rng(seed).uniform(
            -1, 1, (period, 2)) * 1e-4)
        res = periodic_shadow(tm, PseudoOrbit(tm, cyc))
        assert abs(res.eps_achieved - eps_parent) <= 1e-15
        assert res.exact == tuple(Fraction(v, modulus) for v in start)

    @settings(max_examples=60, deadline=None)
    @given(gens=st.lists(st.sampled_from([((1, 1), (0, 1)), ((1, 0), (1, 1)),
                                          ((0, 1), (1, 0))]), min_size=2, max_size=6),
           modulus=st.integers(2, 40), start=st.tuples(st.integers(0, 39), st.integers(0, 39)),
           seed=st.integers(0, 2**32 - 1))
    @example(gens=[((3, 1), (1, 0))], modulus=27, start=(5, 2), seed=0)
    def test_unimodular_lattice_cycles_close_exactly(self, gens, modulus, start, seed):
        # products of the generators of GL(2, Z), det +1 and -1 alike
        m = np.eye(2, dtype=np.int64)
        for g in gens:
            m = m @ np.array(g, dtype=np.int64)
        det = int(round(np.linalg.det(m)))
        tr = int(np.trace(m))
        assume(abs(tr) > (2 if det == 1 else 0) and np.abs(m).max() <= 20)   # hyperbolic
        tm = ToralAutomorphism(m)
        cyc, k = _noisy_lattice_cycle(tm, modulus, start, seed=seed, cap=2000)
        if len(cyc) < 2:
            cyc, k = np.vstack([cyc, cyc]), k + k       # a fixed point, read twice
        res = periodic_shadow(tm, PseudoOrbit(tm, cyc))
        x = [Fraction(v, modulus) for v in k[0]]
        assert list(res.exact) == x
        assert res.cover_residual == 0.0
        assert _fraction_orbit(tm, x, len(cyc))[-1] == x
        # the shadowing orbit is the lattice cycle, so eps is the noise itself
        noise = torus_metric(np.array(k, dtype=float) / modulus, cyc).max()
        assert abs(res.eps_achieved - noise) <= 1e-15

    @pytest.mark.parametrize("n,q,k,steps,closes", [
        (57, 348, (67, 225), 6, True),     # exact closing jump 0.2499992, float 0.2500089
        (61, 384, (356, 94), 5, False),    # exact 0.2500109, float below 1/4
    ])
    def test_closing_jump_is_measured_exactly(self, n, q, k, steps, closes):
        tm = ToralAutomorphism([[FIB[n], FIB[n - 1]], [FIB[n - 1], FIB[n - 2]]])
        p = PseudoOrbit(tm, hyp.orbit(tm, np.array(k) / q, steps, modulus=q))
        assert p.delta < 0.25
        if closes:
            assert periodic_shadow(tm, p).eps_achieved < 0.25
        else:
            with pytest.raises(hyp.ThresholdExceeded, match="delta=0.2500109"):
                periodic_shadow(tm, p)

    @pytest.mark.parametrize("n,delta", [(92, 0.649), (80, 0.556), (70, None)])
    def test_fibonacci_cycle_of_rounded_lattice_points(self, n, delta):
        # (3/11, 5/11) has period 10, but its doubles are not k/11, and A moves their
        # rounding by up to F_n 2^-54: the doubles' own exact jumps reach 0.649 at F92
        # and 0.556 at F80, so those rejections are right; F70 still closes
        tm = ToralAutomorphism([[FIB[n], FIB[n - 1]], [FIB[n - 1], FIB[n - 2]]])
        pts = hyp.orbit(tm, [3 / 11, 5 / 11], 10, modulus=11)
        assert np.array_equal(pts[10], pts[0])
        p = PseudoOrbit(tm, pts[:10])
        if delta is None:
            assert periodic_shadow(tm, p).eps_achieved < 1e-15
        else:
            assert p.delta == pytest.approx(delta, abs=1e-3)
            with pytest.raises(hyp.ThresholdExceeded, match="is not below 0.25"):
                periodic_shadow(tm, p)

    def test_rejects_non_finite_points(self):
        tm = cat_map()
        for bad in (np.nan, np.inf, -np.inf):
            pts = np.array([[0.1, 0.2], [0.3, bad], [0.5, 0.6]])
            with pytest.raises(ValueError, match="finite"):
                PseudoOrbit(tm, pts)


def _noisy_lattice_cycle(tm, modulus, start, seed, cap=400):
    """One period of the lattice cycle of k/modulus plus 1e-4 noise, and its lattice ks."""
    k = [np.array(start, dtype=np.int64) % modulus]
    while len(k) <= cap:
        nxt = (tm.matrix @ k[-1]) % modulus
        if np.array_equal(nxt, k[0]):
            break
        k.append(nxt)
    assert len(k) <= cap, "cycle longer than the cap"
    pts = np.array(k, dtype=float) / modulus
    noise = np.random.default_rng(seed).uniform(-1, 1, pts.shape) * 1e-4
    return wrap(pts + noise), [tuple(int(v) for v in ki) for ki in k]


def _cyclic_delta(tm, cyc):
    return PseudoOrbit(tm, np.vstack([cyc, cyc[0]])).delta


def _fraction_power(tm, x, n):
    """T^n x in exact rational arithmetic mod 1, stepping by A or by its inverse."""
    (a, b), (c, d) = tm.matrix.tolist()
    if n < 0:
        det = a * d - b * c
        (a, b), (c, d), n = (d * det, -b * det), (-c * det, a * det), -n
    u, v = x
    for _ in range(n):
        u, v = (a * u + b * v) % 1, (c * u + d * v) % 1
    return u % 1, v % 1


def _fraction_orbit(tm, x, steps):
    """x, T x, ..., T^steps x in exact rational arithmetic mod 1."""
    (a, b), (c, d) = tm.matrix.tolist()
    out = [list(x)]
    for _ in range(steps):
        u, v = out[-1]
        out.append([(a * u + b * v) % 1, (c * u + d * v) % 1])
    return out


class TestExpansivityGap:
    def test_same_point(self):
        tm = cat_map()
        assert expansivity_gap(tm, [0.2, 0.2], [0.2, 0.2], 10, 0.01) == 0.0

    @pytest.mark.parametrize("L,beta", [(-1, 0.01), (8, np.nan), (8, -1.0), (8, np.inf)])
    def test_rejects_negative_L_and_bad_beta(self, L, beta):
        # L = -1, beta = nan and beta = inf returned d(x, y) = 0.587 without checking
        # a step, and beta = -1 raised HypothesisViolated at d = 0
        with pytest.raises(ValueError, match="needs L >= 0 and a finite beta >= 0"):
            expansivity_gap(cat_map(), [0.1, 0.2], [0.5, 0.63], L, beta)

    def test_stable_pair_within_contract(self):
        tm = cat_map()
        L, beta = 8, 0.01
        d0 = beta * np.exp(-L * np.log(tm.lam_u)) / tm.expansivity_D
        x = np.array([0.37, 0.59])
        y = wrap(x + d0 * tm.e_s)
        gap = expansivity_gap(tm, x, y, L, beta)
        assert gap <= tm.expansivity_D * beta * np.exp(-np.log(tm.lam_u) * L) + 1e-15

    def test_generic_pair_violates(self):
        tm = cat_map()
        x = np.array([0.1, 0.1])
        y = wrap(x + 0.01 * tm.e_u)
        with pytest.raises(hyp.HypothesisViolated) as exc:
            expansivity_gap(tm, x, y, 12, 0.01)
        assert exc.value.step is not None


class TestSpecification:
    def test_validation_against_resimulation(self):
        tm = cat_map()
        rng = np.random.default_rng(21)
        x = rng.random(2)
        times, points = [0], [x]
        for gap in (3, 4, 5):
            x = wrap(apply(tm, x, gap) + rng.uniform(-1e-4, 1e-4, 2))
            times.append(times[-1] + gap)
            points.append(x)
        spec = Specification(tm, times, np.array(points))
        assert spec.gap == 3
        # brute-force re-simulation of each gap
        for i in range(len(times) - 1):
            d = torus_metric(apply(tm, points[i], times[i + 1] - times[i]), points[i + 1])
            assert d <= spec.delta + 1e-15

    @pytest.mark.parametrize("gap", [60, 200])
    def test_long_gaps_shadow_within_q_delta(self, gap):
        # float-stepped gaps drifted by lam_u^i 1e-16 and read as jumps of ~0.5
        tm = cat_map()
        rng = np.random.default_rng(gap)
        x = rng.random(2)
        times, points = [0], [x]
        for _ in range(4):
            x = wrap(apply(tm, x, gap) + rng.uniform(-5e-5, 5e-5, 2))
            times.append(times[-1] + gap)
            points.append(x)
        spec = Specification(tm, times, np.array(points))
        assert spec.delta <= 5e-5 * np.sqrt(2)
        p = spec.fill()
        assert len(p) == 4 * gap + 1 and p.delta <= spec.delta + 1e-15
        x0, eps = shadow_specification(tm, spec)
        assert eps <= tm.shadowing_q * spec.delta
        assert torus_metric(x0, points[0]) <= eps

    def test_shadowing_a_specification(self):
        tm = cat_map()
        rng = np.random.default_rng(33)
        x = rng.random(2)
        times, points = [0], [x]
        for gap in (4, 4, 6, 5):
            x = wrap(apply(tm, x, gap) + rng.uniform(-5e-5, 5e-5, 2))
            times.append(times[-1] + gap)
            points.append(x)
        spec = Specification(tm, times, np.array(points))
        x0, eps = shadow_specification(tm, spec)
        assert eps <= tm.shadowing_q * spec.delta + 1e-12
        for i, t in enumerate(times):
            assert torus_metric(apply(tm, x0, t), points[i]) <= eps + 1e-8


def test_one_torus_metric_for_both_names():
    from torusdyn import entropy
    from torusdyn.torus import minimal_lift

    assert entropy.torus_metric is torus_metric
    rng = np.random.default_rng(5)
    a, b = rng.random((2, 500, 2))
    # on points in [0, 1) the folded gaps, bit for bit (the entropy golden files pin them)
    d = np.abs(a - b)
    d = np.minimum(d, 1.0 - d)
    assert np.array_equal(torus_metric(a, b), np.sqrt((d * d).sum(axis=-1)))
    # on cover points the norm of the minimal lift
    shift = rng.integers(-3, 4, (500, 2))
    expected = np.linalg.norm(minimal_lift(a - b), axis=-1)
    assert np.abs(torus_metric(a + shift, b) - expected).max() <= 1e-12


def reference_lattice_orbit(tm, x0, n_steps, modulus):
    """`orbit(..., modulus=q)` before the lattice stepper was shared, verbatim."""
    m = tm.matrix
    q = int(modulus)
    k = np.asarray(np.round(np.asarray(x0, dtype=float) * q), dtype=np.int64) % q
    pts = np.empty((n_steps + 1, 2))
    for i in range(n_steps + 1):
        pts[i] = k / q
        k = (m @ k) % q
    return pts


def reference_ensemble_orbits(tm, n_orbits, n_steps, backward, rng, modulus=2**31):
    """The orbit array of `orbit_ensemble` before the lattice stepper was
    shared, verbatim."""
    q = int(modulus)
    k0 = rng.integers(0, q, size=(n_orbits, 2)).astype(np.int64)
    m = tm.matrix
    det = tm.det
    adj = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=np.int64)
    minv = (det * adj) % q

    cols = [k0]
    k = k0
    for _ in range(n_steps):
        k = (k @ m.T) % q
        cols.append(k)
    k = k0
    back = []
    for _ in range(backward):
        k = (k @ minv.T) % q
        back.append(k)
    back.reverse()
    return np.stack(back + cols, axis=1).astype(float) / q


class TestLatticeOrbitFold:
    """One int64 stepper serves `orbit(modulus=)` and `orbit_ensemble`."""

    MATRICES = [((2, 1), (1, 1)), ((1, 1), (1, 0)), ((3, 2), (1, 1)), ((5, 7), (2, 3))]

    @pytest.mark.parametrize("matrix", MATRICES)
    @pytest.mark.parametrize("modulus", [7, 81, 1000, 2**31])
    def test_orbit_modulus(self, matrix, modulus):
        tm = ToralAutomorphism(matrix)
        rng = np.random.default_rng(modulus)
        for x0 in [(0.0, 0.0), (0.25, 0.5)] + [tuple(rng.random(2)) for _ in range(5)]:
            for n in (0, 1, 40):
                got = hyp.orbit(tm, x0, n, modulus=modulus)
                ref = reference_lattice_orbit(tm, x0, n, modulus)
                assert got.shape == ref.shape and np.array_equal(got, ref)

    @pytest.mark.parametrize("matrix", MATRICES)
    @pytest.mark.parametrize("backward,n_steps", [(0, 0), (0, 12), (3, 0), (5, 9), (30, 40)])
    def test_ensemble(self, matrix, backward, n_steps):
        tm = ToralAutomorphism(matrix)
        for modulus in (1000, 2**31):
            got = hyp.orbit_ensemble(tm, 25, n_steps, backward=backward, modulus=modulus,
                                     rng=np.random.default_rng(4))
            ref = reference_ensemble_orbits(tm, 25, n_steps, backward, modulus=modulus,
                                            rng=np.random.default_rng(4))
            assert got.origin == backward and np.array_equal(got.orbits, ref)


def reference_expansivity_gap(tm, x, y, L, beta):
    """`expansivity_gap` before it formed one power, verbatim: one `apply` pair per n."""
    x, y = wrap(x), wrap(y)
    for n in range(-L, L + 1):
        d = torus_metric(apply(tm, x, n), apply(tm, y, n))
        if d > beta:
            raise hyp.HypothesisViolated(f"d(T^{n} x, T^{n} y) = {d:.3g} > beta={beta}", step=n)
    return float(torus_metric(x, y))


def _reference_matpow(m, n):
    """M^n in Python ints by n products, for n >= 0."""
    (a, b), (c, d) = m
    out = [[1, 0], [0, 1]]
    for _ in range(n):
        out = [[out[0][0] * a + out[0][1] * c, out[0][0] * b + out[0][1] * d],
               [out[1][0] * a + out[1][1] * c, out[1][0] * b + out[1][1] * d]]
    return out


def reference_periodic_shadow(tm, p):
    """`periodic_shadow` in `Fraction` arithmetic before the numerator layer, verbatim
    but for the power, which `_reference_matpow` takes by repeated products."""
    from torusdyn.torus import minimal_lift

    pts = p.points
    n = len(pts)
    closing = minimal_lift(pts[0] - wrap(pts[-1] @ tm.matrix.T.astype(float)))
    delta = max(p.delta, float(np.linalg.norm(closing)))
    if not delta < 0.25:                 # written so that a NaN bound fails too
        raise hyp.ThresholdExceeded(f"delta={delta} is not below 0.25: ambiguous lifts")

    (a, b), (c, d) = tm.matrix.tolist()
    exact_pts = [(Fraction(x), Fraction(y)) for x, y in pts.tolist()]
    offsets = [(round(a * x + b * y - u), round(c * x + d * y - v))
               for (x, y), (u, v) in zip(exact_pts, exact_pts[1:] + exact_pts[:1])]
    m0 = m1 = 0                       # Horner: m = sum_i A^(N-1-i) n_i
    for k0, k1 in offsets:
        m0, m1 = a * m0 + b * m1 + k0, c * m0 + d * m1 + k1
    (p00, p01), (p10, p11) = power = _reference_matpow(tm.matrix.tolist(), n)
    den = (p00 - 1) * (p11 - 1) - p01 * p10          # det(A^N - I), never 0
    sign = 1 if den > 0 else -1
    den *= sign
    z0 = sign * ((p11 - 1) * m0 - p01 * m1), sign * ((p00 - 1) * m1 - p10 * m0)

    # the orbit x_i = z_i / den, exactly; int / int rounds correctly
    z, eps = z0, 0.0
    for pt, (k0, k1) in zip(exact_pts, offsets):
        gaps = [(zi * v.denominator - v.numerator * den) / (den * v.denominator)
                for zi, v in zip(z, pt)]
        eps = max(eps, float(np.hypot(*gaps)))
        z = a * z[0] + b * z[1] - k0 * den, c * z[0] + d * z[1] - k1 * den

    res = [(pi[0] * z0[0] + pi[1] * z0[1] - zi) % den for pi, zi in zip(power, z0)]
    cover_residual = float(np.hypot(*(min(r, den - r) / den for r in res)))
    exact = tuple(Fraction(zi % den, den) for zi in z0)
    return hyp.PeriodicShadowResult(wrap([float(v) for v in exact]), eps, cover_residual,
                                     exact)


class TestExactLayer:
    """One numerator form and one matrix power serve every exact path."""

    # det -1 and negative entries among them
    MATRICES = [((2, 1), (1, 1)), ((1, 1), (1, 0)), ((0, 1), (1, -3)), ((-2, 1), (1, -1)),
                ((2, -1), (-1, 1)), ((5, 7), (2, 3))]
    POINTS = np.array([[0.3, 0.7], [0.0, 0.0], [1e-300, 0.5], [0.0, 1e-300],
                       [0.123, 0.456], [np.nan, 0.25], [0.75, np.inf], [1 - 2**-53, 5e-324]])

    @pytest.mark.parametrize("matrix", MATRICES)
    @pytest.mark.parametrize("n", [0, 1, -1, 5, -37, 60])
    def test_stacked_apply_is_per_point_and_exact(self, matrix, n):
        tm = ToralAutomorphism(matrix)
        got = apply(tm, self.POINTS, n)
        assert got.shape == self.POINTS.shape
        assert np.array_equal(apply(tm, self.POINTS.reshape(2, 4, 2), n).reshape(-1, 2), got,
                              equal_nan=True)
        for x, y in zip(self.POINTS, got):
            assert np.array_equal(apply(tm, x, n), y, equal_nan=True)
            if np.isfinite(x).all():
                exact = _fraction_power(tm, [Fraction(v) for v in x], n)
                assert np.array_equal(y, [0.0 if float(v) == 1.0 else float(v) for v in exact])
            else:
                assert np.isnan(y).all()

    @pytest.mark.parametrize("matrix", MATRICES)
    def test_expansivity_gap_raises_at_the_reference_step(self, matrix):
        tm = ToralAutomorphism(matrix)
        rng = np.random.default_rng(sum(map(abs, np.ravel(matrix))))
        cases = 0
        for _ in range(4):
            x = rng.random(2)
            for L, beta, d in [(8, 0.01, 1e-7), (12, 0.01, 1e-3), (20, 0.3, 1e-9), (3, 0.5, 0.2)]:
                for v in (tm.e_s, tm.e_u):
                    y = wrap(x + d * v)
                    try:
                        want = reference_expansivity_gap(tm, x, y, L, beta)
                    except hyp.HypothesisViolated as exc:
                        with pytest.raises(hyp.HypothesisViolated) as got:
                            expansivity_gap(tm, x, y, L, beta)
                        assert got.value.step == exc.step and str(got.value) == str(exc)
                        cases += 1
                    else:
                        assert expansivity_gap(tm, x, y, L, beta) == want
        assert cases > 0

    @pytest.mark.parametrize("matrix", MATRICES)
    def test_periodic_shadow_matches_fraction_reference(self, matrix):
        tm = ToralAutomorphism(matrix)
        cycles = 0
        for modulus in (11, 29, 64, 81):
            seen = set()
            for start in [(1, 0), (3, 7), (5, 2), (10, 9)]:
                cyc, k = _noisy_lattice_cycle(tm, modulus, start, seed=modulus + start[0])
                if k[0] in seen:
                    continue
                seen.update(k)
                if len(cyc) < 2:
                    cyc = np.vstack([cyc, cyc])
                p = PseudoOrbit(tm, cyc)
                got, want = periodic_shadow(tm, p), reference_periodic_shadow(tm, p)
                assert np.array_equal(got.point, want.point)
                assert got.eps_achieved == want.eps_achieved
                assert got.cover_residual == want.cover_residual
                assert got.exact == want.exact
                cycles += 1
        assert cycles >= 8

    def test_lattice_orbit_past_int64_is_exact(self):
        # 3 * 2^60 wrapped the int64 products: step 1 read (0.6167, 0.96)
        q = 3 * 2**60
        got = hyp.orbit(cat_map(), [0.99, 0.97], 2, modulus=q)
        k = [int(v) for v in np.round(np.array([0.99, 0.97]) * q)]
        for row in got:
            assert row.tolist() == [v / q for v in k]
            k = [(2 * k[0] + k[1]) % q, (k[0] + k[1]) % q]
        assert np.allclose(got[1], [0.95, 0.96], atol=1e-15)

    def test_lattice_rows_stay_below_one(self):
        # k/q for q = 2^62 rounded up to 1.0: row 1 from (0.3, 0.7) was [0.3, 1.0]
        q = 2**62
        got = hyp.orbit(cat_map(), [0.3, 0.7], 5, modulus=q)
        assert got.min() >= 0.0 and got.max() < 1.0
        k0, k1 = (int(v) for v in np.round(np.array([0.3, 0.7]) * q))
        assert (k0 + k1) % q / q == 1.0                # rounded up: wrapped to 0.0
        assert got[1].tolist() == [(2 * k0 + k1) % q / q, 0.0]

    @pytest.mark.parametrize("modulus", [2**62 + 1, 2**63 - 1, 3**39])
    def test_lattice_ensemble_past_int64_is_exact(self, modulus):
        tm = cat_map()
        got = hyp.orbit_ensemble(tm, 4, 5, backward=3, modulus=modulus,
                                 rng=np.random.default_rng(8))
        k0 = np.random.default_rng(8).integers(0, modulus, size=(4, 2)).tolist()
        for k, row in zip(k0, got.orbits):
            assert row[3].tolist() == [v / modulus for v in k]
            orbit = [k]
            for _ in range(5):
                u, v = orbit[-1]
                orbit.append([(2 * u + v) % modulus, (u + v) % modulus])
            assert row[3:].tolist() == [[v / modulus for v in kk] for kk in orbit]
            u, v = k                                  # T^-1 (u, v) = (u - v, 2v - u)
            assert row[2].tolist() == [((u - v) % modulus) / modulus,
                                       ((2 * v - u) % modulus) / modulus]

    @pytest.mark.parametrize("modulus", [None, 7])
    def test_orbit_steps_must_be_nonnegative(self, modulus):
        # n_steps = -1 gave 0 rows for a double point and 1 row for a lattice point
        with pytest.raises(ValueError, match="steps must be nonnegative, got n_steps=-1"):
            hyp.orbit(cat_map(), [0.3, 0.7], -1, modulus=modulus)

    @pytest.mark.parametrize("x0", [(np.nan, 0.5), (0.25, np.inf)])
    def test_lattice_orbit_needs_a_finite_point(self, x0):
        # NaN raised "cannot convert float NaN to integer", inf an OverflowError
        with pytest.raises(ValueError, match=re.escape(f"finite point, got x0={list(x0)}")):
            hyp.orbit(cat_map(), x0, 3, modulus=7)

    @pytest.mark.parametrize("modulus", [0, -5, 2.5, 1.0, 2**63, "7"])
    def test_modulus_must_be_an_integer_in_range(self, modulus):
        # 0 gave NaN rows, -5 the orbit of another point and 2.5 was read as 2
        with pytest.raises(ValueError, match="modulus must be an integer in"):
            hyp.orbit(cat_map(), [0.3, 0.7], 3, modulus=modulus)
        with pytest.raises(ValueError, match="modulus must be an integer in"):
            hyp.orbit_ensemble(cat_map(), 4, 3, modulus=modulus, rng=np.random.default_rng(0))
