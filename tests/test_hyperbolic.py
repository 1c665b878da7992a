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
    torus_distance,
)

LAM_U = (3 + np.sqrt(5)) / 2


class TestAutomorphism:
    def test_default_eigen_data(self):
        tm = cat_map()
        assert abs(tm.lam_u - LAM_U) < 1e-12
        assert abs(tm.lam_s - 1 / LAM_U) < 1e-12
        # symmetric matrix: orthogonal eigenbasis
        assert abs(tm.e_s @ tm.e_u) < 1e-12

    def test_rejects_non_hyperbolic(self):
        with pytest.raises(ValueError):
            ToralAutomorphism([[0, 1], [-1, 0]])  # rotation, complex eigenvalues
        with pytest.raises(ValueError):
            ToralAutomorphism([[2, 1], [1, 2]])  # determinant 3

    def test_det_minus_one(self):
        tm = ToralAutomorphism([[1, 1], [1, 0]])
        assert tm.det == -1
        assert tm.lam_s < 0 < tm.lam_u
        assert abs(tm.lam_u * tm.lam_s + 1) < 1e-12


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
        assert torus_distance(x, y) < 1e-9

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
        assert torus_distance(got, [0.0, 0.0]) > 0.01

    def test_non_finite_point_gives_nan(self):
        assert np.isnan(apply(cat_map(), [np.nan, 0.5], 3)).all()

    def test_exact_orbit_modulus(self):
        tm = cat_map()
        pts = hyp.orbit(tm, [5 / 64, 3 / 64], 200, modulus=2**31)
        # exact rational orbit: re-apply one step and compare
        step = apply(tm, pts[100], 1)
        assert torus_distance(step, pts[101]) < 1e-12

    def test_orbit_matches_fraction_oracle(self):
        # float steps drift like lam_u^i * 1e-16, 0.33 off by step 40 from here
        tm = cat_map()
        pts = hyp.orbit(tm, [0.3, 0.7], 200)
        exact = _fraction_orbit(tm, [Fraction(0.3), Fraction(0.7)], 200)
        want = [[0.0 if float(v) == 1.0 else float(v) for v in x] for x in exact]
        assert np.array_equal(pts, want)


class TestBracket:
    def test_same_point(self):
        tm = cat_map()
        x = np.array([0.2, 0.9])
        w, exists = bracket(tm, x, x)
        assert exists and torus_distance(w, x) < 1e-12

    def test_point_on_unstable_leaf(self):
        # y on the unstable leaf of x: the leaves W^s(x) and W^u(y) cross at x
        tm = cat_map()
        x = np.array([0.4, 0.4])
        y = hyp.wrap(x + 0.01 * tm.e_u)
        w, exists = bracket(tm, x, y)
        assert exists and torus_distance(w, x) < 1e-12

    def test_point_on_stable_leaf(self):
        tm = cat_map()
        x = np.array([0.4, 0.4])
        y = hyp.wrap(x + 0.01 * tm.e_s)
        w, exists = bracket(tm, x, y)
        assert exists and torus_distance(w, y) < 1e-12

    def test_random_pair_orbit_convergence(self):
        tm = cat_map()
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.random(2)
            y = hyp.wrap(x + rng.uniform(-0.02, 0.02, 2))
            w, exists = bracket(tm, x, y, gamma=0.1)
            assert exists
            # forward along the stable leaf of x, backward to y
            assert torus_distance(apply(tm, w, 12), apply(tm, x, 12)) < 0.02 * abs(tm.lam_s) ** 10
            assert torus_distance(apply(tm, w, -12), apply(tm, y, -12)) < 0.02 / tm.lam_u ** 10

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
            y = hyp.wrap(x + rng.uniform(-0.02, 0.02, 2))
            y2 = hyp.wrap(y + rng.uniform(-1e-4, 1e-4, 2))
            w1, _ = bracket(tm, x, y)
            w2, _ = bracket(tm, x, y2)
            assert torus_distance(w1, w2) <= bound * torus_distance(y, y2) + 1e-12


class TestShadow:
    def test_true_orbit_zero_correction(self):
        tm = cat_map()
        pts = hyp.orbit(tm, [0.11, 0.23], 40)
        x0, eps = shadow(tm, PseudoOrbit(tm, pts))
        assert eps < 1e-12
        assert torus_distance(x0, pts[0]) < 1e-12

    def test_single_stable_jump(self):
        tm = cat_map()
        delta = 1e-4
        pts = hyp.orbit(tm, [0.3, 0.8], 30)
        pts[1:] = hyp.wrap(pts[1:] + delta * tm.e_s)  # one stable-axis jump at i=0
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
        dists = [float(torus_distance(apply(tm, x0, i), p.points[i])) for i in range(12)]
        assert max(dists) <= eps + 1e-8

    def test_linearity_in_errors(self):
        tm = cat_map()
        rng = np.random.default_rng(7)
        base = hyp.orbit(tm, rng.random(2), 50)
        noise = rng.uniform(-1, 1, base.shape) * 1e-4
        noise[0] = 0.0
        p1 = PseudoOrbit(tm, hyp.wrap(base + noise))
        p2 = PseudoOrbit(tm, hyp.wrap(base + 2 * noise))
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
            assert torus_distance(starts[i], x0) < 1e-12
            assert abs(eps[i] - e) < 1e-12


class TestNumpyKernels:
    """The numpy-only shadowing kernels against the scipy and % 1.0 forms they replaced."""

    def test_corrections_match_lfilter(self):
        from scipy.signal import lfilter

        for tm in (cat_map(), ToralAutomorphism([[1, 1], [1, 0]])):
            rng = np.random.default_rng(4)
            es, eu = tm.components(rng.uniform(-1e-4, 1e-4, (7, 500, 2)))
            a, b = hyp._corrections(tm, es, eu)
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
        assert np.array_equal(hyp.wrap(x), np.where(y >= 1.0, 0.0, y))
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
    es, eu = tm.components(p.jumps)
    a, b = hyp._corrections(tm, es, eu)
    s, u = a[0], b[0]       # ToralAutomorphism.recompose(s, u), inlined
    corrections = np.outer(np.asarray(s).ravel(), tm.e_s).reshape(np.shape(s) + (2,)) \
        + np.outer(np.asarray(u).ravel(), tm.e_u).reshape(np.shape(u) + (2,))
    x0 = hyp.wrap(p.points[0] + corrections[0])
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
        a, b = hyp._corrections(tm, es, eu)
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
            es, eu = tm.components(rng.uniform(-1e-4, 1e-4, (rows, n, 2)))
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
        es, eu = tm.components(np.zeros((3, 2000, 2)))
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
        es, eu = tm.components(jumps)
        calls = self._count_scans(monkeypatch)
        self._check(tm, es, eu)
        assert len(calls) > 2                         # the main pass is two calls
        assert all(c == hyp._SEGMENT for c in calls[2:])

    def test_random_jumps_need_no_rerun(self, monkeypatch):
        tm = cat_map()
        es, eu = tm.components(np.random.default_rng(5).uniform(-1e-4, 1e-4, (3, 5000, 2)))
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
        es, eu = tm.components(np.stack([p.jumps for p in orbits]))
        a, b = _reference_corrections(tm, es, eu)
        cx = a * tm.e_s[0] + b * tm.e_u[0]
        cy = a * tm.e_s[1] + b * tm.e_u[1]
        heads = np.stack([p.points[0] for p in orbits])
        assert _same_bits(starts, hyp.wrap(heads + np.stack([cx[:, 0], cy[:, 0]], axis=1)))
        assert _same_bits(eps, np.max(np.sqrt(cx * cx + cy * cy), axis=1))


def _per_orbit_loop(tm, n, delta, rng):
    """The one-orbit generator before lockstep stepping, verbatim."""
    pts = np.empty((n, 2))
    pts[0] = rng.random(2)
    mf = tm.matrix.astype(float)
    angles = rng.uniform(0, 2 * np.pi, n - 1)
    radii = delta * np.sqrt(rng.random(n - 1))
    jumps = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    for i in range(n - 1):
        pts[i + 1] = hyp.wrap(mf @ pts[i] + jumps[i])
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
        assert torus_distance(res.point, [0, 0]) < 1e-12
        assert res.cover_residual <= 1e-12

    def test_true_periodic_orbit_unchanged(self):
        tm = cat_map()
        # exact 5-periodic rational orbit of the cat map mod 11: [[2,1],[1,1]] on (k/11)
        pts = hyp.orbit(tm, [1 / 11, 0 / 11], 20, modulus=11)
        period = next(i for i in range(1, 21) if np.allclose(pts[i], pts[0]))
        p = PseudoOrbit(tm, pts[:period])
        res = periodic_shadow(tm, p)
        assert res.eps_achieved < 1e-12
        assert torus_distance(res.point, pts[0]) < 1e-12
        assert res.cover_residual <= 1e-12

    def test_noisy_periodic_orbit(self):
        tm = cat_map()
        rng = np.random.default_rng(13)
        pts = hyp.orbit(tm, [3 / 11, 7 / 11], 40, modulus=11)
        period = next(i for i in range(1, 40) if np.allclose(pts[i], pts[0]))
        cyc = hyp.wrap(pts[:period] + rng.uniform(-1, 1, (period, 2)) * 1e-4)
        res = periodic_shadow(tm, PseudoOrbit(tm, cyc))
        assert res.cover_residual <= 1e-12
        delta = max(PseudoOrbit(tm, np.vstack([cyc, cyc[0]])).delta, 0)
        assert res.eps_achieved <= tm.shadowing_q * delta
        # the point really is periodic under float iteration too
        x = res.point.copy()
        for _ in range(period):
            x = apply(tm, x, 1)
        assert torus_distance(x, res.point) < 1e-6

    @pytest.mark.parametrize("modulus,period", [(64, 48), (128, 96)])
    def test_long_dyadic_cycle_closes_exactly(self, modulus, period):
        tm = cat_map()
        cyc, k = _noisy_lattice_cycle(tm, modulus, (1, 0), seed=modulus)
        assert len(cyc) == period
        res = periodic_shadow(tm, PseudoOrbit(tm, cyc))
        assert res.exact == (Fraction(1, modulus), Fraction(0))
        assert res.cover_residual == 0.0
        assert res.eps_achieved <= tm.shadowing_q * _cyclic_delta(tm, cyc)
        noise = torus_distance(np.array(k, dtype=float) / modulus, cyc).max()
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
        cyc = hyp.wrap(pts[:period] + np.random.default_rng(seed).uniform(
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
        noise = torus_distance(np.array(k, dtype=float) / modulus, cyc).max()
        assert abs(res.eps_achieved - noise) <= 1e-15

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
    return hyp.wrap(pts + noise), [tuple(int(v) for v in ki) for ki in k]


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

    def test_stable_pair_within_contract(self):
        tm = cat_map()
        L, beta = 8, 0.01
        d0 = beta * np.exp(-L * np.log(tm.lam_u)) / tm.expansivity_D
        x = np.array([0.37, 0.59])
        y = hyp.wrap(x + d0 * tm.e_s)
        gap = expansivity_gap(tm, x, y, L, beta)
        assert gap <= tm.expansivity_D * beta * np.exp(-np.log(tm.lam_u) * L) + 1e-15

    def test_generic_pair_violates(self):
        tm = cat_map()
        x = np.array([0.1, 0.1])
        y = hyp.wrap(x + 0.01 * tm.e_u)
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
            x = hyp.wrap(apply(tm, x, gap) + rng.uniform(-1e-4, 1e-4, 2))
            times.append(times[-1] + gap)
            points.append(x)
        spec = Specification(tm, times, np.array(points), gap_lower_bound=3)
        # brute-force re-simulation of each gap
        for i in range(len(times) - 1):
            d = torus_distance(apply(tm, points[i], times[i + 1] - times[i]), points[i + 1])
            assert d <= spec.delta + 1e-15

    def test_gap_condition_enforced(self):
        tm = cat_map()
        with pytest.raises(ValueError):
            Specification(tm, [0, 1, 2], np.zeros((3, 2)), gap_lower_bound=2)

    @pytest.mark.parametrize("gap", [60, 200])
    def test_long_gaps_shadow_within_q_delta(self, gap):
        # float-stepped gaps drifted by lam_u^i 1e-16 and read as jumps of ~0.5
        tm = cat_map()
        rng = np.random.default_rng(gap)
        x = rng.random(2)
        times, points = [0], [x]
        for _ in range(4):
            x = hyp.wrap(apply(tm, x, gap) + rng.uniform(-5e-5, 5e-5, 2))
            times.append(times[-1] + gap)
            points.append(x)
        spec = Specification(tm, times, np.array(points))
        assert spec.delta <= 5e-5 * np.sqrt(2)
        p = spec.fill()
        assert len(p) == 4 * gap + 1 and p.delta <= spec.delta + 1e-15
        x0, eps = shadow_specification(tm, spec)
        assert eps <= tm.shadowing_q * spec.delta
        assert torus_distance(x0, points[0]) <= eps

    def test_shadowing_a_specification(self):
        tm = cat_map()
        rng = np.random.default_rng(33)
        x = rng.random(2)
        times, points = [0], [x]
        for gap in (4, 4, 6, 5):
            x = hyp.wrap(apply(tm, x, gap) + rng.uniform(-5e-5, 5e-5, 2))
            times.append(times[-1] + gap)
            points.append(x)
        spec = Specification(tm, times, np.array(points))
        x0, eps = shadow_specification(tm, spec)
        assert eps <= tm.shadowing_q * spec.delta + 1e-12
        for i, t in enumerate(times):
            assert torus_distance(apply(tm, x0, t), points[i]) <= eps + 1e-8


def test_one_torus_metric_for_both_names():
    from torusdyn.entropy import torus_metric
    from torusdyn.torus import minimal_lift

    assert torus_distance is torus_metric
    rng = np.random.default_rng(5)
    a, b = rng.random((2, 500, 2))
    # on points in [0, 1) the folded gaps, bit for bit (the entropy golden files pin them)
    d = np.abs(a - b)
    d = np.minimum(d, 1.0 - d)
    assert np.array_equal(torus_distance(a, b), np.sqrt((d * d).sum(axis=-1)))
    # on cover points the norm of the minimal lift
    shift = rng.integers(-3, 4, (500, 2))
    expected = np.linalg.norm(minimal_lift(a - b), axis=-1)
    assert np.abs(torus_distance(a + shift, b) - expected).max() <= 1e-12


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


def reference_ensemble_orbits(tm, n_orbits, n_steps, backward=0, grid=False, rng=None,
                              modulus=2**31):
    """The orbit array of `orbit_ensemble` before the lattice stepper was
    shared, verbatim."""
    q = int(modulus)
    if grid:
        side = int(round(np.sqrt(n_orbits)))
        ticks = (np.arange(side) * (q // side)) % q
        k0 = np.stack(np.meshgrid(ticks, ticks, indexing="ij"), axis=-1).reshape(-1, 2)
    else:
        k0 = rng.integers(0, q, size=(n_orbits, 2))
    k0 = k0.astype(np.int64)
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
            got = hyp.orbit_ensemble(tm, 16, n_steps, backward=backward, grid=True,
                                     modulus=modulus)
            ref = reference_ensemble_orbits(tm, 16, n_steps, backward, grid=True,
                                            modulus=modulus)
            assert np.array_equal(got.orbits, ref)
