import numpy as np
import pytest

from torusdyn import suspension as sus
from torusdyn.entropy import FinitePartition, WeightedMeasure, refine_entropy
from torusdyn.sft import GOLDEN_MEAN, TransitionMatrix, closed_walks, full_shift
from torusdyn.suspension import (
    CeilingFunction,
    MarkovMeasure,
    OrbitMeasure,
    SuspensionPoint,
    SymbolWindow,
    lift_measure,
    orbit_weight,
    parry_measure,
    suspend_flow,
)

from helpers import roof_crossings

PHI = (1 + np.sqrt(5)) / 2


def golden_window(radius=8):
    # ...01001010|0|1001010... centered on a 0, golden-mean legal
    cyc = (0, 1, 0, 0, 1)
    return SymbolWindow.periodic(cyc, radius)


class TestSuspendFlow:
    def test_time_zero_identity(self):
        pt = SuspensionPoint(golden_window(), 0.3)
        out = suspend_flow(pt, 0.0, CeilingFunction.constant(1.0))
        assert out.base == pt.base and out.height == pt.height

    def test_unit_ceiling_single_shift(self):
        tau = CeilingFunction.constant(1.0)
        pt = SuspensionPoint(golden_window(), 0.25)
        out = suspend_flow(pt, 1.0, tau)
        assert out.base == pt.base.shift(1)
        assert abs(out.height - 0.25) < 1e-15

    def test_hand_iterated_bonus_ceiling(self):
        # tau = 1 + 0.5*[w_0 = 1]; start on a window with w_0=0, w_1=1, height 0
        tau = CeilingFunction.symbol_bonus(1.0, 0.5, symbol=1)
        w = golden_window()
        assert w[0] == 0 and w[1] == 1
        out = suspend_flow(SuspensionPoint(w, 0.0), 2.3, tau)
        # consume tau(w)=1 -> (shift w, 1.3); tau=1.5 > 1.3 so stop
        assert out.base == w.shift(1)
        assert abs(out.height - 1.3) < 1e-12

    def test_backward_flow(self):
        tau = CeilingFunction.symbol_bonus(1.0, 0.5, symbol=1)
        pt = SuspensionPoint(golden_window(), 0.2)
        back = suspend_flow(pt, -1.7, tau)
        again = suspend_flow(back, 1.7, tau)
        assert again.base == pt.base
        assert abs(again.height - pt.height) < 1e-12

    def test_flow_property(self):
        rng = np.random.default_rng(8)
        tau = CeilingFunction.symbol_bonus(1.0, 0.5, symbol=1)
        cycles = closed_walks(GOLDEN_MEAN, 7)
        for _ in range(10_000):
            cyc = cycles[rng.integers(len(cycles))]
            w = SymbolWindow.periodic(cyc, 64)
            pt = SuspensionPoint(w, rng.uniform(0, 1.0))
            t, s = rng.uniform(-3, 3, 2)
            one = suspend_flow(pt, t + s, tau)
            two = suspend_flow(suspend_flow(pt, t, tau), s, tau)
            assert one.base == two.base
            assert abs(one.height - two.height) <= 1e-12

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_is_refused(self, t):
        # NaN gave a point at height NaN
        with pytest.raises(ValueError, match="flow time t must be finite"):
            suspend_flow(SuspensionPoint(golden_window(), 0.3), t, CeilingFunction.constant(1.0))

    def test_window_exhausted(self):
        tau = CeilingFunction.constant(1.0)
        w = SymbolWindow((0, 0, 0), 1)
        with pytest.raises(sus.WindowExhausted):
            suspend_flow(SuspensionPoint(w, 0.0), 5.0, tau)


class TestMarkovMeasure:
    def test_parry_entropy_rate_is_log_phi(self):
        nu = parry_measure(GOLDEN_MEAN)
        assert abs(nu.entropy_rate() - np.log(PHI)) < 1e-12

    def test_stationarity_enforced(self):
        with pytest.raises(sus.NonInvariant):
            MarkovMeasure([[0.5, 0.5], [0.5, 0.5]], [0.9, 0.1])

    def test_support_respects_matrix(self):
        with pytest.raises(sus.NonInvariant):
            MarkovMeasure([[0.5, 0.5], [0.5, 0.5]], [0.5, 0.5], GOLDEN_MEAN)

    def test_cylinder_weights_sum_to_one(self):
        nu = parry_measure(GOLDEN_MEAN)
        words = GOLDEN_MEAN.legal_words(5)
        assert abs(sum(nu.cylinder(w) for w in words) - 1.0) < 1e-12

    def test_sampling_frequencies(self):
        nu = parry_measure(GOLDEN_MEAN)
        rng = np.random.default_rng(4)
        path = nu.sample(rng, 200000)
        assert abs(np.mean(path == 1) - nu.p[1]) < 5e-3
        assert not any(path[i] == 1 and path[i + 1] == 1 for i in range(len(path) - 1))


    @pytest.mark.parametrize("P,p", [
        ([[np.nan, 0.5], [0.5, 0.5]], [0.5, 0.5]),
        ([[0.5, 0.5], [0.5, 0.5]], [np.nan, 0.5]),
        ([[0.5, 0.5], [0.5, 0.5]], [np.inf, 0.5]),
    ])
    def test_non_finite_rejected(self, P, p):
        with pytest.raises(sus.NonInvariant, match="finite"):
            MarkovMeasure(P, p)

    def test_parry_refuses_reducible(self):
        A = TransitionMatrix([[1, 1, 0], [0, 1, 0], [0, 1, 1]])
        with pytest.raises(ValueError, match="3 strongly connected components"):
            parry_measure(A)

    @pytest.mark.parametrize("seed", [3, 88])
    @pytest.mark.parametrize("A", [GOLDEN_MEAN, full_shift(5)], ids=["golden", "full5"])
    def test_sample_matches_searchsorted_loop(self, A, seed):
        nu = parry_measure(A)
        length = 20000
        # the per-symbol loop the sampler replaced, kept as the reference
        rng = np.random.default_rng(seed)
        ref = np.empty(length, dtype=int)
        ref[0] = rng.choice(nu.m, p=nu.p)
        cums = np.cumsum(nu.P, axis=1)
        draws = rng.random(length - 1)
        for i in range(1, length):
            ref[i] = np.searchsorted(cums[ref[i - 1]], draws[i - 1])
        path = nu.sample(np.random.default_rng(seed), length)
        assert path.dtype == ref.dtype and np.array_equal(path, ref)


class TestLiftMeasure:
    def test_normalization(self):
        nu = parry_measure(GOLDEN_MEAN)
        tau = CeilingFunction.symbol_bonus(1.0, 0.5, symbol=1)
        integ = lift_measure(nu, tau)
        assert abs(integ.integrate(lambda w, s: 1.0) - 1.0) < 1e-12

    def test_constant_ceiling_base_function(self):
        nu = parry_measure(GOLDEN_MEAN)
        tau = CeilingFunction.constant(2.0)
        integ = lift_measure(nu, tau)
        val = integ.integrate(lambda w, s: float(w[0] == 1), radius=0)
        assert abs(val - nu.p[1]) < 1e-12

    def test_height_integrand_closed_form_and_monte_carlo(self):
        nu = parry_measure(GOLDEN_MEAN)
        tau = CeilingFunction.symbol_bonus(1.0, 0.5, symbol=1)
        integ = lift_measure(nu, tau)
        val = integ.integrate(lambda w, s: s)
        p1 = nu.p[1]
        exact = (1.0 * (1 - p1) + 2.25 * p1) / (2 * (1.0 + 0.5 * p1))
        assert abs(val - exact) < 1e-12
        # Monte-Carlo oracle over a sampled stationary path
        rng = np.random.default_rng(17)
        path = nu.sample(rng, 2_000_000)
        taus = 1.0 + 0.5 * (path == 1)
        mc = np.mean(taus**2 / 2) / np.mean(taus)
        assert abs(val - mc) < 1e-3

    def test_flow_invariance_of_lift(self):
        nu = parry_measure(GOLDEN_MEAN)
        tau = CeilingFunction.symbol_bonus(1.0, 0.5, symbol=1)
        integ = lift_measure(nu, tau)

        def f(w, s):
            return np.sin(s) + 0.7 * (w[0] == 0)

        base = integ.integrate(f, radius=4)
        for t in (0.35, 1.2, -0.8):
            shifted = integ.integrate(
                lambda w, s: f(*_flowed(w, s, t, tau)),
                radius=6, breakpoints=lambda w: roof_crossings(w, t, tau))
            assert abs(shifted - base) < 1e-6

    def test_non_invariant_base_rejected(self):
        class Bogus:
            pass

        with pytest.raises(sus.NonInvariant):
            lift_measure(Bogus(), CeilingFunction.constant(1.0))


def _flowed(w, s, t, tau):
    out = suspend_flow(SuspensionPoint(w, s), t, tau)
    return out.base, out.height


class TestOrbitWeight:
    def test_zero_cost(self):
        tau = CeilingFunction.constant(1.0)
        assert orbit_weight((0,), tau, lambda w, s: 0.0) == 0.0

    def test_unit_cost_total_period(self):
        tau = CeilingFunction.symbol_bonus(1.0, 0.5, symbol=1)
        cyc = (0, 1, 0, 0, 1)
        total = orbit_weight(cyc, tau, lambda w, s: 1.0)
        assert abs(total - (3 * 1.0 + 2 * 1.5)) < 1e-12

    def test_fixed_point_indicator(self):
        tau = CeilingFunction.constant(1.0)
        val = orbit_weight((0,), tau, lambda w, s: float(w[0] == 0))
        assert abs(val - 1.0) < 1e-12


class TestOrbitMeasure:
    def test_expectations_average_cycle(self):
        mu = OrbitMeasure([(0, 1), (0,)], [0.5, 0.5])
        val = mu.expect_window(lambda w: float(w[0] == 1), radius=2)
        assert abs(val - 0.25) < 1e-12

    def test_bad_weights(self):
        with pytest.raises(sus.NonInvariant):
            OrbitMeasure([(0,)], [0.5])

    @pytest.mark.parametrize("cycles,weights,needle", [
        # zip dropped the unweighted cycle
        ([(0,), (0, 1)], [1.0], "one weight per cycle"),
        ([(0,)], [0.5, 0.5], "one weight per cycle"),
        # NaN passed both the sum and the sign test, and every expectation was NaN
        ([(0,), (1,)], [np.nan, 1.0], "finite and nonnegative"),
        ([(0,), (1,)], [np.inf, -np.inf], "finite and nonnegative"),
        ([(0,), (1,)], [-0.5, 1.5], "finite and nonnegative"),
        ([(0,), (1,)], [0.5, 0.6], "sum to 1.1"),
        ([], None, "at least one cycle"),          # was a ZeroDivisionError
        ([()], [1.0], "no empty cycle"),            # was a measure with no windows
        ([(0,), ()], None, "no empty cycle"),
    ])
    def test_malformed_weights_are_refused(self, cycles, weights, needle):
        with pytest.raises(ValueError, match=needle):
            OrbitMeasure(cycles, weights)


def test_abramov_consistency_unit_ceiling():
    # with a constant ceiling c the time-c return map of the suspension is the
    # shift itself, so the refinement entropy of labels must match exactly
    tau = CeilingFunction.constant(1.0)
    walks = closed_walks(GOLDEN_MEAN, 9)
    atoms = []
    for w in walks:
        for phase in range(9):
            atoms.append(w[phase:] + w[:phase])
    labels = np.array([a[0] for a in atoms])
    mu = WeightedMeasure.uniform(np.zeros((len(atoms), 1)))
    part = FinitePartition(labels, 2)

    idx = {a: i for i, a in enumerate(atoms)}
    f_shift = np.array([idx[a[1:] + a[:1]] for a in atoms])

    # time-c return map realized through the suspension flow
    f_return = np.empty(len(atoms), dtype=int)
    for i, a in enumerate(atoms):
        w = SymbolWindow.periodic(a, 32)
        out = suspend_flow(SuspensionPoint(w, 0.0), 1.0, tau)
        assert abs(out.height) < 1e-12
        new = tuple(out.base[k] for k in range(9))
        f_return[i] = idx[new]

    assert np.array_equal(f_shift, f_return)
    for n in (1, 3, 5):
        a = refine_entropy(mu, part, f_shift, n)
        b = refine_entropy(mu, part, f_return, n)
        assert a == b


def reference_orbit_weight(cycle, tau, cost, n_quad=32):
    """`orbit_weight` before the panel sum was shared with
    `LiftedMeasure.integrate`, verbatim."""
    cycle = tuple(cycle)
    radius = max(tau.radius, 1) + len(cycle)
    nodes, weights = np.polynomial.legendre.leggauss(n_quad)
    total = 0.0
    for phase in range(len(cycle)):
        rot = cycle[phase:] + cycle[:phase]
        w = SymbolWindow.periodic(rot, radius)
        top = tau(w)
        mid, half = top / 2.0, top / 2.0
        total += half * sum(wq * cost(w, mid + half * xq) for xq, wq in zip(nodes, weights))
    return float(total)


def reference_integrate(integ, f, radius=None, n_quad=32, breakpoints=None):
    """`LiftedMeasure.integrate` before the panel sum was shared, verbatim."""
    if radius is None:
        radius = integ.tau.radius
    radius = max(radius, integ.tau.radius)
    nodes, weights = np.polynomial.legendre.leggauss(n_quad)

    def fiber(w):
        top = integ.tau(w)
        cuts = [0.0, top]
        if breakpoints is not None:
            cuts = sorted(set(cuts) | {float(b) for b in breakpoints(w) if 0.0 < b < top})
        total = 0.0
        for a, b in zip(cuts, cuts[1:]):
            mid, half = (a + b) / 2.0, (b - a) / 2.0
            total += half * sum(wq * f(w, mid + half * xq) for xq, wq in zip(nodes, weights))
        return total

    return integ.nu.expect_window(fiber, radius) / integ.total_time


class TestPanelSumFold:
    """One Gauss-Legendre panel sum serves both integrators, bit for bit."""

    TAUS = [CeilingFunction.constant(1.0), CeilingFunction.constant(0.3),
            CeilingFunction.symbol_bonus(1.0, 0.5, symbol=1),
            CeilingFunction.symbol_bonus(0.7, -0.2, symbol=0)]

    @staticmethod
    def cost(w, s):
        return np.sin(3.0 * s) + 0.7 * (w[0] == 0) - 0.2 * s * s * (w[1] == 1)

    @pytest.mark.parametrize("tau", TAUS)
    @pytest.mark.parametrize("cycle", [(0,), (1, 0), (0, 1, 0, 0, 1), (2, 0, 1, 1)])
    @pytest.mark.parametrize("n_quad", [1, 5, 32])
    def test_orbit_weight(self, monkeypatch, tau, cycle, n_quad):
        # the package's rule has 32 nodes; the others are put in its place
        if n_quad != 32:
            rule = np.polynomial.legendre.leggauss(n_quad)
            monkeypatch.setattr(sus, "_gauss_legendre", lambda: rule)
        assert orbit_weight(cycle, tau, self.cost) == \
            reference_orbit_weight(cycle, tau, self.cost, n_quad)

    @pytest.mark.parametrize("tau", TAUS[2:])
    @pytest.mark.parametrize("t", [0.35, 1.2, -0.8])
    def test_integrate_with_breakpoints(self, monkeypatch, tau, t):
        integ = lift_measure(parry_measure(GOLDEN_MEAN), tau)

        def f(w, s):
            out = suspend_flow(SuspensionPoint(w, s), t, tau)
            return self.cost(out.base, out.height)

        def kinks(w):
            return roof_crossings(w, t, tau)

        for n_quad in (32, 3):
            if n_quad != 32:
                rule = np.polynomial.legendre.leggauss(n_quad)
                monkeypatch.setattr(sus, "_gauss_legendre", lambda: rule)
            assert integ.integrate(f, 4, kinks) == \
                reference_integrate(integ, f, 4, n_quad, kinks)
            assert integ.integrate(f, 4) == reference_integrate(integ, f, 4, n_quad)


class TestCeilingBounds:
    @pytest.mark.parametrize("base,bonus,bound", [
        (1e308, 1e308, "tau_max"),   # tau_max = base + bonus was inf, and so was the total time
        (1.0, np.nan, "tau_min"),    # min(1.0, nan) gave the bounds [1.0, 1.0]
    ])
    def test_bonus_bounds_are_checked(self, base, bonus, bound):
        with pytest.raises(ValueError, match=f"'{bound}'"):
            CeilingFunction.symbol_bonus(base, bonus)

    @pytest.mark.parametrize("tau_min,tau_max,bound", [
        (1.0, np.inf, "tau_max"), (1.0, np.nan, "tau_max"), (2.0, 1.0, "tau_max"),
        (np.inf, np.inf, "tau_max"), (np.nan, 1.0, "tau_min"), (0.0, 1.0, "tau_min"),
    ])
    def test_bad_bounds_are_named(self, tau_min, tau_max, bound):
        with pytest.raises(ValueError, match=f"'{bound}'"):
            CeilingFunction(lambda w: 1.0, 0, tau_min, tau_max)


def reference_markov_windows(nu, radius):
    """`MarkovMeasure.windows` as its own breadth-first word extension, verbatim."""
    words = [(s,) for s in range(nu.m) if nu.p[s] > 0]
    for _ in range(2 * radius):
        words = [w + (t,) for w in words for t in np.flatnonzero(nu.P[w[-1]] > 0)]
    return [(SymbolWindow(w, radius), nu.cylinder(w)) for w in words]


class TestMarkovWindows:
    """The windows come from `TransitionMatrix.legal_words`, in the same order
    and with the same weights as the breadth-first extension."""

    @staticmethod
    def measures():
        rng = np.random.default_rng(36)
        # a transient symbol of zero stationary mass starts no window
        yield MarkovMeasure([[1.0, 0.0], [0.5, 0.5]], [1.0, 0.0])
        found = 0
        while found < 40:
            m = int(rng.integers(1, 6))
            try:
                nu = parry_measure(TransitionMatrix(rng.random((m, m)) < 0.5))
            except ValueError:
                continue
            found += 1
            yield nu

    @pytest.mark.parametrize("radius", [0, 1, 2])
    def test_same_windows_as_breadth_first(self, radius):
        for nu in self.measures():
            got, want = nu.windows(radius), reference_markov_windows(nu, radius)
            assert [w for w, _ in got] == [w for w, _ in want]
            assert [wt for _, wt in got] == [wt for _, wt in want]


@pytest.mark.parametrize("bonus,bits", [
    (0.2, "0x1.101790b1c3558p-1"),
    (0.35, "0x1.1e7bcddafa73ap-1"),
    (0.5, "0x1.2e9fcaee0c749p-1"),
    (0.65, "0x1.4054528cc8f81p-1"),
    (0.8, "0x1.537098a018532p-1"),
])
def test_golden_lift_height_bits(bonus, bits):
    # the benchmark's lifted-height check reads this value's one-ulp rounding
    # error, so a reordered lift sum would move it
    tau = CeilingFunction.symbol_bonus(1.0, bonus, 1)
    value = lift_measure(parry_measure(GOLDEN_MEAN), tau).integrate(lambda w, s: s, radius=1)
    assert value.hex() == bits
