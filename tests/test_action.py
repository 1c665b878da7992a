import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from torusdyn.action import (
    potential_table,
    ActionValue,
    BelowCritical,
    BrokenPath,
    NegativeLoopSearch,
    NoConvergence,
    action,
    action_potential,
    critical_value,
    staticity_defect,
    tonelli_minimizer,
)
from torusdyn.fields import FourierSeries, OneForm, SumField, grid_maximum
from torusdyn.lagrangian import MechanicalLagrangian
from torusdyn.perturbation import CanalPotential, perturb
from torusdyn.torus import grid as torus_grid

from helpers import el_residual

# the package namespace binds `action` to the function, not the module
action_mod = sys.modules[NegativeLoopSearch.__module__]


def pendulum():
    return MechanicalLagrangian(1, FourierSeries(1, cos={1: 1.0}))


def double_well():
    # saddles at 0 (U=1.3) and 1/2 (U=0.7), wells near 0.26 and 0.74
    return MechanicalLagrangian(1, FourierSeries(1, cos={1: 0.3, 2: 1.0}))


def free(dim=1):
    return MechanicalLagrangian(dim)


def magnetic_t1():
    # pendulum with the constant one-form 2 dx: c(L) = 2.0638 lies above max U
    return MechanicalLagrangian(1, FourierSeries(1, cos={1: 1.0}),
                                OneForm([FourierSeries(1, cos={0: 2.0})]))


def magnetic_t2():
    # U = cos 2pi x1 with eta = (0, 2): c(L) = 3
    return MechanicalLagrangian(2, FourierSeries(2, cos={(1, 0): 1.0}),
                                OneForm([FourierSeries(2), FourierSeries(2, cos={(0, 0): 2.0})]))


def magnetic_t1_exact_c(eta0=2.0, amp=1.0):
    # the energy-k loop winding once against eta has (L + k)-action
    # int_0^1 sqrt(2(k - amp cos 2 pi x)) dx - eta0, which vanishes at c
    def gap(k):
        return quad(lambda x: np.sqrt(2 * (k - amp * np.cos(2 * np.pi * x))), 0, 1)[0] - eta0
    return brentq(gap, amp, amp + 0.5 * eta0**2 + 1.0, xtol=1e-12)


def eta_half_t2():
    # U = 0 with the lattice-aligned constant one-form (0.5, 0.5): c = |eta|^2/2
    return MechanicalLagrangian(2, FourierSeries(2), OneForm([FourierSeries(2, cos={(0, 0): 0.5}),
                                                              FourierSeries(2, cos={(0, 0): 0.5})]))


ORACLES = [(magnetic_t1, magnetic_t1_exact_c, 2e-3), (eta_half_t2, lambda: 0.25, 1e-6),
           (magnetic_t2, lambda: 3.0, 1e-6)]


class TestBrokenPath:
    def test_cover_round_trip(self):
        X = np.array([[0.5], [1.3], [0.9], [-0.2]])
        p = BrokenPath.from_cover(X, 2.0)
        assert np.abs(p.cover_knots() - X).max() < 1e-12

    def test_adversarial_wrap_values(self):
        X = np.array([[0.5], [-4.25e-23], [0.3], [1.0 - 1e-17], [2.0]])
        p = BrokenPath.from_cover(X, 1.0)
        assert np.abs(p.cover_knots() - X).max() < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            BrokenPath(np.array([[0.1]]), np.zeros((0, 1), dtype=int), 1.0)
        with pytest.raises(ValueError):
            BrokenPath(np.array([[0.1], [0.2]]), np.zeros((1, 1), dtype=int), -1.0)

    @pytest.mark.parametrize("T", [np.nan, np.inf])
    def test_non_finite_duration_rejected(self, T):
        with pytest.raises(ValueError):
            BrokenPath(np.array([[0.1], [0.2]]), np.zeros((1, 1), dtype=int), T)


class TestAction:
    def test_constant_path(self):
        L = pendulum()
        p = BrokenPath.constant([0.2], 3.0)
        expected = -float(L.potential(np.array([0.2]))) * 3.0
        assert abs(action(L, p, 0.0) - expected) < 1e-12

    def test_free_straight_segment(self):
        p = BrokenPath(np.array([[0.0], [0.5]]), np.array([[1]]), 2.0)
        assert abs(action(free(), p, 0.0) - 1.5**2 / 4.0) < 1e-14

    def test_k_contributes_linearly(self):
        L = pendulum()
        p = BrokenPath(np.array([[0.1], [0.4]]), np.array([[0]]), 1.5)
        a0, a1 = action(L, p, 0.0), action(L, p, 2.0)
        assert abs(a1 - a0 - 2.0 * 1.5) < 1e-12

    def test_separatrix_arc_closed_form(self):
        # on the separatrix v(x) = 2 sin(pi x); x(t) via tan(pi x / 2) = tan(pi a/2) e^{2 pi t}
        L, k = pendulum(), 0.7
        a, b = 0.25, 0.75
        t_arc = (np.log(np.tan(np.pi * b / 2)) - np.log(np.tan(np.pi * a / 2))) / (2 * np.pi)
        n = 4000
        t = np.linspace(0.0, t_arc, n)
        xs = (2 / np.pi) * np.arctan(np.tan(np.pi * a / 2) * np.exp(2 * np.pi * t))
        p = BrokenPath.from_cover(xs[:, None], t_arc)
        closed_form = (2 / np.pi) * (np.cos(np.pi * a) - np.cos(np.pi * b)) - t_arc + k * t_arc
        assert abs(action(L, p, k) - closed_form) < 1e-6


class TestTonelliMinimizer:
    def test_free_geodesic_shortest_class(self):
        p = tonelli_minimizer(free(), [0.9], [0.1], T=1.0)
        # minimal lift displacement +0.2, not -0.8
        assert abs(action(free(), p, 0.0) - 0.2**2 / 2.0) < 1e-10
        assert el_residual(free(), p) <= 1e-6

    def test_pendulum_constant_at_maximum(self):
        L = pendulum()
        p = tonelli_minimizer(L, [0.0], [0.0], T=3.0)
        assert abs(action(L, p, 0.0) - (-3.0)) < 1e-9

    @staticmethod
    def _three_knot_oracle(L, x_a, x_b, T):
        best = np.inf
        for m in np.linspace(0, 1, 201):
            for w0 in (-1, 0, 1):
                for w1 in (-1, 0, 1):
                    p3 = BrokenPath(np.array([[x_a], [m], [x_b]]), np.array([[w0], [w1]]), T)
                    best = min(best, action(L, p3, 0.0))
        return best

    def test_double_well_route_and_grid_oracle(self):
        # kinetic-dominated time scale: the route crosses the lower saddle at
        # 1/2 rather than climbing over the 1.3 maximum at 0
        L = double_well()
        x_a, x_b, T = 0.262, 0.738, 0.1
        p = tonelli_minimizer(L, [x_a], [x_b], T)
        X = p.cover_knots().ravel()
        assert X.min() > 0.1 and X.max() < 0.9
        assert np.any(np.abs(X - 0.5) < 0.05)
        assert action(L, p, 0.0) <= self._three_knot_oracle(L, x_a, x_b, T) + 1e-9

    def test_grid_oracle_longer_time(self):
        L = double_well()
        x_a, x_b, T = 0.262, 0.738, 1.0
        p = tonelli_minimizer(L, [x_a], [x_b], T)
        assert action(L, p, 0.0) <= self._three_knot_oracle(L, x_a, x_b, T) + 1e-9

    def test_long_time_parks_at_maximum(self):
        L = double_well()
        p = tonelli_minimizer(L, [0.262], [0.738], T=8.0)
        val = action(L, p, 0.0)
        assert val < -9.0  # sits near max U = 1.3 for most of the time
        assert el_residual(L, p) <= 1e-6

    def test_no_convergence_reports_iterate(self):
        L = double_well()
        with pytest.raises(NoConvergence) as exc:
            tonelli_minimizer(L, [0.262], [0.738], T=4.0, maxiter=2)
        assert exc.value.path is not None
        assert exc.value.residual > action_mod._RESIDUAL_TARGET

    @pytest.mark.parametrize("x,y,T", [(np.nan, 0.3, 1.0), (0.1, np.inf, 1.0), (0.1, -np.inf, 1.0),
                                       (0.1, 0.3, np.nan), (0.1, 0.3, np.inf), (0.1, 0.3, 0.0)])
    def test_bad_input_raises_value_error(self, x, y, T):
        with pytest.raises(ValueError):
            tonelli_minimizer(pendulum(), [x], [y], T)

    @pytest.mark.parametrize("make,x,y", [(magnetic_t2, [0.1], [0.2]),
                                          (pendulum, [0.1, 0.2], [0.3]),
                                          (pendulum, [0.1], [0.3, 0.4])])
    def test_wrong_coordinate_count_raises_value_error(self, make, x, y):
        # on T^2 one coordinate used to end in NoConvergence, on T^1 two in a matmul error
        L = make()
        with pytest.raises(ValueError, match=f"L.dim = {L.dim} coordinates, got {len(x)} and {len(y)}"):
            tonelli_minimizer(L, x, y, 1.0)
        with pytest.raises(ValueError, match=f"L.dim = {L.dim} coordinates, got {len(x)} and {len(y)}"):
            action_potential(L, 5.0, x, y)

    def test_nan_residual_raises_no_convergence(self, monkeypatch):
        solve = action_mod._minimize_knots

        def nan_residual(*args, **kwargs):
            path, value, _ = solve(*args, **kwargs)
            return path, value, np.nan

        monkeypatch.setattr(action_mod, "_minimize_knots", nan_residual)
        with pytest.raises(NoConvergence):
            tonelli_minimizer(pendulum(), [0.1], [0.3], 1.0)

    def test_el_equation_consistency(self):
        # interior knots of the minimizer satisfy x'' = -grad U up to the
        # O(dt^2) discretization of the second difference
        L = pendulum()
        T = 1.2
        p = tonelli_minimizer(L, [0.3], [0.6], T, n_knots=97)
        X = p.cover_knots()
        dt = T / (len(X) - 1)
        accel = (X[2:] - 2 * X[1:-1] + X[:-2]) / dt**2
        force = -L.potential.grad(X[1:-1])
        # both sides carry their own O(dt^2) discretization of the same curve
        assert np.abs(accel - force).max() < 130 * dt**2


class TestActionPotential:
    def test_large_k_constant_loop_bound(self):
        L = pendulum()
        k = 5.0
        x = [0.3]
        av = action_potential(L, k, x, x)
        cap = (k - float(L.potential(np.array(x)))) * 0.05
        assert not av.is_minus_infinity
        assert -1e-9 <= av.value <= cap + 1e-9

    def test_pendulum_critical_fixed_point(self):
        av = action_potential(pendulum(), 1.0, [0.0], [0.0])
        assert abs(av.value) <= 1e-3

    def test_subcritical_negative_loop_certificate(self):
        L = pendulum()
        av = action_potential(L, 0.5, [0.0], [0.5])
        assert av.is_minus_infinity
        assert action(L, av.certificate, 0.5) < 0

    def test_pendulum_maupertuis_value(self):
        # Phi_1(0, 1/2) = int_0^{1/2} 2 sin(pi u) du = 2/pi
        av = action_potential(pendulum(), 1.0, [0.0], [0.5])
        assert av.value >= 2 / np.pi - 1e-6
        assert abs(av.value - 2 / np.pi) <= 2e-2

    def test_monotone_in_k(self):
        L = pendulum()
        search = NegativeLoopSearch(L)
        vals = [action_potential(L, k, [0.2], [0.6], search=search).value
                for k in (1.0, 1.5, 2.5)]
        assert vals[0] <= vals[1] + 5e-3 <= vals[2] + 1e-2

    def test_triangle_inequality_sampled(self):
        L = pendulum()
        search = NegativeLoopSearch(L)
        pts = [np.array([v]) for v in (0.0, 0.33, 0.71)]
        k = 1.05
        phi = {}
        for i, x in enumerate(pts):
            for j, y in enumerate(pts):
                if i != j:
                    phi[i, j] = action_potential(L, k, x, y, search=search).value
        for i in range(3):
            for j in range(3):
                for m in range(3):
                    if len({i, j, m}) == 3:
                        assert phi[i, m] <= phi[i, j] + phi[j, m] + 1e-2


class TestCriticalValue:
    def test_pendulum(self):
        assert abs(critical_value(pendulum()) - 1.0) <= 1e-2

    def test_free(self):
        assert abs(critical_value(free())) <= 1e-2

    def test_two_harmonic(self):
        L = MechanicalLagrangian(1, FourierSeries(1, cos={1: 1.0, 2: 0.5}))
        u_max, _ = grid_maximum(L.potential, 1)
        assert abs(critical_value(L) - u_max) <= 1e-2

    def test_two_torus_potential(self):
        U = FourierSeries(2, cos={(1, 0): 0.3, (0, 1): 0.2, (1, 1): 0.1})
        L = MechanicalLagrangian(2, U)
        u_max, _ = grid_maximum(U, 2)
        assert abs(critical_value(L) - u_max) <= 1e-2

    def test_magnetic_exceeds_max_potential(self):
        # a constant one-form rewards winding loops: c(L) rises above max U
        eta = OneForm([FourierSeries(1, cos={0: 2.0})])
        L = MechanicalLagrangian(1, FourierSeries(1, cos={1: 1.0}), eta)
        c = critical_value(L)
        assert c >= 1.4
        assert c <= 2.0 + 0.5 * 2.0**2 + 1e-6  # rigorous ceiling

    def test_monotone_under_nonnegative_bump(self):
        L = pendulum()
        bumped = MechanicalLagrangian(1, FourierSeries(1, cos={0: 0.25, 1: 1.0}))
        # L + 0.25 pointwise: critical value drops by the added constant
        assert critical_value(bumped) <= critical_value(L) + 0.25 + 2e-2

    @pytest.mark.parametrize("make,exact,tol", ORACLES)
    def test_critical_value_oracle(self, make, exact, tol):
        assert abs(critical_value(make()) - exact()) <= tol

    @pytest.mark.parametrize("make,exact,tol", ORACLES)
    def test_certificate_brackets_threshold(self, make, exact, tol):
        L = make()
        search = NegativeLoopSearch(L)
        c = critical_value(L, search=search)
        assert action(L, search.find(c - 1e-3), c - 1e-3) < 0
        assert search.find(c + 1e-9) is None

    def test_winding_beyond_w_max_gives_lower_bound(self):
        # c = |eta|^2/2 = 0.5 needs winding (-3, 4), outside w_max = 2; the
        # best class inside, (1, -1), certifies only (0.6 + 0.8)^2 / 4 = 0.49
        L = MechanicalLagrangian(2, FourierSeries(2), OneForm([FourierSeries(2, cos={(0, 0): 0.6}),
                                                               FourierSeries(2, cos={(0, 0): -0.8})]))
        c = critical_value(L)
        assert c <= 0.5
        assert abs(c - 0.49) <= 1e-6


class TestStaticityDefect:
    def test_fixed_point_is_static(self):
        L = pendulum()
        assert abs(staticity_defect(L, 1.0, [0.0], [0.0])) <= 1e-3

    def test_nonnegative_on_diagonal(self):
        L = pendulum()
        assert staticity_defect(L, 1.05, [0.4], [0.4]) >= -1e-9

    def test_minimum_not_in_aubry_set(self):
        # Phi_1(0, 1/2) + Phi_1(1/2, 0) = 4/pi > 0
        L = pendulum()
        d = staticity_defect(L, 1.0, [0.0], [0.5])
        assert d > 1.0
        assert abs(d - 4 / np.pi) < 4e-2

    def test_subcritical_raises(self):
        with pytest.raises(BelowCritical):
            staticity_defect(pendulum(), 0.5, [0.0], [0.5])

    def test_one_search_for_both_potentials(self, monkeypatch):
        L, k, x, y = magnetic_t2(), 3.1, [0.1, 0.2], [0.6, 0.7]
        search = NegativeLoopSearch(L)
        expected = (action_potential(L, k, x, y, search=search).value
                    + action_potential(L, k, y, x, search=search).value)
        built = []
        init = NegativeLoopSearch.__init__
        monkeypatch.setattr(NegativeLoopSearch, "__init__",
                            lambda self, *a, **kw: built.append(1) or init(self, *a, **kw))
        assert staticity_defect(L, k, x, y) == expected
        assert len(built) == 1


class TestActionValueType:
    def test_sentinel_needs_certificate(self):
        with pytest.raises(ValueError):
            ActionValue(None, None)

    def test_sentinel_flag(self):
        loop = BrokenPath.constant([0.0], 1.0)
        av = ActionValue(None, loop)
        assert av.is_minus_infinity
        assert not ActionValue(1.5).is_minus_infinity


def test_potential_table_rows():
    L = pendulum()
    rows = potential_table(L, [0.5, 1.2], [([0.0], [0.5])])
    assert len(rows) == 2
    k, x, y, phi, status = rows[0]
    assert status == "neg_inf" and phi == ""
    assert rows[1][4] == "finite"


class TestBatchedLoopLibrary:
    def test_returned_loop_is_certified(self):
        L = magnetic_t1()
        search = NegativeLoopSearch(L)
        loop = search.find(1.9)
        assert loop is not None and action(L, loop, 1.9) < 0

    def test_action_at_witness_duration(self):
        # a seeded random-waypoint loop, as in the battery: the action at
        # T* is 2 sqrt(K (k - Ubar)) + M
        L = MechanicalLagrangian(2, FourierSeries(2, cos={(1, 0): 0.5, (1, 1): 0.3}),
                                 OneForm([FourierSeries(2, cos={(0, 0): 0.4, (0, 1): 0.2}),
                                          FourierSeries(2, cos={(0, 0): -0.3, (1, 0): 0.15})]))
        X = np.random.default_rng(3).random((1, 5, 2))
        X = np.concatenate([X, X[:, :1]], axis=1)
        kin, u, m, _ = action_mod._action_terms(L, X)
        K, ubar, M = 5 * kin.sum(), u.mean(), m.sum()
        k = ubar + 0.7
        T = np.sqrt(K / (k - ubar))
        expected = 2 * np.sqrt(K * (k - ubar)) + M
        assert abs(action(L, BrokenPath.from_cover(X[0], T), k) - expected) <= 1e-12


class TestDiagonal:
    @pytest.mark.parametrize("make,c", [(pendulum, 1.0), (double_well, 1.3)])
    @pytest.mark.parametrize("x,y", [(0.52, 0.52), (1.52, 0.52), (0.0, 0.9999999999999999)])
    def test_exactly_zero_at_and_above_critical(self, make, c, x, y, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("the diagonal needs no minimization")

        L = make()
        search = NegativeLoopSearch(L)
        monkeypatch.setattr(action_mod, "_minimize_knots", no_solve)
        for k in (c, c + 0.05, c + 0.3):
            av = action_potential(L, k, [x], [y], search=search)
            assert av.value == 0.0

    def test_below_critical_is_certified_minus_infinity(self):
        L = pendulum()
        av = action_potential(L, 0.5, [0.52], [1.52])
        assert av.is_minus_infinity
        assert action(L, av.certificate, 0.5) < 0


def weak_magnetic_t1():
    # U = 0.2 cos 2 pi x with eta = 2 dx: at fixed T, extra windings against
    # eta pay more than their kinetic cost
    return MechanicalLagrangian(1, FourierSeries(1, cos={1: 0.2}),
                                OneForm([FourierSeries(1, cos={0: 2.0})]))


def maupertuis_t1(cos, eta0, k, x, y, w_max=4):
    """Phi_k(x, y) on T^1 for k > max U: the least Jacobi length
    int sqrt(2(k - U)) |dx| plus eta0 times the displacement, over lifts."""
    def speed(t):
        return np.sqrt(2 * (k - sum(a * np.cos(2 * np.pi * m * t) for m, a in cos.items())))

    base = (y - x) % 1.0
    return min(abs(quad(speed, x, x + base + w, limit=200)[0]) + eta0 * (base + w)
               for w in range(-w_max, w_max + 1))


def general_magnetic_t2():
    return MechanicalLagrangian(2, FourierSeries(2, cos={(1, 0): 0.5, (1, 1): 0.3}),
                                OneForm([FourierSeries(2, cos={(0, 0): 0.4, (0, 1): 0.2}),
                                         FourierSeries(2, cos={(0, 0): -0.3, (1, 0): 0.15})]))


def torus2_mechanical():
    return MechanicalLagrangian(2, FourierSeries(2, cos={(1, 0): 0.3, (0, 1): 0.2, (1, 1): 0.1}))


class TestBoundPrunedSearch:
    """`_action_lower_bound`, which prunes winding classes, is a lower bound."""

    @settings(max_examples=300, deadline=None)
    @given(make=st.sampled_from([pendulum, magnetic_t1, magnetic_t2, general_magnetic_t2,
                                 weak_magnetic_t1]),
           n_knots=st.integers(2, 12), log_t=st.floats(np.log(1e-3), np.log(50.0)),
           k=st.floats(-2.0, 3.0), seed=st.integers(0, 2**32 - 1))
    def test_bound_holds_on_random_paths(self, make, n_knots, log_t, k, seed):
        L, T = make(), float(np.exp(log_t))
        rng = np.random.default_rng(seed)
        p = BrokenPath(rng.random((n_knots, L.dim)),
                       rng.integers(-3, 4, (n_knots - 1, L.dim)), T)
        X = p.cover_knots()
        bound = action_mod._action_lower_bound(L, X[-1] - X[0], T, k)
        value = action(L, p, k)
        kinetic = (n_knots - 1) * float(((X[1:] - X[:-1]) ** 2).sum()) / (2 * T)
        assert value >= bound - 1e-12 * (1.0 + abs(bound) + abs(value) + kinetic)

class TestMagneticWindingClasses:
    def test_class_against_eta_is_minimized(self):
        # at T = 1 winding -2 has action -1.958, below winding -1 (-1.201)
        L = weak_magnetic_t1()
        p = tonelli_minimizer(L, [0.05], [0.31], 1.0)
        assert p.winds.sum(axis=0)[0] == -2
        assert action(L, p, 0.0) < -1.95

    def test_potential_matches_maupertuis(self):
        L = weak_magnetic_t1()
        search = NegativeLoopSearch(L)
        c = magnetic_t1_exact_c(2.0, 0.2)
        for k in (c + 0.05, c + 0.3):
            phi = action_potential(L, k, [0.05], [0.31], search=search).value
            assert abs(phi - maupertuis_t1({1: 0.2}, 2.0, k, 0.05, 0.31)) <= 1e-6


class TestNearDiagonal:
    """Close pairs: the knots are solved relative to x, so cover rounding does
    not stall the residual (action_potential raises NoConvergence if it did)."""

    @pytest.mark.parametrize("make,cos,c", [(pendulum, {1: 1.0}, 1.0),
                                            (double_well, {1: 0.3, 2: 1.0}, 1.3)])
    @pytest.mark.parametrize("x", [0.0, 0.5])     # max and min of U
    def test_matches_maupertuis(self, make, cos, c, x):
        L = make()
        search = NegativeLoopSearch(L)
        for k in (c + 0.05, c + 0.3):
            for d in (5e-4, -5e-4, 5e-3, -0.01, 0.02, 0.05):
                y = (x + d) % 1.0
                phi = action_potential(L, k, [x], [y], search=search).value
                assert abs(phi - maupertuis_t1(cos, 0.0, k, x, y)) <= 1e-6


def _reference_minimize_knots(L, x_from, disp, T, n_knots, k=0.0, maxiter=400, x_init=None):
    """The L-BFGS-B solver with restarts and a Newton-CG polish that the damped
    Newton `_minimize_knots` replaced, verbatim but with its quadrature and
    residual target fixed at the module's: 8 nodes and 1e-6."""
    from scipy.optimize import minimize

    _action_value_grad = action_mod._action_value_grad
    residual_target = 1e-6
    d = len(x_from)
    line = np.linspace(0.0, 1.0, n_knots)[:, None]
    X0 = x_init if x_init is not None else x_from + line * disp
    shape = (n_knots - 2, d)
    dt = T / (n_knots - 1)

    def fun(z):
        X = np.vstack([X0[:1], z.reshape(shape) + 0.0, X0[-1:]])
        val, grad = _action_value_grad(L, X[None], T, k)
        return float(val[0]), grad[0, 1:-1].ravel()

    z = X0[1:-1].ravel()
    val = res_grad = None
    for _ in range(3):   # restarts reset the quasi-Newton memory near stalls
        res = minimize(fun, z, jac=True, method="L-BFGS-B",
                       options={"maxiter": maxiter, "ftol": 1e-16, "gtol": 1e-12})
        z, val, res_grad = res.x, float(res.fun), np.abs(res.jac).max()
        if res_grad / dt <= 0.2 * residual_target:
            break
    if res_grad / dt > 0.2 * residual_target:
        # Newton polish of the stationarity system; hessp by differencing
        # the analytic gradient
        def hessp(p, v):
            eps = 1e-6 / max(np.abs(v).max(), 1e-12)
            return (fun(p + eps * v)[1] - fun(p - eps * v)[1]) / (2 * eps)

        res = minimize(fun, z, jac=True, hessp=hessp, method="Newton-CG",
                       options={"maxiter": 50, "xtol": 1e-14})
        if np.abs(res.jac).max() <= res_grad:
            z, val, res_grad = res.x, float(res.fun), np.abs(res.jac).max()
    X = np.vstack([X0[:1], z.reshape(shape), X0[-1:]])
    return BrokenPath.from_cover(X, T), val, float(res_grad / dt)


CRITERION_5_PAIRS = [(x, y) for x in (0.05, 0.31, 0.52, 0.68, 0.9)
                     for y in (0.05, 0.31, 0.52, 0.68, 0.9) if x != y]


class TestNewtonAgainstReference:
    """The damped Newton solver reaches the reference solver's minimizers.

    Below the listed durations the straight-line seed has one basin per
    winding class.  Above them the discrete action has several local minima
    per class, and the two solvers may settle in different ones, lower or
    higher; measured over the 20 criterion-5 pairs: double well from
    T = 17.3, pendulum at T = 41.9, magnetic_t1 from T = 5.0 (there first
    by 1.3e-5, two near-equal placements of the knots about the maximum).
    """

    @staticmethod
    def _both(L, x, y, T, monkeypatch, **kwargs):
        out = []
        for solver in (_reference_minimize_knots, action_mod._minimize_knots):
            monkeypatch.setattr(action_mod, "_minimize_knots", solver)
            try:
                out.append((action(L, tonelli_minimizer(L, x, y, T, **kwargs), 0.0), True))
            except NoConvergence as nc:
                out.append((action(L, nc.path, 0.0), False))
        return out

    @pytest.mark.parametrize("make,t_max,pairs", [
        (pendulum, 15.0, CRITERION_5_PAIRS[::5]),
        (double_well, 15.0, CRITERION_5_PAIRS[1::5]),
        (magnetic_t1, 4.5, CRITERION_5_PAIRS[2::5]),
    ])
    def test_same_action_at_default_grid_durations(self, monkeypatch, make, t_max, pairs):
        L = make()
        grid = np.geomspace(0.05, 50.0, 40)
        for x, y in pairs:
            for T in grid[grid < t_max]:
                (ref, ref_ok), (new, new_ok) = self._both(L, [x], [y], T, monkeypatch)
                assert new_ok
                if ref_ok:
                    assert abs(new - ref) <= 1e-10, (x, y, T)

    def test_general_magnetic_t2(self, monkeypatch):
        L = general_magnetic_t2()
        for T in (0.2, 1.0, 3.0, 8.0):
            (ref, ref_ok), (new, new_ok) = self._both(L, [0.1, 0.2], [0.45, 0.7], T,
                                                      monkeypatch, w_max=1)
            assert ref_ok and new_ok
            assert abs(new - ref) <= 1e-10, T

    def test_short_double_well_durations_converge(self):
        # the reference left 9 of these 80 solves above the residual target
        # (1.6e-6 to 5.6e-6 against 1e-6), all at T <= 0.0851
        L = double_well()
        grid = np.geomspace(0.05, 50.0, 40)
        for x, y in CRITERION_5_PAIRS:
            for T in grid[grid <= 0.086]:
                path = tonelli_minimizer(L, [x], [y], T)
                assert el_residual(L, path) <= 1e-6


def coloured_hessian(L, X, T):
    """`_hessian` of the fixed-T action at the cover knots X, probed as the
    minimizer probes them, and the gradient at the interior knots."""
    n, d = X.shape
    probe = np.zeros((1 + 3 * d, n, d))
    for c in range(3):
        for j in range(d):
            probe[1 + c * d + j, 1 + c:-1:3, j] = action_mod._FD_STEP
    grads = action_mod._action_value_grad(L, X + probe, T, 0.0)[1]
    return action_mod._hessian(grads, n - 2, d), grads[0, 1:-1]


def newton_case(make):
    """L, cover knots near a random line (33 knots), T = 0.7 and the generator."""
    L = make()
    rng = np.random.default_rng(3)
    line = np.linspace(0.0, 1.0, 33)[:, None] * rng.uniform(-1.0, 1.0, L.dim)
    return L, line + 0.02 * rng.standard_normal((33, L.dim)), 0.7, rng


class TestNewtonStep:
    """One dense LAPACK solve of the damped Newton system for every dimension."""

    @pytest.mark.parametrize("make", [pendulum, general_magnetic_t2])
    def test_hessian_is_the_one_knot_at_a_time_difference(self, make):
        L, X, T, _ = newton_case(make)
        n, d = X.shape
        H, _ = coloured_hessian(L, X, T)
        moves = np.zeros(((n - 2) * d, n, d))
        moves.reshape(-1, n * d)[np.arange((n - 2) * d), d + np.arange((n - 2) * d)] = \
            action_mod._FD_STEP
        grads = action_mod._action_value_grad(L, X + np.concatenate([0 * X[None], moves]), T, 0.0)[1]
        dense = ((grads[1:, 1:-1] - grads[0, 1:-1]) / action_mod._FD_STEP).reshape(len(moves), -1).T
        assert np.abs(H - (dense + dense.T) / 2).max() <= 1e-8 * np.abs(H).max()
        assert np.array_equal(H, H.T)

    @pytest.mark.parametrize("columns", [1, 2])
    @pytest.mark.parametrize("make", [pendulum, general_magnetic_t2])
    def test_matches_the_dense_solve(self, make, columns):
        L, X, T, rng = newton_case(make)
        H, g = coloured_hessian(L, X, T)
        mu = 1.0 + max(0.0, -float(np.linalg.eigvalsh(H)[0]))
        damped = H + mu * np.eye(len(H))
        rank1 = None
        if columns == 2:
            w = rng.standard_normal(g.shape)
            sigma = 0.5 / float(w.ravel() @ np.linalg.solve(damped, w.ravel()))   # denominator 1/2
            rank1 = (w, sigma)
            damped = damped - sigma * np.outer(w.ravel(), w.ravel())
        step = action_mod._newton_step(H, g, mu, rank1)
        ref = np.linalg.solve(damped, -g.ravel()).reshape(g.shape)
        assert step.shape == g.shape
        assert np.abs(step - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("make", [pendulum, general_magnetic_t2])
    def test_none_until_mu_clears_the_least_eigenvalue(self, make):
        L, X, T, rng = newton_case(make)
        H, g = coloured_hessian(L, X, T)
        H = H - (float(np.linalg.eigvalsh(H)[0]) + 1.0) * np.eye(len(H))   # least eigenvalue -1
        w = (rng.standard_normal(g.shape), 1e-3)
        for rank1 in (None, w):
            assert action_mod._newton_step(H, g, 0.0, rank1) is None
            assert action_mod._newton_step(H, g, 0.99, rank1) is None
            step = action_mod._newton_step(H, g, 1.01, rank1)
            assert step is not None and np.isfinite(step).all()

    def test_none_on_a_non_positive_denominator_or_nan(self):
        L, X, T, rng = newton_case(general_magnetic_t2)
        H, g = coloured_hessian(L, X, T)
        mu = 1.0 + max(0.0, -float(np.linalg.eigvalsh(H)[0]))
        w = rng.standard_normal(g.shape)
        sigma = 2.0 / float(w.ravel() @ np.linalg.solve(H + mu * np.eye(len(H)), w.ravel()))
        assert action_mod._newton_step(H, g, mu, (w, sigma)) is None       # denominator -1
        H[5, 6] = H[6, 5] = np.nan
        assert action_mod._newton_step(H, g, mu) is None


POLISH_FIELDS = [FourierSeries(1, cos={1: 1.0, 2: 0.4}, sin={1: 0.2}),
                 FourierSeries(2, cos={(1, 0): 0.5, (1, 1): 0.3},
                               sin={(0, 1): 0.2, (1, -1): 0.15})]


class TestGridExtremumPolish:
    """The Newton polish against the values of the BFGS polish it replaced;
    the minimum of a field is the maximum of its negation."""

    @pytest.mark.parametrize("field,lo,hi", [
        (POLISH_FIELDS[0], -0.8750682443249482, 1.4076879281132706),
        (POLISH_FIELDS[1], -1.0254062680672127, 0.8139567152117809),
    ])
    def test_improves_on_grid_and_matches_bfgs(self, field, lo, hi):
        vals = field(torus_grid(512, field.dim))
        for g, grid_best, best in ((field, vals.max(), hi),
                                   (SumField([(-1.0, field)]), -vals.min(), -lo)):
            u, x = grid_maximum(g, field.dim)
            assert u > grid_best and abs(u - best) <= 1e-12 and float(g(x)) == u
            assert np.all((0.0 <= x) & (x < 1.0)) and np.abs(field.grad(x)).max() <= 1e-12

    @pytest.mark.parametrize("field,value,point", [
        (POLISH_FIELDS[0], "1.4076879281132706", "[0.012240807086332392]"),
        (POLISH_FIELDS[1], "0.8139567152117807", "[0.030098560137430543, 0.9981649902220583]"),
        (pendulum().potential, "1.0", "[0.0]"),
    ])
    def test_pinned_bits(self, field, value, point):
        # `critical_value` of a purely mechanical Lagrangian is this value exactly
        u, x = grid_maximum(field, field.dim)
        assert (repr(u), repr(x.tolist())) == (value, point)


def test_tiny_negative_endpoint_gives_same_value():
    # -1e-17 % 1.0 is 1.0; the torus wrap maps it to 0.0
    L = pendulum()
    search = NegativeLoopSearch(L)
    first = action_potential(L, 1.3, [-1e-17], [0.31], search=search)
    second = action_potential(L, 1.3, [0.0], [0.31], search=search)
    assert first.value == second.value
    assert tonelli_minimizer(L, [-1e-17], [0.31], 1.0).knots[0, 0] == 0.0


def knot_refinement_potential(L, k, x, y, w_max):
    """Phi_k(x, y) from free-time solves at 129 and 257 knots, extrapolated
    as action_potential does at 33 and 65."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    best = np.inf
    for wind in action_mod._winding_classes(L.dim, w_max):
        disp = (y - x + 0.5) % 1.0 - 0.5 + wind
        path, coarse, _ = action_mod._minimize_knots(L, x, disp, None, 129, k)
        X = path.cover_knots() - x
        seed = np.empty((257, L.dim))
        seed[::2], seed[1::2] = X, (X[:-1] + X[1:]) / 2
        _, fine, res = action_mod._minimize_knots(L, x, disp, None, 257, k, x_init=seed)
        assert res <= 1e-6
        best = min(best, (4 * fine - coarse) / 3)
    return best


class TestFreeTimePotential:
    """Phi_k against independent oracles, to 1e-6."""

    @pytest.mark.parametrize("make,cos,eta0", [(pendulum, {1: 1.0}, 0.0),
                                               (double_well, {1: 0.3, 2: 1.0}, 0.0),
                                               (magnetic_t1, {1: 1.0}, 2.0)])
    def test_criterion_5_cells_match_maupertuis(self, make, cos, eta0):
        L = make()
        search = NegativeLoopSearch(L)
        c = critical_value(L, search=search)
        pairs = CRITERION_5_PAIRS if eta0 == 0.0 else CRITERION_5_PAIRS[::7]
        for k in (c + 0.05, c + 0.3):
            for x, y in pairs:
                phi = action_potential(L, k, [x], [y], search=search).value
                assert abs(phi - maupertuis_t1(cos, eta0, k, x, y)) <= 1e-6, (k, x, y)

    @pytest.mark.parametrize("eta,ks", [((0.5, 0.5), (0.3, 1.0)), ((0.6, -0.8), (0.8, 1.2))])
    def test_constant_eta_on_t2_closed_form(self, eta, ks):
        # U = 0 with constant eta, k > |eta|^2 / 2: straight segments at speed
        # sqrt(2k), so Phi_k = min over w of sqrt(2k)|D + w| + eta.(D + w)
        L = MechanicalLagrangian(2, FourierSeries(2), OneForm([FourierSeries(2, cos={(0, 0): e})
                                                               for e in eta]))
        search = NegativeLoopSearch(L)
        windings = np.array([(i, j) for i in range(-6, 7) for j in range(-6, 7)], dtype=float)
        for k in ks:
            for x, y in [((0.1, 0.2), (0.45, 0.7)), ((0.8, 0.05), (0.3, 0.4)), ((0.5, 0.5), (0.5, 0.9))]:
                D = (np.subtract(y, x) + 0.5) % 1.0 - 0.5 + windings
                exact = (np.sqrt(2 * k) * np.sqrt((D * D).sum(axis=1)) + D @ np.array(eta)).min()
                assert abs(action_potential(L, k, x, y, search=search).value - exact) <= 1e-6

    @pytest.mark.parametrize("make,dk", [(torus2_mechanical, 0.1), (general_magnetic_t2, 0.05)])
    def test_t2_matches_knot_refinement(self, make, dk):
        L = make()
        search = NegativeLoopSearch(L)
        k = critical_value(L, search=search) + dk
        x, y = [0.1, 0.2], [0.45, 0.7]
        phi = action_potential(L, k, x, y, w_max=1, search=search).value
        assert abs(phi - knot_refinement_potential(L, k, x, y, w_max=1)) <= 1e-6

    @pytest.mark.parametrize("k", [1e6, 1e7])
    def test_large_k_matches_maupertuis(self, k):
        # the residual's rounding floor passes 1e-6 here (4.4e-6 and 4.6e-5)
        phi = action_potential(pendulum(), k, [0.05], [0.31]).value
        exact = maupertuis_t1({1: 1.0}, 0.0, k, 0.05, 0.31)
        assert abs(phi - exact) <= 1e-6 * exact

    def test_missed_residual_raises_no_convergence(self, monkeypatch):
        solve = action_mod._minimize_knots

        def stalled(*args, **kwargs):
            path, value, _ = solve(*args, **kwargs)
            return path, value, 1e-3

        monkeypatch.setattr(action_mod, "_minimize_knots", stalled)
        with pytest.raises(NoConvergence) as exc:
            action_potential(pendulum(), 1.3, [0.05], [0.31])
        assert exc.value.residual == 1e-3
        assert exc.value.path.n_knots == 65 and exc.value.path.knots[0, 0] == 0.05

    @pytest.mark.parametrize("k,x,y,w_max", [
        (np.nan, 0.1, 0.3, 3), (np.inf, 0.1, 0.3, 3), (1.3, np.nan, 0.3, 3),
        (1.3, 0.1, np.inf, 3), (1.3, 0.1, 0.3, -1),
    ])
    def test_bad_input_raises_value_error(self, k, x, y, w_max):
        with pytest.raises(ValueError):
            action_potential(pendulum(), k, [x], [y], w_max=w_max)

    def test_minus_infinite_k_is_certified(self):
        av = action_potential(pendulum(), -np.inf, [0.1], [0.3])
        assert av.is_minus_infinity


def free_time_value(L, X, k):
    return action_mod._free_time_action(L, X[None], k)[0]


class TestFreeTimeAction:
    """F = 2 sqrt(K (k - Ubar)) + M, the least discrete action over durations."""

    @settings(max_examples=200, deadline=None)
    @given(make=st.sampled_from([pendulum, double_well, magnetic_t1, magnetic_t2,
                                 general_magnetic_t2, weak_magnetic_t1]),
           n_knots=st.integers(2, 12), k_above=st.floats(1e-3, 3.0),
           log_ts=st.lists(st.floats(np.log(1e-3), np.log(50.0)), min_size=1, max_size=5),
           seed=st.integers(0, 2**32 - 1))
    def test_least_action_over_durations(self, make, n_knots, k_above, log_ts, seed):
        L = make()
        k = L.potential.value_bounds()[1] + k_above      # above every Ubar
        rng = np.random.default_rng(seed)
        p = BrokenPath(rng.random((n_knots, L.dim)), rng.integers(-3, 4, (n_knots - 1, L.dim)), 1.0)
        X = p.cover_knots()
        F, t_star, _, _ = action_mod._free_time_action(L, X[None], k)
        at_t_star = action(L, BrokenPath.from_cover(X, t_star), k)
        kinetic = (n_knots - 1) * float(((X[1:] - X[:-1]) ** 2).sum()) / (2 * t_star)
        assert abs(at_t_star - F) <= 1e-12 * (abs(F) + kinetic)     # kinetic = (F - M) / 2
        for log_t in log_ts:
            value = action(L, BrokenPath.from_cover(X, float(np.exp(log_t))), k)
            assert F <= value + 1e-12 * (1.0 + abs(value))
        bound = action_mod._action_lower_bound(L, X[-1] - X[0], None, k)
        assert bound <= F + 1e-12 * (1.0 + abs(F))

    @settings(max_examples=100, deadline=None)
    @given(make=st.sampled_from([pendulum, magnetic_t1, general_magnetic_t2]),
           n_knots=st.integers(3, 12), k_above=st.floats(0.05, 3.0),
           seed=st.integers(0, 2**32 - 1))
    def test_gradient_matches_central_differences(self, make, n_knots, k_above, seed):
        L = make()
        k = L.potential.value_bounds()[1] + k_above
        rng = np.random.default_rng(seed)
        X = np.cumsum(rng.uniform(-0.3, 0.3, (n_knots, L.dim)), axis=0)
        _, t_star, _, grad = action_mod._free_time_action(L, X[None], k)
        g = grad(1.0 / t_star, -t_star, 1.0)[0]
        h = 1e-6
        for i in range(n_knots):
            for j in range(L.dim):
                E = np.zeros_like(X)
                E[i, j] = h
                fd = (free_time_value(L, X + E, k) - free_time_value(L, X - E, k)) / (2 * h)
                assert abs(fd - g[i, j]) <= 1e-6 * (1.0 + abs(g[i, j]))


def _reference_thresholds(L, X, need_grad=False):
    """theta, (K, Ubar, u) and grad theta of closed loops X (B, n, d), K > 0.

    Minimizing K/T + T (k - Ubar) + M over T (AM-GM): a loop has negative
    (L + k)-action at some duration exactly when k < theta = Ubar + K u^2,
    u = max(-M, 0) / (2K), with witness T* = sqrt(K / (k - Ubar)).  By the
    envelope identity grad theta = -grad A_theta(X, 1/u) * u.
    """
    kin, useg, m, grad = action_mod._action_terms(L, X)
    K, ubar = (X.shape[1] - 1) * kin.sum(axis=1), useg.mean(axis=1)
    u = np.maximum(-m.sum(axis=1), 0.0) / (2.0 * K)
    return ubar + K * u * u, (K, ubar, u), (grad(-u * u, 1.0, -u) if need_grad else None)


def _reference_ascend(L, X, n_knots):
    """Ascent of the threshold of the closed loop X (m, d), its segments cut
    into equal pieces up to n_knots knots, winding fixed.

    L-BFGS on -theta (two-loop recursion over the last 10 pairs, Nocedal and
    Wright, Numerical Optimization, 2006, Alg. 7.4) with a backtracking Armijo
    search; the first step has unit length.  Stops after 200 steps, on
    max|grad| <= 1e-10, on a relative gain <= 1e-15 or when the search finds
    no decrease.
    """
    d = X.shape[1]
    wind = X[-1] - X[0]
    r = -(-(n_knots - 1) // (len(X) - 1))
    z = (X[:-1, None, :] + (np.arange(r) / r)[:, None] * np.diff(X, axis=0)[:, None, :]).ravel()

    def close(z):
        Y = z.reshape(-1, d)
        return np.vstack([Y, Y[:1] + wind])

    def fun(z):
        theta, _, grad = _reference_thresholds(L, close(z)[None], need_grad=True)
        g = grad[0, :-1]
        g[0] += grad[0, -1]
        return -float(theta[0]), -g.ravel()

    f, g = fun(z)
    pairs = []                      # (s, y, 1 / y.s), oldest first
    for _ in range(200):
        if np.abs(g).max() <= 1e-10:
            break
        p = -g
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * (s @ p))
            p = p - alphas[-1] * y
        if pairs:
            s, y, _ = pairs[-1]
            p = p * ((s @ y) / (y @ y))
        else:
            p = p / np.sqrt(p @ p)
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            p = p + (a - rho * (y @ p)) * s
        slope, t = float(g @ p), 1.0
        for _ in range(40):
            f_new, g_new = fun(z + t * p)
            if f_new <= f + 1e-4 * t * slope:
                break
            t /= 2.0
        else:
            break
        s, y = t * p, g_new - g
        if y @ s > 0.0:
            pairs = (pairs + [(s, y, 1.0 / (y @ s))])[-10:]
        done = f - f_new <= 1e-15 * max(abs(f), abs(f_new), 1.0)
        z, f, g = z + s, f_new, g_new
        if done:
            break
    return close(z)


def reference_critical_value(L):
    """The critical value of the L-BFGS ascent that `_refine_loop` replaced:
    the best of max U and the four battery loops with M < 0 of highest
    threshold, each before and after `_reference_ascend`."""
    search = NegativeLoopSearch(L)
    loops, thetas = [], []
    for X in search._battery():
        theta, (_, _, u), _ = _reference_thresholds(L, X)
        loops.extend(X[u > 0])
        thetas.extend(theta[u > 0])
    best = search.u_max
    for i in np.argsort(thetas)[::-1][:4]:
        for Y in (loops[i], _reference_ascend(L, loops[i], search.n_knots)):
            best = max(best, float(_reference_thresholds(L, Y[None])[0][0]))
    return best


def pendulum_eta(eta0):
    return MechanicalLagrangian(1, FourierSeries(1, cos={1: 1.0}),
                                OneForm([FourierSeries(1, cos={0: eta0})]))


def magnetic_on_t2(u_cos, eta_cos):
    return MechanicalLagrangian(2, FourierSeries(2, cos=u_cos),
                                OneForm([FourierSeries(2, cos=c) for c in eta_cos]))


REFINE_CASES = {
    **{f"t1.eta{eta0}": (lambda eta0=eta0: pendulum_eta(eta0))
       for eta0 in (0.85, 1.28, 1.3, 1.5, 2.0, 3.0)},
    "double_well.eta2": lambda: MechanicalLagrangian(1, FourierSeries(1, cos={1: 0.3, 2: 1.0}),
                                                     OneForm([FourierSeries(1, cos={0: 2.0})])),
    "t2.eta_half": eta_half_t2,
    "t2.cos_eta02": magnetic_t2,
    "t2.general": general_magnetic_t2,
    "t2.w_max_miss": lambda: magnetic_on_t2({}, [{(0, 0): 0.6}, {(0, 0): -0.8}]),
    # each solve pins the first knot: never re-based, the loop stops at 1.5043, not 1.5255
    "t2.curl": lambda: magnetic_on_t2({(1, 0): 0.2}, [{(0, 1): 1.5}, {(0, 0): 0.3, (1, 0): -1.5}]),
    "t2.strong": lambda: magnetic_on_t2({(1, 0): 0.5, (1, 1): 0.3},
                                        [{(0, 0): 1.2, (0, 1): 0.6}, {(0, 0): -0.9, (1, 0): 0.45}]),
}


class TestLoopRefinement:
    """Newton in k on the free-time solver against the L-BFGS ascent."""

    @pytest.mark.parametrize("name", REFINE_CASES)
    def test_at_least_the_reference_ascent(self, name):
        L = REFINE_CASES[name]()
        c, ref = critical_value(L), reference_critical_value(L)
        slack = 1e-12 * max(1.0, abs(c))
        eta_sup2 = sum(max(abs(lo), abs(hi)) ** 2
                       for lo, hi in (comp.value_bounds() for comp in L.oneform.components))
        assert c >= ref - slack
        assert c <= L.potential.value_bounds()[1] + eta_sup2 / 2 + slack

    @pytest.mark.parametrize("eta0", [1.28, 1.3])
    def test_winding_classes_not_crowded_out(self, eta0):
        # with constant eta the null-homologous battery loops have M at
        # rounding level (-2.8e-17); as candidates they fill all four slots
        # at eta0 = 1.28, and c would read max U = 1
        c = critical_value(pendulum_eta(eta0))
        assert 1.003 < c <= magnetic_t1_exact_c(eta0)

    # a constant T^2 loop at a dyadic point, which the cut into pieces keeps
    # constant; K = M = 0 gave 0/0 in u = max(-M, 0) / (2K)
    CONSTANT_LOOP = np.tile([0.25, 0.5], (5, 1))

    def test_constant_loop_threshold_is_mean_u(self):
        L = general_magnetic_t2()
        theta, (K, ubar, u) = action_mod._thresholds(L, self.CONSTANT_LOOP[None])
        assert K[0] == 0.0 and u[0] == 0.0 and theta[0] == ubar[0]
        assert abs(theta[0] - float(L.potential(self.CONSTANT_LOOP[0]))) <= 1e-15

    def test_constant_loop_is_returned_at_its_price(self):
        L = general_magnetic_t2()
        ubar = action_mod._thresholds(L, self.CONSTANT_LOOP[None])[1][1][0]
        theta, loop = action_mod._refine_loop(L, self.CONSTANT_LOOP, 33, 0.8)
        assert theta == ubar and np.array_equal(loop, self.CONSTANT_LOOP)



PINNED_CASES = {
    **REFINE_CASES,
    "t1.mechanical": pendulum,
    "t2.mechanical": torus2_mechanical,
    "t1.canal": lambda: perturb(pendulum_eta(1.5), CanalPotential([[0.0]], eps=0.12, k=2)),
    # d eta = 0 although eta is not constant
    "t2.closed_sin": lambda: MechanicalLagrangian(
        2, FourierSeries(2, cos={(1, 0): 0.4}),
        OneForm([FourierSeries(2, cos={(0, 0): 0.3}, sin={(1, 0): 0.5}),
                 FourierSeries(2, cos={(0, 0): -0.2}, sin={(0, 1): 0.4})])),
}

# repr(critical_value(L)); limiting random loops to T^2 with non-constant eta
# and pricing each loop once left every one of them unchanged.  Solving the
# Newton step with LAPACK instead of an LDL^T sweep moved two by rounding:
# t1.eta1.28 by -1 ulp (its error against the closed form stays -9.428e-04)
# and t2.strong by +3 ulp
PINNED_REPR = {
    "t1.eta0.85": "1.0", "t1.eta1.28": "1.003340606623688",
    "t1.eta1.3": "1.0193318845733632", "t1.eta1.5": "1.2442180954768962",
    "t1.eta2.0": "2.0635863048727576", "t1.eta3.0": "4.527796328381564",
    "double_well.eta2": "2.0721830425928913", "t2.eta_half": "0.24999999999999994",
    "t2.cos_eta02": "2.9999999999999996", "t2.general": "0.8",
    "t2.w_max_miss": "0.4900000000000001", "t2.curl": "1.5255359648333988",
    "t2.strong": "1.6848275525885859", "t1.mechanical": "1.0", "t2.mechanical": "0.6",
    "t1.canal": "1.2371434336910154", "t2.closed_sin": "0.42000000000000004",
}


class TestBatteryRule:
    """Random-waypoint loops only on T^2 with non-constant eta, each loop priced once."""

    @pytest.mark.parametrize("name", PINNED_CASES)
    def test_critical_value_pinned_and_certified(self, name):
        L = PINNED_CASES[name]()
        search = NegativeLoopSearch(L)
        c = critical_value(L, search=search)
        assert repr(c) == PINNED_REPR[name]
        assert action(L, search.find(c - 1e-3), c - 1e-3) < 0

    @pytest.mark.parametrize("name", ["t1.eta2.0", "t1.canal", "t1.mechanical", "t2.mechanical",
                                      "t2.eta_half", "t2.cos_eta02", "t2.w_max_miss"])
    def test_winding_group_only(self, name):
        # T^1, constant eta or eta = 0: a null-homologous loop has M = 0 up to rounding
        L = PINNED_CASES[name]()
        groups = NegativeLoopSearch(L)._battery()
        assert [X.shape for X in groups] == [(5 ** L.dim - 1, 33, L.dim)]

    @pytest.mark.parametrize("name", ["t2.curl", "t2.general", "t2.closed_sin"])
    def test_random_groups_on_t2_with_non_constant_eta(self, name):
        groups = NegativeLoopSearch(PINNED_CASES[name]())._battery()
        assert [X.shape[1:] for X in groups] == [(33, 2), (4, 2), (5, 2), (6, 2)]
        assert sum(len(X) for X in groups) == NegativeLoopSearch.budget - 1 == 9999

    @pytest.mark.parametrize("name", ["t1.eta2.0", "t2.curl", "t2.strong"])
    def test_each_theta_is_the_loops_own(self, name):
        # the theta a loop was priced at in its batch, or by `_refine_loop`,
        # equals a fresh single-row pricing bit for bit
        L = PINNED_CASES[name]()
        search = NegativeLoopSearch(L)

        def fresh(X):
            return float(action_mod._thresholds(L, X[None])[0][0])

        candidates = search._candidates()
        assert len(candidates) == (2 if L.dim == 1 else 4)   # on T^1 the classes -1 and -2
        for theta, X in candidates:
            assert theta == fresh(X)
            refined_theta, Y = action_mod._refine_loop(L, X, search.n_knots, search.u_max)
            assert refined_theta == fresh(Y) >= theta

    @pytest.mark.parametrize("name", ["t1.eta2.0", "t2.curl", "t2.strong"])
    def test_no_solve_after_a_rise_at_rounding_level(self, name, monkeypatch):
        # a solve at k within 4 ulp of the one before takes no step: on t1.eta2.0
        # the first candidate ran at k = 2.0629624864034595 and again 4 ulp above
        L = PINNED_CASES[name]()
        search = NegativeLoopSearch(L)
        ks, solve = [], action_mod._minimize_knots

        def recording(*args, **kwargs):
            ks.append(args[5])
            return solve(*args, **kwargs)

        monkeypatch.setattr(action_mod, "_minimize_knots", recording)
        for _, X in search._candidates():
            ks.clear()
            action_mod._refine_loop(L, X, search.n_knots, search.u_max)
            assert all(b - a > 4 * np.spacing(a) for a, b in zip(ks, ks[1:])), ks


def _old_refine_cut(X, r):
    """`_refine_loop`'s cut of the loop X into r pieces a segment, verbatim."""
    return np.vstack([(X[:-1, None, :] + (np.arange(r) / r)[:, None] * np.diff(X, axis=0)[:, None, :])
                      .reshape(-1, X.shape[1]), X[-1:]])


def _old_midpoint_seed(X):
    """`action_potential`'s 65-knot seed from the 33-knot path X, verbatim."""
    seed = np.empty((65, X.shape[1]))
    seed[::2], seed[1::2] = X, (X[:-1] + X[1:]) / 2
    return seed


class TestProlongation:
    """`_prolong` against the two constructions it replaced."""

    @pytest.mark.parametrize("r", [1, 2, 7, 8, 11])
    def test_against_the_old_constructions(self, r):
        rng = np.random.default_rng(r)
        for _ in range(200):
            m, d = int(rng.integers(2, 34)), int(rng.integers(1, 3))
            X = rng.random((m - 1, d)) * rng.choice([1.0, 3.0, 100.0])
            X = np.vstack([X, X[:1] + rng.integers(-2, 3, d)])     # a loop, as in the battery
            W, old = action_mod._prolong(X, r), _old_refine_cut(X, r)
            assert W.shape == old.shape == (r * (m - 1) + 1, d)
            assert W[::r].tobytes() == old[::r].tobytes() == X.tobytes()
            # an inserted knot is two or three roundings from each: 6 ulp of max|X|
            assert np.abs(W - old).max() <= 6 * np.spacing(np.abs(X).max())
            if r == 2:
                Y = rng.random((33, d)) * rng.choice([1.0, 3.0, 100.0])
                assert action_mod._prolong(Y, 2).tobytes() == _old_midpoint_seed(Y).tobytes()
