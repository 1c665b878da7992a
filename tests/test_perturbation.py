import numpy as np
import pytest

from torusdyn.action import NegativeLoopSearch, critical_value
from torusdyn.fields import FourierSeries, OneForm
from torusdyn.lagrangian import MechanicalLagrangian, PhaseState, el_flow
from torusdyn.perturbation import (
    CanalExperimentConfig,
    CanalPotential,
    DimMismatch,
    core_force_residual,
    experiment_localization,
    perturb,
)
from torusdyn.torus import wrap


def pendulum():
    return MechanicalLagrangian(1, FourierSeries(1, cos={1: 1.0}))


class TestCanalValues:
    def test_zero_on_core(self):
        cp = CanalPotential([[0.3, 0.6]], eps=1.0, k=2)
        assert cp([0.3, 0.6]) == 0.0

    def test_point_core_quadratic(self):
        cp = CanalPotential([[0.0]], eps=1.0, k=2)
        assert abs(cp([0.1]) - 0.01) < 1e-14
        assert abs(cp([0.9]) - 0.01) < 1e-14  # torus wrap

    def test_plateau_saturates(self):
        cp = CanalPotential([[0.0]], eps=2.0, k=3, plateau=0.2)
        assert abs(cp([0.5]) - 2.0 * 0.2**3) < 1e-14

    @pytest.mark.parametrize("eps,plateau,needle", [
        (np.nan, None, "eps"), (np.inf, None, "eps"), (0.0, None, "eps"),
        (1.0, np.nan, "plateau"), (1.0, -1.0, "plateau"), (1.0, 0.0, "plateau"),
        (1.0, np.inf, "plateau"),
    ])
    def test_rejects_bad_amplitude_and_plateau(self, eps, plateau, needle):
        with pytest.raises(ValueError, match=f"{needle} must be positive and finite"):
            CanalPotential([[0.0]], eps=eps, k=2, plateau=plateau)

    def test_equator_core_on_t2(self):
        # core = the circle x2 = 0.25; farthest parallel is at distance 1/2
        cp = CanalPotential([[0.0, 0.25]], eps=1.0, k=2,
                            winds=[[1, 0]])
        assert abs(cp([0.37, 0.25])) < 1e-14
        assert abs(cp([0.8, 0.75]) - 0.25) < 1e-12

    def test_nonnegative_everywhere_zero_exactly_on_core(self):
        rng = np.random.default_rng(0)
        cp = CanalPotential([[0.1, 0.2], [0.5, 0.6], [0.8, 0.3]], eps=0.7, k=2)
        pts = rng.random((500, 2))
        vals = cp(pts)
        assert np.all(vals >= 0)
        on_core = cp.core_samples(128)
        assert np.max(cp(on_core)) < 1e-24

    def test_gradient_matches_finite_differences(self):
        cp = CanalPotential([[0.15, 0.4], [0.6, 0.7]], eps=0.5, k=3, closed=False)
        rng = np.random.default_rng(1)
        pts = rng.random((40, 2))
        g = cp.grad(pts)
        h = 1e-6
        for axis in range(2):
            e = np.zeros(2)
            e[axis] = h
            fd = (cp(pts + e) - cp(pts - e)) / (2 * h)
            mask = cp.distance(pts) > 1e-3  # away from the medial-axis kinks
            assert np.allclose(g[mask, axis], fd[mask], atol=1e-5)

    def test_smoothness_across_core(self):
        # k >= 2: second differences transverse to the core stay bounded (no kink)
        cp = CanalPotential([[0.0]], eps=1.0, k=2)
        h = 1e-4
        xs = np.array([[-h], [0.0], [h]])
        second = (cp(xs[2]) - 2 * cp(xs[1]) + cp(xs[0])) / h**2
        assert abs(second - 2.0) < 1e-6  # d^2/dx^2 of x^2 stays 2 across the core


class TestPerturb:
    def test_zero_amplitude_limit(self):
        L = pendulum()
        cp = CanalPotential([[0.0]], eps=1e-12, k=2)
        Lp = perturb(L, cp)
        xs = np.linspace(0, 1, 50)[:, None]
        assert np.allclose(Lp.potential(xs), L.potential(xs), atol=1e-12)

    def test_lagrangian_gains_phi(self):
        L = pendulum()
        cp = CanalPotential([[0.25]], eps=0.3, k=2)
        Lp = perturb(L, cp)
        xs = np.linspace(0, 1, 64)[:, None]
        vs = np.zeros_like(xs)
        assert np.allclose(Lp.lagrangian(xs, vs), L.lagrangian(xs, vs) + cp(xs), atol=1e-14)

    def test_core_fixed_point_persists(self):
        L = pendulum()
        cp = CanalPotential([[0.0]], eps=0.1, k=2)
        Lp = perturb(L, cp)
        traj = el_flow(Lp, PhaseState([0.0], [0.0]), T=2.0, dt=1e-3)
        assert np.allclose(traj.xs, 0.0, atol=1e-12)
        from torusdyn.lagrangian import energy

        assert energy(Lp, PhaseState([0.0], [0.0])) == energy(L, PhaseState([0.0], [0.0]))

    def test_core_orbit_force_residual(self):
        L = pendulum()
        for k in (2, 3, 4):
            cp = CanalPotential([[0.0]], eps=0.2, k=k)
            assert core_force_residual(L, cp) <= 1e-8

    def test_rotating_orbit_on_circle_core(self):
        # a full-circle core leaves every Lagrangian orbit untouched
        L = pendulum()
        cp = CanalPotential([[0.0]], eps=0.5, k=2, winds=[[1]])
        Lp = perturb(L, cp)
        s0 = PhaseState([0.3], [2.5])
        a = el_flow(L, s0, T=2.0, dt=1e-3)
        b = el_flow(Lp, s0, T=2.0, dt=1e-3)
        assert np.allclose(a.xs, b.xs, atol=1e-10)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            perturb(pendulum(), CanalPotential([[0.1, 0.1]], eps=0.1))


class TestExperiment:
    def test_trivial_amplitude_keeps_critical_value(self):
        L = pendulum()
        cp = CanalPotential([[0.0]], eps=1e-9, k=2)
        rep = experiment_localization(L, cp, CanalExperimentConfig())
        assert abs(rep["c_base"] - rep["c_perturbed"]) <= 2e-2
        assert rep["monotone"]

    def test_canal_at_fixed_point_preserves_c(self):
        L = pendulum()
        cp = CanalPotential([[0.0]], eps=0.1, k=2)
        rep = experiment_localization(L, cp, CanalExperimentConfig())
        assert abs(rep["c_perturbed"] - 1.0) <= 2e-2
        assert rep["core_force_residual"] <= 1e-8
        assert rep["localized"]

    def test_canal_off_the_aubry_set_reported(self):
        # canal around the potential minimum: minimizing loops stay off-core
        L = pendulum()
        cp = CanalPotential([[0.5]], eps=0.2, k=2)
        rep = experiment_localization(L, cp, CanalExperimentConfig())
        assert rep["monotone"]
        assert rep["c_perturbed"] <= rep["c_base"] + 2e-2
        assert not rep["localized"]  # best loops hug the max at 0, far from 0.5

    def test_monotonicity_grid(self):
        L = pendulum()
        for eps in (0.05, 0.2):
            for k in (2, 3):
                cp = CanalPotential([[0.0]], eps=eps, k=k)
                c_pert = critical_value(perturb(L, cp))
                assert c_pert <= 1.0 + 2e-2


def reference_point_distance_and_direction(cp, x):
    """The point-core branch of `CanalPotential._distance_and_direction`
    before a point core became a segment of length 0, verbatim."""
    x = wrap(np.atleast_2d(x))
    n = len(x)
    y = x[:, None, :] + cp._lifts[None, :, :]      # (n, 3^d, d)
    diff = y[:, :, None, :] - cp.core[None, None, :, :]
    dist = np.linalg.norm(diff, axis=-1)         # (n, lifts, m)
    flat = dist.reshape(n, -1)
    best = np.argmin(flat, axis=1)
    d = flat[np.arange(n), best]
    away = diff.reshape(n, -1, x.shape[1])[np.arange(n), best]
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = np.where(d[:, None] > 0, away / np.maximum(d[:, None], 1e-300), 0.0)
    return d, unit


class TestPointCoreFold:
    """A point core as a segment of length 0 gives the point branch's bits."""

    @pytest.mark.parametrize("vertex", [[0.0], [0.25], [0.9999], [0.0, 0.0], [0.3, 0.6],
                                        [0.999, 0.5]])
    @pytest.mark.parametrize("plateau", [None, 0.2])
    @pytest.mark.parametrize("closed", [True, False])
    def test_values_gradients_distances(self, vertex, plateau, closed):
        cp = CanalPotential([vertex], eps=0.7, k=3, plateau=plateau, closed=closed)
        ref = CanalPotential([vertex], eps=0.7, k=3, plateau=plateau, closed=closed)
        ref._distance_and_direction = lambda x: reference_point_distance_and_direction(ref, x)
        dim = len(vertex)
        rng = np.random.default_rng(dim)
        pts = np.vstack([rng.random((300, dim)), [vertex], wrap(np.add(vertex, 0.5)),
                         np.add(vertex, 1e-9), -rng.random((20, dim))])
        for x in (pts, pts[0], pts.reshape(-1, 2, dim) if len(pts) % 2 == 0 else pts[:-1]):
            assert np.array_equal(cp(x), ref(x))
            assert np.array_equal(cp.grad(x), ref.grad(x))
            assert np.array_equal(np.asarray(cp.distance(x)), np.asarray(ref.distance(x)))
        assert np.array_equal(cp.core_samples(), wrap(np.atleast_2d(vertex)))


def magnetic_pendulum(eta0):
    return MechanicalLagrangian(1, FourierSeries(1, cos={1: 1.0}),
                                OneForm([FourierSeries(1, cos={0: eta0})]))


def benchmark_case():
    # the benchmark's canal job at its anchor values
    return magnetic_pendulum(0.85), CanalPotential([[0.0]], eps=0.12, k=2)


def t2_polyline_case():
    L = MechanicalLagrangian(2, FourierSeries(2, cos={(1, 0): 0.3, (0, 1): 0.2, (1, 1): 0.1}))
    cp = CanalPotential([[0.1, 0.2], [0.5, 0.6], [0.8, 0.3]], eps=0.4, k=2,
                        winds=[[0, 0], [0, 0], [1, 0]])
    return L, cp


class TestCertifyingLoop:
    """The experiment reads localization off the loop that certifies c(L + phi)."""

    @pytest.mark.parametrize("case", [benchmark_case, t2_polyline_case],
                             ids=["benchmark_t1_point", "t2_polyline"])
    def test_report_is_the_critical_loop(self, case):
        L, cp = case()
        report = experiment_localization(L, cp)
        assert set(report) == {"c_base", "c_perturbed", "monotone", "core_force_residual",
                               "near_core_radius", "best_loop_core_distance", "localized"}
        assert report["c_base"] == critical_value(L)
        assert report["c_perturbed"] == critical_value(perturb(L, cp))
        search = NegativeLoopSearch(perturb(L, cp))
        _, X = search.best_loop()
        dist = np.max(cp.distance(search.x_max if X is None else X))
        assert report["best_loop_core_distance"] == dist
        assert report["localized"] == (dist <= report["near_core_radius"])

    def test_search_on_polyline_canal_has_bounded_memory(self):
        # one batch over the 512^2 grid of U - phi would need about 670 MB
        import tracemalloc

        L, cp = t2_polyline_case()
        Lp = perturb(L, cp)
        tracemalloc.start()
        try:
            NegativeLoopSearch(Lp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6

    def test_winding_critical_loop_is_not_localized(self):
        # eta0 = 2 lifts c(L + phi) = 2.0551 above max(U - phi) = 1: a loop winding
        # once around the circle carries it, and a point canal cannot hold it
        L, cp = magnetic_pendulum(2.0), CanalPotential([[0.0]], eps=0.12, k=2)
        report = experiment_localization(L, cp)
        assert report["c_perturbed"] > 2.05
        assert report["localized"] is False
        assert report["best_loop_core_distance"] >= 0.45

    @pytest.mark.parametrize("L", [pendulum(), magnetic_pendulum(2.0)])
    def test_critical_value_is_best_loop_theta(self, L):
        assert critical_value(L) == NegativeLoopSearch(L).best_loop()[0]
