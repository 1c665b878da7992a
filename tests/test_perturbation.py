import numpy as np
import pytest

from torusdyn.action import BrokenPath, action, critical_value
from torusdyn.fields import FourierSeries, OneForm
from torusdyn.lagrangian import MechanicalLagrangian, PhaseState, el_flow
from torusdyn.perturbation import (
    CanalExperimentConfig,
    CanalPotential,
    DimMismatch,
    canal,
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
        assert canal(cp, [0.3, 0.6]) == 0.0

    def test_point_core_quadratic(self):
        cp = CanalPotential([[0.0]], eps=1.0, k=2)
        assert abs(canal(cp, [0.1]) - 0.01) < 1e-14
        assert abs(canal(cp, [0.9]) - 0.01) < 1e-14  # torus wrap

    def test_plateau_saturates(self):
        cp = CanalPotential([[0.0]], eps=2.0, k=3, plateau=0.2)
        assert abs(canal(cp, [0.5]) - 2.0 * 0.2**3) < 1e-14

    def test_equator_core_on_t2(self):
        # core = the circle x2 = 0.25; farthest parallel is at distance 1/2
        cp = CanalPotential([[0.0, 0.25]], eps=1.0, k=2,
                            winds=[[1, 0]])
        assert abs(canal(cp, [0.37, 0.25])) < 1e-14
        assert abs(canal(cp, [0.8, 0.75]) - 0.25) < 1e-12

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
        second = (canal(cp, xs[2]) - 2 * canal(cp, xs[1]) + canal(cp, xs[0])) / h**2
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
        rep = experiment_localization(L, cp, CanalExperimentConfig(n_random_loops=50))
        assert abs(rep["c_base"] - rep["c_perturbed"]) <= 2e-2
        assert rep["monotone"]

    def test_canal_at_fixed_point_preserves_c(self):
        L = pendulum()
        cp = CanalPotential([[0.0]], eps=0.1, k=2)
        rep = experiment_localization(L, cp, CanalExperimentConfig(n_random_loops=50))
        assert abs(rep["c_perturbed"] - 1.0) <= 2e-2
        assert rep["core_force_residual"] <= 1e-8
        assert rep["localized"]

    def test_canal_off_the_aubry_set_reported(self):
        # canal around the potential minimum: minimizing loops stay off-core
        L = pendulum()
        cp = CanalPotential([[0.5]], eps=0.2, k=2)
        rep = experiment_localization(L, cp, CanalExperimentConfig(n_random_loops=50))
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


def reference_localization(L, cp, config):
    """`experiment_localization` before its loops were priced in batches:
    one `action` and one `distance` call per loop, verbatim."""
    L_pert = perturb(L, cp)
    c_base = critical_value(L)
    c_pert = critical_value(L_pert)
    monotone = c_pert <= c_base + config.tolerance
    rng = np.random.default_rng(config.seed)
    loops = []
    axes = [np.arange(64) / 64 for _ in range(L.dim)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, L.dim)
    stride = max(len(mesh) // 256, 1)
    for x in mesh[::stride]:
        loops.append(BrokenPath.constant(x, 1.0))
    for _ in range(config.n_random_loops):
        m = int(rng.integers(3, 6))
        X = rng.random((m, L.dim))
        X = np.vstack([X, X[:1]])
        loops.append(BrokenPath.from_cover(X, float(rng.choice(np.geomspace(0.5, 8.0, 5)))))
    near_r = min(1.0 * (1e-2 / cp.eps) ** (1.0 / cp.k), 0.45 * np.sqrt(cp.dim))
    best = {"on": None, "off": None}
    best_overall = None
    for loop in loops:
        a = action(L_pert, loop, c_pert) / loop.T
        dist = float(np.max(cp.distance(wrap(loop.cover_knots()))))
        side = "on" if dist <= near_r else "off"
        if best[side] is None or a < best[side][0]:
            best[side] = (a, dist)
        if best_overall is None or a < best_overall[0]:
            best_overall = (a, dist)
    report = {
        "c_base": c_base,
        "c_perturbed": c_pert,
        "monotone": bool(monotone),
        "core_force_residual": core_force_residual(L, cp),
        "near_core_radius": near_r,
        "best_loop_action": best_overall[0],
        "best_loop_core_distance": best_overall[1],
        "best_on_core_action": None if best["on"] is None else best["on"][0],
        "best_off_core_action": None if best["off"] is None else best["off"][0],
        "localized": bool(best_overall[1] <= near_r),
    }
    if best["on"] is not None and best["off"] is not None:
        report["action_gap_off_minus_on"] = best["off"][0] - best["on"][0]
    return report


class TestCanalScanFold:
    """Batched loop pricing reports what the per-loop scan reported."""

    def test_benchmark_t1_point_canal(self):
        # the benchmark's canal job at its anchor values: magnetic pendulum, point core
        L = MechanicalLagrangian(1, FourierSeries(1, cos={1: 1.0}),
                                 OneForm([FourierSeries(1, cos={0: 0.85})]))
        cp = CanalPotential([[0.0]], eps=0.12, k=2)
        config = CanalExperimentConfig()
        assert experiment_localization(L, cp, config) == reference_localization(L, cp, config)

    def test_t2_polyline_canal(self):
        L = MechanicalLagrangian(2, FourierSeries(2, cos={(1, 0): 0.3, (0, 1): 0.2,
                                                          (1, 1): 0.1}))
        cp = CanalPotential([[0.1, 0.2], [0.5, 0.6], [0.8, 0.3]], eps=0.4, k=2,
                            winds=[[0, 0], [0, 0], [1, 0]])
        config = CanalExperimentConfig()
        report = experiment_localization(L, cp, config)
        assert report == reference_localization(L, cp, config)
        assert "action_gap_off_minus_on" in report
