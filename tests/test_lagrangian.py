import hashlib
import json
import os

import numpy as np
import pytest

from torusdyn.fields import FourierSeries, OneForm, SumField, grid_maximum
from torusdyn.lagrangian import (
    InvalidBound,
    MechanicalLagrangian,
    NonFiniteState,
    PhaseState,
    Trajectory,
    apriori_speed_bound,
    el_flow,
    energy,
)
from torusdyn.perturbation import CanalPotential, perturb

from helpers import acceleration, curl2, force, lagrangian, times

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def pendulum():
    return MechanicalLagrangian(1, FourierSeries(1, cos={1: 1.0}))


def free(dim=1):
    return MechanicalLagrangian(dim)


def separatrix_state():
    return PhaseState(np.array([0.5]), np.array([2.0]))  # E = 2 - 1 = 1


def magnetic_2d():
    eta = OneForm([FourierSeries(2, cos={(0, 1): 0.1}), FourierSeries(2)])
    U = FourierSeries(2, cos={(1, 0): 0.3, (0, 1): 0.2})
    return MechanicalLagrangian(2, U, eta)


def one_batch_grid_maximum(field, dim):
    """`grid_maximum` with the whole grid scanned in one batch, then the
    same Newton polish of the grid maximum, kept where it improves."""
    from torusdyn.fields import _newton_polish
    from torusdyn.torus import grid, wrap

    mesh = grid(512, dim)
    vals = field(mesh)
    i = int(np.argmax(vals))
    x = _newton_polish(field, mesh[i])
    val = float(field(x))
    return (val, wrap(x)) if val > vals[i] else (float(vals[i]), mesh[i])


def reference_fourier(f, x):
    """FourierSeries values and gradients before the flat product, verbatim."""
    x = np.asarray(x, dtype=float)
    phase = 2.0 * np.pi * (x @ f._modes.T)
    value = np.cos(phase) @ f._a + np.sin(phase) @ f._b
    coeff = (-np.sin(phase) * f._a + np.cos(phase) * f._b) * (2.0 * np.pi)
    return value, coeff @ f._modes


def same_bits(u, v):
    u, v = np.asarray(u), np.asarray(v)
    return u.shape == v.shape and np.array_equal(u.view(np.int64), v.view(np.int64))


class TestFlatFourierProduct:
    """Stacks evaluated as one (N, d) block keep the bits of the stacked products."""

    SERIES = [
        FourierSeries(2, cos={(1, 0): 0.3, (0, 1): -0.2, (1, 1): 0.1, (2, -1): 0.05}),
        FourierSeries(2, cos={(0, 0): 0.4, (1, 0): 0.7}, sin={(1, 1): -0.3, (0, 3): 0.2}),
        FourierSeries(2, sin={(0, 1): 1.0}),
        FourierSeries(1, cos={0: 1.5, 1: 1.0, 2: -0.5}),
        FourierSeries(1, cos={1: 1.0}, sin={2: 0.5}),
    ]

    @pytest.mark.parametrize("f", SERIES)
    @pytest.mark.parametrize("shape", [(7, 32, 8), (3, 1, 8), (50, 8), (4, 5, 1), (2, 3, 4, 8),
                                       (8,), ()])
    def test_stack_matches_the_stacked_evaluation(self, f, shape):
        x = np.random.default_rng(len(shape)).uniform(-2.0, 2.0, shape + (f.dim,))
        value, grad = reference_fourier(f, x)
        assert same_bits(f(x), value) and same_bits(f.grad(x), grad)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_cosine_only_gradient_keeps_its_signed_zeros(self, zero):
        f = FourierSeries(2, cos={(1, 0): 0.3, (0, 1): -0.2, (1, -1): 0.1})
        x = np.full((3, 4, 8, 2), zero)
        x[1, :, :, 1] = 0.25
        value, grad = reference_fourier(f, x)
        assert same_bits(f(x), value) and same_bits(f.grad(x), grad)
        assert same_bits(f.grad(x[0, 0, 0]), reference_fourier(f, x[0, 0, 0])[1])

    def test_point_grad_without_constant_mode_or_zero_half(self):
        pts = np.random.default_rng(8).uniform(-3.0, 3.0, (200, 2))
        pts[:10] = 0.0
        U2 = FourierSeries(2, cos={(0, 0): 2.0, (1, 0): 0.7, (0, 1): -0.3})
        g = U2.point_grad()
        assert np.array_equal([g(*p) for p in pts.tolist()], U2.grad(pts))
        U1 = FourierSeries(1, cos={0: -1.0, 1: 0.4}, sin={})
        g = U1.point_grad()
        assert np.array_equal([g(*p) for p in pts[:, :1].tolist()],
                              np.column_stack([U1.grad(pts[:, :1]), np.zeros(200)]))


class TestFields:
    @pytest.mark.parametrize("half", ["cos", "sin"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficient_raises(self, half, value):
        # was accepted, and the critical value of its Lagrangian read nan or inf
        with pytest.raises(ValueError, match=rf"{half} coefficient of mode \(1,\) .* {value}"):
            FourierSeries(1, **{half: {0: 0.5, 1: value}})

    def test_fourier_values_and_grad(self):
        f = FourierSeries(1, cos={1: 1.0}, sin={2: 0.5})
        x = np.array([[0.1], [0.3], [0.9]])
        expect = np.cos(2 * np.pi * x[:, 0]) + 0.5 * np.sin(4 * np.pi * x[:, 0])
        assert np.allclose(f(x), expect)
        h = 1e-6
        fd = (f(x + h) - f(x - h)) / (2 * h)
        assert np.allclose(f.grad(x)[:, 0], fd, atol=1e-6)

    def test_value_bounds_contain_range(self):
        f = FourierSeries(1, cos={0: 0.2, 1: 1.0, 2: 0.5})
        lo, hi = f.value_bounds()
        xs = np.linspace(0, 1, 1000)[:, None]
        assert lo - 1e-12 <= f(xs).min() and f(xs).max() <= hi + 1e-12

    def test_grid_extremum_two_harmonic(self):
        f = FourierSeries(1, cos={1: 1.0, 2: 0.5})
        hi, argmax = grid_maximum(f, 1)
        assert abs(hi - 1.5) < 1e-10
        assert min(argmax[0], 1 - argmax[0]) < 1e-6

    def test_grid_extremum_matches_one_batch(self):
        # the batched scan keeps the values and first arguments of one batch,
        # so the polish starts where it would from one batch
        f = FourierSeries(2, cos={(1, 0): 0.3, (0, 1): 0.2, (1, 1): 0.1},
                          sin={(2, 1): 0.05, (0, 3): 0.07})
        canal = CanalPotential([[0.1, 0.2], [0.5, 0.6], [0.8, 0.3]], eps=0.4, k=2,
                               winds=[[0, 0], [0, 0], [1, 0]])
        for field in (f, SumField([(1.0, f), (-1.0, canal)])):
            got = grid_maximum(field, 2)
            want = one_batch_grid_maximum(field, 2)
            assert got[0] == want[0] and got[1].tobytes() == want[1].tobytes()

    def test_sum_field(self):
        f = FourierSeries(1, cos={1: 1.0})
        g = FourierSeries(1, cos={2: 0.25})
        s = SumField([(1.0, f), (-1.0, g)])
        x = np.array([[0.2]])
        assert np.allclose(s(x), f(x) - g(x))
        assert np.allclose(s.grad(x), f.grad(x) - g.grad(x))
        lo, hi = s.value_bounds()
        assert lo <= -1.25 + 1e-12 and hi >= 1.25 - 1e-12

    def test_curl(self):
        eta = OneForm([FourierSeries(2, cos={(0, 1): 0.1}), FourierSeries(2)])
        x = np.array([[0.3, 0.2]])
        # d1 eta2 - d2 eta1 = 0 - (-0.1*2pi sin(2pi x2))
        expect = 0.1 * 2 * np.pi * np.sin(2 * np.pi * 0.2)
        assert np.allclose(curl2(eta, x), expect)


class TestEnergy:
    def test_free_rest_is_zero(self):
        assert energy(free(), PhaseState([0.3], [0.0])) == 0.0

    def test_pendulum_unstable_equilibrium(self):
        assert abs(energy(pendulum(), PhaseState([0.0], [0.0])) - 1.0) < 1e-15

    def test_magnetic_term_cancels(self):
        L_mag = magnetic_2d()
        L_plain = MechanicalLagrangian(2, L_mag.potential)
        s = PhaseState([0.3, 0.7], [0.4, -0.2])
        assert energy(L_mag, s) == energy(L_plain, s)


class TestElFlow:
    def test_free_straight_line(self):
        traj = el_flow(free(), PhaseState([0.0], [0.3]), T=2.0, dt=1e-3)
        t = times(traj)
        assert np.allclose(traj.xs[:, 0], (0.3 * t) % 1.0, atol=1e-12)
        assert np.allclose(traj.vs, 0.3)

    def test_fixed_point_stays(self):
        traj = el_flow(pendulum(), PhaseState([0.0], [0.0]), T=1.0, dt=1e-3)
        assert np.allclose(traj.xs, 0.0) and np.allclose(traj.vs, 0.0)

    def test_separatrix_energy_drift(self):
        L = pendulum()
        traj = el_flow(L, separatrix_state(), T=10.0, dt=1e-3)
        E = 0.5 * (traj.vs**2).sum(axis=1) + L.potential(traj.xs)
        assert np.max(np.abs(E - 1.0)) <= 1e-8

    def test_energy_conservation_generic(self):
        L = pendulum()
        for v0 in (0.5, 1.7, 3.0):
            traj = el_flow(L, PhaseState([0.21], [v0]), T=5.0, dt=1e-3)
            E = 0.5 * (traj.vs**2).sum(axis=1) + L.potential(traj.xs)
            assert np.max(np.abs(E - E[0])) <= 1e-7 * (1 + 5.0)

    def test_reversibility(self):
        L = pendulum()
        fwd = el_flow(L, PhaseState([0.37], [1.3]), T=4.0, dt=1e-3)
        back = el_flow(L, PhaseState(fwd.xs[-1], -fwd.vs[-1]), T=4.0, dt=1e-3)
        dx = abs(back.xs[-1, 0] - 0.37)
        assert min(dx, 1 - dx) < 1e-6
        assert abs(-back.vs[-1, 0] - 1.3) < 1e-6

    def test_flow_property(self):
        L = pendulum()
        whole = el_flow(L, separatrix_state(), T=3.0, dt=1e-3)
        first = el_flow(L, separatrix_state(), T=1.0, dt=1e-3)
        second = el_flow(L, PhaseState(first.xs[-1], first.vs[-1]), T=2.0, dt=1e-3)
        dx = abs(whole.xs[-1, 0] - second.xs[-1, 0])
        assert min(dx, 1 - dx) < 1e-6
        assert abs(whole.vs[-1, 0] - second.vs[-1, 0]) < 1e-6

    def test_magnetic_energy_conserved_rk4(self):
        L = magnetic_2d()
        traj = el_flow(L, PhaseState([0.2, 0.6], [0.7, -0.3]), T=5.0, dt=1e-3)
        E = 0.5 * (traj.vs**2).sum(axis=1) + L.potential(traj.xs)
        assert np.max(np.abs(E - E[0])) <= 1e-9

    def test_exact_one_form_does_not_bend_1d(self):
        # on T^1 every one-form has vanishing exterior derivative
        U = FourierSeries(1, cos={1: 0.4})
        plain = MechanicalLagrangian(1, U)
        s0 = PhaseState([0.1], [1.1])
        a = el_flow(plain, s0, T=2.0, dt=1e-3)
        b = el_flow(plain, s0, T=2.0, dt=1e-3, integrator="rk4")
        assert np.allclose(a.xs, b.xs, atol=1e-9)

    def test_non_finite_state(self):
        # x = 6.7e307 is finite, but 2 pi x overflows: math.sin(inf) is
        # mapped to a nan force, and the flow stops at that step
        with pytest.raises(NonFiniteState, match="at step 1 of 2"):
            el_flow(pendulum(), PhaseState([0.0], [1e308]), T=1.0, dt=0.5)
        with pytest.raises(NonFiniteState, match="initial"):
            el_flow(pendulum(), PhaseState([0.0], [np.nan]), T=1.0, dt=0.5)

    def test_non_finite_field_stops_at_first_step(self):
        class Cliff:
            """A user field whose gradient turns nan beyond x = 0.3."""
            dim = 1

            def __call__(self, x):
                return np.zeros(np.shape(x)[:-1])

            def grad(self, x):
                return np.where(np.asarray(x) > 0.3, np.nan, 0.0)

        with pytest.raises(NonFiniteState, match="at step 3 of 1000"):
            el_flow(MechanicalLagrangian(1, Cliff()), PhaseState([0.0], [0.125]),
                    T=1000.0, dt=1.0, integrator="verlet")

    @pytest.mark.parametrize("T,dt", [(np.inf, 1e-3), (np.nan, 1e-3), (1.0, np.nan),
                                      (1.0, np.inf), (-np.inf, 1e-3)])
    def test_non_finite_time_is_value_error(self, T, dt):
        with pytest.raises(ValueError, match="finite"):
            el_flow(pendulum(), separatrix_state(), T=T, dt=dt)

    def test_bad_integrator_and_shape(self):
        with pytest.raises(ValueError, match="unknown integrator"):
            el_flow(pendulum(), separatrix_state(), T=1.0, dt=0.1, integrator="euler")
        with pytest.raises(ValueError, match="shape"):
            el_flow(magnetic_2d(), separatrix_state(), T=1.0, dt=0.1)

    def test_positions_wrap_into_unit_interval(self):
        # -1e-17 % 1.0 rounds to 1.0, outside [0, 1)
        assert PhaseState([-1e-17], [0.0]).x[0] == 0.0
        traj = el_flow(free(), PhaseState([0.0], [-1e-17]), T=1.0, dt=0.5)
        assert (traj.xs >= 0.0).all() and (traj.xs < 1.0).all()
        assert PhaseState([0.75, -0.25], [0.0, 0.0]).x.tolist() == [0.75, 0.75]

    def test_validation(self):
        with pytest.raises(ValueError):
            el_flow(free(), PhaseState([0.0], [1.0]), T=0.5, dt=1.0)
        tiny = Trajectory(dt=1.0, xs=np.zeros((2, 1)), vs=np.zeros((2, 1)))
        assert len(tiny) == 2
        with pytest.raises(ValueError):
            Trajectory(dt=1.0, xs=np.zeros((1, 1)), vs=np.zeros((1, 1)))


class TestAprioriSpeedBound:
    def test_free_lagrangian_guarantee(self):
        a0 = apriori_speed_bound(free(), 1.0)
        # free orbits with mean action |v|^2/2 < 1 have |v| < sqrt(2)
        assert np.sqrt(2.0) < a0
        rng = np.random.default_rng(0)
        for _ in range(100):
            v = rng.uniform(-1.4, 1.4)
            if 0.5 * v * v < 1.0:
                assert abs(v) < a0

    def test_pendulum_monte_carlo(self):
        L = pendulum()
        a0 = apriori_speed_bound(L, 2.0)
        rng = np.random.default_rng(1)
        checked = 0
        for _ in range(60):
            s0 = PhaseState([rng.random()], [rng.uniform(-3, 3)])
            traj = el_flow(L, s0, T=2.0, dt=2e-3)
            acts = lagrangian(L, traj.xs, traj.vs)
            if acts.mean() < 2.0:
                checked += 1
                assert np.max(np.abs(traj.vs)) < a0
        assert checked > 10

    def test_monotone_in_c(self):
        L = pendulum()
        cs = [0.5, 1.0, 2.0, 5.0]
        bounds = [apriori_speed_bound(L, c) for c in cs]
        assert all(a <= b for a, b in zip(bounds, bounds[1:]))

    def test_below_infimum_raises(self):
        with pytest.raises(InvalidBound):
            apriori_speed_bound(pendulum(), -1.5)  # inf L = -max U = -1

    def test_nan_level_raises(self):
        # returned nan
        with pytest.raises(ValueError, match="NaN"):
            apriori_speed_bound(pendulum(), float("nan"))


# ---------------------------------------------------------------------------
# The float kernel against the numpy steppers it replaced

_YOSHIDA_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_YOSHIDA = (_YOSHIDA_W1, 1.0 - 2.0 * _YOSHIDA_W1, _YOSHIDA_W1)


def _verlet_steps(L, x, v, dt, n):
    xs = np.empty((n + 1,) + x.shape)
    vs = np.empty_like(xs)
    xs[0], vs[0] = x % 1.0, v
    acc = force(L, x)
    for i in range(n):
        vh = v + 0.5 * dt * acc
        x = x + dt * vh
        acc = force(L, x)
        v = vh + 0.5 * dt * acc
        xs[i + 1], vs[i + 1] = x % 1.0, v
    return xs, vs


def _yoshida4_steps(L, x, v, dt, n):
    xs = np.empty((n + 1,) + x.shape)
    vs = np.empty_like(xs)
    xs[0], vs[0] = x % 1.0, v
    for i in range(n):
        for w in _YOSHIDA:
            h = w * dt
            vh = v + 0.5 * h * force(L, x)
            x = x + h * vh
            v = vh + 0.5 * h * force(L, x)
        xs[i + 1], vs[i + 1] = x % 1.0, v
    return xs, vs


def _rk4_steps(L, x, v, dt, n):
    xs = np.empty((n + 1,) + x.shape)
    vs = np.empty_like(xs)
    xs[0], vs[0] = x % 1.0, v
    for i in range(n):
        k1x, k1v = v, acceleration(L, x, v)
        k2x, k2v = v + 0.5 * dt * k1v, acceleration(L, x + 0.5 * dt * k1x, v + 0.5 * dt * k1v)
        k3x, k3v = v + 0.5 * dt * k2v, acceleration(L, x + 0.5 * dt * k2x, v + 0.5 * dt * k2v)
        k4x, k4v = v + dt * k3v, acceleration(L, x + dt * k3x, v + dt * k3v)
        x = x + dt / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        xs[i + 1], vs[i + 1] = x % 1.0, v
    return xs, vs


REFERENCE = {"verlet": _verlet_steps, "yoshida4": _yoshida4_steps, "rk4": _rk4_steps}


class Forwarding:
    """A plug-in wrapper that counts `grad` calls and forwards everything else."""

    def __init__(self, field):
        self._field = field
        self.grad_calls = 0

    def __call__(self, x):
        return self._field(x)

    def grad(self, x):
        self.grad_calls += 1
        return self._field.grad(x)

    def __getattr__(self, name):
        return getattr(self._field, name)


def bench_magnetic_t2():
    """The T^2 magnetic field of the benchmark's RK4 flow job (seed 1) and its state."""
    U = FourierSeries(2, cos={(1, 0): 0.49308819875443377, (1, 1): 0.29199991293921923})
    eta = OneForm([FourierSeries(2, cos={(0, 0): 0.3777023376693132, (0, 1): 0.21931475649790033}),
                   FourierSeries(2, cos={(0, 0): -0.3450250116408176, (1, 0): 0.12557843646223885})])
    s0 = PhaseState([0.33267410976172407, 0.1848711541587046],
                    [-0.6769713613571505, 0.8537665979640556])
    return MechanicalLagrangian(2, U, eta), s0


def perturbed_pendulum():
    return perturb(MechanicalLagrangian(1, FourierSeries(1, cos={1: 1.0})),
                   CanalPotential([0.0], eps=0.1, k=2))


def perturbed_magnetic_2d():
    return perturb(magnetic_2d(), CanalPotential([[0.2, 0.3], [0.7, 0.4]], eps=0.2, k=3))


def perturbed_mechanical_2d():
    return perturb(MechanicalLagrangian(2, magnetic_2d().potential),
                   CanalPotential([[0.2, 0.3], [0.7, 0.4]], eps=0.2, k=3))


def run_both(L, s0, T, dt, integrator):
    new = el_flow(L, s0, T=T, dt=dt, integrator=integrator)
    old = REFERENCE[integrator](L, s0.x.copy(), s0.v.copy(), dt, int(round(T / dt)))
    return new, old


def digest(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


class TestStepKernel:
    @pytest.mark.parametrize("make,s0,T,integrator", [
        (pendulum, separatrix_state(), 10.0, "yoshida4"),
        (lambda: bench_magnetic_t2()[0], bench_magnetic_t2()[1], 5.0, "rk4"),
        (magnetic_2d, PhaseState([0.2, 0.6], [0.7, -0.3]), 5.0, "rk4"),
        (pendulum, PhaseState([0.21], [1.7]), 5.0, "verlet"),
        (lambda: MechanicalLagrangian(1, FourierSeries(1, cos={1: 1.0}, sin={1: 0.3})),
         PhaseState([0.4], [-1.1]), 5.0, "rk4"),
        (lambda: MechanicalLagrangian(2, magnetic_2d().potential),
         PhaseState([0.1, 0.9], [0.5, 0.8]), 5.0, "yoshida4"),
        (perturbed_pendulum, PhaseState([0.3], [1.2]), 2.0, "yoshida4"),
        (perturbed_pendulum, PhaseState([0.3], [1.2]), 2.0, "rk4"),
        (perturbed_magnetic_2d, PhaseState([0.2, 0.6], [0.7, -0.3]), 1.0, "rk4"),
        (perturbed_mechanical_2d, PhaseState([0.1, 0.9], [0.5, 0.8]), 1.0, "yoshida4"),
    ], ids=["separatrix", "bench_magnetic_t2", "magnetic_2d", "verlet", "rk4_mechanical_t1",
            "mechanical_t2", "canal_yoshida4", "canal_rk4", "canal_magnetic_t2",
            "canal_mechanical_t2"])
    def test_bit_equal_to_numpy_steppers(self, make, s0, T, integrator):
        new, (xs, vs) = run_both(make(), s0, T, 1e-3, integrator)
        assert new.xs.shape == xs.shape and new.vs.shape == vs.shape
        assert new.xs.tobytes() == xs.tobytes()
        assert new.vs.tobytes() == vs.tobytes()

    def test_forwarding_wrapper_takes_the_float_path(self):
        wrapped = Forwarding(FourierSeries(1, cos={1: 1.0}))
        L = MechanicalLagrangian(1, wrapped)
        new = el_flow(L, separatrix_state(), T=2.0, dt=1e-3)
        assert wrapped.grad_calls == 0
        xs, vs = _yoshida4_steps(pendulum(), separatrix_state().x, separatrix_state().v, 1e-3, 2000)
        assert new.xs.tobytes() == xs.tobytes() and new.vs.tobytes() == vs.tobytes()

    @pytest.mark.parametrize("L,s0", [
        (MechanicalLagrangian(1, FourierSeries(1, cos={1: 1.0, 2: 0.4, 3: -0.2, 5: 0.1},
                                               sin={1: 0.3, 3: 0.25, 4: -0.15})),
         PhaseState([0.13], [1.9])),
        (MechanicalLagrangian(2, FourierSeries(2, cos={(1, 0): 0.5, (2, 1): 0.3},
                                               sin={(1, -3): 0.2}),
                              OneForm([FourierSeries(2, cos={(0, 1): 0.4, (3, 2): 0.1}),
                                       FourierSeries(2, sin={(1, 0): 0.3, (1, 1): -0.2})])),
         PhaseState([0.62, 0.08], [-0.4, 1.3])),
    ], ids=["five_modes_t1", "three_modes_magnetic_t2"])
    def test_many_modes_within_summation_order(self, L, s0):
        # numpy's @ sums these modes in another order; with numpy 2.4 and
        # OpenBLAS the two fields differ by at most 2.2e-12 over T = 5
        new, (xs, vs) = run_both(L, s0, 5.0, 1e-3, "yoshida4" if L.dim == 1 else "rk4")
        dx = np.abs(new.xs - xs)
        assert np.minimum(dx, 1.0 - dx).max() <= 1e-10
        assert np.abs(new.vs - vs).max() <= 1e-10

    def test_point_grad_matches_grad(self):
        rng = np.random.default_rng(5)
        pts2 = rng.uniform(-3.0, 3.0, (200, 2))
        U2 = FourierSeries(2, cos={(1, 0): 0.7}, sin={(1, 1): -0.3})
        g = U2.point_grad()
        assert np.array_equal([g(*p) for p in pts2.tolist()], U2.grad(pts2))
        W2 = FourierSeries(2, cos={(0, 0): 2.0, (3, 1): 0.7, (1, -2): -0.3}, sin={(0, 5): 0.4})
        g = W2.point_grad()
        assert np.allclose([g(*p) for p in pts2.tolist()], W2.grad(pts2), rtol=0, atol=1e-12)
        U1 = FourierSeries(1, cos={1: 1.0}, sin={1: -0.5})
        g = U1.point_grad()
        pts1 = rng.uniform(-3.0, 3.0, (200, 1))
        assert np.array_equal([g(*p) for p in pts1.tolist()],
                              np.column_stack([U1.grad(pts1), np.zeros(200)]))
        # on T^1 the second coordinate is ignored
        assert all(g(p, x1) == g(p) for p, x1 in zip(pts1[:, 0].tolist(), pts2[:, 1].tolist()))
        assert FourierSeries(2).point_grad()(0.3, 0.4) == (0.0, 0.0)
        assert np.isnan(U1.point_grad()(1e308)[0])
        with pytest.raises(ValueError):
            FourierSeries(3, cos={(1, 0, 0): 1.0}).point_grad()

    def test_golden_digests(self):
        """xs/vs digests recorded from the numpy steppers; they pin the bits
        of this platform's libm sin/cos, which numpy and math share here."""
        with open(os.path.join(GOLDEN_DIR, "el_flow_digests.json")) as fh:
            golden = json.load(fh)
        L, s0 = bench_magnetic_t2()
        flows = {
            "criterion_06_separatrix": el_flow(pendulum(), PhaseState([0.5], [2.0]),
                                               T=10.0, dt=1e-3),
            "magnetic_rk4_t2": el_flow(L, s0, T=5.0, dt=1e-3, integrator="rk4"),
        }
        for name, traj in flows.items():
            assert list(traj.xs.shape) == golden[name]["shape"]
            assert digest(traj.xs) == golden[name]["xs_sha256"], name
            assert digest(traj.vs) == golden[name]["vs_sha256"], name
