"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances are pinned here, not configured elsewhere.
"""

import time

import numpy as np
import pytest

from torusdyn import entropy as ent
from torusdyn import hyperbolic as hyp
from torusdyn import sft
from torusdyn.action import NegativeLoopSearch, action_potential, critical_value
from torusdyn.cli import run as cli_run
from torusdyn.fields import FourierSeries, grid_maximum
from torusdyn.lagrangian import MechanicalLagrangian, PhaseState, el_flow
from torusdyn.perturbation import CanalPotential, core_force_residual, perturb
from torusdyn.suspension import parry_measure
from torusdyn.torus import wrap

LOG_PHI = np.log((1 + np.sqrt(5)) / 2)
LOG_CAT = np.log((3 + np.sqrt(5)) / 2)

# pinned tolerances for criterion 5
TRIANGLE_TOL = 1e-6     # Phi is within 1e-6 of the Maupertuis integral
LOOP_TOL = 1e-3


def _report(num, ok, detail, t0):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {status}  {detail}  [{time.time() - t0:.1f}s]")
    assert ok, f"criterion {num}: {detail}"


def pendulum():
    return MechanicalLagrangian(1, FourierSeries(1, cos={1: 1.0}))


def double_well():
    return MechanicalLagrangian(1, FourierSeries(1, cos={1: 0.3, 2: 1.0}))


def test_criterion_01_sft_entropy():
    t0 = time.time()
    err_golden = abs(sft.top_entropy(sft.GOLDEN_MEAN) - LOG_PHI)
    err_full = abs(sft.top_entropy(sft.full_shift(4)) - np.log(4))
    elapsed = time.time() - t0
    ok = err_golden <= 1e-9 and err_full <= 1e-12 and elapsed < 1.0
    _report(1, ok, f"golden err {err_golden:.1e} (<=1e-9), full-4 err {err_full:.1e} (<=1e-12)", t0)


def test_criterion_02_bressaud_quas_bound():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    holds = 0
    for _ in range(1000):
        m = int(rng.integers(2, 13))
        density = rng.uniform(0.1, 0.9)
        A = sft.random_transition_matrix(rng, m, density)
        period = sft.shortest_cycle(A).period
        assert period == sft.brute_force_min_period(A)  # independent oracle
        if period <= sft.bq_bound(A) + 1e-9:
            holds += 1
    elapsed = time.time() - t0
    ok = holds == 1000 and elapsed < 30.0
    _report(2, ok, f"bound held {holds}/1000 random essential matrices, {elapsed:.1f}s (<30s)", t0)


def test_criterion_03_block_recoding():
    t0 = time.time()
    three_a = sft.TransitionMatrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    three_b = sft.TransitionMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    worst_gap = np.inf
    checked_cycles = 0
    for A in (sft.GOLDEN_MEAN, three_a, three_b):
        h = sft.top_entropy(A)
        for n in range(1, 7):
            rec = sft.block_recode(A, n)
            worst_gap = min(worst_gap, sft.top_entropy(rec.matrix) - n * h)
            z = sft.shortest_cycle(rec.matrix)
            sft.project_cycle(rec, z, source=A)  # raises on any illegal window
            checked_cycles += 1
    elapsed = time.time() - t0
    ok = worst_gap >= -1e-9 and elapsed < 10.0
    _report(3, ok, f"min h(Z^n)-n*h = {worst_gap:.2e} (>=-1e-9), "
                   f"{checked_cycles} projected cycles window-legal, {elapsed:.1f}s (<10s)", t0)


def test_criterion_04_critical_values():
    t0 = time.time()
    err_pend = abs(critical_value(pendulum()) - 1.0)
    err_free = abs(critical_value(MechanicalLagrangian(1)))
    two_harm = MechanicalLagrangian(1, FourierSeries(1, cos={1: 1.0, 2: 0.5}))
    u_max, _ = grid_maximum(two_harm.potential, 1)
    err_two = abs(critical_value(two_harm) - u_max)
    elapsed = time.time() - t0
    ok = err_pend <= 1e-2 and err_free <= 1e-2 and err_two <= 1e-2 and elapsed < 300.0
    _report(4, ok, f"errors: pendulum {err_pend:.4f}, free {err_free:.4f}, "
                   f"two-harmonic {err_two:.4f} (all <=1e-2), {elapsed:.0f}s (<300s)", t0)


def test_criterion_05_action_potential_properties():
    t0 = time.time()
    failures = 0
    pairs_checked = 0
    for L in (pendulum(), double_well()):
        search = NegativeLoopSearch(L)
        c = critical_value(L, search=search)
        points = [np.array([v]) for v in (0.05, 0.31, 0.52, 0.68, 0.9)]
        for k in (c + 0.05, c + 0.3):
            table = {}
            for i, x in enumerate(points):
                for j, y in enumerate(points):
                    av = action_potential(L, k, x, y, search=search)
                    if av.is_minus_infinity:
                        failures += 1
                        continue
                    table[i, j] = av.value
                    pairs_checked += 1
            for i in range(len(points)):
                if table[i, i] < -LOOP_TOL:
                    failures += 1
            for i in range(len(points)):
                for j in range(len(points)):
                    for m in range(len(points)):
                        if len({i, j, m}) == 3:
                            if table[i, m] > table[i, j] + table[j, m] + 2 * TRIANGLE_TOL:
                                failures += 1
    elapsed = time.time() - t0
    ok = failures == 0 and pairs_checked >= 100 and elapsed < 600.0
    _report(5, ok, f"{pairs_checked} potentials, {failures} violations "
                   f"(triangle slack {2*TRIANGLE_TOL}, loop tol {LOOP_TOL}), {elapsed:.0f}s (<600s)", t0)


def test_criterion_06_energy_conservation():
    t0 = time.time()
    L = pendulum()
    traj = el_flow(L, PhaseState([0.5], [2.0]), T=10.0, dt=1e-3)
    E = 0.5 * (traj.vs**2).sum(axis=1) + L.potential(traj.xs)
    drift = float(np.max(np.abs(E - 1.0)))
    _report(6, drift <= 1e-7, f"separatrix energy drift {drift:.2e} (<=1e-7)", t0)


def test_criterion_07_jensen_inequality():
    t0 = time.time()
    rng = np.random.default_rng(7)
    bad = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 65))
        a = rng.uniform(0, 10, n) * (rng.random(n) < 0.9)
        lhs, rhs = ent.jensen_bound(a)
        if lhs > rhs + 1e-12:
            bad += 1
    uniform_err = abs(ent.jensen_bound(np.full(64, 1 / 64))[0] - np.log(64))
    ok = bad == 0 and uniform_err <= 1e-12
    _report(7, ok, f"{bad} violations in 1e4 vectors, uniform tightness err {uniform_err:.1e}", t0)


def test_criterion_08_entropy_estimators():
    t0 = time.time()
    tm = hyp.cat_map()
    F = hyp.orbit_ensemble(tm, 1000, 10, rng=np.random.default_rng(8))
    sandwich_ok = True
    for delta in (0.02, 0.05, 0.1):
        r = ent.spanning_count(F, 10, delta)
        s = ent.separated_count(F, 10, delta)
        r_half = ent.spanning_count(F, 10, delta / 2)
        sandwich_ok = sandwich_ok and (r <= s <= r_half)
    h_err = abs(ent.entropy_estimate(F, 10, 0.05) - LOG_CAT)

    nu = parry_measure(sft.GOLDEN_MEAN)
    N, n_atoms = 14, 400_000
    path = nu.sample(np.random.default_rng(88), n_atoms + N)
    mu = ent.WeightedMeasure.uniform(np.zeros((n_atoms, 1)))
    labels = ent.FinitePartition(path, 2)
    f = np.concatenate([np.arange(1, len(path)), [-1]])
    parry_err = abs(ent.refine_entropy(mu, labels, f, N) - LOG_PHI)
    elapsed = time.time() - t0
    ok = sandwich_ok and h_err <= 0.15 and parry_err <= 0.02 and elapsed < 120.0
    _report(8, ok, f"sandwich {sandwich_ok}, cat-rate err {h_err:.3f} (<=0.15), "
                   f"Parry N=14 err {parry_err:.3f} (<=0.02), {elapsed:.0f}s (<120s)", t0)


def test_criterion_09_conditional_entropy():
    t0 = time.time()
    # dyadic atom count: uniform weights sum to exactly 1.0, so the trivial
    # conditioning identity can hold bit for bit
    dyadic = sft.closed_walks(sft.full_shift(2), 6)
    mu_d = ent.WeightedMeasure.uniform(np.zeros((len(dyadic), 1)))
    P_d = ent.FinitePartition(np.array([sum(w) % 3 for w in dyadic]), 3)
    exact_self = ent.conditional_entropy(mu_d, P_d, P_d)
    exact_trivial = ent.conditional_entropy(mu_d, P_d, ent.FinitePartition.trivial(len(dyadic)))
    ok = exact_self == 0.0 and exact_trivial == ent.partition_entropy(mu_d, P_d)

    atoms = sft.closed_walks(sft.GOLDEN_MEAN, 10)
    index = {w: i for i, w in enumerate(atoms)}
    f = np.array([index[w[1:] + w[:1]] for w in atoms])
    mu = ent.WeightedMeasure.uniform(np.zeros((len(atoms), 1)))
    rng = np.random.default_rng(9)
    chain_bad = 0
    for _ in range(100):
        A = ent.FinitePartition(rng.integers(0, rng.integers(2, 5), len(atoms)))
        B = ent.FinitePartition(rng.integers(0, rng.integers(2, 5), len(atoms)))
        N = int(rng.integers(2, 7))
        lhs = ent.refine_entropy(mu, A, f, N)
        rhs = ent.refine_entropy(mu, B, f, N) + ent.conditional_entropy(mu, A, B)
        if lhs > rhs + 1e-12:
            chain_bad += 1
    ok = ok and chain_bad == 0
    _report(9, ok, f"H(A|A)=0 and H(A|triv)=H(A) exact, chain violations {chain_bad}/100", t0)


def test_criterion_10_shadowing():
    t0 = time.time()
    tm = hyp.cat_map()
    rng = np.random.default_rng(10)
    q = tm.shadowing_q
    worst_ratio, ratios = 0.0, []
    for _ in range(4):   # 4 chunks of 250 orbits, length 10^4
        batch = hyp.random_pseudo_orbit_batch(tm, 250, 10_000, 1e-4, rng)
        _, eps = hyp.shadow_batch(tm, batch)
        r = eps / 1e-4
        ratios.append(r.mean())
        worst_ratio = max(worst_ratio, float(r.max()))
    periodic_ok = True
    worst_residual = 0.0
    periods = []
    for modq in (5, 11, 29, 64):
        # genuine lattice cycle of the map mod modq, then small noise
        pts = hyp.orbit(tm, rng.integers(0, modq, 2) / modq, 200, modulus=modq)
        period = next(i for i in range(1, 200) if np.array_equal(pts[i], pts[0]))
        cycle = pts[:max(period, 2)] if period >= 2 else np.vstack([pts[0], pts[0]])
        noisy = wrap(cycle + rng.uniform(-1, 1, cycle.shape) * 1e-4)
        res = hyp.periodic_shadow(tm, hyp.PseudoOrbit(tm, noisy))
        periods.append(period)
        worst_residual = max(worst_residual, res.cover_residual)
        periodic_ok = periodic_ok and res.cover_residual <= 1e-12
    elapsed = time.time() - t0
    ok = worst_ratio <= q and periodic_ok and elapsed < 60.0
    _report(10, ok, f"1000 orbits: max eps/delta {worst_ratio:.3f} <= Q={q:.3f}, "
                    f"mean {np.mean(ratios):.3f}; periodic (periods {periods}) residual "
                    f"{worst_residual:.1e} (<=1e-12), {elapsed:.0f}s (<60s)", t0)


def test_criterion_11_h_expansivity():
    t0 = time.time()
    tm = hyp.cat_map()
    F = hyp.orbit_ensemble(tm, 1000, 40, backward=30, rng=np.random.default_rng(11))
    probe = ent.h_expansivity_probe(F, 0.01, 30, 0.05)
    # eps at the diameter: the class is everything, recovering the full estimate
    F8 = hyp.orbit_ensemble(tm, 1000, 10, rng=np.random.default_rng(8))
    full = ent.entropy_estimate(F8, 10, 0.05)
    recovered = ent.h_expansivity_probe(F8, 2.0, 0, 0.05, sample=[0])
    ok = probe <= 0.05 and abs(recovered - full) < 1e-12
    _report(11, ok, f"probe {probe:.3f} (<=0.05), eps=diam recovers {recovered:.3f}={full:.3f}", t0)


def test_criterion_12_perturbation_monotonicity():
    t0 = time.time()
    violations = 0
    worst_residual = 0.0
    runs = 0
    for L in (pendulum(), double_well()):
        _, x_max = grid_maximum(L.potential, 1)
        c_base = critical_value(L)
        for eps in (0.05, 0.2):
            for k in (2, 3, 4):
                cp = CanalPotential([x_max], eps=eps, k=k)
                c_pert = critical_value(perturb(L, cp))
                runs += 1
                if c_pert > c_base + 2e-2:
                    violations += 1
                worst_residual = max(worst_residual, core_force_residual(L, cp))
    elapsed = time.time() - t0
    ok = violations == 0 and worst_residual <= 1e-8
    _report(12, ok, f"{runs} (eps,k) runs, {violations} monotonicity violations, "
                    f"core force residual {worst_residual:.1e} (<=1e-8), {elapsed:.0f}s", t0)


def test_criterion_13_upper_semicontinuity():
    t0 = time.time()
    tm = hyp.cat_map()
    base = ent.entropy_estimate(hyp.orbit_ensemble(tm, 1000, 10, rng=np.random.default_rng(13)),
                                10, 0.05)
    estimates = []
    for eps in (1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
        F = hyp.perturbed_orbit_ensemble(tm, eps, 1000, 10, rng=np.random.default_rng(13))
        estimates.append(ent.entropy_estimate(F, 10, 0.05))
    limsup = max(estimates[-3:])   # the tail of the vanishing-perturbation sequence
    ok = limsup <= base + 0.05
    _report(13, ok, f"limsup tail {limsup:.3f} <= base {base:.3f} + 0.05 "
                    f"(levels: {[round(e, 3) for e in estimates]})", t0)


def test_criterion_14_cli_determinism(capsys, tmp_path):
    t0 = time.time()
    cfg = tmp_path / "pendulum.cfg"
    cfg.write_text("[lagrangian]\ndim = 1\n\n[potential.cos]\n1 = 1.0\n")
    outputs = []
    for threads in ("1", "8", "1", "8"):
        code = cli_run(["--threads", threads, "shadow", "--delta", "1e-4",
                        "--length", "2000", "--count", "8", "--seed", "14"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    shadow_ok = len(set(outputs)) == 1
    outputs2 = []
    for _ in range(2):
        code = cli_run(["entropy-estimate", "--orbits", "300", "--steps", "8", "--seed", "5"])
        assert code == 0
        outputs2.append(capsys.readouterr().out)
    ok = shadow_ok and outputs2[0] == outputs2[1]
    with capsys.disabled():
        _report(14, ok, f"byte-identical across runs and threads 1/8: shadow {shadow_ok}", t0)
