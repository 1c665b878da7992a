import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from torusdyn import entropy as ent
from torusdyn.entropy import (
    FinitePartition,
    LabeledOrbitEnsemble,
    WeightedMeasure,
    build_inner_partition,
    conditional_entropy,
    entropy_estimate,
    gamma_set,
    h_expansivity_probe,
    jensen_bound,
    partition_entropy,
    refine_entropy,
    separated_count,
    spanning_count,
    torus_metric,
)
from torusdyn.hyperbolic import cat_map, orbit_ensemble, perturbed_orbit_ensemble
from torusdyn.sft import GOLDEN_MEAN, closed_walks
from torusdyn.suspension import parry_measure

LOG_PHI = np.log((1 + np.sqrt(5)) / 2)
LOG_CAT = np.log((3 + np.sqrt(5)) / 2)


def single_orbit_ensemble():
    pts = np.linspace(0, 0.4, 9)[None, :, None] % 1.0
    return LabeledOrbitEnsemble(np.concatenate([pts, pts * 0.5], axis=2))


class TestSpanningSeparated:
    def test_single_orbit(self):
        F = single_orbit_ensemble()
        assert spanning_count(F, 4, 0.1) == 1
        assert separated_count(F, 4, 0.1) == 1

    def test_two_far_orbits(self):
        orbits = np.zeros((2, 5, 2))
        orbits[1] += 0.4
        F = LabeledOrbitEnsemble(orbits)
        assert spanning_count(F, 4, 0.05) == 2
        assert separated_count(F, 4, 0.05) == 2

    def test_two_close_orbits(self):
        orbits = np.zeros((2, 5, 2))
        orbits[1] += 0.01
        F = LabeledOrbitEnsemble(orbits)
        assert spanning_count(F, 4, 0.05) == 1

    def test_sandwich_on_cat_ensembles(self):
        tm = cat_map()
        for seed in range(3):
            F = orbit_ensemble(tm, 300, 8, rng=np.random.default_rng(seed))
            for delta in (0.02, 0.05, 0.1, 0.2):
                r = spanning_count(F, 6, delta)
                s = separated_count(F, 6, delta)
                r_half = spanning_count(F, 6, delta / 2)
                assert r <= s <= r_half

    def test_horizon_check(self):
        F = single_orbit_ensemble()
        with pytest.raises(ValueError):
            spanning_count(F, 100, 0.1)


class TestEntropyEstimate:
    def test_cat_map_rate(self):
        tm = cat_map()
        F = orbit_ensemble(tm, 600, 10, rng=np.random.default_rng(1))
        h = entropy_estimate(F, 10, 0.05)
        assert abs(h - LOG_CAT) <= 0.15

    def test_single_orbit_zero(self):
        assert entropy_estimate(single_orbit_ensemble(), 4, 0.1) == 0.0

    def test_frozen_dynamics_zero(self):
        orbits = np.tile(np.random.default_rng(2).random((40, 1, 2)), (1, 8, 1))
        F = LabeledOrbitEnsemble(orbits)
        assert entropy_estimate(F, 7, 0.05) <= 1e-12


class TestPartitionEntropy:
    def test_one_cell(self):
        mu = WeightedMeasure.uniform(np.zeros((5, 1)))
        assert partition_entropy(mu, FinitePartition.trivial(5)) == 0.0

    def test_uniform_k_cells(self):
        mu = WeightedMeasure.uniform(np.zeros((6, 1)))
        P = FinitePartition(np.arange(6) % 3, 3)
        assert abs(partition_entropy(mu, P) - np.log(3)) < 1e-12

    def test_half_quarter_quarter(self):
        mu = WeightedMeasure(np.zeros((3, 1)), [0.5, 0.25, 0.25])
        P = FinitePartition([0, 1, 2], 3)
        assert abs(partition_entropy(mu, P) - 1.5 * np.log(2)) < 1e-12


class TestConditionalEntropy:
    def test_conditioned_on_itself(self):
        mu = WeightedMeasure.uniform(np.zeros((8, 1)))
        P = FinitePartition(np.arange(8) % 4, 4)
        assert conditional_entropy(mu, P, P) == 0.0

    def test_conditioned_on_trivial(self):
        mu = WeightedMeasure(np.zeros((4, 1)), [0.4, 0.3, 0.2, 0.1])
        P = FinitePartition([0, 1, 2, 3], 4)
        Q = FinitePartition.trivial(4)
        assert conditional_entropy(mu, P, Q) == partition_entropy(mu, P)

    def test_crosswise_cells(self):
        # four uniform atoms, P splits {01|23}, Q splits {02|13}: H(P|Q) = log 2
        mu = WeightedMeasure.uniform(np.zeros((4, 1)))
        P = FinitePartition([0, 0, 1, 1], 2)
        Q = FinitePartition([0, 1, 0, 1], 2)
        assert abs(conditional_entropy(mu, P, Q) - np.log(2)) < 1e-12


def cyclic_shift_system(p, matrix=GOLDEN_MEAN):
    """Rotation-invariant atoms: all closed p-walks, uniform weights, f = shift."""
    atoms = closed_walks(matrix, p)
    index = {w: i for i, w in enumerate(atoms)}
    f = np.array([index[w[1:] + w[:1]] for w in atoms])
    mu = WeightedMeasure.uniform(np.zeros((len(atoms), 1)))
    return atoms, mu, f


class TestRefineEntropy:
    def test_identity_map_n1(self):
        mu = WeightedMeasure(np.zeros((3, 1)), [0.5, 0.25, 0.25])
        P = FinitePartition([0, 1, 2], 3)
        f = np.arange(3)
        assert refine_entropy(mu, P, f, 1) == partition_entropy(mu, P)

    def test_bernoulli_full_shift_log2_all_n(self):
        # all binary closed p-walks with uniform weights realize Bernoulli(1/2)
        from torusdyn.sft import full_shift

        atoms, mu, f = cyclic_shift_system(8, full_shift(2))
        P = FinitePartition(np.array([w[0] for w in atoms]), 2)
        for n in range(1, 7):
            assert abs(refine_entropy(mu, P, f, n) - np.log(2)) < 1e-12

    def test_nonincreasing_in_n(self):
        atoms, mu, f = cyclic_shift_system(11)
        P = FinitePartition(np.array([w[0] for w in atoms]), 2)
        vals = [refine_entropy(mu, P, f, n) for n in range(1, 10)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_parry_block_entropy_at_14(self):
        # atoms are positions on a stationary sample path, extended by N steps
        # so every atom has a full itinerary; oracle is the closed-form Markov
        # block entropy (1/N)H_N = log phi + (H(p) - log phi)/N
        nu = parry_measure(GOLDEN_MEAN)
        rng = np.random.default_rng(123)
        n_atoms, N = 400_000, 14
        path = nu.sample(rng, n_atoms + N)
        mu = WeightedMeasure.uniform(np.zeros((n_atoms, 1)))
        labels = FinitePartition(path, 2)
        f = np.concatenate([np.arange(1, len(path)), [-1]])
        est = refine_entropy(mu, labels, f, N)
        h_state = -np.sum(nu.p * np.log(nu.p))
        exact = LOG_PHI + (h_state - LOG_PHI) / N
        assert abs(est - exact) <= 5e-3
        assert abs(est - LOG_PHI) <= 0.02

    def test_horizon_exceeded(self):
        mu = WeightedMeasure.uniform(np.zeros((3, 1)))
        P = FinitePartition([0, 1, 0], 2)
        f = np.array([1, 2, -1])
        with pytest.raises(ent.HorizonExceeded):
            refine_entropy(mu, P, f, 4)

    def test_chain_inequality_random_partitions(self):
        rng = np.random.default_rng(7)
        atoms, mu, f = cyclic_shift_system(10)
        n = len(atoms)
        for _ in range(100):
            ka, kb = rng.integers(2, 5), rng.integers(2, 5)
            A = FinitePartition(rng.integers(0, ka, n), ka)
            B = FinitePartition(rng.integers(0, kb, n), kb)
            N = int(rng.integers(2, 7))
            lhs = refine_entropy(mu, A, f, N)
            rhs = refine_entropy(mu, B, f, N) + conditional_entropy(mu, A, B)
            assert lhs <= rhs + 1e-12


class TestJensenBound:
    def test_uniform_tight(self):
        lhs, rhs = jensen_bound(np.full(8, 1 / 8))
        assert abs(lhs - np.log(8)) <= 1e-12
        assert lhs <= np.log(8) + 1e-15 and lhs <= rhs

    def test_all_zeros(self):
        assert jensen_bound(np.zeros(5)) == (0.0, 1.0)

    def test_arbitrary_vector(self):
        a = np.array([2.0, 3.0, 5.0])
        lhs, rhs = jensen_bound(a)
        direct = -(2 * np.log(2) + 3 * np.log(3) + 5 * np.log(5))
        assert abs(lhs - direct) < 1e-12
        assert abs(rhs - (1 + 10 * np.log(3))) < 1e-12
        assert lhs < rhs

    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, st.integers(1, 64), elements=st.floats(0, 50)))
    def test_bound_property(self, a):
        lhs, rhs = jensen_bound(a)
        assert lhs <= rhs + 1e-9
        total = a.sum()
        if abs(total - 1.0) < 1e-12:
            assert lhs <= np.log(len(a)) + 1e-9


def crafted_two_sided_ensemble(back=12, fwd=12):
    """Orbits of: a base point, an exact duplicate, stable and unstable offsets."""
    tm = cat_map()
    x = np.array([0.312, 0.741])
    starts = np.array([x, x, x + 3e-3 * tm.e_s, x + 3e-3 * tm.e_u])
    mf = tm.matrix.astype(float)
    minv = np.linalg.inv(mf)
    cols = [starts % 1.0]
    cur = starts.copy()
    for _ in range(fwd):
        cur = cur @ mf.T
        cols.append(cur % 1.0)
    cur = starts.copy()
    backs = []
    for _ in range(back):
        cur = cur @ minv.T
        backs.append(cur % 1.0)
    backs.reverse()
    return LabeledOrbitEnsemble(np.stack(backs + cols, axis=1), origin=back), tm


class TestGammaSet:
    def test_eps_zero_duplicates(self):
        F, _ = crafted_two_sided_ensemble()
        assert list(gamma_set(0, F, 0.0, 10)) == [0, 1]

    def test_eps_diameter_everything(self):
        F, _ = crafted_two_sided_ensemble()
        assert len(gamma_set(0, F, 2.0, 10)) == F.n_orbits

    def test_transverse_offsets_excluded(self):
        # stable offset blows up backward, unstable forward; only the duplicate stays
        F, _ = crafted_two_sided_ensemble()
        members = gamma_set(0, F, 0.01, 10)
        assert list(members) == [0, 1]

    def test_requires_two_sided_data(self):
        F, _ = crafted_two_sided_ensemble(back=2, fwd=12)
        with pytest.raises(ValueError):
            gamma_set(0, F, 0.01, 10)


class TestHExpansivityProbe:
    def test_single_orbit(self):
        orbits = np.random.default_rng(0).random((1, 21, 2))
        F = LabeledOrbitEnsemble(orbits, origin=10)
        assert h_expansivity_probe(F, 0.01, 5, 0.05) == 0.0

    def test_cat_ensemble_small_eps(self):
        tm = cat_map()
        F = orbit_ensemble(tm, 300, 40, backward=30, rng=np.random.default_rng(5))
        assert h_expansivity_probe(F, 0.01, 30, 0.05) <= 0.05

    def test_eps_diameter_recovers_estimate(self):
        tm = cat_map()
        F = orbit_ensemble(tm, 300, 15, backward=2, rng=np.random.default_rng(6))
        full = entropy_estimate(F, 13, 0.05)
        probe = h_expansivity_probe(F, 2.0, 2, 0.05, sample=[0])
        assert abs(probe - full) < 1e-12


class TestInnerPartition:
    def quadrant_setup(self, side=40):
        ticks = (np.arange(side) + 0.5) / side
        pts = np.stack(np.meshgrid(ticks, ticks, indexing="ij"), -1).reshape(-1, 2)
        mu = WeightedMeasure.uniform(pts)
        labels = (pts[:, 0] >= 0.5).astype(int) * 2 + (pts[:, 1] >= 0.5).astype(int)
        return mu, FinitePartition(labels, 4)

    def test_quadrant_cores(self):
        mu, P = self.quadrant_setup()
        eps = 0.01
        B, radii = build_inner_partition(mu, P, eps)
        assert B.k == 5
        masses = np.bincount(B.labels, weights=mu.weights, minlength=5)
        assert masses[0] < 4 * eps
        for c in range(4):
            shaved = 0.25 - masses[c + 1]
            assert shaved < eps
            assert radii[c] > 0
        # cores really are inset: distance from any core atom to the complement
        for c in range(4):
            core = B.labels == c + 1
            comp = P.labels != c
            d = torus_metric(mu.points[core][:, None, :], mu.points[comp][None, :, :])
            assert d.min() >= radii[c] - 1e-12

    def test_large_eps_absorbs_cells(self):
        mu = WeightedMeasure.uniform(np.array([[0.1, 0.1], [0.9, 0.9]]))
        P = FinitePartition([0, 1], 2)
        B, _ = build_inner_partition(mu, P, eps=0.6)
        assert set(B.labels) == {0}  # everything in the remainder cell

    def test_single_cell_kept_whole(self):
        mu = WeightedMeasure.uniform(np.random.default_rng(1).random((20, 2)))
        P = FinitePartition.trivial(20)
        B, _ = build_inner_partition(mu, P, eps=0.01)
        assert np.all(B.labels == 1)

    def test_no_valid_radius(self):
        pts = np.array([[0.5, 0.5], [0.5, 0.5], [0.2, 0.2]])
        mu = WeightedMeasure.uniform(pts)
        P = FinitePartition([0, 1, 1], 2)
        with pytest.raises(ent.NoValidRadius) as exc:
            build_inner_partition(mu, P, eps=0.05)
        assert exc.value.achieved is not None


def test_variational_principle_consistency():
    # tested Markov measures stay below the topological entropy (+0.02),
    # and the Parry measure achieves it within 0.02 at N=14
    from torusdyn.suspension import MarkovMeasure

    h_top = LOG_PHI
    N, n_atoms = 14, 200_000
    rng = np.random.default_rng(42)
    parry = parry_measure(GOLDEN_MEAN)
    others = [MarkovMeasure([[0.5, 0.5], [1.0, 0.0]], [2 / 3, 1 / 3], GOLDEN_MEAN),
              MarkovMeasure([[0.8, 0.2], [1.0, 0.0]], [5 / 6, 1 / 6], GOLDEN_MEAN)]
    estimates = []
    for nu in [parry] + others:
        path = nu.sample(rng, n_atoms + N)
        mu = WeightedMeasure.uniform(np.zeros((n_atoms, 1)))
        f = np.concatenate([np.arange(1, len(path)), [-1]])
        estimates.append(refine_entropy(mu, FinitePartition(path, 2), f, N))
    assert max(estimates) <= h_top + 0.02
    assert abs(estimates[0] - h_top) <= 0.02  # the maximal-entropy measure


def test_semicontinuity_probe_small():
    tm = cat_map()
    base = entropy_estimate(orbit_ensemble(tm, 400, 10, rng=np.random.default_rng(9)),
                            10, 0.05)
    ests = []
    for eps in (1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
        F = perturbed_orbit_ensemble(tm, eps, 400, 10, rng=np.random.default_rng(9))
        ests.append(entropy_estimate(F, 10, 0.05))
    assert max(ests[-3:]) <= base + 0.05


def test_ensemble_csv_round_trip():
    tm = cat_map()
    F = orbit_ensemble(tm, 7, 5, backward=2, rng=np.random.default_rng(3))
    text = ent.ensemble_to_csv(F)
    G = ent.ensemble_from_csv(text)
    assert np.allclose(F.orbits, G.orbits)
    assert G.origin == F.origin


# ---------------------------------------------------------------------------
# The one-pass ladder against the per-step metric calls it replaced

def reference_ladder(F, steps):
    """The d_T ladder as computed before the squared-distance kernel."""
    n = F.n_orbits
    d = np.zeros((n, n))
    for s in range(steps):
        pts = F.orbits[:, F.origin + s, :]
        step_d = F.metric(pts[:, None, :], pts[None, :, :])
        np.maximum(d, step_d, out=d)
        yield s, d


def reference_greedy_net(dists, limit):
    """Lowest-index greedy net on a dense distance matrix."""
    n = dists.shape[0]
    covered = np.zeros(n, dtype=bool)
    kept = []
    for i in range(n):
        if not covered[i]:
            kept.append(i)
            covered |= dists[i] <= limit
    return kept


def reference_counts(F, steps, delta):
    """(final d_T, close pairs per step, greedy covers per step) from the reference."""
    iu = np.triu_indices(F.n_orbits, k=1)
    pairs, covers = [], []
    for _, d in reference_ladder(F, steps):
        pairs.append(int(np.count_nonzero(d[iu] <= delta)))
        covers.append(len(reference_greedy_net(d, delta)))
    return d.copy(), pairs, covers


def reference_gamma_set(x, F, eps, horizon):
    steps = int(round(horizon / F.dt))
    window = F.orbits[:, F.origin - steps:F.origin + steps + 1, :]
    d = F.metric(window[x][None, :, :], window).max(axis=1)
    return np.flatnonzero(d <= eps)


def reference_probe(F, eps, horizon, delta, sample=None):
    forward_T = (F.n_steps - 1 - F.origin) * F.dt
    worst = 0.0
    for x in range(F.n_orbits) if sample is None else sample:
        members = reference_gamma_set(x, F, eps, horizon)
        if len(members) < 2:
            continue
        G = F.restrict(members)
        counts = np.array(reference_counts(G, G.steps_for(forward_T), delta)[1], dtype=float)
        usable = np.flatnonzero(counts >= 16)
        t_max = int(usable[-1]) if len(usable) else 0
        if t_max == 0:
            continue
        steps = np.arange(t_max + 1, dtype=float) * G.dt
        slope = np.polyfit(steps, np.log(counts[:t_max + 1]), 1)[0]
        worst = max(worst, float(max(-slope, 0.0)))
    return worst


def ladder_ensembles():
    tm = cat_map()
    rng = np.random.default_rng(17)
    out = {f"cat_n{n}": orbit_ensemble(tm, n, 10, rng=np.random.default_rng(n))
           for n in (1, 2, 400)}
    out["t3_euclidean"] = LabeledOrbitEnsemble(rng.random((150, 9, 3)) * 3.0,
                                               metric=ent.euclidean_metric)
    out["t3_torus"] = LabeledOrbitEnsemble(rng.random((150, 9, 3)))
    out["t1_torus"] = LabeledOrbitEnsemble(rng.random((150, 9, 1)))
    out["r8_euclidean"] = LabeledOrbitEnsemble(rng.random((60, 9, 8)),
                                               metric=ent.euclidean_metric)
    return out


class TestOnePassLadder:
    @pytest.mark.parametrize("name", list(ladder_ensembles()))
    def test_matches_per_step_metric_calls(self, name):
        F = ladder_ensembles()[name]
        steps = F.n_steps - F.origin
        T = (steps - 1) * F.dt
        a, b = ent._all_pairs(F.n_orbits)
        for c in range(F.origin, F.origin + steps):
            pts = F.orbits[:, c, :]
            values = ent._step_values(F, c, a, b)
            values = np.sqrt(values) if ent._squared(F) else values
            assert np.array_equal(values, F.metric(pts[:, None, :], pts[None, :, :])[a, b])
        for delta in (0.02, 0.05, 0.1, 0.3, 0.6):
            _, ref_pairs, ref_covers = reference_counts(F, steps, delta)
            pairs = ent.pair_survival_ladder(F, T, delta)
            assert pairs == ref_pairs and all(type(c) is int for c in pairs)
            assert ent.count_ladder(F, T, delta) == ref_covers
            assert spanning_count(F, T, delta) == separated_count(F, T, delta) == ref_covers[-1]

    def test_builtin_paths_are_squared(self):
        F = ladder_ensembles()
        assert all(ent._squared(F[k]) for k in ("cat_n400", "t3_euclidean", "t1_torus"))
        assert not ent._squared(F["r8_euclidean"])

    def test_user_metric_gives_builtin_counts(self):
        F = orbit_ensemble(cat_map(), 300, 10, rng=np.random.default_rng(21))
        G = LabeledOrbitEnsemble(F.orbits, metric=lambda a, b: torus_metric(a, b))
        assert not ent._squared(G)
        for delta in (0.02, 0.05, 0.1):
            assert ent.ladder_counts(F, 10, delta, pairs=True, covers=True) == \
                ent.ladder_counts(G, 10, delta, pairs=True, covers=True)
        assert entropy_estimate(F, 10, 0.05) == entropy_estimate(G, 10, 0.05)

    @settings(max_examples=500, deadline=None)
    @given(st.floats(0, 1e300), st.floats(0, 1e300))
    def test_squared_threshold_is_exact(self, d2, delta):
        assert (d2 <= ent._sqrt_limit(delta)) == (np.sqrt(d2) <= delta)

    @settings(max_examples=500, deadline=None)
    @given(st.floats(1e-300, 1e300), st.integers(-4, 4))
    def test_squared_threshold_at_the_boundary(self, delta, ulps):
        d2 = delta * delta
        for _ in range(abs(ulps)):
            d2 = np.nextafter(d2, np.inf if ulps > 0 else 0.0)
        assert (d2 <= ent._sqrt_limit(delta)) == (np.sqrt(d2) <= delta)

    def test_gamma_sets_and_probe_match_reference(self):
        F = orbit_ensemble(cat_map(), 120, 12, backward=2, rng=np.random.default_rng(6))
        G = LabeledOrbitEnsemble(F.orbits, metric=lambda a, b: torus_metric(a, b), origin=2)
        for E in (F, G):
            sets = ent.gamma_sets(E, 0.4, 1)
            assert all(np.array_equal(s, reference_gamma_set(x, E, 0.4, 1))
                       for x, s in enumerate(sets))
            assert max(len(s) for s in sets) >= 16
            for sample in (None, [0], [5, 3]):
                assert h_expansivity_probe(E, 0.4, 1, 0.1, sample=sample) == \
                    reference_probe(E, 0.4, 1, 0.1, sample=sample)

    def test_probe_sample_zero_unchanged(self):
        F = orbit_ensemble(cat_map(), 300, 15, backward=2, rng=np.random.default_rng(6))
        assert h_expansivity_probe(F, 2.0, 2, 0.05, sample=[0]) == \
            reference_probe(F, 2.0, 2, 0.05, sample=[0])


PAIR_METRICS = {"torus": torus_metric, "euclidean": ent.euclidean_metric,
                "chebyshev": lambda p, q: np.abs(p - q).max(axis=-1)}


@st.composite
def grid_ensembles(draw):
    """Small ensembles on a coarse grid: copies of a few base orbits with some
    entries redrawn, so exact ties, repeated orbits and late separations occur."""
    n = draw(st.integers(0, 60))
    dim = draw(st.integers(1, 9))
    back, fwd = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    levels = draw(st.sampled_from([2, 4, 8, 1024]))
    redraw = draw(st.sampled_from([0.0, 0.05, 0.3]))
    metric = PAIR_METRICS[draw(st.sampled_from(sorted(PAIR_METRICS)))]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (n, back + fwd + 1, dim)
    base = rng.integers(0, levels, (draw(st.integers(1, 5)),) + shape[1:])
    grid = base[rng.integers(0, len(base), n)]
    mask = rng.random(shape) < redraw
    grid[mask] = rng.integers(0, levels, int(mask.sum()))
    return LabeledOrbitEnsemble(grid / levels, metric=metric, origin=back), levels


class TestPairLadder:
    """The close-pair ladder against the dense per-step references."""

    @settings(max_examples=300, deadline=None)
    @given(grid_ensembles(), st.sampled_from(["zero", "small", "diameter"]), st.data())
    def test_matches_dense_reference(self, drawn, scale, data):
        F, levels = drawn
        n, dim = F.n_orbits, F.orbits.shape[2]
        # the coordinates lie in [0, 1), so sqrt(dim) is past every metric's diameter
        delta = {"zero": 0.0, "small": 1.0 / levels, "diameter": float(np.sqrt(dim))}[scale]
        steps = F.n_steps - F.origin
        _, pairs, covers = reference_counts(F, steps, delta)
        assert ent.ladder_counts(F, (steps - 1) * F.dt, delta, pairs=True, covers=True) == \
            (covers[-1], pairs, covers)
        rows = data.draw(st.none() | st.lists(st.integers(0, n - 1), max_size=4) if n
                         else st.sampled_from([None, []]))
        horizon = min(F.origin, steps - 1)
        sets = ent.gamma_sets(F, delta, horizon, rows)
        xs = range(n) if rows is None else rows
        assert len(sets) == len(xs)
        for x, members in zip(xs, sets):
            assert members.dtype == np.intp
            assert np.array_equal(members, reference_gamma_set(x, F, delta, horizon))
        assert h_expansivity_probe(F, delta, horizon, delta, sample=rows) == \
            reference_probe(F, delta, horizon, delta, sample=rows)

    @pytest.mark.parametrize("metric", [torus_metric, lambda p, q: torus_metric(p, q)],
                             ids=["builtin", "callable"])
    def test_pairs_across_chunk_seams(self, metric):
        F = orbit_ensemble(cat_map(), 400, 6, backward=3, rng=np.random.default_rng(400))
        F = LabeledOrbitEnsemble(F.orbits, metric=metric, origin=3)
        assert len(ent._all_pairs(400)[0]) == 79_800 > ent._CHUNK
        # 1.0 is past the torus diameter sqrt(2)/2: no pair ever separates
        for delta in (0.05, 0.3, 1.0):
            _, pairs, covers = reference_counts(F, 7, delta)
            assert ent.ladder_counts(F, 6, delta, pairs=True, covers=True) == \
                (covers[-1], pairs, covers)
            sets = ent.gamma_sets(F, delta, 3)
            assert all(np.array_equal(s, reference_gamma_set(x, F, delta, 3))
                       for x, s in enumerate(sets))


class TestBadInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_ensemble_rejects_non_finite(self, bad):
        orbits = np.zeros((3, 4, 2))
        orbits[1, 2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            LabeledOrbitEnsemble(orbits)
        with pytest.raises(ValueError, match="finite"):
            LabeledOrbitEnsemble(np.full((3, 4, 2), bad))

    @pytest.mark.parametrize("row", [-1, -50, 4, 2.7, 3.0])
    def test_gamma_rejects_bad_rows(self, row):
        F, _ = crafted_two_sided_ensemble()
        with pytest.raises(ValueError, match="rows"):
            gamma_set(row, F, 0.01, 10)
        with pytest.raises(ValueError, match="rows"):
            ent.gamma_sets(F, 0.01, 10, [0, row])
        with pytest.raises(ValueError, match="rows"):
            h_expansivity_probe(F, 0.01, 10, 0.05, sample=[row])


class TestBadScales:
    @pytest.mark.parametrize("delta", [-0.1, float("nan"), float("inf")])
    def test_counts_reject_bad_delta(self, delta):
        F = single_orbit_ensemble()
        for fn in (spanning_count, separated_count, ent.count_ladder,
                   ent.pair_survival_ladder, entropy_estimate):
            with pytest.raises(ValueError, match="delta"):
                fn(F, 4, delta)

    @pytest.mark.parametrize("T", [-1, float("nan"), float("inf")])
    def test_counts_reject_bad_horizon(self, T):
        with pytest.raises(ValueError, match="T must be"):
            spanning_count(single_orbit_ensemble(), T, 0.1)

    @pytest.mark.parametrize("eps", [-1.0, float("nan"), float("inf")])
    def test_gamma_rejects_bad_eps(self, eps):
        F, _ = crafted_two_sided_ensemble()
        with pytest.raises(ValueError, match="eps"):
            gamma_set(0, F, eps, 10)
        with pytest.raises(ValueError, match="eps"):
            h_expansivity_probe(F, eps, 10, 0.05)


def reference_refine(mu, P, f, N):
    """refine_entropy as computed before the integer itinerary keys."""
    f = np.asarray(f, dtype=int)
    n = len(mu.weights)
    seq = np.empty((n, N), dtype=int)
    idx = np.arange(n)
    for step in range(N):
        seq[:, step] = P.labels[idx]
        if step + 1 < N:
            idx = np.where(idx >= 0, f[idx], -1)
    _, inverse = np.unique(seq, axis=0, return_inverse=True)
    masses = np.bincount(inverse.ravel(), weights=mu.weights)
    return float(ent._plogp(masses).sum()) / N


class TestItineraryKeys:
    @pytest.mark.parametrize("k, N", [(2, 14), (2, 70), (3, 9), (3, 45), (7, 5), (7, 24)])
    def test_matches_row_unique(self, k, N):
        rng = np.random.default_rng(k * 100 + N)
        n = 3000
        w = rng.random(n) ** 3
        mu = WeightedMeasure(np.zeros((n, 1)), w / w.sum())
        # few orbits of a random map: itineraries repeat, so atoms merge
        f = rng.integers(0, 40, n)
        P = FinitePartition(rng.integers(0, k, n), k)
        assert refine_entropy(mu, P, f, N) == reference_refine(mu, P, f, N)

    def test_parry_sample_matches_row_unique(self):
        nu = parry_measure(GOLDEN_MEAN)
        path = nu.sample(np.random.default_rng(88), 50_000 + 14)
        mu = WeightedMeasure.uniform(np.zeros((50_000, 1)))
        f = np.concatenate([np.arange(1, len(path)), [-1]])
        P = FinitePartition(path, 2)
        assert refine_entropy(mu, P, f, 14) == reference_refine(mu, P, f, 14)
