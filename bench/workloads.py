"""Seeded inputs and job lists for the two benchmark workloads.

`build(workload, seed, workdir)` makes every input from the seed (numpy
arrays, library input objects and CLI config files under `workdir`) and
returns the job list; the library sees only these generated inputs.  A job
is run with a pass context (`ctx.plug` wraps inputs in counting plug-ins on
the traced pass; `ctx.shared` lives for one pass) and returns a dict of
outputs; its `check` compares those outputs with the independent oracles in
`oracles.py` after the timed pass.

Seeded draws jitter fixed anchors rather than roam freely: every
seed-drawn job keeps its pass/fail outcome and roughly its cost across
seeds, so run-to-run spread measures the program, not the draw.  Known
defects are fixed inputs that stay in the job lists and count as failed.
"""

import contextlib
import importlib
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

from torusdyn.fields import FourierSeries, OneForm

# module objects, looked up per call so the traced pass sees its wrappers
# (the package re-exports the function `action` over the module name)
td_action = importlib.import_module("torusdyn.action")
td_cli = importlib.import_module("torusdyn.cli")
td_entropy = importlib.import_module("torusdyn.entropy")
td_hyp = importlib.import_module("torusdyn.hyperbolic")
td_lag = importlib.import_module("torusdyn.lagrangian")
td_sft = importlib.import_module("torusdyn.sft")
td_sus = importlib.import_module("torusdyn.suspension")

WORKLOADS = ("session", "perron")
CAT = np.array([[2, 1], [1, 1]], dtype=np.int64)
LATTICE = 2 ** 31


@dataclass
class Job:
    name: str
    run: callable
    check: callable
    known_defect: str = None


@dataclass
class PassContext:
    plug: object
    shared: dict = field(default_factory=dict)


def cli_call(argv):
    """torusdyn.cli.run in process; stdout text, or RuntimeError on a nonzero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = td_cli.run(["--threads", "1"] + list(argv))
    if code != 0:
        raise RuntimeError(f"cli exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _jitter(rng, anchor, width):
    return float(anchor + rng.uniform(-width, width))


def _write(workdir, name, text):
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _cfg_1d(cos, sin=None, eta0=None, extra=""):
    lines = ["[lagrangian]", "dim = 1", "", "[potential.cos]"]
    lines += [f"{m} = {a!r}" for m, a in cos.items()]
    if sin:
        lines += ["", "[potential.sin]"] + [f"{m} = {b!r}" for m, b in sin.items()]
    if eta0 is not None:
        lines += ["", "[oneform.1.cos]", f"0 = {eta0!r}"]
    return "\n".join(lines) + "\n" + extra


def cat_orbits(rng, n_orbits, n_steps, backward=0):
    """Exact cat-map orbits on the lattice (Z/2^31)^2 / 2^31, columns
    [backward iterates..., x0, forward iterates...]."""
    k0 = rng.integers(0, LATTICE, size=(n_orbits, 2)).astype(np.int64)
    inv = np.array([[1, -1], [-1, 2]], dtype=np.int64) % LATTICE
    cols, k = [k0], k0
    for _ in range(n_steps):
        k = (k @ CAT.T) % LATTICE
        cols.append(k)
    back, k = [], k0
    for _ in range(backward):
        k = (k @ inv.T) % LATTICE
        back.append(k)
    return np.stack(back[::-1] + cols, axis=1).astype(float) / LATTICE


def _wrap(x):
    y = x % 1.0
    return np.where(y >= 1.0, 0.0, y)


def cat_powers(length):
    """(length, 2, 2) int64: the cat matrix to the powers 0..length-1, mod 2^31."""
    out = np.empty((length, 2, 2), dtype=np.int64)
    power = np.eye(2, dtype=np.int64)
    for i in range(length):
        out[i] = power
        power = (CAT @ power) % LATTICE
    return out


def pseudo_orbits(rng, powers, count, delta):
    """(count, len(powers), 2) cat-map pseudo-orbits with every jump norm below
    delta: exact lattice orbits (M^i k mod 2^31) / 2^31 plus i.i.d. offsets u_i
    uniform in a square small enough that |u_(i+1) - M u_i| < delta."""
    lam_u = (3.0 + np.sqrt(5.0)) / 2.0
    half = delta * (1.0 - 1e-9) / (np.sqrt(2.0) * (1.0 + lam_u))
    k0 = rng.integers(0, LATTICE, size=(count, 2))
    pts = (np.einsum("lij,cj->cli", powers, k0) % LATTICE).astype(float) / LATTICE
    pts += rng.uniform(-half, half, pts.shape)
    pts -= np.floor(pts)
    pts[pts >= 1.0] = 0.0      # 1 + x rounds to 1.0 for tiny negative x
    return pts


def lattice_cycle(modq, start):
    """The cat-map cycle through the lattice point start/modq."""
    k = np.asarray(start, dtype=np.int64) % modq
    first, pts = k.copy(), [k]
    while True:
        k = (CAT @ k) % modq
        if np.array_equal(k, first):
            break
        pts.append(k)
    cyc = np.array(pts, dtype=float) / modq
    return cyc if len(cyc) > 1 else np.vstack([cyc, cyc])


# --------------------------------------------------------------------------
# potentials: Tonelli minimizer on fixed-endpoint paths

POTENTIAL_LAGRANGIANS = {
    # name: (cos coefficients, exact critical value = max U)
    "pendulum": ({1: 1.0}, 1.0),
    "double_well": ({1: 0.3, 2: 1.0}, 1.3),
}
# off-diagonal anchors are at least 0.2 apart, clear of the duration floor;
# the double well has only its diagonal cells, to fit the run budget
PAIR_ANCHORS = {
    "pendulum": ((0.05, 0.31),),
    "double_well": (),
}
DIAGONAL = 0.52        # fixed: the measured diagonal-bias cells
K_OFFSETS = (0.05, 0.3)
PHI_TOL = 3e-3


def _potentials(seed, workdir):
    from oracles import Trig1, check, maupertuis_phi

    rng = np.random.default_rng((seed, 1))
    jobs = []
    for name, (cos, c) in POTENTIAL_LAGRANGIANS.items():
        U = FourierSeries(1, cos=cos)
        pairs = [(_jitter(rng, a, 0.02) % 1.0, _jitter(rng, b, 0.02) % 1.0)
                 for a, b in PAIR_ANCHORS[name]]
        pairs.append((DIAGONAL, DIAGONAL))
        for ki, dk in enumerate(K_OFFSETS):
            k = c + dk
            for pi, (x, y) in enumerate(pairs):
                def run(ctx, name=name, U=U, k=k, x=x, y=y):
                    key = ("lagrangian", name)
                    if key not in ctx.shared:
                        L = td_lag.MechanicalLagrangian(1, ctx.plug.field(U))
                        ctx.shared[key] = (L, td_action.NegativeLoopSearch(L))
                    L, search = ctx.shared[key]
                    av = td_action.action_potential(L, k, [x], [y], search=search)
                    return {"phi": None if av.is_minus_infinity else av.value}

                def chk(out, cos=cos, k=k, x=x, y=y):
                    return [check("phi", np.inf if out["phi"] is None else out["phi"],
                                  maupertuis_phi(Trig1(cos), k, x, y), PHI_TOL)]

                diag = x == y
                jobs.append(Job(f"phi.{name}.k{ki}.{'diag' if diag else f'pair{pi}'}", run, chk,
                                "diagonal bias from the 0.05 duration floor" if diag else None))

    cos, c = POTENTIAL_LAGRANGIANS["pendulum"]
    cfg = _write(workdir, "pendulum.cfg", _cfg_1d(cos))
    x, y, k = _jitter(rng, 0.68, 0.02), _jitter(rng, 0.05, 0.02) % 1.0, c + K_OFFSETS[1]

    def run_cli(ctx):
        table = json.loads(cli_call(["action-potential", "--config", cfg, "--k", repr(k),
                                     "--x", repr(x), "--y", repr(y)]))["table"]
        return {"phi": table[0]["phi"], "status": table[0]["status"]}

    def chk_cli(out):
        phi = float(out["phi"]) if out["status"] == "finite" else np.inf
        return [check("phi", phi, maupertuis_phi(Trig1(cos), k, x, y), PHI_TOL)]

    jobs.append(Job("cli.action-potential", run_cli, chk_cli))
    return jobs


# --------------------------------------------------------------------------
# critical: closed-loop search, bisection, flows, configs

CRIT_TOL = 1e-2


def _oneform(dim, components):
    return OneForm([FourierSeries(dim, cos=c) for c in components])


def _critical(seed, workdir):
    from oracles import (Trig1, bound, check, energy_drift, magnetic_bracket_t2,
                         magnetic_c_t1, trig2_eval)

    rng = np.random.default_rng((seed, 2))
    jobs = []

    def crit_job(name, dim, u_cos, eta_cos, oracle, defect=None):
        U = FourierSeries(dim, cos=u_cos)
        eta = _oneform(dim, eta_cos)

        def run(ctx):
            L = td_lag.MechanicalLagrangian(dim, ctx.plug.field(U), eta)
            return {"c": td_action.critical_value(L)}

        jobs.append(Job(name, run, lambda out: [oracle(out["c"])], defect))

    pend = {1: 1.0}
    crit_job("critical.t1.eta2", 1, pend, [{0: 2.0}],
             lambda c: check("c", c, magnetic_c_t1(Trig1(pend), 2.0), CRIT_TOL),
             "magnetic T^1 critical value low by 0.029")
    eta0 = _jitter(rng, 0.85, 0.15)     # below 4/pi: c = max U
    crit_job("critical.t1.seeded", 1, pend, [{0: eta0}],
             lambda c: check("c", c, magnetic_c_t1(Trig1(pend), eta0), CRIT_TOL))
    crit_job("critical.t2.eta_half", 2, {}, [{(0, 0): 0.5}, {(0, 0): 0.5}],
             lambda c: check("c", c, 0.25, CRIT_TOL),
             "lattice-aligned eta=(0.5,0.5) critical value low by 0.012")
    crit_job("critical.t2.cos_eta02", 2, {(1, 0): 1.0}, [{}, {(0, 0): 2.0}],
             lambda c: check("c", c, 3.0, CRIT_TOL),
             "U=cos 2pi x1, eta=(0,2) critical value low by 0.019")

    gen_u = {(1, 0): _jitter(rng, 0.5, 0.05), (1, 1): _jitter(rng, 0.3, 0.05)}
    gen_eta = [{(0, 0): _jitter(rng, 0.4, 0.05), (0, 1): _jitter(rng, 0.2, 0.03)},
               {(0, 0): _jitter(rng, -0.3, 0.05), (1, 0): _jitter(rng, 0.15, 0.03)}]
    crit_job("critical.t2.general", 2, gen_u, gen_eta,
             lambda c: bound("c", c, *magnetic_bracket_t2(gen_u, gen_eta), CRIT_TOL))

    mech_cos = {1: _jitter(rng, 1.0, 0.05), 2: _jitter(rng, 0.4, 0.05)}
    mech_sin = {1: _jitter(rng, 0.2, 0.05)}
    mech_cfg = _write(workdir, "mechanical.cfg", _cfg_1d(mech_cos, mech_sin))
    jobs.append(Job(
        "cli.critical-value",
        lambda ctx: json.loads(cli_call(["critical-value", "--config", mech_cfg])),
        lambda out: [check("c", out["c"], Trig1(mech_cos, mech_sin).max(), CRIT_TOL)]))

    canal_eta = _jitter(rng, 0.85, 0.15)
    canal_eps = _jitter(rng, 0.12, 0.03)
    canal_cfg = _write(workdir, "canal.cfg", _cfg_1d(
        pend, eta0=canal_eta, extra=f"\n[canal]\neps = {canal_eps!r}\nk = 2\ncore = 0.0\n"))

    def chk_canal(out):
        U = Trig1(pend)

        def perturbed(x):
            d = np.abs(((np.asarray(x) + 0.5) % 1.0) - 0.5)
            return U(x) - canal_eps * d ** 2

        perturbed.max = U.max
        return [check("c_base", out["c_base"], magnetic_c_t1(U, canal_eta), CRIT_TOL),
                check("c_perturbed", out["c_perturbed"],
                      magnetic_c_t1(perturbed, canal_eta), CRIT_TOL),
                check("core_force_residual", out["core_force_residual"], 0.0, 1e-8),
                check("monotone", float(not out["monotone"]), 0.0, 0.5)]

    jobs.append(Job(
        "cli.canal-experiment",
        lambda ctx: json.loads(cli_call(["canal-experiment", "--config", canal_cfg])),
        chk_canal))

    x0 = _jitter(rng, 0.5, 0.1)
    v0 = float(np.sqrt(2.0 * (1.0 - np.cos(2.0 * np.pi * x0))))
    U1 = FourierSeries(1, cos=pend)

    def run_yoshida(ctx):
        L = td_lag.MechanicalLagrangian(1, ctx.plug.field(U1))
        tr = td_lag.el_flow(L, td_lag.PhaseState([x0], [v0]), T=10.0, dt=1e-3,
                            integrator="yoshida4")
        return {"xs": tr.xs, "vs": tr.vs}

    def chk_yoshida(out):
        u = Trig1(pend)
        e0 = 0.5 * v0 ** 2 + float(u(x0))
        return [check("energy_drift",
                      energy_drift(lambda x: u(x[:, 0]), out["xs"], out["vs"], e0), 0.0, 1e-7)]

    jobs.append(Job("el_flow.yoshida4.separatrix", run_yoshida, chk_yoshida))

    U2 = FourierSeries(2, cos=gen_u)
    eta2 = _oneform(2, gen_eta)
    s2 = (rng.random(2), rng.normal(size=2))

    def run_rk4(ctx):
        L = td_lag.MechanicalLagrangian(2, ctx.plug.field(U2), eta2)
        tr = td_lag.el_flow(L, td_lag.PhaseState(*s2), T=5.0, dt=1e-3, integrator="rk4")
        return {"xs": tr.xs, "vs": tr.vs}

    def chk_rk4(out):
        def u(x):
            return trig2_eval(gen_u, x)

        e0 = 0.5 * float(s2[1] @ s2[1]) + float(u(s2[0][None, :])[0])
        return [check("energy_drift", energy_drift(u, out["xs"], out["vs"], e0), 0.0, 1e-8)]

    jobs.append(Job("el_flow.rk4.t2_magnetic", run_rk4, chk_rk4))
    return jobs


# --------------------------------------------------------------------------
# orbits: d_T ladders, sampling, shadowing; perron: Perron roots

SHADOW_DELTA = 1e-4
SHADOW_CHUNKS = 10      # 10 x 100 pseudo-orbits of length 10^4, to bound memory
SANDWICH_ORBITS = 400
CLI_ORBITS = 1000        # the CLI default; at 400 the rate missed log((3+sqrt 5)/2) by 0.153


def cycle_chord(m):
    bits = np.zeros((m, m), dtype=bool)
    bits[np.arange(m), (np.arange(m) + 1) % m] = True
    bits[0, m // 2] = True
    return bits


def _small_sfts(rng, count):
    from oracles import min_period

    out = []
    while len(out) < count:
        m = int(rng.integers(2, 13))
        bits = rng.random((m, m)) < rng.uniform(0.1, 0.9)
        if min_period(bits) is not None:
            out.append(bits)
    return out


def _orbits(seed, workdir):
    """Orbit data without the Perron roots: entropy ladders, sampling, shadowing, small SFTs."""
    from oracles import (LOG_CAT, LOG_PHI, SHADOW_PREFIX, bq_bound, cat_q, check,
                         cyclic_jump, dynamic_ladder, greedy_size, min_period,
                         orbit_prefix_gap, periodic_gaps, shadow_sup, start_unstable_gap)

    rng = np.random.default_rng((seed, 3))
    jobs = []
    q_delta = cat_q() * SHADOW_DELTA

    cli_seed = int(rng.integers(0, 2 ** 31))

    def cli_ensemble():
        return cat_orbits(np.random.default_rng(cli_seed), CLI_ORBITS, 10)

    base_argv = ["entropy-estimate", "--orbits", str(CLI_ORBITS), "--steps", "10",
                 "--delta", "0.05", "--seed", str(cli_seed)]

    def chk_estimate(out):
        d = dynamic_ladder(cli_ensemble(), 11)[-1]
        return [check("h_estimate", out["h_estimate"], LOG_CAT, 0.15),
                check("r", out["r"], greedy_size(d, 0.05), 0.5),
                check("s", out["s"], greedy_size(d, 0.05), 0.5)]

    jobs.append(Job("cli.entropy-estimate", lambda ctx: json.loads(cli_call(base_argv)),
                    chk_estimate))


    sandwich = cat_orbits(rng, SANDWICH_ORBITS, 10)
    deltas = (0.02, 0.05, 0.1)

    def run_sandwich(ctx):
        F = td_entropy.LabeledOrbitEnsemble(sandwich, metric=ctx.plug.metric(td_entropy.torus_metric))
        out = {}
        for dl in deltas:
            out[f"r{dl}"] = td_entropy.spanning_count(F, 10, dl)
            out[f"s{dl}"] = td_entropy.separated_count(F, 10, dl)
            out[f"r_half{dl}"] = td_entropy.spanning_count(F, 10, dl / 2)
        return out

    def chk_sandwich(out):
        d = dynamic_ladder(sandwich, 11)[-1]
        checks = []
        for dl in deltas:
            r, s, rh = out[f"r{dl}"], out[f"s{dl}"], out[f"r_half{dl}"]
            checks += [check(f"r{dl}", r, greedy_size(d, dl), 0.5),
                       check(f"r_half{dl}", rh, greedy_size(d, dl / 2), 0.5),
                       check(f"sandwich{dl}", max(0, r - s, s - rh), 0.0, 0.5)]
        return checks

    jobs.append(Job("entropy.sandwich", run_sandwich, chk_sandwich))

    two_sided = cat_orbits(rng, 300, 40, backward=30)

    def run_hexp(ctx):
        F = td_entropy.LabeledOrbitEnsemble(two_sided, metric=ctx.plug.metric(td_entropy.torus_metric),
                                            origin=30)
        return {"probe": td_entropy.h_expansivity_probe(F, 0.01, 30, 0.05)}

    jobs.append(Job("entropy.h_expansivity", run_hexp,
                    lambda out: [check("probe", out["probe"], 0.0, 0.05)]))

    hexp_seed = str(int(rng.integers(0, 2 ** 31)))
    jobs.append(Job("cli.hexpansivity",
                    lambda ctx: json.loads(cli_call(["hexpansivity", "--seed", hexp_seed])),
                    lambda out: [check("probe", out["probe"], 0.0, 0.05)]))

    sample_seed = int(rng.integers(0, 2 ** 31))
    n_atoms, horizon = 400_000, 14

    def run_refine(ctx):
        nu = td_sus.parry_measure(td_sft.GOLDEN_MEAN)
        path = nu.sample(np.random.default_rng(sample_seed), n_atoms + horizon)
        mu = td_entropy.WeightedMeasure.uniform(np.zeros((n_atoms, 1)))
        f = np.concatenate([np.arange(1, len(path)), [-1]])
        return {"h": td_entropy.refine_entropy(mu, td_entropy.FinitePartition(path, 2), f, horizon)}

    jobs.append(Job("entropy.parry_refine", run_refine,
                    lambda out: [check("h", out["h"], LOG_PHI, 0.02)]))

    powers = cat_powers(10_000)
    chunks = [pseudo_orbits(rng, powers, 1000 // SHADOW_CHUNKS, SHADOW_DELTA)
              for _ in range(SHADOW_CHUNKS)]
    tm = td_hyp.cat_map()

    def run_shadow_batch(ctx):
        starts, worst = [], 0.0
        for pts in chunks:
            orbits = [td_hyp.PseudoOrbit(tm, p, SHADOW_DELTA) for p in pts]
            x0, eps = td_hyp.shadow_batch(tm, orbits)
            starts.append(x0)
            worst = max(worst, float(eps.max()))
        return {"starts": np.concatenate(starts), "eps_max": worst}   # eps: the library's claim

    def chk_shadow_batch(out):
        heads = np.concatenate([c[:, :81] for c in chunks])
        return [check("prefix_gap", orbit_prefix_gap(out["starts"], heads, SHADOW_PREFIX),
                      0.0, q_delta),
                check("start_unstable_gap", start_unstable_gap(out["starts"], heads), 0.0, 1e-12)]

    jobs.append(Job("hyperbolic.shadow_batch", run_shadow_batch, chk_shadow_batch))

    cli_orbit = pseudo_orbits(rng, powers, 1, SHADOW_DELTA)[0]
    orbit_csv = _write(workdir, "orbit.csv", "index,x1,x2\n" + "".join(
        f"{i},{x!r},{y!r}\n" for i, (x, y) in enumerate(cli_orbit.tolist())))

    def chk_cli_shadow(out):
        return [check("eps_achieved", out["eps_achieved"], shadow_sup(cli_orbit), 1e-12),
                check("Q", out["Q"], cat_q(), 1e-12)]

    jobs.append(Job("cli.shadow", lambda ctx: json.loads(cli_call(
        ["shadow", "--orbit", orbit_csv])), chk_cli_shadow))

    # moduli 11 and 29: every nonzero lattice point has period 5 and 7
    short = [lattice_cycle(modq, rng.integers(1, modq, size=2)) for modq in (11, 29)]
    short = [_wrap(c + rng.uniform(-1.0, 1.0, c.shape) * SHADOW_DELTA) for c in short]
    long_cycle = lattice_cycle(64, (1, 0))
    long_cycle = _wrap(long_cycle + np.random.default_rng(64).uniform(
        -1.0, 1.0, long_cycle.shape) * SHADOW_DELTA)

    for name, cycles, defect in (
            ("short", short, None),
            (f"period{len(long_cycle)}", [long_cycle],
             "periodic_shadow cover residual grows like 1e-16 lam_u^n, ~0.5 at n=48")):
        def run_periodic(ctx, cycles=cycles):
            res = [td_hyp.periodic_shadow(tm, td_hyp.PseudoOrbit(tm, c)) for c in cycles]
            return {"points": [r.point for r in res],
                    "cover_residual": [r.cover_residual for r in res],   # the library's claims
                    "eps": [r.eps_achieved for r in res]}

        def chk_periodic(out, cycles=cycles):
            gaps = [periodic_gaps(x, c) for x, c in zip(out["points"], cycles)]
            ratios = [g / (cat_q() * cyclic_jump(c)) for (g, _), c in zip(gaps, cycles)]
            return [check("cover_residual", max(r for _, r in gaps), 0.0, 1e-12),
                    check("orbit_gap_over_q_delta", max(ratios), 0.0, 1.0)]

        jobs.append(Job(f"hyperbolic.periodic_shadow.{name}", run_periodic, chk_periodic, defect))

    small = _small_sfts(rng, 1000)

    def run_small(ctx):
        periods, bounds = [], []
        for bits in small:
            A = td_sft.TransitionMatrix(bits)
            periods.append(td_sft.shortest_cycle(A).period)
            bounds.append(float(td_sft.bq_bound(A)))
        return {"periods": periods, "bq": bounds}

    def chk_small(out):
        oracle_p = [min_period(b) for b in small]
        oracle_bq = [bq_bound(b) for b in small]
        return [
            check("period_mismatches", sum(p != o for p, o in zip(out["periods"], oracle_p)), 0.0, 0.5),
            check("bq_rel_err", max(abs(b - o) / o for b, o in zip(out["bq"], oracle_bq)), 0.0, 1e-9),
            check("bound_violations", sum(p > o + 1e-9 for p, o in zip(out["periods"], oracle_bq)),
                  0.0, 0.5)]

    jobs.append(Job("sft.shortest_cycle_bq.x1000", run_small, chk_small))
    return jobs


def _perron(seed, workdir):
    """Perron roots and Parry measures of cycle-plus-chord SFTs, and a lifted suspension."""
    from oracles import check, golden_lift_height, log_perron

    rng = np.random.default_rng((seed, 4))
    jobs = []
    for m, defect in ((200, None), (800, "power iteration raises RuntimeError at m=800")):
        bits = cycle_chord(m)
        A = td_sft.TransitionMatrix(bits)
        jobs.append(Job(f"sft.perron.m{m}", lambda ctx, A=A: {"h": td_sft.top_entropy(A)},
                        lambda out, bits=bits: [check("h", out["h"], log_perron(bits), 1e-9)],
                        defect))

    A200 = td_sft.TransitionMatrix(cycle_chord(200))

    def run_parry(ctx):
        nu = td_sus.parry_measure(A200)
        return {"entropy_rate": nu.entropy_rate(),
                "stationarity": float(np.max(np.abs(nu.p @ nu.P - nu.p)))}

    jobs.append(Job("suspension.parry.m200", run_parry, lambda out: [
        check("entropy_rate", out["entropy_rate"], log_perron(A200.bits), 1e-9),
        check("stationarity", out["stationarity"], 0.0, 1e-12)]))

    bonus = _jitter(rng, 0.5, 0.3)

    def run_lift(ctx):
        nu = td_sus.parry_measure(td_sft.GOLDEN_MEAN)
        lifted = td_sus.lift_measure(nu, td_sus.CeilingFunction.symbol_bonus(1.0, bonus, 1))
        return {"height_mean": lifted.integrate(ctx.plug.integrand(lambda w, s: s), radius=1)}

    jobs.append(Job("suspension.lift_integrate", run_lift, lambda out: [
        check("height_mean", out["height_mean"], golden_lift_height(bonus), 1e-12)]))
    return jobs


# workloads whose times are scaled by worker.HostProbe.  perron's time is a
# one-thread memory-bound matvec, whose speed held steady while the
# interpreter's drifted; scaling it by a probe widened its spread
SCALED = ("session",)

# session: every layer but the Perron root, one job after another as a user
# would run them; perron: the m = 800 power iteration, about 55 s on one BLAS
# thread, kept apart so that a traced run (two passes) stays under 180 s
_JOB_LISTS = {"session": (_potentials, _critical, _orbits), "perron": (_perron,)}


def build(workload, seed, workdir):
    if workload not in _JOB_LISTS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return [job for make in _JOB_LISTS[workload] for job in make(seed, workdir)]
