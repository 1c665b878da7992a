"""Batch command-line front end.

Subcommands run one module operation each and emit JSON (or CSV with
--format csv); entropy-estimate --series adds its per-step table to either.
All randomness flows through explicit --seed values and every computation
is deterministic, so identical invocations produce byte-identical output at
any --threads setting.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import config as config_mod
from . import entropy as entropy_mod
from . import hyperbolic as hyp_mod
from . import sft as sft_mod
from . import suspension as sus_mod
from .action import critical_value as _critical_value
from .action import potential_table as _potential_table
from .perturbation import experiment_localization


def _load_matrix(args):
    if args.golden_mean:
        return sft_mod.GOLDEN_MEAN
    if args.full_shift is not None:
        return sft_mod.full_shift(args.full_shift)
    if args.matrix:
        return sft_mod.load_matrix(args.matrix)
    raise ValueError("no transition matrix given (--matrix/--golden-mean/--full-shift)")


def _emit(args, payload, rows=None, header=None):
    """payload: dict for JSON; rows/header: columnar data for CSV output.

    A non-finite float in either is a ValueError naming its key, before
    anything is written: JSON has no NaN or Infinity, and an overflowed
    result is no result in CSV either.
    """
    _check_finite(payload)
    for row in rows or ():
        _check_finite(dict(zip(header, row)))
    if args.format == "csv":
        if rows is None:
            rows, header = sorted(payload.items()), ("key", "value")
        text = config_mod.format_csv(header, rows)
    else:
        text = json.dumps(payload, sort_keys=True, indent=2, default=_json_default) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_finite(value, key=None):
    if isinstance(value, dict):
        for k, v in sorted(value.items()):      # the first key as JSON prints them
            _check_finite(v, k)
    elif isinstance(value, (list, tuple, np.ndarray)):
        for v in value:
            _check_finite(v, key)
    elif isinstance(value, (float, np.floating)) and not np.isfinite(value):
        raise ValueError(f"result {key!r} is not finite, got {value}")


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)}")


def cmd_sft_entropy(args):
    A = _load_matrix(args)
    _emit(args, {"m": A.m, "h": sft_mod.top_entropy(A)})


def cmd_sft_shortest_cycle(args):
    A = _load_matrix(args)
    orbit = sft_mod.shortest_cycle(A)
    _emit(args, {"period": orbit.period, "cycle": list(orbit.cycle),
                 "bq_bound": sft_mod.bq_bound(A)})


def cmd_sft_recode(args):
    A = _load_matrix(args)
    rec = sft_mod.block_recode(A, args.n)
    h_base = sft_mod.top_entropy(A)
    h_rec = sft_mod.top_entropy(rec.matrix)
    payload = {"n": args.n, "symbols": rec.matrix.m, "h_base": h_base,
               "h_recoded": h_rec, "inequality_ok": bool(h_rec >= args.n * h_base - 1e-9)}
    if args.matrix_out:
        sft_mod.save_matrix(rec.matrix, args.matrix_out)
        payload["matrix_out"] = args.matrix_out
    _emit(args, payload)


def _load_lagrangian(args):
    with open(args.config) as fh:
        return config_mod.parse_lagrangian(fh.read())


def cmd_critical_value(args):
    if not 0 < args.tol < np.inf:                  # NaN fails this test too
        raise ValueError(f"--tol must be finite and > 0, got {args.tol}")
    L, _ = _load_lagrangian(args)
    c = _critical_value(L, tol=args.tol)
    _emit(args, {"c": c, "tol": args.tol})


def cmd_action_potential(args):
    L, _ = _load_lagrangian(args)
    ks = [config_mod._number(v, f"--k value {i}: k") for i, v in enumerate(args.k.split(","), 1)]
    xs, ys = _flag_points("--x", args.x), _flag_points("--y", args.y)
    pairs = [(x, y) for x in xs for y in ys]
    rows = _potential_table(L, ks, pairs, w_max=args.w_max)
    if args.format == "csv":
        _emit(args, {}, rows=rows, header=("k", "x", "y", "phi", "status"))
    else:
        payload = {"table": [dict(zip(("k", "x", "y", "phi", "status"), r)) for r in rows]}
        _emit(args, payload)


def _flag_points(flag, text):
    """Points of a flag: `,` between points and `;` between coordinates."""
    return [[config_mod._finite(c, f"{flag} point {i}: coordinate") for c in p.split(";")]
            for i, p in enumerate(text.split(","), 1)]


def cmd_suspend_integrate(args):
    if not 0 < args.tau_base < np.inf:            # NaN fails this test too
        raise ValueError(f"--tau-base must be finite and > 0, got {args.tau_base}")
    if not -args.tau_base < args.tau_bonus < np.inf:
        raise ValueError(f"--tau-bonus must be finite with --tau-base + --tau-bonus > 0, "
                         f"got {args.tau_bonus}")
    A = _load_matrix(args)
    if args.tau_bonus and not 0 <= args.tau_symbol < A.m:
        raise ValueError(f"--tau-symbol must be a symbol in [0, {A.m}), got {args.tau_symbol}")
    nu = sus_mod.parry_measure(A)
    tau = sus_mod.CeilingFunction.symbol_bonus(args.tau_base, args.tau_bonus, args.tau_symbol) \
        if args.tau_bonus else sus_mod.CeilingFunction.constant(args.tau_base)
    fns = {
        "one": lambda w, s: 1.0,
        "height": lambda w, s: s,
        "symbol0": lambda w, s: float(w[0] == 0),
    }
    with np.errstate(over="ignore", invalid="ignore"):    # _emit refuses what overflows
        integ = sus_mod.lift_measure(nu, tau)
        value = integ.integrate(fns[args.f], radius=1)
    _emit(args, {"f": args.f, "value": value, "mean_ceiling": integ.total_time})


def _cat_ensemble(args, backward=0):
    if args.orbits < 1:
        raise ValueError(f"--orbits must be at least 1, got {args.orbits}")
    tm = hyp_mod.cat_map()
    rng = np.random.default_rng(args.seed)
    return tm, hyp_mod.orbit_ensemble(tm, args.orbits, args.steps, rng=rng,
                                      backward=backward)


def cmd_entropy_estimate(args):
    # a rate over no time is undefined, not 0
    if args.T is not None and not args.T > 0:      # NaN fails this test too
        raise ValueError(f"--T must be positive, got {args.T}")
    if args.ensemble:
        with open(args.ensemble) as fh:
            F = entropy_mod.ensemble_from_csv(fh.read())
    else:
        if args.steps < 1:
            raise ValueError(f"--steps must be at least 1, got {args.steps}")
        _, F = _cat_ensemble(args)
    T = args.T if args.T is not None else float(F.n_steps - 1 - F.origin)
    if F.steps_for(T) < 2:
        raise ValueError(f"T={T} spans no sample step: a rate needs at least one")
    # one ladder pass; the greedy net is both the cover and the separated set
    r, pairs, covers = entropy_mod.ladder_counts(F, T, args.delta, covers=args.series)
    header = ("t", "cover", "close_pairs")
    rows = [(t, covers[t], pairs[t]) for t in range(len(pairs))] if args.series else None
    if args.series and args.format == "csv":       # the series alone: no rate printed
        _emit(args, {}, rows=rows, header=header)
        return
    # a slope from fewer than two usable steps is as undefined as one over no time
    kept = sum(c >= entropy_mod._FLOOR for c in pairs)
    if kept < 2:
        raise ValueError(f"the decay rate needs two steps with at least {entropy_mod._FLOOR} "
                         f"close pairs; {kept} step(s) kept them")
    payload = {"T": T, "delta": args.delta, "r": r, "s": r,
               "h_estimate": entropy_mod.decay_rate(pairs)}
    if args.series:
        payload["series"] = [dict(zip(header, row)) for row in rows]
    _emit(args, payload)


def cmd_hexpansivity(args):
    if args.horizon < 0:
        raise ValueError(f"--horizon must be at least 0, got {args.horizon}")
    _, F = _cat_ensemble(args, backward=args.horizon)
    classes = entropy_mod.gamma_sets(F, args.eps, args.horizon)
    probe = entropy_mod.class_probe(F, classes, args.delta)
    _emit(args, {"eps": args.eps, "horizon": args.horizon, "probe": probe,
                 "max_class_size": max(len(c) for c in classes)})


def cmd_shadow(args):
    entries = [config_mod._integer(v, f"--matrix-entries entry {i}")
               for i, v in enumerate(args.matrix_entries.split(","), 1)]
    if len(entries) != 4:
        raise ValueError(f"--matrix-entries needs 4 entries a,b,c,d, got {len(entries)}")
    tm = hyp_mod.ToralAutomorphism(np.array(entries).reshape(2, 2))
    if args.orbit:
        with open(args.orbit) as fh:
            _, rows = config_mod.csv_rows(fh.read())
        pts = config_mod.csv_cells(   # the last two cells are the point; leading ones are labels
            rows, lambda w: (None,) * (w - 2) + ("coordinate",) * 2 if w >= 2 else None,
            "two coordinate")
        orbits = [hyp_mod.PseudoOrbit(tm, np.array(pts))]
    else:
        if args.count < 1:
            raise ValueError(f"--count must be at least 1, got {args.count}")
        if args.length < 2:
            raise ValueError(f"--length must be at least 2, got {args.length}")
        if not 0.0 <= args.delta < 0.25:          # NaN fails this test too
            raise ValueError(f"--delta must be finite, >= 0 and < 0.25, got {args.delta}")
        rng = np.random.default_rng(args.seed)
        orbits = hyp_mod.random_pseudo_orbit_batch(tm, args.count, args.length, args.delta, rng)
    _, eps = hyp_mod.shadow_batch(tm, orbits)
    eps = [float(e) for e in eps]
    delta = max(p.delta for p in orbits)
    _emit(args, {"Q": tm.shadowing_q, "delta": delta,
                 "eps_achieved": max(eps), "mean_eps": sum(eps) / len(eps),
                 "length": max(len(p) for p in orbits), "count": len(orbits),
                 "all_within_Q_delta": bool(max(e / p.delta if p.delta else 0.0
                                                for e, p in zip(eps, orbits))
                                            <= tm.shadowing_q)})


def cmd_canal_experiment(args):
    with open(args.config) as fh:
        text = fh.read()
    L, canal, econf = config_mod.parse_canal_experiment(
        text, base_dir=os.path.dirname(os.path.abspath(args.config)))
    report = experiment_localization(L, canal, econf)
    _emit(args, report)


def build_parser():
    parser = argparse.ArgumentParser(prog="torusdyn", description=__doc__)
    parser.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                        help="accepted for compatibility; unused (shadow runs one batch)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        if seed:
            p.add_argument("--seed", type=int, default=0)

    def matrix_flags(p):
        source = p.add_mutually_exclusive_group()
        source.add_argument("--matrix", default=None, help="0/1 grid or rle file")
        source.add_argument("--golden-mean", action="store_true")
        source.add_argument("--full-shift", type=int, default=None, metavar="M")

    p = sub.add_parser("sft-entropy", help="topological entropy of a subshift")
    matrix_flags(p); common(p, seed=False)
    p.set_defaults(func=cmd_sft_entropy)

    p = sub.add_parser("sft-shortest-cycle", help="minimum-period orbit and its bound")
    matrix_flags(p); common(p, seed=False)
    p.set_defaults(func=cmd_sft_shortest_cycle)

    p = sub.add_parser("sft-recode", help="n-block recoding Z^(n)")
    matrix_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--matrix-out", default=None)
    common(p, seed=False)
    p.set_defaults(func=cmd_sft_recode)

    p = sub.add_parser("critical-value", help="Mane critical value of a Lagrangian config")
    p.add_argument("--config", required=True)
    p.add_argument("--tol", type=float, default=1e-2,
                   help="kept for compatibility; does not change the result")
    common(p, seed=False)
    p.set_defaults(func=cmd_critical_value)

    p = sub.add_parser("action-potential", help="potential table over (k, x, y)")
    p.add_argument("--config", required=True)
    p.add_argument("--k", required=True, help="comma-separated k values")
    p.add_argument("--x", required=True, help="points: coords ; -separated, points , -separated")
    p.add_argument("--y", required=True)
    p.add_argument("--w-max", type=int, default=3)
    common(p, seed=False)
    p.set_defaults(func=cmd_action_potential)

    p = sub.add_parser("suspend-integrate", help="integrate against a lifted measure")
    matrix_flags(p)
    p.add_argument("--tau-base", type=float, default=1.0)
    p.add_argument("--tau-bonus", type=float, default=0.0)
    p.add_argument("--tau-symbol", type=int, default=1)
    p.add_argument("--f", choices=("one", "height", "symbol0"), default="height")
    common(p, seed=False)
    p.set_defaults(func=cmd_suspend_integrate)

    p = sub.add_parser("entropy-estimate", help="spanning/separated counts and rate")
    p.add_argument("--ensemble", default=None, help="orbit CSV (orbit,step,coords)")
    p.add_argument("--orbits", type=int, default=1000)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--T", type=float, default=None)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--series", action="store_true")
    common(p)
    p.set_defaults(func=cmd_entropy_estimate)

    p = sub.add_parser("hexpansivity", help="entropy of eps-indistinguishability classes")
    p.add_argument("--orbits", type=int, default=300)
    p.add_argument("--steps", type=int, default=40)
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--horizon", type=int, default=30)
    p.add_argument("--delta", type=float, default=0.05)
    common(p)
    p.set_defaults(func=cmd_hexpansivity)

    p = sub.add_parser("shadow", help="shadow pseudo-orbits of a toral automorphism")
    p.add_argument("--matrix-entries", default="2,1,1,1")
    p.add_argument("--delta", type=float, default=1e-4)
    p.add_argument("--length", "--len", type=int, default=10000)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--orbit", default=None, help="pseudo-orbit CSV; a row's last two columns are its point")
    common(p)
    p.set_defaults(func=cmd_shadow)

    p = sub.add_parser("canal-experiment", help="perturb by a canal and re-estimate")
    p.add_argument("--config", required=True)
    common(p)
    p.set_defaults(func=cmd_canal_experiment)

    return parser


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        args.func(args)
    except (ValueError, RuntimeError, FloatingPointError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
