"""Compare two sets of benchmark results, or check the spread of one.

    python3 bench/compare.py DIR                 # spread of each metric vs its bound
    python3 bench/compare.py PARENT_DIR CHANGE_DIR

A result set is a directory of records written by `run.py --save DIR`.
For each workload and end-to-end metric it prints each side's median and
quartiles (statistics.quantiles, n=4) and a verdict:

- better: the change wins at least 9 of 10 seed-paired runs (or, without
  pairs, every change run beats every parent run) and the medians differ by
  more than the parent's own quartile spread;
- worse: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json, and that spread is within the bound;
- within bound: worse by at most the bound, spread within the bound;
- unresolved: fewer than 3 runs a side, or a spread wider than the bound.

It then prints one summary row per workload and, where both sides have
traced runs, the per-layer medians side by side.
"""

import glob
import json
import math
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    """{(workload, trace): [record, ...]} for every run record in directory."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            rec = json.load(fh)
        out.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(parent, change, bound, better="lower", pairs=None):
    """One of better / worse / within bound / unresolved (see module doc)."""
    if len(parent) < 3 or len(change) < 3:
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    _, med_a, _ = quartiles(parent)
    _, med_b, _ = quartiles(change)
    diff = sign * (med_b - med_a)                          # > 0 means worse
    rel = diff / abs(med_a) if med_a else (0.0 if diff == 0 else math.copysign(math.inf, diff))
    own = spread(parent)
    if pairs:
        wins = sum(sign * (b - a) < 0 for a, b in pairs)
        beats = wins >= 0.9 * len(pairs)
    else:
        beats = max(sign * v for v in change) < min(sign * v for v in parent)
    if beats and -rel > own:
        return "better"
    if own > bound:
        return "unresolved"
    return "worse" if rel > bound else "within bound"


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _series(records, metric):
    return [r["metrics"][metric] for r in records]


def _by_seed(records, metric):
    return {r["seed"]: r["metrics"][metric] for r in records}


def report_spread(results, spec):
    ok = True
    for (workload, trace), recs in sorted(results.items()):
        if trace:
            continue
        print(f"{workload}: {len(recs)} runs, seeds {sorted(r['seed'] for r in recs)}")
        for m in spec["end_to_end"]:
            vals = _series(recs, m["name"])
            q1, med, q3 = quartiles(vals)
            s = spread(vals)
            target = "steady" if s < m["bound"] / 3 else "WIDE" if s > m["bound"] else "within"
            ok = ok and target != "WIDE"
            print(f"  {m['name']:14s} median {med:.6g} {m['unit']:8s} q1 {q1:.6g} q3 {q3:.6g}"
                  f"  spread {s:.4f} bound {m['bound']}  {target}")
        for name in sorted(set(recs[0]["metrics"]) - {m["name"] for m in spec["end_to_end"]}):
            vals = _series(recs, name)
            q1, med, q3 = quartiles(vals)
            print(f"  {name:14s} median {med:.6g}          q1 {q1:.6g} q3 {q3:.6g}"
                  f"  spread {spread(vals):.4f} (reported, not gated)")
    return ok


def report_compare(a, b, spec):
    summary = []
    for key in sorted(set(a) & set(b)):
        workload, trace = key
        if trace:
            continue
        print(f"{workload}: parent {len(a[key])} runs, change {len(b[key])} runs")
        row = []
        for m in spec["end_to_end"]:
            name = m["name"]
            pa, pb = _series(a[key], name), _series(b[key], name)
            sa, sb = _by_seed(a[key], name), _by_seed(b[key], name)
            pairs = [(sa[s], sb[s]) for s in sorted(set(sa) & set(sb))]
            v = verdict(pa, pb, m["bound"], m["better"], pairs if len(pairs) >= 3 else None)
            qa, qb = quartiles(pa), quartiles(pb)
            print(f"  {name:14s} parent {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                  f"change {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] {m['unit']}  -> {v}")
            row.append(f"{name}={v}")
        for name in sorted(set(a[key][0]["metrics"]) - {m["name"] for m in spec["end_to_end"]}):
            qa, qb = quartiles(_series(a[key], name)), quartiles(_series(b[key], name))
            print(f"  {name:14s} parent {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                  f"change {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  -> reported, not gated")
        summary.append(f"{workload:10s} " + ", ".join(row))
    print("\nsummary (one row per workload):")
    for line in summary:
        print("  " + line)

    for key in sorted(set(a) & set(b)):
        workload, trace = key
        if not trace:
            continue
        print(f"\nper-layer, {workload} (medians of traced runs, parent -> change):")
        names = sorted(set(a[key][0]["layers"]) & set(b[key][0]["layers"]))
        for name in names:
            va = statistics.median(r["layers"][name] for r in a[key])
            vb = statistics.median(r["layers"][name] for r in b[key])
            if va == 0 and vb == 0:
                continue
            rel = f"{(vb - va) / abs(va):+.1%}" if va else "new"
            print(f"  {name:48s} {va:14.6g} -> {vb:14.6g}  {rel}")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        sys.stderr.write(__doc__)
        return 2
    spec = _spec()
    results = [load(d) for d in argv]
    if not all(results):
        sys.stderr.write("error: no result records found\n")
        return 1
    if len(results) == 1:
        return 0 if report_spread(results[0], spec) else 1
    report_compare(results[0], results[1], spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
