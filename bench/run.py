"""torusdyn benchmark: time to a checked answer, end to end and per layer.

    python3 bench/run.py --workload session|perron --seed N \
        --seconds S --trace 0|1 [--save DIR]
    python3 bench/run.py --workload all --seed N      # both, one after the other

Each run starts fresh worker processes from the checkout's `src` (nothing
installed is used): SETUP_BEFORE that only set up, one that also runs the
workload's jobs one after another in one timed pass, then SETUP_AFTER more
that only set up, so the `setup_s` samples span the run.  The work of a run
is fixed, the same on every commit; `--seconds` is recorded but changes no
work.  Every output is checked against an independent oracle.  With
`--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` the worker runs one untraced and one traced pass, and the line
carries the per-layer metrics of the traced pass (discarded,
`correct: false`, if its outputs differ from the untraced ones).

`correct` is true when every failed job is a known defect listed in
workloads.py and (traced) tracing changed no output.  `failed` counts every
job that raised or missed its tolerance, known defects included.  See
bench/README.md for seeds and workloads.
"""

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("session", "perron")
# setup-only workers before and after the measuring worker, so the setup_s
# samples span the run; each one adds 1 to 2 s to a run
SETUP_BEFORE = 1
SETUP_AFTER = 1
DEADLINE_S = 170.0
# setup_s is scaled to a fixed host speed: each worker's raw set-up seconds
# x REF_S / t_ref, t_ref the time of a pure-Python loop (worker.reference_s)
# that the worker runs just before it imports torusdyn, so the program cannot
# move it.  The host's speed drifts from second to second, and the loop right
# before the import tracks it better than a median of three 1-s samples does.
REF_S = 0.025

# printed and saved; BENCHMARK.json gates all but job_p50_s, whose run-to-run
# spread (one job's latency) exceeded the largest bound allowed, 0.25
END_TO_END_UNITS = {
    "wall_s": "s",
    "job_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "fraction",
    "err_ratio_max": "ratio",
}


def machine_record(seed, blas_threads):
    """Where and on what the numbers were measured."""
    from importlib import metadata

    rec = {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
           "cpu_model": None, "caches": {}, "python": platform.python_version(),
           "blas_threads": blas_threads, "seed": seed}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            rec[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            rec[pkg] = None
    try:
        with open("/proc/cpuinfo") as fh:
            rec["cpu_model"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                     if ln.startswith("model name")), None)
    except OSError:
        pass
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            parts = [open(os.path.join(index, f)).read().strip() for f in ("level", "type", "size")]
        except OSError:
            continue
        rec["caches"][f"L{parts[0]}-{parts[1]}"] = parts[2]
    rec["git_commit"] = None   # a plain checkout has none; src_sha256 identifies the code
    try:
        top, _, head = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip().partition("\n")
        if top and os.path.realpath(top) == os.path.realpath(ROOT):
            rec["git_commit"] = head
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "torusdyn", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    rec["src_sha256"] = digest.hexdigest()
    return rec


def _worker(args, mode, deadline, env):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("time budget exhausted before the worker started")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=remaining)
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args, blas_threads):
    """Full result record for one workload run."""
    if not os.path.isfile(os.path.join(ROOT, "src", "torusdyn", "__init__.py")):
        raise RuntimeError(f"no torusdyn sources under {os.path.join(ROOT, 'src')}")
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    setups = [_worker(args, "setup", deadline, env)["setup"] for _ in range(SETUP_BEFORE)]
    main = _worker(args, "trace" if args.trace else "run", deadline, env)
    setups.append(main["setup"])
    setups += [_worker(args, "setup", deadline, env)["setup"] for _ in range(SETUP_AFTER)]

    jobs = main["jobs"]
    for job, latency in zip(jobs, main["latencies_s"]):
        job["latency_s"] = latency
    failed = [j for j in jobs if j["failed"]]
    # a non-finite error (say, an unbounded potential) fails its job but has no ratio
    ratios = [c["err"] / c["tol"] for j in jobs for c in j["checks"]
              if c["tol"] > 0 and math.isfinite(c["err"])]
    raw = {"setup_s": statistics.median(s["import_s"] + s["inputs_s"] for s in setups),
           "wall_s": main["raw_wall_s"]}
    metrics = {
        "wall_s": main["wall_s"],
        "job_p50_s": statistics.median(main["latencies_s"]),
        "setup_s": statistics.median((s["import_s"] + s["inputs_s"]) * REF_S / s["ref_s"]
                                     for s in setups),
        "peak_rss_mb": main["peak_rss_mb"],
        "failed_frac": len(failed) / len(jobs),
        "err_ratio_max": max(ratios) if ratios else 0.0,
    }
    unexpected = [j["name"] for j in failed if not j["known_defect"]]
    correct = not unexpected and main.get("identical", True)
    layers = None
    if args.trace:
        layers = dict(main["layers"])
        for part in ("import_s", "inputs_s"):
            layers[f"setup.{part}"] = statistics.median(s[part] * REF_S / s["ref_s"]
                                                        for s in setups)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": int(args.trace), "correct": correct, "unexpected_failures": unexpected,
        "identical": main.get("identical"), "attempted": len(jobs), "failed": len(failed),
        "metrics": metrics, "raw": raw, "layers": layers,
        "setups": setups, "jobs": jobs,
        "traced_wall_s": main.get("traced_wall_s"),
        "probe_scale": main["probe_scale"], "probes": main["probes"],
        "machine": machine_record(args.seed, blas_threads),
    }


def _fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_report(rec, out=sys.stdout):
    w = rec["workload"]
    for j in rec["jobs"]:
        status = "FAIL" if j["failed"] else "ok"
        defect = f"  [known defect: {j['known_defect']}]" if j["known_defect"] else ""
        print(f"{w:10s} {status:4s} {j['name']}{defect}", file=out)
        if j["error"]:
            print(f"{'':16s}error: {j['error'][:200]}", file=out)
        for c in j["checks"]:
            print(f"{'':16s}{c['label']}: value {_fmt(c['value'])}  oracle {_fmt(c['oracle'])}"
                  f"  err {c['err']:.3g}  tol {c['tol']:.3g}", file=out)
    m = rec["metrics"]
    print(f"{w:10s} end-to-end ({rec['attempted']} jobs, one pass):", file=out)
    for name, unit in END_TO_END_UNITS.items():
        extra = f"  (n = {rec['attempted']} jobs)" if name == "job_p50_s" else ""
        if name in rec["raw"]:
            extra = f"  raw {rec['raw'][name]:.6g} {unit}" + extra
        print(f"{'':11s}{name:14s} {m[name]:.6g} {unit}{extra}", file=out)
    print(f"{w:10s} correct={rec['correct']} attempted={rec['attempted']} failed={rec['failed']}"
          f" unexpected={rec['unexpected_failures']}", file=out)


def result_line(rec, declared):
    """The last stdout line: the metrics BENCHMARK.json declares, as [(name, unit)]."""
    values = rec["layers"] if rec["trace"] else rec["metrics"]
    metrics = {n: {"value": values[n], "unit": u} for n, u in declared}
    return json.dumps({"correct": rec["correct"], "attempted": rec["attempted"],
                       "failed": rec["failed"], "metrics": metrics})


def _declared(key):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[key]]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", default=None, help="directory for the full result record")
    args = ap.parse_args(argv)
    # one BLAS thread: on this shared 2-core host a two-thread matvec waits
    # for both cores at once, and its time spread 5x wider than one thread's
    # at the same median speed
    blas_threads = 1
    try:
        names = [args.workload] if args.workload != "all" else list(WORKLOADS)
        records = []
        for name in names:
            args.workload = name
            rec = run_workload(args, blas_threads)
            print_report(rec)
            records.append(rec)
            if args.save:
                os.makedirs(args.save, exist_ok=True)
                path = os.path.join(args.save, f"{name}-s{args.seed}-t{args.trace}-"
                                               f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
                with open(path, "w") as fh:
                    json.dump(rec, fh, indent=1)
        print("machine: " + json.dumps(records[0]["machine"], sort_keys=True))
        declared = _declared("per_layer" if args.trace else "end_to_end")
        for rec in records:
            print(result_line(rec, declared))
    except (RuntimeError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
