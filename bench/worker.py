"""One fresh benchmark worker: set up, run a workload's jobs, check them.

Started by run.py with PYTHONPATH pointing at the checkout's `src`.  The
set-up clock starts before `import torusdyn`, so `setup_s` is what a user
pays on every fresh CLI call plus building the generated inputs.  Jobs run
one after another (a closed loop with one client) in one timed pass, the
same fixed work on every commit; a traced worker adds one traced pass.  The
oracle checks run afterwards.  The last stdout line is one JSON record.

    python3 bench/worker.py --workload W --seed N --mode run|trace|setup
"""

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

# numpy and the bench modules are imported only after the set-up clock starts

REF_LOOPS = 5
# host-speed probes during a pass (HostProbe): one every PROBE_EVERY_S of
# wall time; PROBE_REF_S is the probe time that defines the scaled second
PROBE_EVERY_S = 0.2
PROBE_REF_S = 0.002


def reference_s():
    """Median time of a fixed pure-Python loop: the host's speed right now.

    It runs before torusdyn is imported, so no change to the program can
    move it; run.py scales this worker's set-up time by it."""
    times = []
    for _ in range(REF_LOOPS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class HostProbe:
    """Times a fixed probe every PROBE_EVERY_S of wall time while a pass runs.

    The host's speed swings by up to 2x within a second and drifts by 25 %
    over minutes, so the pass times of an interpreter-bound workload are
    scaled to a fixed host speed: x PROBE_REF_S / (mean probe time).  The
    probe is what such jobs spend their time on: a pure-Python loop and
    small-array numpy arithmetic, about 2 ms.  It calls nothing of torusdyn
    and keeps no state the jobs see, so no change to the program can move
    it except by leaving threads running.  SIGALRM fires on wall time, so
    the probes sample the pass uniformly; their own time is left out of the
    pass and job times.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._x = np.random.default_rng(0).random(64)
        self.times = []
        self.spent = 0.0
        self._busy = False

    def probe(self):
        acc = 0
        for i in range(10_000):
            acc += i * i % 7
        x = self._x
        for _ in range(250):
            x = self._np.cos(x) * 0.5 + 0.25
        return acc, x

    def sample(self):
        t0 = time.perf_counter()
        self.probe()
        dt = time.perf_counter() - t0
        self.times.append(dt)
        self.spent += dt

    def _on_alarm(self, signum, frame):
        if not self._busy:
            self._busy = True
            self.sample()
            self._busy = False

    def __enter__(self):
        self.probe()   # warm-up, untimed
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.times:   # a pass shorter than one probe interval
            self.sample()
        return False

    def scale(self):
        """Scaled seconds per raw second for this pass."""
        return PROBE_REF_S / statistics.mean(self.times)


def _canonical(value):
    """JSON-comparable form of a job output; arrays become shape plus digest."""
    import hashlib

    import numpy as np

    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value)
        return {"shape": list(data.shape),
                "sha256": hashlib.sha256(data.tobytes()).hexdigest()}
    if isinstance(value, np.generic):
        return value.item()
    return value


def run_pass(jobs, plug, probe=None):
    """(wall seconds, [(name, latency_s, output or None, error or None)]).

    With a HostProbe, the probes' own time is left out of both."""
    from workloads import PassContext

    ctx = PassContext(plug)
    results = []
    spent = (lambda: probe.spent) if probe else (lambda: 0.0)
    start, start_spent = time.perf_counter(), spent()
    for job in jobs:
        t0, s0 = time.perf_counter(), spent()
        try:
            out, err = job.run(ctx), None
        except Exception as exc:   # a failed job is a result, not a crash
            out, err = None, f"{type(exc).__name__}: {exc}"
        results.append((job.name, time.perf_counter() - t0 - (spent() - s0), out, err))
    return time.perf_counter() - start - (spent() - start_spent), results


def _check_jobs(jobs, results):
    records = []
    for job, (name, _, out, err) in zip(jobs, results):
        checks = []
        if err is None:
            try:
                checks = job.check(out)
            except Exception as exc:   # an output the oracle cannot read fails the job
                err = f"check {type(exc).__name__}: {exc}"
        bad = err is not None or any(not c["err"] <= c["tol"] for c in checks)
        records.append({"name": name, "failed": bad, "error": err, "checks": checks,
                        "known_defect": job.known_defect})
    return records


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    args = ap.parse_args(argv)

    os.makedirs(os.path.join(BENCH_DIR, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=os.path.join(BENCH_DIR, ".work"))
    try:
        ref = reference_s()
        t0 = time.perf_counter()
        import torusdyn

        t1 = time.perf_counter()
        src = os.path.realpath(os.path.join(ROOT, "src"))
        if not os.path.realpath(torusdyn.__file__).startswith(src + os.sep):
            sys.stderr.write(f"error: torusdyn imported from {torusdyn.__file__}, not {src}\n")
            return 2
        sys.path.insert(0, BENCH_DIR)
        from workloads import build

        jobs = build(args.workload, args.seed, workdir)
        t2 = time.perf_counter()
        record = {"setup": {"import_s": t1 - t0, "inputs_s": t2 - t1, "ref_s": ref}}
        if args.mode != "setup":
            record.update(_measure(jobs, args.workload, args.mode == "trace"))
        print(json.dumps(record))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(jobs, workload, traced):
    from tracing import Plain, Tracer
    from workloads import SCALED

    if workload in SCALED:
        with HostProbe() as probe:
            wall, results = run_pass(jobs, Plain(), probe)
        scale, probes = probe.scale(), len(probe.times)
    else:
        wall, results = run_pass(jobs, Plain())
        scale, probes = 1.0, 0
    record = {
        "wall_s": wall * scale,
        "raw_wall_s": wall,
        "probe_scale": scale,
        "probes": probes,
        "latencies_s": [lat * scale for _, lat, _, _ in results],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced:
        # no probes here: they would land in the busy_s of whichever span
        # is open, so trace.overhead_frac compares raw seconds
        tracer = Tracer()
        tracer.install()
        try:
            traced_wall, traced_results = run_pass(jobs, tracer)
        finally:
            tracer.restore()
        record["identical"] = ([_canonical(out) for _, _, out, _ in traced_results]
                               == [_canonical(out) for _, _, out, _ in results])
        layers = tracer.layer_metrics()
        layers["trace.overhead_frac"] = traced_wall / wall - 1.0
        record["traced_wall_s"] = traced_wall
        record["layers"] = layers
    record["jobs"] = _check_jobs(jobs, results)
    return record


if __name__ == "__main__":
    sys.exit(main())
