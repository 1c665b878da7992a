"""Spans around public torusdyn calls, and counting plug-ins, for the traced run.

Tracing lives entirely in the benchmark.  A traced pass swaps every traced
public function (and a few public methods) for a wrapper in every
`torusdyn` module namespace that holds it, so calls the library makes to
itself are spanned too; `restore()` puts the originals back.  The plug-ins
forward everything they do not count, so traced outputs are bit-identical
to untraced ones; the worker compares them and discards a run where they
differ.
"""

import functools
import math
import sys
import time
from collections import Counter

import numpy as np

# (module, public function or Class.method) spanned in the traced run
TRACED = (
    ("action", "action_potential"),
    ("action", "critical_value"),
    ("action", "tonelli_minimizer"),
    ("action", "NegativeLoopSearch.find"),
    ("action", "action"),
    ("lagrangian", "el_flow"),
    ("perturbation", "experiment_localization"),
    ("perturbation", "perturb"),
    ("config", "parse_lagrangian"),
    ("config", "parse_canal_experiment"),
    ("cli", "run"),
    ("entropy", "spanning_count"),
    ("entropy", "separated_count"),
    ("entropy", "entropy_estimate"),
    ("entropy", "count_ladder"),
    ("entropy", "pair_survival_ladder"),
    ("entropy", "h_expansivity_probe"),
    ("entropy", "gamma_set"),
    ("entropy", "refine_entropy"),
    ("hyperbolic", "orbit_ensemble"),
    ("hyperbolic", "random_pseudo_orbit"),
    ("hyperbolic", "shadow"),
    ("hyperbolic", "shadow_batch"),
    ("hyperbolic", "periodic_shadow"),
    ("sft", "top_entropy"),
    ("sft", "shortest_cycle"),
    ("sft", "bq_bound"),
    ("suspension", "parry_measure"),
    ("suspension", "MarkovMeasure.sample"),
    ("suspension", "LiftedMeasure.integrate"),
)

# counters fed by the plug-ins below
COUNTERS = (
    "fields.value_calls",
    "fields.grad_calls",
    "fields.points",
    "entropy.metric_calls",
    "entropy.metric_pairs",
    "suspension.integrand_calls",
)


def _points(x):
    return math.prod(np.shape(x)[:-1])


class CountingField:
    """Scalar-field plug-in: counts value and gradient calls and points."""

    def __init__(self, field, counts):
        self._field = field
        self._counts = counts

    def __call__(self, x):
        self._counts["fields.value_calls"] += 1
        self._counts["fields.points"] += _points(x)
        return self._field(x)

    def grad(self, x):
        self._counts["fields.grad_calls"] += 1
        self._counts["fields.points"] += _points(x)
        return self._field.grad(x)

    def __getattr__(self, name):
        return getattr(self._field, name)


class CountingMetric:
    """Ensemble-metric plug-in: counts calls and distances computed."""

    def __init__(self, metric, counts):
        self._metric = metric
        self._counts = counts

    def __call__(self, a, b):
        d = self._metric(a, b)
        self._counts["entropy.metric_calls"] += 1
        self._counts["entropy.metric_pairs"] += int(getattr(d, "size", 1))
        return d

    def __getattr__(self, name):
        return getattr(self._metric, name)


class CountingIntegrand:
    """Suspension-integrand plug-in: counts evaluations."""

    def __init__(self, fn, counts):
        self._fn = fn
        self._counts = counts

    def __call__(self, *args):
        self._counts["suspension.integrand_calls"] += 1
        return self._fn(*args)

    def __getattr__(self, name):
        return getattr(self._fn, name)


class Plain:
    """Untraced plug-in factory: hands every object back unchanged."""

    def field(self, f):
        return f

    def metric(self, m):
        return m

    def integrand(self, f):
        return f


class Tracer:
    """Per-function call, self-time and failure totals over spans.

    A span's busy time is its duration minus the time covered by its
    direct child spans.  Counter deltas are attributed inclusively to the
    outermost open span of each name.
    """

    def __init__(self):
        self.counts = Counter()
        self.stats = {}        # name -> [calls, busy_s, failed]
        self.inclusive = {}    # name -> Counter of counter deltas
        self._stack = []       # [name, t0, child_s, counts snapshot] per open span
        self._originals = []

    # plug-in factory interface (see Plain)
    def field(self, f):
        return CountingField(f, self.counts)

    def metric(self, m):
        return CountingMetric(m, self.counts)

    def integrand(self, f):
        return CountingIntegrand(f, self.counts)

    def _call(self, name, fn, args, kwargs):
        frame = [name, 0.0, 0.0, Counter(self.counts)]
        self._stack.append(frame)
        failed = True
        frame[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            dur = time.perf_counter() - frame[1]
            self._stack.pop()
            if self._stack:
                self._stack[-1][2] += dur
            st = self.stats.setdefault(name, [0, 0.0, 0])
            st[0] += 1
            st[1] += dur - frame[2]
            st[2] += failed
            if all(f[0] != name for f in self._stack):
                inc = self.inclusive.setdefault(name, Counter())
                inc.update(self.counts - frame[3])

    def _wrap(self, name, fn, post):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self._call(name, fn, args, kwargs)
            return post(result) if post else result
        return traced

    def install(self):
        """Swap traced functions for spanning wrappers in every torusdyn module."""
        posts = {
            "config.parse_lagrangian": self._instrument_lagrangian_meta,
            "config.parse_canal_experiment": self._instrument_canal,
            "hyperbolic.orbit_ensemble": self._instrument_ensemble,
        }
        swaps = {}
        for mod_name, qual in TRACED:
            mod = sys.modules[f"torusdyn.{mod_name}"]
            owner, attr = mod, qual
            if "." in qual:
                cls_name, attr = qual.split(".")
                owner = getattr(mod, cls_name)
            original = owner.__dict__[attr]
            name = f"{mod_name}.{qual}"
            wrapper = self._wrap(name, original, posts.get(name))
            swaps[id(original)] = wrapper
            if owner is not mod:
                self._originals.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "torusdyn" or mod_name.startswith("torusdyn.")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in swaps and callable(value):
                    self._originals.append((mod, attr, value))
                    setattr(mod, attr, swaps[id(value)])

    def restore(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals = []

    def _instrument_L(self, L):
        from torusdyn.lagrangian import MechanicalLagrangian

        if isinstance(L.potential, CountingField):   # parsed by a nested traced call
            return L
        return MechanicalLagrangian(L.dim, self.field(L.potential), L.oneform)

    def _instrument_lagrangian_meta(self, result):
        L, meta = result
        return self._instrument_L(L), meta

    def _instrument_canal(self, result):
        L, canal, econf = result
        return self._instrument_L(L), canal, econf

    def _instrument_ensemble(self, F):
        F.metric = self.metric(F.metric)
        return F

    def layer_metrics(self):
        """Flat {metric name: value} over every traced function and counter."""
        out = {}
        for mod_name, qual in TRACED:
            name = f"{mod_name}.{qual}"
            calls, busy, failed = self.stats.get(name, (0, 0.0, 0))
            out[f"{name}.calls"] = calls
            out[f"{name}.busy_s"] = busy
            out[f"{name}.failed"] = failed
        for c in COUNTERS:
            out[c] = self.counts[c]
        for key, fn in (("potential", "action.action_potential"),
                        ("critical", "action.critical_value")):
            calls = self.stats.get(fn, (0,))[0]
            grads = self.inclusive.get(fn, Counter())["fields.grad_calls"]
            out[f"action.grad_evals_per_{key}"] = grads / calls if calls else 0.0
        return out
