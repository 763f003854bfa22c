"""Span tracing for the traced benchmark run, installed from outside the package.

Each public function is wrapped at the module name its callers resolve at
call time (``engine.py`` looks up ``denoise_linear`` in its own globals, so the
wrap goes on ``mlvamp.engine.denoise_linear``, not on the defining module).
A span records (name, start, end, parent, trial); a layer's self time is its
span time minus the time of its child spans.  Spans stay in memory and are
written out when the run ends.
"""
import importlib
import json
import time
from collections import defaultdict

import numpy as np


def _elements(args, kwargs, out):
    """Quadrature nodes evaluated by one ``denoise_middle`` call."""
    return int(np.broadcast(np.asarray(args[1]), np.asarray(args[2])).size)


def _clamp_events(args, kwargs, out):
    return int(sum(rec.clamp_events for rec in out))


def _linear_bytes(args, kwargs, out):
    """Computed bytes of the 4 orthogonal-factor matvecs of one linear denoise."""
    st = args[0]
    return 2 * 8 * (st.n_in ** 2 + st.n_out ** 2)


def _observed_bytes(args, kwargs, out):
    """Computed bytes of the observed stage: V_in twice, V_out once."""
    st = args[0]
    return 8 * (2 * st.n_in ** 2 + st.n_out ** 2)


# (module, attribute, span name, starts a trial, counter).  Several bindings of
# one function (``engine.run`` as the benchmark calls it and as the experiment
# calls it) share a span name; each binding wraps the original function, so no
# call is counted twice.
WRAPS = (
    ("mlvamp.experiment", "run_iteration_experiment",
     "experiment.run_iteration_experiment", False, None),
    ("mlvamp.experiment", "ExperimentResult.write_csv", "experiment.write", False, None),
    ("mlvamp.experiment", "ExperimentResult.write_json", "experiment.write", False, None),
    ("mlvamp.experiment", "sample_trajectory", "network.sample_trajectory", True, None),
    ("mlvamp.experiment", "run_se", "state_evolution.run_se", False, None),
    ("mlvamp.experiment", "run", "engine.run", False, _clamp_events),
    ("mlvamp.engine", "run", "engine.run", True, _clamp_events),
    ("mlvamp.engine", "denoise_linear", "linear_denoiser.denoise_linear", False,
     _linear_bytes),
    ("mlvamp.engine", "denoise_linear_observed",
     "linear_denoiser.denoise_linear_observed", False, _observed_bytes),
    ("mlvamp.engine", "denoise_middle", "scalar_denoiser.denoise_middle.engine",
     False, None),
    ("mlvamp.engine", "denoise_input", "scalar_denoiser.denoise_input", False, None),
    ("mlvamp.state_evolution", "error_nonlinear",
     "state_evolution.error_nonlinear", False, None),
    ("mlvamp.state_evolution", "error_linear", "state_evolution.error_linear",
     False, None),
    ("mlvamp.state_evolution", "error_observed_linear",
     "state_evolution.error_observed_linear", False, None),
    ("mlvamp.state_evolution", "denoise_middle", "scalar_denoiser.denoise_middle.se",
     False, _elements),
    ("mlvamp.baselines", "map_estimate", "baselines.map_estimate", False, None),
    ("mlvamp.baselines", "sgld_run", "baselines.sgld_run", False, None),
    ("mlvamp.baselines", "grad_hamiltonian", "baselines.grad_hamiltonian", False, None),
    ("mlvamp.baselines", "hamiltonian", "baselines.hamiltonian", False, None),
    ("mlvamp.network", "build_synthetic_network", "network.build_synthetic_network",
     False, None),
    ("mlvamp.network", "sample_trajectory", "network.sample_trajectory", False, None),
)


class StaleWrapError(RuntimeError):
    """A layer expected on a workload recorded no calls."""


class Tracer:
    """In-memory span recorder.  ``install`` swaps the wrappers in and
    ``uninstall`` restores the original functions."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, trial]
        self.counts = defaultdict(int)
        self.trial = None
        self._next_trial = 0
        self._stack = []
        self._saved = []

    def begin_trial(self):
        self.trial = self._next_trial
        self._next_trial += 1

    def reset(self):
        """Drop recorded spans and counts (the trial counter keeps running)."""
        self.spans, self.counts, self.trial = [], defaultdict(int), None

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.trial])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, starts_trial, counter):
        def traced(*args, **kwargs):
            if starts_trial:
                self.begin_trial()
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                self.counts[name] += counter(args, kwargs, out)
            return out
        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module, attr, name, starts_trial, counter in WRAPS:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, leaf, None)
            if fn is None:
                self.uninstall()
                raise StaleWrapError(f"{module}.{attr} no longer exists; update "
                                     "WRAPS to where its callers resolve it")
            self._saved.append((owner, leaf, fn))
            setattr(owner, leaf, self._wrap(fn, name, starts_trial, counter))

    def uninstall(self):
        while self._saved:
            owner, leaf, fn = self._saved.pop()
            setattr(owner, leaf, fn)

    def summary(self):
        """name -> {"calls", "total_s", "self_s", "durations"} over recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                   "durations": []})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            d = end - start
            s = out[name]
            s["calls"] += 1
            s["total_s"] += d
            s["self_s"] += d - child[i]
            s["durations"].append(d)
        return out

    @staticmethod
    def check_expected(expected, called):
        """Fail loudly when a span expected on the workload has no calls."""
        missing = sorted(set(expected) - set(called))
        if missing:
            raise StaleWrapError(
                "no calls recorded for " + ", ".join(missing) + "; a caller no "
                "longer resolves these names where the benchmark wraps them "
                "(see WRAPS in perfbench/spans.py)")

    def dump(self, path, facts):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {"facts": facts, "names": names,
               "fields": ["name", "start_s", "end_s", "parent", "trial"],
               "spans": [[index[n], round(s - t0, 7), round(e - t0, 7), p, t]
                         for n, s, e, p, t in self.spans]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
