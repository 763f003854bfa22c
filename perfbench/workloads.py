"""The benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` (timed as set-up)
and runs one repetition of its timed section in ``rep``, which also checks the
outputs.  Library calls go through module attributes (``engine.run``, not a
name imported into this file) so that the traced run's wrappers see them.
"""
import hashlib
import math
import os
import time

import numpy as np

from mlvamp import baselines, engine, experiment, network
from mlvamp.errors import MlvampError

# What a failed operation raises; anything else is a bug and stops the run.
OPERATION_ERRORS = (MlvampError, ValueError)

N_ITER = 50
X4_DIMS = [80, 400, 2000, 3136]
X4_N_MEAS = 1200
X4_TRIALS = 2                 # trials per repetition, the same ones every repetition
BASELINE_TRIALS = 2           # trajectories the repetitions cycle through
MAP_STEPS, MAP_STEP_SIZE = 2000, 0.01
# The preset's lambda 0.002 diverges at once on the paper network; 2e-5 does not.
SGLD_STEPS, SGLD_LAMBDA, SGLD_BURN_IN = 2000, 2e-5, 1000


class Rep:
    """Outcome of one repetition: per-trial times, operations attempted and
    failed with the reasons, deterministic quality figures and layer extras."""

    def __init__(self):
        self.wall = None
        self.trial_ms = []
        self.attempted = 0
        self.failures = []
        self.quality = {}
        self.extra = {}
        self.timings = {}
        self.layers = {}

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok


def _finite(*arrays):
    return all(np.all(np.isfinite(np.asarray(a, dtype=float))) for a in arrays)


def _check_records(rep, records, label):
    """Engine records of one trial: 2 x n_iter of them, all finite, and the
    final layer-0 NMSE below 0 dB."""
    ok = len(records) == 2 * N_ITER and all(
        _finite(r.eta, r.alpha, r.gamma_plus, r.gamma_minus, r.nmse_db)
        for r in records)
    final = float(records[-1].nmse_db[0]) if records else math.nan
    ok = rep.check(ok and final < 0.0, f"{label}: records non-finite or final "
                                       f"NMSE {final:.3f} dB not below 0 dB")
    return ok, final


def _build(dims, n_meas, seed):
    cfg = experiment.paper_config()
    return network.build_synthetic_network(dims, cfg.rho, cfg.kappa, cfg.snr_db,
                                           n_meas, seed)


class PaperIters:
    name = "paper-iters"
    setups = 3
    expected = ("experiment.run_iteration_experiment", "experiment.write",
                "state_evolution.run_se", "state_evolution.error_nonlinear",
                "state_evolution.error_linear", "state_evolution.error_observed_linear",
                "scalar_denoiser.denoise_middle.se", "engine.run",
                "linear_denoiser.denoise_linear",
                "linear_denoiser.denoise_linear_observed",
                "scalar_denoiser.denoise_middle.engine",
                "scalar_denoiser.denoise_input", "network.sample_trajectory",
                "network.build_synthetic_network")

    def setup(self, seed, out_dir):
        cfg = experiment.paper_config(include_runtime=False, seed=seed, n_iter=N_ITER)
        net = _build(cfg.dims, cfg.n_meas, cfg.seed)
        return {"cfg": cfg, "net": net, "out": out_dir, "digest": None}

    def rep(self, st, tracer=None):
        cfg = st["cfg"]
        csv_path = os.path.join(st["out"], "iters.csv")
        json_path = os.path.join(st["out"], "result.json")
        r = Rep()
        start = time.perf_counter()
        result = experiment.run_iteration_experiment(cfg, net=st["net"])
        if tracer is not None:
            tracer.trial = None
        result.write_csv(csv_path)
        result.write_json(json_path)
        r.wall = time.perf_counter() - start

        failed = {f["trial"] for f in result.metadata["failures"]}
        per_trial = {}
        for row in result.rows:
            per_trial.setdefault(row["trial"], []).append(row)
        n_layers = st["net"].n_layers
        finals = []
        for t in range(cfg.n_trials):
            rows = per_trial.get(t, [])
            ok = t not in failed and len(rows) == 2 * N_ITER * n_layers and _finite(
                [[x["nmse_db"], x["se_nmse_db"], x["gamma_plus"], x["gamma_minus"]]
                 for x in rows])
            final = [x["nmse_db"] for x in rows
                     if x["half_iter"] == 2 * N_ITER and x["layer"] == 0]
            ok = ok and len(final) == 1 and final[0] < 0.0
            if r.check(ok, f"trial {t}: failed, incomplete, non-finite or final "
                           f"NMSE not below 0 dB"):
                finals.append(final[0])
                r.trial_ms.append(result.metadata["runtimes_ms"][t]["mlvamp"])
        se = result.se
        r.check(len(se.records) == 2 * N_ITER and all(
            _finite(x.eta, x.gamma_plus, x.gamma_minus, x.nmse_db) for x in se.records),
            "SE records missing or non-finite")
        with open(csv_path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        st["digest"] = st["digest"] or digest
        r.check(digest == st["digest"], "--no-runtime CSV differs between repetitions")

        halves, gaps = result.median_abs_se_gap(0)
        r.quality = {"final_nmse_db": float(np.median(finals)) if finals else math.nan,
                     "se_gap_db": float(np.median(gaps[halves >= 10]))}
        r.extra = {"csv_sha256": digest, "rows": len(result.rows),
                   "bytes_written": os.path.getsize(csv_path) + os.path.getsize(json_path)}
        return r


class InferenceX4:
    name = "inference-x4"
    setups = 2                # one build takes ~11 s; a third would not fit the run budget
    expected = ("engine.run", "linear_denoiser.denoise_linear",
                "linear_denoiser.denoise_linear_observed",
                "scalar_denoiser.denoise_middle.engine", "scalar_denoiser.denoise_input",
                "network.sample_trajectory", "network.build_synthetic_network")

    def setup(self, seed, out_dir):
        net = _build(X4_DIMS, X4_N_MEAS, seed)
        trajs = [network.sample_trajectory(net, experiment.trial_seed(seed, t))
                 for t in range(X4_TRIALS)]
        opts = experiment.paper_config(n_iter=N_ITER).engine_options()
        return {"net": net, "trajs": trajs, "opts": opts}

    def rep(self, st, tracer=None):
        r = Rep()
        finals = []
        start = time.perf_counter()
        for t, traj in enumerate(st["trajs"]):
            t0 = time.perf_counter()
            try:
                records = engine.run(st["net"], traj.z[-1], st["opts"], truth=traj)
            except OPERATION_ERRORS as exc:
                r.check(False, f"trial {t}: {type(exc).__name__}: {exc}")
                continue
            ms = 1000.0 * (time.perf_counter() - t0)
            ok, final = _check_records(r, records, f"trial {t}")
            if ok:
                finals.append(final)
                r.trial_ms.append(ms)
        r.wall = time.perf_counter() - start
        r.quality = {"final_nmse_db": float(np.median(finals)) if finals else math.nan}
        return r


class BaselinesPaper:
    name = "baselines-paper"
    setups = 3
    expected = ("baselines.map_estimate", "baselines.sgld_run",
                "baselines.grad_hamiltonian", "baselines.hamiltonian",
                "network.sample_trajectory", "network.build_synthetic_network")

    def setup(self, seed, out_dir):
        cfg = experiment.paper_config(seed=seed)
        net = _build(cfg.dims, cfg.n_meas, seed)
        trials = []
        for t in range(BASELINE_TRIALS):
            traj = network.sample_trajectory(net, experiment.trial_seed(seed, t))
            trials.append((traj, baselines.HamiltonianContext(net, traj.z[-1]),
                           experiment.trial_seed(seed, t) + (13,)))
        return {"net": net, "trials": trials, "next": 0}

    def _attempt(self, r, label, fn, estimate_of, truth):
        t0 = time.perf_counter()
        try:
            res = fn()
        except OPERATION_ERRORS as exc:
            r.check(False, f"{label}: {type(exc).__name__}: {exc}")
            return None, math.nan
        ms = 1000.0 * (time.perf_counter() - t0)
        est = estimate_of(res)
        nmse = experiment.nmse_db(truth, est) if _finite(est) else math.nan
        if r.check(math.isfinite(nmse), f"{label}: non-finite estimate or NMSE"):
            return ms, nmse
        return None, math.nan

    def rep(self, st, tracer=None):
        """One trial: a MAP and an SGLD run.  Repetitions cycle through the
        set-up trials, so a 6 s repetition keeps the timed section filled."""
        t = st["next"] % BASELINE_TRIALS
        st["next"] += 1
        traj, ctx, seed = st["trials"][t]
        r = Rep()
        if tracer is not None:
            tracer.begin_trial()
        start = time.perf_counter()
        ms_map, n_map = self._attempt(
            r, f"trial {t} MAP",
            lambda: baselines.map_estimate(ctx, steps=MAP_STEPS,
                                           step_size=MAP_STEP_SIZE, seed=seed),
            lambda res: res.z0_hat, traj.z[0])
        ms_sgld, n_sgld = self._attempt(
            r, f"trial {t} SGLD",
            lambda: baselines.sgld_run(ctx, steps=SGLD_STEPS, lam=SGLD_LAMBDA,
                                       burn_in=SGLD_BURN_IN, seed=seed),
            lambda res: res.z0_mean, traj.z[0])
        r.wall = time.perf_counter() - start
        if ms_map is not None and ms_sgld is not None:
            r.trial_ms.append(ms_map + ms_sgld)
        r.timings = {"map_trial_ms": [ms_map] if ms_map is not None else [],
                     "sgld_trial_ms": [ms_sgld] if ms_sgld is not None else []}
        r.quality = {"map_nmse_db": n_map, "sgld_nmse_db": n_sgld}
        return r


WORKLOADS = {w.name: w for w in (PaperIters(), InferenceX4(), BaselinesPaper())}
