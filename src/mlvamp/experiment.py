"""Synthetic-experiment harness: iteration curves, measurement sweeps and
baseline comparisons, with CSV/JSON output.

Within a trial every method sees the bit-identical trajectory (shared seeds);
one network per experiment configuration, re-sampled trajectories per trial.
ML-VAMP runs every trial of an experiment as one batch; MAP and SGLD run
trial by trial.  The per-half-iteration CSV schema is fixed:

    trial, method, half_iter, layer, nmse_db, se_nmse_db,
    gamma_plus, gamma_minus, clamp_events, runtime_ms
"""
import csv
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import baselines as bl
from .engine import EngineOptions, check_inputs, nmse_db, run
from .errors import ConfigError, MlvampError
from .network import (build_synthetic_network, is_integer, is_real, positive_integers,
                      sample_trajectory)
from .state_evolution import run_se, se_state_to_json, stats_from_network

CSV_COLUMNS = ("trial", "method", "half_iter", "layer", "nmse_db", "se_nmse_db",
               "gamma_plus", "gamma_minus", "clamp_events", "runtime_ms")

PAPER_DIMS = [20, 100, 500, 784]
PAPER_SWEEP_N_MEAS = [100, 200, 300, 400, 500, 600]
KNOWN_METHODS = ("mlvamp", "map", "sgld")
COUNT_KEYS = ("n_iter", "n_trials", "seed", "map_steps", "sgld_steps", "sgld_burn_in")
REAL_KEYS = ("rho", "kappa", "snr_db", "damping", "map_step_size", "sgld_lambda")


@dataclass
class ExperimentConfig:
    """Defaults reproduce the synthetic experiment preset.

    The preset damps the (gamma, r) updates (0.85): the 20-dimensional input
    layer makes the undamped recursion clamp and oscillate transiently at
    these sizes, while the damped run is clamp-free after the first
    iterations.  The engine itself defaults to no damping.
    """

    dims: list = field(default_factory=lambda: list(PAPER_DIMS))
    rho: float = 0.4
    kappa: float = 10.0
    snr_db: float = 30.0
    n_meas: object = 300            # int, or list of ints for sweeps
    n_iter: int = 50
    n_trials: int = 10
    seed: int = 0
    methods: tuple = ("mlvamp",)
    damping: float = 0.85
    include_runtime: bool = True
    map_steps: int = 500
    map_step_size: float = 0.01
    sgld_steps: int = 10000
    sgld_lambda: float = 0.002
    sgld_burn_in: int = 5000

    def validate(self):
        """Every field's type, then its range."""
        n_meas = self.n_meas if isinstance(self.n_meas, (list, tuple)) else [self.n_meas]
        kinds = {key: (is_integer(getattr(self, key)), "an integer")
                 for key in COUNT_KEYS}
        kinds.update({key: (is_real(getattr(self, key)), "a finite real number")
                      for key in REAL_KEYS})
        kinds.update(
            dims=(positive_integers(self.dims), "a nonempty list of positive integers"),
            n_meas=(positive_integers(n_meas),
                    "a positive integer or a nonempty list of them"),
            include_runtime=(isinstance(self.include_runtime, bool), "true or false"),
            methods=(isinstance(self.methods, (list, tuple))
                     and all(isinstance(m, str) for m in self.methods),
                     "a list of strings"))
        for key, (ok, kind) in kinds.items():
            if not ok:
                raise ConfigError(f"{key} must be {kind}, not {getattr(self, key)!r}")
        if len(set(n_meas)) != len(n_meas):
            raise ConfigError(f"n_meas values must be distinct, not {self.n_meas!r}")
        unknown = [m for m in self.methods if m not in KNOWN_METHODS]
        if unknown:
            raise ConfigError(f"unimplemented methods requested: {unknown}")
        if not self.methods:
            raise ConfigError("methods list must be nonempty")
        if self.n_trials < 0:
            raise ConfigError("n_trials must be >= 0")
        if self.n_iter < 1:
            raise ConfigError("n_iter must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if not 0 < self.damping <= 1:
            raise ConfigError(f"damping must lie in (0, 1], not {self.damping!r}")
        for key in ("map_steps", "sgld_steps", "sgld_burn_in"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be >= 0, not {getattr(self, key)!r}")
        if self.sgld_burn_in >= self.sgld_steps:
            raise ConfigError(f"sgld_burn_in must be smaller than sgld_steps "
                              f"({self.sgld_burn_in!r} >= {self.sgld_steps!r})")
        for key in ("map_step_size", "sgld_lambda"):
            if not getattr(self, key) > 0:
                raise ConfigError(f"{key} must be positive, not {getattr(self, key)!r}")

    def engine_options(self):
        """The engine's options for this config; no experiment reads an
        estimate, so none are stored."""
        return EngineOptions(max_iter=self.n_iter, damping=self.damping,
                             store_estimates=False)

    def to_dict(self):
        d = asdict(self)
        d["methods"] = list(self.methods)
        return d

    @classmethod
    def from_dict(cls, d):
        """The one way outside input becomes a config: the defaults updated
        by ``d``'s keys, then checked."""
        if not isinstance(d, dict):
            raise ConfigError(f"a config must be a JSON object, not {d!r}")
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**d)
        cfg.validate()
        cfg.methods = tuple(cfg.methods)
        return cfg


def paper_config(**overrides):
    """The defaults reproduce the synthetic-network experiment; ``run --paper``
    needs no further arguments."""
    return ExperimentConfig.from_dict(overrides)


def trial_seed(seed, trial):
    """Trajectory seed for one trial; disjoint from the builder seed stream."""
    return (int(seed), 71, int(trial))


def config_network(cfg):
    """The synthetic network a config describes (one n_meas)."""
    if not np.isscalar(cfg.n_meas):
        raise ConfigError("building one network needs a single n_meas")
    return build_synthetic_network(cfg.dims, cfg.rho, cfg.kappa, cfg.snr_db,
                                   int(cfg.n_meas), cfg.seed)


def record_rows(records, se, trial, method="mlvamp", runtime=""):
    """CSV rows (one per half-iteration and layer) of engine or SE records,
    with the SE prediction of the same half-iteration alongside.  Records
    without NMSE (no truth) leave ``nmse_db`` empty."""
    rows = []
    for rec in records:
        se_rec = se.records[rec.half_iter - 1]
        for layer in range(len(rec.eta)):
            rows.append({
                "trial": trial, "method": method,
                "half_iter": rec.half_iter, "layer": layer,
                "nmse_db": "" if rec.nmse_db is None else float(rec.nmse_db[layer]),
                "se_nmse_db": float(se_rec.nmse_db[layer]),
                "gamma_plus": float(rec.gamma_plus[layer]),
                "gamma_minus": float(rec.gamma_minus[layer]),
                "clamp_events": rec.clamp_events,
                "runtime_ms": runtime,
            })
    return rows


def _append_baselines(out, net, cfg, traj):
    """Append one trial's MAP/SGLD rows to the trial entry ``out``; a
    diverging method is recorded as a failure without voiding the other
    methods' results."""
    trial = out["trial"]
    ctx = bl.HamiltonianContext(net, traj.z[-1])
    seed = trial_seed(cfg.seed, trial) + (13,)
    estimators = {
        "map": lambda: bl.map_estimate(ctx, steps=cfg.map_steps,
                                       step_size=cfg.map_step_size,
                                       seed=seed).z0_hat,
        "sgld": lambda: bl.sgld_run(ctx, steps=cfg.sgld_steps, lam=cfg.sgld_lambda,
                                    burn_in=cfg.sgld_burn_in, seed=seed).z0_mean,
    }
    for method, estimate in estimators.items():
        if method not in cfg.methods:
            continue
        start = time.perf_counter()
        try:
            z0_hat = estimate()
        except MlvampError as exc:
            out["failures"].append({"trial": trial, "method": method,
                                    "error": str(exc)})
            continue
        runtime = out["runtimes"][method] = 1000.0 * (time.perf_counter() - start)
        out["rows"].append({
            "trial": trial, "method": method, "half_iter": "", "layer": 0,
            "nmse_db": nmse_db(traj.z[0], z0_hat), "se_nmse_db": "",
            "gamma_plus": "", "gamma_minus": "", "clamp_events": "",
            "runtime_ms": runtime if cfg.include_runtime else "",
        })


def _append_mlvamp(entries, net, se, cfg, trajs):
    """Run ML-VAMP on ``trajs`` (trial -> trajectory) and add each trial's
    rows, runtime and clamp total to its entry in ``entries``.  Several
    trajectories run as one batch, whose runtime per trial is the batch wall
    time over the trial count; a single one runs alone."""
    trials = list(trajs)
    ys = np.array([trajs[t].z[-1] for t in trials])
    truth = [trajs[t] for t in trials]
    start = time.perf_counter()
    if len(trials) == 1:
        records = run(net, ys[0], cfg.engine_options(), truth=truth[0])
    else:
        records = run(net, ys, cfg.engine_options(), truth=truth)
    runtime = 1000.0 * (time.perf_counter() - start) / len(trials)
    per_trial = len(records) // len(trials)
    for i, trial in enumerate(trials):
        own = records[i * per_trial:(i + 1) * per_trial]
        entry = entries[trial]
        entry["runtimes"]["mlvamp"] = runtime
        entry["rows"] += record_rows(own, se, trial,
                                     runtime=runtime if cfg.include_runtime else "")
        entry["clamp_total"] = sum(rec.clamp_events for rec in own)


def _sort_key(row):
    half = row["half_iter"] if row["half_iter"] != "" else -1
    return (row["trial"], row["method"], half, row["layer"])


@dataclass
class ExperimentResult:
    config: dict
    rows: list
    se: object
    metadata: dict

    @property
    def partial(self):
        return bool(self.metadata.get("failures"))

    def median_abs_se_gap(self, layer=0):
        """Per half-iteration, the median over trials of |simulated - SE| in dB."""
        gaps = defaultdict(list)
        for row in self.rows:
            if row["method"] == "mlvamp" and row["layer"] == layer:
                gaps[row["half_iter"]].append(
                    abs(row["nmse_db"] - row["se_nmse_db"]))
        halves = np.array(sorted(gaps))
        return halves, np.array([np.median(gaps[h]) for h in halves])

    def final_nmse_per_trial(self, layer=0, method="mlvamp"):
        """trial -> ``nmse_db`` of the method's last row at ``layer``: the
        largest half-iteration, or a baseline's single row.  The rows are in
        ``_sort_key`` order, so a trial's last matching row is that one."""
        return {row["trial"]: row["nmse_db"] for row in self.rows
                if row["method"] == method and row["layer"] == layer}

    def write_csv(self, path):
        write_rows_csv(self.rows, path)

    def to_json_dict(self):
        """The config, metadata and SE records; the rows are the CSV's.  A
        config without runtimes leaves the wall-clock ``runtimes_ms`` out,
        so that the document is byte-reproducible."""
        meta = {k: v for k, v in self.metadata.items()
                if k != "runtimes_ms" or self.config["include_runtime"]}
        return {"config": self.config, "metadata": meta,
                "se": se_state_to_json(self.se) if self.se is not None else None}

    def write_json(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh)


def _fmt(v):
    if v == "" or v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".10g")


def write_rows_csv(rows, path, columns=CSV_COLUMNS):
    """RFC-4180 CSV (CRLF, UTF-8, '.' decimal separator)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])


def se_to_rows(se, method="se"):
    """SE predictions in the shared CSV schema (aligned for plot overlay)."""
    return record_rows(se.records, se, trial="", method=method)


def _run_trials(net, se, cfg):
    """Every trial on its own trajectory: ML-VAMP on all of them as one
    batch, then the baselines trial by trial.  A library error that stops a
    trial leaves only its ``{"trial", "error"}`` failure entry.  Each trial's
    observation and truth pass the engine's input checks alone first, so a
    trial they reject fails with its single-run message and the rest still
    run as one batch.  When the batch raises all the same (inside an engine
    sweep), its trials re-run one at a time, so the other trials' rows and
    the failure entries are those of single-trial runs."""
    entries, trajs = {}, {}

    def fail(trial, exc):
        entries[trial] = {"trial": trial, "error": str(exc)}
        trajs.pop(trial, None)

    for trial in range(cfg.n_trials):
        entries[trial] = {"trial": trial, "rows": [], "runtimes": {},
                          "clamp_total": 0, "failures": []}
        try:
            trajs[trial] = traj = sample_trajectory(net, trial_seed(cfg.seed, trial))
            if "mlvamp" in cfg.methods:
                check_inputs(net, traj.z[-1], traj)
        except MlvampError as exc:
            fail(trial, exc)
    if "mlvamp" in cfg.methods and trajs:
        try:
            _append_mlvamp(entries, net, se, cfg, trajs)
        except MlvampError:
            for trial, traj in list(trajs.items()):
                try:
                    _append_mlvamp(entries, net, se, cfg, {trial: traj})
                except MlvampError as exc:
                    fail(trial, exc)
    if set(cfg.methods) - {"mlvamp"}:
        for trial, traj in list(trajs.items()):
            try:
                _append_baselines(entries[trial], net, cfg, traj)
            except MlvampError as exc:
                fail(trial, exc)
    rows, failures, runtimes, clamps = [], [], {}, {}
    for res in entries.values():
        if "error" in res:
            failures.append(res)
            continue
        rows += res["rows"]
        runtimes[res["trial"]] = res["runtimes"]
        clamps[res["trial"]] = res["clamp_total"]
        failures += res["failures"]
    rows.sort(key=_sort_key)
    return rows, failures, runtimes, clamps


def run_iteration_experiment(cfg, net=None):
    """Per-half-iteration NMSE curves for one n_meas with the SE overlay, and
    a final-NMSE row per trial for each baseline: exactly the methods in
    ``cfg.methods``, all on shared trajectories.  A network the requested
    baselines cannot run on raises ConfigError before any trial."""
    cfg.validate()
    if net is None:
        net = config_network(cfg)
    if set(cfg.methods) - {"mlvamp"}:
        bl.check_network(net)
    se = run_se(stats_from_network(net), cfg.n_iter, cfg.engine_options())
    rows, failures, runtimes, clamps = _run_trials(net, se, cfg)
    meta = {"failures": failures, "runtimes_ms": runtimes,
            "clamp_totals": clamps, "network_meta": net.meta,
            "n_layers": net.n_layers, "dims": net.dims,
            "se_clamp_total": se.clamp_total}
    result = ExperimentResult(config=cfg.to_dict(), rows=rows, se=se, metadata=meta)
    meta["median_abs_se_gap_db"] = {int(h): float(g) for h, g
                                     in zip(*result.median_abs_se_gap(0))}
    return result


@dataclass
class SweepResult:
    config: dict
    summary_rows: list
    per_m: dict
    metadata: dict

    @property
    def partial(self):
        return any(r.partial for r in self.per_m.values())

    def write_summary_csv(self, path):
        cols = ("n_meas", "method", "final_nmse_db", "final_nmse_db_q1",
                "final_nmse_db_q3", "se_final_nmse_db", "n_trials_ok")
        write_rows_csv(self.summary_rows, path, columns=cols)


def run_measurement_sweep(cfg):
    """Final NMSE (simulated median + SE prediction) per measurement count."""
    cfg.validate()
    m_values = cfg.n_meas if not np.isscalar(cfg.n_meas) else [cfg.n_meas]
    summary, per_m = [], {}
    for m in m_values:
        sub = replace(cfg, n_meas=int(m))
        res = run_iteration_experiment(sub)
        per_m[int(m)] = res
        finals = list(res.final_nmse_per_trial(layer=0).values())
        se_final = float(res.se.records[-1].nmse_db[0])
        summary.append({
            "n_meas": int(m), "method": "mlvamp",
            "final_nmse_db": float(np.median(finals)) if finals else "",
            "final_nmse_db_q1": float(np.percentile(finals, 25)) if finals else "",
            "final_nmse_db_q3": float(np.percentile(finals, 75)) if finals else "",
            "se_final_nmse_db": se_final,
            "n_trials_ok": len(finals),
        })
    meta = {"n_meas_values": [int(m) for m in m_values]}
    return SweepResult(config=cfg.to_dict(), summary_rows=summary,
                       per_m=per_m, metadata=meta)
