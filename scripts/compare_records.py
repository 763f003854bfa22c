"""Dump and compare engine, state-evolution and baseline records of two checkouts.

    PYTHONPATH=src python scripts/compare_records.py dump OUT.npz [--trials T]
        [--batch] [--ulp]
    python scripts/compare_records.py compare A.npz B.npz [--rtol R]

``dump`` builds the paper configuration (x1) and the same preset with dims
and M scaled by 4 (x4; network seed 0, damping 0.85, 50 iterations).  For
each it stores the engine records of trials (0, 71, 0) to (0, 71, T - 1)
(``eta``, ``alpha``, ``gamma_plus``, ``gamma_minus``, ``nmse_db``,
``clamp_events`` and the per-layer ``z_hat``; T = 2 unless given) and every
``run_se`` record (the same fields without ``z_hat``, plus ``tau0`` and the
SE's ``quad_rel_err`` and ``clamp_total``).  At x1 it also stores each
trial's MAP ``z0_hat`` and SGLD ``z0_mean``, run as perfbench's
``baselines-paper`` runs them (2000 Adam steps of 0.01; 2000 SGLD steps at
lambda 2e-5 with burn-in 1000; seed ``trial_seed(0, t) + (13,)``); at x4,
where 4000 dense gradient steps cost about a minute per trial, it does not.
``--batch`` runs the engine's T trials as one batched ``engine.run`` instead
of one run each; ``--ulp`` moves y[0] of every trial (which the engine and
the baselines both see) and the SE's first singular value ``stats[0].s[0]``
up by one ulp, to measure how far rounding alone moves the records.  Run it
once per checkout, with that checkout's ``src`` on ``PYTHONPATH``.  The BLAS
thread count, which moves the records by rounding, is fixed to min(2, CPUs)
as perfbench fixes it, and stored in the dump as ``blas_threads``.

``compare`` prints the worst relative difference per group
(``x1/engine/eta``, ``x4/se/tau0``, ``x1/baselines/map_z0_hat``, ...):
elementwise |a - b| / |b| (|a - b| where b = 0) for the scalar-per-layer
fields, and max |a - b| / max |b| per record and layer for ``z_hat`` and per
trial for the baseline estimates; ``nmse_db`` also gets its worst absolute
difference in dB.  ``quad_rel_err`` is a difference of two nearly equal
integrals, so rounding moves it far more in relative terms than the records
it comes from: it gets only its absolute difference.  It exits 1 when a
relative difference exceeds ``--rtol`` (1e-12), or the two files hold
different keys or shapes or were dumped at different BLAS thread counts;
absolute differences are not gated.
"""
import argparse
import os
import sys
from collections import defaultdict

THREADS = max(1, min(2, len(os.sched_getaffinity(0))))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import numpy as np  # noqa: E402

RTOL = 1e-12
SCALES = (1, 4)
FIELDS = ("eta", "alpha", "gamma_plus", "gamma_minus", "nmse_db", "clamp_events")
ESTIMATES = ("map_z0_hat", "sgld_z0_mean")
MAP_STEPS, MAP_STEP_SIZE = 2000, 0.01
SGLD_STEPS, SGLD_LAMBDA, SGLD_BURN_IN = 2000, 2e-5, 1000


class Mismatch(Exception):
    """Two dumps that cannot be compared."""


def _records_arrays(prefix, records, out):
    for name in FIELDS:
        out[f"{prefix}/{name}"] = np.array([getattr(r, name) for r in records],
                                           dtype=float)
    if records[0].z_hat is not None:
        for ell in range(len(records[0].z_hat)):
            out[f"{prefix}/z_hat{ell}"] = np.array([r.z_hat[ell] for r in records])


def run_baseline(ctx, seed, method):
    """One MAP (``method`` "map") or SGLD run as perfbench's
    ``baselines-paper`` makes it."""
    from mlvamp import baselines

    if method == "map":
        return baselines.map_estimate(ctx, steps=MAP_STEPS, step_size=MAP_STEP_SIZE,
                                      seed=seed)
    return baselines.sgld_run(ctx, steps=SGLD_STEPS, lam=SGLD_LAMBDA,
                              burn_in=SGLD_BURN_IN, seed=seed)


def dump(path, n_trials=2, batch=False, ulp=False):
    from mlvamp.baselines import HamiltonianContext
    from mlvamp.engine import EngineOptions, run
    from mlvamp.experiment import paper_config, trial_seed
    from mlvamp.network import build_synthetic_network, sample_trajectory
    from mlvamp.state_evolution import run_se, stats_from_network

    out = {"blas_threads": np.array(THREADS)}
    for scale in SCALES:
        base = paper_config()
        cfg = paper_config(dims=[scale * d for d in base.dims],
                           n_meas=scale * base.n_meas)
        opts = EngineOptions(max_iter=cfg.n_iter, damping=cfg.damping,
                             store_estimates=True)
        net = build_synthetic_network(cfg.dims, cfg.rho, cfg.kappa, cfg.snr_db,
                                      cfg.n_meas, cfg.seed)
        stats = stats_from_network(net)
        if ulp:
            stats[0].s[0] = np.nextafter(stats[0].s[0], np.inf)
        se = run_se(stats, cfg.n_iter, opts)
        _records_arrays(f"x{scale}/se", se.records, out)
        out[f"x{scale}/se/tau0"] = se.tau0
        out[f"x{scale}/se/quad_rel_err"] = np.array(se.quad_rel_err)
        out[f"x{scale}/se/clamp_total"] = np.array(se.clamp_total, dtype=float)
        trajs = [sample_trajectory(net, trial_seed(cfg.seed, t)) for t in range(n_trials)]
        if ulp:
            for traj in trajs:
                traj.z[-1][0] = np.nextafter(traj.z[-1][0], np.inf)
        if batch:
            flat = run(net, np.array([tr.z[-1] for tr in trajs]), opts, truth=trajs)
            per = len(flat) // n_trials
            runs = [flat[t * per:(t + 1) * per] for t in range(n_trials)]
        else:
            runs = [run(net, tr.z[-1], opts, truth=tr) for tr in trajs]
        for trial, records in enumerate(runs):
            _records_arrays(f"x{scale}/trial{trial}", records, out)
            if scale == 1:
                ctx = HamiltonianContext(net, trajs[trial].z[-1])
                seed = trial_seed(cfg.seed, trial) + (13,)
                prefix = f"x1/trial{trial}"
                out[f"{prefix}/map_z0_hat"] = run_baseline(ctx, seed, "map").z0_hat
                out[f"{prefix}/sgld_z0_mean"] = run_baseline(ctx, seed, "sgld").z0_mean
        print(f"x{scale}: dims {cfg.dims}, M {cfg.n_meas}", flush=True)
    np.savez_compressed(path, **out)


def _rel_diff(key, a, b):
    if "/z_hat" in key or key.endswith(ESTIMATES):   # normwise per vector
        diff, ref = np.max(np.abs(a - b), axis=-1), np.max(np.abs(b), axis=-1)
    else:
        diff, ref = np.abs(a - b), np.abs(b)
    return float(np.max(diff / np.where(ref > 0, ref, 1.0)))


def compare(path_a, path_b):
    """The worst difference per group of two dumps (see the module
    docstring); groups ending ``_abs`` or ``_abs_db`` are absolute.  Raises
    Mismatch when the dumps hold different keys or shapes or were made at
    different BLAS thread counts."""
    a, b = np.load(path_a), np.load(path_b)
    if set(a.files) != set(b.files):
        raise Mismatch(f"different keys: {sorted(set(a.files) ^ set(b.files))}")
    threads = int(a["blas_threads"]), int(b["blas_threads"])
    if threads[0] != threads[1]:
        raise Mismatch(f"dumped at {threads[0]} and {threads[1]} BLAS threads")
    worst = defaultdict(float)
    for key in sorted(set(a.files) - {"blas_threads"}):
        if a[key].shape != b[key].shape:
            raise Mismatch(f"{key}: shapes {a[key].shape} and {b[key].shape}")
        scale, source, name = key.split("/")
        field = "z_hat" if name.startswith("z_hat") else name
        kind = "se" if source == "se" else "baselines" if field in ESTIMATES else "engine"
        group = f"{scale}/{kind}/{field}"
        if field == "quad_rel_err":   # absolute only (see the module docstring)
            group += "_abs"
            worst[group] = max(worst[group], float(np.max(np.abs(a[key] - b[key]))))
            continue
        worst[group] = max(worst[group], _rel_diff(key, a[key], b[key]))
        if field == "nmse_db":
            group = group.replace("nmse_db", "nmse_db_abs_db")
            worst[group] = max(worst[group], float(np.max(np.abs(a[key] - b[key]))))
    return dict(worst)


def worst_relative(groups):
    """The largest of ``compare``'s relative (gated) groups."""
    return max(v for g, v in groups.items() if "_abs" not in g)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    dump_p = sub.add_parser("dump")
    dump_p.add_argument("out")
    dump_p.add_argument("--trials", type=int, default=2)
    dump_p.add_argument("--batch", action="store_true")
    dump_p.add_argument("--ulp", action="store_true")
    cmp_p = sub.add_parser("compare")
    cmp_p.add_argument("a")
    cmp_p.add_argument("b")
    cmp_p.add_argument("--rtol", type=float, default=RTOL)
    args = parser.parse_args(argv)
    if args.cmd == "dump":
        dump(args.out, args.trials, args.batch, args.ulp)
        return 0
    try:
        groups = compare(args.a, args.b)
    except Mismatch as exc:
        print(exc)
        return 1
    for group, val in groups.items():
        flag = "" if val <= args.rtol or "_abs" in group else f"  > {args.rtol:g}"
        print(f"{group:28s} {val:.3e}{flag}")
    return int(worst_relative(groups) > args.rtol)


if __name__ == "__main__":
    sys.exit(main())
