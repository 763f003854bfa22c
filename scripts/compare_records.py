"""Dump and compare engine and state-evolution records of two checkouts.

    PYTHONPATH=src python scripts/compare_records.py dump OUT.npz [--trials T]
        [--batch] [--ulp]
    python scripts/compare_records.py compare A.npz B.npz [--rtol R]

``dump`` builds the paper configuration (x1) and the same preset with dims
and M scaled by 4 (x4; network seed 0, damping 0.85, 50 iterations).  For
each it stores the engine records of trials (0, 71, 0) to (0, 71, T - 1)
(``eta``, ``alpha``, ``gamma_plus``, ``gamma_minus``, ``nmse_db``,
``clamp_events`` and the per-layer ``z_hat``; T = 2 unless given) and every
``run_se`` record (the same fields without ``z_hat``, plus ``tau0`` and the
SE's ``quad_rel_err`` and ``clamp_total``).
``--batch`` runs the T trials as one batched ``engine.run`` instead of one
run each; ``--ulp`` moves y[0] of every trial and the SE's first singular
value ``stats[0].s[0]`` up by one ulp, to measure how far rounding alone
moves the engine and the SE records.  Run it once per checkout, with that
checkout's ``src`` on ``PYTHONPATH``.  The BLAS thread count, which moves
the records by rounding, is fixed to min(2, CPUs) as perfbench fixes it, and
stored in the dump as ``blas_threads``.

``compare`` prints the worst relative difference per field: elementwise
|a - b| / |b| (|a - b| where b = 0) for the scalar-per-layer fields, and
max |a - b| / max |b| per record and layer for ``z_hat``; ``nmse_db`` also
gets its worst absolute difference in dB.  ``quad_rel_err`` is a difference
of two nearly equal integrals, so rounding moves it far more in relative
terms than the records it comes from: it gets only its absolute difference.
It exits 1 when a relative difference exceeds ``--rtol`` (1e-12), or the two
files hold different keys or shapes or were dumped at different BLAS thread
counts; absolute differences are not gated.
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


def _records_arrays(prefix, records, out):
    for name in FIELDS:
        out[f"{prefix}/{name}"] = np.array([getattr(r, name) for r in records],
                                           dtype=float)
    if records[0].z_hat is not None:
        for ell in range(len(records[0].z_hat)):
            out[f"{prefix}/z_hat{ell}"] = np.array([r.z_hat[ell] for r in records])


def dump(path, n_trials=2, batch=False, ulp=False):
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
        print(f"x{scale}: dims {cfg.dims}, M {cfg.n_meas}", flush=True)
    np.savez_compressed(path, **out)


def _rel_diff(key, a, b):
    if "/z_hat" in key:   # normwise per record and layer
        diff, ref = np.max(np.abs(a - b), axis=1), np.max(np.abs(b), axis=1)
    else:
        diff, ref = np.abs(a - b), np.abs(b)
    return float(np.max(diff / np.where(ref > 0, ref, 1.0)))


def compare(path_a, path_b, rtol=RTOL):
    a, b = np.load(path_a), np.load(path_b)
    if set(a.files) != set(b.files):
        print("different keys:", sorted(set(a.files) ^ set(b.files)))
        return 1
    threads = int(a["blas_threads"]), int(b["blas_threads"])
    if threads[0] != threads[1]:
        print(f"dumped at {threads[0]} and {threads[1]} BLAS threads")
        return 1
    worst = defaultdict(float)
    for key in sorted(set(a.files) - {"blas_threads"}):
        if a[key].shape != b[key].shape:
            print(f"{key}: shapes {a[key].shape} and {b[key].shape}")
            return 1
        scale, source, name = key.split("/")
        field = "z_hat" if name.startswith("z_hat") else name
        group = f"{scale}/{'se' if source == 'se' else 'engine'}/{field}"
        if field == "quad_rel_err":   # absolute only (see the module docstring)
            group += "_abs"
            worst[group] = max(worst[group], float(np.max(np.abs(a[key] - b[key]))))
            continue
        worst[group] = max(worst[group], _rel_diff(key, a[key], b[key]))
        if field == "nmse_db":
            group = group.replace("nmse_db", "nmse_db_abs_db")
            worst[group] = max(worst[group], float(np.max(np.abs(a[key] - b[key]))))
    for group, val in worst.items():
        flag = "" if val <= rtol or "_abs" in group else f"  > {rtol:g}"
        print(f"{group:28s} {val:.3e}{flag}")
    return int(max(v for g, v in worst.items() if "_abs" not in g) > rtol)


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
    return compare(args.a, args.b, args.rtol)


if __name__ == "__main__":
    sys.exit(main())
