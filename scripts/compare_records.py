"""Dump and compare engine and state-evolution records of two checkouts.

    PYTHONPATH=src python scripts/compare_records.py dump OUT.npz
    python scripts/compare_records.py compare A.npz B.npz

``dump`` builds the paper configuration (x1) and the same preset with dims
and M scaled by 4 (x4; network seed 0, damping 0.85, 50 iterations).  For
each it stores the engine records of trials (0, 71, 0) and (0, 71, 1)
(``eta``, ``alpha``, ``gamma_plus``, ``gamma_minus``, ``nmse_db``,
``clamp_events`` and the per-layer ``z_hat``) and every ``run_se`` record
(the same fields without ``z_hat``, plus ``tau0``).  Run it once per
checkout, with that checkout's ``src`` on ``PYTHONPATH``.

``compare`` prints the worst relative difference per field: elementwise
|a - b| / |b| (|a - b| where b = 0) for the scalar-per-layer fields, and
max |a - b| / max |b| per record and layer for ``z_hat``.  It exits 1 when a
field exceeds 1e-12 or the two files hold different keys or shapes.
"""
import argparse
import sys
from collections import defaultdict

import numpy as np

RTOL = 1e-12
SCALES = (1, 4)
TRIALS = (0, 1)
FIELDS = ("eta", "alpha", "gamma_plus", "gamma_minus", "nmse_db", "clamp_events")


def _records_arrays(prefix, records, out):
    for name in FIELDS:
        out[f"{prefix}/{name}"] = np.array([getattr(r, name) for r in records],
                                           dtype=float)
    if records[0].z_hat is not None:
        for ell in range(len(records[0].z_hat)):
            out[f"{prefix}/z_hat{ell}"] = np.array([r.z_hat[ell] for r in records])


def dump(path):
    from mlvamp.engine import run
    from mlvamp.experiment import paper_config, trial_seed
    from mlvamp.network import build_synthetic_network, sample_trajectory
    from mlvamp.state_evolution import run_se, stats_from_network

    out = {}
    for scale in SCALES:
        base = paper_config()
        cfg = paper_config(dims=[scale * d for d in base.dims],
                           n_meas=scale * base.n_meas, store_estimates=True)
        net = build_synthetic_network(cfg.dims, cfg.rho, cfg.kappa, cfg.snr_db,
                                      cfg.n_meas, cfg.seed)
        se = run_se(stats_from_network(net), cfg.n_iter, cfg.engine_options())
        _records_arrays(f"x{scale}/se", se.records, out)
        out[f"x{scale}/se/tau0"] = se.tau0
        for trial in TRIALS:
            traj = sample_trajectory(net, trial_seed(cfg.seed, trial))
            records = run(net, traj.z[-1], cfg.engine_options(), truth=traj)
            _records_arrays(f"x{scale}/trial{trial}", records, out)
        print(f"x{scale}: dims {cfg.dims}, M {cfg.n_meas}", flush=True)
    np.savez_compressed(path, **out)


def _rel_diff(key, a, b):
    if "/z_hat" in key:   # normwise per record and layer
        diff, ref = np.max(np.abs(a - b), axis=1), np.max(np.abs(b), axis=1)
    else:
        diff, ref = np.abs(a - b), np.abs(b)
    return float(np.max(diff / np.where(ref > 0, ref, 1.0)))


def compare(path_a, path_b):
    a, b = np.load(path_a), np.load(path_b)
    if set(a.files) != set(b.files):
        print("different keys:", sorted(set(a.files) ^ set(b.files)))
        return 1
    worst = defaultdict(float)
    for key in sorted(a.files):
        if a[key].shape != b[key].shape:
            print(f"{key}: shapes {a[key].shape} and {b[key].shape}")
            return 1
        scale, source, name = key.split("/")
        field = "z_hat" if name.startswith("z_hat") else name
        group = f"{scale}/{'se' if source == 'se' else 'engine'}/{field}"
        worst[group] = max(worst[group], _rel_diff(key, a[key], b[key]))
    for group, val in worst.items():
        flag = "" if val <= RTOL else f"  > {RTOL:g}"
        print(f"{group:28s} {val:.3e}{flag}")
    return int(max(worst.values()) > RTOL)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    sub.add_parser("dump").add_argument("out")
    cmp_p = sub.add_parser("compare")
    cmp_p.add_argument("a")
    cmp_p.add_argument("b")
    args = parser.parse_args(argv)
    if args.cmd == "dump":
        dump(args.out)
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
